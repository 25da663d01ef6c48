"""Unit tests for the firmware builder and the control core."""

import pytest

from repro.kernel import SimulationError, Simulator, ns, us
from repro.kernel.signal import Signal
from repro.kernel.simtime import TimeUnit
from repro.soc import ControlCore, FirmwareBuilder, OpCode
from repro.soc.accelerator import ProducerAccelerator
from repro.tlm import Bus, Memory, RegisterBank


class TestFirmwareBuilder:
    def test_builder_produces_instruction_list(self):
        firmware = (
            FirmwareBuilder("job")
            .write_reg("acc", "CTRL", 1)
            .read_reg("acc", "STATUS", "status")
            .poll_reg("acc", "STATUS", mask=0x2, expected=0x2)
            .delay(100)
            .wait_irq("acc")
            .monitor_fifos(("acc",), repetitions=2, period_ns=50)
            .store_word(0x10, 7)
            .load_word(0x10, "readback")
            .barrier()
            .build()
        )
        assert len(firmware) == 9
        opcodes = [instruction.opcode for instruction in firmware]
        assert opcodes[0] is OpCode.WRITE_REG
        assert opcodes[-1] is OpCode.BARRIER
        assert firmware.instructions[2].params["mask"] == 0x2


def build_core_platform(sim, firmware, quantum=None):
    """A bus with one register bank, one memory and one IRQ line."""
    bus = Bus(sim, "bus", latency=ns(2))
    bank = RegisterBank(sim, "bank")
    bank.add_register("CTRL", 0x0)
    bank.add_register("STATUS", 0x8)
    bank.add_register("IN_LEVEL", 0xC, on_read=lambda: 3)
    bank.add_register("OUT_LEVEL", 0x10, on_read=lambda: 1)
    memory = Memory(sim, "memory", size=1024)
    bus.map_target(bank.socket, 0x1000, 0x100, "acc")
    bus.map_target(memory.socket, 0x8000, 1024, "memory")
    irq = Signal(sim, "irq", initial=0)

    core = ControlCore(sim, "core", firmware=firmware, quantum=quantum)
    core.socket.bind(bus)
    core.map_peripheral("acc", 0x1000)
    core.map_irq("acc", irq)
    core.memory_base = 0x8000
    core.set_register_offsets({"CTRL": 0x0, "STATUS": 0x8, "IN_LEVEL": 0xC, "OUT_LEVEL": 0x10})
    return core, bank, memory, irq


class TestControlCore:
    def test_register_write_and_read(self, sim):
        firmware = (
            FirmwareBuilder()
            .write_reg("acc", "CTRL", 5)
            .read_reg("acc", "CTRL", "ctrl_value")
            .build()
        )
        core, bank, _, _ = build_core_platform(sim, firmware)
        sim.run()
        assert bank.peek("CTRL") == 5
        assert core.variables["ctrl_value"] == 5
        assert core.instructions_executed == 2
        assert core.transactions_issued == 2
        assert core.finish_time is not None

    def test_memory_store_and_load(self, sim):
        firmware = (
            FirmwareBuilder()
            .store_word(0x20, 0xCAFE)
            .load_word(0x20, "value")
            .build()
        )
        core, _, memory, _ = build_core_platform(sim, firmware)
        sim.run()
        assert core.variables["value"] == 0xCAFE
        assert memory._storage[0x20:0x24] == (0xCAFE).to_bytes(4, "little")

    def test_delay_and_timing_annotations_advance_time(self, sim):
        firmware = FirmwareBuilder().delay(500).barrier().build()
        core, _, _, _ = build_core_platform(sim, firmware)
        sim.run()
        # instruction_time (2 x 5 ns) + 500 ns delay.
        assert core.finish_time.to(TimeUnit.NS) == 510.0

    def test_poll_reg_until_value(self, sim):
        firmware = (
            FirmwareBuilder()
            .poll_reg("acc", "STATUS", mask=0x1, expected=0x1, period_ns=100)
            .build()
        )
        core, bank, _, _ = build_core_platform(sim, firmware)

        def hardware():
            yield sim.wait(450)
            bank.poke("STATUS", 1)

        sim.create_thread(hardware, name="hardware")
        sim.run()
        assert core.finish_time.to(TimeUnit.NS) >= 450.0

    def test_poll_reg_gives_up(self, sim):
        firmware = (
            FirmwareBuilder()
            .poll_reg("acc", "STATUS", mask=0x1, expected=0x1, period_ns=10, max_polls=3)
            .build()
        )
        build_core_platform(sim, firmware)
        with pytest.raises(SimulationError):
            sim.run()

    def test_wait_irq(self, sim):
        firmware = FirmwareBuilder().wait_irq("acc").build()
        core, _, _, irq = build_core_platform(sim, firmware)

        def hardware():
            yield sim.wait(300)
            irq.write(1)

        sim.create_thread(hardware, name="hardware")
        sim.run()
        assert core.finish_time.to(TimeUnit.NS) >= 300.0

    def test_wait_irq_unmapped_target(self, sim):
        firmware = FirmwareBuilder().wait_irq("ghost").build()
        build_core_platform(sim, firmware)
        with pytest.raises(SimulationError):
            sim.run()

    def test_monitor_fifos_collects_samples(self, sim):
        firmware = FirmwareBuilder().monitor_fifos(("acc",), repetitions=3, period_ns=20).build()
        core, _, _, _ = build_core_platform(sim, firmware)
        sim.run()
        assert len(core.monitor_samples) == 3
        target, _date, in_level, out_level = core.monitor_samples[0]
        assert target == "acc"
        assert (in_level, out_level) == (3, 1)

    def test_quantum_reduces_synchronizations(self, sim):
        many_writes = FirmwareBuilder()
        for _ in range(50):
            many_writes.write_reg("acc", "CTRL", 1)
        firmware = many_writes.build()

        core, _, _, _ = build_core_platform(sim, firmware, quantum=us(1))
        sim.run()
        with_quantum = sim.stats.context_switches

        sim2 = Simulator("no_quantum")
        firmware2 = FirmwareBuilder()
        for _ in range(50):
            firmware2.write_reg("acc", "CTRL", 1)
        core2, _, _, _ = build_core_platform(sim2, firmware2.build(), quantum=ns(1))
        sim2.run()
        without_quantum = sim2.stats.context_switches

        assert with_quantum < without_quantum
        assert core.finish_time == core2.finish_time  # same functional timing

    def test_unmapped_peripheral_is_error(self, sim):
        firmware = FirmwareBuilder().write_reg("ghost", "CTRL", 1).build()
        build_core_platform(sim, firmware)
        with pytest.raises(SimulationError):
            sim.run()

    def test_unknown_register_is_error(self, sim):
        firmware = FirmwareBuilder().write_reg("acc", "NO_SUCH_REG", 1).build()
        build_core_platform(sim, firmware)
        with pytest.raises(SimulationError):
            sim.run()

    def test_core_without_firmware_is_inert(self, sim):
        core = ControlCore(sim, "core")
        core.socket.bind(Memory(sim, "memory", size=16).socket)
        sim.run()
        assert core.instructions_executed == 0
