"""Unit tests for the bus and the sockets."""

import pytest

from repro.kernel import Module, TlmError, ns
from repro.tlm import (
    Bus,
    GenericPayload,
    InitiatorSocket,
    Memory,
    TargetSocket,
    TlmResponse,
)


class Initiator(Module):
    def __init__(self, parent, name):
        super().__init__(parent, name)
        self.socket = InitiatorSocket(self, "socket")


class TestSockets:
    def test_initiator_requires_transport_interface(self, sim):
        initiator = Initiator(sim, "init")
        with pytest.raises(TlmError):
            initiator.socket.bind(object())

    def test_target_socket_requires_callback(self, sim):
        target_owner = Module(sim, "target")
        socket = TargetSocket(target_owner, "socket")
        with pytest.raises(TlmError):
            socket.b_transport(GenericPayload.make_word_read(0), ns(0))

    def test_target_callback_must_return_delay(self, sim):
        target_owner = Module(sim, "target")
        socket = TargetSocket(target_owner, "socket", callback=lambda p, d: None)
        with pytest.raises(TlmError):
            socket.b_transport(GenericPayload.make_word_read(0), ns(0))

    def test_end_to_end_transaction_counting(self, sim):
        initiator = Initiator(sim, "init")
        memory = Memory(sim, "mem", size=64)
        initiator.socket.bind(memory.socket)
        payload = GenericPayload.make_word_write(0, 42)
        initiator.socket.b_transport(payload, ns(0))
        assert payload.ok
        assert initiator.socket.transactions_sent == 1


class TestBus:
    def make_platform(self, sim):
        bus = Bus(sim, "bus", latency=ns(5))
        mem_a = Memory(sim, "mem_a", size=0x100, read_latency=ns(10), write_latency=ns(10))
        mem_b = Memory(sim, "mem_b", size=0x100, read_latency=ns(20), write_latency=ns(20))
        bus.map_target(mem_a.socket, 0x1000, 0x100, "mem_a")
        bus.map_target(mem_b.socket, 0x2000, 0x100, "mem_b")
        return bus, mem_a, mem_b

    def test_address_decoding_and_translation(self, sim):
        bus, mem_a, mem_b = self.make_platform(sim)
        payload = GenericPayload.make_word_write(0x2010, 99)
        bus.b_transport(payload, ns(0))
        assert payload.ok
        # The write landed at offset 0x10 of mem_b (address translated).
        assert mem_b._storage[0x10:0x14] == (99).to_bytes(4, "little")
        assert mem_a._storage[0x10:0x14] == b"\x00\x00\x00\x00"
        # The payload address is restored after routing.
        assert payload.address == 0x2010

    def test_latency_accumulation(self, sim):
        bus, mem_a, _ = self.make_platform(sim)
        payload = GenericPayload.make_word_read(0x1000)
        delay = bus.b_transport(payload, ns(3))
        assert delay == ns(3) + ns(5) + ns(10)

    def test_unmapped_address(self, sim):
        bus, _, _ = self.make_platform(sim)
        payload = GenericPayload.make_word_read(0x9999)
        bus.b_transport(payload, ns(0))
        assert payload.response is TlmResponse.ADDRESS_ERROR

    def test_unmapped_address_costs_only_the_bus_latency(self, sim):
        bus, mem_a, mem_b = self.make_platform(sim)
        payload = GenericPayload.make_word_write(0x3000, 7)
        delay = bus.b_transport(payload, ns(3))
        assert payload.response is TlmResponse.ADDRESS_ERROR
        assert delay == ns(3) + ns(5)
        assert bus.total_accesses() == 0
        assert mem_a.writes == mem_b.writes == 0

    def test_overlapping_ranges_rejected(self, sim):
        bus, _, _ = self.make_platform(sim)
        extra = Memory(sim, "extra", size=0x100)
        with pytest.raises(TlmError):
            bus.map_target(extra.socket, 0x1080, 0x100, "overlap")

    def test_access_counters(self, sim):
        bus, _, _ = self.make_platform(sim)
        for _ in range(3):
            bus.b_transport(GenericPayload.make_word_read(0x1000), ns(0))
        bus.b_transport(GenericPayload.make_word_read(0x2000), ns(0))
        assert bus.accesses == {"mem_a": 3, "mem_b": 1}
        assert bus.total_accesses() == 4

    def test_decode_helper(self, sim):
        bus, _, _ = self.make_platform(sim)
        window = bus.decode(0x10FF)
        assert window.name == "mem_a"
        with pytest.raises(TlmError):
            bus.decode(0x0)
        assert bus.decode(0x2000).name == "mem_b"

    def test_target_error_passes_through_and_address_is_restored(self, sim):
        bus, mem_a, _ = self.make_platform(sim)
        # The word starts inside mem_a's window but runs past its storage.
        payload = GenericPayload.make_word_read(0x10FE)
        delay = bus.b_transport(payload, ns(0))
        assert payload.response is TlmResponse.ADDRESS_ERROR
        assert payload.address == 0x10FE
        assert delay == ns(5)
        assert mem_a.reads == 0
        assert bus.accesses["mem_a"] == 1

    def test_windows_are_half_open(self, sim):
        bus, _, _ = self.make_platform(sim)
        window = bus.decode(0x1000)
        assert (window.base, window.end) == (0x1000, 0x1100)
        assert window.contains(0x10FF)
        assert not window.contains(0x1100)
        with pytest.raises(TlmError):
            bus.decode(0x1100)

