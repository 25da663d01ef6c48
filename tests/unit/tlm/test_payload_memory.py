"""Unit tests for the TLM generic payload and the memory target."""

import pytest

from repro.kernel import TlmError, ns
from repro.tlm import GenericPayload, Memory, TlmCommand, TlmResponse


class TestGenericPayload:
    def test_read_constructor(self):
        payload = GenericPayload.make_read(0x100, 8)
        assert payload.command is TlmCommand.READ
        assert payload.address == 0x100
        assert payload.length == 8
        assert payload.response is TlmResponse.INCOMPLETE

    def test_write_constructor(self):
        payload = GenericPayload.make_write(0x20, b"\x01\x02")
        assert payload.command is TlmCommand.WRITE
        assert bytes(payload.data) == b"\x01\x02"
        assert payload.length == 2

    def test_word_helpers(self):
        payload = GenericPayload.make_word_write(0x0, 0xDEADBEEF)
        assert payload.word_value() == 0xDEADBEEF
        payload.set_word_value(0x12345678)
        assert payload.word_value() == 0x12345678

    def test_word_value_requires_four_bytes(self):
        payload = GenericPayload.make_write(0x0, b"\x01")
        with pytest.raises(TlmError):
            payload.word_value()

    def test_check_ok(self):
        payload = GenericPayload.make_word_read(0)
        with pytest.raises(TlmError):
            payload.check_ok()
        payload.response = TlmResponse.OK
        payload.check_ok()
        assert payload.ok

    def test_extensions_dict(self):
        payload = GenericPayload.make_word_read(0)
        payload.extensions["stream_id"] = 7
        assert payload.extensions["stream_id"] == 7


class TestMemory:
    def test_size_validation(self, sim):
        with pytest.raises(TlmError):
            Memory(sim, "bad", size=0)

    def test_write_then_read(self, sim):
        memory = Memory(sim, "mem", size=256)
        write = GenericPayload.make_write(0x10, b"\xaa\xbb\xcc\xdd")
        delay = memory.socket.b_transport(write, ns(0))
        assert write.ok
        assert delay == memory.write_latency

        read = GenericPayload.make_read(0x10, 4)
        delay = memory.socket.b_transport(read, ns(5))
        assert read.ok
        assert bytes(read.data) == b"\xaa\xbb\xcc\xdd"
        assert delay == ns(5) + memory.read_latency
        assert memory.reads == 1 and memory.writes == 1

    def test_out_of_range_access(self, sim):
        memory = Memory(sim, "mem", size=16)
        payload = GenericPayload.make_read(12, 8)
        memory.socket.b_transport(payload, ns(0))
        assert payload.response is TlmResponse.ADDRESS_ERROR

    def test_out_of_range_write_leaves_storage_untouched(self, sim):
        memory = Memory(sim, "mem", size=32)
        payload = GenericPayload.make_write(30, b"\x01\x02\x03\x04")
        delay = memory.socket.b_transport(payload, ns(7))
        assert payload.response is TlmResponse.ADDRESS_ERROR
        # A refused access costs no latency and counts as no write.
        assert delay == ns(7)
        assert memory.writes == 0
        assert memory._storage == bytearray(32)

    def test_access_ending_at_the_last_byte_is_accepted(self, sim):
        memory = Memory(sim, "mem", size=32)
        write = GenericPayload.make_write(28, b"\x01\x02\x03\x04")
        memory.socket.b_transport(write, ns(0))
        assert write.ok
        read = GenericPayload.make_read(27, 5)
        memory.socket.b_transport(read, ns(0))
        assert read.ok
        assert bytes(read.data) == b"\x00\x01\x02\x03\x04"

    def test_unknown_command(self, sim):
        memory = Memory(sim, "mem", size=16)
        payload = GenericPayload(TlmCommand.IGNORE, 0, bytearray(4), 4)
        memory.socket.b_transport(payload, ns(0))
        assert payload.response is TlmResponse.COMMAND_ERROR
