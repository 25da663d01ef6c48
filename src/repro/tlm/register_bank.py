"""Register banks.

Hardware accelerators of the case study are controlled by the embedded
software through memory-mapped registers (start/stop commands, block
counts, status, FIFO filling levels...).  :class:`RegisterBank` models a
bank of 32-bit registers served over ``b_transport``, with optional
callbacks on reads and writes so the owning module can react (start a job,
compute a status value on the fly, expose a Smart FIFO level through the
monitor interface...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from ..kernel.errors import TlmError
from ..kernel.module import Module
from ..kernel.simtime import SimTime, ns
from ..kernel.simulator import Simulator
from .payload import GenericPayload, TlmCommand, TlmResponse
from .sockets import TargetSocket

WORD_SIZE = 4


@dataclass
class Register:
    """One 32-bit register."""

    name: str
    offset: int
    value: int = 0
    #: Called as ``on_write(new_value)`` after the value is stored.
    on_write: Optional[Callable[[int], None]] = None
    #: Called as ``on_read() -> int`` to produce the value returned to the
    #: initiator (the stored value is returned when absent).
    on_read: Optional[Callable[[], int]] = None
    read_count: int = 0
    write_count: int = 0


class RegisterBank(Module):
    """A word-addressed bank of registers with access callbacks."""

    def __init__(
        self,
        parent: Union[Simulator, Module],
        name: str,
        access_latency: SimTime = ns(2),
    ):
        super().__init__(parent, name)
        self.access_latency = access_latency
        self._by_offset: Dict[int, Register] = {}
        self._by_name: Dict[str, Register] = {}
        self.socket = TargetSocket(self, "socket", self._b_transport)

    # ------------------------------------------------------------------
    def add_register(
        self,
        name: str,
        offset: int,
        reset: int = 0,
        on_write: Optional[Callable[[int], None]] = None,
        on_read: Optional[Callable[[], int]] = None,
    ) -> Register:
        if offset % WORD_SIZE != 0:
            raise TlmError(f"register {name!r}: offset 0x{offset:x} is not word aligned")
        if offset in self._by_offset:
            raise TlmError(f"register offset 0x{offset:x} already used")
        if name in self._by_name:
            raise TlmError(f"register name {name!r} already used")
        register = Register(name, offset, reset, on_write, on_read)
        self._by_offset[offset] = register
        self._by_name[name] = register
        return register

    def __getitem__(self, name: str) -> Register:
        return self._by_name[name]

    def registers(self):
        return tuple(self._by_name.values())

    @property
    def size(self) -> int:
        """Size of the address window covering every register."""
        if not self._by_offset:
            return WORD_SIZE
        return max(self._by_offset) + WORD_SIZE

    # ------------------------------------------------------------------
    # Local (software-free) accesses used by the owning hardware model
    # ------------------------------------------------------------------
    def peek(self, name: str) -> int:
        return self._by_name[name].value

    def poke(self, name: str, value: int) -> None:
        self._by_name[name].value = value & 0xFFFFFFFF

    # ------------------------------------------------------------------
    def _b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        if payload.length != WORD_SIZE or payload.address % WORD_SIZE != 0:
            payload.response = TlmResponse.GENERIC_ERROR
            return delay + self.access_latency
        register = self._by_offset.get(payload.address)
        if register is None:
            payload.response = TlmResponse.ADDRESS_ERROR
            return delay + self.access_latency
        if payload.command is TlmCommand.READ:
            value = register.on_read() if register.on_read else register.value
            payload.set_word_value(value & 0xFFFFFFFF)
            register.read_count += 1
            payload.response = TlmResponse.OK
        elif payload.command is TlmCommand.WRITE:
            register.value = payload.word_value() & 0xFFFFFFFF
            register.write_count += 1
            if register.on_write:
                register.on_write(register.value)
            payload.response = TlmResponse.OK
        else:
            payload.response = TlmResponse.COMMAND_ERROR
        return delay + self.access_latency
