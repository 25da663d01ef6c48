"""Generic payload for memory-mapped transactions.

A reduced but faithful version of the TLM-2.0 generic payload: command,
address, data, byte length, response status and an extension mechanism.
The case-study control core uses it to program accelerator register banks
and to access the shared memory over the interconnect.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional

from ..kernel.errors import TlmError


class TlmCommand(enum.Enum):
    """Transaction direction."""

    READ = "read"
    WRITE = "write"
    IGNORE = "ignore"


class TlmResponse(enum.Enum):
    """Completion status set by the target."""

    INCOMPLETE = "incomplete"
    OK = "ok"
    ADDRESS_ERROR = "address_error"
    COMMAND_ERROR = "command_error"
    GENERIC_ERROR = "generic_error"


class GenericPayload:
    """One memory-mapped transaction."""

    __slots__ = ("command", "address", "data", "length", "response", "extensions")

    def __init__(
        self,
        command: TlmCommand = TlmCommand.IGNORE,
        address: int = 0,
        data: Optional[bytearray] = None,
        length: Optional[int] = None,
    ):
        self.command = command
        self.address = address
        self.data = data if data is not None else bytearray()
        self.length = length if length is not None else len(self.data)
        self.response = TlmResponse.INCOMPLETE
        self.extensions: Dict[str, Any] = {}

    # -- constructors ----------------------------------------------------
    @classmethod
    def make_read(cls, address: int, length: int) -> "GenericPayload":
        """Build a read transaction of ``length`` bytes at ``address``."""
        return cls(TlmCommand.READ, address, bytearray(length), length)

    @classmethod
    def make_write(cls, address: int, data: bytes) -> "GenericPayload":
        """Build a write transaction carrying ``data`` at ``address``."""
        return cls(TlmCommand.WRITE, address, bytearray(data), len(data))

    @classmethod
    def make_word_read(cls, address: int) -> "GenericPayload":
        return cls.make_read(address, 4)

    @classmethod
    def make_word_write(cls, address: int, value: int) -> "GenericPayload":
        return cls.make_write(address, int(value).to_bytes(4, "little", signed=False))

    # -- data accessors --------------------------------------------------
    def word_value(self) -> int:
        """Interpret the payload data as a little-endian 32-bit word."""
        if len(self.data) < 4:
            raise TlmError(f"payload data too short for a word: {len(self.data)} bytes")
        return int.from_bytes(self.data[:4], "little", signed=False)

    def set_word_value(self, value: int) -> None:
        self.data[:4] = int(value).to_bytes(4, "little", signed=False)

    # -- status ----------------------------------------------------------
    @property
    def ok(self) -> bool:
        return self.response is TlmResponse.OK

    def check_ok(self) -> None:
        """Raise :class:`TlmError` unless the target answered OK."""
        if self.response is not TlmResponse.OK:
            raise TlmError(
                f"transaction at 0x{self.address:08x} failed: {self.response.value}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GenericPayload({self.command.value}, addr=0x{self.address:08x}, "
            f"len={self.length}, resp={self.response.value})"
        )
