"""FIFO ports.

Thin typed ports that let a module declare "I write into some FIFO" /
"I read from some FIFO" without knowing which implementation (regular,
sync-wrapped, smart, packet-aware) will be bound at elaboration.  This is
how the benchmark models of Fig. 5 and the case-study accelerators are
written once and instantiated with every FIFO policy.
"""

from __future__ import annotations

from typing import Any

from ..kernel.module import Module
from ..kernel.port import Port
from .interfaces import FifoReaderInterface, FifoWriterInterface


class FifoWritePort(Port):
    """Port bound to the write side of a FIFO."""

    def __init__(self, owner: Module, name: str, optional: bool = False):
        super().__init__(owner, name, FifoWriterInterface, optional=optional)

    def _on_bound(self, interface) -> None:
        # Shadow the delegating methods with the channel's own bound methods
        # so a port access costs no extra call on the word-transfer hot path.
        self.write = interface.write
        self.nb_write = interface.nb_write
        self.is_full = interface.is_full

    def write(self, data: Any):
        """Blocking write through the bound FIFO (generator)."""
        return self.get().write(data)

    def nb_write(self, data: Any) -> bool:
        return self.get().nb_write(data)

    def is_full(self) -> bool:
        return self.get().is_full()

    @property
    def not_full_event(self):
        return self.get().not_full_event


class FifoReadPort(Port):
    """Port bound to the read side of a FIFO."""

    def __init__(self, owner: Module, name: str, optional: bool = False):
        super().__init__(owner, name, FifoReaderInterface, optional=optional)

    def _on_bound(self, interface) -> None:
        # See FifoWritePort._on_bound.
        self.read = interface.read
        self.nb_read = interface.nb_read
        self.is_empty = interface.is_empty

    def read(self):
        """Blocking read through the bound FIFO (generator)."""
        return self.get().read()

    def nb_read(self):
        return self.get().nb_read()

    def is_empty(self) -> bool:
        return self.get().is_empty()

    @property
    def not_empty_event(self):
        return self.get().not_empty_event

