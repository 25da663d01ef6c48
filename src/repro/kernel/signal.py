"""Signals.

:class:`Signal` reproduces ``sc_signal``: a single-value channel whose
writes become visible in the next delta cycle and which notifies a
``value_changed`` event when the stored value actually changes.  The SoC
case study uses signals for interrupt/completion lines between accelerators
and the control core.
"""

from __future__ import annotations

from typing import Generic, Optional, TypeVar, Union

from .channel import PrimitiveChannel
from .module import Module
from .simtime import ZERO_TIME
from .simulator import Simulator

T = TypeVar("T")


class Signal(PrimitiveChannel, Generic[T]):
    """A delta-cycle-delayed single value channel."""

    def __init__(
        self,
        parent: Union[Simulator, Module],
        name: str,
        initial: Optional[T] = None,
    ):
        super().__init__(parent, name)
        self._current: Optional[T] = initial
        self._next: Optional[T] = initial
        self.value_changed = self.create_event("value_changed")

    def read(self) -> Optional[T]:
        """Return the current (already updated) value."""
        return self._current

    @property
    def value(self) -> Optional[T]:
        return self._current

    def write(self, value: T) -> None:
        """Schedule ``value`` to become visible in the next delta cycle."""
        self._next = value
        self.request_update()

    def update(self) -> None:
        self._clear_update_request()
        if self._next != self._current:
            self._current = self._next
            self.value_changed.notify(ZERO_TIME)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Signal({self.full_name!r}, value={self._current!r})"
