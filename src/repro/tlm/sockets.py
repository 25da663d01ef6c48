"""Initiator and target sockets for the loosely-timed transport.

The blocking transport convention used throughout the library is the
TLM-2.0 loosely-timed one, adapted to Python:

``new_delay = target.b_transport(payload, delay)``

The *delay* argument is the timing annotation accumulated by the initiator
(its local-time offset); targets add their own latency and return the new
annotation.  The initiator is then free to keep running ahead (temporal
decoupling with a quantum keeper) or to synchronize.

Targets are any object exposing ``b_transport``; :class:`TargetSocket`
wraps a callback, :class:`InitiatorSocket` is the port the initiator binds
to the interconnect or directly to a target.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..kernel.errors import TlmError
from ..kernel.module import Module
from ..kernel.port import Port
from ..kernel.simtime import SimTime
from .payload import GenericPayload


class TransportInterface:
    """Anything that can serve a blocking transport call."""

    def b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        raise NotImplementedError


class TargetSocket(TransportInterface):
    """Target-side socket: forwards ``b_transport`` to a module callback."""

    def __init__(self, owner: Module, name: str, callback: Optional[Callable] = None):
        self.owner = owner
        self.name = name
        self.full_name = f"{owner.full_name}.{name}"
        self._callback = callback

    def b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        if self._callback is None:
            raise TlmError(f"target socket {self.full_name} has no b_transport callback")
        result = self._callback(payload, delay)
        if not isinstance(result, SimTime):
            raise TlmError(
                f"b_transport callback of {self.full_name} must return the "
                f"updated delay (SimTime), got {result!r}"
            )
        return result


class InitiatorSocket(Port):
    """Initiator-side socket: a port bound to a :class:`TransportInterface`."""

    def __init__(self, owner: Module, name: str, optional: bool = False):
        super().__init__(owner, name, None, optional=optional)
        self.transactions_sent = 0

    def bind(self, interface) -> None:
        if not hasattr(interface, "b_transport"):
            raise TlmError(
                f"initiator socket {self.full_name} must be bound to an object "
                f"with a b_transport method"
            )
        super().bind(interface)

    __call__ = bind

    def b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        """Forward the transaction to the bound target/interconnect."""
        self.transactions_sent += 1
        return self.get().b_transport(payload, delay)
