"""Memory-mapped interconnect.

:class:`Bus` is a simple address-decoding router: target sockets are mapped
on address ranges, every transaction pays a configurable bus latency, and
the payload address is translated to an offset local to the target (the
usual TLM convention for reusable peripherals).  Statistics per target are
kept for the evaluation harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

from ..kernel.errors import TlmError
from ..kernel.module import Module
from ..kernel.simtime import SimTime, ns
from ..kernel.simulator import Simulator
from .payload import GenericPayload, TlmResponse
from .sockets import TransportInterface


@dataclass(frozen=True)
class AddressRange:
    """A [base, base+size) address window routed to one target."""

    base: int
    size: int
    name: str

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.base < other.end and other.base < self.end


class Bus(Module, TransportInterface):
    """An address-decoding, latency-annotating interconnect."""

    def __init__(
        self,
        parent: Union[Simulator, Module],
        name: str,
        latency: SimTime = ns(5),
    ):
        super().__init__(parent, name)
        self.latency = latency
        self._ranges: List[AddressRange] = []
        self._targets: Dict[str, TransportInterface] = {}
        #: Per-target transaction counters (for the evaluation harness).
        self.accesses: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def map_target(self, target: TransportInterface, base: int, size: int, name: str) -> None:
        """Route [base, base+size) to ``target``; ranges must not overlap."""
        if not hasattr(target, "b_transport"):
            raise TlmError(f"bus target {name!r} has no b_transport method")
        new_range = AddressRange(base, size, name)
        for existing in self._ranges:
            if existing.overlaps(new_range):
                raise TlmError(
                    f"address range {name!r} [0x{base:x}, 0x{new_range.end:x}) "
                    f"overlaps {existing.name!r}"
                )
        self._ranges.append(new_range)
        self._targets[name] = target
        self.accesses[name] = 0

    def decode(self, address: int) -> AddressRange:
        for window in self._ranges:
            if window.contains(address):
                return window
        raise TlmError(f"bus {self.full_name}: no target mapped at 0x{address:08x}")

    # ------------------------------------------------------------------
    def b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        """Decode, annotate the bus latency, and forward to the target."""
        try:
            window = self.decode(payload.address)
        except TlmError:
            payload.response = TlmResponse.ADDRESS_ERROR
            return delay + self.latency
        self.accesses[window.name] += 1
        original_address = payload.address
        payload.address = original_address - window.base
        try:
            new_delay = self._targets[window.name].b_transport(
                payload, delay + self.latency
            )
        finally:
            payload.address = original_address
        return new_delay

    def total_accesses(self) -> int:
        return sum(self.accesses.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Bus({self.full_name!r}, targets={[r.name for r in self._ranges]})"
