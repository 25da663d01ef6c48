"""Memory target.

A byte-addressable RAM with per-access latency, served through the
loosely-timed ``b_transport`` convention.  Used as the shared memory of the
case-study SoC and by the TLM unit tests.
"""

from __future__ import annotations

from typing import Union

from ..kernel.errors import TlmError
from ..kernel.module import Module
from ..kernel.simtime import SimTime, ns
from ..kernel.simulator import Simulator
from .payload import GenericPayload, TlmCommand, TlmResponse
from .sockets import TargetSocket


class Memory(Module):
    """A simple RAM model."""

    def __init__(
        self,
        parent: Union[Simulator, Module],
        name: str,
        size: int,
        read_latency: SimTime = ns(10),
        write_latency: SimTime = ns(10),
    ):
        super().__init__(parent, name)
        if size <= 0:
            raise TlmError(f"memory size must be positive, got {size}")
        self.size = size
        self.read_latency = read_latency
        self.write_latency = write_latency
        self._storage = bytearray(size)
        self.socket = TargetSocket(self, "socket", self._b_transport)
        self.reads = 0
        self.writes = 0

    # ------------------------------------------------------------------
    def _b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        start = payload.address
        end = start + payload.length
        if start < 0 or end > self.size:
            payload.response = TlmResponse.ADDRESS_ERROR
            return delay
        if payload.command is TlmCommand.READ:
            payload.data[: payload.length] = self._storage[start:end]
            payload.response = TlmResponse.OK
            self.reads += 1
            return delay + self.read_latency
        if payload.command is TlmCommand.WRITE:
            self._storage[start:end] = payload.data[: payload.length]
            payload.response = TlmResponse.OK
            self.writes += 1
            return delay + self.write_latency
        payload.response = TlmResponse.COMMAND_ERROR
        return delay

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Memory({self.full_name!r}, size={self.size})"
