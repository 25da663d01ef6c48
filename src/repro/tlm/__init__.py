"""Loosely-timed memory-mapped TLM substrate.

Provides the generic payload, initiator/target sockets, an
address-decoding bus, a RAM target and register banks.  Temporal
decoupling of the memory-mapped traffic uses the quantum keeper of
:mod:`repro.td.quantum`, following the existing (prior-art) methods the
paper builds upon for the non-FIFO part of the case-study SoC.
"""

from ..td.quantum import GlobalQuantum, QuantumKeeper
from .bus import AddressRange, Bus
from .memory import Memory
from .payload import GenericPayload, TlmCommand, TlmResponse
from .register_bank import Register, RegisterBank, WORD_SIZE
from .sockets import InitiatorSocket, TargetSocket, TransportInterface

__all__ = [
    "AddressRange",
    "Bus",
    "GenericPayload",
    "GlobalQuantum",
    "InitiatorSocket",
    "Memory",
    "QuantumKeeper",
    "Register",
    "RegisterBank",
    "TargetSocket",
    "TlmCommand",
    "TlmResponse",
    "TransportInterface",
    "WORD_SIZE",
]
