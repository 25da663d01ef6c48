"""FIFO channel library.

Implementations:

* :class:`~repro.fifo.regular_fifo.RegularFifo` — the ``sc_fifo``
  equivalent, for non-decoupled processes;
* :class:`~repro.fifo.smart_fifo.SmartFifo` — the paper's contribution:
  temporal-decoupling-aware FIFO with blocking, non-blocking and monitor
  interfaces (Section III); with ``sync_on_access=True`` it is Section
  II-B's reference instead, a ``sync()`` at the beginning of each access:
  the timing-correct but slow way to use FIFOs from decoupled processes;
* :class:`~repro.fifo.packet_fifo.PacketSmartFifo` — the Smart FIFO
  extension handling packetization used by the case-study network
  interfaces (Section IV-C);
* :class:`~repro.fifo.arbiter.WriteArbiter` /
  :class:`~repro.fifo.arbiter.ReadArbiter` — per-side arbiters required
  when several processes share a FIFO side.
"""

from .arbiter import ReadArbiter, WriteArbiter
from .cells import CellRing, NEVER
from .interfaces import (
    FifoInterface,
    FifoMonitorInterface,
    FifoReaderInterface,
    FifoWriterInterface,
)
from .packet_fifo import PacketSmartFifo
from .ports import FifoReadPort, FifoWritePort
from .regular_fifo import RegularFifo
from .smart_fifo import SmartFifo

__all__ = [
    "CellRing",
    "FifoInterface",
    "FifoMonitorInterface",
    "FifoReadPort",
    "FifoReaderInterface",
    "FifoWritePort",
    "FifoWriterInterface",
    "NEVER",
    "PacketSmartFifo",
    "ReadArbiter",
    "RegularFifo",
    "SmartFifo",
    "WriteArbiter",
]
