"""repro — reproduction of *Fast and Accurate TLM Simulations using
Temporal Decoupling for FIFO-based Communications* (Helmstetter, Cornet,
Galilée, Moy, Vivet — DATE 2013).

The package is organised in layers:

* :mod:`repro.kernel` — a SystemC-like discrete-event simulation kernel
  (simulated time, events, thread/method processes, delta cycles, modules,
  ports, signals, tracing);
* :mod:`repro.td` — the temporal decoupling core (``inc`` / ``sync`` /
  ``local_time_stamp``, per-process local dates, global quantum keeper);
* :mod:`repro.fifo` — the FIFO library, including the paper's contribution,
  the :class:`~repro.fifo.smart_fifo.SmartFifo`;
* :mod:`repro.tlm` — a loosely-timed memory-mapped transport (generic
  payload, sockets, bus, memory, register banks, quantum keeper);
* :mod:`repro.soc` — the heterogeneous many-core case-study platform
  (control core, hardware accelerators, stream NoC, network interfaces);
* :mod:`repro.workloads` — the benchmark workloads (Fig. 5 streaming
  pipeline, video-like accelerator chains, random traffic);
* :mod:`repro.analysis` — the validation and evaluation harness
  (trace equivalence, run statistics, experiment drivers for every table
  and figure of the paper).

Quick start::

    from repro import Simulator, SmartFifo, DecoupledModule, ns

    sim = Simulator()

    class Writer(DecoupledModule):
        def __init__(self, parent, name, fifo):
            super().__init__(parent, name)
            self.fifo = fifo
            self.create_thread(self.run)

        def run(self):
            for value in (1, 2, 3):
                yield from self.fifo.write(value)
                self.inc(20, ns)           # timing annotation, no context switch

    ...
"""

from .kernel import (
    Event,
    Module,
    NS,
    PS,
    SimTime,
    Simulator,
    US,
    ZERO_TIME,
    fs,
    ns,
    us,
)
from .kernel.simtime import TimeUnit
from .td import (
    DecoupledMixin,
    DecoupledModule,
    GlobalQuantum,
    QuantumKeeper,
    inc,
    local_time_stamp,
    sync,
)
from .fifo import (
    PacketSmartFifo,
    ReadArbiter,
    RegularFifo,
    SmartFifo,
    WriteArbiter,
)

__version__ = "1.0.0"

__all__ = [
    "DecoupledMixin",
    "DecoupledModule",
    "Event",
    "GlobalQuantum",
    "Module",
    "NS",
    "PacketSmartFifo",
    "PS",
    "QuantumKeeper",
    "ReadArbiter",
    "RegularFifo",
    "SimTime",
    "Simulator",
    "SmartFifo",
    "TimeUnit",
    "US",
    "WriteArbiter",
    "ZERO_TIME",
    "__version__",
    "fs",
    "inc",
    "local_time_stamp",
    "ns",
    "sync",
    "us",
]
