"""A SystemC-like discrete-event simulation kernel.

This package is the substrate of the reproduction: it provides simulated
time, events, thread and method processes, the delta-cycle scheduler,
hierarchical modules, ports, primitive channels, signals and tracing.  The
temporal-decoupling layer (:mod:`repro.td`) and the FIFO library
(:mod:`repro.fifo`) are built on top of it.
"""

from .channel import PrimitiveChannel
from .context import (
    current_process,
    current_simulator,
    current_simulator_or_none,
    set_current_simulator,
)
from .errors import (
    BindingError,
    BlockedRunError,
    ElaborationError,
    FifoError,
    ProcessError,
    SchedulingError,
    SimulationError,
    TimingError,
    TlmError,
)
from .event import Event, EventList, all_of, any_of
from .module import Module
from .port import Port
from .process import (
    MethodProcess,
    ThreadProcess,
    Timeout,
    WaitDescriptor,
    WaitEvent,
    WaitEventList,
    WaitEventOrTimeout,
)
from .signal import Signal
from .simtime import (
    FS,
    MS,
    NS,
    PS,
    SEC,
    US,
    SimTime,
    TimeUnit,
    ZERO_TIME,
    as_time,
    fs,
    ns,
    us,
)
from .simulator import Simulator, simulate
from .stats import KernelStats
from .tracing import (
    DigestSink,
    ListSink,
    NullSink,
    SINK_KINDS,
    SpoolSink,
    TraceRecord,
    TraceSink,
    make_sink,
    trace_lines_digest,
)

__all__ = [
    "BindingError",
    "BlockedRunError",
    "ElaborationError",
    "Event",
    "EventList",
    "FifoError",
    "FS",
    "KernelStats",
    "MethodProcess",
    "Module",
    "MS",
    "NS",
    "Port",
    "PrimitiveChannel",
    "ProcessError",
    "PS",
    "SchedulingError",
    "SEC",
    "Signal",
    "SimTime",
    "SimulationError",
    "Simulator",
    "DigestSink",
    "ListSink",
    "NullSink",
    "SINK_KINDS",
    "SpoolSink",
    "TraceSink",
    "make_sink",
    "trace_lines_digest",
    "ThreadProcess",
    "Timeout",
    "TimeUnit",
    "TimingError",
    "TlmError",
    "TraceRecord",
    "US",
    "WaitDescriptor",
    "WaitEvent",
    "WaitEventList",
    "WaitEventOrTimeout",
    "ZERO_TIME",
    "all_of",
    "any_of",
    "as_time",
    "current_process",
    "current_simulator",
    "current_simulator_or_none",
    "fs",
    "ns",
    "set_current_simulator",
    "simulate",
    "us",
]
