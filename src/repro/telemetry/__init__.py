"""Telemetry sideband: spans, counters, gauges and live progress.

See :mod:`repro.telemetry.core` for the event layer and sideband schema,
:mod:`repro.telemetry.report` for the ``telemetry-report`` aggregation
(import it from there: a process that only simulates never loads it) and
:mod:`repro.telemetry.progress` for the ``--progress`` stderr ticker.
"""

from .core import (
    DEFAULT_BUFFER_LIMIT,
    NULL_TELEMETRY,
    TELEMETRY_SCHEMA,
    NullTelemetry,
    Telemetry,
    load_events,
    merge_telemetry_files,
    telemetry_files,
)
from .progress import ProgressTicker

__all__ = [
    "DEFAULT_BUFFER_LIMIT",
    "NULL_TELEMETRY",
    "TELEMETRY_SCHEMA",
    "NullTelemetry",
    "Telemetry",
    "ProgressTicker",
    "load_events",
    "merge_telemetry_files",
    "telemetry_files",
]
