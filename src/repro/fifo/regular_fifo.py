"""The regular (non-decoupled) FIFO.

:class:`RegularFifo` is the equivalent of ``sc_fifo``: a bounded FIFO whose
blocking accesses suspend the calling thread (one context switch per
blocked access) and whose events are notified with a delta delay.  It knows
nothing about local dates: it is meant to be used either

* by non-decoupled threads (the paper's reference executions and the
  ``TDless`` / ``untimed`` models of Fig. 5), or
* by non-decoupled ``SC_METHOD`` code such as the NoC routers of the case
  study (through :meth:`nb_read` / :meth:`nb_write`).

Decoupled threads must not use it directly — they would corrupt the timing
exactly as illustrated by Fig. 3 of the paper.  They should use a
:class:`~repro.fifo.smart_fifo.SmartFifo`: with ``sync_on_access=True``
(same timing, one context switch per access) or without (same timing,
almost no context switch).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Sequence, Union

from ..kernel.errors import FifoError
from ..kernel.module import Module
from ..kernel.process import WaitEvent
from ..kernel.simulator import Simulator
from ..kernel.tracing import OP_REG_READ, OP_REG_WRITE
from .interfaces import FifoInterface, _require_plain_burst


class RegularFifo(Module, FifoInterface):
    """A bounded FIFO with ``sc_fifo``-like blocking semantics."""

    def __init__(self, parent: Union[Simulator, Module], name: str, depth: int = 16):
        super().__init__(parent, name)
        if depth <= 0:
            raise FifoError(f"FIFO {name!r}: depth must be positive, got {depth}")
        self._depth = depth
        self._items: Deque[Any] = deque()
        self._data_written_event = self.create_event("data_written")
        self._data_read_event = self.create_event("data_read")
        # The one wait descriptor of each event that blocked accesses yield.
        self._wait_data_written = WaitEvent(self._data_written_event)
        self._wait_data_read = WaitEvent(self._data_read_event)
        #: Counters mirrored by the Smart FIFO, used by tests and benchmarks.
        self.total_written = 0
        self.total_read = 0
        # Dependency recording (record-and-replay): picked up from the
        # simulator at construction time, None on the normal hot path.
        recorder = self.sim.dep_recorder
        if recorder is not None:
            self._dep = recorder
            self._dep_idx = recorder.register_fifo(
                self, kind="regular", depth=depth
            )
        else:
            self._dep = None
            self._dep_idx = -1

    # ------------------------------------------------------------------
    # Monitor interface
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return self._depth

    @property
    def size(self) -> int:
        """Current number of stored items (immediate view)."""
        return len(self._items)

    def get_size(self):
        """Blocking-style size query (generator for interface uniformity)."""
        yield from ()
        if self._dep is not None:
            self._dep.get_size(
                self._dep_idx, len(self._items), self.sim.scheduler.now_fs
            )
        return len(self._items)

    # ------------------------------------------------------------------
    # Writer interface
    # ------------------------------------------------------------------
    def is_full(self) -> bool:
        if self._dep is not None:
            self._dep.probe("is_full", self._dep_idx)
        return len(self._items) >= self._depth

    @property
    def not_full_event(self):
        return self._data_read_event

    def write(self, data: Any):
        """Blocking write: waits (suspends the thread) while the FIFO is full."""
        items = self._items
        while len(items) >= self._depth:
            yield self._wait_data_read
        items.append(data)
        self.total_written += 1
        self._data_written_event.notify_fs(0)
        if self._dep is not None:
            self._dep.word(
                OP_REG_WRITE, self._dep_idx, self.sim.scheduler.now_fs
            )

    def nb_write(self, data: Any) -> bool:
        if self._dep is not None:
            self._dep.probe("nb_write", self._dep_idx)
        items = self._items
        if len(items) >= self._depth:
            return False
        items.append(data)
        self.total_written += 1
        self._data_written_event.notify_fs(0)
        return True

    def write_burst(self, words: Sequence[Any], gap_fs=0, dates_out=None):
        """Native burst write: bulk-extend whole free spans with one delta
        notification per span instead of one per word.

        Bit-exact with the word loop: ``write`` only suspends when full,
        so the word loop fills all free slots without yielding; within one
        evaluation the per-word delta notifications collapse into a single
        pending one, which is exactly what the span emits.  A regular FIFO
        has no local dates, so only plain (gap-free) bursts are accepted.
        """
        _require_plain_burst(gap_fs, dates_out)
        if self._dep is not None:
            self._dep.poison(f"write_burst on recorded FIFO {self.full_name}")
        items = self._items
        index, n = 0, len(words)
        while index < n:
            while len(items) >= self._depth:
                yield self._wait_data_read
            chunk = min(self._depth - len(items), n - index)
            items.extend(words[index:index + chunk])
            self.total_written += chunk
            self._data_written_event.notify_fs(0)
            index += chunk

    def nb_write_burst(self, words: Sequence[Any]) -> int:
        """Native non-blocking burst write (one notification per call)."""
        if self._dep is not None:
            self._dep.poison(f"nb_write_burst on recorded FIFO {self.full_name}")
        chunk = min(self._depth - len(self._items), len(words))
        if chunk:
            self._items.extend(words[:chunk] if chunk < len(words) else words)
            self.total_written += chunk
            self._data_written_event.notify_fs(0)
        return chunk

    # ------------------------------------------------------------------
    # Reader interface
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        if self._dep is not None:
            self._dep.probe("is_empty", self._dep_idx)
        return not self._items

    @property
    def not_empty_event(self):
        return self._data_written_event

    def read(self):
        """Blocking read: waits (suspends the thread) while the FIFO is empty."""
        items = self._items
        while not items:
            yield self._wait_data_written
        data = items.popleft()
        self.total_read += 1
        self._data_read_event.notify_fs(0)
        if self._dep is not None:
            self._dep.word(
                OP_REG_READ, self._dep_idx, self.sim.scheduler.now_fs
            )
        return data

    def nb_read(self):
        if self._dep is not None:
            self._dep.probe("nb_read", self._dep_idx)
        items = self._items
        if not items:
            raise FifoError(f"nb_read on empty FIFO {self.full_name}")
        data = items.popleft()
        self.total_read += 1
        self._data_read_event.notify_fs(0)
        return data

    def peek(self):
        """Return the head item without removing it (raises when empty)."""
        if self._dep is not None:
            self._dep.probe("peek", self._dep_idx)
        if not self._items:
            raise FifoError(f"peek on empty FIFO {self.full_name}")
        return self._items[0]

    def read_burst(self, count: int, gap_fs=0, dates_out=None):
        """Native burst read: drain whole available spans with one delta
        notification per span (see :meth:`write_burst` for why that is
        bit-exact with the word loop)."""
        _require_plain_burst(gap_fs, dates_out)
        if self._dep is not None:
            self._dep.poison(f"read_burst on recorded FIFO {self.full_name}")
        items = self._items
        words: List[Any] = []
        while len(words) < count:
            while not items:
                yield self._wait_data_written
            chunk = min(len(items), count - len(words))
            for _ in range(chunk):
                words.append(items.popleft())
            self.total_read += chunk
            self._data_read_event.notify_fs(0)
        return words

    def nb_read_burst(self, count: int) -> List[Any]:
        """Native non-blocking burst read (one notification per call)."""
        if self._dep is not None:
            self._dep.poison(f"nb_read_burst on recorded FIFO {self.full_name}")
        items = self._items
        chunk = min(len(items), count)
        if chunk <= 0:
            return []
        words = [items.popleft() for _ in range(chunk)]
        self.total_read += chunk
        self._data_read_event.notify_fs(0)
        return words

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RegularFifo({self.full_name!r}, depth={self._depth}, "
            f"size={len(self._items)})"
        )
