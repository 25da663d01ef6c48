"""The ``--progress`` live stderr ticker.

A tiny single-line progress renderer for long campaigns: items done /
total, observed rate, an ETA (elapsed time scaled by remaining over
completed items) and a free-form detail tail (the last finished spec).

The ticker writes to stderr only (stdout stays machine-parsable), uses
carriage-return rewriting on TTYs and rate-limited plain lines on pipes,
and never touches deterministic outputs — it is display, not data.
"""

from __future__ import annotations

import sys
import time


def _format_eta(seconds: float) -> str:
    if seconds != seconds or seconds < 0 or seconds == float("inf"):
        return "--:--"
    seconds = int(seconds + 0.5)
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60:02d}:{seconds % 60:02d}"


class ProgressTicker:
    """Renders ``[label] done/total | rate | ETA mm:ss | detail``.

    Parameters
    ----------
    total:
        Number of items expected (specs).
    label:
        Prefix shown in brackets.
    stream:
        Output stream (default ``sys.stderr``).
    min_interval_s:
        Re-render rate limit; plain (non-TTY) streams stretch it 10x so
        CI logs are not flooded.
    """

    def __init__(
        self,
        total: int,
        label: str = "campaign",
        stream=None,
        min_interval_s: float = 0.5,
    ):
        self.total = max(total, 0)
        self.label = label
        self.stream = sys.stderr if stream is None else stream
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._min_interval_s = (
            min_interval_s if self._tty else min_interval_s * 10
        )
        self.done = 0
        self._start = time.monotonic()
        self._last_render = self._start
        self._last_width = 0
        self._detail = ""

    # ------------------------------------------------------------------
    def item_done(self, detail: str = "") -> None:
        """Mark one item complete and re-render (rate limited)."""
        self.done += 1
        if detail:
            self._detail = detail
        self._render()

    def finish(self) -> None:
        """Final render plus a newline so later output starts clean."""
        self._render(force=True)
        if self._tty and self._last_width:
            self.stream.write("\n")
            self.stream.flush()

    # ------------------------------------------------------------------
    def _eta_s(self, elapsed: float) -> float:
        if self.done <= 0:
            return float("inf")
        remaining = max(self.total - self.done, 0)
        return elapsed * remaining / self.done

    def _render(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_render < self._min_interval_s:
            return
        self._last_render = now
        elapsed = max(now - self._start, 1e-9)
        rate = self.done / elapsed
        text = (
            f"[{self.label}] {self.done}/{self.total} done | "
            f"{rate:.2f}/s | ETA {_format_eta(self._eta_s(elapsed))}"
        )
        if self._detail:
            text += f" | {self._detail}"
        if self._tty:
            padding = " " * max(self._last_width - len(text), 0)
            self.stream.write("\r" + text + padding)
            self._last_width = len(text)
        else:
            self.stream.write(text + "\n")
        self.stream.flush()
