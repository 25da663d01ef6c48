"""Simulated time.

The kernel keeps the current simulated date as an integer number of
femtoseconds, exactly like SystemC keeps an integer count of its time
resolution.  Using integers (instead of floats) guarantees that time
comparisons are exact, which matters a lot for this reproduction: the whole
point of the Smart FIFO is that decoupled and non-decoupled executions
produce *identical* dates, so rounding errors are not acceptable.

:class:`SimTime` is an immutable value type.  The module also exposes the
convenience constructors :func:`fs`, :func:`ps`, :func:`ns` and
:func:`us`.
"""

from __future__ import annotations

import enum
from typing import Union

from .errors import SchedulingError


class TimeUnit(enum.IntEnum):
    """Time units, expressed as a number of femtoseconds."""

    FS = 1
    PS = 10 ** 3
    NS = 10 ** 6
    US = 10 ** 9
    MS = 10 ** 12
    SEC = 10 ** 15

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


# Short aliases mirroring the SystemC spelling (SC_NS, ...).
FS = TimeUnit.FS
PS = TimeUnit.PS
NS = TimeUnit.NS
US = TimeUnit.US
MS = TimeUnit.MS
SEC = TimeUnit.SEC

Number = Union[int, float]


class SimTime:
    """An immutable duration / date expressed in femtoseconds.

    ``SimTime`` supports addition and subtraction with other ``SimTime``
    values, multiplication and (floor) division by scalars, and the full set
    of comparison operators.  Subtraction never produces a negative time;
    attempting to do so raises :class:`SchedulingError` because a negative
    simulated time is always a modelling bug.
    """

    __slots__ = ("_fs",)

    def __init__(self, value: Number = 0, unit: TimeUnit = TimeUnit.FS):
        femto = round(value * int(unit))
        if femto < 0:
            raise SchedulingError(f"negative simulated time: {value} {unit}")
        self._fs = int(femto)

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_femtoseconds(cls, femto: int) -> "SimTime":
        """Build a :class:`SimTime` directly from a femtosecond count."""
        t = cls.__new__(cls)
        if femto < 0:
            raise SchedulingError(f"negative simulated time: {femto} fs")
        t._fs = int(femto)
        return t

    # -- accessors -------------------------------------------------------
    @property
    def femtoseconds(self) -> int:
        """The duration as an integer number of femtoseconds."""
        return self._fs

    def to(self, unit: TimeUnit) -> float:
        """Convert to ``unit`` as a float (possibly lossy for display)."""
        return self._fs / int(unit)

    @property
    def is_zero(self) -> bool:
        return self._fs == 0

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: "SimTime") -> "SimTime":
        if not isinstance(other, SimTime):
            return NotImplemented
        return SimTime.from_femtoseconds(self._fs + other._fs)

    def __sub__(self, other: "SimTime") -> "SimTime":
        if not isinstance(other, SimTime):
            return NotImplemented
        if other._fs > self._fs:
            raise SchedulingError(
                f"SimTime subtraction would be negative: {self} - {other}"
            )
        return SimTime.from_femtoseconds(self._fs - other._fs)

    def __mul__(self, factor: Number) -> "SimTime":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return SimTime.from_femtoseconds(round(self._fs * factor))

    __rmul__ = __mul__

    def __floordiv__(self, divisor: Number) -> "SimTime":
        if not isinstance(divisor, (int, float)):
            return NotImplemented
        return SimTime.from_femtoseconds(int(self._fs // divisor))

    def __truediv__(self, other: Union["SimTime", Number]):
        if isinstance(other, SimTime):
            if other._fs == 0:
                raise ZeroDivisionError("division by a zero SimTime")
            return self._fs / other._fs
        if isinstance(other, (int, float)):
            return SimTime.from_femtoseconds(round(self._fs / other))
        return NotImplemented

    def __mod__(self, other: "SimTime") -> "SimTime":
        if not isinstance(other, SimTime):
            return NotImplemented
        if other._fs == 0:
            raise ZeroDivisionError("modulo by a zero SimTime")
        return SimTime.from_femtoseconds(self._fs % other._fs)

    # -- comparisons -----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimTime) and self._fs == other._fs

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __lt__(self, other: "SimTime") -> bool:
        if not isinstance(other, SimTime):
            return NotImplemented
        return self._fs < other._fs

    def __le__(self, other: "SimTime") -> bool:
        if not isinstance(other, SimTime):
            return NotImplemented
        return self._fs <= other._fs

    def __gt__(self, other: "SimTime") -> bool:
        if not isinstance(other, SimTime):
            return NotImplemented
        return self._fs > other._fs

    def __ge__(self, other: "SimTime") -> bool:
        if not isinstance(other, SimTime):
            return NotImplemented
        return self._fs >= other._fs

    def __hash__(self) -> int:
        return hash(self._fs)

    def __bool__(self) -> bool:
        return self._fs != 0

    # -- display ---------------------------------------------------------
    def __repr__(self) -> str:
        return f"SimTime({self._fs} fs)"

    def __str__(self) -> str:
        for unit in (TimeUnit.SEC, TimeUnit.MS, TimeUnit.US, TimeUnit.NS, TimeUnit.PS):
            if self._fs != 0 and self._fs % int(unit) == 0:
                return f"{self._fs // int(unit)} {unit}"
        return f"{self._fs} fs"


#: The zero duration (also used for delta notifications).
ZERO_TIME = SimTime.from_femtoseconds(0)


def fs(value: Number) -> SimTime:
    """``value`` femtoseconds."""
    return SimTime(value, TimeUnit.FS)


def ns(value: Number) -> SimTime:
    """``value`` nanoseconds."""
    return SimTime(value, TimeUnit.NS)


def us(value: Number) -> SimTime:
    """``value`` microseconds."""
    return SimTime(value, TimeUnit.US)


def as_time(value, unit: TimeUnit = TimeUnit.NS) -> SimTime:
    """Coerce ``value`` into a :class:`SimTime`.

    Accepts an existing :class:`SimTime` (returned unchanged) or a number
    interpreted in ``unit``.  This mirrors the SystemC convenience of calling
    ``wait(20, SC_NS)`` or ``wait(some_sc_time)`` interchangeably.
    """
    if isinstance(value, SimTime):
        return value
    if isinstance(value, (int, float)):
        return SimTime(value, unit)
    raise SchedulingError(f"cannot interpret {value!r} as a simulated time")


def as_femtoseconds(value, unit: TimeUnit = TimeUnit.NS) -> int:
    """:func:`as_time` as an int: the same rounding and checks, without
    building a :class:`SimTime` for a non-negative number."""
    kind = type(value)
    if kind is int and value >= 0:
        return value * unit
    if kind is float and value >= 0:
        return round(value * unit)
    return as_time(value, unit).femtoseconds
