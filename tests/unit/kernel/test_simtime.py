"""Unit tests for simulated time (repro.kernel.simtime)."""

import pytest

from repro.kernel.errors import SchedulingError
from repro.kernel.simtime import (
    NS,
    PS,
    SEC,
    SimTime,
    TimeUnit,
    US,
    ZERO_TIME,
    as_time,
    fs,
    ns,
    us,
)


class TestConstruction:
    def test_default_is_zero(self):
        assert SimTime().femtoseconds == 0
        assert SimTime().is_zero

    def test_unit_scaling(self):
        assert ns(1).femtoseconds == 10 ** 6
        assert SimTime(1, PS).femtoseconds == 10 ** 3
        assert us(1).femtoseconds == 10 ** 9
        assert SimTime(1, TimeUnit.MS).femtoseconds == 10 ** 12
        assert SimTime(1, TimeUnit.SEC).femtoseconds == 10 ** 15
        assert fs(7).femtoseconds == 7

    def test_float_values_round(self):
        assert ns(1.5).femtoseconds == 1_500_000
        assert SimTime(0.4, PS).femtoseconds == 400

    def test_negative_raises(self):
        with pytest.raises(SchedulingError):
            ns(-1)
        with pytest.raises(SchedulingError):
            SimTime.from_femtoseconds(-5)

    def test_from_femtoseconds(self):
        assert SimTime.from_femtoseconds(123).femtoseconds == 123

    def test_zero_time_constant(self):
        assert ZERO_TIME.is_zero
        assert not bool(ZERO_TIME)
        assert bool(ns(1))


class TestConversion:
    def test_to_unit(self):
        assert ns(20).to(TimeUnit.NS) == 20
        assert ns(20).to(TimeUnit.PS) == 20_000
        assert us(1).to(TimeUnit.NS) == 1000

    def test_as_time_passthrough(self):
        t = ns(5)
        assert as_time(t) is t

    def test_as_time_number_with_unit(self):
        assert as_time(5, TimeUnit.NS) == ns(5)
        assert as_time(2, TimeUnit.US) == us(2)

    def test_as_time_rejects_garbage(self):
        with pytest.raises(SchedulingError):
            as_time("soon")


class TestArithmetic:
    def test_addition(self):
        assert ns(5) + ns(7) == ns(12)

    def test_subtraction(self):
        assert ns(12) - ns(7) == ns(5)

    def test_subtraction_cannot_go_negative(self):
        with pytest.raises(SchedulingError):
            ns(5) - ns(7)

    def test_multiplication(self):
        assert ns(5) * 3 == ns(15)
        assert 3 * ns(5) == ns(15)
        assert ns(5) * 0.5 == ns(2.5)

    def test_floor_division(self):
        assert ns(10) // 3 == SimTime.from_femtoseconds(ns(10).femtoseconds // 3)

    def test_true_division_by_scalar(self):
        assert ns(10) / 2 == ns(5)

    def test_true_division_by_time_gives_ratio(self):
        assert ns(10) / ns(5) == 2.0

    def test_division_by_zero_time(self):
        with pytest.raises(ZeroDivisionError):
            ns(10) / ZERO_TIME

    def test_modulo(self):
        assert ns(10) % ns(3) == ns(1)
        with pytest.raises(ZeroDivisionError):
            ns(10) % ZERO_TIME

    def test_incompatible_operand(self):
        with pytest.raises(TypeError):
            ns(1) + 3  # type: ignore[operator]


class TestComparison:
    def test_ordering(self):
        assert ns(1) < ns(2)
        assert ns(2) <= ns(2)
        assert ns(3) > ns(2)
        assert ns(3) >= ns(3)

    def test_equality_and_hash(self):
        assert ns(1) == SimTime(1000, PS)
        assert hash(ns(1)) == hash(SimTime(1000, PS))
        assert ns(1) != ns(2)
        assert ns(1) != "1 ns"

    def test_sorting(self):
        times = [ns(5), SimTime(10, PS), us(1), ZERO_TIME]
        assert sorted(times) == [ZERO_TIME, SimTime(10, PS), ns(5), us(1)]


class TestDisplay:
    def test_str_picks_largest_exact_unit(self):
        assert str(ns(20)) == "20 ns"
        assert str(us(3)) == "3 us"
        assert str(SimTime.from_femtoseconds(1500)) == "1500 fs"
        assert str(ZERO_TIME) == "0 fs"

    def test_repr_contains_femtoseconds(self):
        assert "fs" in repr(ns(1))

    def test_unit_aliases(self):
        assert NS is TimeUnit.NS
        assert PS is TimeUnit.PS
        assert US is TimeUnit.US
        assert SEC is TimeUnit.SEC
