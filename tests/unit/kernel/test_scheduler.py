"""Unit tests for the discrete-event scheduler (repro.kernel.scheduler)."""

import pytest

from repro.kernel import (
    Event, ProcessError, SchedulingError, Simulator, Timeout, ns,
)
from repro.kernel.simtime import TimeUnit


def now_ns(sim):
    return sim.now.to(TimeUnit.NS)


class TestTimedWaits:
    def test_single_timeout(self, sim, host):
        seen = []

        def proc():
            yield host.wait(10)
            seen.append(now_ns(sim))

        host.add(proc)
        sim.run()
        assert seen == [10.0]
        assert now_ns(sim) == 10.0

    def test_interleaving_of_two_threads(self, sim, host):
        seen = []

        def slow():
            for _ in range(3):
                yield host.wait(20)
                seen.append(("slow", now_ns(sim)))

        def fast():
            for _ in range(4):
                yield host.wait(15)
                seen.append(("fast", now_ns(sim)))

        host.add(slow)
        host.add(fast)
        sim.run()
        assert seen == [
            ("fast", 15.0),
            ("slow", 20.0),
            ("fast", 30.0),
            ("slow", 40.0),
            ("fast", 45.0),
            ("slow", 60.0),
            ("fast", 60.0),
        ]

    def test_zero_time_wait_is_one_delta(self, sim, host):
        seen = []

        def proc():
            seen.append("before")
            yield host.wait(0)
            seen.append("after")

        host.add(proc)
        sim.run()
        assert seen == ["before", "after"]
        assert now_ns(sim) == 0.0

    def test_fractional_nanoseconds(self, sim, host):
        seen = []

        def proc():
            yield host.wait(1.5)
            seen.append(sim.now.femtoseconds)

        host.add(proc)
        sim.run()
        assert seen == [1_500_000]


class TestRunUntil:
    def test_run_until_stops_before_future_events(self, sim, host):
        seen = []

        def proc():
            yield host.wait(10)
            seen.append("early")
            yield host.wait(100)
            seen.append("late")

        host.add(proc)
        sim.run(until=50)
        assert seen == ["early"]
        assert now_ns(sim) == 50.0
        assert sim.pending_activity
        sim.run()
        assert seen == ["early", "late"]
        assert now_ns(sim) == 110.0

    def test_run_until_with_no_events_advances_time(self, sim):
        sim.run(until=25)
        assert now_ns(sim) == 25.0

    def test_run_until_an_earlier_date_is_refused(self, sim, host):
        seen = []

        def proc():
            while True:
                yield host.wait(30)
                seen.append(now_ns(sim))

        host.add(proc)
        sim.run(until=100)
        assert now_ns(sim) == 100.0
        with pytest.raises(
            SchedulingError, match=r"cannot run until 50 ns: .* at 100 ns"
        ):
            sim.run(until=50)
        assert now_ns(sim) == 100.0
        assert seen == [30.0, 60.0, 90.0]
        sim.run(until=100)
        assert now_ns(sim) == 100.0
        sim.run(until=130)
        assert seen == [30.0, 60.0, 90.0, 120.0]

    def test_stop_request(self, sim, host):
        seen = []

        def proc():
            for index in range(10):
                yield host.wait(10)
                seen.append(index)
                if index == 2:
                    sim.stop()

        host.add(proc)
        sim.run()
        assert seen == [0, 1, 2]
        assert now_ns(sim) == 30.0


class TestEventOrTimeout:
    def test_event_wins(self, sim, host):
        event = sim.create_event("e")
        seen = []

        def waiter():
            result = yield host.wait(event, timeout=ns(50))
            seen.append((now_ns(sim), result is event))

        def notifier():
            yield host.wait(10)
            event.notify()

        host.add(waiter)
        host.add(notifier)
        sim.run()
        assert seen == [(10.0, True)]

    def test_timeout_wins(self, sim, host):
        event = sim.create_event("e")
        seen = []

        def waiter():
            result = yield host.wait(event, timeout=ns(5))
            seen.append((now_ns(sim), result))

        host.add(waiter)
        sim.run()
        assert seen == [(5.0, None)]
        # The stale event registration must not wake the thread later.
        event.notify(ns(1))
        sim.run()
        assert len(seen) == 1


class TestDynamicProcesses:
    def test_thread_spawned_during_simulation(self, sim, host):
        seen = []

        def child():
            yield host.wait(5)
            seen.append(("child", now_ns(sim)))

        def parent():
            yield host.wait(10)
            host.add(child)
            yield host.wait(20)
            seen.append(("parent", now_ns(sim)))

        host.add(parent)
        sim.run()
        assert ("child", 15.0) in seen
        assert ("parent", 30.0) in seen

    def test_thread_without_yield_terminates_immediately(self, sim, host):
        seen = []

        def immediate():
            seen.append("ran")
            return
            yield  # pragma: no cover

        host.add(immediate)
        sim.run()
        assert seen == ["ran"]

    def test_non_generator_thread_function_is_error(self, sim, host):
        def not_a_generator():
            return 42

        host.add(not_a_generator)
        with pytest.raises(ProcessError):
            sim.run()

    def test_yielding_garbage_is_error(self, sim, host):
        def bad():
            yield "not a wait descriptor"

        host.add(bad)
        with pytest.raises(ProcessError):
            sim.run()


class TestStatsCounters:
    def test_context_switches_counted_per_activation(self, sim, host):
        def proc():
            yield host.wait(1)
            yield host.wait(1)
            yield host.wait(1)

        host.add(proc)
        sim.run()
        # 1 initial activation + 3 wake-ups.
        assert sim.stats.thread_activations == 4
        assert sim.stats.context_switches == 4

    def test_delta_and_timed_phase_counters(self, sim, host):
        def proc():
            yield host.wait(1)
            yield host.wait(1)

        host.add(proc)
        sim.run()
        assert sim.stats.timed_phases == 2
        assert sim.stats.delta_cycles >= 3

    def test_per_process_activations(self, sim, host):
        def proc():
            yield host.wait(1)

        host.add(proc, name="counted")
        sim.run()
        assert sim.stats.per_process_activations["host.counted"] == 2

    def test_processes_created_counter(self, sim, host):
        host.add_method(lambda: None, name="m")

        def proc():
            yield host.wait(1)

        host.add(proc)
        sim.run()
        assert sim.stats.processes_created == 2


class TestTerminatedEvent:
    def test_waiting_on_thread_termination(self, sim, host):
        seen = []

        def worker():
            yield host.wait(12)

        worker_proc = host.add(worker)

        def watcher():
            yield host.wait(worker_proc.terminated_event)
            seen.append(now_ns(sim))

        host.add(watcher)
        sim.run()
        assert seen == [12.0]
        assert worker_proc.terminated


class TestMultipleSimulators:
    def test_independent_simulators(self):
        sim_a = Simulator("a")
        seen_a = []

        def proc_a():
            yield sim_a.wait(10)
            seen_a.append(now_ns(sim_a))

        sim_a.create_thread(proc_a)
        sim_a.run()

        sim_b = Simulator("b")
        seen_b = []

        def proc_b():
            yield sim_b.wait(20)
            seen_b.append(now_ns(sim_b))

        sim_b.create_thread(proc_b)
        sim_b.run()

        assert seen_a == [10.0]
        assert seen_b == [20.0]
        assert now_ns(sim_a) == 10.0
        assert now_ns(sim_b) == 20.0


class _ArmedTimeout(Timeout):
    """A Timeout subclass: the scheduler arms it through ``Timeout.arm``
    instead of its inline fast path."""

    __slots__ = ()


_TIMEOUT_MAKERS = {
    "simtime": lambda duration_ns: Timeout(ns(duration_ns)),
    "femtoseconds": lambda duration_ns: Timeout.from_femtoseconds(
        ns(duration_ns).femtoseconds
    ),
    "arm_protocol": lambda duration_ns: _ArmedTimeout(ns(duration_ns)),
}


class TestTimeoutConstructors:
    def test_int_and_simtime_timeouts_expose_the_same_duration(self):
        from_time = Timeout(ns(25))
        from_int = Timeout.from_femtoseconds(25_000_000)
        assert from_time.duration == from_int.duration == ns(25)
        assert from_time.duration_fs == from_int.duration_fs == 25_000_000
        assert repr(from_time) == repr(from_int) == "Timeout(25 ns)"

    def test_constructors_reject_bad_durations(self):
        with pytest.raises(ProcessError):
            Timeout(25)
        with pytest.raises(ProcessError):
            Timeout.from_femtoseconds(-1)

    @staticmethod
    def _wake_log(make):
        sim = Simulator("timeouts")
        log = []

        def proc():
            for duration_ns in (5, 0, 3, 0):
                yield make(duration_ns)
                stats = sim.stats
                log.append((sim.now_fs, stats.delta_cycles, stats.timed_phases))

        sim.create_thread(proc)
        sim.run()
        return log

    @pytest.mark.parametrize("kind", sorted(_TIMEOUT_MAKERS))
    def test_every_construction_arms_identically(self, kind):
        # A zero duration is a delta wake: one more delta cycle, no timed
        # phase and no time advance.
        assert self._wake_log(_TIMEOUT_MAKERS[kind]) == [
            (5_000_000, 2, 1),
            (5_000_000, 3, 1),
            (8_000_000, 4, 2),
            (8_000_000, 5, 2),
        ]


class TestTimedQueueOrdering:
    def test_equal_timeout_dates_resume_in_arming_order(self, sim, host):
        order = []

        def late_armer():
            yield host.wait(0)  # arms its 10 ns timeout one delta later
            yield host.wait(10)
            order.append("late_armer")

        def early_armer():
            yield host.wait(10)
            order.append("early_armer")

        host.add(late_armer)
        host.add(early_armer)
        sim.run()
        assert order == ["early_armer", "late_armer"]
        assert sim.stats.timed_phases == 1

    def test_cancelled_head_notification_makes_no_timed_phase(self, sim, host):
        event = Event("ev", sim=sim)
        woken = []

        def notifier():
            event.notify(ns(5))
            event.cancel()
            yield from ()

        def waiter():
            yield event
            woken.append(sim.now_fs)

        host.add(notifier)
        host.add(waiter)
        sim.run()
        assert woken == []
        assert sim.now_fs == 0
        assert sim.stats.timed_phases == 0

    def test_cancelled_head_is_skipped_before_a_later_wake(self, sim, host):
        event = Event("ev", sim=sim)
        woken = []

        def notifier():
            event.notify(ns(5))
            event.cancel()
            yield host.wait(20)
            woken.append(sim.now_fs)

        host.add(notifier)
        sim.run()
        assert woken == [ns(20).femtoseconds]
        assert sim.stats.timed_phases == 1

    @pytest.mark.parametrize("event_first", [True, False])
    def test_event_and_timeout_at_one_date_fire_in_push_order(
        self, sim, host, event_first
    ):
        event = Event("ev", sim=sim)
        order = []

        def sleeper():
            if event_first:
                event.notify(ns(10))
            yield host.wait(10)
            order.append("sleeper")

        def notifier():
            if not event_first:
                event.notify(ns(10))
            yield from ()

        def waiter():
            yield event
            order.append("waiter")

        host.add(waiter)
        host.add(sleeper)
        host.add(notifier)
        sim.run()
        expected = ["waiter", "sleeper"] if event_first else ["sleeper", "waiter"]
        assert order == expected
        assert sim.stats.timed_phases == 1
