"""Unit tests for events and notification rules (repro.kernel.event)."""

import pytest

from repro.kernel import Event, SchedulingError, ZERO_TIME, all_of, any_of, ns
from repro.kernel.simtime import TimeUnit

from tests.conftest import ThreadHost


def make_waiter(sim, host, event, recorder, label):
    def waiter():
        yield host.wait(event)
        recorder.append((sim.now.to(TimeUnit.NS), label))

    host.add(waiter, name=f"waiter_{label}")


class TestNotification:
    def test_timed_notification_wakes_at_date(self, sim, host):
        event = sim.create_event("e")
        seen = []
        make_waiter(sim, host, event, seen, "a")

        def notifier():
            yield host.wait(5)
            event.notify(ns(10))

        host.add(notifier)
        sim.run()
        assert seen == [(15.0, "a")]

    def test_delta_notification_same_date(self, sim, host):
        event = sim.create_event("e")
        seen = []
        make_waiter(sim, host, event, seen, "a")

        def notifier():
            yield host.wait(3)
            event.notify(ZERO_TIME)

        host.add(notifier)
        sim.run()
        assert seen == [(3.0, "a")]

    def test_immediate_notification_wakes_in_same_evaluation(self, sim, host):
        event = sim.create_event("e")
        seen = []
        make_waiter(sim, host, event, seen, "a")

        def notifier():
            yield host.wait(2)
            event.notify()  # immediate

        host.add(notifier)
        sim.run()
        assert seen == [(2.0, "a")]

    def test_notify_requires_simtime_delay(self, sim):
        event = sim.create_event("e")
        with pytest.raises(SchedulingError):
            event.notify(5)  # type: ignore[arg-type]

    def test_cancel_removes_pending(self, sim, host):
        event = sim.create_event("e")
        seen = []
        make_waiter(sim, host, event, seen, "a")

        def notifier():
            event.notify(ns(10))
            yield host.wait(1)
            event.cancel()

        host.add(notifier)
        sim.run()
        assert seen == []


class TestOverrideRules:
    def test_earlier_timed_overrides_later(self, sim, host):
        event = sim.create_event("e")
        seen = []
        make_waiter(sim, host, event, seen, "a")

        def notifier():
            event.notify(ns(20))
            event.notify(ns(5))
            yield host.wait(0)

        host.add(notifier)
        sim.run()
        assert seen == [(5.0, "a")]

    def test_later_timed_does_not_override_earlier(self, sim, host):
        event = sim.create_event("e")
        seen = []
        make_waiter(sim, host, event, seen, "a")

        def notifier():
            event.notify(ns(5))
            event.notify(ns(20))
            yield host.wait(0)

        host.add(notifier)
        sim.run()
        assert seen == [(5.0, "a")]

    def test_delta_overrides_timed(self, sim, host):
        event = sim.create_event("e")
        seen = []
        make_waiter(sim, host, event, seen, "a")

        def notifier():
            event.notify(ns(20))
            event.notify(ZERO_TIME)
            yield host.wait(0)

        host.add(notifier)
        sim.run()
        assert seen == [(0.0, "a")]

    def test_timed_does_not_override_delta(self, sim, host):
        event = sim.create_event("e")
        seen = []
        make_waiter(sim, host, event, seen, "a")

        def notifier():
            event.notify(ZERO_TIME)
            event.notify(ns(20))
            yield host.wait(0)

        host.add(notifier)
        sim.run()
        assert seen == [(0.0, "a")]


class TestEventLists:
    def test_any_of_wakes_on_first(self, sim, host):
        e1, e2 = sim.create_event("e1"), sim.create_event("e2")
        seen = []

        def waiter():
            yield host.wait(any_of(e1, e2))
            seen.append(sim.now.to(TimeUnit.NS))

        def notifier():
            yield host.wait(7)
            e2.notify()

        host.add(waiter)
        host.add(notifier)
        sim.run()
        assert seen == [7.0]

    def test_all_of_waits_for_every_event(self, sim, host):
        e1, e2 = sim.create_event("e1"), sim.create_event("e2")
        seen = []

        def waiter():
            yield host.wait(all_of(e1, e2))
            seen.append(sim.now.to(TimeUnit.NS))

        def notifier():
            yield host.wait(3)
            e1.notify()
            yield host.wait(4)
            e2.notify()

        host.add(waiter)
        host.add(notifier)
        sim.run()
        assert seen == [7.0]

    def test_empty_event_list_rejected(self):
        with pytest.raises(SchedulingError):
            any_of()


class TestListeners:
    """``listener_count`` is what SmartFifo reads to skip notifications
    nobody can observe, so it must drop back once a waiter woke."""

    def test_listener_count_follows_waiting_threads(self, sim, host):
        event = sim.create_event("e")
        assert event.listener_count == 0
        counts = []

        def waiter():
            yield host.wait(event)
            counts.append(event.listener_count)

        def checker():
            yield host.wait(1)
            counts.append(event.listener_count)
            event.notify()

        host.add(waiter)
        host.add(checker)
        sim.run()
        assert counts == [1, 0]
        assert event.listener_count == 0

    def test_listener_count_keeps_static_methods(self, sim, host):
        event = sim.create_event("e")
        host.add_method(lambda: None, name="m", sensitivity=[event], dont_initialize=True)
        assert event.listener_count == 1

        def notifier():
            yield host.wait(1)
            event.notify()

        host.add(notifier)
        sim.run()
        assert event.listener_count == 1
