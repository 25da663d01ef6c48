"""Unit tests for the Signal primitive channel."""

from repro.kernel import Signal
from repro.kernel.simtime import TimeUnit


class TestSignalSemantics:
    def test_initial_value(self, sim):
        signal = Signal(sim, "s", initial=3)
        assert signal.read() == 3
        assert signal.value == 3

    def test_write_visible_next_delta(self, sim, host):
        signal = Signal(sim, "s", initial=0)
        seen = []

        def writer():
            signal.write(1)
            seen.append(("same_delta", signal.read()))
            yield host.wait(0)
            seen.append(("next_delta", signal.read()))

        host.add(writer)
        sim.run()
        assert seen == [("same_delta", 0), ("next_delta", 1)]

    def test_value_changed_event(self, sim, host):
        signal = Signal(sim, "s", initial=0)
        seen = []

        def waiter():
            yield host.wait(signal.value_changed)
            seen.append((sim.now.to(TimeUnit.NS), signal.read()))

        def writer():
            yield host.wait(4)
            signal.write(7)

        host.add(waiter)
        host.add(writer)
        sim.run()
        assert seen == [(4.0, 7)]

    def test_no_event_when_value_unchanged(self, sim, host):
        signal = Signal(sim, "s", initial=5)
        seen = []

        def waiter():
            yield host.wait(signal.value_changed)
            seen.append("changed")

        def writer():
            yield host.wait(1)
            signal.write(5)  # same value: no notification
            yield host.wait(1)
            signal.write(6)

        host.add(waiter)
        host.add(writer)
        sim.run()
        assert seen == ["changed"]
        assert sim.now.to(TimeUnit.NS) == 2.0

    def test_last_write_wins_within_delta(self, sim, host):
        signal = Signal(sim, "s", initial=0)

        def writer():
            signal.write(1)
            signal.write(2)
            yield host.wait(0)
            assert signal.read() == 2

        host.add(writer)
        sim.run()

    def test_method_sensitive_to_signal(self, sim, host):
        signal = Signal(sim, "s", initial=0)
        runs = []

        def method():
            runs.append(signal.read())

        host.add_method(method, sensitivity=[signal.value_changed], dont_initialize=True)

        def writer():
            yield host.wait(3)
            signal.write(9)

        host.add(writer)
        sim.run()
        assert runs == [9]
