"""A run that ends with a blocked thread is refused by name.

``packet_stream_p4`` (packets of 4 words) loses a wakeup at depths 5, 6
and 7: the packet FIFO notifies ``not_full`` only when a read ends a full
FIFO, so its relay method never runs again and the consumer waits for
good.  The simulator returns quietly; the campaign must not turn that
into a row.
"""

from dataclasses import replace

import pytest

from repro.analysis import cli
from repro.campaign import default_campaign, execute_spec
from repro.kernel import BlockedRunError, Module, Simulator

P4 = next(spec for spec in default_campaign() if spec.name == "packet_stream_p4")


@pytest.mark.parametrize("burst", [True, False], ids=["burst", "word"])
@pytest.mark.parametrize("mode", ["smart", "reference"])
@pytest.mark.parametrize("depth", [5, 6, 7])
def test_the_lost_wakeup_depths_are_refused_by_name(depth, mode, burst):
    point = replace(
        P4, name=f"p4_d{depth}", depth=depth, mode=mode, burst=burst,
        params=dict(P4.params),
    )
    with pytest.raises(BlockedRunError) as refused:
        execute_spec(point)
    assert str(refused.value) == (
        f"p4_d{depth}[{mode}] ended with blocked threads: "
        "consumer.run (waiting on fifo_out.cell_filled)"
    )


@pytest.mark.parametrize("validate", ["0", "1"])
def test_the_campaign_command_refuses_in_one_line(validate):
    with pytest.raises(SystemExit) as refused:
        cli.main([
            "campaign", "--replay-sweep", "packet_stream_p4",
            "--sweep-depths", "4,5", "--validate", validate,
        ])
    assert refused.value.code == (
        "campaign run refused: packet_stream_p4_d5[smart] ended with "
        "blocked threads: consumer.run (waiting on fifo_out.cell_filled)"
    )


class TestBlockedThreads:
    def test_a_finished_run_has_none(self, sim, host):
        def quick():
            yield sim.wait(1)

        host.add(quick)
        sim.run()
        assert sim.blocked_threads() == []

    def test_each_waiting_thread_is_named_with_its_event(self):
        sim = Simulator("blocked")
        top = Module(sim, "top")
        top.never = top.create_event("never")
        loose = sim.create_event("loose")

        def on_module_event():
            yield sim.wait(top.never)

        def on_loose_event():
            yield sim.wait(loose)

        top.create_thread(on_module_event, name="a")
        top.create_thread(on_loose_event, name="b")
        sim.run()
        # Only events a module holds are found by name.
        assert sorted(sim.blocked_threads()) == [
            ("top.a", "top.never"), ("top.b", None),
        ]
