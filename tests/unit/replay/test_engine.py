"""ReplayEngine and the evaluator helpers around it, one rule at a time.

The property tests replay random models against fresh simulations; this
module pins the engine's argument checks, its self-check against the
recording, its refusals, and the small helpers the sweep router builds
on (group keys, point specs, the validation sample, the replay row).
"""

import copy
import hashlib
from dataclasses import replace

import pytest

from repro.campaign import ScenarioSpec, sweep_point_specs
from repro.campaign.scenarios import default_campaign
from repro.fifo import (
    PacketSmartFifo,
    ReadArbiter,
    RegularFifo,
    SmartFifo,
    WriteArbiter,
)
from repro.kernel import tracing
from repro.kernel.tracing import DependencyRecorder
from repro.campaign.evaluators import (
    EMPTY_TRACE_DIGEST,
    ReplayEvaluator,
    _validation_sample,
    record_spool,
    replay_group_key,
    replay_record,
    simulate,
)
from repro.replay import (
    ReplayEngine,
    ReplayError,
    ReplayInvalid,
    ReplayMismatch,
)

STREAMING = ScenarioSpec(
    name="engine_stream",
    workload="streaming",
    mode="smart",
    depth=4,
    params={"n_blocks": 3, "words_per_block": 10},
)

#: Its monitor samples ``get_size``: shallow replays cannot reproduce the
#: occupancy it saw at depth 8, so they are refused.
RANDOM = ScenarioSpec(
    name="engine_random", workload="random_traffic", mode="smart",
    depth=8, seed=1,
)


@pytest.fixture(scope="module")
def recorded():
    """``(spool, record)`` of the streaming anchor."""
    return record_spool(STREAMING)


@pytest.fixture(scope="module")
def engine(recorded):
    return ReplayEngine(recorded[0])


class TestArguments:
    def test_one_depth_per_fifo_is_required(self, engine):
        assert len(engine.fifos) == 2
        with pytest.raises(ReplayError, match="expected 2 depths, got 1"):
            engine.replay(depths=[4])

    @pytest.mark.parametrize("bad", [0, -3])
    def test_depths_must_be_positive(self, engine, bad):
        with pytest.raises(ReplayError, match="must be positive"):
            engine.replay(depths=[4, bad])

    def test_a_poisoned_spool_is_refused_up_front(self, recorded):
        spool = copy.copy(recorded[0])
        spool.poison = "waited on a signal"
        with pytest.raises(ReplayError, match="not replayable: waited on"):
            ReplayEngine(spool)


class TestMethodProcesses:
    """Replay re-derives when threads run, never when a notification
    invokes a method, so a recording a method process wrote to is
    refused up front and its sweep is simulated."""

    def test_a_method_probe_is_refused_naming_the_method(self):
        # The NoC's network interfaces and routers are method processes.
        spec = next(
            spec for spec in default_campaign()
            if spec.name == "noc_stress_2x2"
        )
        spool, _ = record_spool(spec)
        with pytest.raises(ReplayError) as refused:
            ReplayEngine(spool)
        assert str(refused.value) == (
            "recording is not replayable: is_empty probe of "
            "dst_ni_0_1.arrivals from a method process "
            "[in process dst_ni_0_1.deliver]"
        )

    @pytest.mark.parametrize("name", ["soc_2x64", "noc_stress_2x2"])
    def test_a_poisoned_recording_stops_recording(self, monkeypatch, name):
        """From its first poison on the recorder appends no op, and the
        recording run's row is the plain simulation's."""
        spec = next(s for s in default_campaign() if s.name == name)

        def ops(recorder):
            return sum(len(stream.program) + len(stream.dates)
                       for stream in recorder._streams.values())

        at_poison = []
        poison = DependencyRecorder.poison

        def spy(recorder, reason):
            first = recorder.poison_reason is None
            poison(recorder, reason)
            if first:
                at_poison.append(ops(recorder))

        monkeypatch.setattr(DependencyRecorder, "poison", spy)
        sim, recorded = simulate(spec, record_dependencies=True)
        sim.trace.close()
        assert len(at_poison) == 1
        assert ops(sim.dep_recorder) == at_poison[0]
        assert sim.dep_recorder.finalize().poison is not None
        _, plain = simulate(spec)
        assert recorded.deterministic_row() == plain.deterministic_row()

    def test_any_other_method_access_poisons_too(self, sim, host):
        recorder = sim.dep_recorder = DependencyRecorder(sim)
        host.add_method(lambda: recorder.inc(5), name="ticker")
        sim.run()
        assert recorder.finalize().poison == (
            "FIFO/timing access from a method process "
            "[in process host.ticker]"
        )


#: ``(FIFO kind, method, arguments, probe the poison names)``: every
#: occupancy probe but ``get_size``.  Each call is made by a thread with
#: one word in the FIFO, so a read or a peek finds data.  The packet
#: FIFO's non-blocking packet accesses probe through their guards.
THREAD_PROBES = [
    ("smart", "nb_write", (0,), "nb_write"),
    ("smart", "nb_read", (), "nb_read"),
    ("smart", "is_full", (), "is_full"),
    ("smart", "is_empty", (), "is_empty"),
    ("smart", "peek_size", (), "peek_size"),
    ("smart", "nb_write_burst", ([0, 0],), "nb_write_burst"),
    ("smart", "nb_read_burst", (2,), "nb_read_burst"),
    ("packet", "packet_available", (), "packet_available"),
    ("packet", "space_for_packet", (), "space_for_packet"),
    ("packet", "nb_read_packet", (), "packet_available"),
    ("packet", "nb_write_packet", ([0],), "space_for_packet"),
    ("regular", "nb_write", (0,), "nb_write"),
    ("regular", "nb_read", (), "nb_read"),
    ("regular", "is_full", (), "is_full"),
    ("regular", "is_empty", (), "is_empty"),
    ("regular", "peek", (), "peek"),
]


class TestThreadProbes:
    """Replay re-derives blocking accesses and the monitor's
    ``get_size``; any other probe a thread makes poisons the recording,
    naming the probe, the FIFO and the thread."""

    @pytest.mark.parametrize(
        "kind, method, args, probe", THREAD_PROBES,
        ids=[f"{kind}-{method}" for kind, method, _, _ in THREAD_PROBES],
    )
    def test_a_thread_probe_poisons_by_name(self, sim, host, kind, method,
                                            args, probe):
        sim.dep_recorder = DependencyRecorder(sim)
        if kind == "smart":
            fifo = SmartFifo(sim, "fifo", depth=4)
        elif kind == "packet":
            fifo = PacketSmartFifo(sim, "fifo", depth=4, packet_size=1)
        else:
            fifo = RegularFifo(sim, "fifo", depth=4)

        def prober():
            yield from fifo.write(1)
            getattr(fifo, method)(*args)

        host.add(prober)
        sim.run()
        assert sim.dep_recorder.finalize().poison == (
            f"{probe} probe of fifo [in process host.prober]"
        )

    @pytest.mark.parametrize("method", ["nb_write", "nb_read"])
    def test_an_arbitrated_access_poisons_through_its_fifo(self, sim, host,
                                                           method):
        sim.dep_recorder = DependencyRecorder(sim)
        fifo = SmartFifo(sim, "fifo", depth=4)
        port = (WriteArbiter if method == "nb_write" else ReadArbiter)(
            sim, "port", fifo
        )

        def prober():
            yield from fifo.write(1)
            if method == "nb_write":
                port.nb_write(0)
            else:
                port.nb_read()

        host.add(prober)
        sim.run()
        assert sim.dep_recorder.finalize().poison == (
            f"{method} probe of fifo [in process host.prober]"
        )

    @pytest.mark.parametrize("kind", ["smart", "regular"])
    def test_get_size_is_recorded_not_poisoned(self, sim, host, kind):
        sim.dep_recorder = DependencyRecorder(sim)
        cls = SmartFifo if kind == "smart" else RegularFifo
        fifo = cls(sim, "fifo", depth=4)

        def monitor():
            yield from fifo.write(1)
            yield from fifo.get_size()

        thread = host.add(monitor)
        sim.run()
        spool = sim.dep_recorder.finalize()
        assert spool.poison is None
        assert spool.programs[thread.pid][-1][:3] == (
            tracing.OP_GET_SIZE, 0, 1,
        )


class TestSelfCheck:
    def test_self_check_reproduces_the_recorded_run(self, engine, recorded):
        record = recorded[1]
        result = engine.self_check()
        assert result.all_terminated
        assert result.mismatches == []
        assert (result.sim_end_fs, result.context_switches,
                result.delta_cycles) == (
            record.sim_end_fs, record.context_switches, record.delta_cycles
        )

    def test_default_depths_are_the_recorded_ones(self, engine):
        recorded_depths = [meta["depth"] for meta in engine.fifos]
        assert engine.replay() == engine.replay(depths=recorded_depths)

    def test_replays_share_no_state(self, engine):
        shallow = engine.retarget_depths(STREAMING.depth, 1)
        first = engine.replay(depths=shallow)
        engine.replay(depths=engine.retarget_depths(STREAMING.depth, 64))
        assert engine.replay(depths=shallow) == first

    def test_mismatch_message_previews_eight_diffs(self):
        error = ReplayMismatch([f"diff{i}" for i in range(11)])
        assert error.diffs == [f"diff{i}" for i in range(11)]
        assert "diff7; ... 3 more" in str(error)
        assert "diff8" not in str(error)

    def test_a_short_mismatch_has_no_tail(self):
        assert str(ReplayMismatch(["a", "b"])) == (
            "replay diverges from recorded run: a; b"
        )


class TestRetargeting:
    @pytest.mark.parametrize("shallow, deep", [(1, 2), (2, 4), (4, 8),
                                               (8, 64)])
    def test_a_deeper_fifo_never_blocks_more(self, engine, shallow, deep):
        def waits(depth):
            return engine.replay(
                depths=engine.retarget_depths(STREAMING.depth, depth)
            ).blocking_waits

        assert waits(deep) <= waits(shallow)

    def test_only_fifos_at_the_anchor_depth_are_retargeted(self, engine):
        aux = copy.copy(engine)
        aux.fifos = [dict(engine.fifos[0]), dict(engine.fifos[1], depth=1)]
        assert aux.retarget_depths(STREAMING.depth, 16) == [16, 1]

    def test_an_unreproducible_probe_is_refused_with_its_origin(self):
        evaluator = ReplayEvaluator(RANDOM, record_spool(RANDOM)[0])
        with pytest.raises(ReplayInvalid) as refused:
            evaluator.replay_point(replace(RANDOM, name="p", depth=1))
        assert (refused.value.process, refused.value.fifo,
                refused.value.construct) == ("monitor.run", "fifo", "get_size")
        # Deeper points stay inside the envelope.
        deep = evaluator.replay_point(replace(RANDOM, name="q", depth=64))
        assert deep.all_terminated


class TestEvaluatorHelpers:
    def test_group_key_ignores_name_depth_and_quantum(self):
        moved = replace(STREAMING, name="other", depth=9, quantum_ns=5)
        assert replay_group_key(moved) == replay_group_key(STREAMING)

    @pytest.mark.parametrize("change", [
        {"seed": 2}, {"mode": "reference"}, {"params": {"n_blocks": 4}},
    ])
    def test_group_key_separates_other_programs(self, change):
        assert replay_group_key(replace(STREAMING, **change)) != (
            replay_group_key(STREAMING)
        )

    def test_point_specs_are_named_and_skip_the_anchor(self):
        points = sweep_point_specs(STREAMING, depths=[1, 4, 16])
        assert [(p.name, p.depth) for p in points] == [
            ("engine_stream_d1", 1), ("engine_stream_d16", 16),
        ]
        points[0].params["n_blocks"] = 99
        assert STREAMING.params["n_blocks"] == 3

    def test_quantum_points_need_a_quantum_anchor(self):
        with pytest.raises(ReplayError, match="timing='quantum' anchor"):
            sweep_point_specs(STREAMING, quanta_ns=[10])
        anchor = replace(STREAMING, timing="quantum", quantum_ns=10)
        assert [p.name for p in sweep_point_specs(
            anchor, quanta_ns=[10, 20]
        )] == ["engine_stream_q20ns"]

    def test_repeated_point_is_refused(self):
        with pytest.raises(ReplayError, match="sweep depths repeat"):
            sweep_point_specs(STREAMING, depths=[1, 16, 1])
        anchor = replace(STREAMING, timing="quantum", quantum_ns=10)
        with pytest.raises(ReplayError, match="sweep quanta repeat"):
            sweep_point_specs(anchor, quanta_ns=[20, 20])

    @pytest.mark.parametrize("count, validate, picked", [
        (5, 0, []),
        (0, 3, []),
        (4, 9, [0, 1, 2, 3]),
        (10, 1, [0]),
        (10, 3, [0, 3, 6]),
        (7, 2, [0, 3]),
    ])
    def test_validation_sample(self, count, validate, picked):
        assert _validation_sample(count, validate) == picked

    def test_replay_record_carries_replay_observables(self, engine):
        point = replace(STREAMING, name="engine_stream_d1", depth=1)
        result = engine.replay(
            depths=engine.retarget_depths(STREAMING.depth, 1)
        )
        record = replay_record(point, result, wall=0.5)
        row = record.deterministic_row()
        assert row["evaluator"] == "replay"
        assert (row["trace_lines"], row["trace_digest"]) == (
            0, EMPTY_TRACE_DIGEST
        )
        assert row["extra"] == {
            "blocking_waits": result.blocking_waits,
            "timed_phases": result.timed_phases,
            "all_terminated": True,
        }
        assert (row["name"], row["depth"]) == ("engine_stream_d1", 1)

    def test_one_empty_trace_digest(self, engine):
        """One literal, with nothing hashed at import: it is the SHA-256 of
        no bytes, what an empty digest sink reports and what every
        replayed row carries."""
        result = engine.replay(
            depths=engine.retarget_depths(STREAMING.depth, 1)
        )
        point = replace(STREAMING, name="engine_stream_d1", depth=1)
        row = replay_record(point, result, wall=0.0).deterministic_row()
        assert EMPTY_TRACE_DIGEST is tracing.EMPTY_TRACE_DIGEST
        assert {
            hashlib.sha256(b"").hexdigest(),
            tracing.DigestSink().digest(),
            row["trace_digest"],
        } == {tracing.EMPTY_TRACE_DIGEST}

    @pytest.mark.parametrize("change, field", [
        ({"seed": 5}, "seed"),
        ({"mode": "reference"}, "mode"),
    ])
    def test_a_point_may_only_move_depth_and_quantum(self, recorded, change,
                                                     field):
        evaluator = ReplayEvaluator(STREAMING, spool=recorded[0])
        with pytest.raises(ReplayError, match=f"changes '{field}'"):
            evaluator.replay_point(replace(STREAMING, name="p", **change))

    def test_a_point_with_other_params_is_refused(self, recorded):
        evaluator = ReplayEvaluator(STREAMING, spool=recorded[0])
        point = replace(STREAMING, name="p", params={"n_blocks": 4,
                                                      "words_per_block": 10})
        with pytest.raises(ReplayError, match="changes params"):
            evaluator.replay_point(point)
