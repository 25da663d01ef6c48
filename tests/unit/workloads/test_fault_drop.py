"""The fault-injection workload: paired validation must flag the drop."""

import pytest

from repro.campaign import CampaignRunner, ScenarioSpec, diff_pair_streaming
from repro.kernel import Simulator
from repro.workloads.fault_drop import FaultDropConfig, FaultDropScenario

SPEC = ScenarioSpec("fault_s7", "fault_drop", depth=3, seed=7)


class TestScenario:
    def test_reference_run_delivers_everything(self):
        sim = Simulator("fault_ref")
        scenario = FaultDropScenario(sim, decoupled=False, config=FaultDropConfig(seed=7))
        scenario.run()
        scenario.verify()
        assert len(scenario.consumer.values) == scenario.config.item_count
        assert scenario.relay.dropped_value is None

    def test_faulty_run_drops_exactly_the_seeded_value(self):
        config = FaultDropConfig(seed=7)
        sim = Simulator("fault_smart")
        scenario = FaultDropScenario(sim, decoupled=True, config=config)
        scenario.run()
        scenario.verify()
        assert len(scenario.consumer.values) == config.item_count - 1
        assert scenario.relay.dropped_value == config.dropped_index
        assert scenario.relay.dropped_value not in scenario.consumer.values

    def test_dropped_index_is_seed_derived(self):
        assert FaultDropConfig(seed=7).dropped_index == FaultDropConfig(seed=7).dropped_index
        indexes = {FaultDropConfig(seed=s).dropped_index for s in range(40)}
        assert len(indexes) > 1


class TestPairedDetection:
    """Negative-path coverage: the methodology detects real divergence."""

    def test_pair_is_flagged_not_equivalent(self):
        (pair,) = CampaignRunner(workers=1).run([SPEC]).pairs
        assert not pair.equivalent
        assert not pair.extras_match
        assert pair.reference_digest != pair.smart_digest
        assert pair.reference_lines == pair.candidate_lines + 1
        assert "traces differ" in pair.report
        assert "extras differ" in pair.report

    def test_streaming_diff_names_the_dropped_line(self):
        dropped = FaultDropConfig(seed=SPEC.seed, fifo_depth=SPEC.depth).dropped_index
        pair = diff_pair_streaming(SPEC)
        assert not pair.equivalent
        assert f"received {dropped}" in pair.report

    def test_campaign_reports_the_mismatch(self):
        result = CampaignRunner(workers=1).run([SPEC])
        assert not result.all_pairs_equivalent
        (pair,) = result.pairs
        # The runner upgrades the digest mismatch to the full line diff.
        assert "missing in candidate" in pair.report
        assert "PAIR MISMATCH" in result.summary()

    def test_worker_count_does_not_change_the_mismatch_record(self):
        inline = CampaignRunner(workers=1).run([SPEC])
        pooled = CampaignRunner(workers=2).run([SPEC])
        assert inline.fingerprint() == pooled.fingerprint()

    def test_null_sink_flags_extras_only_without_reviving_trace_validation(self):
        result = CampaignRunner(workers=1, trace_sink="null").run([SPEC])
        (pair,) = result.pairs
        assert not pair.equivalent
        assert not pair.extras_match
        assert "extras differ" in pair.report
        # Tracing is off: no spool re-run, no trace-level verdict.
        assert "traces differ" not in pair.report
        assert "missing in candidate" not in pair.report
        assert pair.reference_digest == pair.smart_digest
        assert pair.reference_lines == pair.candidate_lines == 0


class TestRegistry:
    def test_rejects_timing_override(self):
        bad = ScenarioSpec("fault_bad", "fault_drop", timing="untimed")
        with pytest.raises(ValueError, match="timing"):
            CampaignRunner(workers=1).run([bad])
