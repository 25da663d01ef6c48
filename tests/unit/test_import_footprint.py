"""Which layers a process loads, pinned per entry point.

A process that only simulates (the paper's Fig. 5 sweep, the Section IV-C
case study) needs the kernel, the FIFOs and the workloads.  The digests
(OpenSSL), the process pool, the replay engine, the trace differ, the
report tables and the telemetry report each load at the call site that
uses them, so such a process neither compiles nor maps them.  Each check runs in a fresh interpreter
started with ``-S`` and ``PYTHONPATH=src``, so the host's site hooks load
nothing of their own, and reads ``sys.modules`` at the end: the set of
loaded modules is deterministic, unlike the RSS or the time it costs.
"""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: Layers a simulation-only process must not load.
SIMULATION_ONLY_ABSENT = (
    "_hashlib",
    "multiprocessing",
    "socket",
    "csv",
    "repro.replay.engine",
    "repro.analysis.trace_diff",
    "repro.analysis.reporting",
    "repro.telemetry.report",
)


def _loaded(body, check):
    """The subset of ``check`` loaded once ``body`` has run in a child."""
    script = textwrap.dedent(body) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps([name for name in {list(check)!r}
                          if name in sys.modules]))
    """)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    child = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env,
        capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_a_simulation_loads_no_digest_pool_replay_or_report_layer():
    loaded = _loaded("""
        import repro.campaign, repro.soc, repro.telemetry, repro.workloads
        from repro.kernel import Simulator
        from repro.soc import FifoPolicy, SocConfig, SocPlatform
        from repro.workloads import (
            PipelineModel, StreamingConfig, StreamingPipeline,
        )

        config = StreamingConfig(n_blocks=2, words_per_block=20, fifo_depth=4)
        pipeline = StreamingPipeline(Simulator("fig5"), PipelineModel.TDFULL, config)
        pipeline.run()
        pipeline.verify()
        soc = SocPlatform(
            Simulator("soc"), FifoPolicy.SMART,
            SocConfig.benchmark(n_chains=1, items_per_chain=16),
        )
        soc.run()
        soc.verify()
    """, SIMULATION_ONLY_ABSENT + ("hashlib",))
    assert loaded == []


def test_an_inline_campaign_fingerprint_loads_hashlib_only():
    loaded = _loaded("""
        from repro.campaign import CampaignRunner, default_campaign

        specs = [spec for spec in default_campaign()
                 if spec.workload == "writer_reader"][:1]
        result = CampaignRunner(workers=1, paired=False).run(specs)
        assert len(result.fingerprint()) == 64
    """, ("hashlib", "_hashlib", "multiprocessing", "repro.replay.engine"))
    assert loaded == ["hashlib", "_hashlib"]


def test_importing_the_cli_loads_no_replay_engine_openssl_pool_or_differ():
    loaded = _loaded(
        "import repro.analysis.cli",
        ("repro.replay.engine", "_hashlib", "multiprocessing", "socket",
         "repro.analysis.trace_diff", "csv"),
    )
    assert loaded == []

