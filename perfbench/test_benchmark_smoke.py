"""Smoke test of the perfbench benchmark: every workload at a tiny size.

Runs ``run.py --set --smoke`` once (one iteration per workload, one set-up
probe, the traced pass) and checks the result file against
BENCHMARK.json; then checks the failure paths: a fault the equivalence
oracle must catch, ``--compare`` verdicts, and a directory without the
simulator sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.campaign import ScenarioSpec

import suite

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

#: Deterministic counts of the smoke-size workloads at seed 1.
PINNED_COUNTS = {
    "fig5_sweep": {
        "context_switches": 1156, "kernel.delta_cycles": 2397,
        "fifo.blocking_waits": 792, "fifo.words": 2400,
    },
    "soc_case_study": {
        "context_switches": 77, "kernel.delta_cycles": 505,
        "fifo.blocking_waits": 76, "fifo.words": 736,
    },
    "equivalence_campaign": {
        "context_switches": 1229, "kernel.delta_cycles": 3945,
        "campaign.jobs": 34, "trace.lines": 1236,
    },
    "dense_sweep": {
        "context_switches": 4211, "replay.points_replayed": 11,
        "replay.fallback_points": 1, "campaign.jobs": 1,
    },
}


def _run(*args, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    path = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    completed = _run("--set", "--smoke", "--seconds", "0", "--seed", "1",
                     "--out", str(path))
    assert completed.returncode == 0, completed.stderr
    return path


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def test_every_declared_metric_is_emitted_with_its_unit(smoke_set):
    workloads = _load(smoke_set)["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for result in workloads.values():
        for metric in BENCHMARK["end_to_end"]:
            emitted = result["end_to_end"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert emitted["median"] > 0
        for metric in BENCHMARK["per_layer"]:
            assert result["per_layer"][metric["name"]]["unit"] == metric["unit"]


def test_no_oracle_fails(smoke_set):
    for result in _load(smoke_set)["workloads"].values():
        assert result["attempted"] > 0
        assert result["failed"] / result["attempted"] == 0


def test_smoke_counts_match_pinned_values(smoke_set):
    workloads = _load(smoke_set)["workloads"]
    for name, pinned in PINNED_COUNTS.items():
        result = workloads[name]
        emitted = {
            metric: result["end_to_end"][metric]["median"]
            if metric in result["end_to_end"]
            else result["per_layer"][metric]["value"]
            for metric in pinned
        }
        assert emitted == pinned, name


def test_a_fault_drop_spec_makes_the_failed_fraction_positive(tmp_path):
    specs = suite.equivalence_specs(seed=1, replicas=1)
    specs.append(ScenarioSpec("fault_drop_s3", "fault_drop", depth=2, seed=3))
    sample = suite.run_equivalence(specs, str(tmp_path))
    assert sample.failed == 1
    assert sample.failed / sample.attempted > 0


def test_compare_passes_a_set_against_itself_and_flags_changes(smoke_set, tmp_path):
    assert _run("--compare", str(smoke_set), str(smoke_set)).returncode == 0

    changed = _load(smoke_set)
    workload = changed["workloads"]["fig5_sweep"]
    wall = workload["end_to_end"]["wall_s"]
    wall["samples"] = [value * 2 for value in wall["samples"]]
    for key in ("median", "q1", "q3"):
        wall[key] *= 2
    workload["per_layer"]["kernel.delta_cycles"]["value"] += 1
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(changed))
    completed = _run("--compare", str(smoke_set), str(path))
    assert completed.returncode == 1
    verdicts = {
        tuple(line.split()[:2]): line.split()[-1]
        for line in completed.stdout.splitlines()[1:-1]
    }
    assert verdicts["fig5_sweep", "wall_s"] == "REGRESSION"
    assert verdicts["fig5_sweep", "kernel.delta_cycles"] == "MISMATCH"
    assert verdicts["fig5_sweep", "cpu_s"] == "PASS"

    cpu = changed["workloads"]["soc_case_study"]["end_to_end"]["cpu_s"]
    cpu["q3"] = cpu["median"] * 2
    path.write_text(json.dumps(changed))
    completed = _run("--compare", str(smoke_set), str(path))
    assert "UNRESOLVED" in completed.stdout


def test_fails_without_a_result_outside_a_full_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "fig5_sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert completed.returncode != 0
    assert completed.stdout == ""
