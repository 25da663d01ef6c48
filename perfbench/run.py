"""perfbench: the benchmark of this repository (see perfbench/README.md).

One workload, as BENCHMARK.json declares it; the last line of standard
output is the JSON result::

    python3 perfbench/run.py --workload fig5_sweep --seed 1 --seconds 20 --trace 0

A set (every workload with its set-up probes and traced pass) written to
a result file, and the comparison of two result files against the bounds
of BENCHMARK.json::

    python3 perfbench/run.py --set --seed 1 --out a.json
    python3 perfbench/run.py --compare a.json b.json

Run from the root of a checkout; the simulator is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SUITE = os.path.join(HERE, "suite.py")
#: Transient files of a run (campaign rows, telemetry sidebands).
WORK = os.path.join(ROOT, ".perfbench-work")

#: Cold set-up probes per workload run (``setup_s`` is their median) and
#: cold ``import repro.analysis.cli`` probes (``cli.import_s``), by scale.
#: The smoke scale skips the probe that warms the ``.pyc`` cache.
SETUP_PROBES = {"full": 6, "smoke": 1}
IMPORT_PROBES = {"full": 3, "smoke": 1}
#: Every child of one workload run must have ended by then.
RUN_LIMIT_S = 170.0

IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import repro.analysis.cli; "
    "print(time.perf_counter() - start)"
)


def load_benchmark() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------
class Deadline:
    """The time by which every child of one workload run must end."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("perfbench: the workload run exceeded its time limit")
        return left


@contextlib.contextmanager
def _child(args: List[str]):
    """A child interpreter with ``src/`` on its path, stdout piped.

    The body must wait for the process.  If anything interrupts it (the
    deadline included), the child's whole session is killed, pool workers
    and all, and reaped before the error propagates."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, *args], env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        yield process
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    if process.returncode:
        raise RuntimeError(
            f"perfbench: child ({' '.join(args[1:3])}) exited with code "
            f"{process.returncode}"
        )


def probe_seconds(workload: str, seed: int, scale: str, deadline: Deadline) -> float:
    """Seconds from spawn until a fresh interpreter has built (and, for the
    campaign workload, pooled) the first simulation of an iteration."""
    start = time.perf_counter()
    with _child([SUITE, "probe", workload, str(seed), scale]) as process:
        ready, _, _ = select.select([process.stdout], [], [], deadline.left())
        line = process.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        process.communicate(timeout=deadline.left())
    if line.strip() != "ready":
        raise RuntimeError(f"perfbench: the {workload} set-up probe did not get ready")
    return elapsed


def import_seconds(deadline: Deadline) -> float:
    with _child(["-c", IMPORT_PROBE]) as process:
        out, _ = process.communicate(timeout=deadline.left())
    return float(out)


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str,
            deadline: Deadline) -> Dict[str, object]:
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        with _child([
            SUITE, "measure", workload, str(seed), str(seconds),
            "1" if trace else "0", scale, workdir,
        ]) as process:
            out, _ = process.communicate(timeout=deadline.left())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)
    return json.loads(out.splitlines()[-1])


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------
def summarize(values: List[float]) -> Dict[str, object]:
    """Median, quartiles (as ``statistics.quantiles(n=4)`` gives them) and
    the samples themselves."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values), "samples": values,
    }


def run_workload(benchmark, workload: str, seed: int, seconds: float, scale: str,
                 probes: bool, trace: bool) -> Dict[str, object]:
    """Measure one workload: set-up probes (``probes``), the timed
    iterations in a child of their own, and (``trace``) the traced pass."""
    deadline = Deadline(RUN_LIMIT_S)

    def setup_probes(count: int) -> List[float]:
        return [probe_seconds(workload, seed, scale, deadline) for _ in range(count)]

    if probes and scale == "full":
        probe_seconds(workload, seed, scale, deadline)  # warms the .pyc cache
    # Half the set-up probes run before the timed iterations and half after,
    # so that one slow phase of a shared host does not set their median.
    setup = setup_probes(SETUP_PROBES[scale] // 2) if probes else []
    measured = measure(workload, seed, seconds, trace, scale, deadline)
    values = {
        "wall_s": measured["wall_s"],
        "cpu_s": measured["cpu_s"],
        "context_switches": measured["context_switches"],
        "peak_rss_mb": [measured["peak_rss_mb"]],
    }
    if probes:
        values["setup_s"] = setup + setup_probes(SETUP_PROBES[scale] - len(setup))
    end_to_end = {
        m["name"]: dict(summarize(values[m["name"]]), unit=m["unit"])
        for m in benchmark["end_to_end"] if m["name"] in values
    }
    result = {
        "iterations": measured["iterations"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "end_to_end": end_to_end,
    }
    if trace:
        layers = measured["layers"]
        layers["cli.import_s"] = statistics.median(
            import_seconds(deadline) for _ in range(IMPORT_PROBES[scale])
        )
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        result["per_layer"] = {
            name: {"value": value, "unit": units[name]} for name, value in layers.items()
        }
        result["detail"] = measured["detail"]
    return result


def _check_declared(emitted, declared, kind: str) -> None:
    names = [metric["name"] for metric in declared]
    if sorted(emitted) != sorted(names):
        raise RuntimeError(
            f"perfbench: {kind} metrics emitted {sorted(emitted)} differ from "
            f"BENCHMARK.json {sorted(names)}"
        )


def print_report(workload: str, result: Dict[str, object]) -> None:
    print(f"== {workload}: {result['iterations']} timed iterations")
    print(f"  {'metric':<34}{'unit':<7}{'median':>14}{'q1':>14}{'q3':>14}{'n':>5}")
    for name, stats in result["end_to_end"].items():
        print(
            f"  {name:<34}{stats['unit']:<7}{stats['median']:>14.6g}"
            f"{stats['q1']:>14.6g}{stats['q3']:>14.6g}{stats['n']:>5}"
        )
    attempted, failed = result["attempted"], result["failed"]
    print(f"  oracles: {attempted} attempted, {failed} failed "
          f"(failed_fraction {failed / attempted:.6g})")
    if "per_layer" in result:
        print("  per-layer, traced pass (0 = layer not exercised by this workload):")
        for name, entry in result["per_layer"].items():
            print(f"  {name:<34}{entry['unit']:<7}{entry['value']:>14.6g}")
        print(f"  detail: {json.dumps(result['detail'], sort_keys=True)}")


# ---------------------------------------------------------------------------
# Comparison of two result files
# ---------------------------------------------------------------------------
def judge(metric: Dict[str, object], a: Dict[str, object], b: Dict[str, object]):
    """Verdict for B against A on one metric: ``(verdict, change, spread)``.

    ``change`` is the share by which B's median is worse than A's (negative
    when better); ``spread`` is the wider of the two IQR/median shares.
    Counts must be identical.  A spread wider than the bound leaves the
    verdict UNRESOLVED unless every sample of B beats every sample of A;
    ``setup_s`` is judged on its median alone, because the quartiles of a
    handful of cold starts sit at their extremes."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if metric["unit"] == "count":
        return ("PASS" if a["median"] == b["median"] else "MISMATCH"), change, spread
    if spread > metric["bound"] and metric["name"] != "setup_s":
        if all(sign * (x - y) < 0 for x in b["samples"] for y in a["samples"]):
            return "PASS", change, spread
        return "UNRESOLVED", change, spread
    return ("REGRESSION" if change > metric["bound"] else "PASS"), change, spread


def compare(benchmark, path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    for key in ("seed", "scale"):
        if a[key] != b[key]:
            print(f"perfbench: cannot compare runs with different {key}: "
                  f"{a[key]!r} != {b[key]!r}", file=sys.stderr)
            return 2
    print(f"{'workload':<22}{'metric':<30}{'A':>12}{'B':>12}{'change':>9}"
          f"{'spread':>9}{'bound':>8}  verdict")
    verdicts = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        rows = []
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if name in wa["end_to_end"] and name in wb["end_to_end"]:
                sa, sb = wa["end_to_end"][name], wb["end_to_end"][name]
                verdict, change, spread = judge(metric, sa, sb)
                rows.append((name, sa["median"], sb["median"], f"{change:+.1%}",
                             f"{spread:.1%}", f"{metric['bound']:.0%}", verdict))
        failed = (wa["failed"] / wa["attempted"], wb["failed"] / wb["attempted"])
        rows.append(("failed_fraction", *failed, "", "", "0",
                     "PASS" if failed == (0, 0) else "FAILED"))
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            if metric["unit"] == "count" and "per_layer" in wa and "per_layer" in wb:
                va, vb = wa["per_layer"][name]["value"], wb["per_layer"][name]["value"]
                rows.append((name, va, vb, "", "", "exact",
                             "PASS" if va == vb else "MISMATCH"))
        for name, va, vb, change, spread, bound, verdict in rows:
            print(f"{workload:<22}{name:<30}{va:>12.6g}{vb:>12.6g}{change:>9}"
                  f"{spread:>9}{bound:>8}  {verdict}")
            verdicts.append(verdict)
    bad = len(verdicts) - verdicts.count("PASS")
    print(f"{len(verdicts)} rows, {bad} not PASS")
    return 0 if verdicts and not bad else 1


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------
def _machine(loadavg_before) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_before": loadavg_before,
        "loadavg_after": os.getloadavg(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = load_benchmark()
    declared = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=declared, help="run one workload")
    mode.add_argument("--set", action="store_true",
                      help="run every workload with set-up probes and the traced pass")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="compare result file B against result file A")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="timed iterations run for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics")
    parser.add_argument("--workloads", default=",".join(declared),
                        help="with --set: comma-separated workloads, in run order")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny iterations, for the smoke test")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(benchmark, *args.compare)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator source under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    scale = "smoke" if args.smoke else "full"
    loadavg_before = os.getloadavg()
    if args.set:
        names = args.workloads.split(",")
        unknown = sorted(set(names) - set(declared))
        if unknown:
            parser.error(f"unknown workloads: {', '.join(unknown)}")
        results = {
            name: run_workload(benchmark, name, args.seed, args.seconds, scale,
                               probes=True, trace=True)
            for name in names
        }
    else:
        trace = bool(args.trace)
        results = {args.workload: run_workload(
            benchmark, args.workload, args.seed, args.seconds, scale,
            probes=not trace, trace=trace,
        )}
    for name, result in results.items():
        if args.set or not args.trace:
            _check_declared(result["end_to_end"], benchmark["end_to_end"], "end-to-end")
        if "per_layer" in result:
            _check_declared(result["per_layer"], benchmark["per_layer"], "per-layer")
        print_report(name, result)
    if args.out:
        document = {
            "schema": 1, "seed": args.seed, "seconds": args.seconds, "scale": scale,
            "machine": _machine(loadavg_before), "workloads": results,
        }
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload:
        result = results[args.workload]
        if args.trace:
            metrics = {n: dict(e) for n, e in result["per_layer"].items()}
        else:
            metrics = {
                n: {"value": s["median"], "unit": s["unit"]}
                for n, s in result["end_to_end"].items()
            }
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics,
        }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
