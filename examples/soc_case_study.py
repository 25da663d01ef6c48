#!/usr/bin/env python3
"""The heterogeneous many-core SoC case study (Section IV-C).

Builds the synthetic platform twice — once with FIFOs that synchronize the
caller at every access, once with Smart FIFOs — runs the same job
(firmware-driven accelerator chains streaming data through the NoC) on
both, and reports:

* the wall-clock simulation time and the context-switch counts,
* the gain of the Smart FIFO version (the paper reports 42.3 %),
* a proof that the timing is identical: the completion date of every
  accelerator, the dates of the software's FIFO-level monitor samples and
  the data checksums all match.

Run with::

    python examples/soc_case_study.py [--chains N] [--items N]
"""

import argparse
import time

from repro.analysis.reporting import format_gain
from repro.kernel import Simulator
from repro.soc import FifoPolicy, SocConfig, SocPlatform


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chains", type=int, default=4, help="number of accelerator chains")
    parser.add_argument("--items", type=int, default=512, help="words produced per chain")
    parser.add_argument("--workers", type=int, default=3, help="worker accelerators per chain")
    return parser.parse_args()


def run(policy: FifoPolicy, config: SocConfig):
    sim = Simulator(policy.value)
    platform = SocPlatform(sim, policy=policy, config=config)
    start = time.perf_counter()
    platform.run()
    wall = time.perf_counter() - start
    platform.verify()
    return sim, platform, wall


def main() -> None:
    args = parse_args()
    config = SocConfig.benchmark(n_chains=args.chains, items_per_chain=args.items)
    config.workers_per_chain = args.workers
    config.validate()

    print(
        f"platform: {config.n_chains} chains x "
        f"({config.workers_per_chain} workers + producer + consumer), "
        f"{config.items_per_chain} words per chain, "
        f"{config.mesh_width}x{config.mesh_height} NoC"
    )
    print()

    results = {}
    for policy in (FifoPolicy.SYNC_PER_ACCESS, FifoPolicy.SMART):
        sim, platform, wall = run(policy, config)
        results[policy] = (sim, platform, wall)
        print(f"--- {policy.value}")
        print(f"  wall-clock simulation time : {wall:.3f} s")
        print(f"  context switches           : {sim.stats.context_switches}")
        print(f"  method invocations         : {sim.stats.method_invocations}")
        print(f"  NoC packets routed         : {platform.mesh.total_packets_routed}")
        print(f"  FIFO blocking suspensions  : {platform.fifo_blocking_waits()}")
        print(f"  final simulated date       : {sim.now}")
        print()

    sync_sim, sync_platform, sync_wall = results[FifoPolicy.SYNC_PER_ACCESS]
    smart_sim, smart_platform, smart_wall = results[FifoPolicy.SMART]

    # --- timing equivalence -------------------------------------------------
    sync_dates = {
        name: date.femtoseconds
        for name, date in sync_platform.consumer_finish_times().items()
    }
    smart_dates = {
        name: date.femtoseconds
        for name, date in smart_platform.consumer_finish_times().items()
    }
    assert sync_dates == smart_dates, "consumer completion dates differ!"
    assert (
        sync_platform.core.monitor_samples == smart_platform.core.monitor_samples
    ), "software-visible FIFO levels differ!"
    print("timing check passed: both policies produce identical dates everywhere")
    print()

    # --- the paper-style result ----------------------------------------------
    print("simulation speed:", format_gain(sync_wall, smart_wall))
    print("(paper case study:", format_gain(38.0, 21.9) + ")")
    print(
        "context switches: {} -> {} ({:.1f}% fewer)".format(
            sync_sim.stats.context_switches,
            smart_sim.stats.context_switches,
            100.0
            * (sync_sim.stats.context_switches - smart_sim.stats.context_switches)
            / sync_sim.stats.context_switches,
        )
    )


if __name__ == "__main__":
    main()
