#!/usr/bin/env python3
"""The Fig. 5 benchmark as a runnable example.

Builds the ``source -> transmitter -> sink`` pipeline (two FIFOs, blocks of
words with configurable data rates) in the three implementations compared
by the paper — untimed, timed without decoupling (TDless), timed with
temporal decoupling and Smart FIFOs (TDfull) — and sweeps the FIFO depth.

For every point the example prints the wall-clock duration, the number of
context switches and the simulated completion date; TDless and TDfull must
always agree on the completion date (that is the accuracy claim), while
their speed difference grows with the FIFO depth (that is the speed claim).

Run with::

    python examples/streaming_pipeline.py [--blocks N] [--words N] [--depths 1,4,16]
"""

import argparse

from repro.analysis import experiments
from repro.analysis.reporting import text_plot
from repro.workloads import PipelineModel, StreamingConfig


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=20, help="number of blocks")
    parser.add_argument("--words", type=int, default=50, help="words per block")
    parser.add_argument(
        "--depths",
        type=str,
        default="1,2,4,8,16,64",
        help="comma-separated FIFO depths to sweep",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    depths = [int(depth) for depth in args.depths.split(",")]
    base = StreamingConfig(n_blocks=args.blocks, words_per_block=args.words)

    rows = experiments.fig5_rows(
        experiments.fig5_depth_sweep(depths=depths, base_config=base)
    )
    print(experiments.fig5_table(rows))
    print()
    print(experiments.fig5_speedup_table(rows))
    print()

    series = experiments.fig5_series(rows)
    wall_series = {
        model: [values[depth] for depth in depths]
        for model, values in series.items()
    }
    print(
        text_plot(
            wall_series,
            x_values=depths,
            title="Execution duration (seconds) per FIFO depth — compare with Fig. 5",
        )
    )

    # Accuracy check across the whole sweep.
    completions = {}
    for row in rows:
        if row["model"] == PipelineModel.UNTIMED.value:
            continue
        completions.setdefault(row["depth"], set()).add(row["completion_ns"])
    assert all(len(dates) == 1 for dates in completions.values()), (
        "TDless and TDfull disagree on the completion date"
    )
    print("\naccuracy check passed: TDless and TDfull agree at every depth")


if __name__ == "__main__":
    main()
