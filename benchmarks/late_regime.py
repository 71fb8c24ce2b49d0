"""Training speed late in a run: steps/s by window over a long run.

Runs the ``train_paper`` workload of ``benchmarks/e2e`` (its config,
set-up, warm-up, per-episode timing and digest) for ``--steps`` steps
instead of the ~6 s the benchmark buys, and reports the wall-clock
rate of each ``--window``.  The e2e benchmark stops near step 500; a
rate that falls later in the run -- the RMSprop squared averages of
long-dead units decaying into subnormals, where a float32 multiply is
~37x slower -- shows only here.

The last stdout line is JSON: per-window steps/s (raw wall clock, as
each episode ran; calibration pauses excluded) and the workload's
result digest over the timed episodes and final Q-network parameters,
so two checkouts can be compared for speed and for bit-identical
training at once::

    python3 benchmarks/late_regime.py --seed 3
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

# Sets the BLAS thread variables and the import path before numpy loads.
import run as _e2e_run  # noqa: E402,F401

import argparse  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402

from workloads import make_workload  # noqa: E402


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument(
        "--window", type=int, nargs=2, action="append", metavar=("FROM", "TO"),
        help="step range to report (repeatable; default 250-650 and "
        "1600-2000); multiples of the 50-step episode, after the "
        "workload's 250-step warm-up",
    )
    args = ap.parse_args(argv)
    windows = args.window or [(250, 650), (1600, 2000)]
    workload = make_workload("train_paper", "full", args.seed, 0.0)
    try:
        workload.setup()
        workload.warmup()
        warm = workload.history.total_steps
        episode = workload.plan.unit
        if any(lo < warm or (lo - warm) % episode or hi % episode
               for lo, hi in windows):
            ap.error(f"windows must start at or after step {warm} on "
                     f"{episode}-step episode boundaries")
        measured = workload.run(-(-(args.steps - warm) // episode))
        steps = warm + np.cumsum([0] + [s for s, _, _ in measured.segments])
        ends = np.cumsum([0.0] + [sec for _, sec, _ in measured.segments])
        rates = {}
        for lo, hi in windows:
            a, b = np.searchsorted(steps, [lo, hi])
            rates[f"{lo}-{hi}"] = float(
                (steps[b] - steps[a]) / (ends[b] - ends[a])
            )
        result = {
            "seed": args.seed,
            "steps": int(steps[-1]),
            "learn_steps": workload.agent.learn_steps,
            "failed": measured.failed,
            "steps_per_s": rates,
            "digest": workload.digest(measured),
        }
    finally:
        workload.close()
    for (lo, hi), rate in zip(windows, rates.values()):
        print(f"steps {lo}-{hi}: {rate:.1f} steps/s")
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
