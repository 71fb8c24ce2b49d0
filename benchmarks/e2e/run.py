#!/usr/bin/env python3
"""End-to-end DQN-Docking benchmark: one command, four workloads.

Driver form (one workload, one run, result on the last stdout line)::

    python3 benchmarks/e2e/run.py --workload train_fast --seed 3 \\
        --seconds 6 --trace 0

Without ``--workload`` every workload runs untraced and traced, each in
a child process of its own (peak RSS is a per-process high-water mark);
``--repeat N`` runs N seeds per workload and prints the run-to-run
spread of every end-to-end metric against its bound.  See README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# Before numpy is imported: on a 2-core box two BLAS threads measured
# cpu/wall 1.9 for ~1.25x -- spin noise.  Parallelism under test comes
# from processes, never more than nproc.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

from layers import END_TO_END, FRACTIONS, PER_LAYER, bounding_layer, layer_metrics  # noqa: E402
from measure import fingerprint, peak_rss_mb, segment_summary, spread  # noqa: E402

#: Default ``--seconds``; equals ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 6

#: Set-up is repeated (median reported) until this many repeats or this
#: many seconds have been spent, whichever comes first: ``train_fast``
#: builds its field maps once (~60 s), the others set up several times.
SETUP_MAX_REPEATS = 5
SETUP_BUDGET_S = 4.0

#: Seconds a child run may take before the orchestrator gives up on it.
CHILD_TIMEOUT_S = 900

#: Appended to every heading printed at ``--scale smoke``.
SMOKE_LABEL = {"full": "", "smoke": "  ** SMOKE SCALE -- not a baseline **"}


def timed_setups(workload) -> list[float]:
    """Set up repeatedly; the workload keeps the last set of objects."""
    times: list[float] = []
    while True:
        t0 = perf_counter()
        workload.setup()
        times.append(perf_counter() - t0)
        spent = sum(times)
        if (
            len(times) >= SETUP_MAX_REPEATS
            or spent + times[-1] > SETUP_BUDGET_S
        ):
            return times
        workload.close()


def throughput(measured) -> float:
    """Ops per second of one run: the median of its segments'
    speed-corrected rates.

    Interference on a shared box arrives in bursts and in level shifts.
    A burst that covers a minority of segments does not move the
    median; a level shift moves the calibration samples taken at the
    segment boundaries by about as much as it moves the work between
    them (measure.Calibrator).  ``screen_search`` has one segment.
    """
    return segment_summary(measured.segments)["median"]


def end_to_end(workload, measured, setup_times) -> dict[str, float]:
    """The end-to-end metrics of one untraced run (RSS is added last).

    The contract wants every metric on every workload, so the two
    throughput metrics are the same measurement in both units: one
    ligand is one docking episode of T steps (training) or one search
    of ``expected_evaluations`` pose evaluations (screening).
    """
    rate = throughput(measured)
    if workload.op == "steps":
        steps_per_s = rate
        ligands_per_min = rate * 60.0 / workload.cfg.max_steps_per_episode
    else:
        steps_per_s = rate * workload.expected_evaluations
        ligands_per_min = rate * 60.0
    return {
        "setup_s": statistics.median(setup_times),
        "steps_per_s": steps_per_s,
        "ligands_per_min": ligands_per_min,
    }


def run_once(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """One workload, one process: the report behind the result line."""
    from workloads import make_workload

    # A traced invocation splits its window between the untraced and
    # the traced run, so it costs what an untraced invocation costs.
    workload = make_workload(name, scale, seed, seconds / 2 if trace else seconds)
    try:
        setup_times = timed_setups(workload)
        workload.warmup()
        timed = workload.run(workload.units)
        result_digest = workload.digest(timed)
        failures = workload.gate(timed)
        report = {
            "workload": name,
            "scale": scale,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "machine": fingerprint(ROOT, THREAD_VARS),
            "plan": {
                "units": workload.units,
                "unit_ops": workload.plan.unit,
                "op": workload.op,
            },
            "setup_times_s": setup_times,
            "end_to_end": end_to_end(workload, timed, setup_times),
            "overall_rate": timed.ops / timed.wall_s,
            "timed_wall_s": timed.wall_s,
            "segments": segment_summary(timed.segments),
            "ops_attempted": timed.ops,
            "ops_failed": timed.failed,
            "result_digest": result_digest,
            "gate_failures": failures,
        }
        if name == "train_actors":
            report["core_starved"] = report["machine"]["nproc"] < 2
        if trace:
            traced, rec = workload.traced(workload.units)
            report["ops_attempted"] += traced.ops
            report["ops_failed"] += traced.failed
            metrics = layer_metrics(
                rec,
                workload.facts,
                workload.traced_scorers,
                throughput(traced),
                throughput(timed),
            )
            fractions = {k: metrics[k] for k in FRACTIONS}
            report["per_layer"] = metrics
            report["fractions_sum"] = sum(fractions.values())
            report["bounding_layer"] = bounding_layer(fractions)
            report["traced_spans"] = len(rec.names)
            if abs(report["fractions_sum"] - 1.0) > 0.02:
                failures.append(
                    f"self-time fractions sum to {report['fractions_sum']:.4f}"
                )
        report["facts"] = dict(workload.facts)
        report["correct"] = not failures and report["ops_failed"] == 0
    finally:
        workload.close()
    # After close(): a child's RSS counts once the child has been reaped.
    report["end_to_end"]["peak_rss_mb"] = peak_rss_mb()
    return report


def result_line(report: dict) -> str:
    """The driver's contract: the last stdout line."""
    if report["trace"]:
        metrics = {
            k: {"value": report["per_layer"][k], "unit": PER_LAYER[k][0]}
            for k in PER_LAYER
        }
    else:
        metrics = {
            k: {"value": report["end_to_end"][k], "unit": END_TO_END[k][0]}
            for k in END_TO_END
        }
    return json.dumps({
        "correct": report["correct"],
        "attempted": int(report["ops_attempted"]),
        "failed": int(report["ops_failed"]),
        "metrics": metrics,
    })


def print_report(report: dict) -> None:
    plan, machine = report["plan"], report["machine"]
    print(
        f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}"
        f"  plan {plan['units']} x {plan['unit_ops']} {plan['op']}"
        + SMOKE_LABEL[report["scale"]]
    )
    print(
        f"machine: nproc={machine['nproc']} blas={machine['blas']} "
        f"blas_threads={machine['blas_threads']['OPENBLAS_NUM_THREADS']} "
        f"numpy={machine['numpy']} python={machine['python']} "
        f"commit={machine['git_commit'][:12]}"
        + (f" core_starved={report['core_starved']}" if "core_starved" in report else "")
    )
    print("end-to-end (untraced run):")
    for key, value in report["end_to_end"].items():
        print(f"  {key:<28} {value:>14.4f} {END_TO_END[key][0]}")
    seg = report["segments"]
    print(
        f"  timed {report['timed_wall_s']:.3f} s, uncorrected "
        f"{report['overall_rate']:.3f} {plan['op']}/s at machine speed "
        f"{statistics.median(seg['speeds']):.3f}; set-up x{len(report['setup_times_s'])}: "
        + " ".join(f"{t:.3f}" for t in report["setup_times_s"])
    )
    print(
        f"  segment rates ({plan['op']}/s, speed-corrected) n={seg['n']}: "
        f"q1 {seg['q1']:.2f}  median {seg['median']:.2f}  q3 {seg['q3']:.2f}"
    )
    if report["trace"]:
        print(
            f"per-layer (traced run, {report['traced_spans']} spans; fractions "
            f"sum {report['fractions_sum']:.4f}; bounding layer: "
            f"{report['bounding_layer']}):"
        )
        for key, value in report["per_layer"].items():
            print(f"  {key:<32} {value:>16.4f} {PER_LAYER[key][0]}")
    print(
        f"ops attempted={report['ops_attempted']} failed={report['ops_failed']} "
        f"digest={report['result_digest']}"
    )
    gate = report["gate_failures"]
    print("gate: " + ("pass" if not gate else "FAIL -- " + "; ".join(gate)))


# -- orchestration: all workloads / repeats, one child process per run -------


def child_run(name, seed, seconds, trace, scale):
    """Run one workload in a child; returns (report or None, the
    readable part of its stdout)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--scale", scale,
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    report, readable = None, []
    for line in proc.stdout.splitlines():
        if line.startswith("report: "):
            report = json.loads(line[len("report: "):])
            break  # only the result line follows
        readable.append(line)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return report, "\n".join(readable)


def run_all(names, seed, seconds, scale) -> int:
    status = 0
    for name in names:
        for trace in (False, True):
            report, readable = child_run(name, seed, seconds, trace, scale)
            print(readable)
            if report is None or not report["correct"]:
                status = 1
    return status


def run_repeat(names, seed, seconds, scale, repeat) -> int:
    """N seeds per workload; spread of each end-to-end metric vs bound."""
    status = 0
    for name in names:
        reports = []
        for k in range(repeat):
            report, _ = child_run(name, seed + k, seconds, False, scale)
            if report is None or not report["correct"]:
                print(f"{name} seed {seed + k}: run failed")
                status = 1
                continue
            reports.append(report)
        print(
            f"== {name}: {len(reports)} runs, seeds {seed}..{seed + repeat - 1}"
            + SMOKE_LABEL[scale]
        )
        if len(reports) < 2:
            continue
        for key, (unit, _better, bound) in END_TO_END.items():
            values = [r["end_to_end"][key] for r in reports]
            s = spread(values)
            if s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "beyond bound"
                # The driver holds every spread but set-up's to its bound.
                if key != "setup_s":
                    status = 1
            print(
                f"  {key:<16} median {statistics.median(values):.4f} {unit}  "
                f"spread {s:.4f}  bound {bound}  {verdict}"
            )
            print("    " + " ".join(f"{v:.4f}" for v in values))
        print(
            "  uncorrected ops/s "
            + " ".join(f"{r['overall_rate']:.3f}" for r in reports)
            + "  machine speed "
            + " ".join(
                f"{statistics.median(r['segments']['speeds']):.2f}"
                for r in reports
            )
        )
        print(
            "  ops_failed "
            + " ".join(str(r["ops_failed"]) for r in reports)
            + "  digests "
            + " ".join(r["result_digest"][:10] for r in reports)
        )
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.repeat:
        return run_repeat(names, args.seed, args.seconds, args.scale, args.repeat)
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds, args.scale)

    report = run_once(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    print_report(report)
    print("report: " + json.dumps(report))
    print(result_line(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
