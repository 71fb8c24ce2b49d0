"""Command-line interface: ``python -m repro <command>``.

One subcommand per experiment/driver so every paper artefact is
reproducible without writing Python:

- ``table1``        -- print the hyperparameter table (Table 1);
- ``geometry``      -- build + validate the synthetic complex (Figs 1/3);
- ``figure4``       -- train DQN-Docking and print the training curve;
- ``baselines``     -- DQN vs Monte Carlo vs metaheuristics (Section 4);
- ``comm-ablation`` -- RAM vs file engine<->agent channel (limitation 1);
- ``screen``        -- virtual-screen a synthetic ligand library;
- ``blind``         -- blind docking over receptor surface spots;
- ``curriculum``    -- multi-complex vectorized training (multi-process
  via ``--trainer actor-learner``, see docs/PARALLELISM.md);
- ``inspect``       -- summarize a telemetry run directory;
- ``resume``        -- continue an interrupted ``--log-dir`` run.

Every experiment subcommand accepts ``--log-dir DIR``: the run then
leaves ``manifest.json`` / ``events.jsonl`` / ``metrics.csv`` behind
(full per-step telemetry for ``figure4``, manifest + result events for
the rest), which ``repro inspect DIR`` renders without re-running
anything.

With ``--log-dir`` the run also gets a checkpointing runtime (see
docs/CHECKPOINTS.md): ``--checkpoint-every N`` snapshots full training
state every N episodes/steps, SIGINT/SIGTERM trigger one final snapshot
plus a manifest sealed with status ``interrupted`` (exit code 130), and
``repro resume DIR`` continues the run from where it stopped.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.config import VARIANTS, ci_scale_config, recorded_observation_mode
from repro.version import __version__


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--log-dir",
        default=None,
        help="write telemetry (manifest.json/events.jsonl/metrics.csv) here",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="with --log-dir: snapshot full training state every N "
        "episodes (sequential trainers) or env steps (vector trainers); "
        "0 keeps only completion/shutdown snapshots",
    )


def _add_trainer(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trainer",
        default="sync",
        choices=["sync", "actor-learner"],
        help="training runtime (actor-learner = N actor processes "
        "feeding a shared-memory replay through lock-free rings; see "
        "docs/PARALLELISM.md, 'Actor/learner architecture')",
    )
    p.add_argument(
        "--num-actors",
        type=int,
        default=2,
        metavar="N",
        help="actor processes for --trainer actor-learner",
    )


def _add_scoring_method(p: argparse.ArgumentParser) -> None:
    from repro.scoring.scorers import SCORING_METHODS

    p.add_argument(
        "--scoring-method",
        default="exact",
        choices=SCORING_METHODS,
        help="pose-scoring kernel (incremental = Verlet-list scorer, "
        "field = hybrid precomputed-field scorer; see "
        "docs/PERFORMANCE.md, 'Scoring kernels')",
    )


def _open_telemetry(args, command: str, config=None):
    """A TelemetryRun for ``--log-dir`` (None when the flag is absent).

    The manifest's ``extra`` records the full CLI argument vector so
    ``repro resume`` can rebuild the invocation; ``resume`` itself
    threads lineage through the private ``_parent_run_id`` /
    ``_resume_step`` namespace attributes.
    """
    if not args.log_dir:
        return None
    from repro.telemetry import TelemetryRun

    cli_args = {
        k: v for k, v in vars(args).items() if not k.startswith("_")
    }
    return TelemetryRun(
        args.log_dir,
        command=command,
        seed=args.seed,
        config=config,
        parent_run_id=args._parent_run_id,
        resume_step=args._resume_step,
        extra={"cli_args": cli_args},
    )


def _telemetered(args, command: str, config, work) -> int:
    """Run ``work(telemetry, runtime)`` under an optional telemetry run.

    ``work`` returns ``(exit_code, summary_text)``.  With ``--log-dir``
    set, the manifest brackets the work, a ``result`` event records the
    summary, and a crash finalizes the manifest with status ``failed``
    before re-raising -- so every invocation leaves an inspectable
    record.  ``figure4`` additionally threads per-step telemetry
    through the trainer (see :func:`_cmd_figure4`).

    ``--log-dir`` also attaches the checkpointing runtime: a
    :class:`~repro.runtime.loop.RuntimeContext` rooted in the run dir
    plus a :class:`~repro.runtime.signals.ShutdownGuard` so
    SIGINT/SIGTERM stop the run at a safe boundary.  An interrupted run
    seals its manifest with status ``interrupted`` and exits 130; see
    ``repro resume``.
    """
    telemetry = _open_telemetry(args, command, config)
    if telemetry is None:
        code, _ = work(None, None)
        return code
    from repro.runtime import (
        INTERRUPT_EXIT_CODE,
        RunInterrupted,
        RuntimeContext,
        ShutdownGuard,
    )

    guard = ShutdownGuard()
    runtime = RuntimeContext(
        telemetry.dir,
        checkpoint_every=args.checkpoint_every,
        guard=guard,
        telemetry=telemetry,
    )
    try:
        with guard:
            code, summary = work(telemetry, runtime)
        telemetry.emit("result", ok=code == 0, summary=summary)
    except RunInterrupted as exc:
        telemetry.emit(
            "interrupted",
            phase=exc.phase,
            checkpoint=str(exc.checkpoint_path or ""),
        )
        telemetry.finalize("interrupted")
        print(
            f"[runtime] interrupted during {exc.phase!r}; "
            f"resume with: repro resume {telemetry.dir}",
            file=sys.stderr,
        )
        return INTERRUPT_EXIT_CODE
    except BaseException:
        telemetry.finalize("failed")
        raise
    telemetry.finalize("completed")
    print(f"[telemetry] wrote {telemetry.dir}")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DQN-Docking reproduction (ICPP 2018)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    # Lineage of a run continued by ``repro resume``, which sets both.
    parser.set_defaults(_parent_run_id=None, _resume_step=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="print the Table 1 hyperparameters")

    p = sub.add_parser("geometry", help="build and report the complex")
    _add_common(p)
    p.add_argument("--receptor-atoms", type=int, default=300)
    p.add_argument("--ligand-atoms", type=int, default=14)

    p = sub.add_parser("figure4", help="train and plot the Figure 4 curve")
    _add_common(p)
    p.add_argument("--episodes", type=int, default=60)
    p.add_argument("--max-steps", type=int, default=60)
    p.add_argument("--variant", default="dqn", choices=VARIANTS)
    p.add_argument("--learning-rate", type=float, default=0.002)
    p.add_argument(
        "--observation-mode",
        default="raw",
        choices=["raw", "compact", "descriptor"],
        help="observation codec the env emits (compact = float32 "
        "ligand tail, receptor block stored once, see "
        "docs/PERFORMANCE.md; descriptor = pocket-relative ligand "
        "features, ~60x smaller Q input, see docs/OBSERVATIONS.md)",
    )
    _add_trainer(p)
    _add_scoring_method(p)

    p = sub.add_parser("baselines", help="DQN vs MC vs metaheuristics")
    _add_common(p)
    p.add_argument("--budget", type=int, default=1200)

    p = sub.add_parser("comm-ablation", help="RAM vs file channel timing")
    _add_common(p)
    p.add_argument("--steps", type=int, default=200)

    p = sub.add_parser("screen", help="virtual-screen a ligand library")
    _add_common(p)
    p.add_argument("--ligands", type=int, default=6)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument(
        "--strategy",
        default="scatter",
        choices=["ga", "local", "random", "scatter", "montecarlo", "policy"],
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >=2 fans shards over a pool "
        "(ranking is bitwise identical either way)",
    )
    p.add_argument(
        "--shard-size",
        type=int,
        default=4,
        help="ligands per shard (policy mode: the inference batch size)",
    )
    p.add_argument(
        "--top-k", type=int, default=None, help="print only the best K hits"
    )
    p.add_argument(
        "--policy",
        default=None,
        help="trained Q-net checkpoint for --strategy policy "
        "(a run --log-dir, a runtime .npz, or a save_network .npz)",
    )
    p.add_argument(
        "--policy-max-steps",
        type=int,
        default=120,
        help="greedy-rollout step cap per ligand in policy mode",
    )
    _add_scoring_method(p)

    p = sub.add_parser("blind", help="blind docking over surface spots")
    _add_common(p)
    p.add_argument("--spots", type=int, default=12)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser(
        "report", help="run the full suite and emit EXPERIMENTS.md content"
    )
    p.add_argument("--full", action="store_true", help="larger budgets")
    p.add_argument("--output", default=None, help="write to file")

    p = sub.add_parser(
        "reward-ablation", help="compare reward schemes (Section 3 design)"
    )
    _add_common(p)
    p.add_argument("--episodes", type=int, default=25)
    p.add_argument(
        "--schemes",
        nargs="+",
        default=["sign", "clipped", "scaled", "potential"],
        choices=["sign", "clipped", "scaled", "potential"],
    )

    p = sub.add_parser(
        "sweep", help="sweep one config knob (e.g. target_update_steps)"
    )
    _add_common(p)
    p.add_argument("parameter", help="DQNDockingConfig field to sweep")
    p.add_argument(
        "values", nargs="+", help="values (parsed as float/int when numeric)"
    )
    p.add_argument("--episodes", type=int, default=15)

    p = sub.add_parser(
        "curriculum",
        help="multi-complex curriculum over a vector env",
    )
    _add_common(p)
    p.add_argument("--complexes", type=int, default=3)
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--eval-episodes", type=int, default=2)
    p.add_argument(
        "--trainer",
        default="sync",
        choices=["sync", "actor-learner"],
        help="curriculum-phase runtime (actor-learner = one actor "
        "process per training complex; the single-complex baseline "
        "always runs in-process)",
    )
    _add_scoring_method(p)

    p = sub.add_parser(
        "inspect", help="summarize a telemetry run directory"
    )
    p.add_argument("run_dir", help="directory written via --log-dir")

    p = sub.add_parser(
        "resume",
        help="continue an interrupted run from its --log-dir directory",
    )
    p.add_argument("run_dir", help="directory of the interrupted run")
    return parser


def _cmd_table1(_args) -> int:
    from repro.experiments.table1 import render_table1, verify_paper_defaults

    print(render_table1())
    problems = verify_paper_defaults()
    if problems:  # pragma: no cover - defaults are tested to match
        print("\nWARNING: defaults deviate from the paper:")
        for line in problems:
            print("  " + line)
        return 1
    print("\nAll defaults match the published Table 1.")
    return 0


def _cmd_geometry(args) -> int:
    from repro.config import ComplexConfig
    from repro.experiments.geometry import run_geometry_experiment

    cfg = ComplexConfig(
        receptor_atoms=args.receptor_atoms,
        ligand_atoms=args.ligand_atoms,
        receptor_radius=max(9.0, args.receptor_atoms ** (1 / 3) * 1.65),
        pocket_depth=4.0,
        initial_offset=8.0,
        rotatable_bonds=2,
        seed=args.seed + 2018,
    )

    def work(_telemetry, _runtime):
        report = run_geometry_experiment(cfg)
        text = report.summary()
        print(text)
        ok = report.pocket_is_optimum and report.overlap_is_catastrophic
        return (0 if ok else 1), text

    return _telemetered(args, "geometry", cfg, work)


def _cmd_figure4(args) -> int:
    from repro.experiments.figure4 import run_figure4_experiment

    try:
        cfg = ci_scale_config(
            episodes=args.episodes,
            seed=args.seed,
            max_steps=args.max_steps,
            learning_rate=args.learning_rate,
            variant=args.variant,
            scoring_method=args.scoring_method,
            observation_mode=args.observation_mode,
            trainer=args.trainer,
            num_actors=args.num_actors,
        )
    except ValueError as exc:
        print(f"figure4: {exc}", file=sys.stderr)
        return 2

    def work(telemetry, runtime):
        result = run_figure4_experiment(
            cfg, telemetry=telemetry, runtime=runtime
        )
        text = result.summary()
        print(text)
        return 0, text

    return _telemetered(args, "figure4", cfg, work)


def _cmd_baselines(args) -> int:
    from repro.experiments.baselines import run_baseline_comparison

    cfg = ci_scale_config(episodes=40, seed=args.seed, learning_rate=0.002)

    def work(_telemetry, runtime):
        comp = run_baseline_comparison(
            cfg, budget=args.budget, runtime=runtime
        )
        text = comp.summary()
        print(text)
        return 0, text

    return _telemetered(args, "baselines", cfg, work)


def _cmd_comm_ablation(args) -> int:
    from repro.experiments.ablations import run_comm_ablation

    cfg = ci_scale_config(episodes=4, seed=args.seed)

    def work(_telemetry, _runtime):
        text = run_comm_ablation(cfg, steps=args.steps).summary()
        print(text)
        return 0, text

    return _telemetered(args, "comm-ablation", cfg, work)


def _cmd_screen(args) -> int:
    from repro.chem.builders import build_complex
    from repro.metadock.library import generate_library
    from repro.screening import (
        PolicyLoadError,
        ScreeningConfig,
        run_screening,
    )

    cfg = ci_scale_config(episodes=1, seed=args.seed).complex
    try:
        screen_cfg = ScreeningConfig(
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
            workers=args.workers,
            shard_size=args.shard_size,
            top_k=args.top_k,
            scoring_method=args.scoring_method,
            policy_path=args.policy,
            policy_max_steps=args.policy_max_steps,
        )
    except ValueError as exc:
        print(f"repro screen: {exc}", file=sys.stderr)
        return 2

    def work(telemetry, runtime):
        built = build_complex(cfg)
        library_kwargs = {}
        if screen_cfg.strategy == "policy":
            # The Q-net is sized for the training complex: cap library
            # compounds at the base ligand size so every state fits the
            # checkpoint's input dim (smaller ligands zero-pad).
            library_kwargs["max_atoms"] = cfg.ligand_atoms
        library = generate_library(
            cfg, args.ligands, seed=args.seed, **library_kwargs
        )
        result = run_screening(
            built,
            library,
            screen_cfg,
            telemetry=telemetry,
            runtime=runtime,
        )
        text = result.summary()
        print(text)
        return 0, text

    try:
        return _telemetered(args, "screen", cfg, work)
    except PolicyLoadError as exc:
        print(f"repro screen: {exc}", file=sys.stderr)
        return 2


def _cmd_blind(args) -> int:
    from repro.chem.builders import build_complex
    from repro.metadock.blind import blind_dock

    cfg = ci_scale_config(episodes=1, seed=args.seed).complex

    def work(_telemetry, _runtime):
        built = build_complex(cfg)
        result = blind_dock(
            built,
            n_spots=args.spots,
            budget_per_spot=args.budget,
            seed=args.seed,
            n_workers=args.workers,
        )
        text = (
            result.summary()
            + f"\n\nbest site is {result.best.pocket_distance:.1f} A from "
            f"the true pocket center"
        )
        print(text)
        return 0, text

    return _telemetered(args, "blind", cfg, work)


def _cmd_curriculum(args) -> int:
    from repro.experiments.curriculum import run_curriculum_experiment

    cfg = ci_scale_config(
        episodes=args.episodes,
        seed=args.seed,
        learning_rate=0.002,
        scoring_method=args.scoring_method,
        trainer=args.trainer,
        # One actor per training complex; keeps config validation happy
        # and makes the broadcast alignment explicit in the manifest.
        num_actors=max(1, args.complexes),
    )

    def work(telemetry, runtime):
        result = run_curriculum_experiment(
            cfg,
            n_train_complexes=args.complexes,
            eval_episodes=args.eval_episodes,
            telemetry=telemetry,
            runtime=runtime,
        )
        text = result.summary()
        print(text)
        return 0, text

    return _telemetered(args, "curriculum", cfg, work)


def _cmd_reward_ablation(args) -> int:
    from repro.experiments.reward_ablation import run_reward_ablation

    cfg = ci_scale_config(
        episodes=args.episodes, seed=args.seed, learning_rate=0.002
    )

    def work(_telemetry, runtime):
        result = run_reward_ablation(
            cfg, schemes=tuple(args.schemes), runtime=runtime
        )
        text = result.summary()
        print(text)
        return 0, text

    return _telemetered(args, "reward-ablation", cfg, work)


def _parse_value(text: str):
    """CLI sweep values: int if possible, else float, else string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _cmd_sweep(args) -> int:
    from repro.experiments.sweep import run_sweep

    cfg = ci_scale_config(
        episodes=args.episodes, seed=args.seed, learning_rate=0.002
    )
    values = [_parse_value(v) for v in args.values]

    def work(_telemetry, runtime):
        result = run_sweep(cfg, args.parameter, values, runtime=runtime)
        text = (
            result.summary()
            + f"\n\nbest setting: {args.parameter} = {result.best_setting()}"
        )
        print(text)
        return 0, text

    return _telemetered(args, "sweep", cfg, work)


def _cmd_report(args) -> int:
    from repro.experiments.reporting import generate_report

    text = generate_report(quick=not args.full)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_inspect(args) -> int:
    from repro.telemetry.summary import render_summary

    try:
        print(render_summary(args.run_dir))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _command_defaults(command: str) -> dict:
    """What ``command``'s parser fills in for every flag left out."""
    (sub,) = (
        a.choices[command] for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        a.dest: sub.get_default(a.dest)
        for a in sub._actions if a.default is not argparse.SUPPRESS
    }


def _cmd_resume(args) -> int:
    """Re-dispatch an interrupted run from its recorded CLI arguments.

    The run directory's manifest stores the original argument vector
    (``extra.cli_args``); we rebuild the namespace, point ``--log-dir``
    back at the same directory (checkpoints and result memos live
    there), and re-run the original command.  Flags the manifest lacks
    (runs recorded before the flag existed) take the parser's own
    defaults, so every command reads ``args`` directly.  The new
    manifest records lineage: ``parent_run_id`` is the interrupted
    run's id and ``resume_step`` the global step of the newest
    checkpoint.
    """
    import json
    from pathlib import Path

    from repro.runtime import (
        CHECKPOINT_DIR_NAME,
        CheckpointReadError,
        latest_checkpoint,
        read_meta,
    )
    from repro.telemetry.manifest import MANIFEST_NAME

    run_dir = Path(args.run_dir)
    manifest_path = run_dir / MANIFEST_NAME
    if not manifest_path.exists():
        print(f"error: no {MANIFEST_NAME} under {run_dir}", file=sys.stderr)
        return 1
    manifest = json.loads(manifest_path.read_text())
    cli_args = (manifest.get("extra") or {}).get("cli_args") or {}
    command = cli_args.get("command")
    if command not in _COMMANDS or command == "resume":
        print(
            f"error: manifest records no resumable command "
            f"(got {command!r}); was the run started via the repro CLI "
            "with --log-dir?",
            file=sys.stderr,
        )
        return 1
    resume_step = None
    latest = latest_checkpoint(run_dir / CHECKPOINT_DIR_NAME)
    if latest is not None:
        try:
            resume_step = read_meta(latest).get("global_step")
        except CheckpointReadError as exc:
            print(f"warning: {exc}", file=sys.stderr)
    ns = argparse.Namespace(**{**_command_defaults(command), **cli_args})
    if "observation_mode" in cli_args:
        # Runs started with the removed --compact-states flag recorded
        # it next to observation_mode="raw".
        ns.observation_mode = recorded_observation_mode(cli_args)
    ns.log_dir = str(run_dir)
    ns._parent_run_id = manifest.get("run_id")
    ns._resume_step = resume_step
    at = f" (global step {resume_step})" if resume_step is not None else ""
    print(f"[runtime] resuming {command!r} in {run_dir}{at}")
    return _COMMANDS[command](ns)


_COMMANDS = {
    "table1": _cmd_table1,
    "geometry": _cmd_geometry,
    "figure4": _cmd_figure4,
    "baselines": _cmd_baselines,
    "comm-ablation": _cmd_comm_ablation,
    "screen": _cmd_screen,
    "blind": _cmd_blind,
    "curriculum": _cmd_curriculum,
    "report": _cmd_report,
    "reward-ablation": _cmd_reward_ablation,
    "sweep": _cmd_sweep,
    "inspect": _cmd_inspect,
    "resume": _cmd_resume,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
