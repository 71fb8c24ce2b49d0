"""The four closed-loop, single-client workloads of the e2e benchmark.

Each workload is a small object with the same life cycle::

    setup()  ->  warmup()  ->  run(units)  [-> gate()]  [-> traced(units)]  ->  close()

``run`` executes a *fixed* amount of work (``units`` episodes, segments
or ligands), so the same seed always produces the same
:meth:`Workload.digest`.  How many units one ``--seconds`` buys comes
from :data:`PLANS`: the rate each workload sustains on the baseline box
(README, "Baseline") times the requested seconds.

Why these four, and which layer each one loads, is recorded in
``README.md`` and in ``BENCHMARK.json``'s ``why`` lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

import repro.scoring.scorers as scorers_mod
import repro.screening.driver as driver_mod
from repro.chem.builders import build_complex
from repro.config import ComplexConfig, DQNDockingConfig, ci_scale_config
from repro.env.comm import TransitionRing
from repro.env.docking_env import DockingEnv
from repro.env.factory import make_env
from repro.env.observation import CompactCodec, DescriptorCodec
from repro.experiments.figure4 import build_agent_for_env
from repro.metadock.engine import MetadockEngine
from repro.metadock.library import generate_library
from repro.metadock.metaheuristic import MetaheuristicSchema
from repro.metadock.strategies import STRATEGY_PRESETS
from repro.nn.network import MLP
from repro.nn.optimizers import Optimizer
from repro.rl.agent import DQNAgent
from repro.rl.distributed.trainer import METRIC_PREFIX, ActorLearnerTrainer
from repro.rl.distributed.weights import SharedWeightBlock
from repro.rl.replay import ReplayMemory
from repro.rl.trainer import Trainer
from repro.scoring.field import FIELD_CALM_STEP_BOUND, FieldScorer
from repro.scoring.incremental import IncrementalScorer
from repro.scoring.scorers import ExactScorer
from repro.screening.plan import ranking_key
from repro.telemetry.metrics import MetricsRegistry

from measure import Calibrator, digest
from spans import PatchPoint, SpanRecorder

WORKLOADS = ("train_paper", "train_fast", "train_actors", "screen_search")

#: |score| below which a pose counts as "calm" for the field-drift gate
#: (the regime FIELD_CALM_STEP_BOUND is documented for).
CALM_SCORE = 1e4

#: Reward-sign agreement floor of the field-vs-exact gate.
SIGN_AGREEMENT_FLOOR = 0.90

#: Calibration passes (~20 ms each) per segment boundary; the median
#: of them is the boundary's machine speed.
CALIBRATION_SAMPLES = 3


@dataclass(frozen=True)
class Plan:
    """How ``--seconds`` maps onto fixed work for one workload."""

    #: Ops per unit: steps per episode (T), transitions per segment, or
    #: 1 ligand.
    unit: int
    #: Ops per second this workload sustains on the baseline box.
    rate: float
    #: Units run and discarded before the timed run.
    warm_units: int
    min_units: int

    def units(self, seconds: float) -> int:
        return max(self.min_units, round(seconds * self.rate / self.unit))


#: Steps per episode (T).  The issue sized T=250 for ~30 s windows; the
#: run-time cap leaves ~6 s, and an episode is the only segment
#: ``Trainer`` exposes, so T shrinks with the window to keep >= 5
#: segments per run.  The walk then stays within ~5 A of Figure 3's
#: pose A, the regime every training episode starts in.
EPISODE_STEPS = {"full": 50, "smoke": 20}

#: ``rate`` is the baseline box's measured throughput, so that
#: ``--seconds S`` measures for about S seconds there.  Smoke plans
#: ignore ``--seconds`` (rate 0 -> ``min_units``).
PLANS = {
    "full": {
        "train_paper": Plan(EPISODE_STEPS["full"], 45.0, warm_units=5, min_units=2),
        "train_fast": Plan(EPISODE_STEPS["full"], 142.0, warm_units=5, min_units=2),
        # One segment = 10 actor episodes.
        "train_actors": Plan(500, 620.0, warm_units=1, min_units=2),
        "screen_search": Plan(1, 1.2, warm_units=2, min_units=2),
    },
    "smoke": {
        "train_paper": Plan(EPISODE_STEPS["smoke"], 0.0, warm_units=3, min_units=3),
        "train_fast": Plan(EPISODE_STEPS["smoke"], 0.0, warm_units=3, min_units=3),
        "train_actors": Plan(40, 0.0, warm_units=2, min_units=3),
        "screen_search": Plan(1, 0.0, warm_units=2, min_units=4),
    },
}


@dataclass
class Measured:
    """One run's outcome (timed or traced)."""

    ops: int
    #: Seconds spent on the work itself (calibration pauses excluded).
    wall_s: float
    #: (ops, seconds, machine speed) per episode / segment; the single
    #: ``run_screening`` call of ``screen_search`` is one segment.
    segments: list = field(default_factory=list)
    failed: int = 0
    #: Workload-specific record the digest and gate read.
    detail: object = None


def _run_config(scale: str, seed: int, max_steps: int, **kw) -> DQNDockingConfig:
    """Table 1 at 2BSM scale (or the CI-scale stand-in for smoke).

    ``learning_start = initial_exploration_steps = 200`` so the timed
    window is in the paper's early regime: learning active, epsilon ~ 1.
    The complex is the fixed ``ComplexConfig()`` stand-in for 2BSM;
    ``seed`` drives the network initialisation, the epsilon-greedy
    stream and replay sampling (README, "Seeds").
    """
    if scale == "smoke":
        return ci_scale_config(
            seed=seed,
            max_steps=max_steps,
            learning_start=max_steps,
            initial_exploration_steps=max_steps,
            **kw,
        )
    return DQNDockingConfig(
        max_steps_per_episode=max_steps,
        learning_start=200,
        initial_exploration_steps=200,
        seed=seed,
        complex=ComplexConfig(),
        **kw,
    )


def _all_finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _training_digest(episodes, agent) -> str:
    """Per-episode outcomes plus the final Q-network parameters."""
    rows = [(e.steps, e.total_reward, e.termination) for e in episodes]
    return digest(rows, agent.q_net.params())


def _params_finite(agent) -> bool:
    return all(bool(np.isfinite(p).all()) for p in agent.q_net.params())


class Workload:
    """Life cycle shared by the four workloads (see module docstring)."""

    #: The op the end-to-end rate counts ("steps" or "ligands").
    op = "steps"

    def __init__(self, name: str, scale: str, seed: int, seconds: float):
        self.seed = int(seed)
        self.plan = PLANS[scale][name]
        self.units = self.plan.units(seconds)
        #: Facts gathered outside spans: setup times, byte counts.
        self.facts: dict[str, float] = {}
        self._calibrator = Calibrator()

    def machine_speed(self) -> float:
        """Sampled at every segment boundary (see measure.Calibrator)."""
        return self._calibrator.speed(CALIBRATION_SAMPLES)

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, units: int) -> Measured:
        raise NotImplementedError

    def digest(self, measured: Measured) -> str:
        raise NotImplementedError

    def gate(self, measured: Measured) -> list[str]:
        raise NotImplementedError

    def traced(self, units: int) -> tuple[Measured, SpanRecorder]:
        """``run`` again on the same objects under timing proxies."""
        rec = SpanRecorder()
        cpu0, wall0 = process_time(), perf_counter()
        with rec.installed(patch_points(self)), rec.span("bench.traced_run"):
            measured = self.run(units)
        self.facts["bench.parent_cpu_frac"] = (process_time() - cpu0) / (
            perf_counter() - wall0
        )
        return measured, rec

    def close(self) -> None:
        """Release processes and large arrays (idempotent)."""


# -- sequential Trainer: train_paper, train_fast ----------------------------


class SequentialTraining(Workload):
    """``Trainer`` over ``make_env`` + ``build_agent_for_env``."""

    def __init__(self, name, scale, seed, seconds, *, observation_mode,
                 scoring_method, field_gate_pairs=0):
        super().__init__(name, scale, seed, seconds)
        self.cfg = _run_config(
            scale,
            seed,
            self.plan.unit,
            observation_mode=observation_mode,
            scoring_method=scoring_method,
        )
        self.field_gate_pairs = field_gate_pairs
        self.env = self.agent = self.trainer = self.history = None
        #: (ended, stats, speed, resumed) per timed episode; None while
        #: nothing is being timed.
        self._marks: list | None = None

    def setup(self) -> None:
        cfg = self.cfg
        t0 = perf_counter()
        built = build_complex(cfg.complex)
        t1 = perf_counter()
        self.env = make_env(cfg, built)
        # First score: lazy scorer state (field maps, exact tables,
        # Verlet list) is built here, not in the timed run.
        self.env.reset()
        t2 = perf_counter()
        self.agent = build_agent_for_env(cfg, self.env)
        self.trainer = Trainer(
            self.env,
            self.agent,
            episodes=self.plan.warm_units,
            max_steps_per_episode=cfg.max_steps_per_episode,
            learning_start=cfg.learning_start,
            target_update_steps=cfg.target_update_steps,
            train_interval=cfg.train_interval,
            on_episode_end=self._mark,
        )
        scorer = self.env.engine.scorer
        self.facts.update({
            "chem.build_complex_s": t1 - t0,
            "scoring.setup_s": t2 - t1,
            "scoring.map_bytes": float(
                scorer.maps.nbytes() if isinstance(scorer, FieldScorer) else 0
            ),
            "rl.replay_bytes": float(self.agent.replay.nbytes()),
        })

    def _mark(self, stats) -> None:
        if self._marks is None:  # warm-up: nothing is timed
            return
        ended = perf_counter()
        speed = self.machine_speed()
        self._marks.append((ended, stats, speed, perf_counter()))

    def warmup(self) -> None:
        self.history = self.trainer.run()

    def run(self, units: int) -> Measured:
        history = self.history
        first = len(history.episodes)
        step0, learn0 = history.total_steps, self.agent.learn_steps
        self.trainer.episodes = first + units
        self._marks = []
        prev_speed = self.machine_speed()
        prev = perf_counter()
        self.trainer.run(
            start_episode=first, global_step=step0, history=history
        )
        episodes = history.episodes[first:]
        segments = []
        for ended, stats, speed, resumed in self._marks:
            segments.append(
                (stats.steps, ended - prev, (prev_speed + speed) / 2)
            )
            prev, prev_speed = resumed, speed
        self._marks = None
        failed = sum(
            e.steps
            for e in episodes
            if not _all_finite(
                e.total_reward, e.best_score, e.final_score, e.mean_loss
            )
        )
        return Measured(
            ops=history.total_steps - step0,
            wall_s=sum(sec for _, sec, _ in segments),
            segments=segments,
            failed=failed,
            detail={
                "episodes": episodes,
                "planned_episodes": units,
                "learn_steps": self.agent.learn_steps - learn0,
            },
        )

    def digest(self, measured: Measured) -> str:
        return _training_digest(measured.detail["episodes"], self.agent)

    def gate(self, measured: Measured) -> list[str]:
        d = measured.detail
        episodes = d["episodes"]
        cap = self.cfg.max_steps_per_episode
        bad = []
        if len(episodes) != d["planned_episodes"]:
            bad.append(
                f"ran {len(episodes)} episodes, planned {d['planned_episodes']}"
            )
        if sum(e.steps for e in episodes) != measured.ops:
            bad.append("episode steps do not add up to the step counter")
        for e in episodes:
            if e.steps > cap or (e.steps < cap and e.termination == "time-limit"):
                bad.append(f"episode {e.episode}: {e.steps} steps, {e.termination}")
        if d["learn_steps"] != measured.ops:
            bad.append(
                f"{d['learn_steps']} learn steps for {measured.ops} env steps "
                "(learning must be active in the timed window)"
            )
        if measured.failed:
            bad.append(f"{measured.failed} steps in episodes with non-finite stats")
        if not _params_finite(self.agent):
            bad.append("non-finite Q-network parameters")
        if self.field_gate_pairs:
            bad.extend(self._field_gate(self.field_gate_pairs))
        return bad

    def _field_gate(self, pairs: int) -> list[str]:
        """Field-vs-exact drift on a seeded random walk from pose A.

        The timed run exposes no per-step poses without hooks, so the
        gate walks the same env in the same regime (uniform random
        actions, which is what epsilon ~ 1 executes) and re-scores each
        consecutive pose pair with the Eq. 1 oracle.
        """
        env, engine = self.env, self.env.engine
        rng = np.random.default_rng(self.seed)
        coords, s_field, starts = [], [], []
        env.reset()
        starts.append(0)
        coords.append(engine.ligand_coords().copy())
        s_field.append(env.current_score())
        n_pairs = 0
        while n_pairs < pairs:
            _, _, done, info = env.step(int(rng.integers(env.n_actions)))
            coords.append(engine.ligand_coords().copy())
            s_field.append(info["score"])
            n_pairs += 1
            if done and n_pairs < pairs:
                env.reset()
                starts.append(len(coords))
                coords.append(engine.ligand_coords().copy())
                s_field.append(env.current_score())
        exact = ExactScorer(engine.receptor, engine.template)
        s_exact = np.array([exact.score(c) for c in coords])
        s_field = np.asarray(s_field)
        keep = np.ones(len(coords) - 1, dtype=bool)
        for s in starts[1:]:
            keep[s - 1] = False  # the pair straddling a reset
        d_field = np.diff(s_field)[keep]
        d_exact = np.diff(s_exact)[keep]
        calm = (
            (np.abs(s_exact[:-1]) < CALM_SCORE)
            & (np.abs(s_exact[1:]) < CALM_SCORE)
        )[keep]
        drift = np.abs(d_field - d_exact)
        calm_drift = float(drift[calm].max()) if calm.any() else 0.0
        agreement = float((np.sign(d_field) == np.sign(d_exact)).mean())
        self.facts["gate.field_calm_step_drift"] = calm_drift
        self.facts["gate.field_sign_agreement"] = agreement
        self.facts["gate.field_pairs"] = float(keep.sum())
        bad = []
        if calm_drift > FIELD_CALM_STEP_BOUND:
            bad.append(
                f"field calm-regime step drift {calm_drift:.3f} > "
                f"{FIELD_CALM_STEP_BOUND}"
            )
        if agreement < SIGN_AGREEMENT_FLOOR:
            bad.append(
                f"field reward-sign agreement {agreement:.3f} < "
                f"{SIGN_AGREEMENT_FLOOR}"
            )
        return bad

    def close(self) -> None:
        if self.env is not None:
            self.env.close()
        self.env = self.agent = self.trainer = self.history = None


# -- actor/learner: train_actors --------------------------------------------


class ActorLearnerTraining(Workload):
    """``ActorLearnerTrainer`` with one actor process plus the learner."""

    def __init__(self, name, scale, seed, seconds):
        super().__init__(name, scale, seed, seconds)
        sync_every = 50 if scale == "full" else 10
        self.cfg = _run_config(
            scale,
            seed,
            EPISODE_STEPS[scale],
            observation_mode="descriptor",
            scoring_method="incremental",
            trainer="actor-learner",
            num_actors=1,
            actor_sync_every=sync_every,
            actor_ring_capacity=256,
        )
        #: Transitions the set-up segment consumes (spawns the actor and
        #: takes its first scores); one weight-broadcast period.
        self.first = sync_every
        self.built = self.agent = self.trainer = None
        self.consumed = 0

    def _start(self, metrics) -> None:
        """Build agent + trainer, spawn the actor, take the first scores."""
        cfg, built = self.cfg, self.built
        t0 = perf_counter()
        # Probed once in the parent for the codec geometry the agent and
        # the ring must match; the actor builds its own env.
        probe = make_env(cfg, built)
        try:
            self.agent = build_agent_for_env(cfg, probe)
            self.trainer = ActorLearnerTrainer(
                [lambda: make_env(cfg, built)],
                self.agent,
                state_dim=int(probe.state_dim),
                state_dtype=probe.state_dtype,
                sync_every=cfg.actor_sync_every,
                ring_capacity=cfg.actor_ring_capacity,
                max_steps_per_episode=cfg.max_steps_per_episode,
                learning_start=cfg.learning_start,
                target_update_steps=cfg.target_update_steps,
                train_interval=cfg.train_interval,
                observation_spec=probe.observation_spec,
                metrics=metrics,
                seed=cfg.seed,
            )
        finally:
            probe.close()
        self.trainer.run(self.first)
        self.consumed = self.first
        self.facts["scoring.setup_s"] = perf_counter() - t0
        self.facts["rl.replay_bytes"] = float(self.agent.replay.nbytes())

    def setup(self) -> None:
        t0 = perf_counter()
        self.built = build_complex(self.cfg.complex)
        self.facts["chem.build_complex_s"] = perf_counter() - t0
        self._start(None)

    def warmup(self) -> None:
        target = self.plan.warm_units * self.plan.unit
        self.trainer.run(target, start_step=self.consumed)
        self.consumed = target

    def run(self, units: int) -> Measured:
        trainer, seg = self.trainer, self.plan.unit
        first_ep = len(trainer.history.episodes)
        learn0 = self.agent.learn_steps
        start = self.consumed
        segments = []
        prev_speed = self.machine_speed()
        for _ in range(units):
            s0 = perf_counter()
            trainer.run(self.consumed + seg, start_step=self.consumed)
            seconds = perf_counter() - s0
            # The actor is parked between segments: the machine is
            # sampled with one busy process, like everywhere else.
            speed = self.machine_speed()
            segments.append((seg, seconds, (prev_speed + speed) / 2))
            prev_speed = speed
            self.consumed += seg
        episodes = trainer.history.episodes[first_ep:]
        # mean_loss is NaN by design here (the learner does not surface
        # per-step losses); non-finite learning shows in the parameters.
        failed = sum(
            e.steps
            for e in episodes
            if not _all_finite(e.total_reward, e.best_score, e.final_score)
        )
        return Measured(
            ops=self.consumed - start,
            wall_s=sum(sec for _, sec, _ in segments),
            segments=segments,
            failed=failed,
            detail={
                "episodes": episodes,
                "planned_steps": units * seg,
                "total_steps": trainer.history.total_steps,
                "learn_steps": self.agent.learn_steps - learn0,
            },
        )

    def digest(self, measured: Measured) -> str:
        return _training_digest(measured.detail["episodes"], self.agent)

    def gate(self, measured: Measured) -> list[str]:
        d = measured.detail
        bad = []
        if measured.ops != d["planned_steps"]:
            bad.append(f"consumed {measured.ops}, planned {d['planned_steps']}")
        if sum(e.steps for e in d["episodes"]) != measured.ops:
            bad.append("episode steps do not add up to the consumed count")
        if d["total_steps"] != self.consumed:
            bad.append("trainer step counter disagrees with the plan")
        if d["learn_steps"] != measured.ops:
            bad.append(
                f"{d['learn_steps']} learn steps for {measured.ops} transitions"
            )
        if measured.failed:
            bad.append(f"{measured.failed} steps in episodes with non-finite stats")
        if not _params_finite(self.agent):
            bad.append("non-finite Q-network parameters")
        return bad

    def traced(self, units: int):
        # The registry must be given at construction, so the traced run
        # is a second trainer (same seed, same trajectory) with one.
        self.close()
        registry = MetricsRegistry()
        self._start(registry)
        self.warmup()
        measured, rec = super().traced(units)
        gauge = lambda key: _gauge(registry, f"{METRIC_PREFIX}/{key}")
        staleness = registry.get(f"{METRIC_PREFIX}/weight-staleness-steps")
        self.facts.update({
            "env.ring_full_waits": gauge("ring-full-waits-actor0"),
            "rl.learner_idle_frac": gauge("learner-idle-fraction"),
            "rl.actor_steps_per_s": gauge("transitions-per-second-actor0"),
            "rl.weight_staleness_mean": (
                float(staleness.mean) if staleness is not None else 0.0
            ),
        })
        return measured, rec

    def close(self) -> None:
        if self.trainer is not None:
            self.trainer.close()
        self.agent = self.trainer = None


def _gauge(registry: MetricsRegistry, name: str) -> float:
    metric = registry.get(name)
    return float(metric.value) if metric is not None else 0.0


# -- metaheuristic screening: screen_search ---------------------------------


class ScreenSearch(Workload):
    """One ``run_screening`` call over a seeded ligand library."""

    op = "ligands"

    def __init__(self, name, scale, seed, seconds):
        super().__init__(name, scale, seed, seconds)
        if scale == "full":
            self.complex_cfg = ComplexConfig()
            budget = 400
        else:
            self.complex_cfg = ci_scale_config(seed=seed).complex
            budget = 64
        self.config = driver_mod.ScreeningConfig(
            strategy="scatter",
            budget=budget,
            seed=seed,
            workers=1,
            shard_size=2,
            scoring_method="incremental",
        )
        self.expected_evaluations = expected_evaluations(
            STRATEGY_PRESETS["scatter"](budget)
        )
        self.built = self.library = self.warm_library = None

    def _library(self, n: int, seed: int):
        # Every ligand has the 2BSM ligand's atom count; the seed varies
        # topology and charges.  With the default 60-140 % size range a
        # handful of ligands per run made ligands/min track the sampled
        # sizes (README, "Seeds").
        m = self.complex_cfg.ligand_atoms
        return generate_library(
            self.complex_cfg, n, seed=seed, min_atoms=m, max_atoms=m
        )

    def setup(self) -> None:
        t0 = perf_counter()
        self.built = build_complex(self.complex_cfg)
        t1 = perf_counter()
        self.library = self._library(self.units, self.seed)
        self.warm_library = self._library(self.plan.warm_units, self.seed + 1)
        t2 = perf_counter()
        self.facts.update({
            "chem.build_complex_s": t1 - t0,
            "chem.generate_library_s": t2 - t1,
        })

    def warmup(self) -> None:
        driver_mod.run_screening(self.built, self.warm_library, self.config)

    def run(self, units: int) -> Measured:
        library = self.library[:units]
        # One call is one segment, sampled on either side.
        speed = self.machine_speed()
        t0 = perf_counter()
        # Through the module attribute so the traced run sees the proxy.
        result = driver_mod.run_screening(self.built, library, self.config)
        wall = perf_counter() - t0
        speed = (speed + self.machine_speed()) / 2
        failed = sum(
            1
            for hit in result.ranking
            if not math.isfinite(hit["best_score"])
            or hit["evaluations"] != self.expected_evaluations
        )
        return Measured(
            ops=len(library),
            wall_s=wall,
            segments=[(len(library), wall, speed)],
            failed=failed + (len(library) - len(result.ranking)),
            detail={"result": result, "library": library},
        )

    def digest(self, measured: Measured) -> str:
        ranking = measured.detail["result"].ranking
        return digest(
            (h["compound_id"], h["best_score"], h["evaluations"])
            for h in ranking
        )

    def gate(self, measured: Measured) -> list[str]:
        result = measured.detail["result"]
        library = measured.detail["library"]
        ranking = result.ranking
        bad = []
        if result.n_ligands != len(library) or len(ranking) != len(library):
            bad.append(f"{len(ranking)} hits for {len(library)} ligands")
        ids = [h["compound_id"] for h in ranking]
        if sorted(ids) != sorted(e.compound_id for e in library):
            bad.append("ranking is not one hit per library ligand")
        if ranking != sorted(ranking, key=ranking_key):
            bad.append("ranking is not sorted")
        if measured.failed:
            bad.append(
                f"{measured.failed} ligands with a non-finite score or an "
                f"evaluation count other than {self.expected_evaluations}"
            )
        return bad

    def close(self) -> None:
        self.built = self.library = self.warm_library = None


def expected_evaluations(params) -> int:
    """Score evaluations one schema run makes, from its dials alone."""
    cap = params.max_evaluations
    evals = params.population_size * max(1, params.init_candidates)
    parents = params.n_best_select + params.n_worst_select
    for _ in range(params.generations):
        if cap is not None and evals >= cap:
            break
        if parents >= 2:
            evals += params.n_combine
        if params.improve_iterations and (cap is None or evals < cap):
            evals += params.n_best_select * params.improve_iterations
    return evals


def make_workload(name: str, scale: str, seed: int, seconds: float) -> Workload:
    if name == "train_paper":
        return SequentialTraining(
            name, scale, seed, seconds,
            observation_mode="compact", scoring_method="exact",
        )
    if name == "train_fast":
        return SequentialTraining(
            name, scale, seed, seconds,
            observation_mode="descriptor", scoring_method="field",
            field_gate_pairs=200 if scale == "full" else 40,
        )
    if name == "train_actors":
        return ActorLearnerTraining(name, scale, seed, seconds)
    if name == "screen_search":
        return ScreenSearch(name, scale, seed, seconds)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# -- timing proxies ---------------------------------------------------------


def _inbox_fraction(args, _result) -> float:
    """Share of a scored pose's atoms inside the field-map box."""
    scorer, coords = args[0], np.asarray(args[1])
    maps = scorer.maps
    upper = maps.origin + (maps.shape - 1) * maps.spacing
    inside = ((coords >= maps.origin) & (coords <= upper)).all(axis=1)
    return float(inside.mean())


def patch_points(workload: Workload) -> list[PatchPoint]:
    """Every public callable the traced run times, by layer.

    ``workload.traced_scorers`` collects ``(scorer, rebuilds so far)``
    for the env's scorer and for every scorer built inside the traced
    run (one per screened ligand), so Verlet rebuild counters can be
    read afterwards.
    """
    workload.traced_scorers = []
    env = getattr(workload, "env", None)
    if env is not None:
        scorer = env.engine.scorer
        workload.traced_scorers.append(
            (scorer, getattr(scorer, "rebuild_count", 0))
        )

    def keep_scorer(_args, result) -> float:
        workload.traced_scorers.append((result, 0))
        return 0.0

    def batch_size(args, _result) -> float:
        return float(len(args[1]))

    P = PatchPoint
    return [
        # rl
        P(Trainer, "run", "rl.run"),
        P(ActorLearnerTrainer, "run", "rl.run"),
        P(DQNAgent, "act", "rl.act"),
        P(DQNAgent, "remember", "rl.remember"),
        P(DQNAgent, "learn", "rl.learn"),
        P(DQNAgent, "sync_target", "rl.sync_target"),
        P(ReplayMemory, "sample", "rl.replay_sample"),
        P(SharedWeightBlock, "publish", "rl.publish"),
        # nn
        P(MLP, "predict", "nn.predict"),
        P(MLP, "forward", "nn.forward"),
        P(MLP, "backward", "nn.backward"),
        P(Optimizer, "step", "nn.optimizer"),
        # env
        P(DockingEnv, "reset", "env.reset"),
        P(DockingEnv, "step", "env.step"),
        P(CompactCodec, "encode", "env.encode"),
        P(DescriptorCodec, "encode", "env.encode"),
        P(TransitionRing, "drain", "env.ring_drain",
          lambda _args, result: float(len(result))),
        # metadock
        P(MetadockEngine, "apply_action", "metadock.apply_action"),
        P(MetadockEngine, "ligand_coords", "metadock.ligand_coords"),
        P(MetadockEngine, "score", "metadock.score"),
        P(MetadockEngine, "com_distance", "metadock.geometry"),
        P(MetadockEngine, "crystal_rmsd", "metadock.geometry"),
        P(MetadockEngine, "score_poses", "metadock.score_poses", batch_size),
        P(MetaheuristicSchema, "run", "metadock.search"),
        P(driver_mod, "screen_ligand", "metadock.screen_ligand"),
        # scoring
        P(scorers_mod, "make_scorer", "scoring.make_scorer", keep_scorer),
        P(ExactScorer, "score", "scoring.score"),
        P(IncrementalScorer, "score", "scoring.score"),
        P(IncrementalScorer, "score_batch", "scoring.score_batch", batch_size),
        P(FieldScorer, "score", "scoring.score", _inbox_fraction),
        P(FieldScorer, "score_batch", "scoring.score_batch", batch_size),
        # screening
        P(driver_mod, "run_screening", "screening.run"),
        P(driver_mod, "_run_shard", "screening.shard"),
        # the harness's own machine-speed samples, taken inside
        # Trainer.run's episode callback
        P(Calibrator, "sample", "bench.calibrate"),
    ]
