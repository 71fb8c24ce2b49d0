"""One contract for every trainer: what the learner-side sink promises.

:class:`~repro.rl.trainer.Trainer`, :class:`~repro.rl.vector_trainer.
VectorTrainer` and :class:`~repro.rl.distributed.ActorLearnerTrainer`
differ in how they collect transitions; everything after the transition
exists goes through one :class:`~repro.rl.learner.LearnerCore`.  The
suite below is driven by :data:`COLLECTORS` and asserts that shared
behaviour once per collector: episode rows account for every consumed
transition, ``on_episode_end`` fires once per row in row order, the
learning fields agree with the agent's update counter, a run split into
aligned segments equals the unsplit run, an interrupted run resumed
through :class:`~repro.runtime.loop.RunLoop` equals the uninterrupted
one, and n-step windows never mix two environments.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing as mp

import numpy as np
import pytest

from repro.env.factory import make_vector_env
from repro.rl.distributed import ActorLearnerTrainer
from repro.rl.trainer import Trainer
from repro.rl.vector_trainer import VectorTrainer
from repro.runtime import RunInterrupted, RunLoop, RuntimeContext, read_meta

from tests.test_rl_trainer import CountingEnv, tiny_agent

HORIZON = 5
#: Deliberately awkward: learning starts mid-episode, off-phase
#: interval, target period not a multiple of the episode length.
CADENCE = dict(learning_start=13, target_update_steps=7, train_interval=3)
SYNC_EVERY = 5

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the actor/learner runtime needs a fork-capable platform",
)


@dataclasses.dataclass
class Collector:
    """One way of feeding the sink, driven through a common surface."""

    kind: str  # "episodes" | "vector" | "actors"
    sources: int

    def build(self, agent):
        fns = [lambda: CountingEnv(HORIZON)] * self.sources
        if self.kind == "episodes":
            return Trainer(
                fns[0](),
                agent,
                episodes=1,
                max_steps_per_episode=2 * HORIZON,
                **CADENCE,
            )
        if self.kind == "vector":
            return VectorTrainer(
                make_vector_env(env_fns=fns), agent, **CADENCE
            )
        return ActorLearnerTrainer(
            fns,
            agent,
            state_dim=2,
            sync_every=SYNC_EVERY,
            ring_capacity=16,
            max_steps_per_episode=2 * HORIZON,
            seed=0,
            **CADENCE,
        )

    def run(self, trainer, total, start=0):
        """Consume transitions ``start .. total``; returns the history."""
        if self.kind == "episodes":
            trainer.episodes = total // HORIZON
            return trainer.run(
                start_episode=start // HORIZON,
                global_step=start,
                history=trainer.core.history if start else None,
            )
        return trainer.run(total, start_step=start)

    def run_loop(self, trainer, runtime, total):
        loop = RunLoop(runtime, phase="p")
        if self.kind == "episodes":
            trainer.episodes = total // HORIZON
            return loop.run_episodes(trainer)
        return loop.run_steps(trainer, total)

    @staticmethod
    def close(trainer):
        for owner in (trainer, getattr(trainer, "venv", None)):
            if hasattr(owner, "close"):
                owner.close()


COLLECTORS = [
    pytest.param(Collector("episodes", 1), id="trainer"),
    pytest.param(Collector("vector", 1), id="vector-1"),
    pytest.param(Collector("vector", 3), id="vector-3"),
    pytest.param(Collector("actors", 1), id="actors-1", marks=needs_fork),
    pytest.param(Collector("actors", 2), id="actors-2", marks=needs_fork),
]

#: A multiple of ``sources * HORIZON`` (episodes end exactly at the
#: boundary) and of ``sources * SYNC_EVERY`` (weight broadcasts do too)
#: for every collector above, and so is its half.
TOTAL = 60


def _rows(history):
    return [
        tuple(
            "nan" if isinstance(v, float) and math.isnan(v) else v
            for v in dataclasses.astuple(e)
        )
        for e in history.episodes
    ]


def _assert_agents_equal(a, b):
    assert a.learn_steps == b.learn_steps and a.target_syncs == b.target_syncs
    for net_a, net_b in ((a.q_net, b.q_net), (a.target_net, b.target_net)):
        for pa, pb in zip(net_a.params(), net_b.params()):
            np.testing.assert_array_equal(pa, pb)


@pytest.mark.parametrize("collector", COLLECTORS)
class TestSinkContract:
    def test_rows_account_for_every_transition(self, collector):
        agent = tiny_agent()
        trainer = collector.build(agent)
        seen, learn_marks = [], []
        trainer.core.on_episode_end = lambda stats: (
            seen.append(stats), learn_marks.append(agent.learn_steps)
        )
        try:
            history = collector.run(trainer, TOTAL)
        finally:
            collector.close(trainer)

        assert history is trainer.core.history
        assert history.total_steps == TOTAL == len(agent.replay)
        assert sum(e.steps for e in history.episodes) == TOTAL
        assert [e.steps for e in history.episodes] == [HORIZON] * (
            TOTAL // HORIZON
        )
        assert {e.termination for e in history.episodes} == {
            "terminal" if collector.kind == "actors" else "chain-end"
        }
        # The callback saw exactly the rows, in row order.
        assert seen == history.episodes
        assert [e.episode for e in seen] == list(range(len(seen)))
        # Learning fields follow the agent's own update counter.
        assert agent.learn_steps > 0
        active = [e.learning_active for e in history.episodes]
        # The first row was open from step 0: it is active exactly when
        # an update ran before it closed.  Once on, learning stays on.
        assert active[0] == (learn_marks[0] > 0)
        assert active == sorted(active) and active[-1]
        for k, e in enumerate(history.episodes):
            assert math.isnan(e.mean_loss) != e.learning_active
            if e.learning_active:
                assert learn_marks[k] > 0
        assert learn_marks[-1] == agent.learn_steps

    def test_aligned_segments_equal_the_unsplit_run(self, collector):
        whole_agent, split_agent = tiny_agent(), tiny_agent()
        whole = collector.build(whole_agent)
        split = collector.build(split_agent)
        try:
            hist_whole = collector.run(whole, TOTAL)
            collector.run(split, TOTAL // 2)
            hist_split = collector.run(split, TOTAL, start=TOTAL // 2)
        finally:
            collector.close(whole)
            collector.close(split)
        assert _rows(hist_split) == _rows(hist_whole)
        assert hist_split.total_steps == hist_whole.total_steps == TOTAL
        _assert_agents_equal(split_agent, whole_agent)

    def test_interrupt_resume_equals_uninterrupted(self, collector, tmp_path):
        # Checkpoint cadence: every 2 episodes / every TOTAL/3 steps.
        every = 2 if collector.kind == "episodes" else TOTAL // 3

        ref_agent = tiny_agent()
        ref = collector.build(ref_agent)
        try:
            hist_ref = collector.run_loop(
                ref,
                RuntimeContext(tmp_path / "ref", checkpoint_every=every),
                TOTAL,
            )
        finally:
            collector.close(ref)

        class StopAfterFirstCheckpoint:
            def __init__(self, runtime):
                self.path = runtime.checkpoint_path("p")

            @property
            def stop_requested(self):
                return self.path.exists()

        rt = RuntimeContext(tmp_path / "run", checkpoint_every=every)
        rt.guard = StopAfterFirstCheckpoint(rt)
        interrupted = collector.build(tiny_agent())
        try:
            with pytest.raises(RunInterrupted):
                collector.run_loop(interrupted, rt, TOTAL)
        finally:
            collector.close(interrupted)
        meta = read_meta(rt.checkpoint_path("p"))
        assert not meta["complete"]
        assert 0 < meta["global_step"] < TOTAL
        assert meta["history"]["total_steps"] == meta["global_step"]

        agent = tiny_agent()
        resumed = collector.build(agent)
        try:
            hist = collector.run_loop(
                resumed,
                RuntimeContext(tmp_path / "run", checkpoint_every=every),
                TOTAL,
            )
        finally:
            collector.close(resumed)
        assert _rows(hist) == _rows(hist_ref)
        assert hist.total_steps == TOTAL
        _assert_agents_equal(agent, ref_agent)
        assert read_meta(rt.checkpoint_path("p"))["complete"]


class TaggedEnv:
    """Never-terminating env whose states and rewards carry its tag.

    State is ``[tag, t]`` and every step pays ``tag``, so a replayed
    transition shows which env produced it, how many of that env's
    steps it spans and whose rewards it summed.
    """

    n_actions = 2
    state_dim = 2

    def __init__(self, tag):
        self.tag = float(tag)
        self.t = 0

    def reset(self):
        self.t = 0
        return np.array([self.tag, 0.0])

    def step(self, action):
        self.t += 1
        return np.array([self.tag, float(self.t)]), self.tag, False, {}


N_STEP = 3


@pytest.mark.parametrize(
    "kind,tags,total",
    [
        pytest.param("vector", (1, 100), 12, id="vector-2"),
        pytest.param("actors", (1, 100), 20, id="actors-2", marks=needs_fork),
        # One source, but the step cap ends episodes mid-window: no
        # window may span the env.reset() behind a "time-limit" row.
        pytest.param("actors", (1,), 10, id="actors-1", marks=needs_fork),
    ],
)
def test_nstep_windows_never_mix_environments(kind, tags, total):
    agent = tiny_agent(n_step=N_STEP)
    gamma = agent.config.gamma
    fns = [(lambda tag=tag: TaggedEnv(tag)) for tag in tags]
    if kind == "vector":
        venv = make_vector_env(env_fns=fns)
        trainer = VectorTrainer(venv, agent)
    else:
        trainer = ActorLearnerTrainer(
            fns,
            agent,
            state_dim=2,
            sync_every=SYNC_EVERY,
            ring_capacity=16,
            max_steps_per_episode=4,
            seed=0,
        )
    try:
        history = trainer.run(total)
    finally:
        Collector.close(trainer)

    assert {e.termination for e in history.episodes} <= {
        "time-limit", "segment-boundary",
    }
    # Every window was flushed by the time its episode closed: one
    # replay entry per consumed transition.
    assert len(agent.replay) == total
    discounts = agent.replay.state_dict()["discounts"]
    for i in range(total):
        t = agent.replay[i]
        tag = t.state[0]
        assert t.next_state[0] == tag, f"entry {i} spans two envs"
        span = int(t.next_state[1] - t.state[1])
        assert 1 <= span <= N_STEP, f"entry {i} spans a reset"
        assert t.reward == sum(gamma**k * tag for k in range(span))
        assert discounts[i] == gamma**span
        assert not t.terminal
