"""The multi-process actor/learner runtime (:mod:`repro.rl.distributed`).

Determinism is the design center, so the heavyweight assertions here
are *bit-level*: two fresh runs produce identical Q-networks, and an
interrupted-then-resumed checkpointed run reproduces the uninterrupted
run's weights and episode history exactly.  Around those: validation
(unsupported agents, alignment contract), learner-side episode
reconstruction, per-actor telemetry, checkpoint state round-trips, and
the signal-masking contract (workers ignore SIGINT/SIGTERM; the parent
owns shutdown).
"""

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.config import ci_scale_config
from repro.nn.checkpoints import CheckpointMismatchError
from repro.rl.distributed import ActorLearnerTrainer
from repro.telemetry.metrics import MetricsRegistry

from tests.test_rl_trainer import CountingEnv, tiny_agent

fork_required = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the actor/learner runtime needs a fork-capable platform",
)


def counting_trainer(agent, n_actors=2, horizon=7, **kw):
    kw.setdefault("state_dim", 2)
    kw.setdefault("sync_every", 5)
    kw.setdefault("ring_capacity", 16)
    kw.setdefault("max_steps_per_episode", 10)
    kw.setdefault("learning_start", 8)
    kw.setdefault("target_update_steps", 10)
    kw.setdefault("train_interval", 2)
    kw.setdefault("seed", 0)
    return ActorLearnerTrainer(
        [(lambda: CountingEnv(horizon=horizon))] * n_actors, agent, **kw
    )


class TestValidation:
    def test_config_rejects_unknown_trainer_and_bad_counts(self):
        with pytest.raises(ValueError):
            ci_scale_config(episodes=2, trainer="bogus")
        with pytest.raises(ValueError):
            ci_scale_config(
                episodes=2, trainer="actor-learner", num_actors=0
            )
        with pytest.raises(ValueError):
            ci_scale_config(episodes=2, actor_sync_every=0)
        with pytest.raises(ValueError):
            ci_scale_config(episodes=2, actor_ring_capacity=0)

    def test_trainer_rejects_noisy_agent(self):
        agent = tiny_agent(noisy=True)
        with pytest.raises(ValueError, match="Noisy"):
            counting_trainer(agent)

    def test_run_alignment_contract(self):
        trainer = counting_trainer(tiny_agent())
        # Neither error path spawns any worker process.
        with pytest.raises(ValueError, match="multiple of"):
            trainer.run(7)  # 7 % 2 actors != 0
        with pytest.raises(ValueError, match="broadcast"):
            trainer.run(25, start_step=5)  # 5 % (2*5) != 0
        assert trainer._procs is None


@fork_required
class TestRuntimeSemantics:
    def test_episode_reconstruction(self):
        agent = tiny_agent()
        trainer = counting_trainer(agent, horizon=7)
        try:
            history = trainer.run(28)  # 14 steps/actor = 2 episodes each
        finally:
            trainer.close()
        assert history is trainer.history
        eps = history.episodes
        assert len(eps) == 4
        assert all(e.steps == 7 for e in eps)
        assert all(e.termination == "terminal" for e in eps)
        assert [e.episode for e in eps] == [0, 1, 2, 3]
        assert trainer.history.total_steps == 28
        # CountingEnv scores count up under greedy-ish play; the
        # learner rebuilt them from ring payloads.
        assert np.isfinite(history.best_score)

    def test_partial_episodes_close_at_segment_boundary(self):
        agent = tiny_agent()
        trainer = counting_trainer(agent, horizon=100)
        try:
            trainer.run(30)  # 15 steps/actor: cap at 10, partial 5
        finally:
            trainer.close()
        terms = [e.termination for e in trainer.history.episodes]
        assert terms.count("time-limit") == 2
        assert terms.count("segment-boundary") == 2

    def test_learning_happens_and_cadence_counts(self):
        agent = tiny_agent()
        trainer = counting_trainer(agent)
        try:
            trainer.run(40)
        finally:
            trainer.close()
        # train_interval=2, learning_start=8, can_learn after 4
        # remembers: learns at every even consumed count from 8 on.
        assert agent.learn_steps == 17
        assert agent.target_syncs == 4  # consumed 10, 20, 30, 40

    def test_telemetry_metrics(self):
        registry = MetricsRegistry()
        agent = tiny_agent()
        trainer = counting_trainer(agent, metrics=registry)
        try:
            trainer.run(40)
        finally:
            trainer.close()
        g = lambda name: registry.gauge("actor_learner/" + name).value
        assert g("num-actors") == 2
        assert g("consumed-transitions") == 40
        assert g("weight-version") == 4
        # Mean transitions per non-empty drain, not the (always empty)
        # end-of-segment ring.
        assert 1.0 <= g("ring-depth-actor0") <= 16
        assert g("transitions-per-second-actor1") > 0
        assert 0.0 <= g("learner-idle-fraction") <= 1.0
        assert (
            registry.counter("actor_learner/transitions-actor0").value
            == 20
        )
        rows = {
            r["name"]: r
            for r in registry.snapshot_rows()
            if r["kind"] == "histogram"
        }
        staleness = rows["actor_learner/weight-staleness-steps"]
        assert staleness["count"] == 40
        assert staleness["max"] <= 2 * trainer.publish_every

    def test_ring_depth_gauge_sees_a_slow_learner(self):
        # Actors run ahead of a learner that takes 2 ms per update, up
        # to the weight-sync window (sync_every=5 local steps); the
        # gauge reports what the learner found waiting, which used to
        # be read after the final drain and was always 0.
        registry = MetricsRegistry()
        agent = tiny_agent()
        learn = agent.learn

        def slow_learn():
            time.sleep(0.002)
            return learn()

        agent.learn = slow_learn
        trainer = counting_trainer(agent, metrics=registry)
        try:
            trainer.run(80)
        finally:
            trainer.close()
        for i in range(2):
            depth = registry.gauge(
                f"actor_learner/ring-depth-actor{i}"
            ).value
            assert 1.0 < depth <= 5.0
        assert len(trainer._rings[0]) == 0  # drained-empty invariant

    def test_state_dict_roundtrip_and_mismatch(self):
        agent = tiny_agent()
        trainer = counting_trainer(agent)
        try:
            trainer.run(20)
            state = trainer.state_dict()
        finally:
            trainer.close()
        other = counting_trainer(tiny_agent())
        other.load_state_dict(state)
        assert other._weight_version == trainer._weight_version
        assert other._actor_rng[0] is not None
        mismatched = counting_trainer(tiny_agent(), n_actors=3)
        with pytest.raises(CheckpointMismatchError):
            mismatched.load_state_dict(state)

    def test_run_to_run_determinism(self):
        weights = []
        for _ in range(2):
            agent = tiny_agent()
            trainer = counting_trainer(agent)
            try:
                trainer.run(60)
            finally:
                trainer.close()
            weights.append([p.copy() for p in agent.q_net.params()])
        for a, b in zip(*weights):
            np.testing.assert_array_equal(a, b)

    def test_segmented_runs_are_deterministic(self):
        # Segment boundaries are part of the trajectory (actors reset
        # their envs at each segment start), so the determinism
        # contract is: identical segmentation => bit-identical weights
        # and history.  That is exactly what checkpoint/resume needs --
        # the resumed run replays the same segment plan.
        def segmented_run():
            agent = tiny_agent()
            trainer = counting_trainer(agent)
            try:
                trainer.run(20)
                trainer.run(60, start_step=20)
            finally:
                trainer.close()
            return agent, trainer.history

        agent_one, hist_one = segmented_run()
        agent_two, hist_two = segmented_run()
        for a, b in zip(
            agent_one.q_net.params(), agent_two.q_net.params()
        ):
            np.testing.assert_array_equal(a, b)
        key = lambda e: (e.episode, e.steps, e.total_reward, e.termination)
        assert [key(e) for e in hist_one.episodes] == [
            key(e) for e in hist_two.episodes
        ]


class TestSidecar:
    """The actor's Q-network copy (no process needed to exercise it)."""

    def test_compact_sidecar_tracks_published_weights(self):
        from repro.rl.agent import AgentConfig, DQNAgent
        from repro.rl.distributed.actor import Sidecar
        from repro.rl.distributed.weights import SharedWeightBlock

        rng = np.random.default_rng(0)
        static = (20.0 * rng.standard_normal(24)).astype(np.float32)
        agent = DQNAgent(
            AgentConfig(
                state_dim=30, n_actions=3, hidden_sizes=(8,),
                minibatch_size=4, replay_capacity=64,
                learning_rate=0.01, seed=0,
            ),
            static_state=static,
        )
        params = agent.q_net.params()
        block = SharedWeightBlock(
            [p.shape for p in params], dtype=params[0].dtype
        )
        sidecar = Sidecar(agent.q_net.clone(), block, agent.head)
        tails = rng.standard_normal((5, 6)).astype(np.float32)

        def q_values():
            return np.stack([sidecar.predict(t).copy() for t in tails])

        block.publish(0, params)
        assert sidecar.refresh(0)
        q0 = q_values()
        for tail, q in zip(tails, q0):
            np.testing.assert_array_equal(q, agent.predict_q(tail))

        # The learner moves on; the sidecar must not until it fetches.
        state = tails[0]
        for t in range(12):
            nxt = rng.standard_normal(6).astype(np.float32)
            agent.remember(state, t % 3, 1.0, nxt, False)
            state = nxt
            if agent.can_learn():
                agent.learn()
        np.testing.assert_array_equal(q_values(), q0)
        block.publish(1, params)
        assert sidecar.refresh(1)
        assert sidecar.version == 1
        q1 = q_values()
        # 24 of the 30 inputs reach Q only through the cached prefix
        # bias: a fetch that left it stale would not move like this.
        assert not np.array_equal(q1, q0)
        for tail, q in zip(tails, q1):
            np.testing.assert_array_equal(q, agent.predict_q(tail))

    def test_sidecar_reads_q_through_the_agents_head(self):
        from repro.rl.agent import AgentConfig, DQNAgent
        from repro.rl.distributed.actor import Sidecar
        from repro.rl.distributed.weights import SharedWeightBlock
        from repro.rl.distributional import DistributionalConfig

        agent = DQNAgent(
            AgentConfig(
                state_dim=5, n_actions=3, hidden_sizes=(8,),
                distributional=DistributionalConfig(n_atoms=7),
            )
        )
        params = agent.q_net.params()
        block = SharedWeightBlock(
            [p.shape for p in params], dtype=params[0].dtype
        )
        sidecar = Sidecar(agent.q_net.clone(), block, agent.head)
        block.publish(0, params)
        assert sidecar.refresh(0)
        state = np.linspace(-1.0, 1.0, 5)
        q = sidecar.predict(state)
        assert q.shape == (3,)
        np.testing.assert_array_equal(q, agent.predict_q(state))

    def test_trainer_rejects_compact_agent_without_dense_first_layer(self):
        from repro.nn.layers import Dense, Identity
        from repro.nn.network import MLP
        from repro.rl.agent import AgentConfig, DQNAgent

        net = MLP([Identity(dtype=np.float32),
                   Dense(6, 2, rng=0, dtype=np.float32)])
        agent = DQNAgent(
            AgentConfig(state_dim=6, n_actions=2, minibatch_size=4,
                        replay_capacity=32),
            network=net,
            static_state=np.zeros(4, dtype=np.float32),
        )
        with pytest.raises(ValueError, match="Dense first layer"):
            counting_trainer(agent)


@fork_required
class TestSignalMasking:
    def test_actors_ignore_sigint_and_sigterm(self):
        agent = tiny_agent()
        trainer = counting_trainer(agent)
        try:
            trainer.run(20)
            pids = [p.pid for p in trainer._procs]
            for pid in pids:
                os.kill(pid, signal.SIGINT)
                os.kill(pid, signal.SIGTERM)
            time.sleep(0.3)
            assert all(p.is_alive() for p in trainer._procs)
            # The fleet still works after the signal storm.
            history = trainer.run(40, start_step=20)
            assert history.total_steps == 40
        finally:
            trainer.close()
        assert all(not p.is_alive() for p in trainer._procs or [])


@fork_required
class TestFigure4Integration:
    """End-to-end over the real docking stack (small complex)."""

    def _cfg(self, variant="dqn"):
        return ci_scale_config(episodes=4, seed=0, max_steps=10).replace(
            trainer="actor-learner",
            num_actors=2,
            actor_sync_every=5,
            actor_ring_capacity=32,
            variant=variant,
        )

    def test_interrupt_resume_bit_exact(self, tmp_path):
        self._interrupt_resume(self._cfg(), tmp_path)

    def test_interrupt_resume_bit_exact_distributional(self, tmp_path):
        # The C51 head: the actors' sidecars act on expected values.
        self._interrupt_resume(self._cfg("distributional"), tmp_path)

    def _interrupt_resume(self, cfg, tmp_path):
        from repro.experiments.figure4 import run_figure4_experiment
        from repro.runtime.loop import RunInterrupted, RuntimeContext
        from repro.runtime.signals import ShutdownGuard

        # Reference: uninterrupted checkpointed run.
        ref_dir = tmp_path / "ref"
        ref = run_figure4_experiment(
            cfg, runtime=RuntimeContext(ref_dir, checkpoint_every=2)
        )

        # Interrupted run: request shutdown right after the first
        # cadence checkpoint lands, then resume in a fresh context.
        run_dir = tmp_path / "resumed"
        guard = ShutdownGuard()
        rt = RuntimeContext(run_dir, checkpoint_every=2, guard=guard)
        original_save = rt.save_checkpoint
        saves = []

        def save_and_stop(phase, state, meta):
            path = original_save(phase, state, meta)
            saves.append(path)
            if len(saves) == 1:
                guard.request_stop()
            return path

        rt.save_checkpoint = save_and_stop
        with pytest.raises(RunInterrupted):
            run_figure4_experiment(cfg, runtime=rt)

        resumed = run_figure4_experiment(
            cfg, runtime=RuntimeContext(run_dir, checkpoint_every=2)
        )

        assert ref.agent.learn_steps > 0
        for a, b in zip(
            ref.agent.q_net.params(), resumed.agent.q_net.params()
        ):
            np.testing.assert_array_equal(a, b)
        key = lambda e: (
            e.episode, e.steps, e.total_reward, e.avg_max_q,
            e.best_score, e.termination,
        )
        assert [key(e) for e in ref.history.episodes] == [
            key(e) for e in resumed.history.episodes
        ]
