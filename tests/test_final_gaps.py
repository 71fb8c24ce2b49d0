"""Last-mile coverage: engine scorer modes in the env, conv padding
edges, library metadata, report formatting helpers."""

import numpy as np
import pytest

from repro.env.docking_env import DockingEnv
from repro.metadock.engine import MetadockEngine


class TestEnvWithAlternateScorers:
    def test_training_on_cutoff_engine(self, small_complex):
        from repro.rl.trainer import Trainer
        from tests.test_rl_trainer import tiny_agent

        engine = MetadockEngine(
            small_complex,
            shift_length=0.8,
            rotation_angle_deg=5.0,
            scoring_method="cutoff",
            scoring_kwargs={"cutoff": 14.0},
        )
        env = DockingEnv(engine)
        agent = tiny_agent(state_dim=env.state_dim, n_actions=env.n_actions)
        history = Trainer(
            env, agent, episodes=2, max_steps_per_episode=10
        ).run()
        assert history.total_steps == 20
        assert np.isfinite(history.best_score)

    def test_cutoff_env_rewards_still_unit(self, small_complex):
        engine = MetadockEngine(
            small_complex,
            scoring_method="cutoff",
            scoring_kwargs={"cutoff": 10.0},
        )
        env = DockingEnv(engine)
        env.reset()
        for a in (5, 5, 0, 7):
            _s, r, _d, _i = env.step(a)
            assert r in (-1.0, 0.0, 1.0)


class TestConvPaddingEdges:
    def test_same_padding_odd_kernel_even_input(self):
        from repro.nn.conv import Conv2D

        conv = Conv2D(1, 1, kernel_size=3, stride=1, padding="same", rng=0)
        out = conv.forward(np.zeros((1, 1, 6, 6)))
        assert out.shape == (1, 1, 6, 6)

    def test_same_padding_with_stride(self):
        from repro.nn.conv import Conv2D

        conv = Conv2D(1, 1, kernel_size=3, stride=3, padding="same", rng=0)
        out = conv.forward(np.zeros((1, 1, 7, 7)))
        # ceil(7 / 3) = 3
        assert out.shape == (1, 1, 3, 3)

    def test_kernel_one(self):
        from repro.nn.conv import Conv2D

        conv = Conv2D(2, 3, kernel_size=1, rng=0)
        x = np.random.default_rng(0).normal(size=(2, 2, 4, 4))
        out = conv.forward(x)
        assert out.shape == (2, 3, 4, 4)
        # 1x1 conv == per-pixel linear map; spot-check one pixel.
        i, j = 1, 2
        expected = x[0, :, i, j] @ conv.w[:, :, 0, 0].T + conv.b
        np.testing.assert_allclose(out[0, :, i, j], expected)


class TestLibraryMetadata:
    def test_net_charge_recorded(self):
        from repro.metadock.library import generate_library
        from tests.conftest import SMALL_COMPLEX_CFG

        lib = generate_library(SMALL_COMPLEX_CFG, 3, seed=0)
        for entry in lib:
            assert entry.net_charge == pytest.approx(
                float(entry.ligand.charges.sum())
            )
            assert entry.n_atoms == entry.ligand.n_atoms

    def test_descriptor_integration(self):
        from repro.chem.descriptors import compute_descriptors
        from repro.metadock.library import generate_library
        from tests.conftest import SMALL_COMPLEX_CFG

        lib = generate_library(SMALL_COMPLEX_CFG, 3, seed=1)
        for entry in lib:
            d = compute_descriptors(entry.ligand)
            assert d.n_atoms == entry.n_atoms


class TestVectorEnvWithWrappers:
    def test_wrapped_envs_vectorize(self, small_complex):
        from repro.env.factory import make_vector_env
        from repro.env.wrappers import TimeLimit

        venv = make_vector_env(
            env_fns=[
                lambda: TimeLimit(
                    DockingEnv(MetadockEngine(small_complex)), 5
                )
            ]
            * 2
        )
        try:
            venv.reset()
            done_seen = False
            for _ in range(6):
                _s, _r, dones, infos = venv.step([0, 1])
                if dones.any():
                    done_seen = True
                    assert "terminal_state" in infos[int(np.argmax(dones))]
            assert done_seen  # TimeLimit fired inside the vector env
        finally:
            venv.close()
