"""Image states and the CNN-DQN integration (paper Section 5 extension)."""

import numpy as np
import pytest

from repro.env.docking_env import DockingEnv
from repro.env.image_state import ImageStateEnv, render_density
from repro.metadock.engine import MetadockEngine
from repro.nn.conv import build_cnn
from repro.rl.agent import AgentConfig, DQNAgent
from repro.rl.trainer import Trainer


class TestRenderDensity:
    def test_shape_and_range(self, rng):
        pts = rng.normal(size=(30, 3)) * 4
        img = render_density(pts, np.zeros(3), 10.0, 16)
        assert img.shape == (3, 16, 16)
        assert (img >= 0).all() and (img < 1).all()

    def test_single_atom_single_pixel(self):
        img = render_density(
            np.array([[0.0, 0.0, 0.0]]), np.zeros(3), 5.0, 8
        )
        for c in range(3):
            assert (img[c] > 0).sum() == 1
            # Centered atom -> middle bin.
            assert img[c, 4, 4] > 0

    def test_out_of_frame_clamped_to_border(self):
        img = render_density(
            np.array([[100.0, 0.0, 0.0]]), np.zeros(3), 5.0, 8
        )
        assert img[0, 7, 4] > 0  # x overflowed -> last x bin

    def test_translation_moves_mass(self):
        a = render_density(np.array([[0.0, 0, 0]]), np.zeros(3), 8.0, 16)
        b = render_density(np.array([[4.0, 0, 0]]), np.zeros(3), 8.0, 16)
        assert not np.array_equal(a, b)

    def test_more_atoms_brighter(self):
        one = render_density(np.zeros((1, 3)), np.zeros(3), 5.0, 4)
        many = render_density(np.zeros((6, 3)), np.zeros(3), 5.0, 4)
        assert many.max() > one.max()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            render_density(np.zeros((1, 3)), np.zeros(3), 5.0, 1)
        with pytest.raises(ValueError):
            render_density(np.zeros((1, 3)), np.zeros(3), 0.0, 8)


class TestImageStateEnv:
    @pytest.fixture()
    def img_env(self, small_complex):
        engine = MetadockEngine(
            small_complex, shift_length=0.8, rotation_angle_deg=5.0
        )
        return ImageStateEnv(DockingEnv(engine), resolution=16)

    def test_state_is_flat_image(self, img_env):
        s = img_env.reset()
        assert s.shape == (img_env.state_dim,)
        assert img_env.image_shape == (6, 16, 16)
        assert img_env.state_dim == 6 * 16 * 16

    def test_receptor_channels_static(self, img_env):
        s0 = img_env.reset().reshape(6, 16, 16)
        s1, *_ = img_env.step(0)
        s1 = s1.reshape(6, 16, 16)
        np.testing.assert_array_equal(s0[:3], s1[:3])

    def test_ligand_channels_respond_to_moves(self, img_env):
        s0 = img_env.reset().reshape(6, 16, 16)
        img_env.step(0)
        img_env.step(0)  # two full shifts: guaranteed bin change
        s1 = img_env._image_state().reshape(6, 16, 16)
        assert not np.array_equal(s0[3:], s1[3:])

    def test_reward_and_termination_passthrough(self, img_env):
        img_env.reset()
        _s, r, done, info = img_env.step(5)
        assert r in (-1.0, 0.0, 1.0)
        assert "score" in info

    def test_invalid_resolution(self, small_complex):
        engine = MetadockEngine(small_complex)
        with pytest.raises(ValueError):
            ImageStateEnv(DockingEnv(engine), resolution=1)

    def test_size_independent_of_atom_count(self, small_complex):
        # The whole point of the extension: state dim is fixed by
        # resolution, not molecule size.
        engine = MetadockEngine(small_complex)
        env = ImageStateEnv(DockingEnv(engine), resolution=8)
        assert env.state_dim == 6 * 64
        assert env.state_dim < engine.state_dim()


class TestCnnDqnIntegration:
    def test_trainer_runs_with_cnn_agent(self, small_complex):
        engine = MetadockEngine(
            small_complex, shift_length=0.8, rotation_angle_deg=5.0
        )
        env = ImageStateEnv(DockingEnv(engine), resolution=12)
        net = build_cnn(
            env.image_shape, env.n_actions,
            conv_channels=(4,), hidden=16, rng=0,
        )
        agent = DQNAgent(
            AgentConfig(
                state_dim=env.state_dim,
                n_actions=env.n_actions,
                replay_capacity=256,
                minibatch_size=8,
                initial_exploration_steps=0,
                epsilon_decay=0.01,
                learning_rate=0.001,
                seed=0,
            ),
            network=net,
        )
        history = Trainer(
            env, agent, episodes=2, max_steps_per_episode=15
        ).run()
        assert history.total_steps == 30
        assert agent.learn_steps > 0
        # Target network cloned from the CNN works too.
        agent.sync_target()
