"""Config dataclasses: Table 1 defaults, validation, presets."""

import dataclasses

import pytest

from repro.config import (
    PAPER_CONFIG,
    ComplexConfig,
    DQNDockingConfig,
    ci_scale_config,
)


class TestDQNDockingConfigDefaults:
    def test_paper_rl_block(self):
        cfg = PAPER_CONFIG
        assert cfg.episodes == 1800
        assert cfg.max_steps_per_episode == 1000
        assert cfg.state_space == 16599
        assert cfg.action_space == 12
        assert cfg.shift_length == 1.0
        assert cfg.rotation_angle_deg == 0.5
        assert cfg.initial_exploration_steps == 20000
        assert cfg.epsilon_start == 1.0
        assert cfg.epsilon_final == 0.05
        assert cfg.epsilon_decay == pytest.approx(4.5e-5)
        assert cfg.gamma == 0.99
        assert cfg.replay_capacity == 400000
        assert cfg.learning_start == 10000
        assert cfg.target_update_steps == 1000

    def test_paper_dl_block(self):
        cfg = PAPER_CONFIG
        assert cfg.hidden_layers == 2
        assert cfg.hidden_size == 135
        assert cfg.activation == "relu"
        assert cfg.update_rule == "rmsprop"
        assert cfg.learning_rate == pytest.approx(0.00025)
        assert cfg.minibatch_size == 32

    def test_hidden_size_is_three_times_ligand_atoms(self):
        # Table 1 derives 135 as "45 x 3 atoms of the ligand".
        assert PAPER_CONFIG.hidden_size == 3 * PAPER_CONFIG.complex.ligand_atoms

    def test_game_rules(self):
        cfg = PAPER_CONFIG
        assert cfg.escape_factor == pytest.approx(4.0 / 3.0)
        assert cfg.low_score_patience == 20
        assert cfg.low_score_threshold == -100000.0

    def test_complex_matches_2bsm(self):
        assert PAPER_CONFIG.complex.receptor_atoms == 3264
        assert PAPER_CONFIG.complex.ligand_atoms == 45
        assert PAPER_CONFIG.complex.rotatable_bonds == 6

    def test_paper_config_stores_replay_compactly(self):
        # A dense 400,000-transition replay at the 10,059-wide state is
        # ~32 GB; the preset names the compact codec so the paper's run
        # fits in memory.  The dataclass default stays raw, and no
        # Table 1 value moves.
        from repro.experiments.table1 import verify_paper_defaults

        assert PAPER_CONFIG.observation_mode == "compact"
        assert DQNDockingConfig().observation_mode == "raw"
        assert verify_paper_defaults(PAPER_CONFIG) == []


class TestValidation:
    def test_rejects_bad_episodes(self):
        with pytest.raises(ValueError):
            DQNDockingConfig(episodes=0)

    def test_rejects_epsilon_order(self):
        with pytest.raises(ValueError):
            DQNDockingConfig(epsilon_start=0.01, epsilon_final=0.5)

    def test_rejects_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            DQNDockingConfig(gamma=1.5)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            DQNDockingConfig(variant="a3c")

    def test_rainbow_variant_accepted(self):
        cfg = DQNDockingConfig(variant="rainbow")
        assert cfg.variant == "rainbow"

    def test_rejects_unknown_comm_mode(self):
        with pytest.raises(ValueError):
            DQNDockingConfig(comm_mode="socket")

    def test_rejects_unknown_loss(self):
        with pytest.raises(ValueError):
            DQNDockingConfig(loss="l1")

    def test_rejects_tiny_replay(self):
        with pytest.raises(ValueError):
            DQNDockingConfig(replay_capacity=8, minibatch_size=32)

    def test_complex_rejects_tiny_receptor(self):
        with pytest.raises(ValueError):
            ComplexConfig(receptor_atoms=2)

    def test_complex_rejects_negative_pocket(self):
        with pytest.raises(ValueError):
            ComplexConfig(pocket_depth=-1.0)

    def test_complex_rejects_unbuildable_ligand(self):
        # 4 atoms leave 3 heavy atoms; one rotatable bond needs 4.
        with pytest.raises(ValueError, match="rotatable bonds"):
            ComplexConfig(ligand_atoms=4, rotatable_bonds=1)
        ComplexConfig(ligand_atoms=5, rotatable_bonds=1)
        ComplexConfig(ligand_atoms=2, rotatable_bonds=0)


class TestAccessors:
    def test_n_actions_rigid(self):
        assert PAPER_CONFIG.n_actions == 12

    def test_n_actions_flexible(self):
        flex = PAPER_CONFIG.replace(flexible_ligand=True)
        # 12 rigid + 2 signed actions per rotatable bond.
        assert flex.n_actions == 12 + 2 * 6

    def test_replace_returns_new_frozen_instance(self):
        other = PAPER_CONFIG.replace(episodes=5)
        assert other.episodes == 5
        assert PAPER_CONFIG.episodes == 1800
        with pytest.raises(dataclasses.FrozenInstanceError):
            other.episodes = 7  # type: ignore[misc]

    def test_table1_rows_cover_all_published_rows(self):
        rows = PAPER_CONFIG.table1_rows()
        assert len(rows) == 20  # 14 RL + 6 DL rows
        names = [r[0] for r in rows]
        assert "Number of episodes M" in names
        assert "Minibatch size" in names


class TestCiScaleConfig:
    def test_structure_preserved(self):
        cfg = ci_scale_config(episodes=10, seed=3)
        assert cfg.hidden_size == 3 * cfg.complex.ligand_atoms
        assert cfg.learning_start < cfg.episodes * cfg.max_steps_per_episode
        assert cfg.replay_capacity >= cfg.minibatch_size

    def test_overrides_apply(self):
        cfg = ci_scale_config(episodes=10, seed=0, gamma=0.5, variant="ddqn")
        assert cfg.gamma == 0.5
        assert cfg.variant == "ddqn"

    def test_deterministic_in_seed(self):
        a = ci_scale_config(episodes=10, seed=3)
        b = ci_scale_config(episodes=10, seed=3)
        assert a == b

    def test_seed_changes_complex_seed(self):
        a = ci_scale_config(episodes=10, seed=3)
        b = ci_scale_config(episodes=10, seed=4)
        assert a.complex.seed != b.complex.seed


class TestConfigFromDict:
    def test_removed_grid_scoring_method_names_its_replacement(self):
        # A manifest / checkpoint meta written before PR 18 may still
        # name the retired grid scorer; loading it must say what to use.
        with pytest.raises(ValueError, match='"grid" was removed.*"field"'):
            ci_scale_config(
                episodes=5,
                seed=1,
                scoring_method="grid",
                scoring_kwargs={"spacing": 1.5},
            )
