"""Observation codec layer: specs, codecs, config knob, factory wiring."""

import dataclasses

import numpy as np
import pytest

from repro.chem.descriptors import (
    N_MOLECULE_DESCRIPTORS,
    compute_descriptors,
    pocket_feature_dim,
)
from repro.config import ci_scale_config, recorded_observation_mode
from repro.env.docking_env import DockingEnv
from repro.env.factory import make_env, make_vector_env
from repro.env.flexible_env import FlexibleDockingEnv
from repro.env.observation import (
    CODEC_REGISTRY,
    OBSERVATION_MODES,
    CompactCodec,
    DescriptorCodec,
    ObservationSpec,
    RawCodec,
    make_codec,
)


class TestObservationSpec:
    def test_dict_roundtrip(self):
        spec = ObservationSpec(
            mode="compact", dim=42, dtype="float32", full_dim=100,
            static_dim=58,
        )
        assert ObservationSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_ignores_unknown_keys(self):
        spec = ObservationSpec(
            mode="raw", dim=7, dtype="float64", full_dim=7
        )
        data = dict(spec.as_dict(), future_field=True)
        assert ObservationSpec.from_dict(data) == spec

    def test_q_input_dim(self):
        compact = ObservationSpec(
            mode="compact", dim=42, dtype="float32", full_dim=100,
            static_dim=58,
        )
        raw = ObservationSpec(mode="raw", dim=100, dtype="float64",
                              full_dim=100)
        desc = ObservationSpec(mode="descriptor", dim=59, dtype="float32",
                               full_dim=100)
        # Compact agents reconstruct full states before the forward
        # pass; descriptor agents consume the emitted vector directly.
        assert compact.q_input_dim == 100
        assert raw.q_input_dim == 100
        assert desc.q_input_dim == 59

    def test_hashable(self):
        a = ObservationSpec(mode="raw", dim=7, dtype="float64", full_dim=7)
        b = ObservationSpec(mode="raw", dim=7, dtype="float64", full_dim=7)
        assert len({a, b}) == 1

    def test_modes_in_sync_with_config_literal(self):
        # config.py validates observation_mode against a literal set to
        # avoid a config -> env import cycle; this pins the two in sync.
        assert OBSERVATION_MODES == ("raw", "compact", "descriptor")
        assert set(CODEC_REGISTRY) == set(OBSERVATION_MODES)
        for mode in OBSERVATION_MODES:
            ci_scale_config(4, observation_mode=mode)


class TestMakeCodec:
    def test_unknown_mode(self, engine):
        with pytest.raises(ValueError, match="unknown observation mode"):
            make_codec("fourier", engine)

    def test_registry_dispatch(self, engine):
        assert isinstance(make_codec("raw", engine), RawCodec)
        assert isinstance(make_codec("compact", engine), CompactCodec)
        assert isinstance(make_codec("descriptor", engine), DescriptorCodec)


class TestRawCodec:
    def test_bit_identical_to_state_vector(self, engine):
        codec = make_codec("raw", engine)
        engine.reset()
        np.testing.assert_array_equal(codec.encode(), engine.state_vector())
        assert codec.spec.dim == codec.spec.full_dim == engine.state_dim()
        assert codec.spec.np_dtype == np.float64
        assert codec.static_state() is None


class TestCompactCodec:
    def test_matches_engine_views(self, engine):
        codec = make_codec("compact", engine)
        engine.reset()
        np.testing.assert_array_equal(codec.encode(), engine.dynamic_state())
        np.testing.assert_array_equal(
            codec.static_state(), engine.static_state()
        )
        assert codec.spec.dim == engine.dynamic_dim()
        assert codec.spec.static_dim == (
            engine.state_dim() - engine.dynamic_dim()
        )
        assert codec.spec.q_input_dim == engine.state_dim()


class TestDescriptorCodec:
    def test_dim_and_dtype(self, engine):
        codec = make_codec("descriptor", engine)
        t = engine.template
        assert codec.spec.dim == pocket_feature_dim(t.n_atoms, t.n_bonds)
        assert codec.spec.np_dtype == np.float32
        assert codec.spec.full_dim == engine.state_dim()
        engine.reset()
        state = codec.encode()
        assert state.shape == (codec.spec.dim,)
        assert state.dtype == np.float32
        assert np.all(np.isfinite(state))

    def test_paper_scale_fits_budget(self):
        # The paper ligand: 45 atoms, 44 bonds -> 281-dim state, well
        # under the 300-dim Q-network input budget.
        assert pocket_feature_dim(45, 44) == 281
        assert pocket_feature_dim(45, 44) <= 300

    def test_constant_descriptor_tail(self, engine):
        codec = make_codec("descriptor", engine)
        engine.reset()
        tail = compute_descriptors(engine.template).as_vector()
        state = codec.encode()
        np.testing.assert_allclose(
            state[-N_MOLECULE_DESCRIPTORS:],
            np.asarray(tail, dtype=np.float32),
        )
        engine.apply_action(0)
        moved = codec.encode()
        np.testing.assert_array_equal(
            moved[-N_MOLECULE_DESCRIPTORS:], state[-N_MOLECULE_DESCRIPTORS:]
        )

    def test_double_buffered(self, engine):
        # state(t) and next_state(t) must coexist for remember(): the
        # codec alternates two buffers, so an encode() result survives
        # exactly one more encode() call.
        codec = make_codec("descriptor", engine)
        engine.reset()
        first = codec.encode()
        snapshot = first.copy()
        engine.apply_action(0)
        second = codec.encode()
        assert second is not first
        np.testing.assert_array_equal(first, snapshot)
        assert not np.array_equal(second, snapshot)

    def test_deterministic(self, small_complex):
        from repro.metadock.engine import MetadockEngine

        states = []
        for _ in range(2):
            eng = MetadockEngine(
                small_complex, shift_length=0.8, rotation_angle_deg=5.0
            )
            codec = make_codec("descriptor", eng)
            eng.reset()
            eng.apply_action(2)
            states.append(codec.encode().copy())
        np.testing.assert_array_equal(states[0], states[1])

    def test_translation_moves_atom_block_only(self, engine):
        # A pure translation changes the pocket-relative atom block and
        # the COM globals but leaves bond vectors (internal geometry)
        # untouched.
        codec = make_codec("descriptor", engine)
        engine.reset()
        before = codec.encode().copy()
        engine.apply_action(0)  # +x shift
        after = codec.encode()
        m = engine.template.n_atoms
        b = engine.template.n_bonds
        assert not np.array_equal(after[: 3 * m], before[: 3 * m])
        np.testing.assert_array_equal(
            after[3 * m : 3 * m + 3 * b], before[3 * m : 3 * m + 3 * b]
        )


class TestConfigKnob:
    def test_default_raw(self):
        cfg = ci_scale_config(4)
        assert cfg.observation_mode == "raw"

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown observation_mode"):
            ci_scale_config(4, observation_mode="onehot")

    def test_pre_pr7_manifest_dict_still_loads(self):
        # Manifests written before the knob existed carry no
        # observation_mode key; their compact_states boolean (no longer
        # a config field) must still map to the compact codec.
        data = dataclasses.asdict(ci_scale_config(4))
        del data["observation_mode"]
        assert recorded_observation_mode(data) is None
        data["compact_states"] = True
        assert recorded_observation_mode(data) == "compact"
        # Later manifests carried both keys, normalised or not.
        for mode in ("raw", "compact"):
            data["observation_mode"] = mode
            assert recorded_observation_mode(data) == "compact"
        data.update(compact_states=False, observation_mode="descriptor")
        assert recorded_observation_mode(data) == "descriptor"
        with pytest.raises(TypeError):
            ci_scale_config(4, compact_states=True)


class TestEnvWiring:
    def test_env_exposes_spec(self, env):
        assert env.observation_mode == "raw"
        assert env.observation_spec.mode == "raw"
        assert env.observation_space.shape == (env.observation_spec.dim,)
        assert env.state_dtype is np.float64

    def test_descriptor_env_emits_spec_shape(self, engine):
        env = DockingEnv(engine, observation_mode="descriptor")
        spec = env.observation_spec
        state = env.reset()
        assert state.shape == (spec.dim,)
        assert state.dtype == np.float32
        next_state, reward, done, info = env.step(0)
        assert next_state.shape == (spec.dim,)
        assert env.engine.state_vector().shape == (spec.full_dim,)
        assert env.state_dtype is np.float32


class TestFactory:
    def test_kind_validation(self, small_complex):
        cfg = ci_scale_config(4)
        with pytest.raises(ValueError, match="unknown env kind"):
            make_env(cfg, small_complex, kind="soft")

    def test_rigid_default(self, small_complex):
        cfg = ci_scale_config(4)
        env = make_env(cfg, small_complex)
        assert isinstance(env, DockingEnv)
        assert not isinstance(env, FlexibleDockingEnv)
        assert env.observation_mode == "raw"

    def test_flexible_kind(self, small_complex):
        cfg = ci_scale_config(4)
        env = make_env(cfg, small_complex, kind="flexible")
        assert isinstance(env, FlexibleDockingEnv)

    def test_mode_threads_through(self, small_complex):
        cfg = ci_scale_config(4, observation_mode="descriptor")
        env = make_env(cfg, small_complex)
        assert env.observation_mode == "descriptor"
        flex = make_env(cfg, small_complex, kind="flexible")
        assert flex.observation_mode == "descriptor"

    def test_sync_vector_env_exposes_spec(self, small_complex):
        cfg = ci_scale_config(4, observation_mode="descriptor")
        venv = make_vector_env(
            cfg, n_envs=2, builts=[small_complex] * 2
        )
        try:
            spec = venv.observation_spec
            assert spec.mode == "descriptor"
            assert venv.state_dim == spec.dim
            states = venv.reset()
            assert states.shape == (2, spec.dim)
        finally:
            venv.close()

    def test_sync_vector_env_rejects_mixed_specs(self, small_complex):
        cfg_raw = ci_scale_config(4)
        cfg_desc = ci_scale_config(4, observation_mode="descriptor")
        fns = [
            lambda: make_env(cfg_raw, small_complex),
            lambda: make_env(cfg_desc, small_complex),
        ]
        with pytest.raises(ValueError, match="environments disagree"):
            make_vector_env(env_fns=fns)
