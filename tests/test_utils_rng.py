"""RNG plumbing: determinism and independence."""

import numpy as np

from repro.utils.rng import RngFactory, as_generator


class TestAsGenerator:
    def test_int_seed_is_deterministic(self):
        a = as_generator(42).uniform(size=5)
        b = as_generator(42).uniform(size=5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough_shares_state(self):
        gen = np.random.default_rng(0)
        same = as_generator(gen)
        assert same is gen

    def test_none_gives_fresh_generator(self):
        a = as_generator(None)
        b = as_generator(None)
        assert isinstance(a, np.random.Generator)
        # Overwhelmingly unlikely to collide.
        assert not np.array_equal(a.uniform(size=8), b.uniform(size=8))

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        gen = as_generator(seq)
        assert isinstance(gen, np.random.Generator)


class TestRngFactory:
    def test_same_name_same_instance(self):
        f = RngFactory(1)
        assert f.get("env") is f.get("env")

    def test_streams_independent_of_request_order(self):
        f1 = RngFactory(7)
        f2 = RngFactory(7)
        _ = f1.get("zzz")  # request another stream first
        a = f1.get("env").uniform(size=6)
        b = f2.get("env").uniform(size=6)
        np.testing.assert_array_equal(a, b)

    def test_different_names_differ(self):
        f = RngFactory(7)
        a = f.get("a").uniform(size=6)
        b = f.get("b").uniform(size=6)
        assert not np.array_equal(a, b)

    def test_seeds_helper_deterministic(self):
        assert RngFactory(3).seeds("w", 4) == RngFactory(3).seeds("w", 4)

    def test_different_master_seeds_differ(self):
        a = RngFactory(1).get("x").uniform(size=6)
        b = RngFactory(2).get("x").uniform(size=6)
        assert not np.array_equal(a, b)
