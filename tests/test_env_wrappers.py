"""Environment wrappers and comm channels in isolation."""

import numpy as np
import pytest

from repro.env.comm import FileComm, RamComm, make_comm
from repro.env.wrappers import TimeLimit


class FakeEnv:
    """Deterministic stub environment for wrapper tests."""

    def __init__(self, horizon=1000):
        self.horizon = horizon
        self.t = 0
        self.n_actions = 2
        self.state_dim = 3

    def reset(self):
        self.t = 0
        return np.array([0.0, 0.0, 0.0])

    def step(self, action):
        self.t += 1
        state = np.array([float(self.t), 2.0 * self.t, -1.0])
        done = self.t >= self.horizon
        return state, 1.0, done, {"score": float(self.t)}


class TestTimeLimit:
    def test_truncates(self):
        env = TimeLimit(FakeEnv(), max_steps=3)
        env.reset()
        for _ in range(2):
            _s, _r, done, _i = env.step(0)
            assert not done
        _s, _r, done, info = env.step(0)
        assert done
        assert info["termination"] == "time-limit"
        assert info["time_limit_truncated"]

    def test_reset_restarts_counter(self):
        env = TimeLimit(FakeEnv(), max_steps=2)
        env.reset()
        env.step(0)
        env.reset()
        _s, _r, done, _i = env.step(0)
        assert not done

    def test_inner_done_preserved(self):
        env = TimeLimit(FakeEnv(horizon=1), max_steps=100)
        env.reset()
        _s, _r, done, info = env.step(0)
        assert done
        assert "time_limit_truncated" not in info

    def test_invalid_max_steps(self):
        with pytest.raises(ValueError):
            TimeLimit(FakeEnv(), 0)

    def test_attribute_delegation(self):
        env = TimeLimit(FakeEnv(), 5)
        assert env.n_actions == 2
        assert env.state_dim == 3


class TestCommChannels:
    def test_ram_identity(self):
        comm = RamComm()
        s = np.arange(4.0)
        out_s, out_score = comm.exchange(s, -3.5)
        assert out_s is s
        assert out_score == -3.5

    def test_file_roundtrip_exact(self, tmp_path):
        comm = FileComm(tmp_path)
        s = np.array([1.5, -2.25e21, 3e-300])
        out_s, out_score = comm.exchange(s, -4.5e21)
        np.testing.assert_array_equal(out_s, s)
        assert out_score == -4.5e21

    def test_file_fsync_mode(self, tmp_path):
        comm = FileComm(tmp_path, fsync=True)
        out_s, out_score = comm.exchange(np.zeros(3), 1.0)
        assert out_score == 1.0

    def test_tempdir_cleanup(self):
        comm = FileComm()
        d = comm.directory
        comm.exchange(np.zeros(2), 0.0)
        assert d.exists()
        comm.close()
        assert not d.exists()

    def test_context_manager(self):
        with FileComm() as comm:
            comm.exchange(np.zeros(1), 0.0)
            d = comm.directory
        assert not d.exists()

    def test_factory(self):
        assert isinstance(make_comm("ram"), RamComm)
        fc = make_comm("file")
        assert isinstance(fc, FileComm)
        fc.close()
        with pytest.raises(ValueError):
            make_comm("pipe")
