"""Tables, ASCII plots, running statistics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.ascii_plot import ascii_line_plot, sparkline
from repro.utils.running_stats import RunningStats
from repro.utils.tables import render_table


class TestRenderTable:
    def test_basic_layout(self):
        out = render_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = out.splitlines()
        assert lines[0].startswith("+")
        assert "| a " in lines[1]
        # all rows same width
        assert len({len(l) for l in lines}) == 1

    def test_title_prepended(self):
        out = render_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_right_alignment(self):
        out = render_table(["num"], [[5], [500]], align=["r"])
        row = out.splitlines()[3]
        assert row == "|   5 |"

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_rejects_bad_align(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1]], align=["l", "r"])

    @given(
        st.lists(
            st.lists(st.integers(-1000, 1000), min_size=2, max_size=2),
            min_size=0,
            max_size=10,
        )
    )
    def test_never_raises_on_int_rows(self, rows):
        out = render_table(["c1", "c2"], rows)
        assert "c1" in out


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_length_matches(self):
        assert len(sparkline([1, 2, 3])) == 3

    def test_monotone_values_monotone_blocks(self):
        s = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert s[0] == "▁" and s[-1] == "█"

    def test_constant_input(self):
        s = sparkline([5, 5, 5])
        assert len(s) == 3 and len(set(s)) == 1

    def test_nan_becomes_space(self):
        assert sparkline([1.0, float("nan"), 2.0])[1] == " "


class TestAsciiLinePlot:
    def test_empty(self):
        assert "(no data)" in ascii_line_plot([])

    def test_contains_title_and_stars(self):
        out = ascii_line_plot([1, 2, 3, 2, 1], title="curve")
        assert out.splitlines()[0] == "curve"
        assert "*" in out

    def test_constant_series(self):
        out = ascii_line_plot([3, 3, 3, 3])
        assert "*" in out

    def test_all_nan(self):
        assert "(no finite data)" in ascii_line_plot([float("nan")] * 4)

    def test_buckets_long_series(self):
        out = ascii_line_plot(list(range(1000)), width=40)
        # No line should exceed label + axis + width characters.
        assert max(len(l) for l in out.splitlines()) <= 10 + 3 + 41


class TestRunningStats:
    def test_matches_numpy(self, rng):
        data = rng.normal(size=100)
        s = RunningStats()
        for x in data:
            s.update(x)
        assert s.mean == pytest.approx(data.mean())
        assert s.variance == pytest.approx(data.var())

    def test_vector_shape(self, rng):
        s = RunningStats((3,))
        for _ in range(10):
            s.update(rng.normal(size=3))
        assert s.mean.shape == (3,)
        assert (s.std >= 0).all()

    def test_shape_mismatch_rejected(self):
        s = RunningStats((2,))
        with pytest.raises(ValueError):
            s.update([1.0, 2.0, 3.0])

    def test_variance_before_two_samples(self):
        s = RunningStats()
        assert s.variance == 0.0
        s.update(5.0)
        assert s.variance == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_property_matches_numpy(self, values):
        s = RunningStats()
        for v in values:
            s.update(v)
        arr = np.asarray(values)
        assert s.mean == pytest.approx(arr.mean(), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(arr.var(), rel=1e-6, abs=1e-4)
