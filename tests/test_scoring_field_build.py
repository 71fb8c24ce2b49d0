"""The field-map build kernel against the frozen sequential build.

Every field score reads the maps, so the build is pinned bit for bit:
each map and candidate-table array of ``FieldMaps.ensure`` must equal
(``==``, same dtype) what the sequential build in
``tests/frozen_field_build.py`` produces -- at every thread-pool size,
on a lattice whose chunk count no pool size divides, and for a lazy
second ``ensure`` that adds types to built maps.  The pool is joined
before ``ensure`` returns, a worker's error reaches the caller, and a
build that fails part-way leaves the maps as they were, so a retry
builds exactly what a cold build does.
"""

from __future__ import annotations

import collections
import os
import sys
import threading

import numpy as np
import pytest

from repro.chem.builders import build_complex
from repro.config import ci_scale_config
from repro.scoring import fieldbuild
from repro.scoring.field import FieldMaps, FieldScorer
from repro.scoring.fieldbuild import _MapBuild
from tests.conftest import with_random_bonds
from tests.frozen_field_build import frozen_ensure

#: A CI-scale lattice cut into 32 fine + 5 outer node chunks: 37 jobs,
#: which no pool size tested here divides, and a short last chunk on
#: both levels.
SPACING = 0.6
PADDING = 6.0
#: Every kind of type: no H-bond class, both flags (all h-relevant
#: receptor atoms eligible), and each single flag (a column subset).
SPECS = [
    (3.4, 0.086, False, False),
    (3.25, 0.17, True, True),
    (3.1, 0.12, False, True),
    (3.3, 0.09, True, False),
]
#: Types a lazy second ensure adds: a new LJ key in a built class, and
#: a built LJ key in a new (type x class) pair.
MORE_SPECS = [(2.9, 0.2, True, True), (3.4, 0.086, True, False)]


@pytest.fixture(autouse=True)
def _cold(cold_map_cache):
    """Every test here asserts a cold build: no map comes off disk."""


@pytest.fixture(scope="module")
def receptor():
    return build_complex(ci_scale_config().complex).receptor


@pytest.fixture(scope="module")
def bonded_receptor(receptor):
    """The receptor with random bonds: most H-bond atoms have an
    outward direction (the anisotropic angle path), a few stay
    isotropic."""
    return with_random_bonds(receptor, seed=11, per_atom=0.5)


def _maps(receptor) -> FieldMaps:
    return FieldMaps(receptor, spacing=SPACING, padding=PADDING)


def _arrays(maps: FieldMaps) -> dict:
    """Every array a build writes, by name, on both levels."""
    out = {}
    for tag, level in (("fine", maps), ("outer", maps.outer)):
        out[f"{tag}.phi"] = level.phi
        for key, (rep, disp) in level._lj.items():
            out[f"{tag}.lj{key}.rep"] = rep
            out[f"{tag}.lj{key}.disp"] = disp
        for cls, arr in level._hb1210.items():
            out[f"{tag}.hb1210{cls}"] = arr
        for pair, (rep, disp) in level._hblj.items():
            out[f"{tag}.hblj{pair}.rep"] = rep
            out[f"{tag}.hblj{pair}.disp"] = disp
    for name in ("cand_start", "cand_count", "cand_atoms", "near_mask"):
        out[name] = getattr(maps, name)
    return out


def _assert_same(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype, name
        assert got[name].shape == arr.shape, name
        assert np.array_equal(got[name], arr), name


@pytest.fixture(scope="module")
def frozen(receptor):
    """Frozen builds: SPECS alone, then SPECS + MORE_SPECS lazily."""
    maps = _maps(receptor)
    frozen_ensure(maps, SPECS)
    first = _arrays(maps)
    frozen_ensure(maps, MORE_SPECS)
    return first, _arrays(maps), maps.build_count


def _force_pool(monkeypatch, size: int) -> None:
    monkeypatch.setattr(fieldbuild, "_pool_size", lambda n_jobs: min(size, n_jobs))


def test_lattice_has_ragged_chunks(receptor):
    maps = _maps(receptor)
    chunk = max(32, 200_000 // receptor.n_atoms)
    jobs = sum(-(-lv.n_nodes // chunk) for lv in (maps, maps.outer))
    assert jobs == 37
    assert maps.n_nodes % chunk and maps.outer.n_nodes % chunk


@pytest.mark.parametrize("pool", [1, 2, 3])
def test_build_equals_frozen(receptor, frozen, monkeypatch, pool):
    _force_pool(monkeypatch, pool)
    want_first, want_more, want_builds = frozen
    maps = _maps(receptor)
    threads = threading.active_count()
    assert maps.ensure(SPECS)
    assert threading.active_count() == threads
    _assert_same(_arrays(maps), want_first)
    # Lazy growth: only the missing maps are built, onto built levels.
    assert maps.ensure(MORE_SPECS)
    assert threading.active_count() == threads
    _assert_same(_arrays(maps), want_more)
    assert maps.build_count == want_builds
    assert not maps.ensure(SPECS + MORE_SPECS)


def test_stress_more_threads_than_cores(receptor, frozen, monkeypatch):
    # Every job is handed out exactly once, whatever the interleaving:
    # more threads than cores, and a thread switch every microsecond.
    pool = 2 * (os.cpu_count() or 1) + 1
    _force_pool(monkeypatch, pool)
    calls = collections.Counter()
    lock = threading.Lock()
    real = _MapBuild._chunk

    def chunk(self, ws, job):
        with lock:
            calls[(id(job[0]), job[1])] += 1
        real(self, ws, job)

    monkeypatch.setattr(_MapBuild, "_chunk", chunk)
    maps = _maps(receptor)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        build_thread = threading.Thread(target=maps.ensure, args=(SPECS,))
        build_thread.start()
        build_thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not build_thread.is_alive()
    assert len(calls) == 37 and set(calls.values()) == {1}
    _assert_same(_arrays(maps), frozen[0])


@pytest.mark.parametrize("pool", [1, 2])
def test_bonded_build_equals_frozen(bonded_receptor, monkeypatch, pool):
    _force_pool(monkeypatch, pool)
    ref = _maps(bonded_receptor)
    h = ref._hrel.size
    assert 0 < int(ref._hiso.sum()) < h
    frozen_ensure(ref, SPECS)
    want_first = _arrays(ref)
    frozen_ensure(ref, MORE_SPECS)
    maps = _maps(bonded_receptor)
    assert maps.ensure(SPECS)
    _assert_same(_arrays(maps), want_first)
    assert maps.ensure(MORE_SPECS)
    _assert_same(_arrays(maps), _arrays(ref))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_stored_dtype(receptor, dtype):
    maps = FieldMaps(receptor, spacing=SPACING, padding=PADDING, dtype=dtype)
    maps.ensure(SPECS)
    ref = FieldMaps(receptor, spacing=SPACING, padding=PADDING, dtype=dtype)
    frozen_ensure(ref, SPECS)
    _assert_same(_arrays(maps), _arrays(ref))


def _failing_chunk(should_fail, exc):
    real = _MapBuild._chunk

    def chunk(self, ws, job):
        if should_fail(job):
            raise exc
        real(self, ws, job)

    return chunk


def test_worker_error_reaches_caller(receptor, monkeypatch):
    _force_pool(monkeypatch, 2)
    raised = threading.Event()
    real = _MapBuild._chunk

    def chunk(self, ws, job):
        if threading.current_thread() is not threading.main_thread():
            raised.set()
            raise RuntimeError("worker failed")
        # Hold the caller's thread until the worker has taken a job.
        assert raised.wait(timeout=30)
        real(self, ws, job)

    monkeypatch.setattr(_MapBuild, "_chunk", chunk)
    maps = _maps(receptor)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        maps.ensure(SPECS)
    assert threading.active_count() == threads
    assert maps.phi is None and maps.outer.phi is None
    assert maps._slot == {} and maps.build_count == 0


@pytest.mark.parametrize(
    "exc", [RuntimeError("outer pass failed"), KeyboardInterrupt(),
            MemoryError()],
    ids=["error", "interrupt", "memory"],
)
def test_failed_outer_pass_is_all_or_nothing(
    receptor, monkeypatch, tmp_path, exc
):
    cold = _maps(receptor)
    with monkeypatch.context() as m:  # a cache of its own: stays cold
        m.setenv("XDG_CACHE_HOME", str(tmp_path / "reference"))
        cold.ensure(SPECS + MORE_SPECS)
    maps = _maps(receptor)
    # Fail on the outer level: its jobs follow the fine level's.
    with monkeypatch.context() as m:
        m.setattr(
            _MapBuild, "_chunk",
            _failing_chunk(lambda job: job[0].level is maps.outer, exc),
        )
        with pytest.raises(type(exc)):
            maps.ensure(SPECS)
    assert maps.phi is None and maps.near_mask is None
    assert maps.outer.phi is None
    assert maps._slot == {} and maps._lj == {} and maps.build_count == 0
    # The retry builds everything, as a cold build would.
    assert maps.ensure(SPECS)
    # A failed lazy extension leaves the built maps and slots alone.
    before = _arrays(maps)
    slots = dict(maps._slot)
    with monkeypatch.context() as m:
        m.setattr(
            _MapBuild, "_chunk",
            _failing_chunk(lambda job: job[0].level is maps.outer, exc),
        )
        with pytest.raises(type(exc)):
            maps.ensure(MORE_SPECS)
    _assert_same(_arrays(maps), before)
    assert maps._slot == slots and maps.build_count == 1
    assert maps.ensure(MORE_SPECS)
    _assert_same(_arrays(maps), _arrays(cold))
    assert maps._slot == cold._slot
    assert np.array_equal(maps.flat_stack(), cold.flat_stack())


def test_retried_maps_score_like_cold(receptor, monkeypatch):
    built = build_complex(ci_scale_config().complex)
    lig = built.ligand_crystal
    maps = _maps(receptor)
    with monkeypatch.context() as m:
        m.setattr(
            _MapBuild, "_chunk",
            _failing_chunk(
                lambda job: job[0].level is maps.outer, RuntimeError()
            ),
        )
        with pytest.raises(RuntimeError):
            FieldScorer(
                receptor, lig, spacing=SPACING, padding=PADDING, cells=maps
            ).score(lig.coords)
    warm = FieldScorer(
        receptor, lig, spacing=SPACING, padding=PADDING, cells=maps
    )
    cold = FieldScorer(receptor, lig, spacing=SPACING, padding=PADDING)
    rng = np.random.default_rng(5)
    for _ in range(5):
        pose = lig.coords + rng.normal(scale=0.5, size=lig.coords.shape)
        assert warm.score(pose) == cold.score(pose)  # bitwise
