"""The on-disk field-map cache: warm from disk == cold build, bit for bit.

``FieldMaps.ensure`` loads each missing map group from
``$XDG_CACHE_HOME/repro/field-maps`` when it is there and builds it
otherwise (:mod:`repro.scoring.fieldbuild`).  Pinned here: every array
of both levels, the candidate table, the combined stack and the scores
of a warm load equal a cold build's; the key moves with every input of
the values; a damaged file is rebuilt and replaced, never trusted; an
unwritable cache only costs the store; a lazily added type loads the
old maps and builds only the new ones; and a build that fails after a
partial hit leaves the maps as they were; without a known BLAS kernel
set nothing is cached.  The build pool runs with one BLAS thread and
restores the count after.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.runtime import threads
from repro.scoring import fieldbuild
from repro.scoring.field import (
    FIELD_LOADS_METRIC,
    FieldMaps,
    FieldScorer,
)
from repro.scoring.fieldbuild import _MapBuild, _MapStore
from repro.telemetry.metrics import MetricsRegistry

SPACING = 0.8
PADDING = 5.0
SPECS = [
    (3.4, 0.086, False, False),
    (3.25, 0.17, True, True),
    (3.1, 0.12, False, True),
]
MORE_SPECS = [(2.9, 0.2, True, True), (3.4, 0.086, True, False)]


@pytest.fixture(autouse=True)
def _cold(cold_map_cache):
    """Each test starts from an empty cache of its own."""


@pytest.fixture()
def receptor(small_complex):
    return small_complex.receptor


def _maps(receptor, **kw) -> FieldMaps:
    return FieldMaps(receptor, spacing=SPACING, padding=PADDING, **kw)


def _arrays(maps: FieldMaps) -> dict:
    out = {}
    for tag, level in (("fine", maps), ("outer", maps.outer)):
        out[f"{tag}.phi"] = level.phi
        for key, (rep, disp) in level._lj.items():
            out[f"{tag}.lj{key}"] = np.stack([rep, disp])
        for cls, arr in level._hb1210.items():
            out[f"{tag}.hb1210{cls}"] = arr
        for pair, (rep, disp) in level._hblj.items():
            out[f"{tag}.hblj{pair}"] = np.stack([rep, disp])
    for name in ("cand_start", "cand_count", "cand_atoms", "near_mask"):
        out[name] = getattr(maps, name)
    return out


def _assert_same(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype, name
        assert got[name].shape == arr.shape, name
        assert got[name].tobytes() == arr.tobytes(), name


def _cache_files(maps) -> list:
    return sorted(_MapStore(maps).dir.glob("*.npy"))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_warm_from_disk_equals_cold(receptor, small_complex, rng, dtype):
    cold = _maps(receptor, dtype=dtype)
    assert cold.ensure(SPECS)
    assert (cold.build_count, cold.load_count) == (1, 0)
    files = _cache_files(cold)
    assert files and all(".tmp-" not in f.name for f in files)
    warm = _maps(receptor, dtype=dtype)
    assert warm.ensure(SPECS)
    assert (warm.build_count, warm.load_count) == (0, 1)
    _assert_same(_arrays(warm), _arrays(cold))
    for level in (warm, warm.outer):
        loaded = [level.phi, *level._hb1210.values()]
        for pair in (*level._lj.values(), *level._hblj.values()):
            loaded.extend(pair)
        for arr in loaded:
            assert type(arr) is np.ndarray and not arr.flags.writeable
    assert warm._slot == cold._slot
    assert warm.flat_stack().tobytes() == cold.flat_stack().tobytes()
    assert warm.nbytes() == cold.nbytes()
    lig = small_complex.ligand_crystal
    kw = dict(spacing=SPACING, padding=PADDING, dtype=dtype)
    s_cold = FieldScorer(receptor, lig, cells=cold, **kw)
    s_warm = FieldScorer(receptor, lig, cells=warm, **kw)
    poses = lig.coords + rng.normal(scale=1.0, size=(6,) + lig.coords.shape)
    poses[0, 0] = receptor.coords[3]  # a clash: the candidate table
    poses[1] += 30.0  # the outer level
    want = s_cold.score_batch(poses)
    assert want.tobytes() == s_warm.score_batch(poses).tobytes()
    assert want.tobytes() == np.array(
        [s_warm.score(p) for p in poses]
    ).tobytes()


def test_key_moves_with_every_input(receptor, monkeypatch):
    base = _MapStore(_maps(receptor)).dir
    moved = receptor.coords.copy()
    moved[0, 0] += 1e-9
    charges = receptor.charges.copy()
    charges[1] = -charges[1] + 0.5
    donor = receptor.hbond_donor.copy()
    donor[0] = not donor[0]
    variants = [
        _maps(dataclasses.replace(receptor, coords=moved)),
        _maps(dataclasses.replace(receptor, charges=charges)),
        _maps(dataclasses.replace(receptor, hbond_donor=donor)),
        _maps(dataclasses.replace(
            receptor, bonds=np.array([[0, 1]], dtype=np.int64))),
        FieldMaps(receptor, spacing=SPACING * 1.5, padding=PADDING),
        FieldMaps(receptor, spacing=SPACING, padding=PADDING + 1.0),
        FieldMaps(receptor, spacing=SPACING, padding=PADDING,
                  clash_radius=2.5),
        _maps(receptor, dtype="float32"),
    ]
    dirs = {_MapStore(m).dir for m in variants}
    assert base not in dirs and len(dirs) == len(variants)
    monkeypatch.setattr(fieldbuild, "FORMAT_VERSION", 2)
    assert _MapStore(_maps(receptor)).dir != base
    monkeypatch.setattr(fieldbuild, "FORMAT_VERSION", 1)
    monkeypatch.setattr(fieldbuild, "_SOURCE_DIGEST", "edited")
    assert _MapStore(_maps(receptor)).dir != base


def test_cache_root_follows_xdg(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert fieldbuild.cache_root() == tmp_path / "repro" / "field-maps"
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/dir")  # ignored
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert fieldbuild.cache_root() == (
        tmp_path / "home" / ".cache" / "repro" / "field-maps"
    )


@pytest.mark.parametrize("damage", ["truncated", "empty", "garbage",
                                    "wrong-dtype", "appended"])
def test_damaged_file_is_rebuilt(receptor, damage):
    cold = _maps(receptor)
    cold.ensure(SPECS)
    want = _arrays(cold)
    victims = [f for f in _cache_files(cold) if "outer" in f.name]
    for path in victims[:3]:
        data = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(data[: len(data) - 9])
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "garbage":
            path.write_bytes(np.random.default_rng(1).bytes(len(data)))
        elif damage == "wrong-dtype":
            np.save(path, np.zeros(8, dtype=np.int16))
        else:
            path.write_bytes(data + b"\0" * 8)
    again = _maps(receptor)
    assert again.ensure(SPECS)
    assert again.build_count == 1  # the damaged groups were rebuilt
    _assert_same(_arrays(again), want)
    # ... and their files replaced: the next process loads everything.
    last = _maps(receptor)
    last.ensure(SPECS)
    assert (last.build_count, last.load_count) == (0, 1)
    _assert_same(_arrays(last), want)


def test_unwritable_cache_builds_and_scores(
    receptor, small_complex, monkeypatch, tmp_path
):
    lig = small_complex.ligand_crystal
    ref = FieldScorer(receptor, lig, spacing=SPACING, padding=PADDING)
    want = ref.score(lig.coords)
    # A cache root below a regular file cannot be created, whatever
    # the user's permissions.
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "xdg"))
    sc = FieldScorer(receptor, lig, spacing=SPACING, padding=PADDING)
    assert sc.score(lig.coords) == want
    assert sc.maps.build_count == 1 and not (blocker / "xdg").exists()
    # A directory that exists but refuses writes.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "ro"))

    def refuse(*_a, **_k):
        raise PermissionError("read-only file system")

    monkeypatch.setattr(fieldbuild.os, "replace", refuse)
    sc = FieldScorer(receptor, lig, spacing=SPACING, padding=PADDING)
    assert sc.score(lig.coords) == want
    assert sc.maps.build_count == 1
    assert not list((tmp_path / "ro").rglob("*.npy"))
    assert not list((tmp_path / "ro").rglob(".tmp-*"))


def _spy_builds(monkeypatch) -> list:
    calls = []
    real = _MapBuild.__init__

    def init(self, maps, first, lj_keys, classes, hb_pairs):
        calls.append((first, list(lj_keys), list(classes), list(hb_pairs)))
        real(self, maps, first, lj_keys, classes, hb_pairs)

    monkeypatch.setattr(_MapBuild, "__init__", init)
    return calls


def test_lazy_type_loads_old_builds_new(receptor, monkeypatch):
    cold = _maps(receptor)
    cold.ensure(SPECS)
    ref = _maps(receptor)
    ref.ensure(SPECS)  # loads
    calls = _spy_builds(monkeypatch)
    maps = _maps(receptor)
    maps.ensure(SPECS)
    assert calls == [] and maps.load_count == 1
    maps.ensure(MORE_SPECS)
    [(first, lj_keys, classes, hb_pairs)] = calls
    assert not first and lj_keys == [(2.9, 0.2)]
    assert ((2.9, 0.2), (True, True)) in hb_pairs
    assert not set(classes) & set(ref._hb1210)
    assert not set(hb_pairs) & set(ref._hblj)
    assert (maps.build_count, maps.load_count) == (1, 1)
    # A fresh process with both type sets on disk builds nothing.
    calls.clear()
    warm = _maps(receptor)
    warm.ensure(SPECS + MORE_SPECS)
    assert calls == [] and warm.build_count == 0
    _assert_same(_arrays(warm), _arrays(maps))
    with monkeypatch.context() as m:
        m.setenv("XDG_CACHE_HOME", str(fieldbuild.cache_root()) + "-cold")
        cold.ensure(MORE_SPECS)
    _assert_same(_arrays(warm), _arrays(cold))


def test_partial_hit_then_failed_build_changes_nothing(receptor, monkeypatch):
    _maps(receptor).ensure(SPECS)  # on disk: SPECS' groups only
    maps = _maps(receptor)

    def fail(self, ws, job):
        raise RuntimeError("build failed")

    with monkeypatch.context() as m:
        m.setattr(_MapBuild, "_chunk", fail)
        with pytest.raises(RuntimeError, match="build failed"):
            maps.ensure(SPECS + MORE_SPECS)
    assert maps.phi is None and maps.outer.phi is None
    assert maps.near_mask is None and maps._lj == {} and maps._slot == {}
    assert maps.outer._lj == {} and maps._hblj == {}
    assert (maps.build_count, maps.load_count) == (0, 0)
    # The retry completes, and equals a cold build of everything.
    assert maps.ensure(SPECS + MORE_SPECS)
    with monkeypatch.context() as m:
        m.setenv("XDG_CACHE_HOME", str(fieldbuild.cache_root()) + "-cold")
        cold = _maps(receptor)
        cold.ensure(SPECS + MORE_SPECS)
    assert cold.build_count == 1
    _assert_same(_arrays(maps), _arrays(cold))


def test_load_count_published(receptor, small_complex):
    lig = small_complex.ligand_crystal
    for expected in (0.0, 1.0):
        sc = FieldScorer(receptor, lig, spacing=SPACING, padding=PADDING)
        sc.metrics = MetricsRegistry()
        sc.score(lig.coords)
        assert sc.metrics.get(FIELD_LOADS_METRIC).value == expected


def test_build_pool_runs_one_blas_thread(receptor, monkeypatch):
    if threads.BLAS_CONTROL is None:
        pytest.skip("no controllable BLAS in this numpy build")
    lib = threads.BLAS_CONTROL
    seen = []
    real = fieldbuild._run_pool

    def spy(work, jobs, workspaces):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        real(work, jobs, workspaces)

    monkeypatch.setattr(fieldbuild, "_run_pool", spy)
    before = lib.scipy_openblas_get_num_threads64_()
    with threads.blas_threads(2):
        _maps(receptor).ensure(SPECS)
        assert lib.scipy_openblas_get_num_threads64_() == 2
    assert seen == [1]
    assert lib.scipy_openblas_get_num_threads64_() == before


def test_blas_threads_without_control_is_a_noop(monkeypatch):
    monkeypatch.setattr(threads, "BLAS_CONTROL", None)
    with threads.blas_threads(1) as before:
        assert before is None
    assert threads.blas_build() is None


def test_unknown_blas_kernels_build_only(receptor, monkeypatch):
    # A key that cannot name the BLAS kernels would let two CPUs share
    # bits: nothing is read or written, every process builds.
    monkeypatch.setattr(fieldbuild, "blas_build", lambda: None)
    for _ in range(2):
        maps = _maps(receptor)
        maps.ensure(SPECS)
        assert (maps.build_count, maps.load_count) == (1, 0)
    assert not fieldbuild.cache_root().exists()
