"""Field-map construction: the on-disk map cache and the build kernel.

:meth:`repro.scoring.field.FieldMaps.ensure` decides which maps a
ligand's atom types are missing and hands them to :func:`fill_maps`.
Each missing map is first looked up in a content-addressed cache on
disk, and only the maps not found there go through :class:`_MapBuild`,
the chunked, multi-threaded build kernel.  Every map bit a load yields
is a bit a cold build of the same maps yields: the files are what a
build wrote, and their key covers every input of the values.

The cache
---------
Files live under ``$XDG_CACHE_HOME/repro/field-maps/`` (``~/.cache``
when the variable is unset or not absolute; read at each use), one
directory per receptor and lattice configuration, one ``.npy`` per
array a build writes: phi, per-type LJ rep/disp, per-class 12-10,
per-(type, class) H-bond LJ (all on both levels) and the fine level's
clash-voxel CSR table.  The directory key hashes the receptor arrays
(coordinates, charges, sigma, epsilon, donor/acceptor flags, bonds),
both levels' geometry and dtype, the derived H-bond topology and the
physical constants the kernel reads, :data:`FORMAT_VERSION`, the numpy
version and the BLAS build and kernel set (:func:`blas_build`), and a
digest of this module's source.  A file's name adds the map kind and
the atom-type key.  So an edited build kernel, another BLAS or another
receptor never meets old bits: it looks under another name.  Where the
BLAS kernel set cannot be read (a numpy without the bundled
scipy-openblas), the key could not tell two CPUs' kernels apart, so
the cache is off and every map is built.

Files are written atomically (a temp file in the same directory,
fsynced, then ``os.replace``) and loaded read-only as memory maps,
exposed as plain read-only ndarrays.  A file whose header, dtype, shape
or length is not what the key promises (torn, truncated, garbage) is
never trusted: its map group is rebuilt and the file replaced.  When
the directory cannot be created or written, the build result is simply
not stored.  ``ensure`` stays all or nothing: loaded and built arrays
are attached to the maps together, after the build has succeeded.
Nothing is evicted (every source edit or numpy/BLAS upgrade starts a
new directory); clear the cache with ``rm -rf ~/.cache/repro/field-maps``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.constants import COULOMB_CONSTANT
from repro.runtime.threads import blas_build, blas_threads
from repro.scoring import hbond as hb

#: Bump when the file layout or the meaning of a cached array changes.
FORMAT_VERSION = 1

#: The 12-10 H-bond coefficients every H-bond map is built with.
_C_HB, _D_HB = hb.hbond_coefficients()


def cache_root() -> Path:
    """``$XDG_CACHE_HOME/repro/field-maps`` (``~/.cache`` by default)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro" / "field-maps"


#: Digest of this module's source: the kernel that computes the values
#: (the inputs it reads from elsewhere are keyed by value).
_SOURCE_DIGEST = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


def fill_maps(maps, first, lj_keys, classes, hb_pairs) -> tuple[bool, bool]:
    """Attach the missing maps to ``maps`` and its outer level.

    ``first`` asks for the type-independent content (phi on both
    levels, the fine level's candidate table); the lists name the
    missing per-type / per-class maps, as ``FieldMaps.ensure`` found
    them.  Each group is loaded from the cache when all of its files
    are there and sound, and built otherwise.  Returns ``(built,
    loaded)``: whether a build pass ran and whether any group came off
    disk.  Raises whatever the build raises, with ``maps`` untouched.
    """
    store = _MapStore(maps)
    groups = []
    if first:
        groups.append(("base", None))
    groups += [("_lj", k) for k in lj_keys]
    groups += [("_hb1210", c) for c in classes]
    groups += [("_hblj", p) for p in hb_pairs]
    entries: dict = {}
    missing = []
    for group in groups:
        got = store.load(group)
        if got is None:
            missing.append(group)
        else:
            entries.update(got)
    loaded = bool(entries)
    built = {}
    if missing:
        todo = {kind: [k for g, k in missing if g == kind]
                for kind in ("_lj", "_hb1210", "_hblj")}
        built = _MapBuild(
            maps, ("base", None) in missing,
            todo["_lj"], todo["_hb1210"], todo["_hblj"],
        ).run()
        entries.update(built)
    _attach(maps, entries)
    for group in missing:
        store.save(group, built)
    return bool(missing), loaded


def _entries(group) -> list[tuple]:
    """``(level, attr, key, part)`` of every array of one map group:
    level 0 is the fine level, 1 the outer; ``part`` picks rep / disp."""
    kind, key = group
    if kind == "base":
        return [(0, "phi", None, None), (1, "phi", None, None)] + [
            (0, name, None, None)
            for name in ("cand_start", "cand_count", "cand_atoms", "near_mask")
        ]
    parts = (None,) if kind == "_hb1210" else (0, 1)
    return [(lv, kind, key, part) for lv in (0, 1) for part in parts]


def _attach(maps, entries: dict) -> None:
    """Write ``entries`` onto both levels: new dicts are assembled
    first, so the maps change only once every array is in hand."""
    levels = (maps, maps.outer)
    updates: list[dict] = [{}, {}]
    for (lv, attr, key, part), arr in entries.items():
        if key is None:
            updates[lv][attr] = arr
            continue
        table = updates[lv].setdefault(attr, dict(getattr(levels[lv], attr)))
        if part is None:
            table[key] = arr
        else:
            pair = list(table.get(key, (None, None)))
            pair[part] = arr
            table[key] = tuple(pair)
    for level, attrs in zip(levels, updates):
        for name, value in attrs.items():
            setattr(level, name, value)


def _type_tag(kind: str, key) -> str:
    """File-name tag of a map group's atom-type key (``repr`` of a
    Python float round-trips exactly)."""
    if kind == "base":
        return "base"
    digest = hashlib.sha256(repr(key).encode()).hexdigest()[:20]
    return f"{kind.strip('_')}-{digest}"


class _MapStore:
    """The cache directory of one receptor and lattice configuration."""

    def __init__(self, maps):
        rec = maps.receptor
        h = hashlib.sha256()

        def add(*values):
            for v in values:
                if isinstance(v, np.ndarray):
                    v = np.ascontiguousarray(v)
                    h.update(f"{v.dtype.str}{v.shape}".encode())
                    h.update(v.tobytes())
                else:
                    h.update(repr(v).encode())
                h.update(b"\0")

        kernels = blas_build()
        add(FORMAT_VERSION, _SOURCE_DIGEST, np.__version__, kernels)
        add(COULOMB_CONSTANT, _C_HB, _D_HB)
        add(rec.coords, rec.charges, rec.sigma, rec.epsilon,
            rec.hbond_donor, rec.hbond_acceptor, rec.bonds)
        add(maps._hrel, maps._hdirs, maps._hdot, maps._hiso)
        for level in (maps, maps.outer):
            add(level.origin, level.shape, level.spacing, level.padding,
                level.clip_radius, level.flag_radius, level.dtype)
        self.maps = maps
        self.dir = cache_root() / h.hexdigest()[:32]
        # A key that cannot name the BLAS kernels does not pin the bits
        # (another CPU may share the directory): build only.
        self.enabled = self.writable = kernels is not None

    def _path(self, group, entry) -> Path:
        kind, key = group
        lv, attr, _, part = entry
        tag = _type_tag(kind, key)
        if kind in ("_hb1210", "_hblj"):
            # The class rule lives in FieldMaps: key on its result.
            cls = key if kind == "_hb1210" else key[1]
            sel = self.maps.class_eligible(cls)
            tag += "-" + hashlib.sha256(sel.tobytes()).hexdigest()[:12]
        name = f".{attr}" if kind == "base" else {0: ".rep", 1: ".disp"}.get(
            part, ""
        )
        return self.dir / f"{tag}.{('fine', 'outer')[lv]}{name}.npy"

    def _expect(self, entry):
        """(dtype, shape) a file must hold; shape None = any 1-D."""
        lv, attr, _, _ = entry
        level = (self.maps, self.maps.outer)[lv]
        shape3 = tuple(int(v) for v in level.shape)
        return {
            "near_mask": (np.dtype(bool), shape3),
            "cand_count": (np.dtype(np.int32), (level.n_nodes,)),
            "cand_start": (np.dtype(np.int64), (level.n_nodes,)),
            "cand_atoms": (np.dtype(np.int32), None),
        }.get(attr, (level._np_dtype, shape3))

    def load(self, group) -> dict | None:
        """Every array of ``group`` read-only off disk, or None."""
        if not self.enabled:
            return None
        out = {}
        for entry in _entries(group):
            arr = _read(self._path(group, entry), *self._expect(entry))
            if arr is None:
                return None
            out[entry] = arr
        if group[0] == "base":
            count = out[(0, "cand_count", None, None)]
            start = out[(0, "cand_start", None, None)]
            atoms = out[(0, "cand_atoms", None, None)]
            n = int(start[-1]) + int(count[-1]) if count.size else 0
            if atoms.size != n:
                return None
        return out

    def save(self, group, built: dict) -> None:
        """Store a built group's arrays; silently gives up (for this
        and every later group) when the directory is not writable."""
        if not self.writable:
            return
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            for entry in _entries(group):
                _write(self._path(group, entry), built[entry])
        except OSError:
            self.writable = False


def _read(path: Path, dtype, shape):
    """A read-only view of the ``.npy`` at ``path`` if it holds exactly
    ``dtype`` / ``shape`` (``None``: any 1-D length) and nothing else;
    None for a missing, torn, truncated or foreign file."""
    try:
        with open(path, "rb") as f:
            version = np.lib.format.read_magic(f)
            read_header = {
                (1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0,
            }[version]
            got_shape, fortran, got_dtype = read_header(f)
            offset = f.tell()
            size = os.fstat(f.fileno()).st_size
    except Exception:  # unreadable or not an .npy: never trusted
        return None
    if fortran or got_dtype != dtype or len(got_shape) != (
        1 if shape is None else len(shape)
    ):
        return None
    if shape is not None and tuple(got_shape) != shape:
        return None
    nbytes = int(np.prod(got_shape, dtype=np.int64)) * dtype.itemsize
    if size != offset + nbytes:
        return None
    try:
        mm = np.memmap(path, dtype=dtype, mode="r", offset=offset,
                       shape=tuple(got_shape))
    except (OSError, ValueError):
        return None
    return mm.view(np.ndarray)


def _write(path: Path, arr: np.ndarray) -> None:
    """Write ``arr`` to ``path`` atomically: readers see the old file
    or the whole new one, never a part."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-",
                               suffix=".npy")
    try:
        with os.fdopen(fd, "wb") as f:
            np.lib.format.write_array(
                f, np.ascontiguousarray(arr), allow_pickle=False
            )
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _pool_size(n_jobs: int) -> int:
    """Build threads: one per core this process may run on, at most
    one per node chunk (a one-thread pool is the sequential build)."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # no affinity API (macOS, Windows)
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_jobs))


def _run_pool(work, jobs, workspaces) -> None:
    """``work(ws, job)`` for every job, one thread per workspace.

    The caller's thread drains the job list with ``workspaces[0]``;
    each further workspace gets its own thread.  Jobs are handed out
    one at a time, so cheap and dear chunks balance.  The first error
    (a worker's exception, or an interrupt in the caller) stops every
    thread after its current job and is raised here once all of them
    have been joined.
    """
    pending = iter(jobs)
    lock = threading.Lock()
    stop = threading.Event()
    errors: list[BaseException] = []

    def drain(ws):
        try:
            while not stop.is_set():
                with lock:
                    job = next(pending, None)
                if job is None:
                    return
                work(ws, job)
        except BaseException as exc:  # raised in the caller, below
            errors.append(exc)
            stop.set()

    threads = [
        threading.Thread(target=drain, args=(ws,), name=f"field-build-{i}")
        for i, ws in enumerate(workspaces[1:], 1)
    ]
    for t in threads:
        t.start()
    try:
        drain(workspaces[0])
    finally:
        stop.set()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


class _Workspace:
    """One build thread's scratch, allocated once by the caller.

    Each chunk operand is the ``rows * width`` prefix of a flat buffer,
    so a short last chunk gets the layout a fresh array of its shape
    would have: every GEMV and row sum sees the operands the sequential
    build gave it, whether the chunk is full or not.
    """

    def __init__(self, chunk: int, n: int, n_h: int):
        self.iota = np.arange(chunk, dtype=np.int64)
        self.node = np.empty(chunk, dtype=np.int64)
        self.ijk = np.empty((chunk, 3), dtype=np.int64)
        self.pts = np.empty((chunk, 3))
        self.sq = np.empty((chunk, 3))
        self.p2 = np.empty(chunk)
        self.mask = np.empty(chunk * n, dtype=bool)
        # (chunk, n_receptor) blocks: r2, 1/r, and two power buffers.
        self.wide = np.empty((4, chunk * n))
        # (n_h, chunk) blocks of the H-bond terms (at most that wide).
        self.narrow = np.empty((9, chunk * n_h))

    @staticmethod
    def block(buf: np.ndarray, j: int, rows: int, cols: int) -> np.ndarray:
        """C-contiguous ``(rows, cols)`` view of ``buf[j]``'s prefix."""
        return buf[j, : rows * cols].reshape(rows, cols)


def _take_rows(x: np.ndarray, sel: np.ndarray, buf: np.ndarray):
    """Rows ``sel`` of ``x`` into ``buf`` (``x`` itself if ``sel``
    lists every row: ``sel`` is ascending and unique)."""
    if sel.size == x.shape[0]:
        return x
    return np.take(x, sel, axis=0, out=buf)


class _LevelOutputs:
    """One lattice level's float64 build outputs, pending commit."""

    def __init__(self, level, build: "_MapBuild"):
        n_nodes = level.n_nodes
        self.level = level
        # The clash-voxel candidate table exists on the fine level only.
        self.tabulate = build.first and level.outer is not None
        self.phi = np.empty(n_nodes) if build.first else None
        self.count = (
            np.zeros(n_nodes, dtype=np.int32) if self.tabulate else None
        )
        # Per-chunk candidate lists; None where a chunk has none.
        self.cand: list[np.ndarray | None] = (
            [None] * -(-n_nodes // build.chunk) if self.tabulate else []
        )
        self.lj = {k: (np.empty(n_nodes), np.empty(n_nodes))
                   for k in build.lj_keys}
        self.hb1210 = {c: np.empty(n_nodes) for c in build.classes}
        self.hblj = {p: (np.empty(n_nodes), np.empty(n_nodes))
                     for p in build.hb_pairs}

    def finished(self, lv: int) -> dict:
        """The level's new arrays in the map dtype, keyed like
        :func:`_entries` (``lv``: this level's index)."""
        level = self.level
        shape3 = tuple(int(v) for v in level.shape)

        def stored(arr):
            return arr.astype(level._np_dtype, copy=False).reshape(shape3)

        out = {}
        for attr, maps in (("_lj", self.lj), ("_hblj", self.hblj)):
            for key, (rep, disp) in maps.items():
                out[(lv, attr, key, 0)] = stored(rep)
                out[(lv, attr, key, 1)] = stored(disp)
        for cls, arr in self.hb1210.items():
            out[(lv, "_hb1210", cls, None)] = stored(arr)
        if self.phi is not None:
            out[(lv, "phi", None, None)] = stored(self.phi)
        if self.tabulate:
            count = self.count
            starts = np.zeros(level.n_nodes, dtype=np.int64)
            starts[1:] = np.cumsum(count[:-1], dtype=np.int64)
            parts = [c for c in self.cand if c is not None]
            csr = {
                "near_mask": (count > 0).reshape(shape3),
                "cand_count": count,
                "cand_start": starts,
                "cand_atoms": (
                    np.concatenate(parts)
                    if parts
                    else np.empty(0, dtype=np.int32)
                ),
            }
            out.update({(lv, k, None, None): v for k, v in csr.items()})
        return out


class _MapBuild:
    """One ``ensure`` build pass: the missing maps of both levels.

    Both levels' lattices are cut into the same fixed node chunks of
    ``max(32, 200_000 // n_receptor)`` rows -- a function of the
    receptor alone, so every map sees the same chunk boundaries
    whichever pass builds it (shared == private, warm == cold
    bitwise); a different chunk size changes the GEMVs' row blocking
    and with it the bits.  The chunks are spread over a thread pool
    (:func:`_pool_size`; numpy and BLAS release the GIL), each thread
    running :meth:`_chunk` through its own :class:`_Workspace`.  Each
    chunk writes only its own rows of the outputs, so the result does
    not depend on which thread ran which chunk or on the pool size.
    The per-node arithmetic is the sequential build's, operation for
    operation (``tests/frozen_field_build.py`` pins the bits).
    """

    def __init__(self, maps, first, lj_keys, classes, hb_pairs):
        rec = maps.receptor
        self.first = first
        self.lj_keys = lj_keys
        self.classes = classes
        self.hb_pairs = hb_pairs
        self.n = n = rec.n_atoms
        # Cache-sized (chunk, n) temporaries (~1.6 MB each): with 32 MB
        # ones the build was page-fault/DRAM-bound and twice as slow.
        self.chunk = max(32, int(200_000 // max(1, n)))
        self.coords_t = rec.coords.T
        self.a2 = (rec.coords * rec.coords).sum(axis=1)[None, :]
        self.q = rec.charges
        # Per-type receptor weight vectors: 4 sqrt(eps_j eps_t) with the
        # *arithmetic* sigma combination (sigma_j + sigma_t)/2 -- the
        # exact Lorentz-Berthelot pair coefficients.
        self.w12 = {}
        self.w6 = {}
        for key in {k for k in lj_keys} | {p[0] for p in hb_pairs}:
            sig_t, eps_t = key
            sig_pair = 0.5 * (rec.sigma + sig_t)
            eps_pair = 4.0 * np.sqrt(rec.epsilon * eps_t)
            s6 = sig_pair**6
            self.w6[key] = eps_pair * s6
            self.w12[key] = eps_pair * s6 * s6
        rel = maps._hrel
        self.need_hb = bool(classes or hb_pairs) and bool(rel.size)
        self.rel = rel
        # The h-relevant atoms with a direction, for the angle terms.
        self.aniso_cols = np.flatnonzero(~maps._hiso)
        self.adirs_t = maps._hdirs[self.aniso_cols].T
        self.adot = maps._hdot[self.aniso_cols]
        # Per class: its columns within the h-relevant subset, and the
        # (type x class) weight vectors gathered on them.
        self.class_plan = []
        for cls in {c for c in classes} | {p[1] for p in hb_pairs}:
            sel = maps.class_eligible(cls)
            gsel = rel[sel]
            weights = [
                (p, self.w12[p[0]][gsel], self.w6[p[0]][gsel])
                for p in hb_pairs
                if p[1] == cls
            ]
            directed = bool((~maps._hiso[sel]).any())
            self.class_plan.append((cls, sel, directed, weights))
        self.levels = [
            _LevelOutputs(maps, self), _LevelOutputs(maps.outer, self)
        ]

    def run(self) -> dict:
        """Compute both levels; returns their arrays keyed like
        :func:`_entries`, without touching the maps."""
        jobs = [
            (out, i, start)
            for out in self.levels
            for i, start in enumerate(
                range(0, out.level.n_nodes, self.chunk)
            )
        ]
        workspaces = [
            _Workspace(self.chunk, self.n, self.rel.size)
            for _ in range(_pool_size(len(jobs)))
        ]
        # One BLAS thread per build thread: a threaded BLAS under the
        # pool fights it for the cores (2x the CPU time for nothing).
        with blas_threads(1):
            _run_pool(self._chunk, jobs, workspaces)
        out = {}
        for lv, level_out in enumerate(self.levels):
            out.update(level_out.finished(lv))
        return out

    def _chunk(self, ws: _Workspace, job) -> None:
        """Rows ``start:start + chunk`` of one level's outputs."""
        out, i, start = job
        level = out.level
        n = self.n
        rows = min(self.chunk, level.n_nodes - start)
        stop = start + rows

        def wide(j):
            return ws.block(ws.wide, j, rows, n)

        _, ny, nz = (int(v) for v in level.shape)
        # Node coordinates: origin + spacing * (ix, iy, iz).
        node = np.add(ws.iota[:rows], start, out=ws.node[:rows])
        ijk = ws.ijk[:rows]
        np.divmod(node, ny * nz, out=(ijk[:, 0], node))
        np.divmod(node, nz, out=(ijk[:, 1], ijk[:, 2]))
        pts = np.multiply(level.spacing, ijk, out=ws.pts[:rows])
        np.add(level.origin, pts, out=pts)
        # |x - a|^2 via one GEMM; every kernel below sees the distance
        # clipped at clash_radius (f_clip), so the fields stay smooth
        # even on nodes inside receptor atoms.
        sq = np.multiply(pts, pts, out=ws.sq[:rows])
        p2 = np.sum(sq, axis=1, out=ws.p2[:rows])[:, None]
        r2 = wide(0)
        g = np.matmul(pts, self.coords_t, out=wide(3))
        np.multiply(2.0, g, out=g)
        np.add(p2, self.a2, out=r2)
        np.subtract(r2, g, out=r2)
        flag_r2 = level.flag_radius**2
        if out.tabulate and r2.min() <= flag_r2:
            # Voxel candidate extraction from the same distances the
            # maps integrate, on the chunks that have any: the flat
            # nonzero is row-major, so the CSR lists come out
            # node-major with atoms ascending -- the canonical order
            # the pair corrections sum in.
            mask = ws.mask[: rows * n].reshape(rows, n)
            np.less_equal(r2, flag_r2, out=mask)
            np.sum(mask, axis=1, out=out.count[start:stop])
            atoms = np.flatnonzero(mask)
            np.remainder(atoms, n, out=atoms)
            out.cand[i] = atoms.astype(np.int32)
        np.maximum(r2, level.clip_radius**2, out=r2)
        inv_r = np.sqrt(r2, out=wide(1))
        np.divide(1.0, inv_r, out=inv_r)
        if out.phi is not None:
            phi = np.matmul(inv_r, self.q, out=out.phi[start:stop])
            np.multiply(COULOMB_CONSTANT, phi, out=phi)
        if self.lj_keys:
            inv_r2 = np.multiply(inv_r, inv_r, out=wide(2))
            inv_r6 = np.multiply(inv_r2, inv_r2, out=g)
            np.multiply(inv_r6, inv_r2, out=inv_r6)
            inv_r12 = np.multiply(inv_r6, inv_r6, out=inv_r2)
            for key in self.lj_keys:
                rep, disp = out.lj[key]
                np.matmul(inv_r12, self.w12[key], out=rep[start:stop])
                np.matmul(inv_r6, self.w6[key], out=disp[start:stop])
        if self.need_hb:
            self._hbond_rows(ws, out, pts, r2, rows, start)

    def _hbond_rows(self, ws, out, pts, r2, rows, start) -> None:
        """The H-bond maps' rows of one chunk.

        The terms only see the donor/acceptor columns: gather them once
        and work on the narrow block (elementwise, so the same floats as
        on the full block).  The block is held transposed, ``(n_h,
        rows)``: a class's columns are then contiguous rows, and the
        column-major ``(rows, k)`` operands that ``x[:, sel]`` gave the
        row sums and GEMVs -- which fix their summation order -- are
        its plain ``.T`` views.
        """
        stop = start + rows
        n_h = self.rel.size

        def block(j, k=n_h):
            return ws.block(ws.narrow, j, k, rows)

        gathered = ws.block(ws.narrow, 0, rows, n_h)
        np.take(r2, self.rel, axis=1, out=gathered)
        r2_h = block(1)
        np.copyto(r2_h, gathered.T)
        # 1/r on the gathered r2: the same floats as gathering 1/r.
        inv_h = np.sqrt(r2_h, out=block(2))
        np.divide(1.0, inv_h, out=inv_h)
        inv2_h = np.multiply(inv_h, inv_h, out=block(3))
        inv6_h = np.multiply(inv2_h, inv2_h, out=block(4))
        np.multiply(inv6_h, inv2_h, out=inv6_h)
        inv12_h = np.multiply(inv6_h, inv6_h, out=inv2_h)
        # cos(theta_j(x)) = dir_j . (x - a_j) / r_clip: the
        # clipped-distance normalization is deliberate -- the pair
        # corrections subtract exactly this convention.  Clamped to
        # [0, 1] by maximum then minimum (np.clip's bits).  An atom
        # without a direction is ideally aligned: cos = 1 and
        # (1 - sin) = 1, exactly what the pipeline yields for it, so the
        # pipeline runs on the directed rows alone (none, on a receptor
        # without bonds).
        cos = block(5)
        cos.fill(1.0)
        oms = block(0)
        oms.fill(1.0)
        ani = self.aniso_cols
        if ani.size:
            k = ani.size
            dots = np.matmul(
                pts, self.adirs_t, out=ws.block(ws.narrow, 6, rows, k)
            )
            cos_a = np.subtract(dots.T, self.adot[:, None], out=block(7, k))
            np.multiply(cos_a, _take_rows(inv_h, ani, block(8, k)), out=cos_a)
            np.maximum(cos_a, 0.0, out=cos_a)
            np.minimum(cos_a, 1.0, out=cos_a)
            cos[ani] = cos_a
            oms_a = np.multiply(cos_a, cos_a, out=block(6, k))
            np.subtract(1.0, oms_a, out=oms_a)
            np.maximum(0.0, oms_a, out=oms_a)
            np.sqrt(oms_a, out=oms_a)
            np.subtract(1.0, oms_a, out=oms_a)  # now (1 - sin)
            oms[ani] = oms_a
        # e_1210 = c inv12 - d (inv12 r2), into the spent 1/r block.
        np.multiply(inv12_h, r2_h, out=r2_h)
        np.multiply(_D_HB, r2_h, out=r2_h)
        e_1210 = np.multiply(_C_HB, inv12_h, out=inv_h)
        np.subtract(e_1210, r2_h, out=e_1210)
        for cls, sel, directed, weights in self.class_plan:
            a, b, c = (block(j, sel.size) for j in (6, 7, 8))
            # A class without directed atoms weighs by cos = 1 and
            # (1 - sin) = 1: the products would copy their operands.
            if cls in out.hb1210:
                prod = _take_rows(e_1210, sel, b)
                if directed:
                    prod = np.multiply(_take_rows(cos, sel, a), prod, out=a)
                np.sum(prod.T, axis=1, out=out.hb1210[cls][start:stop])
            if weights:
                oms12 = _take_rows(inv12_h, sel, b)
                oms6 = _take_rows(inv6_h, sel, c)
                if directed:
                    oms_c = _take_rows(oms, sel, a)
                    oms12 = np.multiply(oms_c, oms12, out=b)
                    oms6 = np.multiply(oms_c, oms6, out=c)
                for pair, w12, w6 in weights:
                    rep, disp = out.hblj[pair]
                    np.matmul(oms12.T, w12, out=rep[start:stop])
                    np.matmul(oms6.T, w6, out=disp[start:stop])


