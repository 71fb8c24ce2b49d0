"""Frozen copy of the sequential field-map build (test-only).

``FieldMaps.ensure`` / ``FieldMaps._build_pass`` as they ran before the
workspace build kernel replaced them: one sequential loop over the
fixed node chunks, fresh temporaries and all, copied verbatim with
``self`` renamed ``maps``.  It exists for one reader and must not be
"optimized": ``tests/test_scoring_field_build.py`` pins every map and
candidate-table array of the live build to it with ``==`` (each clamp,
power, gather and GEMV of the build is a bit of every field score).

Only the static topology (``class_eligible``, the h-relevant subset,
the lattice geometry) is read from the live :class:`FieldMaps` -- it is
not part of the per-node arithmetic.  :func:`frozen_ensure` writes its
results onto a fresh, never-ensured ``FieldMaps``.
"""

from __future__ import annotations

import numpy as np

from repro.constants import COULOMB_CONSTANT
from repro.scoring import hbond as hb


def frozen_ensure(maps, specs) -> bool:
    specs = list(specs)
    for s in specs:
        if s not in maps._slot:
            maps._slot[s] = len(maps._slot)
    lj_keys = []
    for s in specs:
        key = (s[0], s[1])
        if key not in maps._lj and key not in lj_keys:
            lj_keys.append(key)
    classes = []
    hb_pairs = []
    for s in specs:
        cls = (s[2], s[3])
        if not (cls[0] or cls[1]):
            continue
        if maps.class_eligible(cls).size == 0:
            continue
        if cls not in maps._hb1210 and cls not in classes:
            classes.append(cls)
        key = (s[0], s[1])
        pair = (key, cls)
        if pair not in maps._hblj and pair not in hb_pairs:
            hb_pairs.append(pair)
    first = maps.phi is None
    if not (first or lj_keys or classes or hb_pairs):
        return False
    frozen_build_pass(maps, first, lj_keys, classes, hb_pairs)
    if maps.outer is not None:
        frozen_build_pass(maps.outer, first, lj_keys, classes, hb_pairs)
    maps.build_count += 1
    return True


def frozen_build_pass(maps, first, lj_keys, classes, hb_pairs) -> None:
    rec = maps.receptor
    n = rec.n_atoms
    nx, ny, nz = (int(v) for v in maps.shape)
    n_nodes = maps.n_nodes
    # The clash-voxel candidate table exists on the fine level only.
    tabulate = first and maps.outer is not None
    # Per-type receptor weight vectors: 4 sqrt(eps_j eps_t) with the
    # *arithmetic* sigma combination (sigma_j + sigma_t)/2 -- the
    # exact Lorentz-Berthelot pair coefficients.
    w12 = {}
    w6 = {}
    for key in {k for k in lj_keys} | {p[0] for p in hb_pairs}:
        sig_t, eps_t = key
        sig_pair = 0.5 * (rec.sigma + sig_t)
        eps_pair = 4.0 * np.sqrt(rec.epsilon * eps_t)
        s6 = sig_pair**6
        w6[key] = eps_pair * s6
        w12[key] = eps_pair * s6 * s6
    rel = maps._hrel
    need_hb = bool(classes or hb_pairs) and bool(rel.size)
    sel_of_cls = {
        cls: maps.class_eligible(cls)
        for cls in {c for c in classes} | {p[1] for p in hb_pairs}
    }
    pairs_of_cls = {
        cls: [p for p in hb_pairs if p[1] == cls] for cls in sel_of_cls
    }
    c_hb, d_hb = hb.hbond_coefficients()
    # Flat accumulation buffers (float64 during the build; stored
    # astype(maps.dtype) at the end).
    out_phi = np.empty(n_nodes) if first else None
    out_count = np.zeros(n_nodes, dtype=np.int32) if tabulate else None
    cand_chunks: list[np.ndarray] = []
    out_lj = {k: (np.empty(n_nodes), np.empty(n_nodes)) for k in lj_keys}
    out_1210 = {c: np.empty(n_nodes) for c in classes}
    out_hblj = {
        p: (np.empty(n_nodes), np.empty(n_nodes)) for p in hb_pairs
    }
    flag_r2 = maps.flag_radius**2
    clip_r2 = maps.clip_radius**2
    # Chunk the node list so the ~10 live (chunk, n_rec) float64
    # temporaries stay cache-sized (~1.6 MB each): with 32 MB
    # temporaries the build was page-fault/DRAM-bound and twice as
    # slow.  The chunk size depends on the receptor only, so every
    # map sees the same chunk boundaries whichever pass builds it
    # (shared == private, warm == cold bitwise).
    chunk = max(32, int(200_000 // max(1, n)))
    coords = rec.coords
    a2 = (coords * coords).sum(axis=1)[None, :]
    q = rec.charges
    for start in range(0, n_nodes, chunk):
        stop = min(start + chunk, n_nodes)
        flat = np.arange(start, stop, dtype=np.int64)
        iz = flat % nz
        iy = (flat // nz) % ny
        ix = flat // (ny * nz)
        pts = maps.origin + maps.spacing * np.stack(
            [ix, iy, iz], axis=1
        ).astype(float)
        # |x - a|^2 via one GEMM; every kernel below sees the
        # distance clipped at clash_radius (f_clip), so the fields
        # stay smooth even on nodes inside receptor atoms.
        p2 = (pts * pts).sum(axis=1)[:, None]
        r2 = p2 + a2 - 2.0 * (pts @ coords.T)
        if tabulate:
            # Voxel candidate extraction from the same distances
            # the maps integrate: nonzero is row-major, so the CSR
            # lists come out node-major with atoms ascending -- the
            # canonical order the pair corrections sum in.
            node_r, atom_c = np.nonzero(r2 <= flag_r2)
            out_count[start:stop] = np.bincount(
                node_r, minlength=stop - start
            )
            cand_chunks.append(atom_c.astype(np.int32))
        np.maximum(r2, clip_r2, out=r2)
        inv_r = 1.0 / np.sqrt(r2)
        if first:
            out_phi[start:stop] = COULOMB_CONSTANT * (inv_r @ q)
        if lj_keys:
            inv_r2 = inv_r * inv_r
            inv_r6 = inv_r2 * inv_r2 * inv_r2
            inv_r12 = inv_r6 * inv_r6
            for key in lj_keys:
                out_lj[key][0][start:stop] = inv_r12 @ w12[key]
                out_lj[key][1][start:stop] = inv_r6 @ w6[key]
        if need_hb:
            # The H-bond terms only see the donor/acceptor columns:
            # gather them once and take powers on the narrow block
            # (elementwise, so the same floats as gathering powers
            # of the full block).
            inv_h = inv_r[:, rel]
            r2_h = r2[:, rel]
            inv2_h = inv_h * inv_h
            inv6_h = inv2_h * inv2_h * inv2_h
            inv12_h = inv6_h * inv6_h
            # cos(theta_j(x)) = dir_j . (x - a_j) / r_clip: the
            # clipped-distance normalization is deliberate -- the
            # pair corrections subtract exactly this convention.
            cos = (pts @ maps._hdirs.T - maps._hdot) * inv_h
            cos[:, maps._hiso] = 1.0
            np.clip(cos, 0.0, 1.0, out=cos)
            sin = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
            np.subtract(1.0, sin, out=sin)  # now (1 - sin)
            e_1210 = c_hb * inv12_h - d_hb * (inv12_h * r2_h)
            for cls, sel in sel_of_cls.items():
                if cls in out_1210:
                    out_1210[cls][start:stop] = (
                        cos[:, sel] * e_1210[:, sel]
                    ).sum(axis=1)
                if pairs_of_cls[cls]:
                    gsel = rel[sel]
                    oms = sin[:, sel]
                    oms12 = oms * inv12_h[:, sel]
                    oms6 = oms * inv6_h[:, sel]
                    for pair in pairs_of_cls[cls]:
                        key = pair[0]
                        out_hblj[pair][0][start:stop] = (
                            oms12 @ w12[key][gsel]
                        )
                        out_hblj[pair][1][start:stop] = (
                            oms6 @ w6[key][gsel]
                        )
    dt = maps._np_dtype
    shape3 = (nx, ny, nz)
    if first:
        maps.phi = out_phi.astype(dt).reshape(shape3)
    if tabulate:
        maps.near_mask = (out_count > 0).reshape(shape3)
        maps.cand_count = out_count
        starts = np.zeros(n_nodes, dtype=np.int64)
        starts[1:] = np.cumsum(out_count[:-1], dtype=np.int64)
        maps.cand_start = starts
        maps.cand_atoms = (
            np.concatenate(cand_chunks)
            if cand_chunks
            else np.empty(0, dtype=np.int32)
        )
    for key in lj_keys:
        maps._lj[key] = (
            out_lj[key][0].astype(dt).reshape(shape3),
            out_lj[key][1].astype(dt).reshape(shape3),
        )
    for cls in classes:
        maps._hb1210[cls] = out_1210[cls].astype(dt).reshape(shape3)
    for pair in hb_pairs:
        maps._hblj[pair] = (
            out_hblj[pair][0].astype(dt).reshape(shape3),
            out_hblj[pair][1].astype(dt).reshape(shape3),
        )
