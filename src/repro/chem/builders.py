"""Deterministic synthetic receptor-ligand complexes (the 2BSM stand-in).

The paper evaluates on the wwPDB pair 2BSM: a 3,264-atom receptor with a
single known crystallographic binding recess, and a 45-atom ligand that
starts displaced from the protein (Figure 3).  Offline we cannot fetch the
crystal structure, so this module *constructs* a complex with the same
learning-relevant properties:

- a globular receptor of the requested atom count with one concave
  binding pocket carved into its surface;
- pocket-lining atoms that are charge- and hydrogen-bond-complementary to
  the generated ligand, so the crystallographic pose is the global score
  maximum (score = negated interaction energy; see
  :mod:`repro.scoring.composite`);
- a steep steric wall inside the protein (the paper's "going deeper ...
  makes the scoring function dramatically decrease");
- a ligand with explicit bonds and at least the requested number of
  rotatable bonds (2BSM's ligand folds in 6);
- an initial pose displaced ``initial_offset`` angstroms from the pocket
  mouth along the pocket axis, like Figure 3's position (A).

Everything is a pure function of :class:`repro.config.ComplexConfig`,
including its seed, so every test/bench sees the identical complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.chem.molecule import Molecule
from repro.chem.topology import rotatable_bonds
from repro.config import ComplexConfig
from repro.utils.rng import as_generator

#: Pocket axis is fixed to +z; rotations of the whole complex are applied
#: afterwards if isotropy is needed (tests rely on the fixed axis).
POCKET_AXIS = np.array([0.0, 0.0, 1.0])

#: Approximate receptor element composition (protein-like, explicit H).
_RECEPTOR_COMPOSITION = [
    ("H", 0.48), ("C", 0.32), ("N", 0.09), ("O", 0.095), ("S", 0.015),
]

_LATTICE_SPACING = 2.2  # angstrom between receptor lattice atoms


@dataclass(frozen=True)
class BuiltComplex:
    """A receptor plus the two reference ligand poses of Figure 3."""

    receptor: Molecule
    #: Ligand at the crystallographic pose (Figure 3, position B).
    ligand_crystal: Molecule
    #: Ligand at the initial displaced pose (Figure 3, position A).
    ligand_initial: Molecule
    #: Unit vector from receptor center through the pocket mouth.
    pocket_axis: np.ndarray
    #: Center of the binding recess (angstrom).
    pocket_center: np.ndarray
    config: ComplexConfig

    @property
    def initial_com_distance(self) -> float:
        """Distance between receptor and initial-ligand centers of mass --
        the quantity whose 4/3 multiple defines the escape radius."""
        return float(
            np.linalg.norm(
                self.ligand_initial.center_of_mass()
                - self.receptor.center_of_mass()
            )
        )


def _ball_lattice(radius: float, spacing: float) -> np.ndarray:
    """Jittered cubic lattice points inside a ball (deterministic layout)."""
    k = int(math.ceil(radius / spacing))
    axis = np.arange(-k, k + 1) * spacing
    xx, yy, zz = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    # Offset alternating planes for a denser, less axis-aligned packing.
    pts = pts + (np.abs(pts[:, 2:3] / spacing) % 2) * (spacing / 2) * np.array(
        [[1.0, 1.0, 0.0]]
    )
    inside = np.linalg.norm(pts, axis=1) <= radius
    return pts[inside]


def _in_pocket(points: np.ndarray, cfg: ComplexConfig) -> np.ndarray:
    """Mask of points inside the carved conical pocket region."""
    r = np.linalg.norm(points, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = np.where(r > 0, points @ POCKET_AXIS / np.maximum(r, 1e-12), 1.0)
    ang = np.arccos(np.clip(cosang, -1.0, 1.0))
    return (ang <= cfg.pocket_aperture) & (
        r >= cfg.receptor_radius - cfg.pocket_depth
    )


def build_receptor(cfg: ComplexConfig) -> Molecule:
    """Construct the synthetic receptor with exactly ``cfg.receptor_atoms``.

    Lattice atoms fill a ball of ``cfg.receptor_radius``; the pocket cone
    is removed; the count is trimmed to the target by discarding the
    outermost non-pocket-lining atoms (keeping the pocket geometry intact)
    or, if short, by shrinking the lattice spacing and retrying.
    """
    rng = as_generator(cfg.seed)
    spacing = _LATTICE_SPACING
    for _attempt in range(8):
        pts = _ball_lattice(cfg.receptor_radius, spacing)
        pts = pts + rng.normal(scale=0.25, size=pts.shape)  # de-crystallize
        pts = pts[~_in_pocket(pts, cfg)]
        if len(pts) >= cfg.receptor_atoms:
            break
        spacing *= 0.85
    else:  # pragma: no cover - config would have to be pathological
        raise RuntimeError("could not pack enough receptor atoms")

    # Identify pocket-lining atoms (near the carved cone) and protect them
    # from trimming: they carry the complementary chemistry.
    lining = _pocket_lining_mask(pts, cfg)
    order = np.argsort(np.linalg.norm(pts, axis=1))  # innermost first
    protected = np.nonzero(lining)[0]
    unprotected = np.array(
        [i for i in order if not lining[i]], dtype=np.int64
    )
    n_needed = cfg.receptor_atoms - protected.size
    if n_needed < 0:
        # Pathologically small receptor: keep the innermost lining atoms.
        keep = protected[
            np.argsort(np.linalg.norm(pts[protected], axis=1))
        ][: cfg.receptor_atoms]
    else:
        keep = np.concatenate([protected, unprotected[:n_needed]])
    keep = np.sort(keep)
    pts = pts[keep]
    lining = lining[keep]

    symbols = _sample_composition(rng, len(pts))
    # Pocket lining: polar heavy atoms (O/N acceptors) with negative
    # charge, complementary to the positively charged ligand.
    lining_idx = np.nonzero(lining)[0]
    for rank, i in enumerate(lining_idx):
        symbols[i] = "O" if rank % 2 == 0 else "N"

    mol = Molecule.from_symbols(symbols, pts, name="receptor")
    charges = mol.charges.copy()
    charges[lining_idx] = -0.55
    # Sprinkle a few strongly positive surface sites away from the pocket:
    # these create the paper's "two positives too close" repulsion events.
    surface = np.nonzero(
        np.linalg.norm(pts, axis=1) >= cfg.receptor_radius - 2.5
    )[0]
    surface = np.setdiff1d(surface, lining_idx)
    if surface.size:
        n_pos = max(1, surface.size // 20)
        pos_sites = rng.choice(surface, size=n_pos, replace=False)
        charges[pos_sites] = +0.60
    # Keep the receptor roughly neutral overall.
    charges -= charges.mean()
    charges[lining_idx] = np.minimum(charges[lining_idx], -0.35)
    mol.charges = charges
    mol.hbond_acceptor = mol.hbond_acceptor.copy()
    mol.hbond_acceptor[lining_idx] = True
    return mol


def _pocket_lining_mask(pts: np.ndarray, cfg: ComplexConfig) -> np.ndarray:
    """Atoms within one shell of the pocket cone boundary."""
    r = np.linalg.norm(pts, axis=1)
    with np.errstate(invalid="ignore"):
        cosang = np.where(r > 0, pts @ POCKET_AXIS / np.maximum(r, 1e-12), 1.0)
    ang = np.arccos(np.clip(cosang, -1.0, 1.0))
    near_angle = np.abs(ang - cfg.pocket_aperture) <= 0.22
    deep_floor = (
        (ang <= cfg.pocket_aperture)
        & (np.abs(r - (cfg.receptor_radius - cfg.pocket_depth)) <= 1.8)
    )
    in_shell = (r >= cfg.receptor_radius - cfg.pocket_depth - 1.8) & (
        r <= cfg.receptor_radius + 0.5
    )
    return (near_angle & in_shell) | deep_floor


def _sample_composition(rng: np.random.Generator, n: int) -> list[str]:
    """Draw ``n`` element symbols from the protein-like composition."""
    syms = [s for s, _w in _RECEPTOR_COMPOSITION]
    weights = np.array([w for _s, w in _RECEPTOR_COMPOSITION])
    weights = weights / weights.sum()
    return list(rng.choice(syms, size=n, p=weights))


def build_ligand(cfg: ComplexConfig) -> Molecule:
    """Grow a branched, self-avoiding drug-like ligand of the target size.

    Heavy atoms are grown as a tree with ~1.5 angstrom bonds and
    tetrahedral-ish angles; hydrogens are appended to terminal positions to
    reach ``cfg.ligand_atoms`` exactly.  The growth guarantees at least
    ``cfg.rotatable_bonds`` rotatable bonds (the chain is kept long enough
    and acyclic).  Charges are biased positive so the anionic pocket
    attracts the ligand.
    """
    # Growth is stochastic; rarely a seed yields too few rotatable bonds.
    # Retry with derived sub-seeds (still a pure function of cfg.seed).
    last_error: RuntimeError | None = None
    for attempt in range(16):
        try:
            return _grow_ligand(cfg, cfg.seed + 1 + 1000003 * attempt)
        except RuntimeError as exc:
            last_error = exc
    raise RuntimeError(
        f"ligand growth failed after 16 attempts: {last_error}"
    )


def _grow_ligand(cfg: ComplexConfig, seed: int) -> Molecule:
    """One growth attempt (see :func:`build_ligand`)."""
    rng = as_generator(seed)
    n_total = cfg.ligand_atoms
    # Heavy-atom budget: enough chain for the rotatable-bond requirement,
    # roughly 40% of atoms heavy (drug-like with explicit H).
    n_heavy = max(cfg.rotatable_bonds + 3, int(round(n_total * 0.45)), 3)
    n_heavy = min(n_heavy, n_total - 1)

    bond_len = 1.5
    coords = [np.zeros(3)]
    parents = [-1]
    heavy_syms = ["C"]
    # Grow a mostly-linear tree: extend from the most recent atom with
    # high probability (long backbone => many rotatable bonds), branch
    # occasionally.
    while len(coords) < n_heavy:
        base = len(coords) - 1 if rng.uniform() < 0.8 else int(
            rng.integers(0, len(coords))
        )
        placed = False
        for _try in range(64):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            # Bias growth away from the parent to keep the chain extended.
            if parents[base] >= 0:
                away = coords[base] - coords[parents[base]]
                away /= max(np.linalg.norm(away), 1e-9)
                direction = direction + 1.2 * away
                direction /= np.linalg.norm(direction)
            cand = coords[base] + bond_len * direction
            dists = np.linalg.norm(np.asarray(coords) - cand, axis=1)
            if (dists > 1.25).all():
                coords.append(cand)
                parents.append(base)
                heavy_syms.append(
                    str(rng.choice(["C", "C", "C", "N", "O"]))
                )
                placed = True
                break
        if not placed:
            continue  # dead end: try again from a fresh random base

    heavy_coords = np.asarray(coords)
    bonds = [(parents[i], i) for i in range(1, n_heavy)]

    # Hydrogens: attach to heavy atoms with spare valence, round-robin.
    n_h = n_total - n_heavy
    coords_all = list(heavy_coords)
    syms_all = list(heavy_syms)
    h_host = list(range(n_heavy))
    rng.shuffle(h_host)
    hi = 0
    attached = 0
    while attached < n_h:
        host = h_host[hi % n_heavy]
        hi += 1
        for _try in range(32):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            cand = coords_all[host] + 1.05 * direction
            dists = np.linalg.norm(np.asarray(coords_all) - cand, axis=1)
            if (dists > 0.9).all():
                bonds.append((host, len(coords_all)))
                coords_all.append(cand)
                syms_all.append("H")
                attached += 1
                break
        else:  # pragma: no cover - extremely unlikely with 32 tries
            attached += 1  # skip rather than loop forever

    coords_arr = np.asarray(coords_all)[: n_total]
    syms_all = syms_all[: n_total]
    bonds_arr = np.asarray(
        [(min(i, j), max(i, j)) for i, j in bonds if j < n_total],
        dtype=np.int64,
    ).reshape(-1, 2)

    mol = Molecule.from_symbols(
        syms_all, coords_arr - coords_arr.mean(axis=0), bonds=bonds_arr,
        name="ligand",
    )
    # Positive net charge, concentrated on N atoms (protonated amines).
    charges = mol.charges.copy() * 0.3
    n_sites = [i for i, s in enumerate(mol.symbols) if s == "N"]
    for i in n_sites:
        charges[i] = +0.45
    charges += (1.0 - charges.sum()) / mol.n_atoms
    mol.charges = charges
    mol.hbond_donor = mol.hbond_donor.copy()
    heavy_idx = [i for i, s in enumerate(mol.symbols) if s != "H"]
    for i in heavy_idx:
        if mol.symbols[i] in ("N", "O"):
            mol.hbond_donor[i] = True
    rb = rotatable_bonds(mol.symbols, mol.coords, mol.bonds)
    if len(rb) < cfg.rotatable_bonds:
        # Deterministic fallback: relabel terminal Hs on the backbone to C
        # until enough internal single bonds qualify.  In practice the
        # growth above always satisfies the requirement.
        raise RuntimeError(
            f"ligand growth produced {len(rb)} rotatable bonds, "
            f"needed {cfg.rotatable_bonds}; adjust ComplexConfig"
        )
    return mol


def build_complex(cfg: ComplexConfig) -> BuiltComplex:
    """Build receptor + crystallographic and initial ligand poses.

    The crystal pose is found by sliding the ligand along the pocket axis
    and keeping the best-scoring depth (a cheap deterministic relaxation);
    the initial pose sits ``cfg.initial_offset`` angstroms beyond the
    receptor surface along the same axis, like Figure 3's position (A).
    """
    from repro.scoring.composite import interaction_score  # lazy: no cycle

    receptor = build_receptor(cfg)
    ligand = build_ligand(cfg)

    lig_centered = ligand.with_coords(ligand.coords - ligand.centroid())
    # Scan depths from pocket floor to just outside the mouth.
    floor = cfg.receptor_radius - cfg.pocket_depth
    best_score, best_depth = -math.inf, None
    for depth in np.linspace(
        floor + 0.5, cfg.receptor_radius + 2.0, 24
    ):
        cand = lig_centered.translated(POCKET_AXIS * depth)
        s = interaction_score(receptor, cand)
        if s > best_score:
            best_score, best_depth = s, float(depth)
    crystal = lig_centered.translated(POCKET_AXIS * best_depth)
    crystal.name = "ligand-crystal"

    initial = lig_centered.translated(
        POCKET_AXIS * (cfg.receptor_radius + cfg.initial_offset)
    )
    initial.name = "ligand-initial"

    pocket_center = POCKET_AXIS * (cfg.receptor_radius - cfg.pocket_depth / 2)
    return BuiltComplex(
        receptor=receptor,
        ligand_crystal=crystal,
        ligand_initial=initial,
        pocket_axis=POCKET_AXIS.copy(),
        pocket_center=pocket_center,
        config=cfg,
    )
