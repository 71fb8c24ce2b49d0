"""Bond topology: adjacency, rings, rotatable bonds and torsion partitions.

The paper's state vector includes "the position of the atoms of the ligand
and receptor and their respective bonds", and the flexible-ligand extension
(Section 5) needs the ligand's rotatable bonds (2BSM's ligand "can fold in
6 bonds").  This module derives all of that from the bond graph.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def adjacency(n_atoms: int, bonds: np.ndarray) -> list[list[int]]:
    """Adjacency lists from a bond array."""
    adj: list[list[int]] = [[] for _ in range(n_atoms)]
    for i, j in np.asarray(bonds, dtype=np.int64).reshape(-1, 2):
        adj[int(i)].append(int(j))
        adj[int(j)].append(int(i))
    return adj


def ring_bonds(n_atoms: int, bonds: np.ndarray) -> set[tuple[int, int]]:
    """Bonds that belong to at least one cycle.

    A bond is a ring bond iff removing it leaves its endpoints connected.
    Computed via bridge-finding (iterative Tarjan lowlink): every non-bridge
    edge lies on a cycle.
    """
    bonds = np.asarray(bonds, dtype=np.int64).reshape(-1, 2)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_atoms)]
    for eid, (i, j) in enumerate(bonds):
        adj[int(i)].append((int(j), eid))
        adj[int(j)].append((int(i), eid))
    visited = [False] * n_atoms
    disc = [0] * n_atoms
    low = [0] * n_atoms
    bridge = [False] * len(bonds)
    timer = 0
    for root in range(n_atoms):
        if visited[root]:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            u, parent_eid, it = stack.pop()
            if it == 0:
                visited[u] = True
                disc[u] = low[u] = timer
                timer += 1
            if it < len(adj[u]):
                stack.append((u, parent_eid, it + 1))
                v, eid = adj[u][it]
                if eid == parent_eid:
                    continue
                if visited[v]:
                    low[u] = min(low[u], disc[v])
                else:
                    stack.append((v, eid, 0))
            else:
                if parent_eid >= 0:
                    i, j = bonds[parent_eid]
                    p = int(i) if int(j) == u else int(j)
                    low[p] = min(low[p], low[u])
                    if low[u] > disc[p]:
                        bridge[parent_eid] = True
    return {
        (int(min(i, j)), int(max(i, j)))
        for eid, (i, j) in enumerate(bonds)
        if not bridge[eid]
    }


def rotatable_bonds(
    symbols,
    coords: np.ndarray,
    bonds: np.ndarray,
) -> list[tuple[int, int]]:
    """Rotatable bonds: acyclic single bonds between non-terminal heavy atoms.

    This is the standard docking definition (Lipinski-style): a bond is
    rotatable when (a) it is not in a ring, (b) neither endpoint is a
    hydrogen, and (c) both endpoints have at least one additional heavy
    neighbor (rotating a terminal group is a no-op up to symmetry).
    """
    bonds = np.asarray(bonds, dtype=np.int64).reshape(-1, 2)
    n = len(symbols)
    syms = [str(s).strip().upper() for s in symbols]
    adj = adjacency(n, bonds)
    in_ring = ring_bonds(n, bonds)
    heavy = [s != "H" for s in syms]
    out: list[tuple[int, int]] = []
    for i, j in bonds:
        i, j = int(i), int(j)
        key = (min(i, j), max(i, j))
        if key in in_ring:
            continue
        if not (heavy[i] and heavy[j]):
            continue
        i_heavy_nbrs = sum(1 for v in adj[i] if heavy[v] and v != j)
        j_heavy_nbrs = sum(1 for v in adj[j] if heavy[v] and v != i)
        if i_heavy_nbrs >= 1 and j_heavy_nbrs >= 1:
            out.append(key)
    return sorted(set(out))


def torsion_partition(
    n_atoms: int, bonds: np.ndarray, bond: tuple[int, int]
) -> np.ndarray:
    """Atom indices on the ``j`` side of rotatable bond ``(i, j)``.

    Rotating a torsion moves exactly this side.  Raises ``ValueError`` if
    the bond is in a ring (both sides stay connected after removal).
    """
    i, j = int(bond[0]), int(bond[1])
    bonds = np.asarray(bonds, dtype=np.int64).reshape(-1, 2)
    adj = adjacency(n_atoms, bonds)
    # BFS from j over the graph with the (i, j) edge removed.
    seen = np.zeros(n_atoms, dtype=bool)
    q = deque([j])
    seen[j] = True
    side = [j]
    while q:
        u = q.popleft()
        for v in adj[u]:
            if (u == j and v == i) or (u == i and v == j):
                continue  # the removed edge
            if not seen[v]:
                seen[v] = True
                side.append(v)
                q.append(v)
    if seen[i]:
        raise ValueError(f"bond {bond} is in a ring; torsion undefined")
    return np.asarray(sorted(side), dtype=np.int64)


def bond_vector_state(coords: np.ndarray, bonds: np.ndarray) -> np.ndarray:
    """Flattened bond-vector features: for each bond, (dx, dy, dz).

    Part of the paper's raw state ("positions ... and their respective
    bonds").  ``(m, 2)`` bonds -> length ``3m`` vector.
    """
    bonds = np.asarray(bonds, dtype=np.int64).reshape(-1, 2)
    if bonds.size == 0:
        return np.zeros(0)
    pts = np.asarray(coords, dtype=float)
    vec = pts[bonds[:, 1]] - pts[bonds[:, 0]]
    return vec.reshape(-1)
