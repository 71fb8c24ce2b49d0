"""Element data and van-der-Waals parameter tables.

The Lennard-Jones parameters (sigma, epsilon) are MMFF94/AMBER-flavoured
values adequate for the score *landscape* the RL agent experiences; the
paper cites Halgren's MMFF94 van-der-Waals parameterization [16] for this
term.  Values: sigma in angstrom, epsilon in kcal/mol, typical partial
charges in elementary charge units.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Element:
    """Static per-element data used by the scorer and builders."""

    symbol: str
    atomic_number: int
    mass: float  # atomic mass units
    #: Lennard-Jones collision diameter, angstrom.
    sigma: float
    #: Lennard-Jones well depth, kcal/mol.
    epsilon: float
    #: Covalent radius, angstrom (bond-detection heuristic).
    covalent_radius: float
    #: Typical magnitude of partial charge in organic context.
    typical_charge: float
    #: Can act as hydrogen-bond donor heavy atom.
    hbond_donor: bool
    #: Can act as hydrogen-bond acceptor.
    hbond_acceptor: bool


#: The biologically relevant subset: protein + drug-like ligand elements.
ELEMENTS: dict[str, Element] = {
    "H": Element("H", 1, 1.008, 2.50, 0.030, 0.31, 0.15, False, False),
    "C": Element("C", 6, 12.011, 3.40, 0.086, 0.76, -0.05, False, False),
    "N": Element("N", 7, 14.007, 3.25, 0.170, 0.71, -0.40, True, True),
    "O": Element("O", 8, 15.999, 3.12, 0.210, 0.66, -0.45, True, True),
    "F": Element("F", 9, 18.998, 3.00, 0.061, 0.57, -0.20, False, True),
    "P": Element("P", 15, 30.974, 3.74, 0.200, 1.07, 0.30, False, False),
    "S": Element("S", 16, 32.06, 3.56, 0.250, 1.05, -0.15, True, True),
    "CL": Element("CL", 17, 35.45, 3.47, 0.265, 1.02, -0.10, False, True),
    "BR": Element("BR", 35, 79.904, 3.65, 0.320, 1.20, -0.08, False, True),
    "I": Element("I", 53, 126.90, 3.88, 0.400, 1.39, -0.05, False, True),
    "FE": Element("FE", 26, 55.845, 2.59, 0.013, 1.32, 1.20, False, False),
    "ZN": Element("ZN", 30, 65.38, 1.96, 0.012, 1.22, 1.10, False, False),
}

_BY_NUMBER = {e.atomic_number: e for e in ELEMENTS.values()}


def element(symbol_or_number) -> Element:
    """Look up an element by symbol (case-insensitive) or atomic number."""
    if isinstance(symbol_or_number, int):
        try:
            return _BY_NUMBER[symbol_or_number]
        except KeyError:
            raise KeyError(
                f"no parameters for atomic number {symbol_or_number}"
            ) from None
    key = str(symbol_or_number).strip().upper()
    try:
        return ELEMENTS[key]
    except KeyError:
        raise KeyError(f"no parameters for element {symbol_or_number!r}") from None


def masses(symbols) -> "np.ndarray":
    """Vectorized atomic-mass lookup."""
    import numpy as np

    return np.array([element(s).mass for s in symbols], dtype=float)
