"""Discretized Hilbert-space bases and index maps.

The full space is (bound + continuum) x (bound + continuum) x Fock, where
both continua are midpoint grids (no node at the origin) and the Fock layer
holds symmetric occupation states over the frequency modes with a hard cap
on the total occupation number.  ``build_bases`` builds them from a
``ModelParams``, which has validated every grid input, so they check
nothing again.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np


@dataclass(frozen=True)
class EnergyGrid:
    """Midpoint grid on (0, e_max]: nodes (j - 1/2) * de, j = 1..n_e."""

    e_max: float
    n_e: int

    @property
    def weight(self) -> float:
        return self.e_max / self.n_e

    @property
    def nodes(self) -> np.ndarray:
        de = self.weight
        return (np.arange(1, self.n_e + 1) - 0.5) * de


@dataclass(frozen=True)
class FieldGrid:
    """Symmetric midpoint grid on (-u_max, u_max), closed under u -> -u.

    Nodes u_k = (k - n_u/2 - 1/2) * du for k = 1..n_u, du = 2 u_max / n_u;
    zero is never a node.  A single angular quadrature node of weight
    ``angular_weight`` stands in for the unit sphere.
    """

    u_max: float
    n_u: int
    angular_weight: float = 4.0 * np.pi

    @property
    def du(self) -> float:
        return 2.0 * self.u_max / self.n_u

    @property
    def weight(self) -> float:
        """Quadrature weight per mode, angular factor included."""
        return self.du * self.angular_weight

    @property
    def nodes(self) -> np.ndarray:
        k = np.arange(1, self.n_u + 1)
        return (k - self.n_u / 2 - 0.5) * self.du

    @property
    def positive_nodes(self) -> np.ndarray:
        return self.nodes[self.n_u // 2:]

    @property
    def reflection(self) -> np.ndarray:
        """Index permutation implementing u -> -u (an involution)."""
        return np.arange(self.n_u)[::-1].copy()


@dataclass(frozen=True)
class ParticleBasis:
    """Index 0 is the bound state (energy E < 0); 1..n_e the continuum."""

    bound_energy: float
    grid: EnergyGrid

    @property
    def dim(self) -> int:
        return 1 + self.grid.n_e

    @property
    def energies(self) -> np.ndarray:
        return np.concatenate(([self.bound_energy], self.grid.nodes))


def _occupations(n_modes: int, n_max: int):
    """All occupation tuples with total <= n_max, vacuum first, and their
    annihilation table (see ``FockBasis``).

    Enumerated sector by sector so that the boson number is monotone in the
    basis index.
    """
    states, rows, index = [], [], {}
    for n in range(n_max + 1):
        for combo in combinations_with_replacement(range(n_modes), n):
            c = index[combo] = len(states)
            occ = [0] * n_modes
            for m in combo:
                occ[m] += 1
            states.append(tuple(occ))
            # combo is sorted: drop the first copy of each occupied mode
            rows += [(index[combo[:i] + combo[i + 1:]], c, k, occ[k])
                     for i, k in enumerate(combo) if k not in combo[:i]]
    return tuple(states), np.array(rows, dtype=np.int64).reshape(-1, 4)


@dataclass(frozen=True)
class FockBasis:
    """Occupation basis over the field modes, total occupation <= n_max.
    Every Fock-space operator reads ``annihilations``: its rows (r, c, k,
    occ), by source c and then mode k, say a_k e_c = sqrt(occ) e_r."""

    grid: FieldGrid
    n_max: int
    states: tuple = field(init=False)
    annihilations: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        states, table = _occupations(self.grid.n_u, self.n_max)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "annihilations", table)

    @property
    def dim(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class CompositeBasis:
    """Left particle x right particle x Fock.

    Flat convention: flat = i + d * j + d**2 * n with d = left.dim (left
    particle index i fastest, Fock index n slowest).
    """

    left: ParticleBasis
    right: ParticleBasis
    fock: FockBasis

    @property
    def dim(self) -> int:
        return self.left.dim * self.right.dim * self.fock.dim

    def as_tensor(self, vec: np.ndarray) -> np.ndarray:
        """View a flat vector as a (fock, right, left) tensor."""
        return vec.reshape(self.fock.dim, self.right.dim, self.left.dim)

    def diag(self, fock=0.0, right=0.0, left=0.0) -> np.ndarray:
        """Flat diagonal of fock x 1 x 1 + 1 x right x 1 + 1 x 1 x left,
        each a factor's diagonal or a scalar (that multiple of 1), summed
        as (fock + left) + right."""
        f, r, l = (np.broadcast_to(np.asarray(x, float).reshape(-1), (n,))
                   for x, n in ((fock, self.fock.dim),
                                (right, self.right.dim),
                                (left, self.left.dim)))
        return ((f[:, None, None] + l) + r[:, None]).ravel()

    def vacuum_bound_index(self) -> int:
        """Flat index of bound x bound x vacuum (the invariant reference):
        0, because the bound state and the vacuum come first in their
        bases."""
        return 0


def build_bases(params) -> CompositeBasis:
    """Construct all index structures for the given parameters."""
    egrid = EnergyGrid(params.e_max, params.n_e)
    ugrid = FieldGrid(params.u_max, params.n_u, params.angular_weight)
    pb = ParticleBasis(params.bound_energy, egrid)
    fb = FockBasis(ugrid, params.n_max)
    return CompositeBasis(pb, pb, fb)

