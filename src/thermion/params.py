"""Model parameters: coupling data, grids and truncations.

All physics enters through three ingredients: a form factor g(omega) giving
the frequency profile of the field coupling, a particle-space kernel (bound
state coupling vector Gamma(e), whose outer product is the
continuum-continuum block), and the scalar parameters (inverse temperature,
coupling strength, the regulator scales used by the finite-rank commutator
correction).  ``ModelParams`` validates every input once; nothing built
from it checks them again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np


def falling_product(p: float, k: int) -> float:
    """p (p-1) ... (p-k+1); empty product = 1."""
    out = 1.0
    for i in range(k):
        out *= p - i
    return out


@dataclass(frozen=True)
class PowerExpProfile:
    """x^p * exp(-x) with closed-form derivatives of any order.

    Used for the default form factor (p = 5/2) and the default bound-state
    coupling (p = 3).  Derivatives follow from the Leibniz rule; powers of x
    with negative exponent only ever get evaluated at x > 0.  Evaluates
    arrays elementwise; a 0-d input returns a float.
    """

    power: float
    scale: float = 1.0

    def __call__(self, x, deriv: int = 0):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        # huge x overflows the power to inf and inf * exp(-x) to nan
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k in range(deriv + 1):
                coeff = (math.comb(deriv, k) * falling_product(self.power, k)
                         * (-1.0) ** (deriv - k))
                out = out + coeff * np.where(x > 0, x ** (self.power - k), 0.0)
            res = self.scale * out * np.exp(-np.where(x > 0, x, 0.0))
        res = np.where(x > 0, res, 0.0)
        return res if res.shape else float(res)


@dataclass(frozen=True)
class Kernel:
    """Particle-space coupling in the energy representation.

    ``gamma`` is the bound-to-continuum coupling profile, a
    ``PowerExpProfile``, and ``g_ee`` the real bound-bound scalar.  The
    continuum-continuum block is gamma(e) gamma(e'), so with g_ee = 1 the
    whole coupling matrix is |v><v| for v = (1, gamma).
    """

    gamma: PowerExpProfile = field(
        default_factory=lambda: PowerExpProfile(3.0))
    g_ee: float = 1.0


@dataclass(frozen=True)
class ModelParams:
    """Every knob of the truncated model in one immutable bundle."""

    beta: float = 1.0          # inverse temperature, > 0
    lam: float = 0.1           # coupling constant, real
    theta: float = 0.0625      # finite-rank correction strength, > 0
    epsilon: float = 0.05      # resolvent regulator, > 0
    a: float = 0.5             # dilation scale of the conjugate operator, > 0
    bound_energy: float = -1.0  # eigenvalue of the particle Hamiltonian, < 0

    e_max: float = 6.0
    n_e: int = 16
    u_max: float = 6.0
    n_u: int = 32
    n_max: int = 1
    angular_weight: float = 4.0 * math.pi

    form_factor: PowerExpProfile = field(
        default_factory=lambda: PowerExpProfile(2.5))
    kernel: Kernel = field(default_factory=Kernel)

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.a <= 0:
            raise ValueError("conjugate-operator scale a must be positive")
        if self.bound_energy >= 0:
            raise ValueError("bound_energy must be negative")
        if not (self.e_max > 0 and self.u_max > 0):
            raise ValueError("grid cutoffs e_max and u_max must be positive")
        # n_max >= 1: with no boson I_1 and N Pbar vanish, and the
        # eigensolvers would start from a zero vector
        for name, low in (("n_e", 1), ("n_max", 1), ("n_u", 2)):
            n = getattr(self, name)
            if not (isinstance(n, (int, np.integer)) and n >= low):
                raise ValueError(f"{name} must be an integer >= {low}")
        if self.n_u % 2 != 0:
            raise ValueError("n_u must be even (frequency grid must be "
                             "symmetric under u -> -u)")

    def with_(self, **kw) -> "ModelParams":
        return replace(self, **kw)
