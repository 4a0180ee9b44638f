"""Model parameters: coupling data, grids and truncations.

All physics enters through three ingredients: a form factor g(omega) giving
the frequency profile of the field coupling, a particle-space kernel (bound
state coupling vector Gamma(e) plus a continuum-continuum block K(e, e')),
and the scalar parameters (inverse temperature, coupling strength, the
regulator scales used by the finite-rank commutator correction).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

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
    with negative exponent only ever get evaluated at x > 0.  ``scalar(d)``
    is the order-d derivative as a function of one number: the Leibniz sum
    in ``math`` arithmetic, returning a float; where a float ``**``
    overflows, the array path gives the inf/nan instead.  Calling the
    profile on a scalar x (a Python or NumPy float/int) goes through it.
    The Leibniz terms of each order are memoised outside the fields (in
    ``__dict__``); the evaluators are not stored, so pickling, copies,
    ``==`` and ``hash`` see the fields only.
    """

    power: float
    scale: float = 1.0

    def _terms(self, deriv: int) -> list:
        memo = self.__dict__.setdefault("_leibniz_terms", {})
        return memo.get(deriv) or memo.setdefault(deriv, [
            (math.comb(deriv, k) * falling_product(self.power, k)
             * (-1.0) ** (deriv - k), self.power - k)
            for k in range(deriv + 1)])

    def scalar(self, deriv: int = 0) -> Callable[[float], float]:
        terms, scale, exp = self._terms(deriv), self.scale, math.exp

        def value(x) -> float:
            x, out = float(x), 0.0
            if not x > 0:
                return 0.0
            try:
                for coeff, q in terms:
                    out += coeff * x ** q
                return scale * out * exp(-x)
            except OverflowError:
                return self(np.array(x), deriv)
        return value

    def __call__(self, x, deriv: int = 0):
        if isinstance(x, (int, float, np.integer, np.floating)):
            return self.scalar(deriv)(x)
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        # huge x overflows the power to inf and inf * exp(-x) to nan
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for coeff, q in self._terms(deriv):
                out = out + coeff * np.where(x > 0, x ** q, 0.0)
            res = self.scale * out * np.exp(-np.where(x > 0, x, 0.0))
        res = np.where(x > 0, res, 0.0)
        return res if res.shape else float(res)


@dataclass(frozen=True)
class FormFactor:
    """Frequency profile of one coupling term, with envelope constants.

    ``g(omega, deriv)`` must be defined for omega > 0 and support derivative
    orders 0..4.  The envelope constants feed the infrared/ultraviolet
    hypothesis checker: |g^(j)| <= k2 * omega^(p-j) below k1 and
    |g^(j)| <= K2 * omega^(-q-j) above big_k1.
    """

    g: Callable = field(default_factory=lambda: PowerExpProfile(2.5))
    ir_exponent: float = 2.5
    uv_exponent: float = 4.0
    k1: float = 0.5
    k2: float = 4.0
    big_k1: float = 8.0
    big_k2: float = 2.0e6

    def __call__(self, omega, deriv: int = 0):
        return self.g(omega, deriv)


@dataclass(frozen=True)
class Kernel:
    """Particle-space coupling in the energy representation.

    ``gamma`` is the bound-to-continuum coupling profile, a
    ``PowerExpProfile``: ``gamma(e, deriv)`` on scalars or arrays,
    ``k(e, e')`` the continuum-continuum block (must be Hermitian:
    conj(k(e, e')) == k(e', e)), and ``g_ee`` the real bound-bound scalar.
    The default is the rank-one choice k(e,e') = gamma(e) gamma(e') with
    g_ee = 1, i.e. the whole coupling matrix is |v><v| for v = (1, gamma).
    """

    gamma: PowerExpProfile = field(
        default_factory=lambda: PowerExpProfile(3.0))
    g_ee: float = 1.0

    def k(self, e, ep):
        return self.gamma(e) * self.gamma(ep)


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

    form_factor: FormFactor = field(default_factory=FormFactor)
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
            raise ValueError("bound state energy must be negative")
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
