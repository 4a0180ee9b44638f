"""Commutator hierarchy of the Liouvillian with the conjugate operator.

The first three iterated commutators have closed forms: multiplication
operators from the dilation profile on both particle factors, the boson
number operator, and interaction-like terms whose particle factors are
iterated matrix commutators and whose field smearings are iterated
discrete derivatives of the glued coupling, all kept factored.  The
tests cross-check each closed form against the literal iterated matrix
commutator; relative-bound (GJN/Kato style) constants are measured, not
assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .linalg import DiagPlus, min_eig_hermitian, operator_norm
from .operators import (KronSum, LiouvillianAction, Truncation,
                        interaction_like)
from .flows import VectorField, saturating_profile
from .params import ModelParams
from .reports import BoundReport


def _profile_diag(nodes: np.ndarray, a: float, profile: VectorField,
                  order: int) -> np.ndarray:
    """Diagonal of the n-th closed-form particle commutator factor:
    order 1: xi(e/a); order 2: xi' xi / a; order 3: (xi'' xi^2 + xi'^2 xi)/a^2,
    all evaluated at e/a."""
    s = nodes / a
    xi = np.asarray(profile.xi(s), float)
    dxi = np.asarray(profile.dxi(s), float)
    if order == 1:
        vals = xi
    elif order == 2:
        vals = dxi * xi / a
    else:
        d2 = np.asarray(profile.d2xi(s), float)
        vals = (d2 * xi ** 2 + dxi ** 2 * xi) / a ** 2
    return np.concatenate(([0.0], vals))


def _iterated_matrix_ad(g: np.ndarray, a_p: np.ndarray, order: int):
    """order-fold application of X -> i[X, A_p] to the particle coupling."""
    out = g.astype(complex)
    for _ in range(order):
        out = 1j * (out @ a_p - a_p @ out)
    return out


def interaction_commutator(trunc: Truncation, order: int) -> KronSum:
    """Closed form of the order-fold commutator of the interaction with the
    conjugate operator, as Kronecker terms (order 0 would be the
    interaction itself).

    Binomial split over the three commuting pieces of the conjugate
    operator: each step either commutes the particle coupling with the
    dilation generator (sign flip on the right factor) or differentiates
    the field smearing vector.
    """
    d_u = trunc.field.mode_derivative
    terms = []
    for j in range(order + 1):
        gj = _iterated_matrix_ad(trunc.coupling, trunc.particle.flow_gen, j)
        d_n = np.linalg.matrix_power(d_u, order - j)
        terms += interaction_like(trunc.basis, comb(order, j) * gj,
                                  (-1.0) ** j, d_n @ trunc.vectors.direct,
                                  d_n @ trunc.vectors.image)
    return KronSum(trunc.basis, terms)


def closed_form_commutator(liou: LiouvillianAction, order: int):
    """c_n = the profile terms + lam I_n (c_1 adds N), n = 1, 2, 3, as
    diag + lam I_n on the factored I_n."""
    trunc = liou.trunc
    prof = _profile_diag(trunc.basis.left.grid.nodes, trunc.params.a,
                         saturating_profile(), order)
    diag = trunc.basis.diag(trunc.field.number if order == 1 else 0.0,
                            (-1.0) ** (order + 1) * prof, prof)
    return DiagPlus(diag, liou.params.lam, trunc.commutator(order))


@dataclass
class GjnReport:
    k_norm: float
    k_form: float


def gjn_check(x: DiagPlus, comparison_diag: np.ndarray) -> GjnReport:
    """Measured relative-bound constants of X = diag(d) + lam Y against the
    diagonal comparison operator Lambda: k_norm = ||X Lambda^{-1}||, k_form
    = ||Lambda^{-1/2} i[X, Lambda] Lambda^{-1/2}||.  The diagonal commutes
    with Lambda exactly, so k_form is |lam| ||h^-1 Y h - h Y h^-1||,
    h = Lambda^{1/2}, in Y's own (real or complex) arithmetic, and 0
    without a Y."""
    lam = np.asarray(comparison_diag, float)
    if lam.min() < 1.0 - 1e-12:
        raise ValueError("comparison operator must dominate the identity")
    k_norm = operator_norm(x @ DiagPlus(1.0 / lam))
    if x.x is None:
        return GjnReport(k_norm, 0.0)
    h, h_inv = DiagPlus(np.sqrt(lam)), DiagPlus(1.0 / np.sqrt(lam))
    y = DiagPlus(np.zeros(len(lam)), 1.0, x.x)
    k_form = abs(x.lam) * operator_norm(h_inv @ y @ h - h @ y @ h_inv)
    return GjnReport(k_norm, k_form)


def kato_half_power_bound(x, number_diag: np.ndarray,
                          vacuum_diag: np.ndarray) -> float:
    """Smallest k with X <= k N^{1/2} in the Kato sense, realized as
    ||X (N + P_vac)^{-1/2}|| for a Hermitian LinearOperator X, or X
    without a phase (which changes no norm); the vacuum compensation is
    exact because the tested operators have no vacuum-to-vacuum block."""
    shifted = np.asarray(number_diag, float) + np.asarray(vacuum_diag, float)
    return operator_norm(x @ DiagPlus(1.0 / np.sqrt(shifted)))


def estimate_small_coupling_bound(params: ModelParams, trunc: Truncation,
                                  i1) -> float:
    """Smallest k with +-lam * I_1 <= (1/10) N P_vac-bar + k lam^2 by ARPACK
    (``Truncation.compensation`` at n_max >= 2; I_1 any Hermitian operator
    with @).  One solve covers both signs: P = (-1)^N commutes with
    N P_vac-bar, and each Fock factor of I_1 is a field operator phi(f),
    moving N by exactly +-1, so P I_1 P = -I_1: the forms are equivalent."""
    if params.lam == 0.0:
        return 0.0
    n_comp = 0.1 * trunc.number * (1.0 - trunc.vacuum_proj)
    low = min_eig_hermitian(DiagPlus(n_comp, params.lam, i1))
    return max(0.0, -low) / params.lam ** 2


def small_coupling_stability(params: ModelParams) -> BoundReport:
    """k from the coupling bound varies by at most 2x across the dilation
    scales 0.1, 0.2 and 0.5 (the uniformity-in-a claim, measured)."""
    scales = (0.1, 0.2, 0.5)
    ks = np.array([Truncation(params.with_(a=a)).compensation(params.lam)
                   for a in scales])
    ratio = float(ks.max() / max(ks.min(), 1e-300)) if ks.max() > 0 else 1.0
    return BoundReport.of(
        "coupling bound stable across dilation scales", ratio, "<=", 2.0,
        detail={"scales": list(scales), "k_values": ks.tolist()})
