"""Commutator hierarchy of the Liouvillian with the conjugate operator.

The first three iterated commutators have closed forms: multiplication
operators from the dilation profile on both particle factors, the boson
number operator, and interaction-like terms whose particle factors are
iterated matrix commutators and whose field smearings are iterated
discrete derivatives of the glued coupling.  Each closed form is
cross-checked against the literal iterated matrix commutator; relative-
bound (GJN/Kato style) constants are measured, not assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse as sp

from .lattice import CompositeBasis
from .linalg import min_eig_hermitian, operator_norm
from .operators import (LiouvillianOps, ConjugateOps, assemble_particle_ops,
                        assemble_field_ops, field_op, hermitize, kron3)
from .flows import VectorField, saturating_profile
from .params import ModelParams
from .reports import BoundReport


def commutator(x, y):
    """i (XY - YX), symmetrized so Hermitian inputs give a bit-Hermitian
    result."""
    if x.shape != y.shape:
        raise ValueError("operands live on different bases")
    return hermitize(1j * (x @ y - y @ x))


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
    elif order == 3:
        if profile.d2xi is None:
            raise ValueError("third commutator needs the second derivative "
                             "of the profile")
        d2 = np.asarray(profile.d2xi(s), float)
        vals = (d2 * xi ** 2 + dxi ** 2 * xi) / a ** 2
    else:
        raise ValueError("order must be 1, 2 or 3")
    return np.concatenate(([0.0], vals))


def _iterated_matrix_ad(g: np.ndarray, a_p: np.ndarray, order: int):
    """order-fold application of X -> i[X, A_p] to the particle coupling."""
    out = g.astype(complex)
    for _ in range(order):
        out = 1j * (out @ a_p - a_p @ out)
    return out


def interaction_commutator(params: ModelParams, liou: LiouvillianOps,
                           a_p: np.ndarray, order: int) -> sp.csr_matrix:
    """Closed form of the order-fold commutator of the interaction with the
    conjugate operator.

    Binomial split over the three commuting pieces of the conjugate
    operator: each step either commutes the particle coupling with the
    dilation generator (sign flip on the right factor) or differentiates
    the field smearing vector.
    """
    basis = liou.basis
    fops = assemble_field_ops(basis.fock)
    d_u = fops.mode_derivative
    ident_p = sp.identity(basis.left.dim, format="csr", dtype=complex)
    g = liou.coupling
    f_dir = liou.vectors.direct
    f_img = liou.vectors.image
    total = sp.csr_matrix(
        (basis.dim, basis.dim), dtype=complex)
    for j in range(order + 1):
        gj = _iterated_matrix_ad(g, a_p, j)
        fd = np.linalg.matrix_power(d_u, order - j) @ f_dir
        fi = np.linalg.matrix_power(d_u, order - j) @ f_img
        term1 = kron3(field_op(basis.fock, fd), ident_p, sp.csr_matrix(gj))
        term2 = kron3(field_op(basis.fock, fi),
                      sp.csr_matrix((-1.0) ** j * np.conj(gj)), ident_p)
        total = total + comb(order, j) * (term1 - term2)
    return hermitize(total)


@dataclass
class CommutatorSet:
    c1: sp.csr_matrix
    c2: sp.csr_matrix
    c3: sp.csr_matrix
    c1_direct: sp.csr_matrix | None     # None unless built with_direct
    c2_direct: sp.csr_matrix | None
    c3_direct: sp.csr_matrix | None
    discrepancies: tuple   # test-state norms of (closed form - direct)


def product_boson_amplitudes(fb, mode_profile: np.ndarray) -> np.ndarray:
    """Occupation amplitudes of the coherent-like product over the boson
    sectors: sqrt(n!/prod s_k!) prod f_k^{s_k}.  The multinomial factor is
    what makes the amplitudes the symmetric-tensor samples of the smooth
    product function (without it the represented function kinks along the
    diagonals and convergence orders collapse)."""
    from math import factorial

    f = np.asarray(mode_profile)
    out = np.zeros(fb.dim, dtype=complex)
    for idx, state in enumerate(fb.states):
        n = sum(state)
        coef = np.sqrt(float(factorial(n))
                       / np.prod([factorial(s) for s in state if s > 1]))
        amp = coef
        for k, s in enumerate(state):
            if s:
                amp = amp * f[k] ** s
        out[idx] = amp
    return out


def smooth_test_states(basis: CompositeBasis, n_states: int = 4,
                       seed: int = 3) -> list:
    """Interior-supported smooth states: Gaussian profiles on both particle
    continua times product-Gaussian boson amplitudes, avoiding the grid
    edges where the Dirichlet derivative rows live."""
    rng = np.random.default_rng(seed)
    e = basis.left.grid.nodes
    u = basis.fock.grid.nodes
    e_span = e[-1] - e[0]
    u_span = u[-1] - u[0]
    out = []
    for _ in range(n_states):
        ce = e[0] + e_span * rng.uniform(0.35, 0.65)
        cu = u_span * rng.uniform(-0.15, 0.15)
        se = e_span * 0.18
        su = u_span * 0.18
        pe = np.concatenate(([0.3], np.exp(-((e - ce) / se) ** 2)))
        pu = np.exp(-((u - cu) / su) ** 2)
        fock = product_boson_amplitudes(basis.fock, pu)
        fock[0] = 0.2
        vec = (fock[:, None, None] * pe[None, None, :]
               * pe[None, :, None]).ravel().astype(complex)
        out.append(vec / np.linalg.norm(vec))
    return out


def assemble_commutator_set(params: ModelParams, liou: LiouvillianOps,
                            conj: ConjugateOps,
                            profile: VectorField | None = None,
                            with_direct: bool = True) -> CommutatorSet:
    profile = profile or saturating_profile()
    basis = liou.basis
    nodes = basis.left.grid.nodes
    number = sp.diags(liou.number.astype(complex))

    def both_factors(diag_vals, sign):
        dp = sp.diags(diag_vals.astype(complex))
        ident_p = sp.identity(basis.left.dim, format="csr", dtype=complex)
        ident_f = sp.identity(basis.fock.dim, format="csr", dtype=complex)
        return (kron3(ident_f, ident_p, dp)
                + sign * kron3(ident_f, dp, ident_p))

    a_p = conj.particle_gen
    c1 = hermitize(both_factors(_profile_diag(nodes, params.a, profile, 1), +1)
                   + number
                   + params.lam * interaction_commutator(params, liou, a_p, 1))
    c2 = hermitize(both_factors(_profile_diag(nodes, params.a, profile, 2), -1)
                   + params.lam * interaction_commutator(params, liou, a_p, 2))
    c3 = hermitize(both_factors(_profile_diag(nodes, params.a, profile, 3), +1)
                   + params.lam * interaction_commutator(params, liou, a_p, 3))

    if with_direct:
        # each closed form is tested against the commutator of the
        # previous *assembled* level: iterating the raw matrix commutator
        # instead would re-amplify the previous level's grid-scale
        # residual through the derivative and mask the convergence
        c1_d = commutator(liou.liouvillian, conj.full)
        c2_d = commutator(c1, conj.full)
        c3_d = commutator(c2, conj.full)
        tests = smooth_test_states(basis)
        disc = tuple(
            max(np.linalg.norm((ca - cd) @ psi) for psi in tests)
            for ca, cd in ((c1, c1_d), (c2, c2_d), (c3, c3_d)))
    else:
        c1_d = c2_d = c3_d = None
        disc = (np.nan, np.nan, np.nan)
    return CommutatorSet(c1, c2, c3, c1_d, c2_d, c3_d, disc)


@dataclass
class GjnReport:
    operator: str
    k_norm: float
    k_form: float


def gjn_check(x: sp.spmatrix, comparison_diag: np.ndarray,
              name: str = "X") -> GjnReport:
    """Measured relative-bound constants against the diagonal comparison
    operator: k_norm = ||X Lambda^{-1}||, k_form the extreme eigenvalue of
    Lambda^{-1/2} i[X, Lambda] Lambda^{-1/2}."""
    lam = np.asarray(comparison_diag, float)
    if lam.min() < 1.0 - 1e-12:
        raise ValueError("comparison operator must dominate the identity")
    inv = sp.diags(1.0 / lam)
    k_norm = operator_norm(x @ inv)

    xc = sp.coo_matrix(x)
    comm = sp.coo_matrix(
        (1j * xc.data * (lam[xc.col] - lam[xc.row]), (xc.row, xc.col)),
        shape=x.shape).tocsr()
    half = sp.diags(1.0 / np.sqrt(lam))
    sandwiched = hermitize(half @ comm @ half)
    k_form = operator_norm(sandwiched)
    return GjnReport(name, float(k_norm), float(k_form))


def kato_half_power_bound(x: sp.spmatrix, number_diag: np.ndarray,
                          vacuum_diag: np.ndarray) -> float:
    """Smallest k with X <= k N^{1/2} in the Kato sense, realized as
    ||X (N + P_vac)^{-1/2}||; the vacuum compensation is exact because the
    tested operators have no vacuum-to-vacuum block."""
    shifted = np.asarray(number_diag, float) + np.asarray(vacuum_diag, float)
    return operator_norm(x @ sp.diags(1.0 / np.sqrt(shifted)))


def estimate_small_coupling_bound(params: ModelParams, liou: LiouvillianOps,
                                  i1: sp.spmatrix) -> float:
    """Smallest k with +-lam * I_1 <= (1/10) N P_vac-bar + k lam^2 on the
    truncation (by extremal eigenvalue of the compensated forms)."""
    if params.lam == 0.0:
        return 0.0
    n_comp = sp.diags(0.1 * liou.number * (1.0 - liou.vacuum_proj))
    worst = 0.0
    for sign in (+1.0, -1.0):
        low = min_eig_hermitian(hermitize(n_comp + sign * params.lam * i1))
        worst = max(worst, max(0.0, -low) / params.lam ** 2)
    return worst


def small_coupling_stability(params: ModelParams, liou: LiouvillianOps,
                             conj_builder, scales=(0.1, 0.2, 0.5)) -> BoundReport:
    """k from the coupling bound varies by at most 2x across dilation
    scales (the uniformity-in-a claim, measured)."""
    ks = []
    for a in scales:
        pa = params.with_(a=a)
        i1 = interaction_commutator(
            pa, liou, conj_builder(pa).particle_gen, 1)
        ks.append(estimate_small_coupling_bound(pa, liou, i1))
    ks = np.array(ks)
    ratio = float(ks.max() / max(ks.min(), 1e-300)) if ks.max() > 0 else 1.0
    return BoundReport(
        check="coupling bound stable across dilation scales",
        value=ratio, bound=2.0, slack=2.0 - ratio, passed=bool(ratio <= 2.0),
        detail={"scales": list(scales), "k_values": ks.tolist()})
