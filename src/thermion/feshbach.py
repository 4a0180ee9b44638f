"""Feshbach reduction, the dressed lower-bound operators, and the chain.

The chain verifier measures every constant the argument depends on (the
small-coupling compensation constant, the golden-rule constant, the norm
of the finite-rank commutator correction), assembles the two candidate
lower-bound operators, and checks each inequality of the argument as an
eigenvalue statement with explicit slack.  Nothing is assumed: parameter
regimes that the truncation cannot reach are diagnosed and reported.

A dressed operator is a diagonal plus the factored rank-4 correction,
D + U C U*: its reduced block comes by Woodbury, its spectral bounds by
exact inertia counting.  ``feshbach_map`` is the dense reduction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .commutators import (estimate_small_coupling_bound,
                          interaction_commutator)
from .fgr import gamma_limit
from .linalg import min_eig_diag_plus_lowrank, min_eig_hermitian
from .operators import (ConjugateOps, LiouvillianOps, LowRank,
                        assemble_conjugates, assemble_liouvillian,
                        assemble_particle_ops, hermitize)
from .params import ModelParams
from .reports import BoundReport


@dataclass
class FeshbachResult:
    m: float
    f_matrix: np.ndarray       # reduced block on the projection range
    spec_distance: float       # distance from m to the complement spectrum

    @property
    def f_value(self) -> float:
        """Scalar value for rank-one projections."""
        if self.f_matrix.shape != (1, 1):
            raise ValueError("reduced block is not scalar")
        return float(np.real(self.f_matrix[0, 0]))


def _range_and_complement(pi, dim: int):
    """Orthonormal bases (q, qbar) of the range of a projection and of its
    complement; ``pi`` is an index array or a matrix whose columns span
    the range."""
    pi = np.asarray(pi)
    if pi.ndim == 1:
        q = np.zeros((dim, len(pi)), dtype=complex)
        q[pi, np.arange(len(pi))] = 1.0
    else:
        q, r = np.linalg.qr(pi.astype(complex))
        q = q[:, np.abs(np.diag(r)) > 1e-12]
    w, v = np.linalg.eigh(np.eye(dim, dtype=complex) - q @ q.conj().T)
    return q, v[:, w > 0.5]


def _refuse(m: float, dist: float):
    raise ValueError(
        f"spectral parameter {m} within {dist:.3e} of the complement "
        "spectrum; refusing the reduction")


def feshbach_map(mat, pi, m: float, cond_tol: float = 1e-8) -> FeshbachResult:
    """Reduce a Hermitian matrix to the range of a projection at spectral
    parameter m:  P (M - M Q (Qbar M Qbar - m)^{-1} Q M) P, densely.

    ``pi`` is either an index array (coordinate projection) or a matrix
    whose columns span the range.  Refuses when m is too close to the
    complement spectrum.
    """
    dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat)
    q, qbar = _range_and_complement(pi, dense.shape[0])
    mbar = qbar.conj().T @ dense @ qbar
    evals = np.linalg.eigvalsh(mbar)
    dist = float(np.min(np.abs(evals - m)))
    if dist <= cond_tol:
        _refuse(m, dist)
    cross = qbar.conj().T @ dense @ q
    block = q.conj().T @ dense @ q
    sol = np.linalg.solve(mbar - m * np.eye(mbar.shape[0]), cross)
    f = block - cross.conj().T @ sol
    return FeshbachResult(m, hermitize(f), dist)


def feshbach_woodbury(d: np.ndarray, lr: LowRank, k: int, m: float,
                      floor: float, cond_tol: float = 1e-8) -> FeshbachResult:
    """F(m) = d_k + u_k C u_k* - b* (Mbar - m)^{-1} b, b = Ubar C u_k*, of
    M = diag(d) + U C U* on the coordinate k, by Woodbury through
    I + C Ubar* (Dbar - m)^{-1} Ubar (C need not be invertible) on the
    support of U.  Refuses when m is within cond_tol of ``floor`` (a lower
    bound on the complement spectrum) or the residual exceeds 1e-10 ||b||.
    """
    dist = floor - m
    if dist <= cond_tol:
        _refuse(m, dist)
    rows = np.flatnonzero(np.any(lr.u != 0, axis=1))
    ub, u_k, shifted = lr.u[rows[rows != k]], lr.u[k], d[rows[rows != k]] - m
    b = ub @ (lr.c @ u_k.conj())
    with np.errstate(all="ignore"):     # a zero shift shows in the residual
        z, y = ub / shifted[:, None], b / shifted
        small = np.eye(len(lr.c)) + lr.c @ (ub.conj().T @ z)
        s = y - z @ np.linalg.solve(small, lr.c @ (ub.conj().T @ y))
        resid = np.linalg.norm(shifted * s + ub @ (lr.c @ (ub.conj().T @ s))
                               - b)
    if not resid <= 1e-10 * np.linalg.norm(b):
        _refuse(m, dist)
    f = d[k] + u_k @ lr.c @ u_k.conj() - np.vdot(b, s)
    return FeshbachResult(m, hermitize(np.array([[f]])), float(dist))


def isospectrality_defect(mat: np.ndarray, pi, tol_rel: float = 1e-10):
    """For each eigenvalue of the matrix below the complement spectrum,
    the determinant of (reduced block - eigenvalue); all should vanish.

    Returns (defects, eigenvalues tested, scale) where defects are the
    absolute determinant values normalized by the matrix norm to the
    projection rank.
    """
    dense = np.asarray(mat)
    q, qbar = _range_and_complement(pi, dense.shape[0])
    rank = q.shape[1]
    mbar_evals = np.linalg.eigvalsh(qbar.conj().T @ dense @ qbar)
    evals = np.linalg.eigvalsh(dense)
    below = evals[evals < mbar_evals[0] - 1e-9]
    scale = max(1.0, float(np.linalg.norm(dense, 2))) ** rank
    defects = []
    for mu in below:
        res = feshbach_map(dense, pi, float(mu))
        defects.append(abs(np.linalg.det(res.f_matrix
                                         - mu * np.eye(rank))) / scale)
    return np.array(defects), below, scale


def find_reduction_roots(mat: np.ndarray, pi, n_grid: int = 400):
    """Roots of det(F(m) - m) below the complement spectrum, by sign scan
    plus bisection; each root should be an eigenvalue of the matrix."""
    from scipy.optimize import brentq

    dense = np.asarray(mat)
    q, qbar = _range_and_complement(pi, dense.shape[0])
    rank = q.shape[1]
    mbar_low = float(np.linalg.eigvalsh(qbar.conj().T @ dense @ qbar)[0])
    lo = float(np.linalg.eigvalsh(dense)[0]) - 1.0
    hi = mbar_low - 1e-6

    def d(m):
        res = feshbach_map(dense, pi, m, cond_tol=1e-12)
        return float(np.real(np.linalg.det(res.f_matrix
                                           - m * np.eye(rank))))

    grid = np.linspace(lo, hi, n_grid)
    vals = np.array([d(m) for m in grid])
    roots = []
    for i in range(len(grid) - 1):
        if np.sign(vals[i]) * np.sign(vals[i + 1]) < 0:
            roots.append(brentq(d, grid[i], grid[i + 1], xtol=1e-13))
    return np.array(roots)


# ---------------------------------------------------------------------------
# dressed lower-bound operators
# ---------------------------------------------------------------------------

@dataclass
class BoundOperators:
    """The two dressed lower-bound operators, diag(d) + correction."""
    d_scaled: np.ndarray       # dilation-profile version (depends on a)
    d_limit: np.ndarray        # sharp-projection version (the a -> 0 limit)
    correction: LowRank        # the commutator correction i[L, A0]
    k49: float
    i1: sp.csr_matrix


def _both_factors_diag(basis, diag_p: np.ndarray) -> np.ndarray:
    dp = basis.left.dim
    ones = np.ones(dp)
    one_f = np.ones(basis.fock.dim)
    return (np.kron(one_f, np.kron(ones, diag_p))
            + np.kron(one_f, np.kron(diag_p, ones)))


def assemble_bound_operators(params: ModelParams, liou: LiouvillianOps,
                             conj: ConjugateOps,
                             k49: float | None = None) -> BoundOperators:
    basis = liou.basis
    part = assemble_particle_ops(params, basis)
    i1 = interaction_commutator(params, liou, conj.particle_gen, 1)
    if k49 is None:
        k49 = estimate_small_coupling_bound(params, liou, i1)

    offset = 0.9 * (1.0 - liou.vacuum_proj) - k49 * params.lam ** 2
    d_scaled = _both_factors_diag(basis, part.xi_of_h) + offset
    d_limit = _both_factors_diag(basis, part.continuum_proj) + offset
    return BoundOperators(d_scaled, d_limit, conj.correction_comm,
                          float(k49), i1)


def _max_abs_row_sum(d: np.ndarray, lr: LowRank, chunk: int = 256) -> float:
    """max_i sum_j |(diag(d) + U C U*)_ij|: |d_i| off the support of U, on
    it the dense rows a chunk at a time."""
    sums, on = np.abs(d), np.flatnonzero(np.any(lr.u != 0, axis=1))
    us = lr.u[on]
    for i in range(0, len(on), chunk):
        block = (us[i:i + chunk] @ lr.c) @ us.conj().T
        block[:, i:i + chunk] += np.diag(d[on[i:i + chunk]])
        sums[on[i:i + chunk]] = np.abs(block).sum(axis=1)
    return float(sums.max())


def scaled_to_limit_convergence(params: ModelParams, liou: LiouvillianOps,
                                a_values=(0.5, 0.25, 0.125, 0.0625),
                                n_vectors: int = 20,
                                seed: int = 11) -> BoundReport:
    """|| (M_a - M) psi || decreases monotonically as the dilation scale
    shrinks, for a fixed bundle of random vectors (strong convergence,
    sampled)."""
    basis = liou.basis
    part_nodes = basis.left.grid.nodes
    from .flows import saturating_profile
    prof = saturating_profile()
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n_vectors, basis.dim)) \
        + 1j * rng.standard_normal((n_vectors, basis.dim))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]

    norms = []
    for a in a_values:
        xi = np.concatenate(([0.0], np.asarray(prof.xi(part_nodes / a))))
        cont = np.concatenate(([0.0], np.ones(len(part_nodes))))
        dd = _both_factors_diag(basis, xi - cont)
        norms.append([float(np.linalg.norm(dd * v)) for v in vecs])
    norms = np.array(norms)     # (n_a, n_vectors)
    monotone = bool(np.all(np.diff(norms, axis=0) < 0))
    worst_gap = float(np.max(np.diff(norms, axis=0)))
    return BoundReport(
        check="dilation-profile bound operator converges to its limit",
        value=worst_gap, bound=0.0, slack=-worst_gap, passed=monotone,
        detail={"a_values": list(a_values),
                "max_norm_per_a": norms.max(axis=1).tolist()})


# ---------------------------------------------------------------------------
# the chain
# ---------------------------------------------------------------------------

@dataclass
class ChainRecipe:
    theta: float
    epsilon: float
    lambda0: float
    lambda1: float
    lambda2: float
    feasible_epsilon: float    # smallest width the grid can resolve
    recipe_feasible: bool
    n_e_required: int
    detail: dict = field(default_factory=dict)


def chain_recipe(params: ModelParams, gamma: float, k49: float,
                 eps0: float = 1.0, corr_shape: float = 0.5) -> ChainRecipe:
    """Parameter choice following the smallness prescription with measured
    constants.

    The reduction argument needs theta (1 + lam/eps)^2 + eps/(gamma theta)
    below a threshold lambda2 set by the measured correction shape and the
    compensation constant; theta is fixed at a quarter of that threshold
    and eps below gamma * theta * lambda2.  The returned diagnosis states
    whether the resulting width is resolvable on the energy grid.
    """
    k_hat = max(corr_shape, k49 / max(2.0 * gamma, 1e-300))
    lambda2 = max(1.0 / (2.0 * k_hat), 1e-9)
    theta = lambda2 / 8.0
    lambda1 = min(1.0, np.sqrt(0.2 / max(k49, 1.0)))
    # floor keeps the parameters admissible when the rate constant
    # degenerates to zero; the chain then fails its smallness flags
    epsilon = max(min(eps0, gamma * theta * lambda2 / 2.0), 1e-9)
    lambda0 = min(lambda1, epsilon * np.sqrt(lambda1 / theta), epsilon)
    de = params.e_max / params.n_e
    feasible = 2.0 * de
    n_e_required = int(np.ceil(2.0 * params.e_max / max(epsilon, 1e-300)))
    return ChainRecipe(
        theta=float(theta), epsilon=float(epsilon), lambda0=float(lambda0),
        lambda1=float(lambda1), lambda2=float(lambda2),
        feasible_epsilon=float(feasible),
        recipe_feasible=bool(epsilon >= feasible),
        n_e_required=n_e_required,
        detail={"k_hat": float(k_hat), "gamma": float(gamma),
                "k49": float(k49)})


@dataclass
class ChainReport:
    params: dict
    gamma: float
    k49: float
    recipe: ChainRecipe
    steps: list
    measured: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)


def _probe_k49(params: ModelParams) -> float:
    """The compensation constant at lam = 1e-4 (it only shrinks with the
    coupling); the probe operators are freed before the run stage."""
    probe = params.with_(lam=1e-4)
    liou = assemble_liouvillian(probe)
    conj = assemble_conjugates(probe, liou)
    i1 = interaction_commutator(probe, liou, conj.particle_gen, 1)
    return estimate_small_coupling_bound(probe, liou, i1)


def verify_bound_chain(params: ModelParams,
                       theta: float | None = None,
                       epsilon: float | None = None,
                       lam: float | None = None,
                       gamma: float | None = None,
                       m_grid=(0.0, 0.05, 0.1, 0.15, 0.2, 0.24),
                       tol_scale: float = 1e-8) -> ChainReport:
    """Run every inequality of the positivity argument at the given (or
    recipe-chosen) parameters and report slacks."""
    gamma = gamma if gamma is not None else gamma_limit(params)
    k49 = _probe_k49(params)
    recipe = chain_recipe(params, gamma, k49)
    theta = theta if theta is not None else recipe.theta
    epsilon = epsilon if epsilon is not None else recipe.epsilon
    lam = lam if lam is not None else 0.5 * recipe.lambda0

    run = params.with_(lam=lam, theta=theta, epsilon=epsilon)
    liou = assemble_liouvillian(run)
    conj = assemble_conjugates(run, liou)
    i1 = interaction_commutator(run, liou, conj.particle_gen, 1)
    k49_run = estimate_small_coupling_bound(run, liou, i1)
    k49 = max(k49, k49_run)
    ops = assemble_bound_operators(run, liou, conj, k49=k49)

    steps = []
    target = theta * lam ** 2 / epsilon * gamma

    # lower-bound inequality: commutator + correction dominates the
    # dressed operator (equivalently N + lam I1 - 0.9 Pbar + k49 lam^2 >= 0)
    combo = hermitize(
        sp.diags((liou.number - 0.9 * (1.0 - liou.vacuum_proj)
                  + k49 * lam ** 2).astype(complex)) + lam * i1)
    corr = ops.correction
    scale = max(1.0, _max_abs_row_sum(ops.d_scaled, corr))
    low, vec = min_eig_hermitian(combo, with_vector=True)
    residual = float(np.linalg.norm(combo @ vec - low * vec))
    steps.append(BoundReport(
        check="commutator dominates the dressed bound operator",
        value=low, bound=-tol_scale * scale, slack=low + tol_scale * scale,
        passed=bool(low >= -tol_scale * scale),
        detail={"norm_scale": scale, "residual": residual}))

    # complement block strictly above one half
    k_pi = conj.pi_index
    keep = np.arange(liou.basis.dim) != k_pi
    mbar_low, mbar_width = min_eig_diag_plus_lowrank(
        ops.d_limit[keep], LowRank(corr.u[keep], corr.c))
    steps.append(BoundReport(
        check="complement block exceeds one half",
        value=mbar_low, bound=0.5, slack=mbar_low - 0.5,
        passed=bool(mbar_low > 0.5), detail={"bracket": mbar_width}))

    # reduced scalar positive uniformly on the parameter grid
    f_vals = {}
    if mbar_low > 0.3:
        for m in m_grid:
            if m < mbar_low - 1e-6:
                res = feshbach_woodbury(ops.d_limit, corr, k_pi, float(m),
                                        mbar_low)
                f_vals[m] = res.f_value
    if f_vals:
        fmin = min(f_vals.values())
        fspread = max(f_vals.values()) - min(f_vals.values())
    else:
        fmin, fspread = -np.inf, np.inf
    # positivity is the content: a zero target with a zero minimum proves
    # nothing (the uncoupled generator keeps its kernel), so equality at
    # zero does not count as a pass
    steps.append(BoundReport(
        check="reduced block dominates the golden-rule target uniformly",
        value=fmin, bound=target, slack=fmin - target,
        passed=bool(fmin >= target and (fmin > 0.0 or target > 0.0)),
        detail={"f_values": {str(k): v for k, v in f_vals.items()},
                "spread": fspread, "target": target}))

    m_low, m_width = min_eig_diag_plus_lowrank(ops.d_limit, corr)
    steps.append(BoundReport(
        check="dressed operator strictly positive at the scaled target",
        value=m_low, bound=0.9 * target, slack=m_low - 0.9 * target,
        passed=bool(m_low >= 0.9 * target
                    and (m_low > 0.0 or target > 0.0)),
        detail={"bracket": m_width}))

    # parameter-regime flags with measured constants
    corr_norm = corr.norm()
    a66_lhs = k49 * lam ** 2 + corr_norm
    steps.append(BoundReport(
        check="smallness conditions for the complement bound",
        value=a66_lhs, bound=0.4, slack=0.4 - a66_lhs,
        passed=bool(a66_lhs < 0.4),
        detail={"lam": lam, "theta_lam2_over_eps2": theta * lam ** 2
                / epsilon ** 2, "correction_comm_norm": corr_norm}))
    a74_lhs = theta * (1.0 + abs(lam) / epsilon) ** 2 \
        + (epsilon / (gamma * theta) if gamma > 0 else np.inf)
    steps.append(BoundReport(
        check="smallness condition for the reduction",
        value=a74_lhs, bound=recipe.lambda2, slack=recipe.lambda2 - a74_lhs,
        passed=bool(a74_lhs < recipe.lambda2), detail={}))

    return ChainReport(
        params={"beta": params.beta, "lam": lam, "theta": theta,
                "epsilon": epsilon, "a": params.a, "n_e": params.n_e,
                "n_u": params.n_u, "n_max": params.n_max},
        gamma=float(gamma), k49=float(k49), recipe=recipe, steps=steps,
        measured={"mbar_min_eig": mbar_low, "m_min_eig": m_low,
                  "target": target, "correction_comm_norm": corr_norm})


def scan_lambda0(params: ModelParams, lam_grid, betas=(0.5, 1.0, 2.0),
                 theta: float | None = None,
                 epsilon: float | None = None):
    """Largest coupling on the grid passing the full chain, per inverse
    temperature.  Returns (rows, reports): rows are (beta, gamma, lambda0,
    lambda0/gamma)."""
    rows = []
    reports = {}
    for beta in betas:
        pb = params.with_(beta=beta)
        gamma = gamma_limit(pb)
        best = 0.0
        per_beta = []
        for lam in sorted(lam_grid):
            rep = verify_bound_chain(pb, theta=theta, epsilon=epsilon,
                                     lam=lam, gamma=gamma)
            per_beta.append(rep)
            if rep.passed:
                best = max(best, lam)
        ratio = best / gamma if gamma > 0 else 0.0
        rows.append((beta, gamma, best, ratio))
        reports[beta] = per_beta
    return rows, reports
