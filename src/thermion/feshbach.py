"""Feshbach reduction, the dressed lower-bound operators, and the chain.

The chain verifier measures every constant the argument depends on (the
small-coupling compensation constant, the golden-rule constant, the norm
of the finite-rank commutator correction), assembles the two candidate
lower-bound operators, and checks each inequality of the argument as an
eigenvalue statement with explicit slack.  Nothing is assumed: parameter
regimes that the truncation cannot reach are diagnosed and reported.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .commutators import (estimate_small_coupling_bound,
                          interaction_commutator)
from .fgr import gamma_limit
from .linalg import min_eig_hermitian, operator_norm
from .operators import (ConjugateOps, LiouvillianOps, assemble_conjugates,
                        assemble_liouvillian, assemble_particle_ops,
                        hermitize)
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


def _orthonormal_range(pi: np.ndarray, dim: int):
    pi = np.asarray(pi)
    if pi.ndim == 1:
        q = np.zeros((dim, len(pi)), dtype=complex)
        for c, idx in enumerate(pi):
            q[idx, c] = 1.0
        return q
    q, r = np.linalg.qr(pi.astype(complex))
    keep = np.abs(np.diag(r)) > 1e-12
    return q[:, keep]


def feshbach_map(mat, pi, m: float, cond_tol: float = 1e-8,
                 complement_floor: float | None = None) -> FeshbachResult:
    """Reduce a Hermitian matrix to the range of a projection at spectral
    parameter m:  P (M - M Q (Qbar M Qbar - m)^{-1} Q M) P.

    ``pi`` is either an index array (coordinate projection) or a matrix
    whose columns span the range.  Refuses when m is too close to the
    complement spectrum.  ``complement_floor`` may carry a precomputed
    lower bound on the complement spectrum to skip the eigensolve.
    """
    dim = mat.shape[0]
    if sp.issparse(mat) and np.ndim(pi) == 1:
        keep = np.setdiff1d(np.arange(dim), np.asarray(pi))
        sub = mat.tocsr()
        mbar = sub[keep][:, keep]
        cross = sub[keep][:, np.asarray(pi)].toarray()
        block = sub[np.asarray(pi)][:, np.asarray(pi)].toarray()
        low = (complement_floor if complement_floor is not None
               else min_eig_hermitian(mbar))
        dist = low - m
        if dist <= cond_tol:
            raise ValueError(
                f"spectral parameter {m} within {dist:.3e} of the complement "
                "spectrum; refusing the reduction")
        shifted = (mbar - m * sp.identity(mbar.shape[0], dtype=complex,
                                          format="csr")).tocsc()
        solve = spla.factorized(shifted)
        sol = np.column_stack([solve(cross[:, k])
                               for k in range(cross.shape[1])])
        f = block - cross.conj().T @ sol
        return FeshbachResult(m, hermitize(f), float(dist))

    dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat)
    q = _orthonormal_range(pi, dim)
    proj = np.eye(dim, dtype=complex) - q @ q.conj().T
    w, v = np.linalg.eigh(proj)
    qbar = v[:, w > 0.5]
    mbar = qbar.conj().T @ dense @ qbar
    evals = np.linalg.eigvalsh(mbar)
    dist = float(np.min(np.abs(evals - m)))
    if dist <= cond_tol:
        raise ValueError(
            f"spectral parameter {m} within {dist:.3e} of the complement "
            "spectrum; refusing the reduction")
    cross = qbar.conj().T @ dense @ q
    block = q.conj().T @ dense @ q
    sol = np.linalg.solve(mbar - m * np.eye(mbar.shape[0]), cross)
    f = block - cross.conj().T @ sol
    return FeshbachResult(m, hermitize(f), dist)


def isospectrality_defect(mat: np.ndarray, pi, tol_rel: float = 1e-10):
    """For each eigenvalue of the matrix below the complement spectrum,
    the determinant of (reduced block - eigenvalue); all should vanish.

    Returns (defects, eigenvalues tested, scale) where defects are the
    absolute determinant values normalized by the matrix norm to the
    projection rank.
    """
    dense = np.asarray(mat)
    dim = dense.shape[0]
    q = _orthonormal_range(pi, dim)
    rank = q.shape[1]
    proj = np.eye(dim, dtype=complex) - q @ q.conj().T
    w, v = np.linalg.eigh(proj)
    qbar = v[:, w > 0.5]
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
    q = _orthonormal_range(pi, dense.shape[0])
    rank = q.shape[1]
    proj = np.eye(dense.shape[0], dtype=complex) - q @ q.conj().T
    w, v = np.linalg.eigh(proj)
    qbar = v[:, w > 0.5]
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
    m_scaled: sp.csr_matrix    # dilation-profile version (depends on a)
    m_limit: sp.csr_matrix     # sharp-projection version (the a -> 0 limit)
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
    if k49 is None:
        i1 = interaction_commutator(params, liou, conj.particle_gen, 1)
        k49 = estimate_small_coupling_bound(params, liou, i1)
    else:
        i1 = interaction_commutator(params, liou, conj.particle_gen, 1)

    offset = 0.9 * (1.0 - liou.vacuum_proj) - k49 * params.lam ** 2
    diag_scaled = _both_factors_diag(basis, part.xi_of_h) + offset
    diag_limit = _both_factors_diag(basis, part.continuum_proj) + offset
    m_scaled = hermitize(sp.diags(diag_scaled.astype(complex))
                         + conj.correction_comm)
    m_limit = hermitize(sp.diags(diag_limit.astype(complex))
                        + conj.correction_comm)
    return BoundOperators(m_scaled, m_limit, float(k49), i1)


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

    # stage 1: measure the compensation constant in the perturbative limit
    # (it only shrinks with the coupling, so this choice is conservative)
    probe = params.with_(lam=1e-4)
    liou0 = assemble_liouvillian(probe)
    conj0 = assemble_conjugates(probe, liou0)
    i1_probe = interaction_commutator(probe, liou0, conj0.particle_gen, 1)
    k49 = estimate_small_coupling_bound(probe, liou0, i1_probe)

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
    scale = max(1.0, float(abs(ops.m_scaled).sum(axis=1).max()))
    low = min_eig_hermitian(combo)
    steps.append(BoundReport(
        check="commutator dominates the dressed bound operator",
        value=low, bound=-tol_scale * scale, slack=low + tol_scale * scale,
        passed=bool(low >= -tol_scale * scale), detail={"norm_scale": scale}))

    # complement block strictly above one half
    k_pi = conj.pi_index
    keep = np.setdiff1d(np.arange(liou.basis.dim), [k_pi])
    mbar = ops.m_limit.tocsr()[keep][:, keep]
    mbar_low = min_eig_hermitian(mbar)
    steps.append(BoundReport(
        check="complement block exceeds one half",
        value=mbar_low, bound=0.5, slack=mbar_low - 0.5,
        passed=bool(mbar_low > 0.5), detail={}))

    # reduced scalar positive uniformly on the parameter grid
    f_vals = {}
    if mbar_low > 0.3:
        for m in m_grid:
            if m < mbar_low - 1e-6:
                res = feshbach_map(ops.m_limit, np.array([k_pi]), float(m),
                                   complement_floor=mbar_low)
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

    m_low = min_eig_hermitian(ops.m_limit)
    steps.append(BoundReport(
        check="dressed operator strictly positive at the scaled target",
        value=m_low, bound=0.9 * target, slack=m_low - 0.9 * target,
        passed=bool(m_low >= 0.9 * target
                    and (m_low > 0.0 or target > 0.0)), detail={}))

    # parameter-regime flags with measured constants
    corr_norm = operator_norm(conj.correction_comm)
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
