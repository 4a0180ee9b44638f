"""Feshbach reduction, the dressed lower-bound operators, and the chain.

The chain verifier measures every constant the argument depends on (the
small-coupling compensation constant, the golden-rule constant, the norm
of the finite-rank commutator correction), assembles the two candidate
lower-bound operators, and checks each inequality of the argument as an
eigenvalue statement with explicit slack.  Nothing is assumed: parameter
regimes that the truncation cannot reach are diagnosed and reported.

A dressed operator is a diagonal plus the factored rank-4 correction,
D + U C U*: its reduced block comes by Woodbury, its spectral bounds by
exact inertia counting.  ``FeshbachPencil`` is the dense reduction of any
Hermitian matrix: one complement eigendecomposition per (matrix,
projection), then F over a stack of spectral parameters in one broadcast
evaluation, for the isospectrality defect and the root scan alike.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fgr import gamma_limit
from .linalg import DiagPlus, min_eig_diag_plus_lowrank, min_eig_hermitian
from .operators import (ConjugateOps, LiouvillianAction, LowRank, Truncation,
                        assemble_conjugates, assemble_liouvillian, hermitize,
                        pair_diag)
from .params import ModelParams
from .reports import BoundReport

# distance to the complement spectrum within which a reduction is refused
_COND_TOL = 1e-8


@dataclass
class FeshbachResult:
    m: float | np.ndarray      # one spectral parameter or a stack
    f_matrix: np.ndarray       # reduced block on the projection range, per m
    spec_distance: float | np.ndarray  # from m to the complement spectrum

    @property
    def f_value(self) -> float:
        """Scalar value for rank-one projections."""
        if self.f_matrix.shape != (1, 1):
            raise ValueError("reduced block is not scalar")
        return float(np.real(self.f_matrix[0, 0]))


def _refuse(m: float, dist: float):
    raise ValueError(
        f"spectral parameter {m} within {dist:.3e} of the complement "
        "spectrum; refusing the reduction")


class FeshbachPencil:
    """The reduction P (M - M Qbar (Qbar M Qbar - m)^{-1} Qbar M) P of a
    Hermitian matrix to the range of a projection, for every spectral
    parameter m from one decomposition: with Qbar* M Qbar = V diag(w) V*,
    F(m) = q* M q - X* diag(1 / (w - m)) X and X = V* Qbar* M q.

    ``pi`` is a matrix whose columns span the range; it must have full
    column rank.  ``reduce`` takes a scalar m or a stack of them and
    evaluates every one by the same lines, broadcasting over the stack.
    """

    def __init__(self, mat, pi):
        mat = np.asarray(mat)
        dim = mat.shape[0]
        q, r = np.linalg.qr(np.asarray(pi).astype(complex))
        if np.any(np.abs(np.diag(r)) <= 1e-12):
            raise ValueError("projection columns are linearly dependent")
        w, v = np.linalg.eigh(np.eye(dim, dtype=complex) - q @ q.conj().T)
        qbar = v[:, w > 0.5]
        self.q = q
        self.w, v = np.linalg.eigh(qbar.conj().T @ mat @ qbar)
        self.x = (qbar @ v).conj().T @ mat @ q
        self.b = q.conj().T @ mat @ q
        self.evals = np.linalg.eigvalsh(mat)

    def reduce(self, m, cond_tol: float = _COND_TOL) -> FeshbachResult:
        """F(m) over the axes of m; refuses when any m is within cond_tol
        of the complement spectrum."""
        shift = self.w - np.asarray(m)[..., None]
        dist = np.min(np.abs(shift), axis=-1)
        near = dist <= cond_tol
        if np.any(near):
            _refuse(np.asarray(m)[near][0], dist[near][0])
        f = self.b - (self.x.conj().T / shift[..., None, :]) @ self.x
        return FeshbachResult(m, hermitize(f), dist)

    def _det(self, m, cond_tol: float = _COND_TOL):
        f = self.reduce(m, cond_tol).f_matrix
        return np.linalg.det(f - np.multiply.outer(m, np.eye(f.shape[-1])))

    def defects(self):
        """|det(F(mu) - mu)| / max(1, ||M||)^rank at each eigenvalue mu of
        the matrix more than _COND_TOL below the complement spectrum (closer
        ones ``reduce`` refuses); all should vanish.
        Returns (defects, eigenvalues tested)."""
        tested = self.evals[self.evals < self.w[0] - _COND_TOL]
        norm = float(np.abs(self.evals).max())     # ||M||_2, M Hermitian
        scale = max(1.0, norm) ** self.q.shape[1]
        return np.abs(self._det(tested)) / scale, tested

    def roots(self, n_grid: int = 400) -> np.ndarray:
        """Roots of det(F(m) - m) below the complement spectrum, by sign
        scan plus bisection; each should be an eigenvalue of the matrix."""
        from scipy.optimize import brentq

        def d(m):
            return np.real(self._det(m, cond_tol=1e-12))

        grid = np.linspace(self.evals[0] - 1.0, self.w[0] - 1e-6, n_grid)
        signs = np.sign(d(grid))
        return np.array([brentq(d, lo, hi, xtol=1e-13) for lo, hi, s
                         in zip(grid, grid[1:], signs[:-1] * signs[1:])
                         if s < 0])


def feshbach_woodbury(d: np.ndarray, lr: LowRank, k: int, m: float,
                      floor: float) -> FeshbachResult:
    """F(m) = d_k + u_k C u_k* - b* (Mbar - m)^{-1} b, b = Ubar C u_k*, of
    M = diag(d) + U C U* on the coordinate k, by Woodbury through
    I + C Ubar* (Dbar - m)^{-1} Ubar (C need not be invertible) on the
    support of U.  Refuses when m is within _COND_TOL of ``floor`` (a lower
    bound on the complement spectrum) or the residual exceeds 1e-10 ||b||.
    """
    dist = floor - m
    if dist <= _COND_TOL:
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


def assemble_bound_operators(liou: LiouvillianAction, conj: ConjugateOps,
                             k49: float) -> BoundOperators:
    trunc, lam = liou.trunc, liou.params.lam
    offset = 0.9 * (1.0 - trunc.vacuum_proj) - k49 * lam ** 2
    d_scaled = pair_diag(trunc.basis, trunc.particle.xi_of_h) + offset
    d_limit = pair_diag(trunc.basis, trunc.particle.continuum_proj) + offset
    return BoundOperators(d_scaled, d_limit, conj.correction_comm, float(k49))


def _max_abs_row_sum(d: np.ndarray, lr: LowRank) -> float:
    """max_i sum_j |(diag(d) + U C U*)_ij|: |d_i| off the support of U, on
    it the dense rows 256 at a time."""
    sums, on = np.abs(d), np.flatnonzero(np.any(lr.u != 0, axis=1))
    chunk = 256
    uc, uh = lr.u[on] @ lr.c, lr.u[on].conj().T
    for i in range(0, len(on), chunk):
        block = uc[i:i + chunk] @ uh
        block[:, i:i + chunk] += np.diag(d[on[i:i + chunk]])
        sums[on[i:i + chunk]] = np.abs(block).sum(axis=1)
    return float(sums.max())


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


def chain_recipe(params: ModelParams, gamma: float, k49: float) -> ChainRecipe:
    """Parameter choice following the smallness prescription with measured
    constants.

    The reduction argument needs theta (1 + lam/eps)^2 + eps/(gamma theta)
    below a threshold lambda2 set by the correction shape (at least 1/2)
    and the compensation constant; theta is fixed at an eighth of that
    threshold and eps at half of gamma * theta * lambda2, capped at 1.
    The returned diagnosis states whether the resulting width is
    resolvable on the energy grid.
    """
    k_hat = max(0.5, k49 / max(2.0 * gamma, 1e-300))
    lambda2 = max(1.0 / (2.0 * k_hat), 1e-9)
    theta = lambda2 / 8.0
    lambda1 = min(1.0, np.sqrt(0.2 / max(k49, 1.0)))
    # floor keeps the parameters admissible when the rate constant
    # degenerates to zero; the chain then fails its smallness flags
    epsilon = max(min(1.0, gamma * theta * lambda2 / 2.0), 1e-9)
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
                       trunc: Truncation | None = None) -> ChainReport:
    """Run every inequality of the positivity argument at the given (or
    recipe-chosen) parameters and report slacks; the probe and the run
    share ``trunc`` (a new truncation of ``params`` when none is given)."""
    gamma = gamma if gamma is not None else gamma_limit(params)
    trunc = trunc or Truncation(params)
    k49 = trunc.k49
    recipe = chain_recipe(params, gamma, k49)
    theta = theta if theta is not None else recipe.theta
    epsilon = epsilon if epsilon is not None else recipe.epsilon
    lam = lam if lam is not None else 0.5 * recipe.lambda0

    run = params.with_(lam=lam, theta=theta, epsilon=epsilon)
    liou = assemble_liouvillian(run, trunc)
    conj = assemble_conjugates(liou)
    k49 = max(k49, trunc.compensation(lam))
    ops = assemble_bound_operators(liou, conj, k49=k49)

    steps = []
    target = theta * lam ** 2 / epsilon * gamma

    # lower-bound inequality: commutator + correction dominates the
    # dressed operator (equivalently N + lam I1 - 0.9 Pbar + k49 lam^2 >= 0)
    combo = DiagPlus(trunc.number - 0.9 * (1.0 - trunc.vacuum_proj)
                     + k49 * lam ** 2, lam, trunc.commutator(1))
    corr = ops.correction
    scale = max(1.0, _max_abs_row_sum(ops.d_scaled, corr))
    low, vec = min_eig_hermitian(combo, with_vector=True)
    residual = float(np.linalg.norm(combo @ vec - low * vec))
    steps.append(BoundReport.of(
        "commutator dominates the dressed bound operator", low, ">=",
        -1e-8 * scale,
        detail={"norm_scale": scale, "residual": residual}))

    # complement block strictly above one half
    k_pi = conj.pi_index
    keep = np.arange(trunc.basis.dim) != k_pi
    mbar_low, mbar_width = min_eig_diag_plus_lowrank(
        ops.d_limit[keep], LowRank(corr.u[keep], corr.c))
    steps.append(BoundReport.of(
        "complement block exceeds one half", mbar_low, ">", 0.5,
        detail={"bracket": mbar_width}))

    # reduced scalar positive uniformly on the parameter grid
    f_vals = {}
    if mbar_low > 0.3:
        for m in (0.0, 0.05, 0.1, 0.15, 0.2, 0.24):
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
    steps.append(BoundReport.of(
        "reduced block dominates the golden-rule target uniformly", fmin,
        ">=", target, also=fmin > 0.0 or target > 0.0,
        detail={"f_values": {str(k): v for k, v in f_vals.items()},
                "spread": fspread, "target": target}))

    m_low, m_width = min_eig_diag_plus_lowrank(ops.d_limit, corr)
    steps.append(BoundReport.of(
        "dressed operator strictly positive at the scaled target", m_low,
        ">=", 0.9 * target, also=m_low > 0.0 or target > 0.0,
        detail={"bracket": m_width}))

    # parameter-regime flags with measured constants
    corr_norm = corr.norm()
    a66_lhs = k49 * lam ** 2 + corr_norm
    steps.append(BoundReport.of(
        "smallness conditions for the complement bound", a66_lhs, "<", 0.4,
        detail={"lam": lam, "theta_lam2_over_eps2": theta * lam ** 2
                / epsilon ** 2, "correction_comm_norm": corr_norm}))
    a74_lhs = theta * (1.0 + abs(lam) / epsilon) ** 2 \
        + (epsilon / (gamma * theta) if gamma > 0 else np.inf)
    steps.append(BoundReport.of(
        "smallness condition for the reduction", a74_lhs, "<",
        recipe.lambda2))

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
        trunc = Truncation(pb)
        gamma = gamma_limit(pb)
        best = 0.0
        per_beta = []
        for lam in sorted(lam_grid):
            rep = verify_bound_chain(pb, theta=theta, epsilon=epsilon,
                                     lam=lam, gamma=gamma, trunc=trunc)
            per_beta.append(rep)
            if rep.passed:
                best = max(best, lam)
        ratio = best / gamma if gamma > 0 else 0.0
        rows.append((beta, gamma, best, ratio))
        reports[beta] = per_beta
    return rows, reports
