"""Eigenvalue, norm and Krylov helpers.

Every eigenvalue and norm goes through ARPACK / Lanczos, matrix-free at
every size, with deterministic start vectors so repeated runs give
identical output; no solver densifies an operator.  The solvers take a
``LinearOperator``: ``DiagPlus`` is one of diag(d) + lam X for a factored
X (a ``KronSum``), so nothing is assembled.
``lanczos_functions`` is the one matrix-function primitive: a family of
f(A)v (or the quadratic forms <v, f(A) v>) from one tridiagonalisation,
with convergence checked as the Krylov dimension grows by an eighth; it
also propagates vectors (exp(-i t A) v in vector form).
``min_eig_diag_plus_lowrank`` is exact, by inertia counting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal


class DiagPlus(spla.LinearOperator):
    """diag(d) + lam X as a LinearOperator of the dtype of X and lam, for d
    real and X with @ on vectors and (dim, k) blocks (a block is applied at
    once), or X None for diag(d) alone; ``d``, ``lam`` and ``x`` stay
    readable, so a caller can treat the diagonal and X apart.  X's adjoint
    is p^2 = +-1 times X for its ``phase`` p (a ``KronSum``'s, 1 or 1j; 1
    for any other X): a real lam and phase give a Hermitian operator, as
    does lam = i lam' on a phase-i X."""

    def __init__(self, d: np.ndarray, lam: float = 0.0, x=None):
        self.d, self.lam, self.x = d, lam, x
        super().__init__(d.dtype if x is None
                         else np.result_type(d, x.dtype, lam), (len(d),) * 2)

    def _apply(self, v, lam):
        dv = (self.d * v.T).T
        if self.x is None:
            return dv
        out = self.x @ v
        if out.dtype != np.result_type(out, dv, lam):
            return dv + lam * out
        out *= lam      # X @ v is new: in place, the same operations
        out += dv
        return out

    def _matmat(self, v):
        return self._apply(v, self.lam)

    def _rmatmat(self, v):
        return self._apply(v, np.conj(self.lam)
                           * (getattr(self.x, "phase", 1) ** 2).real)

    _matvec, _rmatvec = _matmat, _rmatmat


def vdot(a: np.ndarray, b: np.ndarray):
    """sum_i conj(a_i) b_i as an einsum: OpenBLAS threads a dot above dim
    10,000, and its bits then follow the thread count."""
    return np.einsum("i,i", a.conj(), b)


def norm(v: np.ndarray) -> float:
    return float(np.sqrt(vdot(v, v).real))


def one_thread_matmul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b (2-D) in column blocks of b that OpenBLAS runs on one thread:
    on 2 vCPUs a complex gemm threaded from 2^16 multiply-adds, and a gemv
    (a one-row a, or one column) from 2^12 entries.  numpy and scipy each
    load an OpenBLAS, and a woken worker of one spins against the other."""
    cols = max(1, ((2 ** 12 if len(a) == 1 else 2 ** 16) - 1) // a.size)
    if out is None:
        out = np.empty((len(a), b.shape[1]), np.result_type(a, b))
    for j in range(0, b.shape[1], cols):
        np.matmul(a, b[:, j:j + cols], out=out[:, j:j + cols])
    return out


def _start_vector(n: int) -> np.ndarray:
    return np.random.default_rng(12345).standard_normal(n)


def _power_norm(m) -> float:
    """Deterministic power iteration on M* M, at most 500 steps to a
    relative change of 1e-10 (fallback when ARPACK balks, e.g. on diagonal
    operators with large kernels)."""
    op = spla.aslinearoperator(m)
    v = _start_vector(m.shape[1]).astype(complex)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(500):
        w = op.rmatvec(op.matvec(v))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new = np.sqrt(nw)
        v = w / nw
        if abs(new - est) <= 1e-10 * max(new, 1.0):
            return float(new)
        est = new
    return float(est)


def operator_norm(m) -> float:
    """Largest singular value, to ARPACK tolerance 1e-9."""
    try:
        sv = spla.svds(m, k=1, tol=1e-9, v0=_start_vector(m.shape[1]),
                       return_singular_vectors=False)
        return float(sv[0])
    except (spla.ArpackError, spla.ArpackNoConvergence):
        return _power_norm(m)


def min_eig_hermitian(m, with_vector: bool = False):
    """Smallest eigenvalue of a Hermitian matrix or LinearOperator by
    ARPACK (tolerance 1e-10), with a shifted retry on non-convergence; the
    eigenvector is built only when ``with_vector`` asks for it."""
    n, shift = m.shape[0], 0.0
    op = spla.aslinearoperator(m)
    arpack = dict(k=1, tol=1e-10, v0=_start_vector(n), maxiter=60 * n,
                  return_eigenvectors=with_vector)
    try:
        out = spla.eigsh(op, which="SA", **arpack)
    except spla.ArpackNoConvergence:
        shift = operator_norm(m) + 1.0
        op = op - shift * spla.aslinearoperator(sp.identity(n))
        out = spla.eigsh(op, which="LM", **arpack)
    low = float((out[0] if with_vector else out)[0] + shift)
    return (low, out[1][:, 0]) if with_vector else low


def eig_pairs_smallest(m, k: int):
    """k smallest eigenpairs of a Hermitian matrix or LinearOperator by
    ARPACK (k <= dim - 2 for a complex one)."""
    n = m.shape[0]
    w, v = spla.eigsh(m, k=k, which="SA", tol=1e-10,
                      v0=_start_vector(n), maxiter=80 * n)
    order = np.argsort(w)
    return w[order], v[:, order]


def min_eig_diag_plus_lowrank(d: np.ndarray, lr) -> tuple[float, float]:
    """Smallest eigenvalue of diag(d) + U C U* (d real, ``lr`` a LowRank)
    and its bracket width.  With C = Q diag(w) Q* (w != 0), W = U Q |w|^1/2
    and J = sign(w), Haynsworth inertia additivity counts the eigenvalues
    below s as neg(D - s) + neg(-J - W* (D - s)^-1 W) - neg(-J) (Golub's
    secular equation), O(dim r^2) a count; pivots d_i - s below |W_i|^2
    keep their exact shifts in a small block, so s may sit on an entry of
    d.  s is bisected to adjacent floats, counting only in a window that
    counts certify around a candidate root: plain bisection's bracket where
    the count is monotone.  d off the support of W is exact.  Returns the
    lower end of the bracket, a lower bound up to rounding.
    """
    w, q = np.linalg.eigh(lr.c)
    nz = np.abs(w) > len(w) * np.finfo(float).eps * np.abs(w).max(initial=0)
    wmat = (lr.u @ q[:, nz]) * np.sqrt(np.abs(w[nz]))
    on = np.any(wmat != 0, axis=1)
    off_min = float(np.min(d[~on], initial=np.inf))
    if not on.any():
        return off_min, 0.0
    ds, ws, sign = d[on], wmat[on], np.sign(w[nz])
    sq = np.sum(np.abs(ws) ** 2, axis=1)

    def below(s):
        sh = ds - s
        near = np.abs(sh) < sq
        far = ~near
        wn, wf = ws[near], ws[far]
        border = -np.diag(sign) - (wf.conj().T / sh[far]) @ wf
        evals = np.linalg.eigvalsh(border)
        if near.any() and np.abs(evals).min() > 1e-8 * np.abs(evals).max():
            schur = np.diag(sh[near]) - wn @ np.linalg.solve(border,
                                                             wn.conj().T)
            evals = np.r_[evals, np.linalg.eigvalsh(schur)]
        elif near.any():
            evals = np.linalg.eigvalsh(np.block([[np.diag(sh[near]), wn],
                                                 [wn.conj().T, border]]))
        return (np.count_nonzero(sh[far] < 0) - np.count_nonzero(sign > 0)
                + np.count_nonzero(evals < 0))

    # Weyl: the lowest eigenvalue is within ||W||_F^2 of min(ds)
    d0 = ds.min()
    lo = np.nextafter(d0 - sq.sum(), -np.inf)
    hi = np.nextafter(d0 + sq.sum(), np.inf)
    # candidate: a root of f(s) = lowest eigenvalue of D_P - s + W_P M(s)
    # W_P* on the near block P (the at most 64 lowest pivots within 2
    # ||W||_F^2 of min(ds)), the rest Q eliminated by Woodbury: S = W_Q* (D_Q
    # - s)^-1 W_Q and M = J - J (S - S (J + S)^-1 S) J, shifted by min(ds)
    # for accuracy.  It starts at the lower bound min(ds) - ||W_-||_F^2 (W_-:
    # the columns of J = -1); up to the lowest eigenvalue of the Q block f
    # falls with slope <= -1, so each step is s - f / slope, the slope -1 or
    # a steeper secant
    in_p = np.zeros(len(ds), bool)
    in_p[np.argpartition(ds, min(63, len(ds) - 1))[:64]] = True
    in_p &= ds <= d0 + 2.0 * sq.sum()
    wp, wq, dq, j = ws[in_p], ws[~in_p], ds[~in_p], np.diag(sign)
    s, s_prev, f_prev = d0 - np.sum(np.abs(ws[:, sign < 0]) ** 2), None, None
    for _ in range(8):
        try:    # singular where the cap splits a tie: a pivot of Q at s
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                sm = (wq.conj().T / (dq - s)) @ wq
                m = j - np.outer(sign, sign) * (
                    sm - sm @ np.linalg.solve(j + sm, sm))
        except (FloatingPointError, np.linalg.LinAlgError):
            break
        f = d0 + np.linalg.eigvalsh(np.diag(ds[in_p] - d0)
                                    + wp @ m @ wp.conj().T)[0] - s
        slope = -1.0 if f_prev is None else min(-1.0, (f - f_prev)
                                                 / (s - s_prev))
        new = s - f / slope
        if not lo < new < hi or new == s:
            break
        s_prev, f_prev, s = s, f, new
    # the window: s -+ 4 ulps (eps^2 ||W||_F^2 at s = 0), each end widened
    # x64 until count(a) = 0 and count(b) >= 1, or the bracket
    ulps = 4.0 * np.spacing(max(abs(s), np.finfo(float).eps * sq.sum()))
    step = ulps
    while (a := s - step) > lo and below(a) >= 1:
        step *= 64.0
    step = ulps
    while (b := s + step) < hi and below(b) < 1:
        step *= 64.0
    # bisection to adjacent floats, counting only inside the window
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        up = mid >= b or (mid > a and below(mid) >= 1)
        lo, hi = (lo, mid) if up else (mid, hi)
    if off_min < lo:
        return off_min, 0.0
    return float(lo), float(min(hi, off_min) - lo)


@dataclass
class KrylovFunctions:
    values: np.ndarray      # quadratic forms (n_f,) or vectors (n_f, n)
    error: float            # last two checked dims' difference; 0 if exact
    krylov_dim: int


def lanczos_functions(apply_op, v: np.ndarray, fns, tol: float,
                      vectors: bool = False, measure=None,
                      m_max: int = 4096) -> KrylovFunctions:
    """A family of functions of a Hermitian operator A at v, from one
    Lanczos run: ||v||^2 e1^T f_j(T) e1 or, with ``vectors``,
    ||v|| V f_j(T) e1, where ``fns`` maps the Ritz values theta (k,) to
    f_j(theta) (n_f, k).  The quadratic form keeps no basis (O(n) memory):
    Gauss quadrature survives the loss of orthogonality of the bare
    three-term recurrence (Golub & Meurant 2010).

    The Krylov dimension m grows from 8 by max(8, 8 floor(m/64)) (8, 16,
    ..., 64, 72, ..., 128, 144, ...: geometric, so the checks' eigh cost
    sums to a constant times the last) until the largest |difference| of
    measure(values) between the last two checked dimensions (a 2-norm per
    vector) is within tol.  A breakdown makes T exact and stops at once;
    reaching m_max unconverged raises RuntimeError.  No product or
    reduction here wakes a BLAS worker (``vdot``, ``one_thread_matmul``).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    measure = measure or (lambda x: x)
    nrm = norm(v)
    q_prev, q, b_prev = np.zeros_like(v), v / nrm, 0.0
    alpha, beta, basis, prev, m = [], [], [], None, min(8, m_max)
    while True:
        exact = False
        while len(alpha) < m and not exact:
            basis += [q] if vectors else []
            w = apply_op(q)
            # updated in place: copied if it is q, or too narrow for q
            if np.may_share_memory(w, q) or w.dtype != np.result_type(w, q):
                w = w.astype(np.result_type(w, q))
            alpha.append(float(vdot(q, w).real))
            w -= alpha[-1] * q
            w -= b_prev * q_prev
            beta.append(norm(w))
            exact = beta[-1] <= 1e-13 * (abs(alpha[-1]) + b_prev)
            q_prev, q, b_prev = q, w / (beta[-1] or 1.0), beta[-1]
        k = len(alpha)
        theta, ritz = eigh_tridiagonal(np.array(alpha), np.array(beta[:-1]))
        weighted = np.asarray(fns(theta)) * ritz[0]
        cur = (nrm * one_thread_matmul(one_thread_matmul(weighted, ritz.T),
                                       np.array(basis)) if vectors
               else nrm ** 2 * np.einsum("jk,k", weighted, ritz[0]))
        if exact:
            return KrylovFunctions(cur, 0.0, k)
        if prev is not None:
            diff = np.abs(measure(cur) - measure(prev))
            err = float(np.max(np.linalg.norm(diff, axis=-1) if vectors
                               else diff))
            if err <= tol:
                return KrylovFunctions(cur, err, k)
        if k >= m_max:
            raise RuntimeError(f"Lanczos unconverged at dimension {k}")
        prev, m = cur, min(m + max(8, 8 * (m // 64)), m_max)
