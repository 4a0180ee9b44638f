"""Eigenvalue, norm and Krylov helpers.

Every eigenvalue and norm goes through ARPACK / Lanczos, matrix-free at
every size, with deterministic start vectors so repeated runs give
identical output; no solver densifies an operator.  The solvers take a
``LinearOperator``: ``DiagPlus`` is one of diag(d) + lam X for a factored
X (a ``KronSum``), so nothing is assembled.
``lanczos_functions`` is the one matrix-function primitive: a family of
f(A)v (or the quadratic forms <v, f(A) v>) from one tridiagonalisation,
with convergence checked by doubling the Krylov dimension; it also
propagates vectors (exp(-i t A) v in vector form).
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
        out = (self.d * v.T).T
        return out if self.x is None else out + lam * (self.x @ v)

    def _matmat(self, v):
        return self._apply(v, self.lam)

    def _rmatmat(self, v):
        return self._apply(v, np.conj(self.lam)
                           * (getattr(self.x, "phase", 1) ** 2).real)

    _matvec, _rmatvec = _matmat, _rmatmat


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
    d.  s is bisected to adjacent floats; d off the support of W is exact.
    Returns the lower end of the bracket, a lower bound up to rounding.
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
    lo = np.nextafter(ds.min() - sq.sum(), -np.inf)
    hi = np.nextafter(ds.min() + sq.sum(), np.inf)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if below(mid) >= 1 else (mid, hi)
    if off_min < lo:
        return off_min, 0.0
    return float(lo), float(min(hi, off_min) - lo)


@dataclass
class KrylovFunctions:
    values: np.ndarray      # quadratic forms (n_f,) or vectors (n_f, n)
    error: float            # m/2-vs-m difference; 0 when T is exact
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

    The Krylov dimension m doubles from 8 until the largest
    |difference| of measure(values) between m/2 and m (a 2-norm per
    vector) is within tol.  A breakdown makes T exact and stops at once;
    reaching m_max unconverged raises RuntimeError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    measure = measure or (lambda x: x)
    nrm = float(np.linalg.norm(v))
    q_prev, q, b_prev = np.zeros_like(v), v / nrm, 0.0
    alpha, beta, basis, prev, m = [], [], [], None, min(8, m_max)
    while True:
        exact = False
        while len(alpha) < m and not exact:
            basis += [q] if vectors else []
            w = apply_op(q)
            alpha.append(float(np.vdot(q, w).real))
            w = w - alpha[-1] * q - b_prev * q_prev
            beta.append(float(np.linalg.norm(w)))
            exact = beta[-1] <= 1e-13 * (abs(alpha[-1]) + b_prev)
            q_prev, q, b_prev = q, w / (beta[-1] or 1.0), beta[-1]
        k = len(alpha)
        theta, ritz = eigh_tridiagonal(np.array(alpha), np.array(beta[:-1]))
        weighted = np.asarray(fns(theta)) * ritz[0]
        cur = (nrm * (weighted @ ritz.T) @ np.array(basis) if vectors
               else nrm ** 2 * (weighted @ ritz[0]))
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
        prev, m = cur, min(2 * m, m_max)
