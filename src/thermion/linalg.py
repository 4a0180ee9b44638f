"""Eigenvalue, norm and Krylov helpers.

Small problems go dense; large ones go through ARPACK / Lanczos with
deterministic start vectors so repeated runs give identical output.
``lanczos_functions`` is the one matrix-function primitive: a family of
f(A)v (or the quadratic forms <v, f(A) v>) from one tridiagonalisation,
with convergence checked by doubling the Krylov dimension.  The restarted
exponential ``expm_multiply_hermitian`` remains for propagating arbitrary
vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, eigh_tridiagonal, norm as dense_norm

DENSE_CUTOFF = 1500


def _as_matrix(m):
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def _start_vector(n: int, seed: int = 12345) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


def _power_norm(m, tol: float = 1e-10, max_iter: int = 500) -> float:
    """Deterministic power iteration on M* M (fallback when ARPACK balks,
    e.g. on diagonal operators with large kernels)."""
    v = _start_vector(m.shape[1]).astype(complex)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(max_iter):
        w = m.conj().T @ (m @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new = np.sqrt(nw)
        v = w / nw
        if abs(new - est) <= tol * max(new, 1.0):
            return float(new)
        est = new
    return float(est)


def operator_norm(m, tol: float = 1e-9) -> float:
    """Largest singular value."""
    if min(m.shape) <= DENSE_CUTOFF:
        return float(dense_norm(_as_matrix(m), 2))
    try:
        sv = spla.svds(m.tocsc() if sp.issparse(m) else m, k=1, tol=tol,
                       v0=_start_vector(m.shape[1]),
                       return_singular_vectors=False)
        return float(sv[0])
    except (spla.ArpackError, spla.ArpackNoConvergence):
        return _power_norm(m)


def min_eig_hermitian(m, tol: float = 1e-10, with_vector: bool = False):
    """Smallest eigenvalue of a Hermitian matrix (dense below the cutoff,
    ARPACK above, with a shifted retry on non-convergence)."""
    n = m.shape[0]
    if n <= DENSE_CUTOFF:
        if with_vector:
            w, v = eigh(_as_matrix(m), subset_by_index=[0, 0])
            return float(w[0]), v[:, 0]
        w = eigh(_as_matrix(m), eigvals_only=True, subset_by_index=[0, 0])
        return float(w[0])
    mc = m.tocsc() if sp.issparse(m) else m
    v0 = _start_vector(n)
    try:
        w, v = spla.eigsh(mc, k=1, which="SA", tol=tol, v0=v0,
                          maxiter=60 * n)
    except spla.ArpackNoConvergence:
        shift = operator_norm(mc) + 1.0
        w, v = spla.eigsh(mc - shift * sp.identity(n, dtype=mc.dtype,
                                                   format="csc"),
                          k=1, which="LM", tol=tol, v0=v0, maxiter=60 * n)
        w = w + shift
    return (float(w[0]), v[:, 0]) if with_vector else float(w[0])


def eig_pairs_smallest(m, k: int, tol: float = 1e-10):
    """k smallest eigenpairs of a Hermitian matrix."""
    n = m.shape[0]
    if n <= DENSE_CUTOFF or k >= n - 2:
        w, v = eigh(_as_matrix(m))
        return w[:k], v[:, :k]
    w, v = spla.eigsh(m, k=k, which="SA", tol=tol,
                      v0=_start_vector(n), maxiter=80 * n)
    order = np.argsort(w)
    return w[order], v[:, order]


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
    q_prev, q, b_prev = np.zeros_like(v, complex), v / nrm, 0.0
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


def expm_multiply_hermitian(apply_op, psi: np.ndarray, t: float,
                            tol: float = 1e-9, m_max: int = 60):
    """exp(-i t Op) psi for Hermitian Op, in steps of at most m_max Krylov
    vectors; a step that does not converge is halved, and each step gets
    the share of tol (relative to ||psi||) of its length."""
    psi = np.asarray(psi, dtype=complex)
    nrm = float(np.linalg.norm(psi))
    if t == 0.0 or nrm == 0.0:
        return psi.copy()
    remaining = dt = float(t)
    while abs(remaining) > 1e-15 * abs(t):
        dt = dt if abs(dt) < abs(remaining) else remaining
        try:
            psi = lanczos_functions(
                apply_op, psi, lambda theta: np.exp(-1j * dt * theta)[None],
                nrm * max(tol * abs(dt / t), 1e-14), vectors=True,
                m_max=m_max).values[0]
        except RuntimeError:
            if abs(dt) < 1e-12 * abs(t):
                raise
            dt /= 2.0
            continue
        remaining -= dt
    # one global norm audit: the exact flow is unitary
    drift = abs(np.linalg.norm(psi) - nrm)
    if drift > 1e3 * tol * max(1.0, nrm):
        raise RuntimeError(f"propagation lost unitarity: drift {drift:.2e}")
    return psi
