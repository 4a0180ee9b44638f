"""Regularized eigenvector families and virial-type residual checks.

For an exact eigenpair the expectation of any commutator vanishes by
algebra; the interest at finite truncation is (i) the quantitative residual
bound when the eigenpair is only approximate and (ii) the behaviour of the
smoothed families built from a bandlimited function of the conjugate
operator and a compactly supported function of the boson number, with the
cube-law linkage between the two cutoff scales.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import lanczos_functions
from .reports import BoundReport

_BUMP_GRID = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 2001)


def bump(s):
    """Standard compactly supported bump on (-1, 1), value 1 at 0."""
    s = np.asarray(s, float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def bandlimited_mollifier(x):
    """Real bounded function with value 1 at 0 whose transform is the bump
    above (hence compactly supported): f(x) = c * int bump(s) cos(s x) ds.

    |f| <= f(0) = 1 because the bump is nonnegative.
    """
    x = np.atleast_1d(np.asarray(x, float))
    w = bump(_BUMP_GRID)
    integral = np.trapezoid(w[None, :] * np.cos(np.outer(x, _BUMP_GRID)),
                            _BUMP_GRID, axis=1)
    norm = np.trapezoid(w, _BUMP_GRID)
    return integral / norm


def virial_residual(l_op, a_op, psi: np.ndarray) -> float:
    """<psi, i[L, A] psi> computed in commutator-free form
    -2 Im <L psi, A psi>; exactly zero for exact eigenpairs."""
    return _im_form(l_op @ psi, a_op @ psi)


def _im_form(lp: np.ndarray, ap: np.ndarray) -> float:
    """-2 Im <L psi, A psi> from L psi and A psi."""
    return float(-2.0 * np.imag(np.vdot(lp, ap)))


def eigenpair_residual_check(l_op, a_op, vecs: np.ndarray) -> BoundReport:
    """For the approximate eigenvectors psi in the columns of ``vecs``,
    |<i[L,A]>| <= 2 ||(L-e)psi|| ||A psi|| (algebra up to the residual)."""
    worst = -np.inf
    rows = []
    for psi in vecs.T:
        lp, ap = l_op @ psi, a_op @ psi
        e = float(np.real(np.vdot(psi, lp)))
        r = float(np.linalg.norm(lp - e * psi))
        lhs = abs(_im_form(lp, ap))
        rhs = 2.0 * r * float(np.linalg.norm(ap)) + 1e-14
        rows.append((e, r, lhs, rhs))
        worst = max(worst, lhs - rhs)
    return BoundReport.of(
        "virial residual bounded by eigenresidual", worst, "<=", 0.0,
        detail={"pairs": [{"eig": e, "residual": r, "lhs": l, "rhs": rh}
                          for e, r, l, rh in rows]})


@dataclass
class RegularizedFamily:
    """psi smoothed by f(alpha A) g^2(nu N) at a ladder of scales."""

    base: np.ndarray
    alphas: tuple
    vectors: list               # one per alpha, nu = alpha^3
    krylov_error: float         # m/2-vs-m difference of the f(alpha A) psi


def build_regularized_family(psi: np.ndarray, a_op, number_diag: np.ndarray,
                             alphas=(0.4, 0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625)
                             ) -> RegularizedFamily:
    """Spectral-calculus construction of the smoothed family.

    Every f(alpha A) psi comes from one Krylov space of the conjugate
    operator: the mollifier is entire of exponential type alpha, so the
    Lanczos approximation converges fast and A is only ever applied; each
    vector changes by at most 1e-12 in 2-norm between Krylov dimensions
    m/2 and m.  The number operator is diagonal.
    """
    alphas = tuple(alphas)
    res = lanczos_functions(
        lambda v: a_op @ v, psi,
        lambda theta: bandlimited_mollifier(
            np.outer(alphas, theta).ravel()).reshape(len(alphas), -1),
        1e-12, vectors=True)
    vectors = [bump(alpha ** 3 * number_diag) ** 2 * smoothed
               for alpha, smoothed in zip(alphas, res.values)]
    return RegularizedFamily(psi, alphas, vectors, res.error)


def family_checks(family: RegularizedFamily) -> list:
    """Norm bound and convergence of the smoothed family to its base."""
    base_norm = np.linalg.norm(family.base)
    norms = [np.linalg.norm(vc) for vc in family.vectors]
    gaps = [np.linalg.norm(vc - family.base) for vc in family.vectors]
    return [
        BoundReport.of(
            "smoothed family stays norm bounded", max(norms), "<=",
            base_norm * (1 + 1e-12),
            detail={"norms": [float(n) for n in norms],
                    "krylov_error": family.krylov_error}),
        BoundReport.of(
            "smoothed family converges to the eigenvector", gaps[-1], "<=",
            gaps[0], also=all(np.diff(gaps) < 1e-12),
            detail={"gaps": [float(g) for g in gaps],
                    "krylov_error": family.krylov_error}),
    ]


def commutator_expectation_scan(family: RegularizedFamily, l_op,
                                a_op) -> list:
    """<i[L, A]>_psi_alpha along the family by ``virial_residual`` (should
    tend to the exact value 0 for an exact finite-dimensional eigenpair)."""
    out = []
    for alpha, vc in zip(family.alphas, family.vectors):
        n = np.linalg.norm(vc)
        val = virial_residual(l_op, a_op, vc) / max(n * n, 1e-300)
        out.append((alpha, val))
    return out


def regularity_check(c_op, p_diag: np.ndarray, b_op,
                     family: RegularizedFamily) -> BoundReport:
    """Given C >= P - B as forms (verified on the family), the limit vector
    satisfies <B> >= 0 and ||P^{1/2} psi||^2 <= <B> + tol, tol = 1e-8."""
    tol = 1e-8
    psi = family.base
    hyp_worst = np.inf
    for vc in family.vectors:
        n2 = float(np.real(np.vdot(vc, vc)))
        if n2 == 0:
            continue
        lhs = float(np.real(np.vdot(vc, c_op @ vc)))
        rhs = float(np.real(np.vdot(vc, p_diag * vc))
                    - np.real(np.vdot(vc, b_op @ vc)))
        hyp_worst = min(hyp_worst, (lhs - rhs) / n2)
    b_exp = float(np.real(np.vdot(psi, b_op @ psi)))
    p_exp = float(np.real(np.vdot(psi, p_diag * psi)))
    return BoundReport.of(
        "eigenvector regularity bound from the form inequality", p_exp, "<=",
        b_exp + tol, also=hyp_worst >= -tol and b_exp >= -tol,
        detail={"form_hypothesis_slack": hyp_worst, "b_expectation": b_exp,
                "krylov_error": family.krylov_error})
