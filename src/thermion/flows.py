"""One-dimensional flows, induced unitaries and their generators.

A bounded vector field on the open half axis generates a global flow; the
flow induces a unitary group on weighted L2 and the generator has a closed
form in terms of the field and the weight.  Everything here is plain
numerics: the flow map and its derivative with respect to the initial
condition are integrated jointly with an adaptive embedded Runge-Kutta
pair, every start point of one call in one system, and the induced
unitary is realized on a grid with cubic interpolation.  The integrator's
error norm is an RMS over all components, so the tolerance is divided by
the square root of the number of start points: each component is then
held to the bound a lone start point would meet.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .reports import BoundReport


@dataclass(frozen=True)
class VectorField:
    """Smooth field xi on the half axis with certified sup norms.

    ``xi(0) = 0`` keeps the flow inside (0, inf); the sup norms are sampled
    (not symbolic) and feed the exponential growth bounds.
    """

    xi: Callable
    dxi: Callable
    d2xi: Callable | None = None

    def __call__(self, x):
        return self.xi(x)

    def scaled(self, a: float) -> "VectorField":
        """x -> xi(x / a); each derivative picks up 1/a."""
        if a <= 0:
            raise ValueError("scale must be positive")
        d2 = None
        if self.d2xi is not None:
            d2 = lambda x, _a=a: self.d2xi(np.asarray(x) / _a) / _a ** 2
        return VectorField(
            xi=lambda x, _a=a: self.xi(np.asarray(x) / _a),
            dxi=lambda x, _a=a: self.dxi(np.asarray(x) / _a) / _a,
            d2xi=d2,
        )

    def sup_norms(self):
        """(||xi||_inf, ||xi'||_inf, ||(1+x) xi'||_inf) sampled on 10,000
        points of [0, 2] and 10,000 log-spaced points of [2, 1e4]."""
        xs = np.concatenate(
            [np.linspace(0.0, 2.0, 10000), np.geomspace(2.0, 1e4, 10000)]
        )
        xi = np.abs(self.xi(xs))
        dxi = np.abs(self.dxi(xs))
        return float(xi.max()), float(dxi.max()), float(((1 + xs) * dxi).max())

    def certify(self) -> None:
        xi0 = float(self.xi(0.0))
        if abs(xi0) > 1e-12:
            raise ValueError(f"xi(0) = {xi0}, must vanish at the origin")
        sup_xi, sup_dxi, sup_wdxi = self.sup_norms()
        for label, val in [("xi", sup_xi), ("xi'", sup_dxi),
                           ("(1+x) xi'", sup_wdxi)]:
            if not np.isfinite(val):
                raise ValueError(f"sup norm of {label} is not finite")


def saturating_profile() -> VectorField:
    """The canonical field x / (1 + x): vanishes at 0, tends to 1 at
    infinity, (1+x) xi' = 1/(1+x) stays bounded."""
    return VectorField(
        xi=lambda x: np.asarray(x) / (1.0 + np.asarray(x)),
        dxi=lambda x: 1.0 / (1.0 + np.asarray(x)) ** 2,
        d2xi=lambda x: -2.0 / (1.0 + np.asarray(x)) ** 3,
    )


@dataclass(frozen=True)
class FlowResult:
    """Endpoint Phi_t(x) and derivative Phi_t'(x), each shaped like x."""

    endpoint: np.ndarray
    derivative: np.ndarray


def integrate_flow(field: VectorField, x, t: float,
                   tol: float = 1e-10) -> FlowResult:
    """Solve dx/dt = xi(x) together with the sensitivity equation
    d(phi')/dt = xi'(x(t)) phi' for every start point in x at once."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.asarray(x, float)
    if t == 0.0:
        return FlowResult(x.copy(), np.ones_like(x))
    n = x.size

    def rhs(_s, y):
        return np.concatenate([field.xi(y[:n]), field.dxi(y[:n]) * y[n:]])

    rt = tol / np.sqrt(n)
    sol = solve_ivp(rhs, (0.0, t), np.concatenate([x.ravel(), np.ones(n)]),
                    method="RK45", rtol=rt, atol=rt)
    if not sol.success:
        raise RuntimeError(f"flow integration failed at t={t}: {sol.message}")
    end, deriv = sol.y[:n, -1].reshape(x.shape), sol.y[n:, -1].reshape(x.shape)
    if not np.all(deriv > 0):
        raise RuntimeError(f"non-positive flow Jacobian at t={t}")
    return FlowResult(end, deriv)


@dataclass
class UnitaryResult:
    values: np.ndarray
    mass_loss: float
    flagged: bool


def induced_unitary_apply(field: VectorField, mu: Callable, t: float,
                          nodes: np.ndarray, psi: np.ndarray,
                          tol: float = 1e-10) -> UnitaryResult:
    """Apply (U_t psi)(x) = sqrt(J_t(x) mu(Phi_t(x)) / mu(x)) psi(Phi_t(x)).

    psi holds samples of the function at the nodes (plain function values,
    not weight-embedded); composition points falling outside the node hull
    contribute zero and are accounted in the mass-loss metric, measured in
    the mu-weighted norm.
    """
    from scipy.interpolate import CubicSpline

    nodes = np.asarray(nodes, float)
    mu_vals = np.asarray(mu(nodes), float)
    if np.any(mu_vals <= 0):
        raise ValueError("weight must be positive at all nodes")
    if t == 0.0:
        return UnitaryResult(psi.astype(complex).copy(), 0.0, False)

    res = integrate_flow(field, nodes, t, tol)
    end = res.endpoint
    inside = (end >= nodes[0]) & (end <= nodes[-1])
    spline_r = CubicSpline(nodes, np.real(psi))
    spline_i = CubicSpline(nodes, np.imag(psi))
    held = np.clip(end, nodes[0], nodes[-1])
    comp = spline_r(held) + 1j * spline_i(held)
    amp = np.sqrt(res.derivative * np.asarray(mu(end), float) / mu_vals)
    out = np.where(inside, amp * comp, 0.0)

    dx = np.gradient(nodes)
    total = float(np.sum(np.abs(psi) ** 2 * mu_vals * dx))
    lost = float(np.sum((np.abs(amp * comp) ** 2 * mu_vals * dx)[~inside]))
    mass_loss = lost / total if total > 0 else 0.0
    return UnitaryResult(out, mass_loss, bool(mass_loss > 1e-12))


def generator_apply(field: VectorField, mu: Callable, nodes: np.ndarray,
                    psi: np.ndarray) -> np.ndarray:
    """A psi = i ( xi'/2 + (mu' xi)/(2 mu) + xi d/dx ) psi on the grid.

    The derivative of the weight is taken from a spline of mu on the nodes,
    the derivative of psi from a spline of psi, so the same interpolation
    model underlies both the unitary and its generator.
    """
    from scipy.interpolate import CubicSpline

    nodes = np.asarray(nodes, float)
    mu_vals = np.asarray(mu(nodes), float)
    mu_spline = CubicSpline(nodes, mu_vals)
    sp_r = CubicSpline(nodes, np.real(psi))
    sp_i = CubicSpline(nodes, np.imag(psi))
    dpsi = sp_r(nodes, 1) + 1j * sp_i(nodes, 1)
    xv = np.asarray(field.xi(nodes), float)
    dxv = np.asarray(field.dxi(nodes), float)
    return 1j * (0.5 * dxv * psi
                 + 0.5 * (mu_spline(nodes, 1) * xv / mu_vals) * psi
                 + xv * dpsi)


def generator_check(field: VectorField, mu: Callable, nodes: np.ndarray,
                    psi: np.ndarray) -> BoundReport:
    """Difference quotient (U_t psi - psi)/(i t) against -A psi at t = 1e-2,
    1e-3 and 1e-4, the flow integrated to 1e-10.

    Reports the measured convergence order in t (should be first order).
    """
    a_psi = generator_apply(field, mu, nodes, psi)
    errs = []
    times = (1e-2, 1e-3, 1e-4)
    for t in times:
        ut = induced_unitary_apply(field, mu, t, nodes, psi, 1e-10)
        quot = (ut.values - psi) / (1j * t)
        errs.append(np.linalg.norm(quot - (-a_psi)) / np.linalg.norm(a_psi))
    errs = np.array(errs)
    ts = np.array(times)
    order = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
    return BoundReport.of(
        "generator difference quotient, first order in t", order, ">=", 0.9,
        detail={"times": list(times), "errors": errs.tolist()})


def verify_gronwall(field: VectorField, points: np.ndarray, times: np.ndarray,
                    scale: float | None = None,
                    tol: float = 1e-10) -> BoundReport:
    """Exponential growth bounds for the flow over a sample of (x, t).

    Checks |Phi_t(x)| <= |x| + |t| ||xi||_inf, |Phi_t'(x)| <= exp(||xi'|| |t|)
    and the Jacobian bound J_t = Phi_t' <= exp(||xi'|| |t|); when the field is
    a scaled profile the derivative rate is ||xi'||_inf |t| / a.  The
    integrator's error on Phi_t' is relative to Phi_t', so the derivative
    and Jacobian margins are relative to their bound, 1 - Phi_t' e^{-rate |t|},
    and a field that attains the bound passes; the endpoint margin is
    absolute.  Reports the worst margin, at the first (x, t) in x-major
    order that attains it.
    """
    base_sup, base_dsup, _ = field.sup_norms()
    fld = field if scale is None else field.scaled(scale)
    sup_xi = base_sup
    rate = base_dsup if scale is None else base_dsup / scale

    xs = np.atleast_1d(points).astype(float)
    ts = np.atleast_1d(times).astype(float)
    bounds = np.empty((len(xs), len(ts), 3))
    for j, t in enumerate(ts):
        r = integrate_flow(fld, xs, t, tol)
        bounds[:, j, 0] = (np.abs(xs) + abs(t) * sup_xi) - np.abs(r.endpoint)
        # in one dimension the Jacobian is Phi' itself
        bounds[:, j, 1:] = (1.0 - r.derivative
                            * np.exp(-rate * abs(t)))[:, None]
    margins = bounds.min(axis=2)
    i, j = np.unravel_index(np.argmin(margins), margins.shape)
    records = [float(xs[i]), float(ts[j])] + bounds[i, j].tolist()
    return BoundReport.of(
        "flow growth bounds (endpoint, derivative, Jacobian)",
        -float(margins[i, j]), "<=", tol,
        detail={"worst_case": records, "sup_xi": sup_xi, "rate": rate})
