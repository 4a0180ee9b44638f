"""One-dimensional flows, induced unitaries and their generators.

A bounded vector field on the open half axis generates a global flow; the
flow induces a unitary group on weighted L2 and the generator has a closed
form in terms of the field and the weight.  Everything here is plain
numerics: the flow map and its derivative with respect to the initial
condition are integrated jointly with an adaptive embedded Runge-Kutta
pair, and the induced unitary is realized on a grid with cubic
interpolation.
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
    name: str = "field"

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
            name=f"{self.name}/a={a}",
        )

    def sup_norms(self, x_max: float = 1e4, n: int = 20001):
        """(||xi||_inf, ||xi'||_inf, ||(1+x) xi'||_inf) sampled on a
        log-dense grid up to x_max."""
        xs = np.concatenate(
            [np.linspace(0.0, 2.0, n // 2), np.geomspace(2.0, x_max, n // 2)]
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
        name="x/(1+x)",
    )


@dataclass(frozen=True)
class FlowResult:
    """Endpoint, sensitivity and volume factor of one flow integration."""

    x0: float
    t: float
    endpoint: float
    derivative: float
    jacobian: float
    error_estimate: float


def integrate_flow(field: VectorField, x: float, t: float,
                   tol: float = 1e-10) -> FlowResult:
    """Solve dx/dt = xi(x) together with the sensitivity equation
    d(phi')/dt = xi'(x(t)) phi'."""
    if tol <= 0:
        raise ValueError("tol must be positive")

    def rhs(_s, y):
        return [float(field.xi(y[0])), float(field.dxi(y[0])) * y[1]]

    def run(rt):
        sol = solve_ivp(rhs, (0.0, t), [x, 1.0], method="RK45",
                        rtol=rt, atol=rt, dense_output=False)
        if not sol.success:
            raise RuntimeError(
                f"flow integration failed near x={x}, t={t}: {sol.message}")
        return sol.y[0, -1], sol.y[1, -1]

    if t == 0.0:
        return FlowResult(x, t, x, 1.0, 1.0, 0.0)
    end, deriv = run(tol)
    end_chk, _ = run(max(min(tol * 1e-2, 1e-13), 3e-14))
    jac = abs(deriv)
    if jac <= 0:
        raise RuntimeError(f"non-positive flow Jacobian at x={x}, t={t}")
    return FlowResult(x, t, end, deriv, jac, abs(end - end_chk))


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

    res = [integrate_flow(field, float(x), t, tol) for x in nodes]
    end = np.array([r.endpoint for r in res])
    jac = np.abs([r.derivative for r in res])
    inside = (end >= nodes[0]) & (end <= nodes[-1])
    spline_r = CubicSpline(nodes, np.real(psi))
    spline_i = CubicSpline(nodes, np.imag(psi))
    comp = np.zeros_like(end, dtype=complex)
    comp[inside] = spline_r(end[inside]) + 1j * spline_i(end[inside])
    amp = np.sqrt(jac * np.asarray(mu(end), float) / mu_vals)
    out = amp * comp

    dx = np.gradient(nodes)
    total = float(np.sum(np.abs(psi) ** 2 * mu_vals * dx))
    lost = float(np.sum((np.abs(amp * (spline_r(np.clip(end, nodes[0],
                                                        nodes[-1])))) ** 2
                         * mu_vals * dx)[~inside])) if (~inside).any() else 0.0
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
                    psi: np.ndarray, times=(1e-2, 1e-3, 1e-4),
                    tol: float = 1e-10) -> BoundReport:
    """Difference quotient (U_t psi - psi)/(i t) against -A psi.

    Reports the measured convergence order in t (should be first order).
    """
    a_psi = generator_apply(field, mu, nodes, psi)
    errs = []
    for t in times:
        ut = induced_unitary_apply(field, mu, t, nodes, psi, tol)
        quot = (ut.values - psi) / (1j * t)
        errs.append(np.linalg.norm(quot - (-a_psi)) / np.linalg.norm(a_psi))
    errs = np.array(errs)
    ts = np.array(times)
    order = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
    return BoundReport.of(
        "generator difference quotient, first order in t", order, ">=", 0.9,
        detail={"times": list(times), "errors": errs.tolist()})


def verify_gronwall(field: VectorField, points: np.ndarray, times: np.ndarray,
                    scale: float | None = None, tol: float = 1e-10,
                    dim: int = 1) -> BoundReport:
    """Exponential growth bounds for the flow over a sample of (x, t).

    Checks |Phi_t(x)| <= |x| + |t| ||xi||_inf, |Phi_t'(x)| <= exp(||xi'|| |t|)
    and J_t <= exp(dim ||xi'|| |t|); when the field is a scaled profile the
    derivative rate is ||xi'||_inf |t| / a.  Reports the worst slack.
    """
    base_sup, base_dsup, _ = field.sup_norms()
    fld = field if scale is None else field.scaled(scale)
    sup_xi = base_sup
    rate = base_dsup if scale is None else base_dsup / scale

    worst = np.inf
    records = []
    for x in np.atleast_1d(points):
        for t in np.atleast_1d(times):
            r = integrate_flow(fld, float(x), float(t), tol)
            bounds = [
                (abs(x) + abs(t) * sup_xi) - abs(r.endpoint),
                np.exp(rate * abs(t)) - abs(r.derivative),
                np.exp(dim * rate * abs(t)) - r.jacobian,
            ]
            here = min(bounds)
            if here < worst:
                worst = here
                records = [float(x), float(t)] + [float(b) for b in bounds]
            if r.jacobian <= 0:
                raise RuntimeError("Jacobian must stay positive")
    return BoundReport.of(
        "flow growth bounds (endpoint, derivative, Jacobian)", -worst, "<=",
        tol, detail={"worst_case": records, "sup_xi": sup_xi, "rate": rate})
