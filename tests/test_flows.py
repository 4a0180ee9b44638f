import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import wrightomega

from thermion import flows
from thermion.experiments import ExperimentConfig, run
from thermion.flows import (FlowResult, VectorField, generator_apply,
                            generator_check, induced_unitary_apply,
                            integrate_flow, saturating_profile,
                            verify_gronwall)


@pytest.fixture(scope="module")
def profile():
    return saturating_profile()


def test_zero_field_is_static():
    zero = VectorField(lambda x: 0.0 * np.asarray(x),
                       lambda x: 0.0 * np.asarray(x))
    r = integrate_flow(zero, 1.7, 2.5)
    assert r.endpoint == pytest.approx(1.7, abs=1e-12)
    assert r.derivative == pytest.approx(1.0, abs=1e-12)


def test_linear_field_exact_exponential():
    c = 0.8
    lin = VectorField(lambda x: c * np.asarray(x),
                      lambda x: c * np.ones_like(np.asarray(x)))
    r = integrate_flow(lin, 2.0, 1.3, tol=1e-12)
    assert r.endpoint == pytest.approx(2.0 * np.exp(c * 1.3), rel=1e-9)
    assert r.derivative == pytest.approx(np.exp(c * 1.3), rel=1e-9)


def test_saturating_flow_conserved_quantity(profile):
    # for xi = x/(1+x): log(Phi) + Phi = log(x) + x + t; root-finding oracle
    for x0, t in ((0.5, 1.2), (2.0, -0.7), (4.0, 3.0)):
        r = integrate_flow(profile, x0, t, tol=1e-12)
        target = np.log(x0) + x0 + t
        oracle = brentq(lambda y: np.log(y) + y - target, 1e-12, 1e6,
                        xtol=1e-14)
        assert abs(r.endpoint - oracle) < 1e-8


def test_group_and_inverse_laws(profile):
    tol = 1e-10
    for x in (0.3, 1.1, 5.0):
        for s, t in ((0.4, 0.9), (-0.6, 1.4)):
            ab = integrate_flow(profile, x, s + t, tol).endpoint
            inner = integrate_flow(profile, x, t, tol).endpoint
            outer = integrate_flow(profile, inner, s, tol).endpoint
            assert abs(ab - outer) < 10 * tol
        fwd = integrate_flow(profile, x, 0.8, tol).endpoint
        assert abs(integrate_flow(profile, fwd, -0.8, tol).endpoint
                   - x) < 10 * tol


def test_jacobian_positive_and_cocycle(profile):
    tol = 1e-11
    for x in (0.4, 2.5):
        s, t = 0.7, 1.1
        rs = integrate_flow(profile, x, s, tol)
        rt = integrate_flow(profile, rs.endpoint, t, tol)
        rst = integrate_flow(profile, x, s + t, tol)
        assert rs.derivative > 0 and rt.derivative > 0
        assert rst.derivative == pytest.approx(rt.derivative * rs.derivative,
                                               rel=1e-7)


def test_unitary_identity_at_zero_time(profile):
    nodes = np.linspace(0.05, 10.0, 300)
    psi = np.exp(-((nodes - 2.0)) ** 2).astype(complex)
    res = induced_unitary_apply(profile, lambda x: np.ones_like(x), 0.0,
                                nodes, psi)
    assert np.array_equal(res.values, psi)
    zero = VectorField(lambda x: 0.0 * np.asarray(x),
                       lambda x: 0.0 * np.asarray(x))
    res2 = induced_unitary_apply(zero, lambda x: np.ones_like(x), 1.5,
                                 nodes, psi)
    assert np.allclose(res2.values, psi, atol=1e-9)


def test_unitary_preserves_norm_on_interior_bump(profile):
    nodes = np.linspace(0.05, 12.0, 500)
    dx = np.gradient(nodes)
    psi = np.exp(-((nodes - 2.0) / 0.5) ** 2).astype(complex)
    n0 = np.sum(np.abs(psi) ** 2 * dx)
    for t in (-1.0, 0.5, 1.0):
        res = induced_unitary_apply(profile, lambda x: np.ones_like(x), t,
                                    nodes, psi, tol=1e-11)
        n1 = np.sum(np.abs(res.values) ** 2 * dx)
        assert abs(np.sqrt(n1 / n0) - 1.0) < 1e-6
        assert not res.flagged and res.mass_loss < 1e-12


def test_generator_zero_field():
    zero = VectorField(lambda x: 0.0 * np.asarray(x),
                       lambda x: 0.0 * np.asarray(x))
    nodes = np.linspace(0.1, 8.0, 200)
    psi = np.exp(-((nodes - 2.0)) ** 2).astype(complex)
    out = generator_apply(zero, lambda x: np.ones_like(x), nodes, psi)
    assert np.allclose(out, 0.0)


def test_generator_flat_weight_formula(profile):
    # mu = 1: A = i (xi'/2 + xi d/dx)
    nodes = np.linspace(0.05, 12.0, 800)
    psi = np.exp(-((nodes - 3.0) / 0.8) ** 2).astype(complex)
    out = generator_apply(profile, lambda x: np.ones_like(x), nodes, psi)
    dpsi = -2.0 * (nodes - 3.0) / 0.8 ** 2 * psi   # exact Gaussian derivative
    expect = 1j * (0.5 * profile.dxi(nodes) * psi + profile.xi(nodes) * dpsi)
    interior = slice(20, -20)
    assert np.allclose(out[interior], expect[interior], atol=1e-6)


def test_generator_difference_quotient_first_order(profile):
    nodes = np.linspace(0.05, 12.0, 600)
    psi = np.exp(-((nodes - 3.0) / 0.8) ** 2).astype(complex)
    rep = generator_check(profile, lambda x: np.ones_like(x), nodes, psi)
    assert rep.passed, rep


def test_gronwall_bounds_hold(profile):
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.05, 8.0, 50)
    ts = np.linspace(-2.0, 2.0, 9)
    rep = verify_gronwall(profile, pts, ts)
    assert rep.passed and rep.slack >= 0
    rep_scaled = verify_gronwall(profile, pts, ts, scale=0.25)
    assert rep_scaled.passed, rep_scaled


def test_gronwall_linear_field_saturates():
    # xi = c tanh(x) is linear at its fixed point 0, where Phi_t'(0) =
    # e^{ct} attains the derivative bound exp(||xi'|| |t|): the worst case
    # sits there, with a margin of the integration error alone.  That error
    # is relative to e^{ct}, and so is the derivative margin, so the check
    # passes
    c = 0.5
    field = VectorField(lambda x: c * np.tanh(np.asarray(x)),
                        lambda x: c * (1.0 - np.tanh(np.asarray(x)) ** 2))
    rep = verify_gronwall(field, np.array([0.0, 0.5, 2.0]),
                          np.array([-2.0, 1.0, 2.0]), tol=1e-10)
    x, t, endpoint, derivative, _ = rep.detail["worst_case"]
    assert (x, t) == (0.0, 2.0) and endpoint == pytest.approx(c * t)
    assert abs(derivative) <= 1e-10
    assert rep.passed, rep


def test_scaled_profile_derivative_rate(profile):
    a = 0.25
    scaled = profile.scaled(a)
    xs = np.linspace(0.1, 4.0, 7)
    assert np.allclose(scaled.dxi(xs), profile.dxi(xs / a) / a)
    # Gronwall rate for the scaled field: ||xi'|| |t| / a
    r = integrate_flow(scaled, 0.3, 1.5, tol=1e-11)
    assert abs(r.derivative) <= np.exp(1.5 / a) + 1e-9


def test_integrate_flow_rejects_bad_tol(profile):
    with pytest.raises(ValueError):
        integrate_flow(profile, 1.0, 1.0, tol=-1.0)


def test_mass_loss_reported_for_boundary_crossing(profile):
    nodes = np.linspace(0.05, 3.0, 100)
    psi = np.exp(-((nodes - 2.8) / 0.2) ** 2).astype(complex)
    res = induced_unitary_apply(profile, lambda x: np.ones_like(x), 1.0,
                                nodes, psi)
    assert res.flagged
    assert res.mass_loss > 0
    # the loss is a norm: a constant phase on psi must not change it
    for phase in (1j, np.exp(0.7j)):
        rot = induced_unitary_apply(profile, lambda x: np.ones_like(x), 1.0,
                                    nodes, phase * psi)
        assert rot.mass_loss == pytest.approx(res.mass_loss, rel=1e-12)
        assert rot.flagged == res.flagged


def test_array_flow_matches_exact_flow(profile):
    # for xi = x/(1+x), Phi_t(x) e^{Phi_t(x)} = x e^{x+t}, so
    # Phi_t(x) = W(ln x + x + t) with W the Wright omega function, and in
    # one dimension Phi_t'(x) = xi(Phi_t(x)) / xi(x)
    tol = 1e-10
    xs = np.linspace(0.02, 12.0, 600)
    for t in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        r = integrate_flow(profile, xs, t, tol)
        assert r.endpoint.shape == r.derivative.shape == xs.shape
        exact = np.real(wrightomega(np.log(xs) + xs + t))
        assert np.max(np.abs(r.endpoint - exact)) <= tol
        identity = profile.xi(r.endpoint) / profile.xi(xs)
        assert np.max(np.abs(r.derivative - identity)
                      / np.maximum(1.0, r.derivative)) <= tol


def test_flow_check_integrates_each_start_array_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(flows, "solve_ivp", counting)
    rep = run(ExperimentConfig(kind="flow-check", seed=0))
    assert rep.all_passed
    # 11 for the group laws, 4 unitaries, 3 generator times and 8 nonzero
    # times for each of the two growth checks
    assert len(calls) <= 34
