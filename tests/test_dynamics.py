import numpy as np
import pytest
import scipy.sparse as sp

from thermion.dynamics import (decay_rate, j_covariance_check,
                               recurrence_time, survival)
from thermion.linalg import lanczos_functions
from thermion.operators import assemble_liouvillian
from thermion.params import ModelParams
from thermion.reports import TimeSeries


@pytest.fixture(scope="module")
def small():
    return ModelParams(n_e=4, n_u=8, n_max=2, e_max=3.0, u_max=3.0, lam=0.1)


def _evolved(apply_op, psi, times, tol):
    """exp(-i t L) psi for each t, from one Lanczos run (vector form)."""
    return lanczos_functions(
        apply_op, psi, lambda theta: np.exp(-1j * np.outer(times, theta)),
        tol, vectors=True).values


def test_evolve_diagonal_closed_form():
    d = np.array([0.3, -1.2, 2.5])
    mat = sp.diags(d.astype(complex)).tocsr()
    psi = np.array([1.0, 2.0, 3.0], dtype=complex)
    out = _evolved(lambda v: mat @ v, psi, [1.7], 1e-12)[0]
    assert np.allclose(out, np.exp(-1j * 1.7 * d) * psi, atol=1e-11)


def test_evolution_preserves_norm(small):
    act = assemble_liouvillian(small)
    rng = np.random.default_rng(1)
    dim = act.basis.dim
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    out = _evolved(act.matvec, psi, [100.0], 1e-8)[0]
    assert abs(np.linalg.norm(out) - 1.0) < 1e-7


def test_uncoupled_reference_state_invariant(small):
    times = np.linspace(0.0, 40.0, 9)
    ser = survival(small.with_(lam=0.0), times)
    assert np.allclose(np.real(ser.values), 1.0, atol=1e-12)


def test_identity_observable_stays_one(small):
    # unitarity: norm of the evolved state is constant
    act = assemble_liouvillian(small)
    b = act.basis
    psi = np.zeros(b.dim, dtype=complex)
    psi[b.vacuum_bound_index()] = 1.0
    for out in _evolved(act.matvec, psi, [3.0, 11.0], 1e-8):
        assert abs(np.linalg.norm(out) - 1.0) < 1e-8


def test_survival_bounded_and_real(small):
    times = np.linspace(0.0, 10.0, 21)
    ser = survival(small, times, tol=1e-9)
    v = np.real(ser.values)
    assert np.all(v <= 1.0 + 1e-8)
    assert np.all(v >= -1e-10)
    assert ser.meta["recurrence_time"] == pytest.approx(
        recurrence_time(small))


def test_survival_matches_dense_exponential(small):
    liou = assemble_liouvillian(small)
    dense = liou.liouvillian.toarray()
    from scipy.linalg import expm
    idx = liou.basis.vacuum_bound_index()
    times = np.linspace(0.0, 10.0, 11)
    ser = survival(small, times, tol=1e-10)
    step = expm(-1j * (times[1] - times[0]) * dense)
    col, exact = np.eye(len(dense))[:, idx].astype(complex), []
    for _ in times:
        exact.append(abs(col[idx]) ** 2)
        col = step @ col
    assert np.max(np.abs(ser.values - exact)) < 1e-10
    assert 0.0 <= ser.meta["krylov_error"] <= 1e-10


def test_decay_rate_constant_series():
    t = np.linspace(0.0, 10.0, 50)
    ser = TimeSeries(times=t, values=np.ones_like(t),
                     meta={"recurrence_time": 100.0})
    fit = decay_rate(ser, window=(1.0, 9.0))
    assert abs(fit.rate) < 1e-12


def test_decay_rate_recovers_synthetic_exponential():
    t = np.linspace(0.0, 20.0, 200)
    ser = TimeSeries(times=t, values=np.exp(-0.3 * t),
                     meta={"recurrence_time": 1000.0})
    fit = decay_rate(ser, window=(1.0, 18.0))
    assert fit.rate == pytest.approx(0.3, abs=1e-6)
    assert not fit.widened


def test_decay_rate_widens_non_monotone_window():
    t = np.linspace(0.0, 20.0, 300)
    v = np.exp(-0.2 * t) * (1.0 + 0.2 * np.sin(6 * t))
    ser = TimeSeries(times=t, values=v, meta={"recurrence_time": 30.0})
    fit = decay_rate(ser, window=(5.0, 12.0))
    assert fit.widened
    assert fit.rate == pytest.approx(0.2, abs=0.05)


def test_ergodic_mean_decreases_for_decaying_series():
    t = np.linspace(0.0, 30.0, 200)
    ser = TimeSeries(times=t, values=np.exp(-0.5 * t))
    em = ser.ergodic_mean()
    assert np.all(np.diff(em) <= 1e-12)


def test_j_covariance(small):
    rep = j_covariance_check(small, t=2.0, tol=1e-9)
    assert rep.passed, rep


def test_krylov_matches_dense_on_liouvillian(small):
    liou = assemble_liouvillian(small)
    dense = liou.liouvillian.toarray()
    from scipy.linalg import expm
    psi = np.zeros(liou.basis.dim, dtype=complex)
    psi[liou.basis.vacuum_bound_index()] = 1.0
    exact = expm(-1j * 4.0 * dense) @ psi
    approx = _evolved(lambda v: liou.liouvillian @ v, psi, [4.0], 1e-10)[0]
    assert np.linalg.norm(exact - approx) < 1e-8


def test_survival_range_check_slack_and_minimum(small):
    from thermion.experiments import ExperimentConfig, run
    rep = run(ExperimentConfig(kind="dynamics", params=small,
                               options={"lambdas": [0.05, 0.1],
                                        "n_times": 20}))
    checks = [c for c in rep.checks if c.check.startswith("survival stays")]
    assert len(checks) == 2
    for c, ser in zip(checks, rep.series[1:]):
        assert c.slack == c.bound - c.value
        assert c.value == np.max(ser.values)
        assert c.detail["min"] == np.min(ser.values)
        assert c.detail["min_margin"] == c.detail["min"] + 1e-8
        assert c.detail["krylov_error"] == ser.meta["krylov_error"]


def test_survival_applies_l_to_real_vectors(small, monkeypatch):
    # L is real symmetric and e_pi real, so every Lanczos vector is float64
    from thermion.operators import LiouvillianAction
    matvec, dtypes = LiouvillianAction.matvec, []

    def recorded(self, psi):
        dtypes.append(psi.dtype)
        return matvec(self, psi)

    monkeypatch.setattr(LiouvillianAction, "matvec", recorded)
    survival(small, np.linspace(0.0, 5.0, 6))
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}
