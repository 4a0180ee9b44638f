import numpy as np
import pytest
from scipy.linalg import eigh, expm

from thermion.linalg import lanczos_functions
from thermion.operators import LiouvillianAction, assemble_liouvillian
from thermion.params import ModelParams


@pytest.fixture(scope="module")
def small():
    return ModelParams(n_e=4, n_u=8, n_max=2, e_max=3.0, u_max=3.0, lam=0.1)


@pytest.fixture(scope="module")
def dense_liouvillian(small):
    liou = assemble_liouvillian(small)
    return liou.liouvillian.toarray(), liou.basis.vacuum_bound_index()


def _random_unit(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def test_quadratic_form_matches_dense_exponential(dense_liouvillian):
    dense, idx = dense_liouvillian
    times = np.linspace(0.0, 12.0, 7)
    step = expm(-1j * (times[1] - times[0]) * dense)
    for v in (np.eye(dense.shape[0])[idx], 2.0 * _random_unit(len(dense), 0)):
        res = lanczos_functions(
            lambda x: dense @ x, v,
            lambda theta: np.exp(-1j * np.outer(times, theta)), 1e-12)
        exact, u = [], v.astype(complex)
        for _ in times:
            exact.append(np.vdot(v, u))
            u = step @ u
        assert np.max(np.abs(res.values - exact)) < 1e-10
        assert res.error <= 1e-12


def test_vector_form_matches_dense_spectral_calculus(dense_liouvillian):
    dense, _ = dense_liouvillian
    w, u = eigh(dense)
    v = 3.0 * _random_unit(len(dense), 1)
    scales = (1.0, 0.3, 0.05)

    def fns(theta):
        return np.cos(np.outer(scales, theta)) * np.exp(-0.1 * theta ** 2)

    res = lanczos_functions(lambda x: dense @ x, v, fns, 1e-13, vectors=True)
    exact = (u @ (fns(w) * (u.conj().T @ v)).T).T
    assert res.values.shape == (len(scales), len(dense))
    assert np.max(np.linalg.norm(res.values - exact, axis=1)) < 1e-12


def test_eigenvector_start_gives_survival_exactly_one(small):
    # the reference state is an eigenvector of the uncoupled Liouvillian:
    # the first step breaks down and the tridiagonal matrix is exact
    act = LiouvillianAction(small.with_(lam=0.0))
    ref = np.zeros(act.dim, dtype=complex)
    ref[act.basis.vacuum_bound_index()] = 1.0
    times = np.linspace(0.0, 40.0, 9)
    res = lanczos_functions(
        act.matvec, ref, lambda theta: np.exp(-1j * np.outer(times, theta)),
        1e-8, measure=lambda amp: np.abs(amp) ** 2)
    assert np.all(np.abs(res.values) ** 2 == 1.0)
    assert res.krylov_dim == 1
    assert res.error == 0.0


def test_too_small_budget_raises(small):
    act = LiouvillianAction(small)
    v = _random_unit(act.dim, 2)
    times = np.linspace(0.0, 20.0, 5)
    with pytest.raises(RuntimeError, match="unconverged"):
        lanczos_functions(act.matvec, v,
                          lambda theta: np.exp(-1j * np.outer(times, theta)),
                          1e-10, m_max=16)
    with pytest.raises(ValueError):
        lanczos_functions(act.matvec, v, np.cos, 0.0)
