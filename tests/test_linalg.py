import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, expm

from thermion.linalg import (DENSE_CUTOFF, diag_plus, lanczos_functions,
                             min_eig_diag_plus_lowrank, min_eig_hermitian)
from thermion.operators import (LowRank, Truncation, assemble_liouvillian,
                                hermitize)
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
    act = assemble_liouvillian(small.with_(lam=0.0))
    ref = np.zeros(act.basis.dim, dtype=complex)
    ref[act.basis.vacuum_bound_index()] = 1.0
    times = np.linspace(0.0, 40.0, 9)
    res = lanczos_functions(
        act.matvec, ref, lambda theta: np.exp(-1j * np.outer(times, theta)),
        1e-8, measure=lambda amp: np.abs(amp) ** 2)
    assert np.all(np.abs(res.values) ** 2 == 1.0)
    assert res.krylov_dim == 1
    assert res.error == 0.0


def test_too_small_budget_raises(small):
    act = assemble_liouvillian(small)
    v = _random_unit(act.basis.dim, 2)
    times = np.linspace(0.0, 20.0, 5)
    with pytest.raises(RuntimeError, match="unconverged"):
        lanczos_functions(act.matvec, v,
                          lambda theta: np.exp(-1j * np.outer(times, theta)),
                          1e-10, m_max=16)
    with pytest.raises(ValueError):
        lanczos_functions(act.matvec, v, np.cos, 0.0)


def _dense_eigs(d, lr):
    return np.linalg.eigvalsh(np.diag(d) + lr.u @ lr.c @ lr.u.conj().T)


def _random_lowrank(rng, dim, rank, r=4):
    """u is dim x r, C Hermitian r x r of the given rank with mixed signs."""
    u = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    a = rng.standard_normal((r, rank)) + 1j * rng.standard_normal((r, rank))
    return LowRank(u, (a * rng.choice([-1.0, 1.0], rank)) @ a.conj().T)


def test_diag_plus_lowrank_min_eig_matches_dense():
    rng = np.random.default_rng(0)
    for trial in range(48):
        dim = int(rng.integers(8, 60))
        d = rng.standard_normal(dim)
        if trial % 2:
            d = np.round(2.0 * d)       # degenerate entries on the support
        lr = _random_lowrank(rng, dim, 1 + trial % 4)
        val, width = min_eig_diag_plus_lowrank(d, lr)
        evals = _dense_eigs(d, lr)
        scale = np.abs(evals).max()
        assert abs(val - evals[0]) <= 1e-12 * scale
        assert 0.0 <= width <= 1e-15 * scale


def test_diag_plus_lowrank_min_eig_off_support():
    # the degenerate minimum of d sits where u vanishes: it is an
    # eigenvalue as it stands, with no bracket
    rng = np.random.default_rng(1)
    d = np.concatenate([np.full(5, -2.0), np.repeat([0.5, 1.0, 1.5], 6)])
    u = np.zeros((len(d), 2), dtype=complex)
    u[5:] = 0.2 * rng.standard_normal((18, 2))
    lr = LowRank(u, np.diag([0.3, -0.2]).astype(complex))
    assert min_eig_diag_plus_lowrank(d, lr) == (-2.0, 0.0)
    assert _dense_eigs(d, lr)[0] == pytest.approx(-2.0, abs=1e-14)


def test_diag_plus_lowrank_min_eig_zero_correction():
    rng = np.random.default_rng(2)
    d = rng.standard_normal(20)
    lr = LowRank(rng.standard_normal((20, 3)).astype(complex),
                 np.zeros((3, 3), dtype=complex))
    assert min_eig_diag_plus_lowrank(d, lr) == (d.min(), 0.0)


def test_diag_plus_lowrank_min_eig_lifted_by_indefinite_correction():
    # a positive direction on the minimal entry and a weak negative one
    # elsewhere: the minimum rises above min(d)
    d = np.arange(12, dtype=float)
    e0 = np.eye(12)[0]
    v = np.linspace(0.0, 0.3, 12)
    lr = LowRank(np.column_stack([e0, v]).astype(complex),
                 np.diag([5.0, -0.5]).astype(complex))
    val, width = min_eig_diag_plus_lowrank(d, lr)
    exact = _dense_eigs(d, lr)[0]
    assert val > d.min() + 0.5
    assert abs(val - exact) <= 1e-12 * 12.0
    assert width <= 1e-15 * 12.0


def _chain_form(n_e, n_u, lam=0.1):
    """The domination-step shape N - 0.5 Pbar + lam I_1 on a truncation, as
    a matrix-free operator and as its dense matrix."""
    trunc = Truncation(ModelParams(n_e=n_e, n_u=n_u, n_max=1, e_max=4.0,
                                   u_max=4.0))
    d = trunc.number - 0.5 * (1.0 - trunc.vacuum_proj)
    dense = hermitize(sp.diags(d.astype(complex))
                      + lam * trunc.commutator(1).tosparse()).toarray()
    return diag_plus(d, lam, trunc.commutator(1)), dense


@pytest.fixture(scope="module")
def arpack_sized():
    op, dense = _chain_form(10, 12)
    assert op.shape[0] > DENSE_CUTOFF
    return op, np.linalg.eigvalsh(dense)[0]


def test_min_eig_of_operator_dense_branch():
    op, dense = _chain_form(6, 8)
    assert op.shape[0] <= DENSE_CUTOFF
    exact = np.linalg.eigvalsh(dense)[0]
    low, vec = min_eig_hermitian(op, with_vector=True)
    assert abs(low - exact) <= 1e-12 * abs(exact)
    assert np.linalg.norm(op @ vec - low * vec) <= 1e-12 * abs(exact)


def test_min_eig_of_operator_arpack_branch(arpack_sized):
    op, exact = arpack_sized
    assert abs(min_eig_hermitian(op) - exact) <= 1e-10 * abs(exact)


def test_min_eig_of_operator_shifted_retry(arpack_sized, monkeypatch):
    op, exact = arpack_sized
    real, calls = spla.eigsh, []

    def unconverged_once(*args, **kwargs):
        calls.append(kwargs["which"])
        if len(calls) == 1:
            raise spla.ArpackNoConvergence("forced", np.empty(0),
                                           np.empty((op.shape[0], 0)))
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", unconverged_once)
    assert abs(min_eig_hermitian(op) - exact) <= 1e-10 * abs(exact)
    assert calls == ["SA", "LM"]


@pytest.mark.parametrize("n_e, n_u", [(6, 8), (10, 12)])
def test_complex_coupling_keeps_the_complex_path(n_e, n_u):
    # a Hermitian coupling g + i S (S real antisymmetric) has a genuinely
    # complex particle factor: it alone stays complex, and the sum,
    # diag + lam I and the solve stay complex128 and match dense eigvalsh,
    # in the dense and ARPACK branches
    from thermion.operators import KronSum, interaction_like
    trunc = Truncation(ModelParams(n_e=n_e, n_u=n_u, n_max=1, e_max=4.0,
                                   u_max=4.0))
    s = np.random.default_rng(2).standard_normal(trunc.coupling.shape)
    g = trunc.coupling + 0.3j * (s - s.T)
    x = KronSum(trunc.basis, interaction_like(
        trunc.basis, g, 1.0, trunc.vectors.direct, trunc.vectors.image))
    d = trunc.number - 0.5 * (1.0 - trunc.vacuum_proj)
    op = diag_plus(d, 0.1, x)
    assert [m.dtype for term in x.terms for m in term if m is not None] \
        == [np.float64, np.complex128, np.float64, np.complex128]
    assert x.dtype == op.dtype == np.complex128
    assert (op @ np.ones(op.shape[0])).dtype == np.complex128
    exact = np.linalg.eigvalsh(op.tosparse().toarray())[0]
    assert (op.shape[0] > DENSE_CUTOFF) == (n_e == 10)
    assert abs(min_eig_hermitian(op) - exact) <= 1e-12 * abs(exact)
