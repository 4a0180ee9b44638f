import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, eigh_tridiagonal, expm

from csr_oracle import bisection_min_eig, liouvillian, symmetrize, to_csr
from thermion.linalg import (DiagPlus, eig_pairs_smallest, lanczos_functions,
                             min_eig_diag_plus_lowrank, min_eig_hermitian,
                             one_thread_matmul, operator_norm)
from thermion.operators import (LowRank, Truncation, assemble_conjugates,
                                assemble_liouvillian)
from thermion.params import ModelParams


@pytest.fixture(scope="module")
def small():
    return ModelParams(n_e=4, n_u=8, n_max=2, e_max=3.0, u_max=3.0, lam=0.1)


@pytest.fixture(scope="module")
def dense_liouvillian(small):
    liou = assemble_liouvillian(small)
    return liouvillian(liou).toarray(), liou.basis.vacuum_bound_index()


def _random_unit(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


_TIMES = np.linspace(0.0, 12.0, 7)


def _propagators(theta):
    return np.exp(-1j * np.outer(_TIMES, theta))


@pytest.fixture(scope="module")
def dense_forms(dense_liouvillian):
    """(v, <v, exp(-i t A) v> at _TIMES by expm) for two start vectors."""
    dense, idx = dense_liouvillian
    step = expm(-1j * (_TIMES[1] - _TIMES[0]) * dense)
    out = []
    for v in (np.eye(dense.shape[0])[idx], 2.0 * _random_unit(len(dense), 0)):
        exact, u = [], v.astype(complex)
        for _ in _TIMES:
            exact.append(np.vdot(v, u))
            u = step @ u
        out.append((v, np.array(exact)))
    return out


def test_quadratic_form_matches_dense_exponential(dense_liouvillian,
                                                  dense_forms):
    dense, _ = dense_liouvillian
    for v, exact in dense_forms:
        res = lanczos_functions(lambda x: dense @ x, v, _propagators, 1e-12)
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


def _reorthogonalized_coefficients(dense, v, m):
    """alpha (m,) and beta (m - 1,) of m Lanczos steps with full
    reorthogonalisation; their leading k and k - 1 give T_k, the
    dimension-k Krylov approximation free of the bare recurrence's loss
    of orthogonality."""
    basis = np.zeros((m, len(v)), complex)
    basis[0] = v / np.linalg.norm(v)
    alpha, beta = np.zeros(m), np.zeros(m - 1)
    for j in range(m):
        w = dense @ basis[j]
        alpha[j] = np.vdot(basis[j], w).real
        for _ in range(2):
            w -= basis[:j + 1].T @ (basis[:j + 1].conj() @ w)
        if j + 1 < m:
            beta[j] = np.linalg.norm(w)
            basis[j + 1] = w / beta[j]
    return alpha, beta


def test_krylov_growth_stops_one_step_after_the_error_is_half_tol(
        dense_liouvillian, dense_forms):
    # the checked dimensions grow by an eighth (8, 16, ..., 64, 72, ...,
    # 128, 144, ...); once the dimension-k error against expm is within
    # tol / 2, the next check differs from it by at most tol and stops
    dense, tol = dense_liouvillian[0], 1e-10

    def grown(k):
        return k + max(8, 8 * (k // 64))

    for v, exact in dense_forms:
        alpha, beta = _reorthogonalized_coefficients(dense, v, 256)

        def error(k):
            theta, ritz = eigh_tridiagonal(alpha[:k], beta[:k - 1])
            forms = np.vdot(v, v).real * (_propagators(theta)
                                          * ritz[0] ** 2).sum(1)
            return np.max(np.abs(forms - exact))

        k = 8
        while error(k) > tol / 2:
            k = grown(k)
        res = lanczos_functions(lambda x: dense @ x, v, _propagators, tol)
        assert res.krylov_dim <= grown(k)
        assert res.error <= tol


def test_lanczos_step_copies_an_output_it_does_not_own(dense_liouvillian):
    # the three-term step updates the operator's output in place; an op
    # that returns its input (the identity) must not have q overwritten,
    # and a real output for a complex q is widened first
    dense, _ = dense_liouvillian
    v = 2.0 * _random_unit(len(dense), 3)
    res = lanczos_functions(lambda x: x, v, lambda th: np.exp(th)[None],
                            1e-12, vectors=True)
    assert res.krylov_dim == 1 and res.error == 0.0
    assert np.linalg.norm(res.values[0] - np.e * v) <= 1e-15 * np.e * 2.0
    real = np.real(dense + dense.T) / 2
    u = np.random.default_rng(5).standard_normal(len(dense))
    w, vecs = eigh(real)

    def fns(theta):
        return np.cos(np.outer((1.0, 0.3), theta)) * np.exp(-0.1 * theta ** 2)
    exact = (vecs @ (fns(w) * (vecs.T @ u)).T).T
    for start, op in ((u, lambda x: real @ x),
                      (u.astype(complex), lambda x: real @ x.real)):
        res = lanczos_functions(op, start, fns, 1e-13, vectors=True)
        assert np.max(np.linalg.norm(res.values - exact, axis=1)) < 1e-12


def _matrix(shape, seed, complex_):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(shape)
    return m + 1j * rng.standard_normal(shape) if complex_ else m


@pytest.mark.parametrize("a_shape, a_complex, b_shape, b_complex", [
    ((7, 24), False, (24, 2541), True),     # virial's combine: 6 x 390 + 201
    ((60, 100), True, (100, 9537), False),  # 10-column gemms, last one 7
    ((1, 72), True, (72, 1000), True),      # one-row a: gemvs of 56 columns
    ((60, 600), True, (600, 50), False),    # over 2^15 entries: one column
])
def test_one_thread_matmul_matches_matmul(a_shape, a_complex, b_shape,
                                          b_complex):
    a, b = _matrix(a_shape, 1, a_complex), _matrix(b_shape, 2, b_complex)
    got = one_thread_matmul(a, b)
    assert got.shape == (len(a), b.shape[1])
    assert got.dtype == np.result_type(a, b)
    assert np.max(np.abs(got - a @ b)) <= 1e-13 * a.shape[1]


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
    for form in (lr, LowRank(u.real, lr.c.real)):     # complex and real
        assert min_eig_diag_plus_lowrank(d, form) == bisection_min_eig(d, form)


def test_diag_plus_lowrank_min_eig_zero_correction():
    rng = np.random.default_rng(2)
    d = rng.standard_normal(20)
    lr = LowRank(rng.standard_normal((20, 3)).astype(complex),
                 np.zeros((3, 3), dtype=complex))
    assert min_eig_diag_plus_lowrank(d, lr) == (d.min(), 0.0)
    for form in (lr, LowRank(lr.u.real, lr.c.real)):  # complex and real
        assert min_eig_diag_plus_lowrank(d, form) == bisection_min_eig(d, form)


def test_diag_plus_lowrank_min_eig_lifted_by_indefinite_correction():
    # a positive direction on the minimal entry and a weak negative one
    # elsewhere: the minimum rises above min(d), into the pole region
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
    for form in (lr, LowRank(lr.u.real, lr.c.real)):  # complex and real
        assert min_eig_diag_plus_lowrank(d, form) == bisection_min_eig(d, form)


def _lowrank(rng, dim, rank, scale, real, r=4):
    """u (dim x r) of the given scale, C Hermitian of the given rank with
    mixed signs; float64 when ``real``, else complex."""
    def draw(*shape):
        x = rng.standard_normal(shape)
        return x if real else x + 1j * rng.standard_normal(shape)
    a = draw(r, rank)
    return LowRank(scale * draw(dim, r),
                   (a * rng.choice([-1.0, 1.0], rank)) @ a.conj().T)


@pytest.mark.parametrize("real", [True, False])
def test_bracket_matches_plain_bisection(real):
    # the windowed bisection counts only inside its certified window; where
    # the count is monotone outside it (its rounding, about eps ||W||_F^2 a
    # count, below the window's 4 ulps), its bracket is plain bisection's
    rng = np.random.default_rng(7)
    for trial in range(40):
        dim = int(rng.integers(8, 80))
        d = rng.standard_normal(dim)
        if trial % 2:
            d = np.round(2.0 * d)       # ties, and entries of d at 0
        lr = _lowrank(rng, dim, 1 + trial % 4, 0.1, real)
        assert min_eig_diag_plus_lowrank(d, lr) == bisection_min_eig(d, lr)


def _tied_minimum(rng, psd, real):
    """A 24-fold minimum of d under a rank-4 correction of norm ~1e-7:
    20 eigenvalues stay on it, the root within an ulp of that pole."""
    d = np.r_[np.full(24, 0.9), 0.9 + rng.uniform(0.5, 2.0, 40)]
    lr = _lowrank(rng, len(d), 4, 1e-4, real)
    if psd:
        lr = LowRank(lr.u, lr.c @ lr.c.conj().T)
    return d, lr


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("psd", [True, False])
def test_bracket_at_a_tied_minimum(psd, real):
    rng = np.random.default_rng(11)
    for _ in range(4):
        d, lr = _tied_minimum(rng, psd, real)
        val, width = min_eig_diag_plus_lowrank(d, lr)
        assert (val, width) == bisection_min_eig(d, lr)
        assert abs(val - 0.9) <= 2 * np.spacing(0.9) if psd else val < 0.9


def test_bracket_with_the_root_on_an_entry_of_d():
    # rank one on a triple entry 1.0 leaves 1.0 an eigenvalue, and the
    # lowest: the bisection pivots exactly on that entry of d
    rng = np.random.default_rng(3)
    d = np.r_[1.0, 1.0, 1.0, 1.5 + rng.uniform(0.0, 1.0, 20)]
    u = np.zeros((len(d), 1))
    u[:3, 0], u[3:, 0] = rng.uniform(0.5, 1.0, 3), 0.01
    lr = LowRank(u, np.eye(1))
    val, width = min_eig_diag_plus_lowrank(d, lr)
    assert (val, width) == bisection_min_eig(d, lr)
    assert 1.0 in (val, val + width)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("psd", [False, True])
def test_bracket_over_the_near_block_cap_beats_plain_bisection(monkeypatch,
                                                              tied, psd):
    # 100 entries within 2 ||W||_F^2 of min(d): the candidate's block P is
    # the 64 lowest, the rest eliminated.  With min(d) 80-fold the cap
    # splits the tie, and under a positive correction the candidate starts
    # on min(d), then a pivot of Q: its first step is singular, and the
    # window starts at min(d)
    rng = np.random.default_rng(5)
    d = np.linspace(0.0, 0.01, 100)
    if tied:
        d[:80] = 0.0
    lr = _lowrank(rng, len(d), 2, 0.1, False)
    if psd:
        lr = LowRank(lr.u, lr.c @ lr.c.conj().T)
    calls, eigvalsh = [0], np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls[0] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    got, ours = min_eig_diag_plus_lowrank(d, lr), calls[0]
    assert got == bisection_min_eig(d, lr)
    assert ours < calls[0] - ours


def test_bracket_in_a_noisy_count_stays_in_its_band():
    # a correction some 100 times the spread of d makes the rounded count
    # flip back and forth over tens of ulps: the window may then stop at
    # another flip than plain bisection, inside the same band
    rng = np.random.default_rng(1)
    for trial in range(24):
        dim = int(rng.integers(8, 60))
        d = rng.standard_normal(dim)
        lr = _lowrank(rng, dim, 1 + trial % 4, 1.0, False)
        val, width = min_eig_diag_plus_lowrank(d, lr)
        plain = bisection_min_eig(d, lr)
        exact = _dense_eigs(d, lr)[0]
        scale = np.abs(_dense_eigs(d, lr)).max()
        assert abs(val - plain[0]) <= 1e-12 * scale
        assert abs(val - exact) <= 1e-12 * scale and width == plain[1]


def _chain_form(n_e, n_u, lam=0.1):
    """The domination-step shape N - 0.5 Pbar + lam I_1 on a truncation, as
    a matrix-free operator and as its dense matrix."""
    trunc = Truncation(ModelParams(n_e=n_e, n_u=n_u, n_max=1, e_max=4.0,
                                   u_max=4.0))
    d = trunc.number - 0.5 * (1.0 - trunc.vacuum_proj)
    dense = symmetrize(sp.diags(d.astype(complex))
                      + lam * to_csr(trunc.commutator(1))).toarray()
    return DiagPlus(d, lam, trunc.commutator(1)), dense


@pytest.fixture(scope="module")
def arpack_sized():
    op, dense = _chain_form(10, 12)
    return op, np.linalg.eigvalsh(dense)[0]


@pytest.mark.parametrize("n_e, n_u, tol", [(6, 8, 1e-12), (10, 12, 1e-10)])
def test_min_eig_of_operator(n_e, n_u, tol):
    op, dense = _chain_form(n_e, n_u)
    exact = np.linalg.eigvalsh(dense)[0]
    low, vec = min_eig_hermitian(op, with_vector=True)
    assert abs(low - exact) <= tol * abs(exact)
    assert np.linalg.norm(op @ vec - low * vec) <= tol * abs(exact)


def test_no_solver_densifies():
    # every solver applies the operator matrix-free: to vectors, or to the
    # (dim, 1) block of svds' one eigenvector, never to the identity
    op, _ = _chain_form(6, 8)
    widths = []

    def recorded(apply):
        def counted(x):
            widths.append(1 if x.ndim == 1 else x.shape[1])
            return apply(x)
        return counted

    wrapped = spla.LinearOperator(
        op.shape, dtype=op.dtype, matvec=recorded(op.matvec),
        matmat=recorded(op.matmat), rmatvec=recorded(op.rmatvec),
        rmatmat=recorded(op.rmatmat))
    min_eig_hermitian(wrapped)
    eig_pairs_smallest(wrapped, 4)
    operator_norm(wrapped)
    assert widths and set(widths) == {1}


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


def test_diag_plus_widens_a_real_product_for_a_complex_lam(small):
    # diag(d) + lam X scales X @ v in place only when its dtype holds the
    # result: lam = i lam' on the real [I, N] (phase i) needs complex
    trunc = Truncation(small)
    op = DiagPlus(trunc.number, 0.1j, trunc.number_comm)
    dense = to_csr(op).toarray()
    v = np.random.default_rng(3).standard_normal((op.shape[0], 2))
    for u, got in ((v[:, 0], op.matvec(v[:, 0])), (v, op.matmat(v)),
                   (v[:, 0], op.rmatvec(v[:, 0]))):
        assert got.dtype == np.complex128
        assert np.linalg.norm(got - dense @ u) <= 1e-13 * np.linalg.norm(
            dense @ u)


@pytest.mark.parametrize("n_e, n_u", [(6, 8), (10, 12)])
def test_complex_coupling_keeps_the_complex_path(n_e, n_u):
    # a Hermitian coupling g + i S (S real antisymmetric) has a genuinely
    # complex particle factor: it alone stays complex, and the sum,
    # diag + lam I and the solve stay complex128 and match dense eigvalsh
    from thermion.operators import KronSum, interaction_like
    trunc = Truncation(ModelParams(n_e=n_e, n_u=n_u, n_max=1, e_max=4.0,
                                   u_max=4.0))
    s = np.random.default_rng(2).standard_normal(trunc.coupling.shape)
    g = trunc.coupling + 0.3j * (s - s.T)
    x = KronSum(trunc.basis, interaction_like(
        trunc.basis, g, 1.0, trunc.vectors.direct, trunc.vectors.image))
    d = trunc.number - 0.5 * (1.0 - trunc.vacuum_proj)
    op = DiagPlus(d, 0.1, x)
    assert [m.dtype for term in x.terms for m in term if m is not None] \
        == [np.float64, np.complex128, np.float64, np.complex128]
    assert x.dtype == op.dtype == np.complex128
    assert (op @ np.ones(op.shape[0])).dtype == np.complex128
    exact = np.linalg.eigvalsh(to_csr(op).toarray())[0]
    assert abs(min_eig_hermitian(op) - exact) <= 1e-12 * abs(exact)
    # the chain's correction follows the interaction into the complex field
    trunc.coupling = g      # the interaction is built from it on first use
    conj = assemble_conjugates(assemble_liouvillian(trunc.params, trunc))
    assert conj.correction_comm.dtype == np.complex128


def test_chain_asks_arpack_for_the_domination_vector_only(monkeypatch):
    # at n_max = 2 the two compensation solves read only the eigenvalue;
    # the domination step reads its vector for the residual.  At n_max = 1
    # the closed form on sigma^2 asks for nothing and has no residual
    from thermion.feshbach import verify_bound_chain
    from thermion.operators import Truncation
    real, asked, built = spla.eigsh, [], []
    sigma = Truncation.sigma_sq.func

    def recorded(*args, **kwargs):
        asked.append(kwargs.get("return_eigenvectors", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", recorded)
    monkeypatch.setattr(Truncation.sigma_sq, "func",
                        lambda trunc: built.append(trunc) or sigma(trunc))
    p = ModelParams(n_e=12, n_u=12, n_max=1, e_max=4.0, u_max=4.0)
    rep = verify_bound_chain(p, lam=1e-2)
    assert asked == [] and len(built) == 1
    assert rep.steps[0].detail.keys() == {"norm_scale"}
    rep = verify_bound_chain(p.with_(n_e=6, n_u=6, n_max=2), lam=1e-2)
    assert asked == [False, False, True] and len(built) == 1
    assert rep.steps[0].detail["residual"] <= 1e-8
