import numpy as np
import pytest
import scipy.sparse as sp

from csr_oracle import commutator, conj_full, liouvillian, to_csr
from thermion.linalg import eig_pairs_smallest, norm, vdot
from thermion.operators import assemble_conjugates, assemble_liouvillian
from thermion.params import ModelParams
from thermion.virial import (bandlimited_mollifier, bump,
                             build_regularized_family,
                             commutator_expectation_scan,
                             eigenpair_residual_check, family_checks,
                             regularity_check, virial_residual)


@pytest.fixture(scope="module")
def setup():
    p = ModelParams(n_e=6, n_u=8, n_max=1, e_max=4.0, u_max=4.0, lam=0.1)
    liou = assemble_liouvillian(p)
    conj = assemble_conjugates(liou)
    return p, liou, conj


def test_bump_properties():
    assert bump(0.0) == pytest.approx(1.0)
    assert bump(0.999999) < 1e-6
    assert bump(np.array([-2.0, 2.0])).max() == 0.0


def test_mollifier_normalized_and_bounded():
    x = np.linspace(-200, 200, 4001)
    f = bandlimited_mollifier(x)
    assert bandlimited_mollifier(np.array([0.0]))[0] == pytest.approx(1.0)
    assert np.max(np.abs(f)) <= 1.0 + 1e-12


def trapezoid_mollifier(x):
    """The oracle: the mollifier by the trapezoid rule on all 2,001 nodes
    of (-1, 1), without folding the even integrand onto its half."""
    grid = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 2001)
    x, w = np.atleast_1d(np.asarray(x, float)), bump(grid)
    return np.trapezoid(w[None, :] * np.cos(np.outer(x, grid)), grid,
                        axis=1) / np.trapezoid(w, grid)


def test_folded_mollifier_matches_the_full_grid_rule():
    x = np.linspace(-50.0, 50.0, 20001)
    assert np.max(np.abs(bandlimited_mollifier(x) - trapezoid_mollifier(x))) \
        <= 1e-15


def test_exact_eigenvector_residual_is_zero():
    d = sp.diags(np.arange(1.0, 7.0).astype(complex)).tocsr()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = sp.csr_matrix((a + a.conj().T) / 2)
    psi = np.zeros(6, dtype=complex)
    psi[2] = 1.0
    assert abs(virial_residual(d, a, psi)) < 1e-14


def test_virial_residual_bound_on_eigenpairs(setup):
    p, liou, conj = setup
    a_full = (conj_full(liou.trunc) + to_csr(conj.correction)).tocsr()
    _, vecs = eig_pairs_smallest(liouvillian(liou), 10)
    rep = eigenpair_residual_check(liouvillian(liou), a_full, vecs)
    assert rep.passed, rep


def test_residual_check_applies_each_operator_once_per_pair(setup):
    # one L psi and one A psi per pair, and bit for bit the report of the
    # former check, which applied L three times and A twice per pair
    p, liou, conj = setup
    l_op = liou.operator
    a_full = (conj_full(liou.trunc) + to_csr(conj.correction)).tocsr()
    _, vecs = eig_pairs_smallest(l_op, 4)
    counts = {"l": 0, "a": 0}

    class Counted:
        def __init__(self, key, op):
            self.key, self.op = key, op

        def __matmul__(self, v):
            counts[self.key] += 1
            return self.op @ v

    rep = eigenpair_residual_check(Counted("l", l_op), Counted("a", a_full),
                                   vecs)
    assert counts == {"l": 4, "a": 4}
    worst, rows = -np.inf, []
    for psi in vecs.T:
        e = float(vdot(psi, l_op @ psi).real)
        r = norm(l_op @ psi - e * psi)
        lhs = abs(virial_residual(l_op, a_full, psi))
        rhs = 2.0 * r * norm(a_full @ psi) + 1e-14
        rows.append({"eig": e, "residual": r, "lhs": lhs, "rhs": rhs})
        worst = max(worst, lhs - rhs)
    assert rep.value == worst and rep.detail["pairs"] == rows


def test_random_hermitian_virial_expectation(setup):
    # for every exact eigenpair the commutator expectation vanishes for any
    # bounded observable
    p, liou, conj = setup
    evals, vecs = eig_pairs_smallest(liouvillian(liou), 4)
    rng = np.random.default_rng(1)
    dim = liou.basis.dim
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = sp.csr_matrix((x + x.conj().T) / 2)
    for k in range(vecs.shape[1]):
        res = virial_residual(liouvillian(liou), x, vecs[:, k])
        assert abs(res) < 1e-9 * dim


def test_family_norm_and_convergence(setup):
    p, liou, conj = setup
    _, vecs = eig_pairs_smallest(liouvillian(liou), 1)
    family = build_regularized_family(vecs[:, 0], liou.conj_full, liou.number)
    for rep in family_checks(family):
        assert rep.passed, rep


def test_family_matches_dense_spectral_calculus(setup):
    p, liou, conj = setup
    from scipy.linalg import eigh
    _, vecs = eig_pairs_smallest(liouvillian(liou), 1)
    psi = vecs[:, 0]
    family = build_regularized_family(psi, liou.conj_full, liou.number)
    w, v = eigh(conj_full(liou.trunc).toarray())
    coeffs = v.conj().T @ psi
    for alpha, vec in zip(family.alphas, family.vectors):
        dense = bump(alpha ** 3 * liou.number) ** 2 * (
            v @ (bandlimited_mollifier(alpha * w) * coeffs))
        assert np.linalg.norm(vec - dense) < 1e-12
    assert 0.0 <= family.krylov_error <= 1e-12


def test_vacuum_sector_number_cutoff_is_identity(setup):
    p, liou, conj = setup
    # a state in the boson vacuum is untouched by the number cutoff
    dim = liou.basis.dim
    psi = np.zeros(dim, dtype=complex)
    psi[liou.basis.vacuum_bound_index()] = 1.0
    family = build_regularized_family(psi, liou.conj_full, liou.number,
                                      alphas=(0.2,))
    nums = liou.number
    # apply only the number cutoff: nu = alpha^3 < 1 and N psi = 0
    from thermion.virial import bump as g1
    gn = g1(0.2 ** 3 * nums) ** 2
    assert np.allclose(gn * psi, psi)


def test_number_cutoff_commutes_with_conjugate_smoothing(setup):
    p, liou, conj = setup
    # [A, N] = 0 exactly, so the two spectral cutoffs commute
    n_op = sp.diags(liou.number.astype(complex))
    a_full = conj_full(liou.trunc)
    comm = a_full @ n_op - n_op @ a_full
    assert abs(comm).max() == 0.0


def test_commutator_expectation_scan_decreases(setup):
    p, liou, conj = setup
    _, vecs = eig_pairs_smallest(liouvillian(liou), 1)
    family = build_regularized_family(vecs[:, 0], liou.conj_full, liou.number)
    scan = commutator_expectation_scan(family, liouvillian(liou),
                                       liou.conj_full)
    assert abs(scan[-1][1]) < 1e-6
    assert abs(scan[-1][1]) <= abs(scan[0][1]) + 1e-12


def test_commutator_free_scan_matches_assembled_commutator(setup):
    # -2 Im <L v, A v> against <v, i[L, A] v> from the assembled product
    p, liou, conj = setup
    _, vecs = eig_pairs_smallest(liouvillian(liou), 1)
    family = build_regularized_family(vecs[:, 0], liou.conj_full, liou.number)
    c1_direct = commutator(liouvillian(liou), conj_full(liou.trunc))
    scan = commutator_expectation_scan(family, liou.operator, liou.conj_full)
    for (alpha, val), vc in zip(scan, family.vectors):
        oracle = np.real(np.vdot(vc, c1_direct @ vc)) / np.vdot(vc, vc).real
        assert abs(val - oracle) <= 1e-13, (alpha, val, oracle)


def test_regularity_check_trivial_cases(setup):
    p, liou, conj = setup
    dim = liou.basis.dim
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    family = build_regularized_family(psi, liou.conj_full, liou.number,
                                      alphas=(0.1,))
    ident = sp.identity(dim, dtype=complex, format="csr")
    # P = 0: reduces to <B> >= 0
    rep = regularity_check(ident, np.zeros(dim), ident, family)
    assert rep.passed
    # C = P, B = 0, with <C> not tending to zero: hypothesis fails, and
    # the checker reports rather than errors
    rep2 = regularity_check(
        sp.diags(liou.number.astype(complex)), liou.number,
        sp.csr_matrix((dim, dim), dtype=complex), family)
    assert isinstance(rep2.passed, bool)


def test_virial_scan_applies_factored_operators_and_solves_once(monkeypatch):
    # the family's base vector is the first of the residual check's pairs
    # (that no composite matrix is built is test_cli's guard)
    from thermion import experiments
    calls = {"eig_pairs": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "eig_pairs_smallest", counted(
        "eig_pairs", experiments.eig_pairs_smallest))
    p = ModelParams(n_e=4, n_u=4, n_max=1, e_max=4.0, u_max=4.0)
    rep = experiments.run(experiments.ExperimentConfig(
        kind="virial-scan", params=p, options={"n_pairs": 3}))
    assert len(rep.checks) == 5
    assert calls == {"eig_pairs": 1}


@pytest.mark.parametrize("n_pairs", [0, -2])
def test_virial_scan_refuses_fewer_than_one_pair(monkeypatch, n_pairs):
    from thermion import experiments

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing n_pairs")

    monkeypatch.setattr(experiments, "eig_pairs_smallest", no_solve)
    monkeypatch.setattr(experiments, "assemble_liouvillian", no_solve)
    with pytest.raises(ValueError, match="n_pairs"):
        experiments.run(experiments.ExperimentConfig(
            kind="virial-scan", options={"n_pairs": n_pairs}))
