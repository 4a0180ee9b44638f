import numpy as np
import pytest
import scipy.sparse as sp

from thermion.linalg import eig_pairs_smallest
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
    conj = assemble_conjugates(p, liou)
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
    a_full = (conj.full + conj.correction.tosparse()).tocsr()
    rep = eigenpair_residual_check(liou.liouvillian, a_full, n_pairs=10)
    assert rep.passed, rep


def test_random_hermitian_virial_expectation(setup):
    # for every exact eigenpair the commutator expectation vanishes for any
    # bounded observable
    p, liou, conj = setup
    evals, vecs = eig_pairs_smallest(liou.liouvillian, 4)
    rng = np.random.default_rng(1)
    dim = liou.basis.dim
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = sp.csr_matrix((x + x.conj().T) / 2)
    for k in range(vecs.shape[1]):
        res = virial_residual(liou.liouvillian, x, vecs[:, k])
        assert abs(res) < 1e-9 * dim


def test_family_norm_and_convergence(setup):
    p, liou, conj = setup
    evals, vecs = eig_pairs_smallest(liou.liouvillian, 1)
    family = build_regularized_family(vecs[:, 0], conj.full, liou.number,
                                      eigenvalue=float(evals[0]))
    for rep in family_checks(family):
        assert rep.passed, rep


def test_family_matches_dense_spectral_calculus(setup):
    p, liou, conj = setup
    from scipy.linalg import eigh
    evals, vecs = eig_pairs_smallest(liou.liouvillian, 1)
    psi = vecs[:, 0]
    family = build_regularized_family(psi, conj.full, liou.number,
                                      eigenvalue=float(evals[0]))
    w, v = eigh(conj.full.toarray())
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
    family = build_regularized_family(psi, conj.full, liou.number,
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
    comm = conj.full @ n_op - n_op @ conj.full
    assert abs(comm).max() == 0.0


def test_commutator_expectation_scan_decreases(setup):
    p, liou, conj = setup
    from thermion.commutators import commutator
    evals, vecs = eig_pairs_smallest(liou.liouvillian, 1)
    family = build_regularized_family(vecs[:, 0], conj.full, liou.number,
                                      eigenvalue=float(evals[0]))
    c1_direct = commutator(liou.liouvillian, conj.full)
    scan = commutator_expectation_scan(family, c1_direct)
    assert abs(scan[-1][1]) < 1e-6
    assert abs(scan[-1][1]) <= abs(scan[0][1]) + 1e-12


def test_regularity_check_trivial_cases(setup):
    p, liou, conj = setup
    dim = liou.basis.dim
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    family = build_regularized_family(psi, conj.full, liou.number,
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
