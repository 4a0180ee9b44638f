import numpy as np
import pytest
import scipy.sparse as sp

from thermion import commutators, feshbach, operators
from thermion.feshbach import (assemble_bound_operators, chain_recipe,
                               feshbach_map, feshbach_woodbury,
                               find_reduction_roots,
                               isospectrality_defect,
                               scaled_to_limit_convergence, scan_lambda0,
                               verify_bound_chain)
from thermion.operators import (LowRank, assemble_conjugates,
                                assemble_liouvillian)
from thermion.params import ModelParams


def test_block_diagonal_reduces_to_corner():
    m = np.diag([1.0, 2.0, 5.0, 7.0]).astype(complex)
    res = feshbach_map(m, np.array([0]), m=0.3)
    assert res.f_value == pytest.approx(1.0)


def test_two_by_two_closed_form():
    a, b, d = 1.0, 0.7 + 0.4j, 3.0
    m = np.array([[a, b], [np.conj(b), d]])
    for mval in (-1.0, 0.5, 2.0):
        res = feshbach_map(m, np.array([0]), m=mval)
        assert res.f_value == pytest.approx(a - abs(b) ** 2 / (d - mval))


def test_refuses_spectral_parameter_on_complement():
    m = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(ValueError, match="refusing"):
        feshbach_map(m, np.array([0]), m=2.0)


def test_reduction_is_hermitian_for_real_parameter():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = (a + a.conj().T) / 2
    q = np.linalg.qr(rng.standard_normal((8, 2)))[0]
    evs = np.linalg.eigvalsh(m)
    res = feshbach_map(m, q, m=float(evs[0]) - 1.0)
    assert np.allclose(res.f_matrix, res.f_matrix.conj().T)


def test_isospectrality_on_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(20):
        dim = int(rng.integers(6, 16))
        a = rng.standard_normal((dim, dim)) \
            + 1j * rng.standard_normal((dim, dim))
        m = (a + a.conj().T) / 2
        rank = 1 + trial % 2
        q = np.linalg.qr(rng.standard_normal((dim, rank)))[0]
        defects, tested, _ = isospectrality_defect(m, q)
        if len(defects):
            assert defects.max() < 1e-10


def test_reduction_roots_are_eigenvalues():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((10, 10))
    m = (a + a.T) / 2
    q = np.linalg.qr(rng.standard_normal((10, 1)))[0]
    roots = find_reduction_roots(m, q)
    evs = np.linalg.eigvalsh(m)
    for r in roots:
        assert np.min(np.abs(evs - r)) < 1e-8


def test_loewner_monotonicity_in_parameter():
    # raising the spectral parameter toward the complement spectrum can
    # only strengthen the resolvent damping: the reduced block is
    # non-increasing in the parameter below the complement spectrum
    rng = np.random.default_rng(5)
    a = rng.standard_normal((9, 9))
    m = (a + a.T) / 2 + 9 * np.eye(9)   # positive, complement well above
    q = np.linalg.qr(rng.standard_normal((9, 2)))[0]
    evs_prev = None
    lo = float(np.linalg.eigvalsh(m).min())
    for mval in np.linspace(lo - 3.0, lo - 0.5, 5):
        f = feshbach_map(m, q, float(mval)).f_matrix
        evs = np.linalg.eigvalsh(f)
        if evs_prev is not None:
            assert np.all(evs <= evs_prev + 1e-10)
        evs_prev = evs


@pytest.fixture(scope="module")
def chain_setup():
    p = ModelParams(n_e=8, n_u=8, n_max=1, e_max=4.0, u_max=4.0, lam=1e-3)
    liou = assemble_liouvillian(p)
    conj = assemble_conjugates(liou)
    return p, liou, conj


def test_bound_operators_reference_block(chain_setup):
    p, liou, conj = chain_setup
    ops = assemble_bound_operators(liou, conj)
    k = conj.pi_index
    # limit operator on the reference: -k49 lam^2 + correction block
    corr = conj.correction_comm.diagonal()[k]
    assert np.isclose(ops.d_limit[k] + ops.correction.diagonal()[k],
                      -ops.k49 * p.lam ** 2 + corr)
    # at zero coupling the reference block vanishes: dressing is necessary
    p0 = p.with_(lam=0.0)
    liou0 = assemble_liouvillian(p0, liou.trunc)
    conj0 = assemble_conjugates(liou0)
    ops0 = assemble_bound_operators(liou0, conj0)
    assert ops0.d_limit[k] + ops0.correction.diagonal()[k] == 0.0


def test_woodbury_reduction_matches_dense(chain_setup):
    p, liou, conj = chain_setup
    ops = assemble_bound_operators(liou, conj)
    k, corr = conj.pi_index, ops.correction
    dense = np.diag(ops.d_limit) + corr.u @ corr.c @ corr.u.conj().T
    keep = np.arange(len(dense)) != k
    floor = float(np.linalg.eigvalsh(dense[np.ix_(keep, keep)])[0])
    for m in (0.0, 0.05, 0.1, 0.15, 0.2, 0.24):
        got = feshbach_woodbury(ops.d_limit, corr, k, m, floor)
        want = feshbach_map(dense, np.array([k]), m)
        assert got.f_value == pytest.approx(want.f_value, rel=1e-12)
        assert got.spec_distance == pytest.approx(want.spec_distance)


def test_woodbury_refuses_near_or_on_the_complement():
    d = np.array([0.0, 1.0, 2.0])
    lr = LowRank(np.full((3, 1), 0.1 + 0j), np.eye(1, dtype=complex))
    with pytest.raises(ValueError, match="refusing"):
        feshbach_woodbury(d, lr, 0, m=0.9, floor=0.9)
    # a floor that lies: m sits on an entry of the complement diagonal,
    # and the residual of the solve gives it away
    with pytest.raises(ValueError, match="refusing"):
        feshbach_woodbury(d, lr, 0, m=1.0, floor=5.0)


def test_scaled_to_limit_convergence(chain_setup):
    p, liou, conj = chain_setup
    rep = scaled_to_limit_convergence(p, liou)
    assert rep.passed, rep


def test_chain_recipe_diagnoses_feasibility():
    p = ModelParams(n_e=8, n_u=8, n_max=1)
    rec = chain_recipe(p, gamma=24.0, k49=3e4)
    assert not rec.recipe_feasible
    assert rec.n_e_required > p.n_e
    easy = chain_recipe(p, gamma=24.0, k49=1.0)
    assert easy.epsilon > rec.epsilon


def test_chain_report_structure():
    p = ModelParams(n_e=8, n_u=8, n_max=1, e_max=4.0, u_max=4.0)
    rep = verify_bound_chain(p)
    names = [s.check for s in rep.steps]
    assert len(names) == 6
    # the construction inequality and the complement bound hold on the
    # truncation even where the golden-rule-target positivity cannot
    assert rep.steps[0].passed
    assert rep.steps[1].passed
    assert rep.k49 > 0 and rep.gamma > 0
    assert rep.measured["mbar_min_eig"] > 0.5


def test_chain_degenerate_at_zero_coupling():
    p = ModelParams(n_e=6, n_u=6, n_max=1, e_max=4.0, u_max=4.0)
    rep = verify_bound_chain(p, lam=0.0, theta=0.1, epsilon=0.5)
    # target is zero; the reference block sits exactly at zero
    assert rep.measured["target"] == 0.0
    assert abs(rep.measured["m_min_eig"]) < 1e-12


def test_probe_and_first_commutator_built_once_per_truncation(monkeypatch):
    # the k49 probe is the compensation constant at lam = 1e-4 (off the
    # lam grid here), I_1 the order-1 interaction commutator
    calls = {"probe": 0, "i1": 0}
    bound = commutators.estimate_small_coupling_bound
    build = commutators.interaction_commutator

    def counted_bound(params, trunc, i1):
        calls["probe"] += params.lam == 1e-4
        return bound(params, trunc, i1)

    def counted_build(trunc, order):
        calls["i1"] += order == 1
        return build(trunc, order)

    monkeypatch.setattr(commutators, "estimate_small_coupling_bound",
                        counted_bound)
    monkeypatch.setattr(commutators, "interaction_commutator", counted_build)
    p = ModelParams(n_e=4, n_u=4, n_max=1, e_max=4.0, u_max=4.0)
    scan_lambda0(p, (1e-3, 1e-2, 1e-1), betas=(0.5, 1.0, 2.0))
    assert calls == {"probe": 3, "i1": 3}
    calls.update(probe=0, i1=0)
    verify_bound_chain(p, lam=1e-2)
    assert calls == {"probe": 1, "i1": 1}


def test_chain_solves_matrix_free_three_times(monkeypatch):
    # the k49 probe, k at the run coupling and the domination step each
    # run one eigensolve on the factored I_1; no CSR of it is assembled
    calls = {"tosparse": 0, "min_eig": 0}
    tosparse, solve = operators.KronSum.tosparse, feshbach.min_eig_hermitian

    def counted_tosparse(self):
        calls["tosparse"] += 1
        return tosparse(self)

    def counted_solve(*args, **kwargs):
        calls["min_eig"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(operators.KronSum, "tosparse", counted_tosparse)
    for module in (commutators, feshbach):
        monkeypatch.setattr(module, "min_eig_hermitian", counted_solve)
    p = ModelParams(n_e=4, n_u=4, n_max=1, e_max=4.0, u_max=4.0)
    verify_bound_chain(p, lam=1e-2)
    assert calls == {"tosparse": 0, "min_eig": 3}


def test_chain_eigensolves_run_in_float64(monkeypatch):
    # the k49 probe, k at the run coupling and the domination step hand
    # ARPACK real symmetric operators (the cutoff is lowered so that a
    # tiny truncation reaches ARPACK)
    import scipy.sparse.linalg as spla
    from thermion import linalg
    real, dtypes = spla.eigsh, []

    def recorded(op, *args, **kwargs):
        dtypes.append(op.dtype)
        return real(op, *args, **kwargs)

    monkeypatch.setattr(linalg, "DENSE_CUTOFF", 0)
    monkeypatch.setattr(spla, "eigsh", recorded)
    p = ModelParams(n_e=4, n_u=4, n_max=1, e_max=4.0, u_max=4.0)
    verify_bound_chain(p, lam=1e-2)
    assert dtypes == [np.float64] * 3


from hypothesis import given, settings, strategies as st

_entry = st.floats(-3.0, 3.0, allow_nan=False)


@given(a=_entry, br=_entry, bi=_entry, d=_entry, m=_entry)
@settings(max_examples=40, deadline=None)
def test_rank_one_reduction_closed_form_property(a, br, bi, d, m):
    b = br + 1j * bi
    mat = np.array([[a, b], [np.conj(b), d]])
    if abs(d - m) < 1e-3:
        return
    res = feshbach_map(mat, np.array([0]), m, cond_tol=1e-6)
    assert abs(res.f_value - (a - abs(b) ** 2 / (d - m))) < 1e-10
