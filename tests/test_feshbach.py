import json

import numpy as np
import pytest
import scipy.linalg as sla

from csr_oracle import all_rows_max_abs_row_sum, lowrank_diagonal
from thermion import commutators, feshbach, operators
from thermion.cli import main
from thermion.experiments import ExperimentConfig, _fuzz_instance, run
from thermion.feshbach import (FeshbachPencil, assemble_bound_operators,
                               chain_recipe, feshbach_woodbury,
                               scan_lambda0, verify_bound_chain)
from thermion.operators import (LowRank, Truncation, assemble_conjugates,
                                assemble_liouvillian)
from thermion.params import ModelParams


def _direct_reduction(mat, pi, m):
    """P (M - M Qbar (Qbar M Qbar - m)^{-1} Qbar M) P by dense solve, as a
    dim x dim matrix (independent of the bases chosen for P and Qbar),
    and the distance from m to the spectrum of Qbar M Qbar."""
    q = sla.orth(np.asarray(pi).astype(complex))
    qbar = sla.null_space(q.conj().T)
    block = qbar.conj().T @ mat @ qbar
    resolved = qbar @ np.linalg.solve(
        block - m * np.eye(qbar.shape[1]), qbar.conj().T @ mat)
    proj = q @ q.conj().T
    distance = float(np.min(np.abs(np.linalg.eigvalsh(block) - m)))
    return proj @ (mat - mat @ resolved) @ proj, distance


def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("kind", ["index", "columns"])
def test_pencil_matches_direct_formula(rank, kind):
    rng = np.random.default_rng(17 + rank)
    mat = _random_hermitian(rng, 11)
    pi = (np.eye(11)[:, [3, 7][:rank]] if kind == "index"
          else rng.standard_normal((11, rank))
          + 1j * rng.standard_normal((11, rank)))
    pencil = FeshbachPencil(mat, pi)
    lo = float(np.linalg.eigvalsh(mat)[0])
    for m in (lo - 2.0, lo - 0.3, float(pencil.w[0]) - 0.05):
        got = pencil.reduce(m)
        want, distance = _direct_reduction(mat, pi, m)
        lifted = pencil.q @ got.f_matrix @ pencil.q.conj().T
        assert np.linalg.norm(lifted - want) \
            <= 1e-12 * np.linalg.norm(want)
        assert got.spec_distance == pytest.approx(distance, rel=1e-12)


def test_refuses_linearly_dependent_columns():
    # unpivoted QR of [0, v] keeps a column that is not in span{v}; a
    # silently filtered range gave a wrong F(-5)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    mat = (a + a.T) / 2
    v = rng.standard_normal(6)
    with pytest.raises(ValueError, match="linearly dependent"):
        FeshbachPencil(mat, np.column_stack([np.zeros(6), v]))
    assert FeshbachPencil(mat, v[:, None]).reduce(-5.0).f_value \
        == pytest.approx(-0.4453970297581965, rel=1e-12)


def test_stacked_reduction_equals_point_evaluations():
    rng = np.random.default_rng(9)
    mat = _random_hermitian(rng, 10)
    pencil = FeshbachPencil(mat, rng.standard_normal((10, 2)))
    ms = np.linspace(pencil.evals[0] - 2.0, pencil.w[0] - 0.01, 7)
    stacked = pencil.reduce(ms)
    assert stacked.f_matrix.shape == (7, 2, 2)
    for i, m in enumerate(ms):
        point = pencil.reduce(float(m))
        assert np.array_equal(stacked.f_matrix[i], point.f_matrix)
        assert np.array_equal(stacked.spec_distance[i], point.spec_distance)
    with pytest.raises(ValueError, match="refusing"):
        pencil.reduce(np.append(ms, pencil.w[1] + 1e-9))


def test_block_diagonal_reduces_to_corner():
    m = np.diag([1.0, 2.0, 5.0, 7.0]).astype(complex)
    res = FeshbachPencil(m, np.eye(4)[:, [0]]).reduce(0.3)
    assert res.f_value == pytest.approx(1.0)


def test_two_by_two_closed_form():
    a, b, d = 1.0, 0.7 + 0.4j, 3.0
    m = np.array([[a, b], [np.conj(b), d]])
    pencil = FeshbachPencil(m, np.eye(2)[:, [0]])
    for mval in (-1.0, 0.5, 2.0):
        res = pencil.reduce(mval)
        assert res.f_value == pytest.approx(a - abs(b) ** 2 / (d - mval))


def test_refuses_spectral_parameter_on_complement():
    m = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(ValueError, match="refusing"):
        FeshbachPencil(m, np.eye(2)[:, [0]]).reduce(2.0)


def test_reduction_is_hermitian_for_real_parameter():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = (a + a.conj().T) / 2
    q = np.linalg.qr(rng.standard_normal((8, 2)))[0]
    evs = np.linalg.eigvalsh(m)
    res = FeshbachPencil(m, q).reduce(float(evs[0]) - 1.0)
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
        defects, tested = FeshbachPencil(m, q).defects()
        if len(defects):
            assert defects.max() < 1e-10


def test_defects_skip_eigenvalues_reduce_refuses():
    # 2 - 5e-9 lies within reduce's cond_tol of the complement spectrum
    # {2, 3}: it is left out of the test set instead of raising
    pencil = FeshbachPencil(np.diag([2 - 5e-9, 2, 3.]), np.eye(3)[:, [0]])
    with pytest.raises(ValueError):
        pencil.reduce(2 - 5e-9)
    defects, tested = pencil.defects()
    assert len(defects) == len(tested) == 0


def test_reduction_roots_are_eigenvalues():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((10, 10))
    m = (a + a.T) / 2
    q = np.linalg.qr(rng.standard_normal((10, 1)))[0]
    roots = FeshbachPencil(m, q).roots()
    evs = np.linalg.eigvalsh(m)
    for r in roots:
        assert np.min(np.abs(evs - r)) < 1e-8


def test_root_scan_decomposes_once(monkeypatch):
    # the scan grid evaluates the secular form only: the number of
    # eigendecompositions behind one scan does not grow with the grid
    rng = np.random.default_rng(3)
    m = _random_hermitian(rng, 12)
    q = np.linalg.qr(rng.standard_normal((12, 2)))[0]
    def decompositions(n_grid):
        calls = []
        with monkeypatch.context() as mp:
            for name in ("eigh", "eigvalsh"):
                mp.setattr(np.linalg, name,
                           lambda *a, _fn=getattr(np.linalg, name), **k:
                           calls.append(1) or _fn(*a, **k))
            FeshbachPencil(m, q).roots(n_grid)
        return len(calls)

    assert decompositions(40) == decompositions(400) > 0


def test_fuzz_builds_one_pencil_per_instance(monkeypatch):
    built = []

    class Counted(FeshbachPencil):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(feshbach, "FeshbachPencil", Counted)
    run(ExperimentConfig(kind="feshbach-fuzz", seed=0,
                         options={"instances": 12}))
    assert len(built) == 12


def test_fuzz_instance_stacks_its_scan_and_defects(monkeypatch):
    # defects and the grid scan are one stacked call each; every scalar
    # call is a bisection step, fewer than the grid has points
    calls = []
    reduce = FeshbachPencil.reduce
    monkeypatch.setattr(FeshbachPencil, "reduce", lambda self, m, *a, **k:
                        calls.append(np.ndim(m)) or reduce(self, m, *a, **k))
    _fuzz_instance((0, 1, 20))
    assert calls.count(1) == 2
    assert calls.count(0) == len(calls) - 2 < 160


def test_loewner_monotonicity_in_parameter():
    # raising the spectral parameter toward the complement spectrum can
    # only strengthen the resolvent damping: the reduced block is
    # non-increasing in the parameter below the complement spectrum
    rng = np.random.default_rng(5)
    a = rng.standard_normal((9, 9))
    m = (a + a.T) / 2 + 9 * np.eye(9)   # positive, complement well above
    q = np.linalg.qr(rng.standard_normal((9, 2)))[0]
    pencil = FeshbachPencil(m, q)
    evs_prev = None
    lo = float(np.linalg.eigvalsh(m).min())
    for mval in np.linspace(lo - 3.0, lo - 0.5, 5):
        f = pencil.reduce(float(mval)).f_matrix
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
    ops = assemble_bound_operators(liou, conj, liou.compensation(p.lam))
    k = conj.pi_index
    # limit operator on the reference: -k49 lam^2 + correction block
    corr = lowrank_diagonal(conj.correction_comm)[k]
    assert np.isclose(ops.d_limit[k] + lowrank_diagonal(ops.correction)[k],
                      -ops.k49 * p.lam ** 2 + corr)
    # at zero coupling the reference block vanishes: dressing is necessary
    p0 = p.with_(lam=0.0)
    liou0 = assemble_liouvillian(p0, liou.trunc)
    conj0 = assemble_conjugates(liou0)
    ops0 = assemble_bound_operators(liou0, conj0, liou0.compensation(0.0))
    assert ops0.d_limit[k] + lowrank_diagonal(ops0.correction)[k] == 0.0


def test_woodbury_reduction_matches_dense(chain_setup):
    p, liou, conj = chain_setup
    ops = assemble_bound_operators(liou, conj, liou.compensation(p.lam))
    k, corr = conj.pi_index, ops.correction
    dense = np.diag(ops.d_limit) + corr.u @ corr.c @ corr.u.conj().T
    keep = np.arange(len(dense)) != k
    floor = float(np.linalg.eigvalsh(dense[np.ix_(keep, keep)])[0])
    pencil = FeshbachPencil(dense, np.eye(len(dense))[:, [k]])
    for m in (0.0, 0.05, 0.1, 0.15, 0.2, 0.24):
        got = feshbach_woodbury(ops.d_limit, corr, k, m, floor)
        want = pencil.reduce(m)
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


def _count_sigma_builds(monkeypatch) -> list:
    """The truncations whose sigma^2 gets built, one entry per build."""
    built, build = [], Truncation.sigma_sq.func

    def counted(trunc):
        built.append(trunc)
        return build(trunc)

    monkeypatch.setattr(Truncation.sigma_sq, "func", counted)
    return built


def test_probe_and_first_commutator_built_once_per_truncation(monkeypatch):
    # the k49 probe is the compensation constant at lam = 1e-4 (off the
    # lam grid here), I_1 the order-1 interaction commutator.  At n_max = 1
    # the probe is the closed form on sigma^2, built once per truncation;
    # at n_max = 2 it is ARPACK's
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
    built = _count_sigma_builds(monkeypatch)
    p = ModelParams(n_e=4, n_u=4, n_max=1, e_max=4.0, u_max=4.0)
    scan_lambda0(p, (1e-3, 1e-2, 1e-1), betas=(0.5, 1.0, 2.0))
    assert calls == {"probe": 0, "i1": 3}
    assert len(built) == len(set(built)) == 3
    calls.update(probe=0, i1=0)
    verify_bound_chain(p, lam=1e-2)
    assert calls == {"probe": 0, "i1": 1} and len(built) == 4

    built.clear()
    calls.update(probe=0, i1=0)
    scan_lambda0(p.with_(n_max=2), (1e-3, 1e-2, 1e-1), betas=(0.5, 1.0, 2.0))
    assert calls == {"probe": 3, "i1": 3}
    calls.update(probe=0, i1=0)
    verify_bound_chain(p.with_(n_max=2), lam=1e-2)
    assert calls == {"probe": 1, "i1": 1} and built == []


def test_domination_step_reports_its_exact_zero(tmp_path):
    # at n_e = 3, n_u = 2, n_max = 1, I_1 vanishes and k49 = 0, so the
    # domination form is N - 0.9 Pbar: 0 on the vacuum, 0.1 above it
    main(["bound-chain", "--out", str(tmp_path), "model.n_e=3",
          "model.n_u=2", "model.n_max=1"])
    rep = json.loads((tmp_path / "bound-chain.json").read_text())
    assert rep["stats"]["k49"] == 0.0
    step = next(c for c in rep["checks"] if c["check"]
                == "commutator dominates the dressed bound operator")
    assert step["value"] == 0.0


def test_chain_solves_matrix_free_three_times(monkeypatch):
    # at n_max = 2 the k49 probe, k at the run coupling and the domination
    # step each run one eigensolve on the factored I_1 (that no composite
    # matrix is built is test_cli's guard); at n_max = 1 the closed form on
    # sigma^2 runs none
    calls = {"min_eig": 0}
    solve = operators.min_eig_hermitian

    def counted_solve(*args, **kwargs):
        calls["min_eig"] += 1
        return solve(*args, **kwargs)

    for module in (commutators, operators):
        monkeypatch.setattr(module, "min_eig_hermitian", counted_solve)
    built = _count_sigma_builds(monkeypatch)
    p = ModelParams(n_e=4, n_u=4, n_max=1, e_max=4.0, u_max=4.0)
    verify_bound_chain(p, lam=1e-2)
    assert calls == {"min_eig": 0} and len(built) == 1
    verify_bound_chain(p.with_(n_max=2), lam=1e-2)
    assert calls == {"min_eig": 3} and len(built) == 1


def test_chain_eigensolves_run_in_float64(monkeypatch):
    # at n_max = 2 the k49 probe, k at the run coupling and the domination
    # step hand ARPACK real symmetric operators; n_max = 1 hands it none
    import scipy.sparse.linalg as spla
    real, dtypes = spla.eigsh, []

    def recorded(op, *args, **kwargs):
        dtypes.append(op.dtype)
        return real(op, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", recorded)
    built = _count_sigma_builds(monkeypatch)
    p = ModelParams(n_e=4, n_u=4, n_max=1, e_max=4.0, u_max=4.0)
    verify_bound_chain(p, lam=1e-2)
    assert dtypes == [] and len(built) == 1
    verify_bound_chain(p.with_(n_max=2), lam=1e-2)
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
    res = FeshbachPencil(mat, np.eye(2)[:, [0]]).reduce(m, cond_tol=1e-6)
    assert abs(res.f_value - (a - abs(b) ** 2 / (d - m))) < 1e-10


def test_real_coupling_runs_the_chain_in_float64():
    # at the chain workload's truncation and run parameters the rank-4
    # correction, the dressed diagonals and the factors of i[I, N] are
    # float64, and the same factors cast to complex128 give the same row
    # sum and inertia bracket, bit for bit
    from thermion.linalg import min_eig_diag_plus_lowrank
    p = ModelParams(n_e=24, n_u=24, n_max=1)
    run = p.with_(lam=1.6902591656479554e-07, theta=5.941068708213811e-05,
                  epsilon=3.380518331295911e-07)
    liou = assemble_liouvillian(run)
    conj = assemble_conjugates(liou)
    ops = assemble_bound_operators(liou, conj, k49=50631.637715549485)
    corr = ops.correction
    assert corr is conj.correction_comm and liou.basis.dim == 15625
    assert corr.u.dtype == corr.c.dtype == np.float64
    assert ops.d_scaled.dtype == ops.d_limit.dtype == np.float64
    number_comm = liou.number_comm
    assert number_comm.phase == 1j and number_comm.dtype == np.float64
    assert all(m.dtype == np.float64 for term in number_comm.terms
               for m in term if m is not None)
    cast = LowRank(corr.u.astype(complex), corr.c.astype(complex))
    assert feshbach._max_abs_row_sum(ops.d_scaled, cast) \
        == feshbach._max_abs_row_sum(ops.d_scaled, corr)
    assert min_eig_diag_plus_lowrank(ops.d_limit, cast) \
        == min_eig_diag_plus_lowrank(ops.d_limit, corr)


def _row_sum_instance(rng, real, d_on, d_off):
    """diag(d) + U C U* with U small on the rows of d_on and zero on the
    rows of d_off."""
    n, r = len(d_on), 4
    u = np.zeros((n + len(d_off), r), float if real else complex)
    u[:n] = 0.01 * rng.standard_normal((n, r))
    if not real:
        u[:n] += 0.01j * rng.standard_normal((n, r))
    a = rng.standard_normal((r, r)) + (0 if real else
                                       1j * rng.standard_normal((r, r)))
    return np.r_[d_on, d_off], LowRank(u, a + a.conj().T)


@pytest.mark.parametrize("real", [True, False])
def test_row_sum_matches_all_rows(real):
    # the triangle bound settles every row (|d| off the support is largest),
    # some (rows with |d| near or above 3 stay open), or none (0.1 off the
    # support, or no row off it): 150 rows, three blocks
    rng = np.random.default_rng(4)
    for d_on, d_off in ((rng.uniform(-1, 1, 150), np.r_[3.0, -2.0, 1.0]),
                        (rng.uniform(-5, 5, 150), np.r_[3.0, -2.0]),
                        (rng.uniform(-1, 1, 150), np.r_[0.1]),
                        (rng.uniform(-1, 1, 150), np.empty(0))):
        d, lr = _row_sum_instance(rng, real, d_on, d_off)
        assert feshbach._max_abs_row_sum(d, lr) \
            == all_rows_max_abs_row_sum(d, lr)
    settled, lr = _row_sum_instance(rng, real, rng.uniform(-1, 1, 150),
                                    np.r_[3.0, -2.0])
    assert feshbach._max_abs_row_sum(settled, lr) == 3.0


def test_chain_workload_brackets_take_few_evaluations(monkeypatch):
    # each inertia bracket of the chain workload (bound-chain at n_e = n_u =
    # 24, n_max = 1) takes at most 20 eigvalsh evaluations, counting the
    # candidate's steps; plain bisection took 53 and 109 (32 and 61 counts)
    calls, per = [0], []
    eigvalsh, bracket = np.linalg.eigvalsh, feshbach.min_eig_diag_plus_lowrank

    def counted(*args, **kwargs):
        calls[0] += 1
        return eigvalsh(*args, **kwargs)

    def tallied(d, lr):
        calls[0] = 0
        out = bracket(d, lr)
        per.append(calls[0])
        return out

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(feshbach, "min_eig_diag_plus_lowrank", tallied)
    verify_bound_chain(ModelParams(n_e=24, n_u=24, n_max=1))
    assert len(per) == 2 and max(per) <= 20


def test_lambda0_scan_brackets_take_few_evaluations(monkeypatch):
    # each of the 42 inertia brackets of lambda0-scan at its defaults takes
    # at most 20 eigvalsh evaluations; the four at the larger couplings,
    # whose near pivots are over the block's cap of 64, once took 81 to 91
    calls, per = [0], []
    eigvalsh, bracket = np.linalg.eigvalsh, feshbach.min_eig_diag_plus_lowrank

    def counted(*args, **kwargs):
        calls[0] += 1
        return eigvalsh(*args, **kwargs)

    def tallied(d, lr):
        calls[0] = 0
        out = bracket(d, lr)
        per.append(calls[0])
        return out

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(feshbach, "min_eig_diag_plus_lowrank", tallied)
    run(ExperimentConfig(kind="lambda0-scan"))
    assert len(per) == 42 and max(per) <= 20
