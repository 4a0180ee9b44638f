import numpy as np
import pytest
import scipy.sparse as sp

from csr_oracle import (assemble_commutator_set, commutator, conj_full,
                        gjn_constants, gjn_rows, kato_constant, liouvillian,
                        smooth_test_states, sparse_hermiticity_defect,
                        to_csr)
from thermion.commutators import (closed_form_commutator,
                                  estimate_small_coupling_bound, gjn_check,
                                  interaction_commutator,
                                  kato_half_power_bound,
                                  small_coupling_stability)
from thermion.experiments import ExperimentConfig, run
from thermion.lattice import build_bases
from thermion.linalg import DiagPlus, min_eig_hermitian, operator_norm
from thermion.operators import (Truncation, assemble_conjugates,
                                assemble_liouvillian)
from thermion.params import ModelParams


@pytest.fixture(scope="module")
def setup():
    p = ModelParams(n_e=8, n_u=16, n_max=1, e_max=4.0, u_max=4.0, lam=0.1)
    liou = assemble_liouvillian(p)
    conj = assemble_conjugates(liou)
    return p, liou, conj


def test_self_commutator_vanishes(setup):
    p, liou, conj = setup
    c = commutator(liouvillian(liou), liouvillian(liou))
    assert abs(c).max() < 1e-12


def test_diagonal_offdiagonal_closed_form():
    d = sp.diags(np.array([1.0, 3.0, -2.0], dtype=complex)).tocsr()
    e = sp.csr_matrix((np.array([1.0 + 0j]), (np.array([0]), np.array([2]))),
                      shape=(3, 3))
    e = (e + e.conj().T).tocsr()
    c = commutator(d, e)
    # i [diag, |0><2|-part]: entries i (d_j - d_k) e_{jk}
    assert np.isclose(c[0, 2], 1j * (1.0 - (-2.0)))
    assert np.isclose(c[2, 0], 1j * ((-2.0) - 1.0))


def test_commutator_rejects_shape_mismatch(setup):
    p, liou, conj = setup
    with pytest.raises(ValueError):
        commutator(liouvillian(liou), sp.identity(3, dtype=complex))


def test_commutator_set_hermitian_and_converging(setup):
    p, liou, conj = setup
    cs = assemble_commutator_set(liou)
    for op in (cs.c1, cs.c2, cs.c3, cs.c1_direct, cs.c2_direct,
               cs.c3_direct):
        assert sparse_hermiticity_defect(op) == 0.0
    prev = np.array(cs.discrepancies)
    p2 = p.with_(n_e=16, n_u=32)
    liou2 = assemble_liouvillian(p2)
    cs2 = assemble_commutator_set(liou2)
    orders = np.log2(prev / np.array(cs2.discrepancies))
    assert np.all(orders >= 1.5), orders


def test_c1_at_zero_coupling_matches_free_commutator(setup):
    p, liou, conj = setup
    p0 = p.with_(lam=0.0)
    liou0 = assemble_liouvillian(p0, liou.trunc)
    cs = assemble_commutator_set(liou0)
    # closed form: profile on both factors plus the number operator
    xi = np.concatenate(([0.0],
                         liou0.basis.left.grid.nodes
                         / (p.a + liou0.basis.left.grid.nodes)))
    dp = liou0.basis.left.dim
    ones = np.ones(dp)
    onef = np.ones(liou0.basis.fock.dim)
    diag = (np.kron(onef, np.kron(ones, xi))
            + np.kron(onef, np.kron(xi, ones)) + liou0.number)
    assert abs(cs.c1 - sp.diags(diag.astype(complex))).max() < 1e-12
    # and the direct commutator approaches it on smooth states
    psi = smooth_test_states(liou0.basis, 1)[0]
    assert np.linalg.norm((cs.c1 - cs.c1_direct) @ psi) < 0.7


def test_large_scale_limit_kills_particle_profile(setup):
    p, liou, conj = setup
    pa = p.with_(a=1e6)
    lioua = assemble_liouvillian(pa)
    cs = assemble_commutator_set(lioua)
    # xi(e/a) -> e/a -> 0: c1 reduces to N + lam I1 up to O(1/a)
    i1 = to_csr(interaction_commutator(lioua.trunc, 1))
    rest = cs.c1 - sp.diags(lioua.number.astype(complex)) - pa.lam * i1
    assert operator_norm(rest) < 1e-5


def test_field_derivative_commutator_brute_force(setup):
    # i[phi(f), A_f] = phi(D f) exactly on the truncation
    p, liou, conj = setup
    from thermion.operators import assemble_field_ops, field_op
    basis = liou.basis
    fops = assemble_field_ops(basis.fock)
    f = liou.vectors.direct
    phi = field_op(basis.fock, f)
    lhs = 1j * (phi @ fops.translation_gen - fops.translation_gen @ phi)
    rhs = field_op(basis.fock, fops.mode_derivative @ f)
    assert abs(lhs - rhs).max() < 1e-12


def test_number_commutes_with_conjugate_operator(setup):
    p, liou, conj = setup
    n_op = sp.diags(liou.number.astype(complex))
    a_full = conj_full(liou.trunc)
    assert abs(n_op @ a_full - a_full @ n_op).max() == 0.0


def test_gjn_identity_case(setup):
    p, liou, conj = setup
    lam_diag = liou.comparison
    rep = gjn_check(DiagPlus(lam_diag), lam_diag)
    assert np.isclose(rep.k_norm, 1.0)
    assert rep.k_form < 1e-10


def test_gjn_number_dominated(setup):
    p, liou, conj = setup
    rep = gjn_check(DiagPlus(liou.number), liou.comparison)
    assert rep.k_norm <= 1.0 + 1e-12
    assert rep.k_form < 1e-10


def test_gjn_rejects_small_comparison(setup):
    p, liou, conj = setup
    with pytest.raises(ValueError):
        gjn_check(liou.operator, 0.2 * liou.comparison)


def test_gjn_table_matches_csr_oracle():
    # every row of the gjn report against the CSR computation; the
    # diagonal commutes with the comparison exactly, so the number
    # operator's form constant is exactly zero
    from thermion.experiments import ExperimentConfig, run
    p = ModelParams(n_e=6, n_u=6, n_max=1, lam=0.1)
    rows = run(ExperimentConfig(kind="gjn", params=p)).tables[
        "gjn_constants"]["rows"]
    want = gjn_rows(assemble_liouvillian(p))
    assert [r[0] for r in rows] == [w[0] for w in want] and len(rows) == 8
    for got, ref in zip(rows, want):
        for g, r in zip(got[1:], ref[1:]):
            assert (np.isnan(g) and np.isnan(r)) or abs(g - r) <= 1e-12 * r
    assert rows[1][0] == "number" and rows[1][2] == 0.0


@pytest.mark.parametrize("complex_coupling", [False, True])
def test_gjn_constants_match_csr_oracle(complex_coupling):
    # a real Y runs in float64; a Hermitian coupling g + i S (S real
    # antisymmetric) keeps the complex path
    from thermion.operators import KronSum, interaction_like
    trunc = Truncation(ModelParams(n_e=6, n_u=6, n_max=1, e_max=4.0,
                                   u_max=4.0))
    g = trunc.coupling
    if complex_coupling:
        s = np.random.default_rng(2).standard_normal(g.shape)
        g = g + 0.3j * (s - s.T)
    x = KronSum(trunc.basis, interaction_like(
        trunc.basis, g, 1.0, trunc.vectors.direct, trunc.vectors.image))
    op = DiagPlus(trunc.number - 0.5 * (1.0 - trunc.vacuum_proj), 0.1, x)
    assert op.dtype == (np.complex128 if complex_coupling else np.float64)
    rep = gjn_check(op, trunc.comparison)
    ref = gjn_constants(to_csr(op), trunc.comparison)
    assert abs(rep.k_norm - ref[0]) <= 1e-12 * ref[0]
    assert abs(rep.k_form - ref[1]) <= 1e-12 * ref[1]
    k = kato_half_power_bound(op, trunc.number, trunc.vacuum_proj)
    k_ref = kato_constant(to_csr(op), trunc.number, trunc.vacuum_proj)
    assert abs(k - k_ref) <= 1e-12 * k_ref


def test_kato_bound_for_number_commutator(setup):
    p, liou, conj = setup
    # lam [I, N]: i[L, N] = lam i[I, N] without its phase, which changes
    # no norm, as the gjn pipeline passes it
    d1 = DiagPlus(np.zeros(liou.basis.dim), p.lam, liou.number_comm)
    k1 = kato_half_power_bound(d1, liou.number, liou.vacuum_proj)
    assert np.isfinite(k1)
    p2 = p.with_(n_e=16, n_u=32)
    liou2 = assemble_liouvillian(p2)
    d2 = DiagPlus(np.zeros(liou2.basis.dim), p2.lam, liou2.number_comm)
    k2 = kato_half_power_bound(d2, liou2.number, liou2.vacuum_proj)
    # uniformly bounded under refinement (allow mild growth)
    assert k2 < 1.5 * k1 + 1e-9


def test_c3_kato_bound_stable_under_refinement():
    """The third-commutator relative bound has a finite continuum value.

    Both ingredient norms (the thrice-commuted particle coupling and the
    thrice-differentiated glued smearing) are measured on a joint ladder
    where the cutoffs grow with resolution so the exponentially small
    coupling tails stay below what three discrete derivatives can
    amplify; the composite constant is checked finite at assembly scale.
    """
    from thermion.lattice import FieldGrid
    from thermion.operators import (assemble_particle_ops,
                                    central_difference, coupling_matrix,
                                    glue_tau_beta)
    from thermion.commutators import _iterated_matrix_ad

    ad3 = []
    for ne, cut in ((64, 14.0), (128, 16.0), (256, 18.0)):
        p = ModelParams(n_e=ne, n_u=4, n_max=1, e_max=cut, u_max=10.0)
        b = build_bases(p)
        part = assemble_particle_ops(p, b)
        g = coupling_matrix(p, b)
        ad3.append(np.linalg.norm(
            _iterated_matrix_ad(g, part.flow_gen, 3), 2))
    assert abs(ad3[2] - ad3[1]) < abs(ad3[1] - ad3[0])

    d3n = []
    for nu, cut in ((256, 14.0), (512, 16.0), (1024, 18.0)):
        grid = FieldGrid(cut, nu)
        f1 = glue_tau_beta(
            lambda u: np.asarray(u) ** 2.5 * np.exp(-np.asarray(u)),
            grid, 1.0)
        d = central_difference(grid.nodes, grid.du)
        d3n.append(np.linalg.norm(d @ (d @ (d @ f1))))
    assert abs(d3n[2] - d3n[1]) < abs(d3n[1] - d3n[0])

    p = ModelParams(n_e=12, n_u=24, n_max=1, e_max=12.0, u_max=12.0,
                    lam=0.1)
    liou = assemble_liouvillian(p)
    c3 = closed_form_commutator(liou, 3)
    k = kato_half_power_bound(c3, liou.number, liou.vacuum_proj)
    assert np.isfinite(k)


@pytest.mark.parametrize("order", [0, 1])
def test_boson_parity_anticommutes_with_interaction_terms(order):
    # every Fock factor is a field operator, which moves N by exactly one,
    # so P X P = -X bit for bit with P = (-1)^N: the +lam and -lam forms of
    # the compensation bound have one spectrum, and one solve suffices
    trunc = Truncation(ModelParams(n_e=4, n_u=6, n_max=2, e_max=3.0,
                                   u_max=3.0))
    x = trunc.interaction if order == 0 else trunc.commutator(1)
    parity = (-1.0) ** trunc.number
    csr = to_csr(x)
    assert abs(sp.diags(parity) @ csr @ sp.diags(parity) + csr).max() == 0.0
    rng = np.random.default_rng(5)
    for _ in range(3):
        v = rng.standard_normal(trunc.basis.dim) \
            + 1j * rng.standard_normal(trunc.basis.dim)
        assert np.array_equal(parity * (x @ (parity * v)), -(x @ v))


def test_small_coupling_bound_zero_cases(setup):
    p, liou, conj = setup
    i1 = to_csr(liou.trunc.commutator(1))
    assert estimate_small_coupling_bound(p.with_(lam=0.0), liou, i1) == 0.0
    zero = sp.csr_matrix(liou.operator.shape, dtype=complex)
    assert estimate_small_coupling_bound(p, liou, zero) == 0.0


def test_small_coupling_bound_is_valid(setup):
    p, liou, conj = setup
    i1 = to_csr(liou.trunc.commutator(1))
    k = estimate_small_coupling_bound(p, liou, i1)
    comp = sp.diags((0.1 * liou.number * (1 - liou.vacuum_proj)
                     + k * p.lam ** 2).astype(complex))
    for sign in (+1, -1):
        low = min_eig_hermitian((comp + sign * p.lam * i1
                                 ).tocsr() + 0.0 * comp)
        assert low >= -1e-9


def test_small_coupling_bound_grid_stability():
    # the frequency cutoff must sit beyond the glued coupling's support or
    # the hard truncation seeds a derivative spike at the edge
    ks = {}
    for nu in (32, 64):
        p = ModelParams(n_e=8, n_u=nu, n_max=1, e_max=4.0, u_max=10.0,
                        lam=0.1, a=0.2)
        trunc = Truncation(p)
        i1 = to_csr(trunc.commutator(1))
        ks[nu] = estimate_small_coupling_bound(p, trunc, i1)
    assert abs(ks[64] - ks[32]) / ks[32] < 0.1


def test_small_coupling_stability_across_scales(setup):
    p, liou, conj = setup
    rep = small_coupling_stability(p)
    assert rep.passed, rep
    # gjn reports the check
    gjn = run(ExperimentConfig(kind="gjn", params=p))
    assert [c for c in gjn.checks if c.check == rep.check] == [rep]
