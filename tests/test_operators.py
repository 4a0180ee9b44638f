import numpy as np
import pytest
import scipy.sparse as sp

from csr_oracle import (conj_full, liouvillian, lowrank_diagonal,
                        number_comm, sparse_hermiticity_defect, to_csr)
from thermion.lattice import FieldGrid, FockBasis, build_bases
from thermion.linalg import DiagPlus, operator_norm
from thermion.operators import (LiouvillianAction, LowRank, Truncation,
                                apply_j, assemble_conjugates,
                                assemble_field_ops, assemble_liouvillian,
                                assemble_particle_ops, check_j,
                                coupling_matrix, field_op, glue_tau_beta,
                                hermiticity_defect, hermitize, lowering_op,
                                reflect_conjugate, tau_beta_values,
                                thermal_weight)
from thermion.params import FormFactor, Kernel, ModelParams, PowerExpProfile


@pytest.fixture(scope="module")
def small():
    p = ModelParams(n_e=4, n_u=8, n_max=2, e_max=4.0, u_max=4.0, lam=0.1)
    return p, build_bases(p)


def test_particle_hamiltonian_diagonal():
    p = ModelParams(n_e=2, n_u=4, e_max=2.0, bound_energy=-1.0)
    b = build_bases(p)
    ops = assemble_particle_ops(p, b)
    assert np.allclose(ops.h, [-1.0, 0.5, 1.5])


def test_bound_plus_continuum_is_identity(small):
    p, b = small
    ops = assemble_particle_ops(p, b)
    bound = np.eye(len(ops.h))[0]
    assert np.allclose(bound + ops.continuum_proj, 1.0)


def test_profile_diagonal_value():
    # xi(e) = e/(1+e), a = 0.5 at node e = 0.5: xi(1) = 1/2
    p = ModelParams(n_e=2, n_u=4, e_max=2.0, a=0.5)
    b = build_bases(p)
    ops = assemble_particle_ops(p, b)
    assert np.isclose(ops.xi_of_h[1], 0.5)
    assert ops.xi_of_h[0] == 0.0


def test_tau_beta_hand_value():
    # beta=1, u=1, f(1)=1: sqrt(1/(1-e^{-1})) * sqrt(1) = 1.25777...
    g = FieldGrid(2.0, 10)   # node set includes u = 1.0 exactly
    vals = tau_beta_values(np.ones(5), g, beta=1.0)
    k = int(np.argmin(np.abs(g.nodes - 1.0)))
    assert np.isclose(g.nodes[k], 1.0)
    assert np.isclose(vals[k], 1.2577656169853792)
    # negative branch at u = -1: -sqrt(1) * sqrt(1/(e-1))
    km = int(np.argmin(np.abs(g.nodes + 1.0)))
    assert np.isclose(vals[km], -np.sqrt(1.0 / (np.e - 1.0)))


def test_tau_beta_zero_temperature_limit():
    g = FieldGrid(4.0, 16)
    beta = 1e3
    vals = tau_beta_values(lambda u: np.exp(-u), g, beta=beta)
    half = g.n_u // 2
    pos = g.positive_nodes
    # negative half bounded by the exponential tilt of the positive half,
    # i.e. numerically zero at this temperature
    assert np.all(np.abs(vals[:half][::-1])
                  <= np.exp(-beta * pos / 2) * np.abs(vals[half:]) + 1e-300)
    assert np.max(np.abs(vals[:half])) < 1e-50
    assert np.allclose(vals[half:], pos * np.exp(-pos))


def test_tau_beta_preserves_symplectic_form():
    # Im <tau f, tau g>_{du} equals Im <f, g>_{u^2 du} nodewise
    g = FieldGrid(6.0, 32)
    rng = np.random.default_rng(0)
    pos = g.positive_nodes
    for _ in range(5):
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        tf = glue_tau_beta(f, g, 1.3)
        th = glue_tau_beta(h, g, 1.3)
        lhs = np.imag(np.vdot(tf, th))
        rhs = np.imag(np.sum(np.conj(f) * h * pos ** 2) * g.weight)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_modular_image_is_exponential_tilt():
    # conj-reflection of the glued vector equals -exp(-beta u/2) times it
    g = FieldGrid(5.0, 20)
    f = glue_tau_beta(lambda u: u ** 2 * np.exp(-u), g, beta=0.7)
    fj = reflect_conjugate(f, g)
    assert np.allclose(fj, -np.exp(-0.7 * g.nodes / 2) * f, atol=1e-12)


def test_thermal_weight_positive_and_stable():
    u = np.array([-50.0, -1.0, -1e-8, 1e-8, 1.0, 50.0])
    w = thermal_weight(u, beta=2.0)
    assert np.all(w[np.abs(u) > 1e-6] > 0)
    assert np.isclose(w[-1], 50.0)


def test_field_op_on_vacuum(small):
    p, b = small
    fb = b.fock
    f = np.arange(1.0, fb.grid.n_u + 1)
    phi = field_op(fb, f)
    vac = np.zeros(fb.dim)
    vac[0] = 1.0
    one = phi @ vac
    for idx, state in enumerate(fb.states):
        if sum(state) == 1:
            k = int(np.flatnonzero(state)[0])
            assert np.isclose(one[idx], f[k] / np.sqrt(2))
        elif idx != 0:
            assert one[idx] == 0.0


def test_number_and_frequency_diagonals(small):
    p, b = small
    fops = assemble_field_ops(b.fock)
    assert fops.number[0] == 0
    for idx, state in enumerate(b.fock.states):
        if sum(state) == 1:
            k = int(np.flatnonzero(state)[0])
            assert np.isclose(fops.dgamma_u[idx], b.fock.grid.nodes[k])


def test_ccr_on_one_particle_sector(small):
    p, b = small
    fb = b.fock
    rng = np.random.default_rng(1)
    f = rng.standard_normal(fb.grid.n_u) + 1j * rng.standard_normal(fb.grid.n_u)
    g = rng.standard_normal(fb.grid.n_u) + 1j * rng.standard_normal(fb.grid.n_u)
    a_f = lowering_op(fb, f)
    c_g = lowering_op(fb, g).conj().T
    vac = np.zeros(fb.dim)
    vac[0] = 1.0
    # a(f) a*(g) Omega = <f, g> Omega
    out = a_f @ (c_g @ vac)
    assert abs(out[0] - np.vdot(f, g)) < 1e-12
    # [a(f), a*(g)] = <f,g> on the zero/one-particle block
    comm = (a_f @ c_g - c_g @ a_f).toarray()
    low = [i for i, s in enumerate(fb.states) if sum(s) <= 1]
    block = comm[np.ix_(low, low)]
    assert np.allclose(block, np.vdot(f, g) * np.eye(len(low)), atol=1e-12)


def test_coupling_matrix_hermitian(small):
    p, b = small
    g = coupling_matrix(p, b)
    assert hermiticity_defect(g) == 0.0


def test_coupling_matrix_rejects_asymmetric_kernel(small):
    p, b = small

    class Skew(Kernel):
        def k(self, e, ep, d1=0, d2=0):
            return np.asarray(e) - np.asarray(ep) + 1.0

    bad = p.with_(kernel=Skew(gamma=PowerExpProfile(3.0)))
    with pytest.raises(ValueError, match="Hermitian"):
        coupling_matrix(bad, b)


def test_liouvillian_annihilates_reference(small):
    p, b = small
    liou = assemble_liouvillian(p)
    k = b.vacuum_bound_index()
    assert liou.l0_diag[k] == 0.0
    e = np.zeros(b.dim)
    e[k] = 1.0
    # interaction moves the reference into the one-boson sector only
    iv = liou.interaction @ e
    assert iv[k] == 0.0


def test_zero_coupling_reduces_to_free(small):
    p, b = small
    liou = assemble_liouvillian(p.with_(lam=0.0))
    diff = liouvillian(liou) - sp.diags(liou.l0_diag.astype(complex))
    assert abs(diff).max() == 0.0


def test_interaction_against_dense_oracle():
    # brute-force dense assembly on a tiny grid
    p = ModelParams(n_e=2, n_u=4, n_max=1, e_max=2.0, u_max=2.0, lam=0.3)
    b = build_bases(p)
    liou = assemble_liouvillian(p)
    g = coupling_matrix(p, b)
    phi_d = field_op(b.fock, liou.vectors.direct).toarray()
    phi_i = field_op(b.fock, liou.vectors.image).toarray()
    dp = b.left.dim
    dense = (np.kron(phi_d, np.kron(np.eye(dp), g))
             - np.kron(phi_i, np.kron(np.conj(g), np.eye(dp))))
    assert np.allclose(to_csr(liou.interaction).toarray(), dense,
                       atol=1e-13)


def test_interaction_reference_matrix_elements():
    # <(e_i, bound, 1_k)| I |reference> = Gamma(e_i) sqrt(de) f1(k)/sqrt(2)
    p = ModelParams(n_e=2, n_u=4, n_max=1, e_max=2.0, u_max=2.0)
    b = build_bases(p)
    liou = assemble_liouvillian(p)
    e = np.zeros(b.dim)
    e[b.vacuum_bound_index()] = 1.0
    iv = liou.interaction @ e
    de = b.left.grid.weight
    gam = p.kernel.gamma(b.left.grid.nodes)
    for i in (1, 2):
        for k in range(p.n_u):
            fock_idx = next(idx for idx, s in enumerate(b.fock.states)
                            if sum(s) == 1 and s[k] == 1)
            got = iv[b.flatten(i, 0, fock_idx)]
            want = gam[i - 1] * np.sqrt(de) * liou.vectors.direct[k] / np.sqrt(2)
            assert abs(got - want) < 1e-12


def test_hermitian_flags_bit_exact(small):
    p, b = small
    liou = assemble_liouvillian(p)
    conj = assemble_conjugates(liou)
    for op in (to_csr(liou.interaction), liouvillian(liou), number_comm(liou),
               conj_full(liou.trunc), to_csr(conj.correction),
               to_csr(conj.correction_comm)):
        assert sparse_hermiticity_defect(op) == 0.0


def test_correction_vanishes_at_zero_coupling(small):
    p, b = small
    liou = assemble_liouvillian(p.with_(lam=0.0))
    conj = assemble_conjugates(liou)
    corr = to_csr(conj.correction)
    assert corr.nnz == 0 or abs(corr).max() == 0.0


def test_correction_range_inside_one_boson(small):
    p, b = small
    liou = assemble_liouvillian(p)
    conj = assemble_conjugates(liou)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
    out = conj.correction @ v
    nums = np.repeat([sum(s) for s in b.fock.states],
                     b.left.dim * b.right.dim)
    assert np.linalg.norm(out[nums > 1]) == 0.0


def test_correction_pi_block_nonnegative(small):
    p, b = small
    liou = assemble_liouvillian(p)
    conj = assemble_conjugates(liou)
    k = conj.pi_index
    val = lowrank_diagonal(conj.correction_comm)[k]
    assert np.imag(val) == 0.0
    assert np.real(val) >= 0.0
    # and equals 2 theta lam^2 <I e, Rbar^2 I e>
    e = np.zeros(b.dim)
    e[k] = 1.0
    iv = liou.interaction @ e
    r2bar = 1.0 / (liou.l0_diag ** 2 + p.epsilon ** 2)
    r2bar[k] = 0.0
    expect = 2 * p.theta * p.lam ** 2 * np.real(np.vdot(iv, r2bar * iv))
    assert np.isclose(np.real(val), expect)


def _sparse_outer(u, v):
    """|u><v| as CSR over the nonzero entries (the sparse form the
    corrections had before they were kept factored)."""
    un, vn = np.flatnonzero(u), np.flatnonzero(v)
    data = (u[un][:, None] * np.conj(v[vn])[None, :]).ravel()
    return sp.csr_matrix((data, (np.repeat(un, len(vn)),
                                 np.tile(vn, len(un)))),
                         shape=(len(u), len(v)))


def test_lowrank_corrections_match_outer_product_form(small):
    p, b = small
    liou = assemble_liouvillian(p)
    conj = assemble_conjugates(liou)
    k = conj.pi_index
    e = np.zeros(b.dim, dtype=complex)
    e[k] = 1.0
    r2bar = 1.0 / (liou.l0_diag ** 2 + p.epsilon ** 2)
    r2bar[k] = 0.0
    x = r2bar * (liou.interaction @ e)
    l_e = p.lam * (liou.interaction @ e)
    l_x = liou.l0_diag * x + p.lam * (liou.interaction @ x)
    th_lam = p.theta * p.lam
    old = {"correction": hermitize(1j * th_lam * (
               _sparse_outer(e, x) - _sparse_outer(x, e))),
           "correction_comm": hermitize(-th_lam * (
               _sparse_outer(l_e, x) + _sparse_outer(x, l_e)
               - _sparse_outer(l_x, e) - _sparse_outer(e, l_x)))}
    rng = np.random.default_rng(5)
    v = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
    for name, ref in old.items():
        lr = getattr(conj, name)
        new = to_csr(lr)
        assert sparse_hermiticity_defect(new) == 0.0
        assert new.nnz == ref.nnz
        want = ref.toarray()
        assert np.all(np.abs(new.toarray() - want) <= 1e-15 * np.abs(want))
        assert np.all(np.abs(lowrank_diagonal(lr) - np.real(ref.diagonal()))
                      <= 1e-15 * np.abs(ref.diagonal()))
        assert np.linalg.norm(lr @ v - ref @ v) <= 1e-14 * np.linalg.norm(
            ref @ v)
        assert lr.norm() == pytest.approx(operator_norm(new), rel=1e-12)


def test_conjugates_reject_zero_epsilon(small):
    p, b = small
    with pytest.raises(ValueError):
        ModelParams(epsilon=0.0)


def test_j_fixes_reference_and_squares_to_identity(small):
    p, b = small
    conj = apply_j(b)
    e = np.zeros(b.dim, dtype=complex)
    e[b.vacuum_bound_index()] = 1.0
    assert np.array_equal(conj.apply(e), e)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        assert np.linalg.norm(conj.apply(conj.apply(v)) - v) < 1e-14


def test_j_anticommutes_with_liouvillian(small):
    p, b = small
    trunc = Truncation(p)
    for lam in (0.0, 0.1):
        liou = assemble_liouvillian(p.with_(lam=lam), trunc)
        rep = check_j(liou)
        assert rep.passed, rep


def test_number_commutator_structure(small):
    p, b = small
    liou = assemble_liouvillian(p)
    n_op = sp.diags(liou.number.astype(complex))
    l_csr = liouvillian(liou)
    direct = 1j * (l_csr @ n_op - n_op @ l_csr)
    # the factored i[L, N] = lam i[I, N], the i held as number_comm's phase
    factored = to_csr(DiagPlus(np.zeros(b.dim),
                               p.lam * liou.number_comm.phase,
                               liou.number_comm))
    assert abs(direct - factored).max() < 1e-12
    # gjn's real lam [I, N] applies its adjoint -lam [I, N] (svds reads it)
    x = DiagPlus(np.zeros(b.dim), p.lam, liou.number_comm)
    v = np.random.default_rng(3).standard_normal(b.dim)
    want = p.lam * (to_csr(liou.number_comm).conj().T @ v)
    assert x.dtype == np.float64
    assert np.linalg.norm(x.rmatvec(v) - want) <= 1e-14 * np.linalg.norm(want)


def test_matrix_free_action_matches_assembly(small):
    p, b = small
    liou = assemble_liouvillian(p)
    act = LiouvillianAction(liou.trunc, p)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
    assert np.linalg.norm(act.matvec(v) - liouvillian(liou) @ v) < 1e-11
    # the factored commutators I_1..I_3 against their assembled CSR
    for order in (1, 2, 3):
        i_n = liou.trunc.commutator(order)
        want = to_csr(i_n) @ v
        assert np.linalg.norm(i_n.matvec(v) - want) <= 1e-12 * np.linalg.norm(
            want)


def test_factored_conjugate_and_number_commutator_match_csr(small):
    # A and i[I, N] are kept factored; their actions match the CSR of the
    # particle flow generator and field translation, and of the entrywise
    # commutator of the interaction's CSR with N (number_comm applies
    # [I, N], its phase i held outside)
    p, b = small
    trunc = Truncation(p)
    i_csr = to_csr(trunc.interaction)
    n_op = sp.diags(trunc.number)
    rng = np.random.default_rng(8)
    for v in (rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim),
              rng.standard_normal((b.dim, 3))):
        for x, want in ((trunc.conj_full, conj_full(trunc) @ v),
                        (trunc.number_comm,
                         i_csr @ (n_op @ v) - n_op @ (i_csr @ v))):
            assert np.linalg.norm(x @ v - want) <= 1e-14 * np.linalg.norm(
                want)


def test_block_action_matches_column_by_column(small):
    # a (dim, k) block is contracted at once (svds applies its (dim, 1)
    # eigenvector block this way); each column is the vector action on
    # that column
    p, b = small
    trunc = Truncation(p)
    rng = np.random.default_rng(6)
    block = rng.standard_normal((b.dim, 5)) + 1j * rng.standard_normal(
        (b.dim, 5))
    op = DiagPlus(trunc.number, 0.3, trunc.commutator(2))
    for x in (trunc.interaction, trunc.commutator(1), op):
        stack = np.column_stack([x @ col for col in block.T])
        assert (x @ block).shape == block.shape
        assert np.linalg.norm(x @ block - stack) <= 1e-15 * np.linalg.norm(
            stack)
    assert np.linalg.norm(op.matmat(block) - to_csr(op) @ block) \
        <= 1e-13 * np.linalg.norm(block)


def test_real_symmetric_operators_run_in_float64(small):
    # with the real form factor and kernel, I, I_1..I_3, L and c_1..c_3 are
    # real symmetric: every factor is stored as real and a real vector or
    # block stays real; a complex input multiplies the same factors in
    # complex arithmetic, the product the complex factors gave
    from thermion.commutators import closed_form_commutator
    p, b = small
    liou = assemble_liouvillian(p)
    trunc = liou.trunc
    ops = ([trunc.interaction, liou.operator]
           + [trunc.commutator(n) for n in (1, 2, 3)]
           + [closed_form_commutator(liou, n) for n in (1, 2, 3)])
    rng = np.random.default_rng(9)
    for v in (rng.standard_normal(b.dim), rng.standard_normal((b.dim, 3))):
        for x in ops:
            assert x.dtype == np.float64
            out, want = x @ v, x @ v.astype(complex)
            assert out.dtype == np.float64 and want.dtype == np.complex128
            assert np.linalg.norm(out - want) <= 1e-15 * np.linalg.norm(want)
    # the CSR stays the complex matrix of the complex factors
    assert to_csr(trunc.interaction).dtype == np.complex128
    assert to_csr(liou.operator).dtype == np.complex128


def test_truncation_refuses_parameters_beyond_the_coupling(small):
    p, b = small
    trunc = Truncation(p)
    liou = assemble_liouvillian(p.with_(lam=0.3, theta=0.2, epsilon=0.7),
                                trunc)
    assert liou.trunc is trunc
    for change in ({"beta": 2.0}, {"a": 0.25}, {"n_u": 10}, {"n_max": 1},
                   {"e_max": 5.0}, {"bound_energy": -0.5},
                   {"form_factor": FormFactor(g=PowerExpProfile(3.0))},
                   {"kernel": Kernel(g_ee=0.5)}):
        with pytest.raises(ValueError, match="truncation"):
            assemble_liouvillian(p.with_(**change), trunc)


def test_correction_commutator_norm_bound():
    # ||[L, A0]|| <= k (theta lam / eps + theta lam^2 / eps^2): measure the
    # ratio over a parameter sweep; k is its (finite, stable) supremum
    base = ModelParams(n_e=4, n_u=8, n_max=1, e_max=3.0, u_max=3.0)
    trunc = Truncation(base)
    ratios = []
    for theta in (0.05, 0.2):
        for lam in (0.05, 0.2):
            for eps in (0.3, 1.0):
                p = base.with_(theta=theta, lam=lam, epsilon=eps)
                liou = assemble_liouvillian(p, trunc)
                conj = assemble_conjugates(liou)
                envelope = theta * lam / eps + theta * lam ** 2 / eps ** 2
                ratios.append(operator_norm(to_csr(conj.correction_comm))
                              / envelope)
    k = max(ratios)
    assert np.isfinite(k)
    assert max(ratios) / min(ratios) < 50


def test_field_op_rejects_wrong_grid(small):
    p, b = small
    with pytest.raises(ValueError, match="grid"):
        field_op(b.fock, np.ones(b.fock.grid.n_u + 2))


def test_number_field_commutator_adjacent_sectors(small):
    p, b = small
    fops = assemble_field_ops(b.fock)
    n_op = sp.diags(fops.number.astype(complex))
    f = np.linspace(1.0, 2.0, b.fock.grid.n_u)
    phi = field_op(b.fock, f)
    comm = (n_op @ phi - phi @ n_op).tocoo()
    nums = fops.number
    assert np.all(np.abs(nums[comm.row] - nums[comm.col]) == 1)
    # free generator commutes with the number operator exactly
    dg = sp.diags(fops.dgamma_u.astype(complex))
    # products of diags stay in DIA format, which has no max
    assert abs((dg @ n_op - n_op @ dg).tocsr()).max() == 0.0


def test_hermiticity_defect_format_independent():
    # the sparse oracle of the bit-exactness tests agrees, in every sparse
    # format, with the dense check that coupling_matrix runs
    real = np.array([1.0, -2.0, 0.5], dtype=complex)
    skew = np.array([1.0, -2.0 + 0.25j, 0.5 - 3.0j])
    for diag, expected in ((real, 0.0), (skew, 6.0)):
        dia = sp.diags(diag)
        forms = (dia, sp.dia_array(dia), dia.tocsr())
        assert [sparse_hermiticity_defect(m) for m in forms] \
            + [hermiticity_defect(dia.toarray())] == [expected] * 4


from hypothesis import given, settings, strategies as st

_coeff = st.floats(-2.0, 2.0, allow_nan=False)


@given(fr=st.lists(_coeff, min_size=8, max_size=8),
       fi=st.lists(_coeff, min_size=8, max_size=8),
       gr=st.lists(_coeff, min_size=8, max_size=8),
       gi=st.lists(_coeff, min_size=8, max_size=8))
@settings(max_examples=30, deadline=None)
def test_thermal_gluing_preserves_symplectic_form_property(fr, fi, gr, gi):
    grid = FieldGrid(5.0, 16)
    f = np.array(fr) + 1j * np.array(fi)
    g = np.array(gr) + 1j * np.array(gi)
    tf = glue_tau_beta(f, grid, 0.8)
    tg = glue_tau_beta(g, grid, 0.8)
    lhs = np.imag(np.vdot(tf, tg))
    rhs = np.imag(np.sum(np.conj(f) * g * grid.positive_nodes ** 2)
                  * grid.weight)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
