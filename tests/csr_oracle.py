"""Independent CSR reference for the factored operators.

The program keeps every composite operator factored (``KronSum``,
``DiagPlus``, ``LowRank``) and only ever applies it.  The tests compare
those actions with complex CSR matrices built here from the *factors*:
each Kronecker term is a ``scipy.sparse.kron`` of its factors, never a
product of the matvec under test.  The direct iterated commutators that
cross-check the closed forms, and the CSR form of the relative-bound
constants, live here too, as do the plain forms of the chain's two exact
solves: the inertia bracket bisected with a count at every midpoint, and
the row-sum scale summed over every row of the support.  So do the Fock
operators built by a loop over the occupation states, which the builds
from the annihilation table must match bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
import scipy.sparse as sp

from thermion.commutators import closed_form_commutator
from thermion.lattice import CompositeBasis
from thermion.linalg import DiagPlus, operator_norm
from thermion.operators import KronSum, LowRank, diag_commutator


def symmetrize(m) -> sp.csr_matrix:
    """(M + M*) / 2 of a sparse matrix as CSR; bit-level Hermitian because
    float addition commutes."""
    return ((m + m.conj().T) * 0.5).tocsr()


def kron3(fock_op, right_op, left_op) -> sp.csr_matrix:
    """Composite operator in the flat convention (left index fastest)."""
    return sp.kron(fock_op, sp.kron(right_op, left_op, format="csr"),
                   format="csr")


def to_csr(op) -> sp.csr_matrix:
    """Bit-level Hermitian complex CSR of a ``KronSum``, ``DiagPlus`` or
    ``LowRank``, built from its factors.  A ``KronSum``'s terms are summed
    pairwise, neighbours first, so each direct term meets its modular
    image before the pairs are added; its CSR is the sum S that ``@``
    applies, phase * S bit-level Hermitian."""
    if isinstance(op, KronSum):
        dims = (op.basis.fock.dim, op.basis.left.dim, op.basis.left.dim)
        mats = [kron3(*(sp.csr_matrix(np.eye(n) if m is None else m,
                                      dtype=complex)
                        for n, m in zip(dims, term)))
                for term in op.terms]
        while len(mats) > 1:
            mats = [sum(mats[i:i + 2]) for i in range(0, len(mats), 2)]
        return symmetrize(op.phase * mats[0]) / op.phase
    if isinstance(op, DiagPlus):
        diag = sp.diags(op.d.astype(complex))
        return symmetrize(diag if op.x is None
                          else diag + op.lam * to_csr(op.x))
    if isinstance(op, LowRank):
        # exact zeros of u stay structural
        return symmetrize(sp.csr_matrix(op.u)
                          @ sp.csr_matrix(op.c @ op.u.conj().T))
    raise TypeError(f"no CSR reference for {type(op).__name__}")


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M*| entrywise of a dense matrix, exact."""
    return float(np.abs(m - m.conj().T).max())


def sparse_hermiticity_defect(m) -> float:
    """max |M - M*| entrywise of a sparse matrix, exact, the same value in
    any format (DIA has no max, so the difference goes to CSR)."""
    d = (m - m.conj().T).tocsr()
    return float(abs(d).max()) if d.nnz else 0.0


def lowrank_diagonal(lr: LowRank) -> np.ndarray:
    """Diagonal of U C U*, real as a Hermitian operator's."""
    return np.real(np.einsum("ir,rs,is->i", lr.u, lr.c, lr.u.conj()))


def liouvillian(liou) -> sp.csr_matrix:
    return to_csr(liou.operator)


def number_comm(liou) -> sp.csr_matrix:
    """The D operator i[L, N], by the entrywise rule on the CSR of L."""
    return 1j * diag_commutator(liouvillian(liou), liou.number)


def conj_full(trunc) -> sp.csr_matrix:
    """The conjugate operator without its correction, from the particle
    flow generator and the field translation."""
    ap = sp.csr_matrix(trunc.particle.flow_gen)
    ident_p = sp.identity(trunc.basis.left.dim, format="csr", dtype=complex)
    ident_f = sp.identity(trunc.basis.fock.dim, format="csr", dtype=complex)
    return symmetrize(kron3(ident_f, ident_p, ap)
                      - kron3(ident_f, ap, ident_p)
                      + kron3(trunc.field.translation_gen, ident_p, ident_p))


def commutator(x, y):
    """i (XY - YX), symmetrized so Hermitian inputs give a bit-Hermitian
    result."""
    if x.shape != y.shape:
        raise ValueError("operands live on different bases")
    return symmetrize(1j * (x @ y - y @ x))


# ---------------------------------------------------------------------------
# closed forms against the direct commutators
# ---------------------------------------------------------------------------

@dataclass
class CommutatorSet:
    c1: sp.csr_matrix
    c2: sp.csr_matrix
    c3: sp.csr_matrix
    c1_direct: sp.csr_matrix
    c2_direct: sp.csr_matrix
    c3_direct: sp.csr_matrix
    discrepancies: tuple   # test-state norms of (closed form - direct)


def product_boson_amplitudes(fb, mode_profile: np.ndarray) -> np.ndarray:
    """Occupation amplitudes of the coherent-like product over the boson
    sectors: sqrt(n!/prod s_k!) prod f_k^{s_k}.  The multinomial factor is
    what makes the amplitudes the symmetric-tensor samples of the smooth
    product function (without it the represented function kinks along the
    diagonals and convergence orders collapse)."""
    f = np.asarray(mode_profile)
    out = np.zeros(fb.dim, dtype=complex)
    for idx, state in enumerate(fb.states):
        n = sum(state)
        coef = np.sqrt(float(factorial(n))
                       / np.prod([factorial(s) for s in state if s > 1]))
        amp = coef
        for k, s in enumerate(state):
            if s:
                amp = amp * f[k] ** s
        out[idx] = amp
    return out


def smooth_test_states(basis: CompositeBasis, n_states: int = 4,
                       seed: int = 3) -> list:
    """Interior-supported smooth states: Gaussian profiles on both particle
    continua times product-Gaussian boson amplitudes, avoiding the grid
    edges where the Dirichlet derivative rows live."""
    rng = np.random.default_rng(seed)
    e = basis.left.grid.nodes
    u = basis.fock.grid.nodes
    e_span = e[-1] - e[0]
    u_span = u[-1] - u[0]
    out = []
    for _ in range(n_states):
        ce = e[0] + e_span * rng.uniform(0.35, 0.65)
        cu = u_span * rng.uniform(-0.15, 0.15)
        se = e_span * 0.18
        su = u_span * 0.18
        pe = np.concatenate(([0.3], np.exp(-((e - ce) / se) ** 2)))
        pu = np.exp(-((u - cu) / su) ** 2)
        fock = product_boson_amplitudes(basis.fock, pu)
        fock[0] = 0.2
        vec = (fock[:, None, None] * pe[None, None, :]
               * pe[None, :, None]).ravel().astype(complex)
        out.append(vec / np.linalg.norm(vec))
    return out


def assemble_commutator_set(liou) -> CommutatorSet:
    """c_1, c_2, c_3 in closed form, each checked against the direct
    commutator."""
    trunc = liou.trunc
    c1, c2, c3 = (to_csr(closed_form_commutator(liou, n))
                  for n in (1, 2, 3))
    # each closed form is tested against the commutator of the previous
    # *assembled* level: iterating the raw matrix commutator instead would
    # re-amplify the previous level's grid-scale residual through the
    # derivative and mask the convergence
    a_full = conj_full(trunc)
    c1_d = commutator(liouvillian(liou), a_full)
    c2_d = commutator(c1, a_full)
    c3_d = commutator(c2, a_full)
    tests = smooth_test_states(trunc.basis)
    disc = tuple(
        max(np.linalg.norm((ca - cd) @ psi) for psi in tests)
        for ca, cd in ((c1, c1_d), (c2, c2_d), (c3, c3_d)))
    return CommutatorSet(c1, c2, c3, c1_d, c2_d, c3_d, disc)


# ---------------------------------------------------------------------------
# relative-bound constants on the CSR
# ---------------------------------------------------------------------------

def gjn_constants(x: sp.spmatrix, comparison_diag: np.ndarray) -> tuple:
    """(||X Lambda^{-1}||, ||Lambda^{-1/2} i[X, Lambda] Lambda^{-1/2}||)
    with the commutator formed entrywise on the CSR."""
    lam = np.asarray(comparison_diag, float)
    k_norm = operator_norm(x @ sp.diags(1.0 / lam))
    half = sp.diags(1.0 / np.sqrt(lam))
    sandwiched = symmetrize(half @ (1j * diag_commutator(x, lam)) @ half)
    return k_norm, operator_norm(sandwiched)


def kato_constant(x: sp.spmatrix, number_diag: np.ndarray,
                  vacuum_diag: np.ndarray) -> float:
    """||X (N + P_vac)^{-1/2}|| on the CSR."""
    shifted = np.asarray(number_diag, float) + np.asarray(vacuum_diag, float)
    return operator_norm(x @ sp.diags(1.0 / np.sqrt(shifted)))


def gjn_rows(liou) -> list:
    """The rows of the ``gjn`` report's constants table, on CSRs."""
    trunc = liou.trunc
    c1, c2, c3 = (to_csr(closed_form_commutator(liou, n))
                  for n in (1, 2, 3))
    d = number_comm(liou)
    targets = {"liouvillian": liouvillian(liou),
               "number": sp.diags(trunc.number.astype(complex)).tocsr(),
               "number_commutator": d, "c1": c1, "c2": c2, "c3": c3}
    rows = [[name, *gjn_constants(op, trunc.comparison)]
            for name, op in targets.items()]
    rows += [[f"{name}_vs_sqrt_number",
              kato_constant(op, trunc.number, trunc.vacuum_proj), np.nan]
             for name, op in (("number_commutator", d), ("c3", c3))]
    return rows


def bisection_min_eig(d: np.ndarray, lr: LowRank) -> tuple[float, float]:
    """``linalg.min_eig_diag_plus_lowrank`` as plain bisection: the same
    inertia count at every midpoint of the Weyl bracket, down to adjacent
    floats."""
    w, q = np.linalg.eigh(lr.c)
    nz = np.abs(w) > len(w) * np.finfo(float).eps * np.abs(w).max(initial=0)
    wmat = (lr.u @ q[:, nz]) * np.sqrt(np.abs(w[nz]))
    on = np.any(wmat != 0, axis=1)
    off_min = float(np.min(d[~on], initial=np.inf))
    if not on.any():
        return off_min, 0.0
    ds, ws, sign = d[on], wmat[on], np.sign(w[nz])
    sq = np.sum(np.abs(ws) ** 2, axis=1)

    def below(s):
        sh = ds - s
        near = np.abs(sh) < sq
        far = ~near
        wn, wf = ws[near], ws[far]
        border = -np.diag(sign) - (wf.conj().T / sh[far]) @ wf
        evals = np.linalg.eigvalsh(border)
        if near.any() and np.abs(evals).min() > 1e-8 * np.abs(evals).max():
            schur = np.diag(sh[near]) - wn @ np.linalg.solve(border,
                                                             wn.conj().T)
            evals = np.r_[evals, np.linalg.eigvalsh(schur)]
        elif near.any():
            evals = np.linalg.eigvalsh(np.block([[np.diag(sh[near]), wn],
                                                 [wn.conj().T, border]]))
        return (np.count_nonzero(sh[far] < 0) - np.count_nonzero(sign > 0)
                + np.count_nonzero(evals < 0))

    lo = np.nextafter(ds.min() - sq.sum(), -np.inf)
    hi = np.nextafter(ds.min() + sq.sum(), np.inf)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if below(mid) >= 1 else (mid, hi)
    if off_min < lo:
        return off_min, 0.0
    return float(lo), float(min(hi, off_min) - lo)


def all_rows_max_abs_row_sum(d: np.ndarray, lr: LowRank) -> float:
    """``feshbach._max_abs_row_sum`` with every row of the support summed
    densely, 64 at a time."""
    sums, on = np.abs(d), np.flatnonzero(np.any(lr.u != 0, axis=1))
    chunk = 64
    uc, uh = lr.u[on] @ lr.c, lr.u[on].conj().T
    for i in range(0, len(on), chunk):
        block = uc[i:i + chunk] @ uh
        block[:, i:i + chunk] += np.diag(d[on[i:i + chunk]])
        sums[on[i:i + chunk]] = np.abs(block).sum(1)
    return float(sums.max())


# ---------------------------------------------------------------------------
# Fock operators by a loop over the occupation states
# ---------------------------------------------------------------------------

def loop_lowering_op(fb, f: np.ndarray) -> sp.csr_matrix:
    """``operators.lowering_op`` state by state."""
    f = np.asarray(f, dtype=complex)
    index = {state: i for i, state in enumerate(fb.states)}
    rows, cols, data = [], [], []
    for c, state in enumerate(fb.states):
        for k, occ in enumerate(state):
            if occ == 0 or f[k] == 0.0:
                continue
            target = list(state)
            target[k] -= 1
            rows.append(index[tuple(target)])
            cols.append(c)
            data.append(np.conj(f[k]) * np.sqrt(occ))
    return sp.csr_matrix((data, (rows, cols)), shape=(fb.dim, fb.dim),
                         dtype=complex)


def loop_second_quantized_diag(fb, mode_values: np.ndarray) -> np.ndarray:
    """``operators.second_quantized_diag`` state by state."""
    mv = np.asarray(mode_values, float)
    return np.array([float(np.dot(state, mv)) for state in fb.states])


def loop_second_quantized(fb, one_mode) -> sp.csr_matrix:
    """``operators.second_quantized`` state by state."""
    b = sp.coo_matrix(one_mode)
    by_col = {}
    for k, l, v in zip(b.row, b.col, b.data):
        by_col.setdefault(l, []).append((k, v))
    index = {state: i for i, state in enumerate(fb.states)}
    rows, cols, data = [], [], []
    for c, state in enumerate(fb.states):
        for l, occ in enumerate(state):
            if occ == 0 or l not in by_col:
                continue
            for k, v in by_col[l]:
                target = list(state)
                target[l] -= 1
                amp = np.sqrt(occ) * np.sqrt(target[k] + 1)
                target[k] += 1
                rows.append(index[tuple(target)])
                cols.append(c)
                data.append(v * amp)
    return sp.csr_matrix((data, (rows, cols)), shape=(fb.dim, fb.dim),
                         dtype=complex)
