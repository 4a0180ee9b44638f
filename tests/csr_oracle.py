"""Independent CSR reference for the factored operators.

The program keeps every composite operator factored (``KronSum``,
``DiagPlus``, ``LowRank``) and only ever applies it.  The tests compare
those actions with complex CSR matrices built here from the *factors*:
each Kronecker term is a ``scipy.sparse.kron`` of its factors, never a
product of the matvec under test.  The direct iterated commutators that
cross-check the closed forms, and the CSR form of the relative-bound
constants, live here too.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
import scipy.sparse as sp

from thermion.commutators import closed_form_commutator
from thermion.lattice import CompositeBasis
from thermion.linalg import DiagPlus, operator_norm
from thermion.operators import (KronSum, LowRank, diag_commutator,
                                hermitize)


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
        return hermitize(op.phase * mats[0]) / op.phase
    if isinstance(op, DiagPlus):
        diag = sp.diags(op.d.astype(complex))
        return hermitize(diag if op.x is None
                         else diag + op.lam * to_csr(op.x))
    if isinstance(op, LowRank):
        # exact zeros of u stay structural
        return hermitize(sp.csr_matrix(op.u)
                         @ sp.csr_matrix(op.c @ op.u.conj().T))
    raise TypeError(f"no CSR reference for {type(op).__name__}")


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
    return hermitize(kron3(ident_f, ident_p, ap)
                     - kron3(ident_f, ap, ident_p)
                     + kron3(trunc.field.translation_gen, ident_p, ident_p))


def commutator(x, y):
    """i (XY - YX), symmetrized so Hermitian inputs give a bit-Hermitian
    result."""
    if x.shape != y.shape:
        raise ValueError("operands live on different bases")
    return hermitize(1j * (x @ y - y @ x))


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
    sandwiched = hermitize(half @ (1j * diag_commutator(x, lam)) @ half)
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
