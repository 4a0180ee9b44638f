"""Assembly of all model operators on the truncated composite basis.

Matrix conventions: the flat composite index is ``CompositeBasis``'s (left
particle fastest), so a composite operator built from per-factor matrices
is kron(fock_op, kron(right_op, left_op)), kept factored as a ``KronSum``,
and a composite diagonal is ``CompositeBasis.diag``.  Every factor
flagged Hermitian is Hermitian by construction, tested; every Fock-space
factor is read off the basis's annihilation table.  Functions embedded on
a grid carry sqrt(weight), which makes the euclidean inner product the
discrete L2 product and keeps every assembled matrix weight-free.

Every operator is assembled once per truncation; lam, theta and epsilon
only combine the parts.  A ``Truncation`` (grids, beta, a, form factor,
kernel) builds each operator on first use and keeps it: the interaction,
its commutators with the conjugate operator and with N, and the
conjugate operator itself in factored form (``KronSum``), the diagonals,
and the compensation constant per coupling (k49 at the probe coupling;
closed form at n_max = 1, ARPACK above).  No composite matrix is formed.
A ``LiouvillianAction`` is L = L0 + lam I over a truncation, and
``assemble_conjugates`` adds the theta- and epsilon-dependent corrections.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .lattice import CompositeBasis, FieldGrid, FockBasis, build_bases
from .flows import saturating_profile
from .linalg import (DiagPlus, min_eig_hermitian, one_thread_matmul,
                     operator_norm)
from .params import ModelParams
from .reports import BoundReport


def hermitize(m: np.ndarray) -> np.ndarray:
    """(M + M*) / 2 over the last two axes of a dense stack; bit-level
    Hermitian because float addition commutes."""
    return (m + m.conj().swapaxes(-1, -2)) * 0.5


# ---------------------------------------------------------------------------
# particle-space operators
# ---------------------------------------------------------------------------

def central_difference(nodes: np.ndarray, spacing: float) -> np.ndarray:
    """Antisymmetric central-difference matrix with zeroed boundary rows
    and columns (Dirichlet); i * D is then Hermitian."""
    n = len(nodes)
    d = np.zeros((n, n))
    for k in range(1, n - 1):
        d[k, k + 1] = 1.0 / (2.0 * spacing)
        d[k, k - 1] = -1.0 / (2.0 * spacing)
    d[:, 0] = 0.0
    d[:, -1] = 0.0
    return d


def coupling_matrix(params: ModelParams, basis: CompositeBasis) -> np.ndarray:
    """Discrete particle coupling: bound-bound scalar, bound-continuum
    column Gamma(e) sqrt(de), continuum block Gamma(e) Gamma(e') de.  Gamma
    is real, so the block is an outer product with a * b == b * a and the
    matrix is Hermitian bit for bit."""
    grid = basis.left.grid
    de = grid.weight
    ker = params.kernel
    dp = basis.left.dim
    g = np.zeros((dp, dp), dtype=complex)
    g[0, 0] = ker.g_ee
    col = ker.gamma(grid.nodes)
    g[1:, 0] = g[0, 1:] = col * np.sqrt(de)
    g[1:, 1:] = np.outer(col, col) * de
    return g


@dataclass(frozen=True)
class ParticleOps:
    h: np.ndarray              # diagonal entries (E, e_1, ..)
    continuum_proj: np.ndarray  # diag of the projection onto the continuum
    comparison: np.ndarray     # diag of H_p * P_continuum + 1  (>= 1)
    xi_of_h: np.ndarray        # diag of xi(e / a) on the continuum, 0 on bound
    flow_gen: np.ndarray       # dense Hermitian dilation generator


def assemble_particle_ops(params: ModelParams,
                          basis: CompositeBasis) -> ParticleOps:
    profile = saturating_profile()
    grid = basis.left.grid
    energies = basis.left.energies
    dp = basis.left.dim
    cont = np.ones(dp)
    cont[0] = 0.0
    comparison = energies * cont + 1.0
    xs = np.asarray(profile.xi(grid.nodes / params.a), float)
    xi_diag = np.concatenate(([0.0], xs))

    d = central_difference(grid.nodes, grid.weight)
    a_cont = 0.5j * (np.diag(xs) @ d + d @ np.diag(xs))
    flow_gen = np.zeros((dp, dp), dtype=complex)
    flow_gen[1:, 1:] = a_cont
    return ParticleOps(energies, cont, comparison, xi_diag, flow_gen)


# ---------------------------------------------------------------------------
# thermal gluing
# ---------------------------------------------------------------------------

def thermal_weight(u, beta: float):
    """u / (1 - exp(-beta u)), the squared gluing amplitude; finite and
    positive for all u != 0."""
    u = np.asarray(u, float)
    with np.errstate(over="ignore"):
        denom = -np.expm1(-beta * u)
        out = np.where(denom != 0.0, u / np.where(denom != 0, denom, 1.0), 0.0)
    # beta*u >> 1 overflows expm1(-beta*u) harmlessly to -1; u < 0 with
    # beta*|u| >> 1 underflows the ratio to 0, which is the correct limit.
    return out


def tau_beta_values(f, grid: FieldGrid, beta: float) -> np.ndarray:
    """Pointwise thermal gluing of a positive-frequency profile onto the
    full frequency line:

        u > 0:  sqrt(u/(1-e^{-beta u})) *  sqrt(u)  * f(u)
        u < 0:  sqrt(u/(1-e^{-beta u})) * -sqrt(-u) * conj(f(-u))

    ``f`` is a callable on (0, inf) or an array of samples on the positive
    nodes.  Returns plain node values (no quadrature weight).
    """
    pos = grid.positive_nodes
    fvals = np.asarray(f(pos) if callable(f) else f, dtype=complex)
    if fvals.shape != pos.shape:
        raise ValueError("profile samples must match the positive nodes")
    half = grid.n_u // 2
    out = np.zeros(grid.n_u, dtype=complex)
    amp = np.sqrt(thermal_weight(grid.nodes, beta))
    out[half:] = amp[half:] * np.sqrt(pos) * fvals
    out[:half] = -amp[:half] * np.sqrt(pos[::-1]) * np.conj(fvals[::-1])
    return out


def glue_tau_beta(f, grid: FieldGrid, beta: float) -> np.ndarray:
    """Thermal gluing followed by sqrt(weight) embedding (ready to feed the
    smeared field operators)."""
    return tau_beta_values(f, grid, beta) * np.sqrt(grid.weight)


def reflect_conjugate(values: np.ndarray, grid: FieldGrid) -> np.ndarray:
    """One-particle action of the modular conjugation: u -> -u plus
    complex conjugation."""
    return np.conj(values[grid.reflection])


# ---------------------------------------------------------------------------
# Fock-space operators
# ---------------------------------------------------------------------------

def lowering_op(fb: FockBasis, f: np.ndarray) -> sp.csr_matrix:
    """Smeared annihilator a(f) = sum_k conj(f_k) a_k on the truncated
    occupation basis (maps the N = n sector into N = n - 1): one entry per
    row of the annihilation table whose mode has f_k != 0."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (fb.grid.n_u,):
        raise ValueError("smearing vector lives on the wrong grid")
    r, c, k, occ = fb.annihilations[f[fb.annihilations[:, 2]] != 0].T
    return sp.csr_matrix((np.conj(f[k]) * np.sqrt(occ), (r, c)),
                         shape=(fb.dim, fb.dim), dtype=complex)


def field_op(fb: FockBasis, f: np.ndarray) -> sp.csr_matrix:
    """phi(f) = (a*(f) + a(f)) / sqrt(2), Hermitian on the truncation: the
    two parts have disjoint supports and each entry meets its conjugate."""
    low = lowering_op(fb, f)
    return (low + low.conj().T) / np.sqrt(2.0)


def second_quantized_diag(fb: FockBasis, mode_values: np.ndarray) -> np.ndarray:
    """Diagonal of dGamma(diag(m)): sum_k occ_k m_k per basis state, over
    its occupied modes in order."""
    _, c, k, occ = fb.annihilations.T
    return np.bincount(c, occ * np.asarray(mode_values, float)[k],
                       minlength=fb.dim)


def second_quantized(fb: FockBasis, one_mode: sp.spmatrix) -> sp.csr_matrix:
    """dGamma(B) = sum_{kl} B[k,l] a*_k a_l for a general one-mode matrix:
    each table row a_l e_c = sqrt(o) e_m meets each entry B[k, l] of its
    mode's column, and a*_k e_m = sqrt(o') e_r is read off the row that
    annihilates mode k from r into m."""
    m, c, l, o = fb.annihilations.T
    b = sp.csc_matrix(one_mode)
    # pair table row `row` with entry j of B, for each entry of column l_row
    count = np.diff(b.indptr)[l]
    row = np.repeat(np.arange(len(l)), count)
    first = np.cumsum(count) - count
    j = b.indptr[l][row] + np.arange(len(row)) - first[row]
    hop = np.zeros((m.max(initial=0) + 1, fb.grid.n_u), np.int64)
    hop[m, l] = np.arange(len(m))     # the row annihilating mode l into m
    hit = hop[m[row], b.indices[j]]
    data = b.data[j] * (np.sqrt(o[row]) * np.sqrt(o[hit]))
    return sp.csr_matrix((data, (c[hit], c[row])), shape=(fb.dim, fb.dim),
                         dtype=complex)


@dataclass(frozen=True)
class FieldOps:
    number: np.ndarray          # diag of N
    dgamma_u: np.ndarray        # diag of the free field generator
    comparison: np.ndarray      # diag of dGamma(u^2 + 1) + 1
    translation_gen: sp.csr_matrix  # dGamma(i D_u), Hermitian
    mode_derivative: np.ndarray    # the D_u matrix itself


def assemble_field_ops(fb: FockBasis) -> FieldOps:
    grid = fb.grid
    number = second_quantized_diag(fb, np.ones(grid.n_u))
    dgamma_u = second_quantized_diag(fb, grid.nodes)
    comparison = second_quantized_diag(fb, grid.nodes ** 2 + 1.0) + 1.0
    d = central_difference(grid.nodes, grid.du)
    a_f = second_quantized(fb, sp.csr_matrix(1j * d))
    return FieldOps(number, dgamma_u, comparison, a_f, d)


# ---------------------------------------------------------------------------
# composite assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingVectors:
    """Embedded smearing vectors of one interaction term and its modular
    image; the image is conj-reflection of the original and equals
    -exp(-beta u / 2) times it nodewise."""

    direct: np.ndarray
    image: np.ndarray


def _stored(entries: list, shape: tuple, filled: int, size: int):
    """The product with COO ``entries`` [(rows, cols, values), ..] as it is
    applied: dense where the Fock sector blocks in it are at least half
    filled (``filled`` nonzeros of ``size``), else CSR."""
    r, c, v = (np.concatenate(a) for a in zip(*entries))
    product = sp.csr_matrix((v, (r, c)), shape=shape)
    return product.toarray() if 2 * filled >= size else product


def _product(block, x: np.ndarray) -> np.ndarray:
    """block @ x for a dense or CSR block; a real block meets a complex x
    through x's float64 view: real arithmetic in a third of the mixed
    product's time, and as thread-invariant as einsum in a seventh of its."""
    if block.dtype.kind == "f" and x.dtype.kind == "c":
        return (block @ x.view(float)).view(complex)
    return block @ x


class KronSum:
    """A sum S of Kronecker products fock x right x left, kept factored,
    with ``phase`` p * S Hermitian: ``terms`` are (fock, right, left) with
    a sparse Fock-space factor and dense particle factors, None standing
    for the identity; a factor with zero imaginary part is stored real
    (see ``dtype``).  ``@`` applies S; the phase is held outside (p = 1j
    keeps the purely imaginary i[I, N] on real factors), so S* = p^2 S.

    A term with both a Fock factor F and particle factors is applied
    through F's two sector blocks, split at ``n_low``, the number of Fock
    states with fewer than n_max bosons (the first ones): the low block
    F[:n_low] acts on the input, and the top block F[n_low:, :m] on the
    particle factors' action on its first m rows, m = n_low where F's
    top-to-top block is zero, as for every field operator (it moves the
    boson number by one), else every row.  So the particle factors act on
    n_low + m rows, not on every Fock row.  All such terms share two
    products, built on first use: the gather stacks each term's low block
    over the m rows it passes up, and the scatter adds the low rows and
    applies the top blocks.  Other terms are applied whole."""

    def __init__(self, basis: CompositeBasis, terms, phase: complex = 1):
        self.basis, self.shape, self.phase = basis, (basis.dim,) * 2, phase
        self.terms = tuple(tuple(
            m if m is None or (m.data if sp.issparse(m) else m).imag.any()
            else m.real for m in term) for term in terms)
        self.dtype = np.result_type(*(m.dtype for term in self.terms
                                      for m in term if m is not None))
        fb = basis.fock
        self.n_low = np.count_nonzero(
            second_quantized_diag(fb, np.ones(fb.grid.n_u)) < fb.n_max)

    @cached_property
    def _sectors(self) -> tuple:
        """(whole terms, split terms as (gathered rows, right, left), gather,
        scatter); gather and scatter are stored by ``_stored`` and are real
        where the Fock factors are."""
        n, nf = self.n_low, self.basis.fock.dim
        whole, split, gather, scatter, fill = [], [], [], [], np.zeros((2, 2))
        for fock, right, left in self.terms:
            if fock is None or right is None and left is None:
                whole.append((fock, right, left))
                continue
            f = sp.coo_matrix(fock)
            r, c, v = (a[f.data != 0] for a in (f.row, f.col, f.data))
            m = nf if np.any((r >= n) & (c >= n)) else n
            low, top = r < n, (r >= n) & (c < m)
            w = split[-1][0].stop if split else 0
            i, k, cat = np.arange(n), np.arange(m), np.concatenate
            gather.append((cat([r[low], n + k]) + w, cat([c[low], k]),
                           cat([v[low], np.ones(m)])))
            scatter.append((cat([i, r[top]]), cat([i, n + c[top]]) + w,
                            cat([np.ones(n), v[top]])))
            split.append((slice(w, w + n + m), right, left))
            # nonzeros and size of the low block, then of the top block
            fill += [[low.sum(), n * nf], [top.sum(), (nf - n) * m]]
        if not split:
            return whole, split, None, None
        w = split[-1][0].stop
        return (whole, split, _stored(gather, (w, nf), *fill[0]),
                _stored(scatter, (nf, w), *fill[1]))

    def _particle(self, s: np.ndarray, right, left) -> np.ndarray:
        """1 x right x left on the rows of an (r, k dp^2) array (Fock
        index, then k columns of right-then-left particle entries); a left
        factor is one 2-D gemm on the rows of the reshaped input."""
        dp = self.basis.left.dim
        if left is not None:
            flat, s = s.reshape(-1, dp), np.empty(s.shape, s.dtype)
            # by ``one_thread_matmul``: threaded, A's matvec at dim 9,537
            # ran twofold slower, and a gemm's bits follow the thread count
            one_thread_matmul(left, flat.T, out=s.reshape(-1, dp).T)
        if right is not None:
            s = np.matmul(right, s.reshape(-1, dp, dp)).reshape(len(s), -1)
        return s

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        """Tensor contraction; no composite matrix is formed.  A (dim, k)
        block is contracted at once, its columns a batch axis."""
        nf, dp, cols = self.basis.fock.dim, self.basis.left.dim, psi.shape[1:]
        x = np.ascontiguousarray(psi.reshape(nf, dp * dp, *cols).swapaxes(
            1, -1), np.result_type(psi, self.dtype)).reshape(nf, -1)
        whole, split, gather, scatter = self._sectors
        out = None
        if split:
            z = _product(gather, x)
            out = _product(scatter, np.concatenate([
                self._particle(z[rows], right, left)
                for rows, right, left in split]))
        for fock, right, left in whole:
            s = self._particle(x, right, left)
            s = s if fock is None else fock @ s
            out = s if out is None else np.add(out, s, out=out)
        return out.reshape(nf, *cols, dp * dp).swapaxes(1, -1).reshape(
            psi.shape)

    __matmul__ = matvec


def interaction_like(basis: CompositeBasis, g: np.ndarray, sign: float,
                     f_direct: np.ndarray, f_image: np.ndarray) -> list:
    """Kronecker terms of phi(f_direct) x 1 x g - sign phi(f_image) x
    conj(g) x 1: the interaction at sign 1, and each term of its iterated
    commutators."""
    return [(field_op(basis.fock, f_direct), None, g),
            (field_op(basis.fock, f_image), -sign * np.conj(g), None)]


def diag_commutator(x, d: np.ndarray) -> sp.csr_matrix:
    """[X, diag(d)] entrywise: X_ij (d_j - d_i), in X's own field."""
    xc = sp.coo_matrix(x)
    return sp.coo_matrix(
        (xc.data * (d[xc.col] - d[xc.row]), (xc.row, xc.col)),
        shape=x.shape).tocsr()


class Truncation:
    """The operators of one truncation that do not depend on the coupling:
    each is built on first use and kept.  ``params`` fixes the grids, beta,
    a, the form factor and the kernel; its lam, theta and epsilon play no
    part here."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.k_exact = params.n_max == 1   # k in closed form: compensation
        self._commutators, self._compensation = {}, {}

    def check(self, params: ModelParams):
        """Refuse parameters that differ from the truncation's in anything
        but lam, theta or epsilon."""
        own = self.params
        if replace(params, lam=own.lam, theta=own.theta,
                   epsilon=own.epsilon) != own:
            raise ValueError("parameters differ from the truncation's in "
                             "more than lam, theta and epsilon")

    @cached_property
    def basis(self) -> CompositeBasis:
        return build_bases(self.params)

    @cached_property
    def particle(self) -> ParticleOps:
        return assemble_particle_ops(self.params, self.basis)

    @cached_property
    def field(self) -> FieldOps:
        return assemble_field_ops(self.basis.fock)

    @cached_property
    def l0_diag(self) -> np.ndarray:
        e = self.particle.h
        return self.basis.diag(self.field.dgamma_u, -e, e)

    @cached_property
    def coupling(self) -> np.ndarray:
        return coupling_matrix(self.params, self.basis)

    @cached_property
    def vectors(self) -> CouplingVectors:
        grid = self.basis.fock.grid
        f1 = glue_tau_beta(self.params.form_factor, grid, self.params.beta)
        return CouplingVectors(f1, reflect_conjugate(f1, grid))

    @cached_property
    def interaction(self) -> KronSum:
        """I.  The second term is the modular image of the first, so I
        anticommutes with the modular conjugation; its smearing vector is
        -exp(-beta u/2) tau_beta(g), i.e. the sign convention is fixed by
        requiring J L J = -L exactly (checked in apply_j tests) rather than
        by choosing signs per factor."""
        return KronSum(self.basis, interaction_like(
            self.basis, self.coupling, 1.0, self.vectors.direct,
            self.vectors.image))

    def commutator(self, order: int) -> KronSum:
        """I_n = ad_A^n(I), n >= 1, in closed form."""
        from .commutators import interaction_commutator
        if order not in self._commutators:
            self._commutators[order] = interaction_commutator(self, order)
        return self._commutators[order]

    @cached_property
    def number(self) -> np.ndarray:
        """Diagonal of N x 1 x 1."""
        return self.basis.diag(self.field.number)

    @cached_property
    def vacuum_proj(self) -> np.ndarray:
        """Diagonal of P_Omega x 1 x 1."""
        return self.basis.diag(self.field.number == 0)

    @cached_property
    def comparison(self) -> np.ndarray:
        """Diagonal of the GJN comparison operator."""
        comp = self.particle.comparison
        return self.basis.diag(self.field.comparison, comp, comp)

    @cached_property
    def number_comm(self) -> KronSum:
        """i[I, N] with phase i: each Fock factor F of I becomes [F, N] (N
        commutes with the particle factors), real for a real coupling, so
        i[L, N] = lam i[I, N] runs in float64 with its i held outside."""
        return KronSum(self.basis, [
            (diag_commutator(fock, self.field.number), right, left)
            for fock, right, left in self.interaction.terms], phase=1j)

    @cached_property
    def conj_full(self) -> KronSum:
        """The conjugate operator without its correction: the particle
        flow generator on the left factor minus on the right, plus the
        field translation."""
        ap = self.particle.flow_gen
        return KronSum(self.basis, [(None, None, ap), (None, -ap, None),
                                    (self.field.translation_gen, None, None)])

    @cached_property
    def sigma_sq(self) -> float:
        """||B* B||, B = sum_t b_t x M_t I_1's vacuum-to-one-boson block (b_t:
        term t's Fock factor on the vacuum, M_t = R_t x 1 or 1 x L_t), on the
        range C^dp x U + V x U-perp of B* B (U, V: L_t*, R_t* ranges)."""
        terms, dp = self.commutator(1).terms, self.basis.left.dim
        b = np.array([f[:, 0].toarray().ravel() for f, _, _ in terms])
        fac = [(l, True) if r is None else (r, False) for _, r, l in terms]

        def ranges(left):   # range of sum m* m over one side, and the rest
            w, v = np.linalg.eigh(sum(m.conj().T @ m for m, s in fac
                                      if s == left))
            on = w > dp * np.finfo(float).eps * w.max()
            return v[:, on], v[:, ~on]

        def act(m, left, x):    # 1 x m or m x 1 on x: (right, left, n)
            return m @ x if left else np.tensordot(m, x, 1)
        (qu, qu_perp), (qv, _) = ranges(True), ranges(False)
        q = np.hstack([np.kron(np.eye(dp), qu), np.kron(qv, qu_perp)])
        # q* B* B q, B* B = sum_st <b_s, b_t> M_s* M_t, ends in an einsum: a
        # threaded gemm's bits would follow the BLAS thread count
        w = np.tensordot(b.conj() @ b.T, [act(m, s, q.reshape(dp, dp, -1))
                                          for m, s in fac], 1)
        bq = sum(act(m.conj().T, s, x) for (m, s), x in zip(fac, w))
        gram = np.einsum("kn,km->nm", q.conj(), bq.reshape(dp * dp, -1))
        return float(np.linalg.eigvalsh(gram).max(initial=0.0))

    def compensation(self, lam: float) -> float:
        """Smallest k with +-lam I_1 <= 0.1 N Pbar + k lam^2.  ``k_exact``
        (n_max = 1): I_1 = [[0, B*], [B, 0]] on the vacuum and one-boson
        sectors, so k = sigma^2 / (sqrt(0.0025 + lam^2 sigma^2) + 0.05);
        else ARPACK's ``estimate_small_coupling_bound``, once per lam."""
        if self.k_exact:
            s2 = self.sigma_sq if lam else 0.0
            return float(s2 / (np.sqrt(0.0025 + lam ** 2 * s2) + 0.05))
        from .commutators import estimate_small_coupling_bound
        if lam not in self._compensation:
            self._compensation[lam] = estimate_small_coupling_bound(
                self.params.with_(lam=lam), self, self.commutator(1))
        return self._compensation[lam]

    @property
    def k49(self) -> float:
        """k at the probe lam = 1e-4 (k shrinks with lam): exact if k_exact."""
        return self.compensation(1e-4)

    def domination_floor(self, lam: float, k: float) -> tuple[float, dict]:
        """Min eig of N + lam I_1 - 0.9 Pbar + k lam^2, and a detail: by
        construction (k - compensation(lam)) lam^2 if k_exact; else ARPACK."""
        if self.k_exact:   # compensation's secular equation, no eigenvector
            return (k - self.compensation(lam)) * lam ** 2, {}
        op = DiagPlus(self.number - 0.9 * (1.0 - self.vacuum_proj)
                      + k * lam ** 2, lam, self.commutator(1))
        low, vec = min_eig_hermitian(op, with_vector=True)
        return low, {"residual": float(np.linalg.norm(op @ vec - low * vec))}


class LiouvillianAction:
    """L = L0 + lam I at the coupling of ``params`` over a truncation:
    ``operator`` is diag(L0) + lam I on the factored interaction.  Every
    other attribute (basis, interaction, ...) is the truncation's."""

    def __init__(self, trunc: Truncation, params: ModelParams):
        trunc.check(params)
        self.trunc, self.params = trunc, params

    def __getattr__(self, name):
        return getattr(self.trunc, name)

    @cached_property
    def operator(self) -> DiagPlus:
        return DiagPlus(self.trunc.l0_diag, self.params.lam,
                        self.trunc.interaction)

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        """L psi, without ``LinearOperator.matvec``'s checks."""
        return self.operator._matvec(psi)


def assemble_liouvillian(params: ModelParams,
                         trunc: Truncation | None = None) -> LiouvillianAction:
    """The Liouvillian at the coupling of ``params`` over ``trunc`` (a new
    truncation of ``params`` when none is given)."""
    return LiouvillianAction(trunc or Truncation(params), params)


# ---------------------------------------------------------------------------
# conjugate operator and its finite-rank correction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowRank:
    """Hermitian finite-rank operator U C U*, kept factored (``u`` is
    dim x r, ``c`` a Hermitian r x r matrix)."""

    u: np.ndarray
    c: np.ndarray

    @property
    def shape(self) -> tuple:    # shape and dtype, for aslinearoperator
        return (len(self.u),) * 2

    dtype = property(lambda self: np.result_type(self.u, self.c))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        # einsum, no BLAS call: a threaded rank-4 gemv stalled up to 85 ms
        w = self.c @ np.einsum("ir,i...->r...", self.u.conj(), v)
        return np.einsum("ir,r...->i...", self.u, w)

    __matmul__ = matvec

    def norm(self) -> float:
        """Spectral norm, from R C R* for the thin QR U = Q R."""
        r = np.linalg.qr(self.u, mode="r")
        return float(np.abs(np.linalg.eigvalsh(r @ self.c @ r.conj().T)).max())


@dataclass(frozen=True)
class ConjugateOps:
    correction: LowRank               # the finite-rank Hermitian correction
    correction_comm: LowRank          # i[L, correction], rank <= 4
    pi_index: int


def assemble_conjugates(liou: LiouvillianAction) -> ConjugateOps:
    params, trunc = liou.params, liou.trunc
    k_pi = trunc.basis.vacuum_bound_index()
    r2bar = 1.0 / (trunc.l0_diag ** 2 + params.epsilon ** 2)
    r2bar[k_pi] = 0.0

    e_pi = np.zeros(trunc.basis.dim)
    e_pi[k_pi] = 1.0
    i_epi = trunc.interaction @ e_pi
    x = r2bar * i_epi

    th_lam = params.theta * params.lam
    # i th_lam (|e_pi><x| - |x><e_pi|)
    correction = LowRank(np.column_stack([e_pi, x]),
                         th_lam * np.array([[0, 1j], [-1j, 0]]))

    l_epi = params.lam * i_epi      # L0 annihilates the reference vector
    l_x = trunc.l0_diag * x + params.lam * (trunc.interaction @ x)
    # -th_lam (|L e_pi><x| + |x><L e_pi| - |L x><e_pi| - |e_pi><L x|),
    # real for a real coupling: its field is the interaction's
    correction_comm = LowRank(
        np.column_stack([l_epi, x, l_x, e_pi]),
        -th_lam * np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1],
                            [0, 0, -1, 0]]))

    return ConjugateOps(correction, correction_comm, k_pi)


# ---------------------------------------------------------------------------
# modular conjugation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModularConjugation:
    """Antiunitary involution: swap the particle factors, reflect every
    boson frequency, conjugate all coefficients."""

    perm: np.ndarray

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return np.conj(vec[self.perm])

    def conjugate_operator(self, op, vec: np.ndarray) -> np.ndarray:
        """(J op J) vec without materializing the conjugated matrix."""
        return self.apply(op @ self.apply(vec))


def apply_j(basis: CompositeBasis) -> ModularConjugation:
    fb = basis.fock
    refl = fb.grid.reflection
    index = {state: i for i, state in enumerate(fb.states)}
    fock_perm = np.array([index[tuple(np.asarray(state)[refl])]
                          for state in fb.states], dtype=np.int64)

    # (J psi)[n, j, i] = conj psi[fock_perm[n], i, j]
    flat = basis.as_tensor(np.arange(basis.dim))
    return ModularConjugation(flat[fock_perm].swapaxes(1, 2).ravel())


def check_j(liou: LiouvillianAction) -> BoundReport:
    """J L J = -L on 20 random vectors (relative to ||L|| ||psi||)."""
    conj = apply_j(liou.basis)
    rng, n_vectors = np.random.default_rng(7), 20
    op_norm = operator_norm(liou.operator)
    worst = 0.0
    for _ in range(n_vectors):
        psi = rng.standard_normal(liou.basis.dim) \
            + 1j * rng.standard_normal(liou.basis.dim)
        lhs = conj.conjugate_operator(liou.operator, psi)
        res = np.linalg.norm(lhs + liou.operator @ psi)
        worst = max(worst, res / (op_norm * np.linalg.norm(psi)))
    return BoundReport.of(
        "modular conjugation anticommutes with the Liouvillian", worst, "<=",
        1e-10, detail={"vectors": n_vectors, "norm_bound": op_norm})
