"""Assembly of all model operators on the truncated composite basis.

Matrix conventions: a flat composite index is i + dim_p * j + dim_p^2 * n
(left particle fastest), so a composite operator built from per-factor
matrices is kron(fock_op, kron(right_op, left_op)), kept factored as a
``KronSum``.  Every factor flagged Hermitian is symmetrized bit-exactly
after assembly.  Functions embedded on
a grid carry sqrt(weight), which makes the euclidean inner product the
discrete L2 product and keeps every assembled matrix weight-free.

Every operator is assembled once per truncation; lam, theta and epsilon
only combine the parts.  A ``Truncation`` (grids, beta, a, form factor,
kernel) builds each operator on first use and keeps it: the interaction,
its commutators with the conjugate operator and with N, and the
conjugate operator itself in factored form (``KronSum``), the diagonals,
and the compensation constant per coupling (k49 at the probe coupling).
No composite matrix is formed.  A ``LiouvillianAction`` is
L = L0 + lam I over a truncation, and ``assemble_conjugates`` adds the
theta- and epsilon-dependent finite-rank corrections.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .lattice import CompositeBasis, FieldGrid, FockBasis, build_bases
from .flows import saturating_profile
from .linalg import DiagPlus, operator_norm
from .params import ModelParams
from .reports import BoundReport


def hermitize(m):
    """(M + M*) / 2; bit-level Hermitian because float addition commutes.
    A dense stack is symmetrised over its last two axes."""
    if sp.issparse(m):
        return ((m + m.conj().T) * 0.5).tocsr()
    return (m + m.conj().swapaxes(-1, -2)) * 0.5


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M*| entrywise of a dense matrix, exact."""
    return float(np.abs(m - m.conj().T).max())


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
    column Gamma(e) sqrt(de), continuum block K(e, e') de."""
    grid = basis.left.grid
    e = grid.nodes
    de = grid.weight
    ker = params.kernel
    dp = basis.left.dim
    g = np.zeros((dp, dp), dtype=complex)
    g[0, 0] = ker.g_ee
    col = np.asarray(ker.gamma(e), dtype=complex)
    g[1:, 0] = col * np.sqrt(de)
    g[0, 1:] = np.conj(col) * np.sqrt(de)
    kblock = np.asarray(ker.k(e[:, None], e[None, :]), dtype=complex)
    g[1:, 1:] = kblock * de
    if hermiticity_defect(g) > 1e-12 * max(1.0, np.abs(g).max()):
        raise ValueError("kernel violates Hermitian symmetry")
    return hermitize(g)


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
    flow_gen = hermitize(flow_gen)
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
    occupation basis (maps the N = n sector into N = n - 1)."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (fb.grid.n_u,):
        raise ValueError("smearing vector lives on the wrong grid")
    rows, cols, data = [], [], []
    for c, state in enumerate(fb.states):
        for k, occ in enumerate(state):
            if occ == 0 or f[k] == 0.0:
                continue
            target = list(state)
            target[k] -= 1
            r = fb.index[tuple(target)]
            rows.append(r)
            cols.append(c)
            data.append(np.conj(f[k]) * np.sqrt(occ))
    return sp.csr_matrix((data, (rows, cols)), shape=(fb.dim, fb.dim),
                         dtype=complex)


def field_op(fb: FockBasis, f: np.ndarray) -> sp.csr_matrix:
    """phi(f) = (a*(f) + a(f)) / sqrt(2), Hermitian on the truncation."""
    low = lowering_op(fb, f)
    return hermitize((low + low.conj().T) / np.sqrt(2.0))


def second_quantized_diag(fb: FockBasis, mode_values: np.ndarray) -> np.ndarray:
    """Diagonal of dGamma(diag(m)): sum_k occ_k m_k per basis state."""
    mv = np.asarray(mode_values, float)
    return np.array([float(np.dot(state, mv)) for state in fb.states])


def second_quantized(fb: FockBasis, one_mode: sp.spmatrix) -> sp.csr_matrix:
    """dGamma(B) = sum_{kl} B[k,l] a*_k a_l for a general one-mode matrix."""
    b = sp.coo_matrix(one_mode)
    by_col = {}
    for k, l, v in zip(b.row, b.col, b.data):
        by_col.setdefault(l, []).append((k, v))
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
                rows.append(fb.index[tuple(target)])
                cols.append(c)
                data.append(v * amp)
    return sp.csr_matrix((data, (rows, cols)), shape=(fb.dim, fb.dim),
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
    a_f = hermitize(second_quantized(fb, sp.csr_matrix(1j * d)))
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


class KronSum:
    """A sum S of Kronecker products fock x right x left, kept factored,
    with ``phase`` p * S Hermitian: ``terms`` are (fock, right, left) with
    a sparse Fock-space factor and dense particle factors, None standing
    for the identity; a factor with zero imaginary part is stored real
    (see ``dtype``).  ``@`` applies S; the phase is held outside (p = 1j
    keeps the purely imaginary i[I, N] on real factors), so S* = p^2 S."""

    def __init__(self, basis: CompositeBasis, terms, phase: complex = 1):
        self.basis, self.shape, self.phase = basis, (basis.dim,) * 2, phase
        self.terms = tuple(tuple(
            m if m is None or (m.data if sp.issparse(m) else m).imag.any()
            else m.real for m in term) for term in terms)
        self.dtype = np.result_type(*(m.dtype for term in self.terms
                                      for m in term if m is not None))

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        """Tensor contraction; no composite matrix is formed.  A (dim, k)
        block is contracted at once, its columns a batch axis."""
        nf, dp, cols = self.basis.fock.dim, self.basis.left.dim, psi.shape[1:]
        t = np.ascontiguousarray(psi.reshape(nf, dp * dp, *cols).swapaxes(
            1, -1), np.result_type(psi, self.dtype)).reshape(nf, *cols, dp, dp)
        out = None
        for fock, right, left in self.terms:
            s = t if left is None else t @ left.T
            s = s if right is None else np.matmul(right, s)
            s = s.reshape(nf, -1)
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


def pair_diag(basis: CompositeBasis, diag_p: np.ndarray,
              sign: float = 1.0) -> np.ndarray:
    """Diagonal of 1 x 1 x d + sign 1 x d x 1: a particle diagonal on the
    left factor plus (or minus) it on the right."""
    ones_f, ones_p = np.ones(basis.fock.dim), np.ones(basis.left.dim)
    return (np.kron(ones_f, np.kron(ones_p, diag_p))
            + sign * np.kron(ones_f, np.kron(diag_p, ones_p)))


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
        return (self.field.dgamma_u[:, None, None] + e[None, None, :]
                - e[None, :, None]).ravel()

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
        """Diagonal of 1 x 1 x N."""
        return np.kron(self.field.number, np.ones(self.basis.left.dim ** 2))

    @cached_property
    def vacuum_proj(self) -> np.ndarray:
        """Diagonal of 1 x 1 x P_Omega."""
        return np.kron((self.field.number == 0).astype(float),
                       np.ones(self.basis.left.dim ** 2))

    @cached_property
    def comparison(self) -> np.ndarray:
        """Diagonal of the GJN comparison operator."""
        return (pair_diag(self.basis, self.particle.comparison)
                + np.kron(self.field.comparison,
                          np.ones(self.basis.left.dim ** 2)))

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

    def compensation(self, lam: float) -> float:
        """The small-coupling compensation constant at coupling lam
        (``estimate_small_coupling_bound`` with the factored I_1, solved
        matrix-free: no CSR of I_1 is built), once per lam."""
        from .commutators import estimate_small_coupling_bound
        if lam not in self._compensation:
            self._compensation[lam] = estimate_small_coupling_bound(
                self.params.with_(lam=lam), self, self.commutator(1))
        return self._compensation[lam]

    @property
    def k49(self) -> float:
        """The compensation constant at the probe coupling lam = 1e-4 (it
        only shrinks with the coupling)."""
        return self.compensation(1e-4)


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
        return self.operator.matvec(psi)


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

    basis: CompositeBasis
    perm: np.ndarray

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return np.conj(vec[self.perm])

    def conjugate_operator(self, op, vec: np.ndarray) -> np.ndarray:
        """(J op J) vec without materializing the conjugated matrix."""
        return self.apply(op @ self.apply(vec))


def apply_j(basis: CompositeBasis) -> ModularConjugation:
    fb = basis.fock
    refl = fb.grid.reflection
    fock_perm = np.empty(fb.dim, dtype=np.int64)
    for idx, state in enumerate(fb.states):
        reflected = tuple(np.asarray(state)[refl])
        fock_perm[idx] = fb.index[reflected]

    dp = basis.left.dim
    i = np.arange(dp)
    j = np.arange(dp)
    n = np.arange(fb.dim)
    ii, jj, nn = np.meshgrid(i, j, n, indexing="ij")
    flat = (ii + dp * jj + dp * dp * nn).ravel()
    target = (jj + dp * ii + dp * dp * fock_perm[nn]).ravel()
    perm = np.empty(basis.dim, dtype=np.int64)
    perm[flat] = target
    return ModularConjugation(basis, perm)


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
