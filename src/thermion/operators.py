"""Assembly of all model operators on the truncated composite basis.

Matrix conventions: a flat composite index is i + dim_p * j + dim_p^2 * n
(left particle fastest), so a composite operator built from per-factor
matrices is kron(fock_op, kron(right_op, left_op)).  Everything flagged
Hermitian is symmetrized bit-exactly after assembly.  Functions embedded on
a grid carry sqrt(weight), which makes the euclidean inner product the
discrete L2 product and keeps every assembled matrix weight-free.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lattice import CompositeBasis, FieldGrid, FockBasis, build_bases
from .flows import VectorField, saturating_profile
from .params import ModelParams
from .reports import BoundReport


def hermitize(m):
    """(M + M*) / 2; bit-level Hermitian because float addition commutes."""
    if sp.issparse(m):
        return ((m + m.conj().T) * 0.5).tocsr()
    return (m + m.conj().T) * 0.5


def hermiticity_defect(m) -> float:
    """max |M - M*| entrywise, exact; the same value in any sparse format
    (DIA has no max, so the difference goes to CSR, a no-op for CSR)."""
    d = m - m.conj().T
    if sp.issparse(d):
        d = d.tocsr()
        return float(abs(d).max()) if d.nnz else 0.0
    return float(np.abs(d).max()) if d.size else 0.0


@dataclass(frozen=True)
class AssembledOperator:
    """Sparse matrix plus provenance; hermitian flag is enforced, not hoped."""

    mat: sp.spmatrix
    hermitian: bool
    provenance: str

    def __post_init__(self):
        if self.hermitian and hermiticity_defect(self.mat) != 0.0:
            raise ValueError(
                f"{self.provenance}: flagged hermitian but is not")


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
    bound_proj: np.ndarray     # diag of rank-one projection on the bound state
    continuum_proj: np.ndarray  # diag of the projection onto the continuum
    comparison: np.ndarray     # diag of H_p * P_continuum + 1  (>= 1)
    xi_of_h: np.ndarray        # diag of xi(e / a) on the continuum, 0 on bound
    flow_gen: np.ndarray       # dense Hermitian dilation generator


def assemble_particle_ops(params: ModelParams, basis: CompositeBasis,
                          profile: VectorField | None = None) -> ParticleOps:
    profile = profile or saturating_profile()
    grid = basis.left.grid
    energies = basis.left.energies
    dp = basis.left.dim
    bound = np.zeros(dp)
    bound[0] = 1.0
    cont = 1.0 - bound
    comparison = energies * cont + 1.0
    xi_diag = np.concatenate(([0.0], np.asarray(
        profile.xi(grid.nodes / params.a), float)))

    d = central_difference(grid.nodes, grid.weight)
    xs = np.asarray(profile.xi(grid.nodes / params.a), float)
    a_cont = 0.5j * (np.diag(xs) @ d + d @ np.diag(xs))
    flow_gen = np.zeros((dp, dp), dtype=complex)
    flow_gen[1:, 1:] = a_cont
    flow_gen = hermitize(flow_gen)
    return ParticleOps(energies, bound, cont, comparison, xi_diag, flow_gen)


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


def raising_op(fb: FockBasis, f: np.ndarray) -> sp.csr_matrix:
    """a*(f); adjoint of the truncated a(f), so amplitudes leaving the top
    occupation sector are dropped (hard cutoff)."""
    return lowering_op(fb, f).conj().T.tocsr()


def field_op(fb: FockBasis, f: np.ndarray) -> sp.csr_matrix:
    """phi(f) = (a*(f) + a(f)) / sqrt(2), Hermitian on the truncation."""
    low = lowering_op(fb, f)
    return hermitize((low + low.conj().T) / np.sqrt(2.0))


def momentum_op(fb: FockBasis, f: np.ndarray) -> sp.csr_matrix:
    """i (a(f) - a*(f)) / sqrt(2); shows up in the number-commutator."""
    low = lowering_op(fb, f)
    return hermitize(1j * (low - low.conj().T) / np.sqrt(2.0))


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

def kron3(fock_op, right_op, left_op) -> sp.csr_matrix:
    """Composite operator in the flat convention (left index fastest)."""
    return sp.kron(fock_op, sp.kron(right_op, left_op, format="csr"),
                   format="csr")


@dataclass(frozen=True)
class CouplingVectors:
    """Embedded smearing vectors of one interaction term and its modular
    image; the image is conj-reflection of the original and equals
    -exp(-beta u / 2) times it nodewise."""

    direct: np.ndarray
    image: np.ndarray


def coupling_vectors(params: ModelParams, grid: FieldGrid) -> CouplingVectors:
    f1 = glue_tau_beta(lambda u: params.form_factor(u), grid, params.beta)
    return CouplingVectors(f1, reflect_conjugate(f1, grid))


@dataclass(frozen=True)
class LiouvillianOps:
    basis: CompositeBasis
    l0_diag: np.ndarray
    interaction: sp.csr_matrix
    liouvillian: sp.csr_matrix
    number_comm: sp.csr_matrix  # the D operator: i[L, N] in closed form
    number: np.ndarray          # diag of 1 x 1 x N
    vacuum_proj: np.ndarray     # diag of 1 x 1 x P_Omega
    comparison: np.ndarray      # diag of the GJN comparison operator
    coupling: np.ndarray        # the particle coupling matrix
    vectors: CouplingVectors


def interaction_terms(params: ModelParams, basis: CompositeBasis):
    """The two tensor-product pieces of the interaction.

    The second piece is the modular image of the first, so the assembled
    operator anticommutes with the modular conjugation; its smearing vector
    is -exp(-beta u/2) tau_beta(g), i.e. the sign convention is fixed by
    requiring J L J = -L exactly (checked in apply_j tests) rather than by
    choosing signs per factor.
    """
    g = coupling_matrix(params, basis)
    vecs = coupling_vectors(params, basis.fock.grid)
    phi_direct = field_op(basis.fock, vecs.direct)
    phi_image = field_op(basis.fock, vecs.image)
    ident_p = sp.identity(basis.left.dim, format="csr", dtype=complex)
    gs = sp.csr_matrix(g)
    term1 = kron3(phi_direct, ident_p, gs)
    term2 = kron3(phi_image, sp.csr_matrix(np.conj(g)), ident_p)
    return g, vecs, term1, term2


def assemble_liouvillian(params: ModelParams,
                         basis: CompositeBasis | None = None) -> LiouvillianOps:
    basis = basis or build_bases(params)
    part = assemble_particle_ops(params, basis)
    fops = assemble_field_ops(basis.fock)

    e = part.h
    occ_en = fops.dgamma_u
    l0 = (occ_en[:, None, None] + e[None, None, :] - e[None, :, None]).ravel()

    g, vecs, term1, term2 = interaction_terms(params, basis)
    interaction = hermitize(term1 - term2)
    if hermiticity_defect(interaction) != 0.0:
        raise ValueError("assembled interaction is not Hermitian")

    liou = hermitize(sp.diags(l0.astype(complex)) + params.lam * interaction)

    pi_d = momentum_op(basis.fock, vecs.direct)
    pi_i = momentum_op(basis.fock, vecs.image)
    ident_p = sp.identity(basis.left.dim, format="csr", dtype=complex)
    gs = sp.csr_matrix(g)
    number_comm = hermitize(params.lam * (
        kron3(pi_d, ident_p, gs) - kron3(pi_i, sp.csr_matrix(np.conj(g)),
                                         ident_p)))

    dp = basis.left.dim
    ones_p = np.ones(dp)
    number = np.kron(fops.number, np.ones(dp * dp))
    vac = np.kron((fops.number == 0).astype(float), np.ones(dp * dp))
    comparison = (
        np.kron(np.ones(basis.fock.dim), np.kron(ones_p, part.comparison))
        + np.kron(np.ones(basis.fock.dim), np.kron(part.comparison, ones_p))
        + np.kron(fops.comparison, np.ones(dp * dp)))

    return LiouvillianOps(basis, l0, interaction, liou, number_comm, number,
                          vac, comparison, g, vecs)


# ---------------------------------------------------------------------------
# conjugate operator and its finite-rank correction
# ---------------------------------------------------------------------------

def sparse_outer(u: np.ndarray, v: np.ndarray, tol: float = 0.0):
    """|u><v| as a sparse matrix, dropping exact zeros."""
    un = np.flatnonzero(u != 0 if tol == 0 else np.abs(u) > tol)
    vn = np.flatnonzero(v != 0 if tol == 0 else np.abs(v) > tol)
    rows = np.repeat(un, len(vn))
    cols = np.tile(vn, len(un))
    data = (u[un][:, None] * np.conj(v[vn])[None, :]).ravel()
    return sp.csr_matrix((data, (rows, cols)), shape=(len(u), len(v)))


@dataclass(frozen=True)
class ConjugateOps:
    particle_gen: np.ndarray          # Hermitian flow generator on H_p
    full: sp.csr_matrix               # left - right + field translation
    resolvent2: np.ndarray            # diag of (L0^2 + eps^2)^{-1}, 0 at Pi
    correction: sp.csr_matrix         # the finite-rank Hermitian correction
    correction_comm: sp.csr_matrix    # i[L, correction], rank <= 4
    pi_index: int


def assemble_conjugates(params: ModelParams, liou: LiouvillianOps,
                        profile: VectorField | None = None) -> ConjugateOps:
    if params.epsilon <= 0:
        raise ValueError("epsilon must be positive")
    basis = liou.basis
    part = assemble_particle_ops(params, basis, profile)
    fops = assemble_field_ops(basis.fock)

    ap = sp.csr_matrix(part.flow_gen)
    ident_p = sp.identity(basis.left.dim, format="csr", dtype=complex)
    ident_f = sp.identity(basis.fock.dim, format="csr", dtype=complex)
    full = hermitize(kron3(ident_f, ident_p, ap) - kron3(ident_f, ap, ident_p)
                     + kron3(fops.translation_gen, ident_p, ident_p))

    k_pi = basis.vacuum_bound_index()
    r2 = 1.0 / (liou.l0_diag ** 2 + params.epsilon ** 2)
    r2bar = r2.copy()
    r2bar[k_pi] = 0.0

    e_pi = np.zeros(basis.dim, dtype=complex)
    e_pi[k_pi] = 1.0
    i_epi = liou.interaction @ e_pi
    x = r2bar * i_epi

    th_lam = params.theta * params.lam
    correction = hermitize(1j * th_lam * (sparse_outer(e_pi, x)
                                          - sparse_outer(x, e_pi)))

    l_epi = params.lam * i_epi      # L0 annihilates the reference vector
    l_x = liou.l0_diag * x + params.lam * (liou.interaction @ x)
    correction_comm = hermitize(-th_lam * (
        sparse_outer(l_epi, x) + sparse_outer(x, l_epi)
        - sparse_outer(l_x, e_pi) - sparse_outer(e_pi, l_x)))

    return ConjugateOps(part.flow_gen, full, r2bar, correction,
                        correction_comm, k_pi)


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


def check_j(liou: LiouvillianOps, n_vectors: int = 20, seed: int = 7,
            tol: float = 1e-10) -> BoundReport:
    """J L J = -L on random vectors (relative to ||L|| ||psi||)."""
    conj = apply_j(liou.basis)
    rng = np.random.default_rng(seed)
    op_norm = float(abs(liou.liouvillian).sum(axis=1).max())  # cheap upper bd
    worst = 0.0
    for _ in range(n_vectors):
        psi = rng.standard_normal(liou.basis.dim) \
            + 1j * rng.standard_normal(liou.basis.dim)
        lhs = conj.conjugate_operator(liou.liouvillian, psi)
        res = np.linalg.norm(lhs + liou.liouvillian @ psi)
        worst = max(worst, res / (op_norm * np.linalg.norm(psi)))
    return BoundReport(
        check="modular conjugation anticommutes with the Liouvillian",
        value=worst, bound=tol, slack=tol - worst, passed=bool(worst <= tol),
        detail={"vectors": n_vectors, "norm_bound": op_norm})


# ---------------------------------------------------------------------------
# matrix-free application (for time evolution at large dimension)
# ---------------------------------------------------------------------------

class LiouvillianAction:
    """Matrix-free L psi via tensor contractions; avoids materializing the
    interaction when dim_p^2 * dim_F is large."""

    def __init__(self, params: ModelParams, basis: CompositeBasis | None = None):
        self.basis = basis or build_bases(params)
        self.params = params
        part = assemble_particle_ops(params, self.basis)
        fops = assemble_field_ops(self.basis.fock)
        e = part.h
        self.l0 = (fops.dgamma_u[:, None, None] + e[None, None, :]
                   - e[None, :, None]).ravel()
        self.g = coupling_matrix(params, self.basis)
        self.g_bar = np.conj(self.g)
        vecs = coupling_vectors(params, self.basis.fock.grid)
        self.vectors = vecs
        self.phi_direct = field_op(self.basis.fock, vecs.direct)
        self.phi_image = field_op(self.basis.fock, vecs.image)
        self.dim = self.basis.dim

    def interaction_matvec(self, psi: np.ndarray) -> np.ndarray:
        b = self.basis
        t = psi.reshape(b.fock.dim, b.right.dim, b.left.dim)
        t1 = t @ self.g.T                       # coupling on the left factor
        t1 = (self.phi_direct @ t1.reshape(b.fock.dim, -1)).reshape(t.shape)
        t2 = np.matmul(self.g_bar, t)           # on the right factor
        t2 = (self.phi_image @ t2.reshape(b.fock.dim, -1)).reshape(t.shape)
        return (t1 - t2).ravel()

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        return self.l0 * psi + self.params.lam * self.interaction_matvec(psi)

    def __matmul__(self, psi):
        return self.matvec(psi)
