"""Golden-rule decay constant by quadrature, plus hypothesis checkers.

The rate constant is a double integral: thermal weight times squared form
factor in the emitted frequency, against the squared bound-continuum
coupling smeared by a Lorentzian in the continuum energy.  The regularized
form (finite Lorentzian width) has an adaptive quadrature and a
Richardson-refined midpoint oracle, which ``run_fgr`` compares at its
first width; the width-to-zero limit is adaptive here, and its midpoint
oracle lives in the tests.  The regularized oracle puts both variables on
one spacing, so its inner sum is one FFT correlation.

The adaptive quadrature is thermion's own batched G10K21: QUADPACK's
21-point Gauss-Kronrod rule and error estimate, globally adaptive, over a
batch of integrals whose pending subintervals are evaluated in one array
call per round.  The inner integrals of the regularized form at all outer
nodes of a round are one batch, and so are the kernel integrals.

Note the exact zero-width limit carries a factor pi from the Lorentzian
mass: integral of w / ((x)^2 + w^2) dx = pi.  Without it the two forms
would not converge to each other at rate O(width).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .reports import BoundReport

TINY_REL = 1e-16

# QUADPACK's qk21 (Piessens et al. 1983): the 21-point Kronrod nodes on
# [0, 1] and their weights, and the weights of the 10-point Gauss rule on
# the odd-indexed ones
_XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
        0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
        0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
        0.14887433898163122, 0.0)
_WGK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
        0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
        0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
        0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
       0.26926671930999635, 0.29552422471475287)
# the same on [-1, 1], nodes ascending; the Gauss weights are 0 off its nodes
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_W_KRONROD = np.array(_WGK[:-1] + _WGK[::-1])
_W_GAUSS = np.zeros(21)
_W_GAUSS[1:10:2] = _W_GAUSS[19:10:-2] = _WG
# the tolerances of every adaptive integral here (QUADPACK's defaults in
# scipy.integrate.quad) and the most subintervals one integral may use
EPSABS = EPSREL = 1.49e-8
LIMIT = 200


def _gk21(f, a, b, owner):
    """The 21-point Kronrod sums and QUADPACK's error estimate on the
    intervals [a, b] at once.  f(x, owner) evaluates each interval's batch
    member at its nodes x, shape (n, 21); it may return trailing columns,
    shape (n, 21, c), which are integrated alongside the first (the error
    estimate reads only the first).  Returns sums (n, c) and errors (n,)."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    fx = f(centre[:, None] + half[:, None] * _NODES, owner)
    fx = fx.reshape(fx.shape[:2] + (-1,))
    # elementwise contractions, so no BLAS thread count moves the bits
    resk = np.einsum("ijc,j->ic", fx, _W_KRONROD)
    f0, k0 = fx[:, :, 0], resk[:, 0]
    resg = np.einsum("ij,j->i", f0, _W_GAUSS)
    resabs = np.einsum("ij,j->i", np.abs(f0), _W_KRONROD) * half
    resasc = np.einsum("ij,j->i", np.abs(f0 - 0.5 * k0[:, None]),
                       _W_KRONROD) * half
    err = np.abs((k0 - resg) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    eps = np.finfo(float).eps
    err = np.where(resabs > np.finfo(float).tiny / (50 * eps),
                   np.maximum(50 * eps * resabs, err), err)
    return resk * half[:, None], err


def _integrate(f, a, b, owner, n_members, refuse=True):
    """Globally adaptive G10K21 over a batch: member k integrates f over
    the intervals [a[i], b[i]] (a < b) with owner[i] == k; breakpoints go
    between them.

    Each round evaluates every new subinterval of every member in one call
    of f (see ``_gk21``).  A member has converged when its summed error
    estimate is at most max(EPSABS, EPSREL |value|); until then each of its
    subintervals whose estimate exceeds that tolerance over its interval
    count is bisected.  A member that would need more than LIMIT
    subintervals is refused; with ``refuse`` false it stops there and its
    values read nan.  Returns values (n_members, c) and errors (n_members,).
    """
    a, b, k = np.asarray(a, float), np.asarray(b, float), np.asarray(owner)
    res, err = _gk21(f, a, b, k)
    stopped = np.zeros(n_members, bool)
    while True:
        val = np.stack([np.bincount(k, col, n_members) for col in res.T], -1)
        tot_err = np.bincount(k, err, n_members)
        tol = np.maximum(EPSABS, EPSREL * np.abs(val[:, 0]))
        count = np.bincount(k, minlength=n_members)
        # ~(e <= tol) rather than e > tol: a nan estimate is unconverged
        split = ~(tot_err <= tol)[k] & ~(err <= (tol / count)[k]) & ~stopped[k]
        if not split.any():
            val[stopped] = np.nan
            return val, tot_err
        over = count + np.bincount(k[split], minlength=n_members) > LIMIT
        if over.any():
            if refuse:
                raise RuntimeError(
                    f"adaptive quadrature: batch member "
                    f"{int(np.argmax(over))} needs more than {LIMIT} "
                    f"subintervals")
            stopped |= over
            continue
        keep, mid = ~split, 0.5 * (a[split] + b[split])
        a_new = np.concatenate([a[split], mid])
        b_new = np.concatenate([mid, b[split]])
        k_new = np.tile(k[split], 2)
        res_new, err_new = _gk21(f, a_new, b_new, k_new)
        a = np.concatenate([a[keep], a_new])
        b = np.concatenate([b[keep], b_new])
        k = np.concatenate([k[keep], k_new])
        res = np.concatenate([res[keep], res_new])
        err = np.concatenate([err[keep], err_new])


@dataclass
class FgrResult:
    gamma_eps: dict            # width -> value
    gamma_limit: float
    cutoffs: dict


def thermal_factor(omega, beta):
    """omega^2 / (e^{beta omega} - 1), evaluated stably."""
    omega = np.asarray(omega, float)
    with np.errstate(over="ignore"):
        return omega ** 2 / np.expm1(beta * omega)


def _cutoff(weight, fallback: float) -> float:
    """First node of a log grid on [1e-3, 400] past the last value of
    ``weight`` above TINY_REL of its peak; ``fallback`` for a zero weight."""
    x = np.geomspace(1e-3, 400.0, 4000)
    vals = weight(x)
    if vals.max() == 0.0:
        return fallback
    keep = np.flatnonzero(vals > TINY_REL * vals.max())
    return float(x[min(keep[-1] + 1, len(x) - 1)])


def _freq_cutoff(params: ModelParams) -> float:
    """Frequency beyond which the integrand is below TINY_REL of its peak."""
    return _cutoff(lambda om: thermal_factor(om, params.beta)
                   * np.abs(params.form_factor(om)) ** 2,
                   max(10.0, -1.5 * params.bound_energy))


def _energy_cutoff(params: ModelParams) -> float:
    return _cutoff(lambda e: np.abs(params.kernel.gamma(e)) ** 2, 10.0)


def _freq_weight(params: ModelParams, omega):
    g = params.form_factor(omega)
    return (params.angular_weight * thermal_factor(omega, params.beta)
            * np.abs(g) ** 2)


def _freq_range(params: ModelParams) -> tuple:
    """The frequency range (-E, om_hi) of the outer integral."""
    lo = -params.bound_energy
    return lo, max(_freq_cutoff(params), lo * 1.5)


def gamma_regularized(params: ModelParams, eps: float) -> float:
    """Finite-width rate constant, by adaptive quadrature:

        int_{-E}^{inf} dw dSigma  w^2/(e^{bw}-1) |g(w)|^2
            int_0^inf de  eps / ((e - E - w)^2 + eps^2) |Gamma(e)|^2
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo, om_hi = _freq_range(params)
    e_hi = _energy_cutoff(params) + om_hi
    gamma, eps2 = params.kernel.gamma, eps ** 2

    def outer(omega, _owner):
        # one inner integral per node, each split at max(x, 0); returns
        # w times the inner values and w times their error estimates
        x = params.bound_energy + omega.ravel()
        bp, n = np.maximum(x, 0.0), x.size
        cut = np.flatnonzero(bp > 0)

        def inner(e, k):
            return eps / ((e - x[k, None]) ** 2 + eps2) * np.abs(gamma(e)) ** 2
        val, err = _integrate(inner, np.concatenate([np.zeros(cut.size), bp]),
                              np.concatenate([bp[cut], np.full(n, e_hi)]),
                              np.concatenate([cut, np.arange(n)]), n)
        w = _freq_weight(params, omega)[..., None]
        return w * np.stack([val[:, 0], err], -1).reshape(omega.shape + (2,))

    ((val, inner_err),), (err,) = _integrate(outer, [lo], [om_hi], [0], 1)
    # the inner errors, integrated by the outer rule, count against the gate
    err += inner_err
    if not np.isfinite(val) or not err <= 1e-6 * abs(val) + 1e-12:
        raise RuntimeError(f"outer quadrature failed: est. error {err}")
    return float(val)


def gamma_regularized_midpoint(params: ModelParams, eps: float) -> float:
    """The same constant by the midpoint oracle, on the same ranges."""
    lo, om_hi = _freq_range(params)
    return _gamma_reg_midpoint(params, eps, lo, om_hi,
                               _energy_cutoff(params) + om_hi)


def _gamma_reg_midpoint(params: ModelParams, eps, lo, om_hi, e_hi,
                        n: int = 6144) -> float:
    """Richardson-extrapolated midpoint double sum (independent oracle).

    Both axes share the spacing h = (om_hi - lo) / m: m frequency midpoints
    and m_e = ceil(e_hi / h) energy midpoints, so the energy grid ends less
    than h past e_hi.  Then e_j - x_i = (j - i) h - (E + lo), the
    Lorentzian matrix is Toeplitz, and its product with |Gamma(e_j)|^2 is
    one correlation against the m + m_e - 1 lags, done by FFT.  Any length
    nfft >= m + m_e - 1 keeps the lags read from wrapping around; the sum
    takes O(m log m) time and O(m + m_e) memory.
    """
    def riemann(m):
        h = (om_hi - lo) / m
        m_e = math.ceil(e_hi / h)
        om = lo + (np.arange(m) + 0.5) * h
        e = (np.arange(m_e) + 0.5) * h
        wj = _freq_weight(params, om)
        ge2 = np.abs(params.kernel.gamma(e)) ** 2
        # lags j - i from m_e - 1 down to 1 - m: the convolution's entry
        # m_e - 1 + i is then sum_j lor(j - i) ge2[j]
        d = np.arange(m_e - 1, -m, -1) * h - (params.bound_energy + lo)
        lor = eps / (d * d + eps ** 2)
        nfft = _fast_len(m + m_e - 1)
        conv = np.fft.irfft(np.fft.rfft(lor, nfft) * np.fft.rfft(ge2, nfft),
                            nfft)
        return float(wj @ conv[m_e - 1:m_e - 1 + m]) * h * h

    s1 = riemann(n // 2)
    s2 = riemann(n)
    return (4.0 * s2 - s1) / 3.0


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, the length scipy.fft.next_fast_len
    picks for a real transform."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def gamma_limit(params: ModelParams) -> float:
    """Zero-width limit (factor pi included, see module docstring), by
    adaptive quadrature:

        pi * int_{-E}^{inf} dw dSigma  w^2/(e^{bw}-1)
             |g(w)|^2 |Gamma(E + w)|^2
    """
    lo, om_hi = _freq_range(params)

    def f(omega, _owner):
        return (_freq_weight(params, omega)
                * np.abs(params.kernel.gamma(params.bound_energy + omega))**2)

    ((val,),), (err,) = _integrate(f, [lo], [om_hi], [0], 1)
    if not np.isfinite(val) or not err <= 1e-6 * abs(val) + 1e-12:
        raise RuntimeError(f"quadrature failed: est. error {err}")
    return math.pi * float(val)


def eps_convergence(result: FgrResult) -> BoundReport:
    """|gamma_eps - gamma_limit| <= C * eps with C read off the data, over
    the widths of a ``golden_rule`` bundle; the honest content is that the
    per-eps ratios stay bounded (linear decay)."""
    glim = result.gamma_limit
    diffs = {e: abs(g - glim) for e, g in result.gamma_eps.items()}
    ratios = np.array([d / e for e, d in diffs.items()])
    big_c = float(ratios.max())
    spread = float(ratios.max() / max(ratios.min(), 1e-300))
    return BoundReport.of(
        "regularized rate converges linearly in the width", spread, "<=", 3.0,
        also=np.all(np.isfinite(ratios)),
        detail={"gamma_limit": glim, "C": big_c,
                "diffs": {str(e): d for e, d in diffs.items()}})


def golden_rule(params: ModelParams,
                eps_list=(0.2, 0.1, 0.05, 0.025)) -> FgrResult:
    res = FgrResult(gamma_eps={}, gamma_limit=gamma_limit(params),
                    cutoffs={"omega": _freq_cutoff(params),
                             "energy": _energy_cutoff(params)})
    for e in eps_list:
        res.gamma_eps[e] = gamma_regularized(params, e)
    return res


# ---------------------------------------------------------------------------
# operator-side cross check
# ---------------------------------------------------------------------------

def operator_side_rate(params: ModelParams, eps: float) -> float:
    """eps times the reference-state matrix element of I Rbar_eps^2 I on the
    assembled truncation, restricted to each term's resonant frequency
    half-line (below the bound energy for the direct term, mirrored for
    the modular image; this is the domain restriction under which the
    matrix element reproduces the quadrature rate as the width shrinks)."""
    from .operators import Truncation

    trunc = Truncation(params)
    basis = trunc.basis
    e_pi = np.zeros(basis.dim, dtype=complex)
    e_pi[basis.vacuum_bound_index()] = 1.0
    t = basis.as_tensor(trunc.interaction @ e_pi)
    l0 = basis.as_tensor(trunc.l0_diag)

    # single-boson frequency of each Fock state (nan on other sectors): the
    # sources of the annihilations into the vacuum
    r, c, k, _ = basis.fock.annihilations.T
    freq = np.full(basis.fock.dim, np.nan)
    freq[c[r == 0]] = basis.fock.grid.nodes[k[r == 0]]

    e_bound = params.bound_energy
    with np.errstate(invalid="ignore"):
        win_direct = freq < e_bound
        win_image = freq > -e_bound
    r2 = 1.0 / (l0 ** 2 + eps ** 2)
    s_direct = np.sum((np.abs(t[:, 0, 1:]) ** 2
                       * r2[:, 0, 1:])[win_direct, :])
    s_image = np.sum((np.abs(t[:, 1:, 0]) ** 2
                      * r2[:, 1:, 0])[win_image, :])
    return float(eps * (s_direct + s_image))


def operator_vs_quadrature(params: ModelParams, eps: float) -> BoundReport:
    """Assembled-operator rate against the quadrature rate."""
    ops = operator_side_rate(params, eps)
    quad_val = gamma_regularized(params, eps)
    rel = abs(ops - quad_val) / abs(quad_val)
    return BoundReport.of(
        "assembled resolvent rate matches quadrature", rel, "<=", 0.05,
        detail={"operator_side": ops, "quadrature": quad_val, "eps": eps,
                "n_e": params.n_e, "n_u": params.n_u})


# ---------------------------------------------------------------------------
# hypothesis checkers
# ---------------------------------------------------------------------------

# the envelope constants of check_ir_uv
UV_EXPONENT = 4.0
K1, K2 = 0.5, 4.0
BIG_K1, BIG_K2 = 8.0, 2.0e6


def check_ir_uv(params: ModelParams) -> BoundReport:
    """Infrared / ultraviolet envelopes of the form factor g and its
    derivatives j = 0..4: |g^(j)(w)| <= K2 w^(p-j) below K1 = 0.5 (K2 = 4)
    and <= BIG_K2 w^(-q-j) above BIG_K1 = 8 (BIG_K2 = 2e6, q = UV_EXPONENT
    = 4).  The infrared exponent p is the profile's power; the hypotheses
    need p > 2, and q > 3.5, which q = 4 meets."""
    ff = params.form_factor
    p = ff.power
    worst = np.inf
    detail = {}
    low = np.geomspace(1e-6, K1 * (1 - 1e-9), 200)
    for j in range(5):
        margin = K2 * low ** (p - j) - np.abs(ff(low, j))
        worst = min(worst, float(margin.min()))
        detail[f"ir_d{j}"] = float(margin.min())
    high = np.geomspace(BIG_K1 * (1 + 1e-9), BIG_K1 * 50, 200)
    for j in range(5):
        margin = BIG_K2 * high ** (-UV_EXPONENT - j) - np.abs(ff(high, j))
        worst = min(worst, float(margin.min()))
        detail[f"uv_d{j}"] = float(margin.min())
    detail.update(ir_exponent=p, uv_exponent=UV_EXPONENT)
    return BoundReport.of(
        "form factor infrared/ultraviolet envelopes", -worst, "<=", 0.0,
        also=p > 2, detail=detail)


def check_kernel_integrals(params: ModelParams) -> BoundReport:
    """Weighted square-integrability of the coupling kernel and its
    derivatives for all index combinations with total order <= 3, plus the
    energy-weighted block."""
    ker = params.kernel
    e_hi = _energy_cutoff(params)
    # e^(-2 m1) |Gamma^(m2)(e)|^2 for m1 + m2 <= 3, then e^2 |Gamma(e)|^2,
    # as one batch
    orders = [(m1, m2) for m1 in range(4) for m2 in range(4 - m1)] + [(-1, 0)]
    m1, m2 = (np.array(v) for v in zip(*orders))

    def f(e, owner):
        d2 = np.abs(np.stack([ker.gamma(e, m) for m in range(4)])) ** 2
        return e ** (-2 * m1[owner, None]) * d2[m2[owner], np.arange(len(e))]
    n = len(orders)
    # bisection towards a divergence at 0 needs more than LIMIT subintervals
    # (the member reads nan) or overflows the weight (inf)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, _ = _integrate(f, np.zeros(n), np.full(n, e_hi), np.arange(n),
                             n, refuse=False)
    names = [f"w{i}_d{j}" for i, j in orders[:-1]] + ["energy_weighted"]
    columns = dict(zip(names[:-1], vals[:-1, 0].tolist()))
    v_pl, v_en = columns["w0_d0"], float(vals[-1, 0])
    # separable double integrals for the default rank-one block
    blocks = {k: v * v_pl for k, v in columns.items()}
    detail = {**{f"column_{k}": v for k, v in columns.items()},
              **{f"block_{k}": v for k, v in blocks.items()},
              "energy_weighted_block": float(v_en * v_pl)}
    not_finite = [k for k, v in zip(names, vals[:, 0]) if not np.isfinite(v)]
    if not_finite:
        detail["not_finite"] = not_finite
    # np.max keeps a nan column, which max() would drop behind a number
    worst_val = float(np.max(np.abs(list(columns.values())), initial=0.0))
    worst_finite = np.all(np.isfinite([*columns.values(), *blocks.values(),
                                       v_en]))
    return BoundReport.of(
        "kernel weighted integrals finite (orders <= 3)", worst_val, "<",
        np.inf, also=worst_finite, detail=detail)


def check_hypotheses(params: ModelParams) -> list:
    return [check_ir_uv(params), check_kernel_integrals(params)]
