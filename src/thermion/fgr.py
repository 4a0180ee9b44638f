"""Golden-rule decay constant by quadrature, plus hypothesis checkers.

The rate constant is a double integral: thermal weight times squared form
factor in the emitted frequency, against the squared bound-continuum
coupling smeared by a Lorentzian in the continuum energy.  The regularized
form (finite Lorentzian width) has an adaptive quadrature and a
Richardson-refined midpoint oracle, which ``run_fgr`` compares at its
first width; the width-to-zero limit is adaptive here, and its midpoint
oracle lives in the tests.  The regularized oracle puts both variables on
one spacing, so its inner sum is one FFT correlation.

Note the exact zero-width limit carries a factor pi from the Lorentzian
mass: integral of w / ((x)^2 + w^2) dx = pi.  Without it the two forms
would not converge to each other at rate O(width).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .params import ModelParams
from .reports import BoundReport

TINY_REL = 1e-16


@dataclass
class FgrResult:
    gamma_eps: dict            # width -> value
    gamma_limit: float
    cutoffs: dict = field(default_factory=dict)


def thermal_factor(omega, beta):
    """omega^2 / (e^{beta omega} - 1), evaluated stably."""
    omega = np.asarray(omega, float)
    with np.errstate(over="ignore"):
        return omega ** 2 / np.expm1(beta * omega)


def _freq_cutoff(params: ModelParams) -> float:
    """Frequency beyond which the integrand is below TINY_REL of its peak."""
    om = np.geomspace(1e-3, 400.0, 4000)
    vals = thermal_factor(om, params.beta) * np.abs(params.form_factor(om))**2
    peak = vals.max()
    if peak == 0.0:
        return max(10.0, -1.5 * params.bound_energy)
    keep = np.flatnonzero(vals > TINY_REL * peak)
    return float(om[min(keep[-1] + 1, len(om) - 1)])


def _energy_cutoff(params: ModelParams) -> float:
    e = np.geomspace(1e-3, 400.0, 4000)
    vals = np.abs(params.kernel.gamma(e)) ** 2
    peak = vals.max()
    if peak == 0.0:
        return 10.0
    keep = np.flatnonzero(vals > TINY_REL * peak)
    return float(e[min(keep[-1] + 1, len(e) - 1)])


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
    gamma, eps2 = params.kernel.gamma.scalar(0), eps ** 2

    def inner(omega):
        x = params.bound_energy + omega

        def f(e):
            return eps / ((e - x) ** 2 + eps2) * abs(gamma(e)) ** 2
        val, _ = quad(f, 0.0, e_hi, points=[max(x, 0.0)], limit=200)
        return val

    def outer(omega):
        return _freq_weight(params, omega) * inner(omega)

    val, err = quad(outer, lo, om_hi, limit=200)
    if not np.isfinite(val) or err > 1e-6 * abs(val) + 1e-12:
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
    from scipy.fft import next_fast_len

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
        nfft = next_fast_len(m + m_e - 1, real=True)
        conv = np.fft.irfft(np.fft.rfft(lor, nfft) * np.fft.rfft(ge2, nfft),
                            nfft)
        return float(wj @ conv[m_e - 1:m_e - 1 + m]) * h * h

    s1 = riemann(n // 2)
    s2 = riemann(n)
    return (4.0 * s2 - s1) / 3.0


def gamma_limit(params: ModelParams) -> float:
    """Zero-width limit (factor pi included, see module docstring), by
    adaptive quadrature:

        pi * int_{-E}^{inf} dw dSigma  w^2/(e^{bw}-1)
             |g(w)|^2 |Gamma(E + w)|^2
    """
    lo, om_hi = _freq_range(params)

    def f(omega):
        return (_freq_weight(params, omega)
                * np.abs(params.kernel.gamma(params.bound_energy + omega))**2)

    val, err = quad(f, lo, om_hi, limit=200)
    if not np.isfinite(val) or err > 1e-6 * abs(val) + 1e-12:
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
    res = FgrResult(gamma_eps={}, gamma_limit=gamma_limit(params))
    res.cutoffs = {"omega": _freq_cutoff(params),
                   "energy": _energy_cutoff(params)}
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

    # single-boson frequency of each Fock state (nan on other sectors)
    u = basis.fock.grid.nodes
    freq = np.full(basis.fock.dim, np.nan)
    for idx, state in enumerate(basis.fock.states):
        occ = np.flatnonzero(state)
        if len(occ) == 1 and state[occ[0]] == 1:
            freq[idx] = u[occ[0]]

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

def check_ir_uv(params: ModelParams) -> BoundReport:
    """Infrared / ultraviolet envelopes of the form factor with its
    derivatives up to fourth order."""
    ff = params.form_factor
    worst = np.inf
    detail = {}
    low = np.geomspace(1e-6, ff.k1 * (1 - 1e-9), 200)
    for j in range(5):
        margin = ff.k2 * low ** (ff.ir_exponent - j) - np.abs(ff(low, j))
        worst = min(worst, float(margin.min()))
        detail[f"ir_d{j}"] = float(margin.min())
    high = np.geomspace(ff.big_k1 * (1 + 1e-9), ff.big_k1 * 50, 200)
    for j in range(5):
        margin = ff.big_k2 * high ** (-ff.uv_exponent - j) - np.abs(ff(high, j))
        worst = min(worst, float(margin.min()))
        detail[f"uv_d{j}"] = float(margin.min())
    detail.update(ir_exponent=ff.ir_exponent, uv_exponent=ff.uv_exponent)
    return BoundReport.of(
        "form factor infrared/ultraviolet envelopes", -worst, "<=", 0.0,
        also=ff.ir_exponent > 2 and ff.uv_exponent > 3.5, detail=detail)


def check_kernel_integrals(params: ModelParams) -> BoundReport:
    """Weighted square-integrability of the coupling kernel and its
    derivatives for all index combinations with total order <= 3, plus the
    energy-weighted block."""
    ker = params.kernel
    e_hi = _energy_cutoff(params)
    columns = {}
    for m1 in range(4):
        for m2 in range(4 - m1):
            gamma = ker.gamma.scalar(m2)

            def f(e):
                return (e ** (-2 * m1)) * abs(gamma(e)) ** 2
            columns[f"w{m1}_d{m2}"] = float(quad(f, 0.0, e_hi, limit=200)[0])
    v_pl = columns["w0_d0"]
    gamma = ker.gamma.scalar(0)
    v_en, _ = quad(lambda e: e ** 2 * abs(gamma(e)) ** 2, 0.0, e_hi)
    # separable double integrals for the default rank-one block
    blocks = {k: v * v_pl for k, v in columns.items()}
    detail = {**{f"column_{k}": v for k, v in columns.items()},
              **{f"block_{k}": v for k, v in blocks.items()},
              "energy_weighted_block": float(v_en * v_pl)}
    worst_val = max(0.0, *(abs(v) for v in columns.values()))
    worst_finite = np.all(np.isfinite([*columns.values(), *blocks.values(),
                                       v_en]))
    return BoundReport.of(
        "kernel weighted integrals finite (orders <= 3)", worst_val, "<",
        np.inf, also=worst_finite, detail=detail)


def check_hypotheses(params: ModelParams) -> list:
    return [check_ir_uv(params), check_kernel_integrals(params)]
