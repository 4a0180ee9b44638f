import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from thermion import experiments, fgr
from thermion.fgr import (check_hypotheses, check_ir_uv,
                          check_kernel_integrals, eps_convergence,
                          gamma_limit, gamma_regularized,
                          gamma_regularized_midpoint, golden_rule,
                          operator_vs_quadrature, thermal_factor)
from thermion.params import (Kernel, ModelParams, PowerExpProfile,
                             falling_product)


def test_zero_form_factor_gives_zero_rate():
    p = ModelParams(form_factor=PowerExpProfile(2.5, 0.0))
    assert gamma_limit(p) == 0.0
    assert gamma_regularized(p, 0.1) == 0.0


def test_zero_kernel_gives_zero_rate():
    p = ModelParams(kernel=Kernel(gamma=PowerExpProfile(3.0, 0.0), g_ee=0.0))
    assert gamma_limit(p) == 0.0


def test_rate_positive_for_defaults():
    assert gamma_limit(ModelParams()) > 0.0


def test_quadrature_oracles_agree():
    p = ModelParams()
    for eps in (0.2, 0.05):
        a = gamma_regularized(p, eps)
        m = gamma_regularized_midpoint(p, eps)
        assert abs(a - m) / abs(a) < 1e-6
    a = gamma_limit(p)
    m = _limit_midpoint(p)
    assert abs(a - m) / abs(a) < 1e-9


def test_regularized_rate_nonnegative_and_linear_in_width():
    p = ModelParams()
    rep = eps_convergence(golden_rule(p))
    assert rep.passed, rep
    for eps in (0.2, 0.05):
        assert gamma_regularized(p, eps) >= 0.0


def test_rate_decays_exponentially_in_beta():
    # gamma ~ exp(beta E): ratios between successive doublings stay within
    # a factor consistent with exponential decay in beta
    vals = [gamma_limit(ModelParams(beta=b)) for b in (1.0, 2.0, 4.0)]
    assert vals[0] > vals[1] > vals[2] > 0
    drop1 = vals[0] / vals[1]
    drop2 = vals[1] / vals[2]
    # |E| = 1: crude model predicts drops of order e^{1}, e^{2}
    assert drop1 > np.exp(0.5)
    assert drop2 > drop1


def test_rate_vanishes_without_resonant_support():
    # form factor supported below -E: empty resonance window
    class Cut:
        power = 2.5
        scale = 1.0

        def __call__(self, w, deriv=0):
            w = np.asarray(w, float)
            base = PowerExpProfile(2.5)(w, deriv)
            return np.where(w < 0.9, base, 0.0)

    p = ModelParams(form_factor=Cut())
    assert gamma_limit(p) == pytest.approx(0.0, abs=1e-12)


def test_rejects_bad_eps():
    with pytest.raises(ValueError):
        gamma_regularized(ModelParams(), -0.1)


def test_thermal_factor_stable():
    w = np.array([1e-9, 1.0, 700.0])
    v = thermal_factor(w, 1.0)
    assert np.all(np.isfinite(v))
    assert v[0] == pytest.approx(1e-9, rel=1e-3)


def test_ir_uv_envelopes_pass_for_default():
    rep = check_ir_uv(ModelParams())
    assert rep.passed, rep.detail


def test_ir_check_fails_for_slow_infrared():
    # exponent 1 violates the > 2 requirement
    rep = check_ir_uv(ModelParams(form_factor=PowerExpProfile(1.0)))
    assert not rep.passed


def test_kernel_integrals_finite():
    rep = check_kernel_integrals(ModelParams())
    assert rep.passed


def test_hypothesis_bundle():
    reps = check_hypotheses(ModelParams())
    assert all(r.passed for r in reps)


def test_golden_rule_bundle_has_requested_widths():
    res = golden_rule(ModelParams(), eps_list=(0.2, 0.1))
    assert set(res.gamma_eps) == {0.2, 0.1}
    assert res.gamma_limit > 0
    assert res.cutoffs["omega"] > 1.0


def test_operator_vs_quadrature_small_grid():
    p = ModelParams(n_e=32, n_u=32, n_max=1)
    rep = operator_vs_quadrature(p, eps=0.5)
    assert rep.passed, rep


# x values where float ** overflows, exp underflows or the profile is cut off
SPECIAL_X = (-1.0, 0.0, np.nan, np.inf, 1e-320, 800.0, 1e200)


@pytest.mark.parametrize("prof", [PowerExpProfile(2.5),
                                  PowerExpProfile(3.0, 0.5)])
@pytest.mark.parametrize("deriv", range(5))
def test_power_exp_scalar_path_matches_array_path(prof, deriv):
    x = np.concatenate([np.geomspace(1e-6, 700.0, 2001),
                        np.linspace(0.01, 12.0, 1200)])
    # a scalar x is a 0-d array to the evaluator and comes back a float
    with np.errstate(all="ignore"):
        arr = prof(x, deriv)
        scal = np.array([prof(v, deriv) for v in x.tolist()])
        special = [prof(v, deriv) for v in SPECIAL_X]
    # NumPy's SIMD pow and exp on an array may differ from the 0-d loop by
    # up to one ulp each, and the derivatives' Leibniz sums cancel near
    # their zeros, so the paths are compared in ulps of the sum of the
    # terms' magnitudes
    mag = abs(prof.scale) * np.exp(-x) * sum(
        math.comb(deriv, k) * abs(falling_product(prof.power, k))
        * x ** (prof.power - k) for k in range(deriv + 1))
    assert np.all(np.abs(scal - arr) <= 4 * np.spacing(mag))
    assert all(type(v) is float for v in special)
    with np.errstate(all="ignore"):
        ref = prof(np.array(SPECIAL_X), deriv)
    np.testing.assert_array_equal(np.array(special), ref)
    # Python int and NumPy scalars come back floats too
    for v in (2, np.int64(2), np.float64(2.0)):
        assert type(prof(v, deriv)) is float
        assert prof(v, deriv) == prof(2.0, deriv)


def test_power_exp_array_path_overflow_is_silent():
    # x ** p overflows to inf and inf * exp(-x) gives nan; the values are
    # kept, the RuntimeWarnings are not (pytest turns them into errors)
    assert math.isnan(PowerExpProfile(3.0)(1e200))
    out = PowerExpProfile(2.5)(np.array([1.0, 1e200]))
    assert out[0] == PowerExpProfile(2.5)(1.0) and math.isnan(out[1])


def test_run_fgr_integrates_each_width_once(monkeypatch):
    calls = {"gamma_regularized": 0, "gamma_regularized_midpoint": 0,
             "gamma_limit": 0}
    for name in calls:
        def counted(*args, _fn=getattr(fgr, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(fgr, name, counted)
    eps_list = (0.2, 0.1)
    rep = experiments.run_fgr(experiments.ExperimentConfig(
        kind="fgr", options={"eps_list": list(eps_list)}))
    # adaptive at 0.2 and 0.1, midpoint at 0.2; one zero-width limit
    assert calls == {"gamma_regularized": 2, "gamma_regularized_midpoint": 1,
                     "gamma_limit": 1}
    monkeypatch.undo()
    by_name = {c.check: c for c in rep.checks}
    alone = eps_convergence(golden_rule(ModelParams(), eps_list))
    assert by_name[alone.check] == alone


def test_run_fgr_binds_the_kernel_evaluator_per_quadrature(monkeypatch):
    # the adaptive quadratures hand the profiles all nodes of a round as
    # one array; a call per node made 131,169 over the same run
    calls = [0]

    def counted(self, *args, _fn=PowerExpProfile.__call__, **kwargs):
        calls[0] += 1
        return _fn(self, *args, **kwargs)
    monkeypatch.setattr(PowerExpProfile, "__call__", counted)
    experiments.run_fgr(experiments.ExperimentConfig(
        kind="fgr", options={"eps_list": [0.2, 0.1]}))
    assert 0 < calls[0] <= 2500


def _limit_midpoint(p, n=1 << 18):
    # the zero-width limit by the Richardson-refined midpoint sum over the
    # adaptive quadrature's frequency range
    lo, om_hi = fgr._freq_range(p)

    def riemann(m):
        h = (om_hi - lo) / m
        om = lo + (np.arange(m) + 0.5) * h
        ge2 = np.abs(p.kernel.gamma(p.bound_energy + om)) ** 2
        return float(np.sum(fgr._freq_weight(p, om) * ge2)) * h
    return math.pi * (4.0 * riemann(n) - riemann(n // 2)) / 3.0


def _broadcast_midpoint(p, eps, lo, om_hi, e_hi, n):
    # the whole Lorentzian matrix at once, on the oracle's shared spacing:
    # h on both axes, ceil(e_hi / h) energy midpoints
    def riemann(m):
        h = (om_hi - lo) / m
        om = lo + (np.arange(m) + 0.5) * h
        e = (np.arange(math.ceil(e_hi / h)) + 0.5) * h
        x = p.bound_energy + om
        lor = eps / ((e[None, :] - x[:, None]) ** 2 + eps ** 2)
        ge2 = np.abs(p.kernel.gamma(e)) ** 2
        return float(fgr._freq_weight(p, om) @ (lor @ ge2)) * h * h
    return (4.0 * riemann(n) - riemann(n // 2)) / 3.0


def test_golden_rule_values_bit_identical():
    # adaptive values pinned bit for bit: the batched G10K21 integrator's
    # subdivisions and sums are deterministic, so a change to the
    # integrands or the rule shows here
    p = ModelParams()
    assert gamma_regularized(p, 0.2) == 23.46302362212374
    assert gamma_regularized(p, 0.1) == 23.728094515755725
    assert gamma_limit(p) == 23.94385941814173
    assert gamma_regularized_midpoint(p, 0.2) == 23.463023622124187
    detail = check_kernel_integrals(p).detail
    pinned = {"column_w0_d0": 5.625, "column_w0_d1": 1.125,
              "column_w0_d2": 1.125, "column_w0_d3": 5.625000000000002,
              "column_w1_d0": 0.7499999999999998, "column_w1_d1": 0.75,
              "column_w1_d2": 8.25, "column_w2_d0": 0.25,
              "column_w2_d1": 3.25, "column_w3_d0": 0.5000000000000001,
              "energy_weighted_block": 442.9687499999996}
    assert {k: detail[k] for k in pinned} == pinned
    # the FFT midpoint sum against the broadcast one. At (1, 9, 24.25) and
    # n = 32 the Richardson pair needs m + m_e - 1 = 64 and 128 lags, both
    # fast lengths, so the FFT is exactly as long as the no-wraparound
    # bound. lo = 0.5 shifts the lags off the grid (E + lo != 0), and
    # e_hi = 5.1 is no multiple of h, so the energy grid runs past it
    for lo, om_hi, e_hi, n in ((1.0, 9.0, 20.0, 64), (1.0, 9.0, 20.0, 100),
                               (1.0, 9.0, 24.25, 32), (0.5, 8.5, 5.1, 32)):
        fft = fgr._gamma_reg_midpoint(p, 0.2, lo, om_hi, e_hi, n=n)
        ref = _broadcast_midpoint(p, 0.2, lo, om_hi, e_hi, n)
        assert abs(fft - ref) <= 1e-14 * abs(ref)


def test_power_exp_memo_is_invisible():
    # evaluation stores nothing on the profile: equality, hash, copies and
    # replace see the fields only
    x = np.linspace(0.05, 12.0, 241)
    prof, fresh = PowerExpProfile(2.5), PowerExpProfile(2.5)
    p, q = ModelParams(), ModelParams()
    key = (hash(prof), hash(p))
    for d in (0, 3, 0, 4):
        prof(1.5, d)
        p.kernel.gamma(x, d)
        p.form_factor(1.5, d)
    assert prof == fresh and p == q
    assert (hash(prof), hash(p)) == key == (hash(fresh), hash(q))
    # each order gets its own terms, whatever order they are built in
    for d in (0, 3, 0):
        np.testing.assert_array_equal(prof(x, d), PowerExpProfile(2.5)(x, d))
    # replace builds a new instance with its own terms
    other = dataclasses.replace(prof, power=3.5)
    for d in range(5):
        leibniz = np.exp(-x) * sum(
            math.comb(d, k) * falling_product(3.5, k) * (-1.0) ** (d - k)
            * x ** (3.5 - k) for k in range(d + 1))
        arr = other(x, d)
        np.testing.assert_allclose(arr, leibniz, rtol=1e-12, atol=1e-12)
        assert not np.allclose(arr, prof(x, d))
        for v in x[::40].tolist():
            assert abs(other(v, d) - other(np.array(v), d)) <= 1e-13
    with pytest.raises(dataclasses.FrozenInstanceError):
        prof.power = 3.0
    for clone in (copy.deepcopy(prof), pickle.loads(pickle.dumps(prof))):
        assert clone == prof and hash(clone) == hash(prof)
        for d in range(5):
            np.testing.assert_array_equal(clone(x, d), prof(x, d))
            assert clone(1.5, d) == prof(1.5, d)


# ---------------------------------------------------------------------------
# the batched G10K21 integrator
# ---------------------------------------------------------------------------

def test_gk21_rule_exact_on_polynomials_to_degree_31():
    # one interval, no adaptivity: the Kronrod sum integrates t^d, t the
    # interval's own coordinate on [-1, 1], exactly for d <= 31 (3 * 10 + 1)
    # and misses t^32; t^d has sup 1, so roundoff is absolute
    a, b = np.array([-0.3]), np.array([1.7])
    for d in range(33):
        res, _ = fgr._gk21(lambda x, _k: (x - 0.7) ** d, a, b,
                           np.zeros(1, int))
        miss = abs(res[0, 0] - (1 - (-1) ** (d + 1)) / (d + 1))
        assert miss <= 2e-15 if d <= 31 else miss > 1e-12, d


def test_integrator_batch_of_polynomials_and_a_kink():
    # members 0-31 are x^d on [-0.3, 1.7]; member 32 has a kink at c, split
    # there, and member 33 is the same kink left to bisection
    c, n = 1 / 3, 34
    exact = [(1.7 ** (d + 1) - (-0.3) ** (d + 1)) / (d + 1) for d in range(32)]
    exact = np.array(exact + [2 - math.exp(-c) - math.exp(c - 1)] * 2)

    def f(x, owner):
        d = owner[:, None]
        return np.where(d < 32, x ** np.minimum(d, 31), np.exp(-abs(x - c)))
    a = [-0.3] * 32 + [0.0, c, 0.0]
    b = [1.7] * 32 + [c, 1.0, 1.0]
    owner = list(range(32)) + [32, 32, 33]
    val, err = fgr._integrate(f, a, b, owner, n)
    assert val.shape == (n, 1) and err.shape == (n,)
    miss = np.abs(val[:, 0] - exact)
    assert np.all(miss[:33] <= 1e-14 * np.abs(exact[:33]))
    # split at the kink the rule is exact on each side; bisection towards
    # it stops at the tolerance, and the estimate bounds the miss
    assert err[32] < 1e-13 and 0 < miss[33] <= err[33]
    assert np.all(err <= np.maximum(fgr.EPSABS, fgr.EPSREL * np.abs(exact)))


def test_integrator_zero_integrand_gives_exact_zero():
    val, err = fgr._integrate(lambda x, _k: np.zeros_like(x), [0.0, 1.0],
                              [1.0, 5.0], [0, 1], 2)
    assert val.tolist() == [[0.0], [0.0]] and err.tolist() == [0.0, 0.0]


def test_integrator_refuses_a_member_past_the_limit():
    # member 1, sin(1/x) near 0, needs more than LIMIT subintervals; the
    # refusal names it
    def f(x, owner):
        return np.where(owner[:, None] == 1, np.sin(1 / x), x)
    with pytest.raises(RuntimeError, match=r"batch member 1 needs more than "
                                           r"200 subintervals"):
        fgr._integrate(f, [0.0, 1e-4], [1.0, 1.0], [0, 1], 2)


def test_integrator_treats_a_nan_estimate_as_unconverged(monkeypatch):
    # nan > tol is False, so a nan error estimate would pass for converged:
    # member 1 is nan on [0, 0.5) and bisects to the limit instead, where it
    # reads nan (or is refused); member 0 is unaffected
    def f(x, owner):
        return np.where((owner[:, None] == 1) & (x < 0.5), np.nan, 1.0)
    val, _ = fgr._integrate(f, [0.0, 0.0], [1.0, 1.0], [0, 1], 2,
                            refuse=False)
    assert val[0, 0] == pytest.approx(1.0, rel=1e-14) and np.isnan(val[1, 0])
    with pytest.raises(RuntimeError, match="batch member 1 needs more"):
        fgr._integrate(f, [0.0, 0.0], [1.0, 1.0], [0, 1], 2)
    # the zero-width limit refuses a nan estimate rather than return it
    monkeypatch.setattr(fgr, "_integrate", lambda *a, **k: (
        np.array([[1.0]]), np.array([np.nan])))
    with pytest.raises(RuntimeError, match="est. error nan"):
        gamma_limit(ModelParams())


def test_integrator_carries_trailing_columns_on_the_same_intervals():
    # a second column is integrated by the rule on the intervals the first
    # column's error estimate picks
    def f(x, _k):
        return np.stack([np.exp(-abs(x)), x ** 2], -1)
    val, err = fgr._integrate(f, [-1.0], [2.0], [0], 1)
    assert abs(val[0, 0] - (2 - math.exp(-1) - math.exp(-2))) <= err[0]
    assert val[0, 1] == pytest.approx(3.0, rel=1e-14)


def test_fast_len_matches_scipy_next_fast_len():
    from scipy.fft import next_fast_len
    ns = range(1, (1 << 17) + 1)
    assert [fgr._fast_len(n) for n in ns] == [next_fast_len(n, real=True)
                                             for n in ns]


# QUADPACK, through scipy.integrate.quad, as the oracle of the adaptive
# integrals: the scalar integrands and settings these integrals used to run
# with (limit 200, QUADPACK's default tolerances)

def _quadpack_limit(p):
    from scipy.integrate import quad
    lo, om_hi = fgr._freq_range(p)
    gamma = p.kernel.gamma
    return math.pi * quad(lambda w: fgr._freq_weight(p, w)
                          * gamma(p.bound_energy + w) ** 2,
                          lo, om_hi, limit=200)[0]


def _quadpack_regularized(p, eps):
    from scipy.integrate import quad
    lo, om_hi = fgr._freq_range(p)
    e_hi = fgr._energy_cutoff(p) + om_hi
    gamma = p.kernel.gamma

    def outer(w):
        x = p.bound_energy + w
        inner = quad(lambda e: eps / ((e - x) ** 2 + eps ** 2) * gamma(e) ** 2,
                     0.0, e_hi, points=[max(x, 0.0)], limit=200)[0]
        return fgr._freq_weight(p, w) * inner
    return quad(outer, lo, om_hi, limit=200)[0]


def test_golden_rule_matches_quadpack():
    p = ModelParams()
    assert gamma_limit(p) == pytest.approx(_quadpack_limit(p), rel=1e-12)
    for eps in (0.2, 0.1, 0.05):
        assert gamma_regularized(p, eps) == pytest.approx(
            _quadpack_regularized(p, eps), rel=1e-12)


def _kernel_column_closed_form(m1, m2, power=3):
    # d^m2/de^m2 (e^p e^-e) = e^-e sum_k c_k e^(p-k); the square times
    # e^(-2 m1) integrates term by term: int_0^inf e^q e^-2e de = q!/2^(q+1)
    coeff = {power - k: Fraction(math.comb(m2, k) * math.perm(power, k)
                                 * (-1) ** (m2 - k)) for k in range(m2 + 1)}
    total = Fraction(0)
    for i, ci in coeff.items():
        for j, cj in coeff.items():
            q = i + j - 2 * m1
            total += ci * cj * Fraction(math.factorial(q), 2 ** (q + 1))
    return float(total)


def test_kernel_columns_match_quadpack_and_closed_forms():
    from scipy.integrate import quad
    p = ModelParams()
    detail = check_kernel_integrals(p).detail
    e_hi = fgr._energy_cutoff(p)
    for m1 in range(4):
        for m2 in range(4 - m1):
            oracle = quad(lambda e: e ** (-2 * m1)
                          * p.kernel.gamma(e, m2) ** 2, 0.0, e_hi,
                          limit=200)[0]
            col = detail[f"column_w{m1}_d{m2}"]
            assert col == pytest.approx(oracle, rel=1e-12)
            assert col == pytest.approx(_kernel_column_closed_form(m1, m2),
                                        rel=1e-12)
    assert _kernel_column_closed_form(0, 0) == 5.625      # 6! / 2^7
    # int e^2 |Gamma|^2 = 8! / 2^9 times column_w0_d0
    assert detail["energy_weighted_block"] == pytest.approx(
        math.factorial(8) / 2 ** 9 * 5.625, rel=1e-12)
