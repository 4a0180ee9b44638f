import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from thermion import experiments, fgr, params
from thermion.fgr import (check_hypotheses, check_ir_uv,
                          check_kernel_integrals, eps_convergence,
                          gamma_limit, gamma_regularized,
                          gamma_regularized_midpoint, golden_rule,
                          operator_vs_quadrature, thermal_factor)
from thermion.params import (FormFactor, Kernel, ModelParams,
                             PowerExpProfile, falling_product)


def test_zero_form_factor_gives_zero_rate():
    p = ModelParams(form_factor=FormFactor(g=PowerExpProfile(2.5, 0.0)))
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

    p = ModelParams(form_factor=FormFactor(g=Cut()))
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
    ff = FormFactor(g=PowerExpProfile(1.0), ir_exponent=1.0)
    rep = check_ir_uv(ModelParams(form_factor=ff))
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
    with np.errstate(all="ignore"):
        arr = prof(x, deriv)
        value = prof.scalar(deriv)
        scal = np.array([prof(v, deriv) for v in x.tolist()])
        bound = np.array([value(v) for v in x.tolist()])
        special = [prof(v, deriv) for v in SPECIAL_X]
        special_bound = [value(v) for v in SPECIAL_X]
    # NumPy's SIMD pow and exp each differ from libm's by up to one ulp,
    # and the derivatives' Leibniz sums cancel near their zeros, so the
    # paths are compared in ulps of the sum of the terms' magnitudes
    mag = abs(prof.scale) * np.exp(-x) * sum(
        math.comb(deriv, k) * abs(falling_product(prof.power, k))
        * x ** (prof.power - k) for k in range(deriv + 1))
    assert np.all(np.abs(scal - arr) <= 4 * np.spacing(mag))
    assert np.all(np.abs(bound - arr) <= 4 * np.spacing(mag))
    assert all(type(v) is float for v in special + special_bound)
    with np.errstate(all="ignore"):
        ref = prof(np.array(SPECIAL_X), deriv)
    np.testing.assert_array_equal(np.array(special), ref)
    np.testing.assert_array_equal(np.array(special_bound), ref)
    # Python int and NumPy scalars take the scalar path too
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


def test_run_fgr_builds_each_leibniz_sum_once(monkeypatch):
    # one build per distinct (profile, order): the form factor at orders
    # 0-4 (15 falling products) and the kernel at orders 0-3 (10); a
    # rebuild per call made 132,617 over the same run
    calls = []

    def counted(p, k, _fn=params.falling_product):
        calls.append((p, k))
        return _fn(p, k)
    monkeypatch.setattr(params, "falling_product", counted)
    experiments.run_fgr(experiments.ExperimentConfig(
        kind="fgr", options={"eps_list": [0.2, 0.1]}))
    assert len(calls) <= 25


def test_run_fgr_binds_the_kernel_evaluator_per_quadrature(monkeypatch):
    # quadrature nodes call a bound scalar evaluator, not __call__; a call
    # per node made 131,169 over the same run
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
    # adaptive values pinned bit for bit: the integrands QUADPACK sees are
    # unchanged, so its subdivisions and sums are too
    p = ModelParams()
    assert gamma_regularized(p, 0.2) == 23.463023622123746
    assert gamma_regularized(p, 0.1) == 23.728094515755746
    assert gamma_limit(p) == 23.943859418141738
    assert gamma_regularized_midpoint(p, 0.2) == 23.463023622124187
    detail = check_kernel_integrals(p).detail
    pinned = {"column_w0_d0": 5.625, "column_w0_d1": 1.1249999999999998,
              "column_w0_d2": 1.125, "column_w0_d3": 5.625000000000002,
              "column_w1_d0": 0.7499999999999999,
              "column_w1_d1": 0.7499999999999999,
              "column_w1_d2": 8.250000000000002, "column_w2_d0": 0.25,
              "column_w2_d1": 3.2500000000000004,
              "column_w3_d0": 0.5000000000000001,
              "energy_weighted_block": 442.96874999999966}
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
    x = np.linspace(0.05, 12.0, 241)
    prof, fresh = PowerExpProfile(2.5), PowerExpProfile(2.5)
    p, q = ModelParams(), ModelParams()
    key = (hash(prof), hash(p))
    for d in (0, 3, 0, 4):
        prof(1.5, d)
        prof.scalar(d)(2.5)
        p.kernel.gamma.scalar(d)
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
            assert clone(1.5, d) == prof(1.5, d) == clone.scalar(d)(1.5)
