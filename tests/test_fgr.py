import math

import numpy as np
import pytest

from thermion import experiments, fgr
from thermion.fgr import (check_hypotheses, check_ir_uv,
                          check_kernel_integrals, eps_convergence,
                          gamma_limit, gamma_regularized, golden_rule,
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
    for method_pair in ((0.2,), (0.05,)):
        eps = method_pair[0]
        a = gamma_regularized(p, eps, method="adaptive")
        m = gamma_regularized(p, eps, method="midpoint")
        assert abs(a - m) / abs(a) < 1e-6
    a = gamma_limit(p, method="adaptive")
    m = gamma_limit(p, method="midpoint")
    assert abs(a - m) / abs(a) < 1e-9


def test_regularized_rate_nonnegative_and_linear_in_width():
    p = ModelParams()
    rep = eps_convergence(p)
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
    rep = operator_vs_quadrature(p, eps=0.5, rel_tol=0.05)
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
        scal = np.array([prof(v, deriv) for v in x.tolist()])
        special = [prof(v, deriv) for v in SPECIAL_X]
    # NumPy's SIMD pow and exp each differ from libm's by up to one ulp,
    # and the derivatives' Leibniz sums cancel near their zeros, so the
    # paths are compared in ulps of the sum of the terms' magnitudes
    mag = abs(prof.scale) * np.exp(-x) * sum(
        math.comb(deriv, k) * abs(falling_product(prof.power, k))
        * x ** (prof.power - k) for k in range(deriv + 1))
    assert np.all(np.abs(scal - arr) <= 4 * np.spacing(mag))
    assert all(type(v) is float for v in special)
    with np.errstate(all="ignore"):
        ref = prof(np.array(SPECIAL_X), deriv)
    np.testing.assert_array_equal(np.array(special), ref)
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
    calls = {"gamma_regularized": 0, "gamma_limit": 0}
    for name in calls:
        def counted(*args, _fn=getattr(fgr, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(fgr, name, counted)
    eps_list = (0.2, 0.1)
    rep = experiments.run_fgr(experiments.ExperimentConfig(
        kind="fgr", options={"eps_list": list(eps_list)}))
    # adaptive at 0.2 and 0.1, midpoint at 0.2; one zero-width limit
    assert calls == {"gamma_regularized": 3, "gamma_limit": 1}
    monkeypatch.undo()
    by_name = {c.check: c for c in rep.checks}
    alone = eps_convergence(ModelParams(), eps_list)
    assert by_name[alone.check] == alone
