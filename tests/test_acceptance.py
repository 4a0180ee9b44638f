"""Acceptance suite: one test per criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s).  The
criteria probing the smallness regime of the positivity argument (5 and
10) are unreachable at desk-scale truncation for the shipped couplings;
they are asserted exactly as stated and fail honestly.  Measured at the
criterion-5 truncation (n_e = n_u = 24, n_max = 1): gamma = 23.94 and
k49 = 5.06e4, so the recipe picks epsilon = 3.4e-7 and lambda = 1.7e-7,
and the reduced block is F = -k49 lam^2 + 2 theta lam^2 <Ie_pi, Rbar^2
Ie_pi> = -1.4465e-9 + 1.2e-15 against a target of 1.2e-10.  The
golden-rule term would need <Ie_pi, Rbar^2 Ie_pi> ~ gamma / (2 epsilon) =
3.5e7; it stays at 364, because the nearest transition in the support of
Ie_pi has |L0| = 0.125 (half the grid step 0.25), far above epsilon.
Criterion 10 fails for the same reason: every point of its (beta, lam)
scan fails the reduced-block and dressed-positivity steps (epsilon =
2.4e-4, 2.5e-6, 1e-9 at beta = 0.5, 1, 2), so lambda0 = [0, 0, 0].
Criterion 9 passes at its own configuration; only the shipped-default
dynamics run fails its rate-scaling check.  The obstruction constants
are in the run reports.

Criteria 2, 3, 4, 5, 8, 9, 10, 11 and 12 run a CLI kind at their pinned
configuration and assert on its report's checks, so `thermion KIND` at
that configuration explains the verdict.  Criteria 1, 6 and 7 compare
against oracles computed here (criteria 1 and 7 against the CSR
references of tests/csr_oracle.py, criterion 6 against the limit
operator), and so does criterion 11's involution defect.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from csr_oracle import (conj_full, kron3, liouvillian,
                        product_boson_amplitudes, to_csr)
from thermion.dynamics import recurrence_time, survival
from thermion.experiments import ExperimentConfig, run
from thermion.flows import saturating_profile
from thermion.lattice import build_bases
from thermion.linalg import eig_pairs_smallest
from thermion.operators import (assemble_conjugates, assemble_field_ops,
                                assemble_liouvillian, apply_j,
                                pair_diag)
from thermion.params import ModelParams
from thermion.reports import report_to_json
from thermion.virial import (build_regularized_family,
                             commutator_expectation_scan, virial_residual)


def _line(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")


def test_criterion_01_commutator_identity_order():
    t0 = time.time()
    errs = []
    for nu in (16, 32, 64):
        p = ModelParams(n_e=2, n_u=nu, n_max=2, e_max=2.0, u_max=4.0)
        b = build_bases(p)
        fops = assemble_field_ops(b.fock)
        ident_p = sp.identity(b.left.dim, format="csr", dtype=complex)
        liou = assemble_liouvillian(p)
        l0 = sp.diags(liou.l0_diag.astype(complex))
        a_f = kron3(fops.translation_gen, ident_p, ident_p)
        comm = (1j * (l0 @ a_f - a_f @ l0)).tocsr()
        n_op = sp.diags(liou.number.astype(complex))

        pu = np.exp(-((b.fock.grid.nodes - 0.5)) ** 2)
        fock = product_boson_amplitudes(b.fock, pu)
        fock[np.array([sum(s) for s in b.fock.states]) != 2] = 0.0
        pe = np.concatenate(([0.0], np.exp(-(b.left.grid.nodes - 1.0) ** 2)))
        psi = (fock[:, None, None] * pe[None, None, :]
               * pe[None, :, None]).ravel().astype(complex)
        psi /= np.linalg.norm(psi)
        errs.append(np.linalg.norm((comm - n_op) @ psi))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    elapsed = time.time() - t0
    ok = bool(np.all(orders >= 1.9) and elapsed < 60)
    _line(1, ok, f"identity error orders {np.round(orders, 3)} "
          f"in {elapsed:.1f}s")
    assert np.all(orders >= 1.9), orders
    assert elapsed < 60


def test_criterion_02_golden_rule_positivity():
    t0 = time.time()
    # shipped defaults: beta=1, E=-1, power-law shapes, widths 0.2 to 0.025
    rep = run(ExperimentConfig(kind="fgr"))
    positive, agree, conv = rep.checks[:3]
    elapsed = time.time() - t0
    ok = positive.passed and agree.passed and conv.passed and elapsed < 60
    _line(2, ok, f"gamma={positive.value:.4f}, oracle agreement "
          f"{agree.value:.2e}, linear-width spread {conv.value:.3f}, "
          f"{elapsed:.1f}s")
    assert positive.passed, positive
    assert agree.passed, agree
    assert conv.passed, conv
    assert elapsed < 60


def test_criterion_03_operator_integral_consistency():
    checks = {}
    for n in (32, 64):
        cfg = ExperimentConfig(
            kind="fgr", params=ModelParams(n_e=n, n_u=n, n_max=1),
            options={"operator_check": True, "operator_eps": 0.5})
        checks[n] = run(cfg).checks[-1]
    rels = {n: c.value for n, c in checks.items()}
    ok = checks[64].passed and rels[64] < rels[32]
    _line(3, ok, f"relative mismatch {rels[64]:.4f} at n=64 "
          f"(n=32: {rels[32]:.4f})")
    assert checks[64].passed, checks[64]
    assert rels[64] < rels[32]


def test_criterion_04_feshbach_isospectrality():
    t0 = time.time()
    cfg = ExperimentConfig(kind="feshbach-fuzz", seed=2024, jobs=2,
                           options={"instances": 200, "dim_max": 20})
    rep = run(cfg)
    elapsed = time.time() - t0
    worst = rep.checks[0].value
    ok = rep.checks[0].passed and elapsed < 30
    _line(4, ok, f"200 instances, worst scaled determinant {worst:.2e}, "
          f"{elapsed:.1f}s")
    assert rep.checks[0].passed, rep.checks[0]
    assert elapsed < 30


def test_criterion_05_bound_chain():
    t0 = time.time()
    p = ModelParams(n_e=24, n_u=24, n_max=1)
    dim = (1 + p.n_e) ** 2 * (1 + p.n_u)
    assert dim <= 5e4
    rep = run(ExperimentConfig(kind="bound-chain", params=p))
    elapsed = time.time() - t0
    dom, comp, fesh, posit = rep.checks[:4]
    recipe = rep.stats["recipe"]
    ok = dom.passed and comp.passed and fesh.passed and posit.passed \
        and elapsed < 600
    _line(5, ok,
          f"domination {dom.value:.2e} (>= {dom.bound:.2e}), complement "
          f"{comp.value:.3f} (> 0.5), positivity {posit.value:.3e} vs "
          f"target {posit.bound:.3e}; recipe feasible: "
          f"{recipe['recipe_feasible']}, needs n_e ~ "
          f"{recipe['n_e_required']}; {elapsed:.0f}s")
    assert elapsed < 600
    assert dom.passed, dom
    assert comp.passed, comp
    # the remaining two inequalities need the width of the smallness
    # regime resolved on the grid; the report's recipe block carries the
    # measured obstruction (k49/gamma ~ 2.1e3 gives epsilon = 3.4e-7, and
    # the recipe's n_e_required is 35,497,515; see the module docstring)
    assert fesh.passed, (fesh, recipe)
    assert posit.passed, (posit, recipe)


def test_criterion_06_scaled_operator_converges():
    # || (M_a - M) psi || against the sharp-projection limit M decreases
    # monotonically as the dilation scale shrinks, for a fixed bundle of
    # random vectors (strong convergence, sampled).  An oracle comparison:
    # bound-chain builds M_a, but the chain benchmark pins its check list
    p = ModelParams(n_e=12, n_u=12, n_max=1)
    basis = build_bases(p)
    nodes = basis.left.grid.nodes
    prof = saturating_profile()
    rng = np.random.default_rng(11)
    vecs = rng.standard_normal((20, basis.dim)) \
        + 1j * rng.standard_normal((20, basis.dim))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    cont = np.concatenate(([0.0], np.ones(len(nodes))))
    norms = []
    for a in (0.5, 0.25, 0.125, 0.0625):
        xi = np.concatenate(([0.0], np.asarray(prof.xi(nodes / a))))
        dd = pair_diag(basis, xi - cont)
        norms.append([float(np.linalg.norm(dd * v)) for v in vecs])
    worst_gap = float(np.max(np.diff(norms, axis=0)))
    ok = worst_gap < 0.0
    _line(6, ok, f"monotone over the scale ladder, worst gap "
          f"{worst_gap:.3e}")
    assert ok, np.max(norms, axis=1)


def test_criterion_07_virial():
    p = ModelParams(n_e=6, n_u=8, n_max=1, e_max=4.0, u_max=4.0, lam=0.1)
    liou = assemble_liouvillian(p)
    conj = assemble_conjugates(liou)
    a_full = (conj_full(liou.trunc) + to_csr(conj.correction)).tocsr()
    _, vecs = eig_pairs_smallest(liouvillian(liou), 10)
    worst = -np.inf
    for k in range(vecs.shape[1]):
        psi = vecs[:, k]
        e = float(np.real(np.vdot(psi, liouvillian(liou) @ psi)))
        r = np.linalg.norm(liouvillian(liou) @ psi - e * psi)
        lhs = abs(virial_residual(liouvillian(liou), a_full, psi))
        rhs = 2 * r * np.linalg.norm(a_full @ psi) + 1e-14
        worst = max(worst, lhs - rhs)

    family = build_regularized_family(vecs[:, 0], liou.conj_full, liou.number)
    scan = commutator_expectation_scan(family, liouvillian(liou),
                                       liou.conj_full)
    final = abs(scan[-1][1])
    ok = worst <= 0 and final < 1e-6
    _line(7, ok, f"10 eigenpair residual slack {-worst:.2e}, family scan "
          f"endpoint {final:.2e}")
    assert worst <= 0
    assert final < 1e-6


def test_criterion_08_flow_unitary():
    cfg = ExperimentConfig(kind="flow-check", seed=0,
                           options={"n_points": 50})
    rep = run(cfg)
    ok = rep.all_passed
    _line(8, ok, "; ".join(f"{c.check.split(',')[0]}: "
                           f"{'ok' if c.passed else 'FAIL'}"
                           for c in rep.checks))
    for c in rep.checks:
        assert c.passed, c


def test_criterion_09_ionization_signature():
    t0 = time.time()
    p = ModelParams(n_e=8, n_u=48, n_max=2, e_max=5.0, u_max=5.0)
    t_rec = recurrence_time(p)

    times0 = np.linspace(0.0, min(20.0, 0.8 * t_rec), 9)
    base = survival(p.with_(lam=0.0), times0, tol=1e-8)
    exact0 = bool(np.max(np.abs(np.real(base.values) - 1.0)) < 1e-12)

    cfg = ExperimentConfig(
        kind="dynamics", seed=0, jobs=1,
        params=p,
        options={"lambdas": [0.05, 0.1], "t_max": 0.8 * t_rec,
                 "n_times": 40, "tol": 1e-7})
    rep = run(cfg)
    elapsed = time.time() - t0
    below = next(c for c in rep.checks if "below one half" in c.check)
    ratio = next(c for c in rep.checks if "coupling squared" in c.check)
    ok = exact0 and below.passed and ratio.passed and elapsed < 900
    _line(9, ok, f"uncoupled exact: {exact0}; min survival "
          f"{below.value:.3f} (< 0.5 before T_rec={t_rec:.1f}); rate ratio "
          f"{ratio.detail['ratio']:.2f} vs 4 (rates "
          f"{ratio.detail['rates']}); {elapsed:.0f}s")
    assert exact0
    assert below.passed, below
    assert elapsed < 900
    # note the regime: the dressing weight lam^2 sum|c|^2/l^2 is 2.6 and
    # 10.4 at lam = 0.05, 0.1, so the fitted rates saturate below the
    # perturbative prediction; the ratio is measured as-is
    assert ratio.passed, ratio


def test_criterion_10_threshold_trend():
    t0 = time.time()
    p = ModelParams(n_e=8, n_u=8, n_max=1, e_max=4.0, u_max=4.0)
    rep = run(ExperimentConfig(kind="lambda0-scan", params=p,
                               options={"lambdas": [1e-4, 1e-3, 1e-2],
                                        "betas": [0.5, 1.0, 2.0]}))
    rows = rep.tables["lambda0_scan"]["rows"]
    lam0 = [r[2] for r in rows]
    gammas = [r[1] for r in rows]
    decreasing, tracks = rep.checks
    elapsed = time.time() - t0
    ok = decreasing.passed and tracks.passed
    _line(10, ok, f"lambda0 per beta {lam0}, gamma per beta "
          f"{np.round(gammas, 3).tolist()}, ratio spread {tracks.value}; "
          f"{elapsed:.0f}s")
    # no coupling on the grid passes the full chain at this truncation
    # (same obstruction as criterion 5), so the trend is vacuously flat
    assert decreasing.passed, lam0
    assert tracks.passed, tracks


def test_criterion_11_modular_structure():
    p = ModelParams(n_e=6, n_u=12, n_max=1, e_max=4.0, u_max=4.0)
    b = build_bases(p)
    conj = apply_j(b)
    rng = np.random.default_rng(8)
    worst_sq = 0.0
    for _ in range(100):
        v = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        v /= np.linalg.norm(v)
        worst_sq = max(worst_sq,
                       np.linalg.norm(conj.apply(conj.apply(v)) - v))
    reps = {}
    for lam in (0.0, 0.1):
        rep = run(ExperimentConfig(kind="gjn", params=p.with_(lam=lam)))
        reps[lam] = next(c for c in rep.checks
                         if "modular conjugation anticommutes" in c.check)
    ok = worst_sq < 1e-14 and all(r.passed for r in reps.values())
    _line(11, ok, f"involution defect {worst_sq:.2e}, anticommutation "
          f"residuals {[f'{r.value:.2e}' for r in reps.values()]}")
    assert worst_sq < 1e-14
    for lam, rep in reps.items():
        assert rep.passed, (lam, rep)


def test_criterion_12_determinism(tmp_path):
    texts = {}
    for tag, jobs in (("a", 1), ("b", 3)):
        cfg = ExperimentConfig(kind="feshbach-fuzz", seed=77, jobs=jobs,
                               options={"instances": 30, "dim_max": 16})
        texts[tag] = report_to_json(run(cfg))
    ok = texts["a"] == texts["b"]
    _line(12, ok, f"byte-identical across worker counts: {ok}")
    assert ok
