"""Experiment pipelines: one function per CLI subcommand.

Each pipeline is deterministic given (config, seed): random instances use
a counter-based generator keyed by (seed, instance index) so neither
scheduling nor the worker count can change any result, and sweep results
are reduced in index order.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.sparse.linalg import aslinearoperator

from . import commutators as comm
from . import dynamics as dyn
from . import feshbach as fesh
from . import fgr
from . import flows
from . import virial
from .linalg import DiagPlus, eig_pairs_smallest
from .operators import (Truncation, assemble_conjugates, assemble_liouvillian,
                        check_j)
from .params import ModelParams
from .reports import BoundReport, Report


@dataclass
class ExperimentConfig:
    kind: str
    params: ModelParams = field(default_factory=ModelParams)
    seed: int = 0
    jobs: int = 1
    out_dir: str = "results"
    fmt: str = "json"
    options: dict = field(default_factory=dict)

    def opt(self, key, default):
        if key not in PIPELINES[self.kind][1]:
            raise ValueError(f"{self.kind} declares no option {key!r}")
        return self.options.get(key, default)


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(key=[seed, index]))


def _pmap(fn, items, jobs: int):
    """Order-preserving parallel map (results reduced by index)."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = asdict(cfg.params)
    echo["form_factor"] = {
        "kind": "power_exp", "power": cfg.params.form_factor.g.power,
        "scale": cfg.params.form_factor.g.scale}
    echo["kernel"] = {
        "kind": "rank_one_power_exp",
        "power": cfg.params.kernel.gamma.power,
        "scale": cfg.params.kernel.gamma.scale,
        "g_ee": cfg.params.kernel.g_ee}
    # worker count and output paths are execution details, not experiment
    # inputs: reports must be byte-identical across --jobs settings
    return {"kind": cfg.kind, "seed": cfg.seed, "model": echo,
            "options": cfg.options}


# ---------------------------------------------------------------------------

def run_fgr(cfg: ExperimentConfig) -> Report:
    p = cfg.params
    eps_list = tuple(cfg.opt("eps_list", (0.2, 0.1, 0.05, 0.025)))
    if not eps_list:
        raise ValueError("fgr.eps_list must hold at least one width")
    res = fgr.golden_rule(p, eps_list)
    checks = [BoundReport.of(
        "golden-rule constant strictly positive", res.gamma_limit, ">", 0.0,
        detail={"gamma_eps": {str(k): v for k, v in res.gamma_eps.items()},
                "cutoffs": res.cutoffs})]

    adaptive = res.gamma_eps[eps_list[0]]
    midpoint = fgr.gamma_regularized_midpoint(p, eps_list[0])
    rel = abs(adaptive - midpoint) / abs(adaptive)
    checks.append(BoundReport.of(
        "independent quadratures agree", rel, "<=", 1e-6,
        detail={"adaptive": adaptive, "midpoint": midpoint,
                "eps": eps_list[0]}))

    checks.append(fgr.eps_convergence(res))
    checks.extend(fgr.check_hypotheses(p))

    if cfg.opt("operator_check", False):
        checks.append(fgr.operator_vs_quadrature(
            p, float(cfg.opt("operator_eps", 0.5))))

    tables = {"gamma_vs_eps": {
        "columns": ["eps", "gamma_eps", "gamma_limit"],
        "rows": [[e, res.gamma_eps[e], res.gamma_limit] for e in eps_list]}}
    return Report(kind="fgr", config=_config_echo(cfg), checks=checks,
                  tables=tables, stats={"gamma_limit": res.gamma_limit})


# ---------------------------------------------------------------------------

def run_bound_chain(cfg: ExperimentConfig) -> Report:
    p = cfg.params
    rep = fesh.verify_bound_chain(
        p,
        theta=cfg.opt("theta", None),
        epsilon=cfg.opt("epsilon", None),
        lam=cfg.opt("lam", None),
        gamma=cfg.opt("gamma", None))
    stats = {"gamma": rep.gamma, "k49": rep.k49,
             "recipe": asdict(rep.recipe), "measured": rep.measured,
             "run_params": rep.params}
    return Report(kind="bound-chain", config=_config_echo(cfg),
                  checks=list(rep.steps), stats=stats)


# ---------------------------------------------------------------------------

def _fuzz_instance(args):
    seed, idx, dim_max = args
    rng = _instance_rng(seed, idx)
    dim = int(rng.integers(6, dim_max + 1))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = (a + a.conj().T) / 2.0
    rank = 1 + idx % 2
    q = np.linalg.qr(rng.standard_normal((dim, rank))
                     + 1j * rng.standard_normal((dim, rank)))[0]
    pencil = fesh.FeshbachPencil(mat, q)
    defects, tested = pencil.defects()
    worst = float(defects.max()) if len(defects) else 0.0

    roots = pencil.roots(n_grid=160)
    root_err = float(np.abs(pencil.evals - roots[:, None]).min(axis=1)
                     .max(initial=0.0))
    return worst, root_err, len(tested), len(roots)


def run_feshbach_fuzz(cfg: ExperimentConfig) -> Report:
    n = int(cfg.opt("instances", 200))
    dim_max = int(cfg.opt("dim_max", 20))
    results = _pmap(_fuzz_instance,
                    [(cfg.seed, i, dim_max) for i in range(n)], cfg.jobs)
    worst = max(r[0] for r in results)
    worst_root = max(r[1] for r in results)
    n_eigs = sum(r[2] for r in results)
    n_roots = sum(r[3] for r in results)
    checks = [
        BoundReport.of(
            "eigenvalues below the complement spectrum solve the "
            "reduced fixed-point equation", worst, "<=", 1e-10,
            detail={"instances": n, "eigenvalues_tested": n_eigs}),
        BoundReport.of(
            "reduced fixed points are eigenvalues", worst_root, "<=", 1e-8,
            detail={"roots_found": n_roots}),
    ]
    return Report(kind="feshbach-fuzz", config=_config_echo(cfg),
                  checks=checks, stats={"instances": n})


# ---------------------------------------------------------------------------

def run_flow_check(cfg: ExperimentConfig) -> Report:
    prof = flows.saturating_profile()
    prof.certify()
    tol = float(cfg.opt("tol", 1e-10))
    n_pts = int(cfg.opt("n_points", 50))
    rng = _instance_rng(cfg.seed, 0)
    xs = rng.uniform(0.05, 8.0, n_pts)
    ts = np.linspace(-2.0, 2.0, 9)

    x10 = xs[:10]
    worst_group = 0.0
    for s, t in ((0.5, 0.7), (-0.4, 1.1), (0.9, -0.3)):
        whole = flows.integrate_flow(prof, x10, s + t, tol).endpoint
        inner = flows.integrate_flow(prof, x10, t, tol).endpoint
        part = flows.integrate_flow(prof, inner, s, tol).endpoint
        worst_group = max(worst_group, float(np.max(np.abs(whole - part))))
    fwd = flows.integrate_flow(prof, x10, 1.3, tol).endpoint
    back = flows.integrate_flow(prof, fwd, -1.3, tol).endpoint
    worst_inverse = float(np.max(np.abs(back - x10)))
    checks = [BoundReport.of(name, worst, "<=", 10 * tol) for name, worst
              in (("flow composition law", worst_group),
                  ("flow inverse law", worst_inverse))]

    nodes = np.linspace(0.02, 12.0, 600)
    psi = np.exp(-((nodes - 2.0) / 0.5) ** 2).astype(complex)
    dx = np.gradient(nodes)
    n0 = np.sqrt(np.sum(np.abs(psi) ** 2 * dx))
    worst_norm = 0.0
    flagged = False
    for t in (-1.0, -0.5, 0.5, 1.0):
        res = flows.induced_unitary_apply(prof, lambda x: np.ones_like(x),
                                          t, nodes, psi, tol)
        n1 = np.sqrt(np.sum(np.abs(res.values) ** 2 * dx))
        worst_norm = max(worst_norm, abs(n1 / n0 - 1.0))
        flagged |= res.flagged and res.mass_loss > 0
    checks.append(BoundReport.of(
        "induced map preserves the weighted norm on interior states",
        worst_norm, "<=", 1e-6, also=not flagged,
        detail={"mass_loss_flagged": flagged}))

    checks.append(flows.generator_check(
        prof, lambda x: np.ones_like(x), nodes, psi))
    checks.append(flows.verify_gronwall(prof, xs, ts, tol=tol))
    checks.append(flows.verify_gronwall(
        prof, xs, ts, scale=float(cfg.opt("gronwall_scale", 0.25)), tol=tol))
    return Report(kind="flow-check", config=_config_echo(cfg), checks=checks)


# ---------------------------------------------------------------------------

def run_virial_scan(cfg: ExperimentConfig) -> Report:
    p = cfg.params
    n_pairs = int(cfg.opt("n_pairs", 10))
    trunc = Truncation(p)
    dim = trunc.basis.dim
    if not 1 <= n_pairs <= dim - 2:
        # dim - 2: ARPACK's bound on eigenpairs of a complex operator
        raise ValueError(f"virial-scan.n_pairs must be in [1, {dim - 2}] "
                         f"(dim - 2 at dim {dim}), got {n_pairs}")
    liou = assemble_liouvillian(p, trunc)
    l_op, a_op = liou.operator, liou.conj_full
    conj = assemble_conjugates(liou)
    a_full = aslinearoperator(a_op) + aslinearoperator(conj.correction)
    _, vecs = eig_pairs_smallest(l_op, n_pairs)
    checks = [virial.eigenpair_residual_check(l_op, a_full, vecs)]

    psi = vecs[:, 0]
    alphas = tuple(cfg.opt("alphas",
                             (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625)))
    family = virial.build_regularized_family(psi, a_op, trunc.number, alphas)
    checks.extend(virial.family_checks(family))

    scan = virial.commutator_expectation_scan(family, l_op, a_op)
    final = abs(scan[-1][1])
    # an order needs both scan values nonzero (zero when I vanishes)
    mags = np.abs([v for _, v in scan])
    nonzero = mags > 0
    orders = (np.diff(np.log(np.where(nonzero, mags, 1.0)))
              / np.diff(np.log([a for a, _ in scan])))
    orders = [o if ok else None
              for o, ok in zip(orders.tolist(), nonzero[:-1] & nonzero[1:])]
    checks.append(BoundReport.of(
        "commutator expectation vanishes along the smoothed family", final,
        "<", 1e-6, also=final <= abs(scan[0][1]) + 1e-12,
        detail={"scan": [[a, v] for a, v in scan],
                "alpha_orders": orders,
                "krylov_error": family.krylov_error}))

    k_lam = trunc.compensation(p.lam)
    c_op = (comm.closed_form_commutator(liou, 1)
            + aslinearoperator(conj.correction_comm))
    b_op = DiagPlus(0.1 * trunc.number + k_lam * p.lam ** 2, -1.0,
                    conj.correction_comm)
    checks.append(virial.regularity_check(c_op, trunc.number, b_op, family))

    tables = {"family_scan": {"columns": ["alpha", "residual"],
                              "rows": [[a, v] for a, v in scan]}}
    return Report(kind="virial-scan", config=_config_echo(cfg), checks=checks,
                  tables=tables)


# ---------------------------------------------------------------------------

def run_dynamics(cfg: ExperimentConfig) -> Report:
    p = cfg.params
    lams = list(cfg.opt("lambdas", (0.05, 0.1)))
    t_rec = dyn.recurrence_time(p)
    t_max = float(cfg.opt("t_max", 0.9 * t_rec))
    n_t = int(cfg.opt("n_times", 60))
    tol = float(cfg.opt("tol", 1e-8))
    times = np.linspace(0.0, t_max, n_t)

    trunc = Truncation(p)
    base = dyn.survival(p.with_(lam=0.0), times, tol=tol, trunc=trunc)
    dev0 = float(np.max(np.abs(np.real(base.values) - 1.0)))
    checks = [BoundReport.of(
        "uncoupled reference state is exactly invariant", dev0, "<=", 1e-12)]
    series_out = [base]

    def one(lam):
        return dyn.survival(p.with_(lam=lam), times, tol=tol, trunc=trunc)

    runs = _pmap(one, lams, cfg.jobs)
    fits = {}
    for lam, ser in zip(lams, runs):
        series_out.append(ser)
        fit = dyn.decay_rate(ser, window=cfg.opt("fit_window", None))
        fits[lam] = fit
        vals = np.real(ser.values)
        val_max, val_min = float(np.max(vals)), float(np.min(vals))
        checks.append(BoundReport.of(
            f"survival stays in [0,1] (lam={lam})", val_max, "<=",
            1.0 + 1e-8, also=val_min >= -1e-8,
            detail={"rate": fit.rate, "residual": fit.residual,
                    "window": list(fit.window), "widened": fit.widened,
                    "min": val_min, "min_margin": val_min + 1e-8,
                    "krylov_error": ser.meta["krylov_error"]}))

    if lams:
        lam_big = max(lams)
        ser = runs[lams.index(lam_big)]
        val_min = float(np.min(np.real(ser.values)))
        checks.append(BoundReport.of(
            "survival decays below one half before recurrence", val_min, "<",
            0.5, detail={"lam": lam_big, "recurrence_time": t_rec}))

    if len(lams) == 2:
        r1, r2 = fits[lams[0]].rate, fits[lams[1]].rate
        expected = (lams[1] / lams[0]) ** 2
        ratio = r2 / r1 if r1 != 0 else np.inf
        rel = abs(ratio - expected) / expected
        checks.append(BoundReport.of(
            "decay rate scales with the coupling squared", rel, "<=", 0.25,
            detail={"rates": {str(l): fits[l].rate for l in lams},
                    "ratio": ratio, "expected": expected}))

    ergodic = runs[-1].ergodic_mean() if runs else None
    tables = {}
    if ergodic is not None:
        tables["ergodic_mean"] = {
            "columns": ["time", "value"],
            "rows": [[t, v] for t, v in zip(times, ergodic)]}
    return Report(kind="dynamics", config=_config_echo(cfg), checks=checks,
                  series=series_out, tables=tables,
                  stats={"recurrence_time": t_rec,
                         "rates": {str(l): fits[l].rate for l in fits}})


# ---------------------------------------------------------------------------

def run_gjn(cfg: ExperimentConfig) -> Report:
    liou = assemble_liouvillian(cfg.params)
    trunc = liou.trunc
    c1, c2, c3 = (comm.closed_form_commutator(liou, n) for n in (1, 2, 3))
    # i[L, N] = lam i[I, N]: L0 is diagonal.  A phase changes no norm, so
    # it is measured as lam [I, N], in float64 for a real coupling
    number_comm = DiagPlus(np.zeros(trunc.basis.dim), cfg.params.lam,
                           trunc.number_comm)
    targets = {
        "liouvillian": liou.operator,
        "number": DiagPlus(trunc.number),
        "number_commutator": number_comm,
        "c1": c1, "c2": c2, "c3": c3,
    }
    checks = []
    rows = []
    for name, op in targets.items():
        rep = comm.gjn_check(op, trunc.comparison)
        rows.append([name, rep.k_norm, rep.k_form])
        # max() drops a nan behind a number, so both are tested for finiteness
        checks.append(BoundReport.of(
            f"relative bounds finite for {name}",
            max(rep.k_norm, rep.k_form), "<", np.inf,
            also=np.isfinite(rep.k_norm) and np.isfinite(rep.k_form),
            detail={"k_norm": rep.k_norm, "k_form": rep.k_form}))

    for name, op in (("number_commutator", number_comm), ("c3", c3)):
        k = comm.kato_half_power_bound(op, trunc.number, trunc.vacuum_proj)
        rows.append([f"{name}_vs_sqrt_number", k, np.nan])
        checks.append(BoundReport.of(
            f"{name} bounded by the square root of the number operator", k,
            "<", np.inf, detail={"k": k}))

    checks.append(check_j(liou))
    checks.append(comm.small_coupling_stability(cfg.params))
    tables = {"gjn_constants": {"columns": ["operator", "k_norm", "k_form"],
                                "rows": rows}}
    return Report(kind="gjn", config=_config_echo(cfg), checks=checks,
                  tables=tables)


# ---------------------------------------------------------------------------

def run_lambda0_scan(cfg: ExperimentConfig) -> Report:
    p = cfg.params
    lam_grid = list(cfg.opt("lambdas",
                            (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)))
    betas = tuple(cfg.opt("betas", (0.5, 1.0, 2.0)))
    rows, reports = fesh.scan_lambda0(p, lam_grid, betas,
                                      theta=cfg.opt("theta", None),
                                      epsilon=cfg.opt("epsilon", None))
    lam0 = [r[2] for r in rows]
    ratios = [r[3] for r in rows if r[3] > 0]
    spread = (max(ratios) / min(ratios)) if ratios else np.inf
    checks = [
        BoundReport.of(
            "coupling threshold decreases with inverse temperature",
            lam0[-1] - lam0[0] if lam0 else np.nan, "<", 0.0,
            also=all(np.diff(lam0) < 0),
            detail={"lambda0": {str(b): l for b, _, l, _ in rows}}),
        BoundReport.of(
            "threshold tracks the golden-rule constant", spread, "<", 3.0,
            detail={"ratios": {str(r[0]): r[3] for r in rows}}),
    ]
    tables = {"lambda0_scan": {
        "columns": ["beta", "gamma", "lambda0", "lambda0_over_gamma"],
        "rows": [list(r) for r in rows]}}
    for beta, reps in reports.items():
        tables[f"min_eig_beta_{beta}"] = {
            "columns": ["lambda", "min_eig"],
            "rows": [[r.params["lam"], r.measured["m_min_eig"]]
                     for r in reps]}
    return Report(kind="lambda0-scan", config=_config_echo(cfg),
                  checks=checks, tables=tables)


# each kind's pipeline and the option names it reads through
# ExperimentConfig.opt
PIPELINES = {
    "fgr": (run_fgr, ("eps_list", "operator_check", "operator_eps")),
    "bound-chain": (run_bound_chain, ("theta", "epsilon", "lam", "gamma")),
    "feshbach-fuzz": (run_feshbach_fuzz, ("instances", "dim_max")),
    "flow-check": (run_flow_check, ("tol", "n_points", "gronwall_scale")),
    "virial-scan": (run_virial_scan, ("n_pairs", "alphas")),
    "dynamics": (run_dynamics, ("lambdas", "t_max", "n_times", "tol",
                                "fit_window")),
    "gjn": (run_gjn, ()),
    "lambda0-scan": (run_lambda0_scan,
                     ("lambdas", "betas", "theta", "epsilon")),
}


def run(cfg: ExperimentConfig) -> Report:
    if cfg.kind not in PIPELINES:
        raise ValueError(f"unknown experiment kind {cfg.kind!r}; "
                         f"choose from {sorted(PIPELINES)}")
    pipeline, names = PIPELINES[cfg.kind]
    for key in cfg.options:
        if key not in names:
            raise ValueError(f"unknown {cfg.kind} option {key!r}; accepted: "
                             f"{', '.join(names) or 'none'}")
    return pipeline(cfg)
