import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermion
from thermion.cli import build_config, emit, main, parse_config_text
from thermion.experiments import ExperimentConfig, run
from thermion.reports import (Report, TimeSeries, report_to_json,
                              series_to_csv, table_to_csv)


def test_parse_config_flat_keys():
    text = """
    # comment line
    model.beta = 2.0
    model.n_u = 16        # trailing comment
    run.seed = 7
    dynamics.lambdas = [0.05, 0.1]
    fgr.operator_check = true
    """
    entries = parse_config_text(text)
    assert entries["model.beta"] == 2.0
    assert entries["model.n_u"] == 16
    assert entries["run.seed"] == 7
    assert entries["dynamics.lambdas"] == [0.05, 0.1]
    assert entries["fgr.operator_check"] is True


def test_parse_config_rejects_garbage():
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("just some words")


def test_build_config_precedence_and_model_keys():
    cfg = build_config("fgr", {"model.beta": 3.0, "run.seed": 9,
                               "fgr.eps_list": [0.1]})
    assert cfg.params.beta == 3.0
    assert cfg.seed == 9
    assert cfg.opt("eps_list", None) == [0.1]


def test_build_config_rejects_unknown_model_key():
    with pytest.raises(ValueError, match="unknown model key"):
        build_config("fgr", {"model.nonsense": 1})


def test_kernel_scale_override():
    cfg = build_config("fgr", {"model.kernel_scale": 0.5})
    assert cfg.params.kernel.gamma.scale == 0.5
    base = build_config("fgr", {})
    e = np.array([1.0, 2.0])
    assert np.allclose(cfg.params.kernel.gamma(e),
                       0.5 * base.params.kernel.gamma(e))


def test_series_csv_round_shape():
    ser = TimeSeries(times=np.array([0.0, 1.0, 2.0]),
                     values=np.array([1.0, 0.5, 0.25]))
    text = series_to_csv(ser)
    lines = text.strip().split("\n")
    assert lines[0] == "time,value"
    assert len(lines) == 4


def test_empty_table_has_header_only():
    text = table_to_csv(["alpha", "residual"], [])
    assert text.strip() == "alpha,residual"


def test_report_json_round_trip(tmp_path):
    cfg = ExperimentConfig(kind="feshbach-fuzz", seed=1,
                           options={"instances": 3, "dim_max": 8})
    rep = run(cfg)
    text = report_to_json(rep)
    parsed = json.loads(text)
    assert parsed["kind"] == "feshbach-fuzz"
    assert parsed["schema"].startswith("thermion-report")
    assert parsed["config"]["seed"] == 1
    # re-serialization of the parsed structure is stable
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" \
        == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_determinism_across_seeds_and_jobs(tmp_path):
    texts = []
    for jobs in (1, 2, 4):
        cfg = ExperimentConfig(kind="feshbach-fuzz", seed=42, jobs=jobs,
                               options={"instances": 12, "dim_max": 10})
        texts.append(report_to_json(run(cfg)))
    assert texts[0] == texts[1] == texts[2]
    other = report_to_json(run(ExperimentConfig(
        kind="feshbach-fuzz", seed=43,
        options={"instances": 12, "dim_max": 10})))
    assert other != texts[0]


def test_main_exit_codes(tmp_path):
    out = str(tmp_path / "r1")
    code = main(["feshbach-fuzz", "--out", out, "--seed", "5",
                 "feshbach-fuzz.instances=4"])
    assert code == 0
    assert (tmp_path / "r1" / "feshbach-fuzz.json").exists()
    assert main(["feshbach-fuzz", "--out", out, "bad-override"]) == 1
    assert main(["no-such-kind"]) == 1


def test_main_csv_emission(tmp_path):
    out = str(tmp_path / "r2")
    code = main(["flow-check", "--out", out, "--format", "csv",
                 "flow-check.n_points=12"])
    assert code == 0
    assert (tmp_path / "r2" / "flow-check.json").exists()


def test_main_byte_identical_reports(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out, jobs in ((a, "1"), (b, "3")):
        assert main(["feshbach-fuzz", "--out", out, "--seed", "11",
                     "--jobs", jobs, "feshbach-fuzz.instances=8"]) == 0
    ja = Path(a, "feshbach-fuzz.json").read_bytes()
    jb = Path(b, "feshbach-fuzz.json").read_bytes()
    assert ja == jb


def test_operator_kinds_build_no_kronecker_product(tmp_path, monkeypatch):
    # every kind that builds a Truncation applies its composite operators
    # factored: no Kronecker product of the factors is ever formed (fgr,
    # feshbach-fuzz and flow-check build no composite operator at all)
    import scipy.sparse
    kron, calls = scipy.sparse.kron, {}

    def counted(*args, **kwargs):
        calls[kind] += 1
        return kron(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse, "kron", counted)
    for kind in ("virial-scan", "dynamics", "gjn", "bound-chain",
                 "lambda0-scan"):
        calls[kind] = 0
        main([kind, "--out", str(tmp_path), "model.n_e=4", "model.n_u=4",
              "model.n_max=1"])
    assert calls == dict.fromkeys(calls, 0)


@pytest.mark.parametrize("override", ["model.n_e=0", "model.n_e=2.5",
                                      "model.n_max=-1", "model.n_max=0",
                                      "model.e_max=0",
                                      "model.u_max=-2.0",
                                      "model.bound_energy=0.5"])
def test_main_refuses_invalid_grid(tmp_path, capsys, override):
    out = tmp_path / "bad"
    assert main(["dynamics", "--out", str(out), override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and override.split("=")[0][6:] in err
    assert not out.exists()


@pytest.mark.parametrize("kind, override", [
    ("virial-scan", "virial-scan.n_pairs=0"),
    ("virial-scan", "virial-scan.n_pairs=11 model.n_e=1 model.n_u=2"),
    ("dynamics", "dynamics.tol=0"),
    ("dynamics", "dynamics.n_times=0"),
    ("dynamics", "dynamics.n_times=1"),
    ("dynamics", "dynamics.t_max=0"),
    ("dynamics", "dynamics.t_max=-1"),
    ("virial-scan", "virial-scan.alphas=[]"),
    ("feshbach-fuzz", "feshbach-fuzz.instances=0"),
    ("feshbach-fuzz", "feshbach-fuzz.dim_max=5"),
    ("flow-check", "flow-check.n_points=0"),
    ("feshbach-fuzz", "fuzz.instances=4"),
    ("feshbach-fuzz", "feshbach-fuzz.instance=4"),
    ("feshbach-fuzz", "run.format=xml"),
    ("fgr", "fgr.eps_list=[]"),
    ("fgr", "fgr.eps_list=[0.1,0]"),
    ("fgr", "fgr.eps_list=[-0.1]"),
    ("fgr", "fgr.operator_eps=0 fgr.operator_check=true"),
    ("fgr", "fgr.operator_eps=-0.5"),
    ("virial-scan", "virial-scan.alphas=[0]"),
    ("virial-scan", "virial-scan.alphas=[-0.1,0.05]"),
    ("flow-check", "flow-check.gronwall_scale=0"),
    ("flow-check", "flow-check.tol=0"),
    ("lambda0-scan", "lambda0-scan.betas=[0]"),
    ("lambda0-scan", "lambda0-scan.betas=[1,-1]"),
    ("lambda0-scan", "lambda0-scan.betas=[]"),
    ("lambda0-scan", "lambda0-scan.lambdas=[]"),
    ("lambda0-scan", "lambda0-scan.lambdas=[-0.1]"),
    ("lambda0-scan", "lambda0-scan.theta=0"),
    ("lambda0-scan", "lambda0-scan.epsilon=-1"),
    ("bound-chain", "bound-chain.gamma=-1"),
    ("bound-chain", "bound-chain.theta=0"),
    ("bound-chain", "bound-chain.epsilon=-1")])
def test_main_refuses_pipeline_errors(tmp_path, capsys, kind, override):
    # a ValueError from the pipeline itself is a usage error too (so is
    # more eigenpairs than ARPACK serves: dim 12 allows 10, a golden rule
    # with no width, and an option out of its range: a pipeline refuses it
    # before it runs, not by a crash deeper down), and so is an option
    # scoped to anything but the kind or not declared by it (no pipeline
    # would read it), or a report format other than json or csv; the error
    # names the option
    out = tmp_path / "bad"
    assert main([kind, "--out", str(out), *override.split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert override.split("=")[0].rsplit(".", 1)[1] in err
    assert not out.exists()


def test_bound_chain_admits_a_zero_gamma(tmp_path):
    # the recipe floors a zero rate: the chain runs and fails its smallness
    # flags (exit 2, a report), where a negative gamma is refused
    assert main(["bound-chain", "--out", str(tmp_path), "model.n_e=4",
                 "model.n_u=4", "model.n_max=1", "bound-chain.gamma=0"]) == 2
    assert (tmp_path / "bound-chain.json").exists()


@pytest.mark.parametrize("override, failed, not_finite", [
    ("model.kernel_power=2", "kernel weighted integrals finite (orders <= 3)",
     ["w1_d2", "w2_d1", "w3_d0"]),
    ("model.kernel_power=2.5",
     "kernel weighted integrals finite (orders <= 3)",
     ["w0_d3", "w1_d2", "w2_d1", "w3_d0"]),
    ("model.form_scale=0", "golden-rule constant strictly positive", None),
    ("model.kernel_scale=0", "golden-rule constant strictly positive", None)])
def test_main_reports_a_divergent_kernel_and_a_zero_rate(
        tmp_path, override, failed, not_finite):
    # a weighted kernel integral that diverges (e^-6 |Gamma|^2 ~ e^-2 near
    # 0 at power 2) and a zero rate are findings, not crashes: the report
    # is written, that one check fails and names what diverged
    assert main(["fgr", "--out", str(tmp_path), "fgr.eps_list=[0.2]",
                 override]) == 2
    rep = json.loads((tmp_path / "fgr.json").read_text())
    assert [c["check"] for c in rep["checks"] if not c["passed"]] == [failed]
    kernel = next(c for c in rep["checks"] if c["check"].startswith("kernel"))
    assert kernel["detail"].get("not_finite") == not_finite
    if not_finite:
        # each divergent column bisects to the subinterval limit and reads
        # nan, a nan error estimate counting as unconverged (w3_d0's
        # overflows to one), and the check's value keeps the nan
        assert all(math.isnan(kernel["detail"][f"column_{c}"])
                   for c in not_finite)
        assert math.isnan(kernel["value"])


def test_virial_scan_report_is_strict_json_when_the_scan_vanishes(tmp_path):
    # at n_e = 1, n_u = 2 every scan value is exactly 0, so no order of
    # decay is defined: each becomes null rather than NaN
    main(["virial-scan", "--out", str(tmp_path), "model.n_e=1",
          "model.n_u=2"])

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    rep = json.loads((tmp_path / "virial-scan.json").read_text(),
                     parse_constant=refuse)
    detail = next(c["detail"] for c in rep["checks"]
                  if "alpha_orders" in c["detail"])
    assert all(v == 0.0 for _, v in detail["scan"])
    assert detail["alpha_orders"] == [None] * (len(detail["scan"]) - 1)


def test_run_refuses_undeclared_options():
    cfg = ExperimentConfig(kind="feshbach-fuzz", options={"instance": 4})
    with pytest.raises(ValueError, match="'instance'; accepted: instances, "
                                         "dim_max"):
        run(cfg)
    with pytest.raises(ValueError, match="'eps_list'"):
        cfg.opt("eps_list", None)
    with pytest.raises(ValueError, match="accepted: none"):
        run(ExperimentConfig(kind="gjn", options={"tol": 1e-3}))


# scipy.integrate alone pulled in scipy.optimize, scipy.special, scipy.fft
# and scipy.spatial, about a third of every run's start-up
LAZY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.special",
              "scipy.fft")


def _loaded_after(script, *args):
    src = str(Path(thermion.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script + "\nprint(sorted(m for m in "
         f"{LAZY_SCIPY + ('scipy.interpolate',)!r} if m in sys.modules))",
         *args], env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # only flow-check's splines need scipy.interpolate, and only its flows
    # scipy.integrate; every other kind should not pay for importing them
    assert _loaded_after("import sys, thermion.cli") == "[]"


def test_runs_leave_lazy_scipy_modules_unloaded(tmp_path):
    # fgr and bound-chain compute the golden-rule constant inside main(),
    # so a scipy module imported there would land in their run time
    script = "\n".join([
        "import sys; from thermion.cli import main; out = sys.argv[1]",
        "small = ['model.n_e=4', 'model.n_u=4', 'model.n_max=1']",
        "assert main(['fgr', '--out', out, 'fgr.eps_list=[0.2]']) == 0",
        *(f"main(['{kind}', '--out', out, *small])"
          for kind in ("bound-chain", "dynamics", "virial-scan"))])
    assert _loaded_after(script, str(tmp_path)) == "[]"


@pytest.mark.parametrize("kind, options, code", [
    *(pytest.param(kind, [], code, id=kind) for kind, code in [
        ("gjn", 0), ("feshbach-fuzz", 0), ("fgr", 0), ("bound-chain", 2),
        ("lambda0-scan", 2), ("dynamics", 2), ("virial-scan", 2),
        ("flow-check", 0)]),
    pytest.param("dynamics", ["model.n_u=40"], 2, id="dynamics-n_u=40"),
    pytest.param("virial-scan", ["model.n_e=16", "model.n_u=40"], 2,
                 id="virial-scan-n_e=16-n_u=40")])
def test_report_bytes_do_not_depend_on_blas_threads(tmp_path, kind, options,
                                                    code):
    # default gjn once varied in its number_commutator constants with the
    # BLAS thread count (complex svds); its norms now run in float64.
    # feshbach-fuzz evaluates stacks of reduced blocks through batched
    # matmul and det. fgr's midpoint oracle sums its Lorentzian matrix as
    # an FFT correlation, and its adaptive quadrature contracts with einsum
    # (fgr, bound-chain and lambda0-scan read gamma from it), which no BLAS
    # thread count may move.  bound-chain
    # and lambda0-scan take their compensation constant from a Gram
    # eigenvalue; both exit 2 at defaults, on the chain's failing steps.
    # dynamics and virial-scan run Lanczos on the factored operators.  The
    # recurrence's reductions, alpha = Re <q, w> and beta = ||w||, and
    # virial-scan's expectations and norms are linalg.vdot and
    # linalg.norm, einsums: as np.vdot and np.linalg.norm they were BLAS
    # dots, which OpenBLAS threads above dim 10,000, and at dim 11,849
    # dynamics wrote series 3e-15 apart at 1 and 2 threads, virial-scan
    # <psi, L psi> 2e-15 apart.  The operators' left factors and
    # Lanczos' vector combine go through linalg.one_thread_matmul, in
    # blocks that OpenBLAS runs on one thread, and the operators' real
    # Fock-block products (the gather and scatter
    # of the sector blocks) take a complex input as its float64 view: gjn's
    # modular-conjugation check applies L to complex vectors, and a complex
    # product with one term's one-row low block was a zgemv whose bits
    # followed the thread count; flow-check integrates its flows by
    # solve_ivp
    src = str(Path(thermion.__file__).resolve().parents[1])
    texts, codes = [], []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "thermion.cli", kind,
                               "--out", str(tmp_path / threads), *options],
                              env=env, capture_output=True, timeout=300)
        codes.append(proc.returncode)
        texts.append((tmp_path / threads / f"{kind}.json").read_bytes())
    assert codes == [code, code]
    assert texts[0] == texts[1]


def test_runs_wake_no_numpy_blas_worker(tmp_path):
    # numpy and scipy each load their own OpenBLAS, and on 2 vCPUs a woken
    # worker of one pool spins against the main thread: the Krylov paths'
    # vector combine, a threaded zgemm, was the larger part of a virial-scan
    # run.  The threads present after `import numpy`, before scipy loads,
    # are numpy's BLAS workers; their CPU time must not grow over a run of
    # every kind at its defaults, of the two Krylov paths above dim 10,000
    # and at the virial workload's truncation, and of virial-scan at a
    # particle dimension of 16, where a row block of 2^16 // 16^2 made the
    # left factors' complex gemms exactly 2^16 multiply-adds, threaded
    script = "\n".join([
        "import os, sys, time",
        "import numpy",
        "tasks = '/proc/self/task'",
        "workers = [t for t in os.listdir(tasks) if t != str(os.getpid())]",
        "paths = [f'{tasks}/{t}/schedstat' for t in workers]",
        "if not workers or not all(map(os.path.exists, paths)):",
        "    print('skip'); sys.exit()",
        "def runtime():",
        "    return sum(int(open(p).read().split()[0]) for p in paths)",
        "from thermion.cli import main",
        "before = runtime()",
        "while (time.sleep(0.05), now := runtime())[1] != before:",
        "    before = now",
        *(f"main({[kind, '--out', str(tmp_path), *options]!r})"
          for kind, options in [
              *((kind, []) for kind in (
                  "gjn", "feshbach-fuzz", "fgr", "bound-chain",
                  "lambda0-scan", "dynamics", "virial-scan", "flow-check")),
              ("virial-scan", ["model.n_e=10", "model.n_u=20"]),
              ("virial-scan", ["model.n_e=15", "model.n_u=16"]),
              ("dynamics", ["model.n_u=40"])]),
        "print(runtime() - before)"])
    src = str(Path(thermion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2",
               OMP_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600,
                          check=True)
    grown = proc.stdout.strip().splitlines()[-1]
    if grown == "skip":
        pytest.skip("no numpy BLAS worker thread, or no schedstat")
    assert int(grown) == 0


@pytest.mark.parametrize("n_e", [1, 2])
def test_gjn_coupling_bound_stable_where_i1_vanishes(tmp_path, n_e):
    # at n_u = 2 (and n_e <= 3) I_1 = 0, so k = 0 exactly at every dilation
    # scale; ARPACK returned about 1e-75 for one of them, and the ratio
    # read 1e29 and more, a FAIL
    main(["gjn", "--out", str(tmp_path), f"model.n_e={n_e}", "model.n_u=2",
          "model.n_max=1"])
    rep = json.loads((tmp_path / "gjn.json").read_text())
    check = next(c for c in rep["checks"] if c["check"]
                 == "coupling bound stable across dilation scales")
    assert check["detail"]["k_values"] == [0.0, 0.0, 0.0]
    assert check["value"] == 1.0 and check["passed"]
