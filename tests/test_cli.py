import json
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
                                      "model.u_max=-2.0"])
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
    ("feshbach-fuzz", "fuzz.instances=4"),
    ("feshbach-fuzz", "feshbach-fuzz.instance=4"),
    ("feshbach-fuzz", "run.format=xml"),
    ("fgr", "fgr.eps_list=[]")])
def test_main_refuses_pipeline_errors(tmp_path, capsys, kind, override):
    # a ValueError from the pipeline itself is a usage error too (so is
    # more eigenpairs than ARPACK serves: dim 12 allows 10, and a golden
    # rule with no width), and so is an option scoped to anything but the
    # kind or not declared by it (no pipeline would read it), or a report
    # format other than json or csv; the error names the option
    out = tmp_path / "bad"
    assert main([kind, "--out", str(out), *override.split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert override.split("=")[0].rsplit(".", 1)[1] in err
    assert not out.exists()


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


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # only flow-check's splines need scipy.interpolate; every other kind
    # should not pay for importing it
    src = str(Path(thermion.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, thermion.cli; "
         "print('scipy.interpolate' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("kind", ["gjn", "feshbach-fuzz", "fgr"])
def test_report_bytes_do_not_depend_on_blas_threads(tmp_path, kind):
    # default gjn once varied in its number_commutator constants with the
    # BLAS thread count (complex svds); its norms now run in float64.
    # feshbach-fuzz evaluates stacks of reduced blocks through batched
    # matmul and det. fgr's midpoint oracle sums its Lorentzian matrix as
    # an FFT correlation, which no BLAS thread count may move
    src = str(Path(thermion.__file__).resolve().parents[1])
    texts = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "thermion.cli", kind,
                        "--out", str(tmp_path / threads)],
                       env=env, capture_output=True, timeout=300, check=True)
        texts.append((tmp_path / threads / f"{kind}.json").read_bytes())
    assert texts[0] == texts[1]
