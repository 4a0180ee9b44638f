import json
from pathlib import Path

import numpy as np
import pytest

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
                 "fuzz.instances=4"])
    assert code == 0
    assert (tmp_path / "r1" / "feshbach-fuzz.json").exists()
    assert main(["feshbach-fuzz", "--out", out, "bad-override"]) == 1
    assert main(["no-such-kind"]) == 1


def test_main_csv_emission(tmp_path):
    out = str(tmp_path / "r2")
    code = main(["flow-check", "--out", out, "--format", "csv",
                 "flow.n_points=12"])
    assert code == 0
    assert (tmp_path / "r2" / "flow-check.json").exists()


def test_main_byte_identical_reports(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out, jobs in ((a, "1"), (b, "3")):
        assert main(["feshbach-fuzz", "--out", out, "--seed", "11",
                     "--jobs", jobs, "fuzz.instances=8"]) == 0
    ja = Path(a, "feshbach-fuzz.json").read_bytes()
    jb = Path(b, "feshbach-fuzz.json").read_bytes()
    assert ja == jb


@pytest.mark.parametrize("override", ["model.n_e=0", "model.n_e=2.5",
                                      "model.n_max=-1", "model.e_max=0",
                                      "model.u_max=-2.0"])
def test_main_refuses_invalid_grid(tmp_path, capsys, override):
    out = tmp_path / "bad"
    assert main(["dynamics", "--out", str(out), override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and override.split("=")[0][6:] in err
    assert not out.exists()


@pytest.mark.parametrize("kind, override", [
    ("virial-scan", "virial-scan.n_pairs=0"), ("dynamics", "dynamics.tol=0")])
def test_main_refuses_pipeline_errors(tmp_path, capsys, kind, override):
    # a ValueError from the pipeline itself is a usage error too
    out = tmp_path / "bad"
    assert main([kind, "--out", str(out), override]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
