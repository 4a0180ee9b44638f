"""Command-line front end.

Usage:  thermion KIND [--config PATH] [--out DIR] [--seed N]
                 [--format json|csv] [--jobs N] [KEY=VALUE ...]

KIND is one of the experiment pipelines.  Configuration lives in a flat
text file of dotted keys (one `key = value` per line, values in JSON
syntax): `model.NAME`, `run.NAME` or `KIND.NAME`, and a key of any
other scope, or a NAME the kind does not declare, is refused.
Command-line KEY=VALUE overrides beat the file, which beats the defaults.
Exit code 0 when every check passes, 2 when a check fails, 1 on usage or
I/O errors.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .experiments import PIPELINES, ExperimentConfig, run
from .params import Kernel, ModelParams, PowerExpProfile
from .reports import Report, report_to_json, series_to_csv, table_to_csv

MODEL_KEYS = {"beta", "lam", "theta", "epsilon", "a", "bound_energy",
              "e_max", "n_e", "u_max", "n_u", "n_max", "angular_weight"}
SPECIAL_MODEL_KEYS = {"form_power", "form_scale", "kernel_power",
                      "kernel_scale", "g_ee"}


def parse_config_text(text: str) -> dict:
    """Flat dotted-key config: `a.b = value` lines, JSON-typed values,
    '#' comments."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        key = key.strip()
        val = val.strip()
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    return out


def build_config(kind: str, entries: dict) -> ExperimentConfig:
    model_kwargs = {}
    special = {}
    options = {}
    seed, jobs, fmt, out_dir = 0, 1, "json", "results"
    for key, val in entries.items():
        scope, _, name = key.partition(".")
        if scope == "model":
            if name in MODEL_KEYS:
                model_kwargs[name] = val
            elif name in SPECIAL_MODEL_KEYS:
                special[name] = val
            else:
                raise ValueError(f"unknown model key {name!r}")
        elif scope == "run":
            if name == "seed":
                seed = int(val)
            elif name == "jobs":
                jobs = int(val)
            elif name == "format":
                fmt = str(val)
                if fmt not in ("json", "csv"):
                    raise ValueError(f"run.format must be json or csv, "
                                     f"got {val!r}")
            elif name == "out":
                out_dir = str(val)
            else:
                raise ValueError(f"unknown run key {name!r}")
        elif scope == kind and name:
            # experiment-scoped option, e.g. dynamics.lambdas
            options[name] = val
        else:
            raise ValueError(f"unknown key {key!r}: keys are model.NAME, "
                             f"run.NAME or {kind}.NAME")

    ff = PowerExpProfile(power=float(special.get("form_power", 2.5)),
                         scale=float(special.get("form_scale", 1.0)))
    ker = Kernel(gamma=PowerExpProfile(
        power=float(special.get("kernel_power", 3.0)),
        scale=float(special.get("kernel_scale", 1.0))),
        g_ee=float(special.get("g_ee", 1.0)))
    params = ModelParams(form_factor=ff, kernel=ker, **model_kwargs)
    return ExperimentConfig(kind=kind, params=params, seed=seed, jobs=jobs,
                            out_dir=out_dir, fmt=fmt, options=options)


def emit(report: Report, out_dir: str, fmt: str) -> list:
    """Write the report files; returns the paths written."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        jpath = out / f"{report.kind}.json"
        jpath.write_text(report_to_json(report))
        paths.append(jpath)
        if fmt == "csv":
            for i, ser in enumerate(report.series):
                name = ser.observable.replace(" ", "_") or f"series{i}"
                meta = "_".join(f"{k}{v}" for k, v in sorted(ser.meta.items())
                                if k in ("lam",))
                p = out / f"{report.kind}_{name}_{i}{meta}.csv"
                p.write_text(series_to_csv(ser))
                paths.append(p)
            for name, tab in report.tables.items():
                p = out / f"{report.kind}_{name}.csv"
                p.write_text(table_to_csv(tab["columns"], tab["rows"]))
                paths.append(p)
        return paths
    except OSError as exc:
        raise RuntimeError(f"cannot write to {out_dir}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermion",
        description="finite-truncation spectral checks for a thermally "
                    "coupled bound state")
    parser.add_argument("kind", choices=sorted(PIPELINES))
    parser.add_argument("--config", type=str, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", dest="fmt",
                        choices=["json", "csv"], default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                        help="dotted-key overrides, e.g. model.beta=2.0")
    try:
        args = parser.parse_intermixed_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        entries = {}
        if args.config:
            entries.update(parse_config_text(Path(args.config).read_text()))
        for item in args.overrides:
            if "=" not in item:
                raise ValueError(f"override {item!r} is not KEY=VALUE")
            entries.update(parse_config_text(item))
        if args.seed is not None:
            entries["run.seed"] = args.seed
        if args.jobs is not None:
            entries["run.jobs"] = args.jobs
        if args.fmt is not None:
            entries["run.format"] = args.fmt
        if args.out is not None:
            entries["run.out"] = args.out
        cfg = build_config(args.kind, entries)
        t0 = time.perf_counter()
        report = run(cfg)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    elapsed = time.perf_counter() - t0
    try:
        paths = emit(report, cfg.out_dir, cfg.fmt)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        print(f"[{mark}] {c.check}: value={c.value:.6g} "
              f"bound={c.bound:.6g} slack={c.slack:.6g}")
    print(f"wrote {', '.join(str(p) for p in paths)}", file=sys.stderr)
    print(f"wall clock: {elapsed:.2f} s", file=sys.stderr)
    return 0 if report.all_passed else 2


if __name__ == "__main__":
    sys.exit(main())
