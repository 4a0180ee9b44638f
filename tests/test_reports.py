import ast
from pathlib import Path

import numpy as np
import pytest

from thermion.reports import BoundReport, Report, report_to_json

SRC = Path(__file__).resolve().parents[1] / "src" / "thermion"


@pytest.mark.parametrize("op, at_bound", [
    ("<", False), ("<=", True), (">", False), (">=", True)])
def test_equality_passes_only_non_strict(op, at_bound):
    rep = BoundReport.of("c", 0.5, op, 0.5)
    assert rep.slack == 0.0
    assert rep.passed is at_bound


@pytest.mark.parametrize("op, value, slack, passed", [
    ("<", 0.25, 0.75, True), ("<=", 2.0, -1.0, False),
    (">", 2.0, 1.0, True), (">=", 0.25, -0.75, False)])
def test_slack_is_positive_on_the_passing_side(op, value, slack, passed):
    rep = BoundReport.of("c", value, op, 1.0)
    assert (rep.value, rep.bound, rep.slack, rep.passed) \
        == (value, 1.0, slack, passed)


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_side_condition_fails_a_check_with_room(op):
    value = 0.0 if op[0] == "<" else 2.0
    assert BoundReport.of("c", value, op, 1.0).passed
    rep = BoundReport.of("c", value, op, 1.0, also=False)
    assert rep.slack == 1.0 and rep.passed is False


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_nan_value_fails(op):
    rep = BoundReport.of("c", np.nan, op, 1.0)
    assert rep.passed is False and np.isnan(rep.slack)


def test_finite_value_under_infinite_bound():
    rep = BoundReport.of("c", np.float64(3.0), "<", np.inf, detail={"k": 3})
    assert rep.passed is True and rep.slack == np.inf
    assert type(rep.value) is float and rep.detail == {"k": 3}
    assert not BoundReport.of("c", np.inf, "<", np.inf).passed


def test_no_check_is_judged_outside_reports():
    # every check goes through BoundReport.of, so the rule that turns a
    # value and a bound into slack and pass lives in one place
    direct = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "reports.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else \
                    getattr(fn, "attr", None)
                if name == "BoundReport":
                    direct.append(f"{path.name}:{node.lineno}")
    assert direct == []


def test_every_check_has_a_src_caller():
    # a check that only tests read is judged outside every report: each
    # module-level function that builds a BoundReport is called in src/
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    builders = [f"{name}:{fn.name}" for name, tree in trees.items()
                for fn in tree.body if isinstance(fn, ast.FunctionDef)
                and any(isinstance(node, ast.Attribute) and node.attr == "of"
                        and getattr(node.value, "id", None) == "BoundReport"
                        for node in ast.walk(fn))]
    assert builders
    assert [b for b in builders if b.split(":")[1] not in used] == []


def test_json_writes_bools_as_true_and_false():
    checks = [BoundReport.of("c", v, "<", 1.0, detail={"flag": np.bool_(v)})
              for v in (0.0, 2.0)]
    text = report_to_json(Report(kind="k", config={}, checks=checks))
    assert '"passed": true' in text and '"passed": false' in text
    assert '"flag": true' in text and '"flag": false' in text
