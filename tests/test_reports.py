import ast
import textwrap
from collections import Counter, defaultdict
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


def _call_name(node):
    fn = node.func
    return fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)


def test_no_check_is_judged_outside_reports():
    # every check goes through BoundReport.of, so the rule that turns a
    # value and a bound into slack and pass lives in one place
    direct = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "reports.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and _call_name(node) == "BoundReport"):
                direct.append(f"{path.name}:{node.lineno}")
    assert direct == []


def test_every_check_has_a_src_caller():
    # a check that only tests read is judged outside every report: each
    # module-level function that builds a BoundReport is called in src/
    builders = [f"{path.stem}.{fn.name}" for path in sorted(SRC.glob("*.py"))
                for fn in ast.parse(path.read_text()).body
                if isinstance(fn, ast.FunctionDef)
                and any(isinstance(node, ast.Attribute) and node.attr == "of"
                        and getattr(node.value, "id", None) == "BoundReport"
                        for node in ast.walk(fn))]
    assert builders
    assert set(builders).isdisjoint(unreached(SRC))


def _names(nodes) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in nodes
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any((_call_name(d) if isinstance(d, ast.Call) else
                getattr(d, "id", None)) == "dataclass"
               for d in cls.decorator_list)


def _init_fields(cls: ast.ClassDef) -> list:
    """(name, position, defaulted) of each field ``__init__`` takes."""
    fields = [node for node in cls.body if isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)]
    fields = [node for node in fields if not (
        isinstance(node.value, ast.Call) and _call_name(node.value) == "field"
        and any(k.arg == "init" and getattr(k.value, "value", True) is False
                for k in node.value.keywords))]
    return [(node.target.id, i, node.value is not None)
            for i, node in enumerate(fields)]


def unreached(src: Path) -> list:
    """What nothing in ``src`` reaches, matched by name: each module-level
    function, method or property (dunders exempt) with no reference outside
    its own definition, each defaulted parameter of one that no call
    outside its definition passes, by keyword or by position, and each
    defaulted dataclass field that no construction (a call of the class,
    or of ``cls`` inside it) sets, by keyword, by position or through
    ``*``/``**``, and no keyword of a ``replace`` or ``with_`` call names."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    defs, classes = [], []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{mod}.{node.name}", node, 0))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{mod}.{node.name}.{fn.name}", fn, 1)
                         for fn in node.body
                         if isinstance(fn, ast.FunctionDef)
                         and not fn.name.startswith("__")]
                if _is_dataclass(node):
                    classes.append((f"{mod}.{node.name}", node))
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    names, calls = _names(nodes), defaultdict(list)
    for node in nodes:
        if isinstance(node, ast.Call):
            calls[_call_name(node)].append(node)
    out = []
    for qual, fn, bound_self in defs:
        own = list(ast.walk(fn))
        if names[fn.name] == _names(own)[fn.name]:
            out.append(qual)
        own = set(map(id, own))
        outside = [call for call in calls[fn.name] if id(call) not in own]
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = [(a, i - bound_self) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(a, float("inf"))
                      for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        for arg, index in defaulted:
            if not any(len(call.args) > index
                       or any(isinstance(a, ast.Starred) for a in call.args)
                       or any(k.arg in (arg.arg, None) for k in call.keywords)
                       for call in outside):
                out.append(f"{qual}({arg.arg})")
    renamed = {k.arg for call in calls["replace"] + calls["with_"]
               for k in call.keywords}
    for qual, cls in classes:
        built = calls[cls.name] + [
            node for node in ast.walk(cls)
            if isinstance(node, ast.Call) and _call_name(node) == "cls"]
        for name, index, defaulted in _init_fields(cls):
            if defaulted and name not in renamed and not any(
                    len(call.args) > index
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg in (name, None) for k in call.keywords)
                    for call in built):
                out.append(f"{qual}.{name}")
    return out


# what only a test or the command line reaches, and why it stays
REACHED_FROM_OUTSIDE = {
    "linalg.lanczos_functions(m_max)":
        "a test sets a small cap to reach the unconverged RuntimeError",
    "fgr._gamma_reg_midpoint(n)":
        "the bit-identity tests hold n = 32-100 against the O(n^2) "
        "reference sum",
    "cli.main(argv)": "the entry point: the console script passes none",
}


def test_nothing_in_src_is_reached_only_from_outside():
    # a function, method or parameter that only tests reach is code that
    # no report runs: it goes, or its exception is listed above
    found = unreached(SRC)
    assert [u for u in found if u not in REACHED_FROM_OUTSIDE] == []
    assert sorted(REACHED_FROM_OUTSIDE) == sorted(
        u for u in found if u in REACHED_FROM_OUTSIDE)


def test_unreached_finds_defaulted_fields_no_construction_sets(tmp_path):
    (tmp_path / "m.py").write_text(textwrap.dedent("""
        from dataclasses import dataclass, field, replace

        @dataclass
        class A:
            x: int
            by_position: int = 0
            by_keyword: int = 0
            by_replace: int = 0
            unset: int = 0
            fixed: int = field(default=1, init=False)

            @classmethod
            def make(cls):
                return cls(1, 2, by_keyword=3)

        @dataclass(frozen=True)
        class B:
            y: int = 0

        def build():
            return replace(A.make(), by_replace=4), B(**{})
        """))
    assert unreached(tmp_path) == ["m.build", "m.A.unset"]


def test_json_writes_bools_as_true_and_false():
    checks = [BoundReport.of("c", v, "<", 1.0, detail={"flag": np.bool_(v)})
              for v in (0.0, 2.0)]
    text = report_to_json(Report(kind="k", config={}, checks=checks))
    assert '"passed": true' in text and '"passed": false' in text
    assert '"flag": true' in text and '"flag": false' in text
