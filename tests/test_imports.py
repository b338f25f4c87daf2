"""Module boundaries: private names, imports, and the names the benchmark wraps."""

import ast
import importlib.util
from pathlib import Path

import crprime
import crprime.cli
from crprime.expr import LogExpr, RatExpr
from crprime.gauss import GaussRational
from crprime.poly import Poly
from crprime.series import GradedSeries

SRC = Path(crprime.__file__).parent
TESTS = Path(__file__).parent


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "crprime"
            for alias in node.names:
                if internal and alias.name.startswith("_"):
                    offenders.append(f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}")
    assert offenders == []


def test_every_module_level_import_is_used_and_no_function_imports():
    # tests keep their function-level imports; an unused import is refused in both
    offenders = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                offenders += [f"{path.name}: {a.name} unused" for a in node.names
                              if (a.asname or a.name).split(".")[0] not in used]
        if path.parent != SRC:
            continue
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [f"{path.name}:{node.lineno}: import in {fn.name}" for node in ast.walk(fn)
                              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert offenders == []


def test_benchmark_wrap_targets_exist():
    # bench/tracing.py rebinds these names; one that no longer resolves crashes a
    # benchmark run, and a method found only on a base class is wrapped nowhere
    spec = importlib.util.spec_from_file_location("bench_tracing", SRC.parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, path in tracing.LAYER_SPANS + tracing.COUNTERS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert part in vars(owner), f"{module}.{path}"
            owner = vars(owner)[part]
    assert [s for s in tracing.SUITES if s not in vars(crprime.cli)] == []


def _crprime_imports(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level > 0}


def test_scalars_answer_for_themselves():
    # forms asks each component scalar for is_zero, conj, diff and invert, so it
    # needs no scalar module but gauss (for GR_ZERO), and report none of forms
    assert _crprime_imports("forms") == {"gauss"}
    assert "forms" not in _crprime_imports("report")
    for kind in (GaussRational, Poly, RatExpr, LogExpr, GradedSeries):
        assert all(callable(getattr(kind, m, None)) for m in ("is_zero", "conj", "diff")), kind
    for kind in (GaussRational, RatExpr, GradedSeries):
        assert callable(getattr(kind, "invert", None)), kind


def test_scalar_kinds_define_only_their_primitives():
    # -, /, **, truth, lifting and immutability are written once, in gauss's bases
    derived = ("_coerce", "__sub__", "__rsub__", "__truediv__", "__rtruediv__",
               "__pow__", "__bool__", "__setattr__")
    for kind in (GaussRational, Poly, RatExpr, LogExpr, GradedSeries):
        assert [m for m in derived if m in vars(kind)] == [], kind
