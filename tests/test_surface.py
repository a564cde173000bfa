"""The public surface of `src/` is used by the program, not only by the tests.

A public function or method is used when its name appears as a name or an
attribute somewhere in the package, the scripts or the benchmark; a CLI
command `cmd_<name>` is used when `add_parser` registers the subcommand
`<name>`, which `cli.main` dispatches to it by name.  Import aliases and
`__all__` strings are not uses.  The check matches names, not bindings, so
a method that shares its name with a used one passes unnoticed: a property
`DeletionResult.certified` read only by the tests would pass, because
`minimality_report_text` has a local variable named `certified`.

The package also computes on integers only: `parse` clears the fractions
of an input file, and only the `--window` bounds of `render` stay rational.
And every name a module of the package imports is used in it, if only in
an annotation; `__init__.py` imports to export.

Its values are immutable: every class it defines is an exception, a frozen
dataclass or a tuple, bar the one listed class, and each kind of value
refuses a write.  Its results survive `pickle` and `copy.deepcopy`, so a
process pool can return them.
"""

import ast
import copy
import dataclasses
import importlib
import pickle
from pathlib import Path

import pytest

import coniclines
from coniclines import combinatorics, equivalences, parse
from coniclines.incidence import classify
from coniclines.moduli import minimality_check
from coniclines.poly import HomPoly, ProjPoint
from coniclines.splitting import analyze_split, zariski_certificate

from .conftest import generic_lines, load

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "coniclines").glob("*.py"))
PROGRAM = PACKAGE + [p for d in ("scripts", "bench") for p in sorted((ROOT / d).glob("*.py"))]

# kept on purpose: the certificate tests replay against an independent checker
KEPT_FOR_TESTS = {"replay_certificate"}


def _trees(paths):
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths]


def public_defs() -> set[str]:
    return {
        node.name
        for tree in _trees(PACKAGE)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }


def used_names() -> set[str]:
    used = set()
    for tree in _trees(PROGRAM):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_parser":
                used.add(f"cmd_{node.args[0].value}")
    return used


def test_every_public_def_has_a_program_caller():
    assert public_defs() - used_names() - KEPT_FOR_TESTS == set()


def test_every_export_resolves():
    assert [name for name in coniclines.__all__ if not hasattr(coniclines, name)] == []


def fractions_importers() -> set[str]:
    found = set()
    for path, tree in zip(PACKAGE, _trees(PACKAGE)):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "fractions" in modules:
                found.add(path.name)
    return found


def test_only_the_window_code_imports_fractions():
    assert fractions_importers() <= {"cli.py", "render.py"}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names the module imports but never loads, annotations included."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - loaded


def test_every_import_is_used():
    unused = {
        (path.name, name)
        for path, tree in zip(PACKAGE, _trees(PACKAGE))
        if path.name != "__init__.py"
        for name in unused_imports(tree)
    }
    assert unused == set()


# the classes that are neither exceptions, frozen dataclasses nor tuples
MUTABLE_BY_DESIGN = {
    "_Canvas",  # private to `render_svg`, built once per call and never handed out
}


def defined_classes() -> list[type]:
    """Every class that a module of the package defines."""
    found = []
    for path in PACKAGE:
        if not path.stem.startswith("__"):
            module = importlib.import_module(f"coniclines.{path.stem}")
            found += [
                obj
                for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module.__name__
            ]
    return found


def test_every_class_is_immutable():
    classes = defined_classes()
    # a class defined inside a function would escape the module scan
    class_defs = {
        node.name
        for tree in _trees(PACKAGE)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    assert {cls.__name__ for cls in classes} == class_defs
    loose = {
        cls.__name__
        for cls in classes
        if not issubclass(cls, (BaseException, tuple))
        and not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen)
    }
    assert loose == MUTABLE_BY_DESIGN


A = parse(generic_lines(3) + "curve B = L1 L2\n")
EQS = equivalences(combinatorics(A), combinatorics(A))
MUTATIONS = {
    "point": lambda: setattr(ProjPoint(1, 2, 3), "coords", (5, 5, 5)),
    "form": lambda: setattr(A.components[0].form, "coeffs", (1, 0, 0)),
    "component": lambda: setattr(A.components[0], "label", "X"),
    "local-type": lambda: setattr(classify(2, (1,)), "branch_count", 3),
    "subcurves": lambda: A.subcurves.__setitem__("X", ("nope",)),
    "phi": lambda: EQS.phi.__setitem__("L1", "L2"),
    "generator": lambda: EQS.generators[0].__setitem__("L1", "L2"),
}


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=list(MUTATIONS))
def test_values_refuse_mutation(mutate):
    with pytest.raises((AttributeError, TypeError)):
        mutate()


P1, P2 = load("pair1_B1"), load("pair1_B2")
SPLIT = (P1.subcurve("B"), P1.subcurve("CC"))
RESULTS = {
    "form": lambda: HomPoly(2, (1, 0, 0, 1, 0, -1)),
    "component": lambda: P1.components[0],
    "combinatorics": lambda: combinatorics(P1),
    "split": lambda: analyze_split(P1, *SPLIT),
    "zariski": lambda: zariski_certificate(P1, P2, ("B", "CC"), ("B", "CC")),
    "minimality": lambda: minimality_check(P1, P2),
}


@pytest.mark.parametrize("build", RESULTS.values(), ids=list(RESULTS))
def test_results_round_trip(build):
    value = build()
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
