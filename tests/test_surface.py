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
"""

import ast
from pathlib import Path

import coniclines

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
