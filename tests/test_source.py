"""Static checks on the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "opbellman"


def test_package_source_has_no_assert_statements():
    # hypotheses are checked explicitly: ``python -O`` strips asserts
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_package_source_has_no_transpose_attribute():
    # ``.T`` reverses every axis of a stack (..., d, d) of matrices; the
    # adjoint of each matrix swaps only the last two (``spectral.adjoint``)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "T"
    ]
    assert not found, f".T attributes in the package: {found}"


#: Top-level names that are entry points rather than helpers: the dim-1
#: oracle of the tier-1 suite, the console-script entry, and the per-trial
#: campaign entry that the benchmark's tracer wraps and the tests call (a
#: campaign checks whole cells, and the acceptance gate checks its trials
#: in rounds through ``_checked_trials``).
ENTRY_POINTS = {"reference_slack", "entrypoint", "run_check_trial"}


def _decorator_names(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        yield target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def test_every_top_level_definition_has_a_caller():
    # a function or class that nothing in the package references, other than
    # its own body and the re-exports of __init__.py, is dead public surface
    defined, used = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            own = getattr(stmt, "name", None)
            for name in names - {own}:
                used[name] = used.get(name, 0) + 1
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if "inequality" not in set(_decorator_names(stmt)):
                    defined.append((path.name, stmt.name))
    dead = [f"{mod}:{name}" for mod, name in defined if name not in used and name not in ENTRY_POINTS]
    assert not dead, f"top-level definitions with no caller in the package: {dead}"
