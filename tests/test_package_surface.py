"""Every public module-level function and class of the package, and every
public method and property of its classes, is used by the package itself,
so API that only the tests call cannot accumulate."""

import ast
from pathlib import Path

import qubitfr

PACKAGE = Path(qubitfr.__file__).resolve().parent


def loaded_names(top: ast.AST) -> set[str]:
    """Names used, as bare names or attributes, anywhere under ``top``."""
    names = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_definition_is_used_in_the_package():
    # (module file, top-level statement, names it uses), over the package.
    statements = [(path.name, node, loaded_names(node))
                  for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    assert any(name == "montecarlo.py" for name, _, _ in statements)
    unused = []
    for module, node, _ in statements:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        # The definition's own body does not count as a use.
        if not any(node.name in names for _, other, names in statements
                   if other is not node):
            unused.append(f"{module}:{node.lineno} {node.name}")
    assert unused == []


def test_every_public_method_and_property_is_used_in_the_package():
    # Units: each statement of a class body, and each other top-level
    # statement, over the package; a method's own body is not a use.
    units = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = node.name if isinstance(node, ast.ClassDef) else None
            for stmt in node.body if owner else [node]:
                units.append((f"{path.name}:{stmt.lineno} {owner}", stmt,
                              loaded_names(stmt), owner))
    assert any(owner == "EnsembleStats" for *_, owner in units)
    unused = []
    for label, stmt, _, owner in units:
        if (owner is None or not isinstance(stmt, ast.FunctionDef)
                or stmt.name.startswith("_")):
            continue
        if not any(stmt.name in names for _, other, names, _ in units
                   if other is not stmt):
            unused.append(f"{label}.{stmt.name}")
    assert unused == []
