"""Every public module-level function and class of the package is used by
the package itself, so API that only the tests call cannot accumulate."""

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
