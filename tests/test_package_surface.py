"""Every public module-level function and class of the package, every
public method and property of its classes, and every public field of its
``core.Value`` records is used by the package itself, so API that only the tests call cannot
accumulate; every private name is used in its own module; and no module
imports another's private names.  ``oracle`` loads nothing of the
map-propagation engine it is compared with, and ``scenarios`` none of the
primitives a sweep's states are composed from.  Every name the benchmark's
workloads read on the package resolves, so API that only the benchmark
calls cannot be deleted unnoticed."""

import ast
import importlib
from pathlib import Path

import qubitfr
from qubitfr import scenarios

PACKAGE = Path(qubitfr.__file__).resolve().parent
WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


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


def init_of_value(node: ast.ClassDef) -> ast.FunctionDef | None:
    """The ``__init__`` of a ``Value`` subclass, whose parameters after
    ``self`` are its fields; None for any other class."""
    if not any(isinstance(b, ast.Name) and b.id == "Value" for b in node.bases):
        return None
    return next(stmt for stmt in node.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__")


def test_every_public_record_field_is_read_in_the_package():
    # A field counts as read where it is loaded as an attribute, anywhere
    # in the package except in its own class's __init__, which sets and
    # validates it.
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    inits = {node.name: init for tree in trees for node in tree.body
             if isinstance(node, ast.ClassDef) and (init := init_of_value(node))}
    assert "EnsembleStats" in inits
    reads = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = []
    for name, init in inits.items():
        validation = {id(node) for node in ast.walk(init)}
        for arg in init.args.args[1:]:
            if arg.arg.startswith("_"):
                continue
            if not any(node.attr == arg.arg and id(node) not in validation
                       for node in reads):
                unread.append(f"{name}.{arg.arg}")
    assert unread == []


def defined_names(stmt: ast.stmt) -> list[str]:
    """Names a function, class or assignment statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_every_private_name_is_used_in_its_own_module():
    # Private module-level functions, classes and constants, and private
    # methods and constants of classes (dunders are exempt): each must be
    # loaded somewhere in its module outside its own definition.
    unused = []
    checked = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        loads = [(node, node.id if isinstance(node, ast.Name) else node.attr)
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute))
                 and isinstance(node.ctx, ast.Load)]
        for stmt in [stmt for node in tree.body for stmt in
                     [node] + (node.body if isinstance(node, ast.ClassDef) else [])]:
            own = {id(node) for node in ast.walk(stmt)}
            for name in filter(is_private, defined_names(stmt)):
                checked += 1
                if not any(used == name and id(node) not in own
                           for node, used in loads):
                    unused.append(f"{path.name}:{stmt.lineno} {name}")
    assert checked >= 20
    assert unused == []


def test_no_module_imports_a_private_name_from_another():
    private = [f"{path.name}:{node.lineno} {alias.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("qubitfr"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


# The propagation engine: pulse trains, conditional matrices and the
# rotations and pulse arithmetic they are built from.
ENGINE = {"pulse_train", "conditional_matrix", "conditional_matrices",
          "periods", "tail_rotations", "bloch_rotation",
          "bloch_rotations", "interval_rotations", "matvec3", "period_map"}


# What a sweep's states are composed from: only ``protocol`` turns a sweep
# into states, and ``scenarios`` reads them through its readouts.
PROPAGATION = {"pulse_train", "periods", "tail_rotations",
               "bloch_rotation", "bloch_rotations",
               "interval_rotations", "matvec3", "period_map",
               "check_bloch_vector"}


def names_of(module: str) -> set[str]:
    """Names ``module`` loads or imports."""
    tree = ast.parse((PACKAGE / module).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    return loaded_names(tree) | imported


def test_oracle_loads_nothing_of_the_propagation_engine():
    assert sorted(ENGINE & names_of("oracle.py")) == []


def test_scenarios_loads_no_propagation_primitive():
    assert sorted(PROPAGATION & names_of("scenarios.py")) == []


def module_attribute_chains(tree: ast.AST) -> set[tuple[str, ...]]:
    """Each dotted name ``module.attr[.attr...]`` read on a module that
    ``tree`` imports with ``from qubitfr import ...``, as (module, attrs...)."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "qubitfr"
               for alias in node.names}
    chains = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in modules:
            chains.add((node.id, *reversed(attrs)))
    return chains


def test_every_name_the_benchmark_reads_on_the_package_resolves():
    chains = module_attribute_chains(ast.parse(WORKLOADS.read_text()))
    assert len({chain[:2] for chain in chains}) >= 15
    assert ("protocol", "ConditionalMatrix", "from_upper_row") in chains
    missing = []
    for module, *attrs in sorted(chains):
        value = importlib.import_module(f"qubitfr.{module}")
        for depth, attr in enumerate(attrs, start=1):
            if not hasattr(value, attr):
                missing.append(".".join([module, *attrs[:depth]]))
                break
            value = getattr(value, attr)
    assert missing == []


def test_protocol_at_holds_the_pulse_count_the_table_writes():
    """The benchmark reads ``protocol_at(t).n_pulses`` as the pulse count of
    a grid time; it is the ``n_pulses`` column of that time's rows."""
    for name, cfg in scenarios.PRESETS.items():
        res = scenarios.resolve(cfg)
        header, rows = scenarios.table(res)
        time, count = header.index("t_f_ns"), header.index("n_pulses")
        written: dict[float, set[int]] = {}
        for row in rows:
            written.setdefault(row[time], set()).add(row[count])
        assert [written.get(t) for t in cfg.t_f_grid] == [
            {res.protocol_at(t).n_pulses} for t in cfg.t_f_grid], name
