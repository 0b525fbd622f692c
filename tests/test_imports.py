"""Import hygiene: every name a package module imports is used in it.

The package's ``__init__`` imports names to re-export them, so it is left
out.  Only the standard library's ``ast`` reads the sources.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eulerlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    """The names that the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every bare name the module reads, in code or in an annotation."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(imported_names(tree) - used_names(tree)) == []


def test_only_the_runner_and_snapshots_write_files():
    """Records return data; ``cli`` and ``snapshots`` are the only modules
    that import the artifact writers."""
    writers = {"dump_csv", "dump_json"}
    importers = {path.stem for path in MODULES
                 if writers & imported_names(ast.parse(path.read_text(), filename=str(path)))}
    assert importers == {"cli", "snapshots"}


def test_cfl_number_is_a_constant():
    """``solver.CFL`` is the one CFL number: no function parameter or class
    field is named ``cfl`` except the argument of ``cfl_dt_bound``, which
    computes the bound for any number."""
    found = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                if node.name != "cfl_dt_bound" and any(a and a.arg == "cfl" for a in params):
                    found.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                if any(isinstance(item, ast.AnnAssign) and getattr(item.target, "id", None) == "cfl"
                       for item in node.body):
                    found.add(f"{path.stem}.{node.name}")
    assert sorted(found) == []


def test_only_the_grid_builds_derivative_symbols():
    """``PeriodicGrid.ik`` is the one home of the symbols ``i k``: outside
    ``grid_fields`` no module multiplies ``1j`` by a ``deriv_wavenumber``
    call."""

    def is_1j(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, complex) \
            and node.value == 1j

    def is_k(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "deriv_wavenumber"

    found = set()
    for path in MODULES:
        if path.stem == "grid_fields":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and (
                    (is_1j(node.left) and is_k(node.right))
                    or (is_k(node.left) and is_1j(node.right))):
                found.add(f"{path.stem}:{node.lineno}")
    assert sorted(found) == []


def test_no_code_compares_a_quantity_name():
    """A sweep's rules key on its ``Route``, not on the name of its quantity:
    no comparison in a package module has a route's quantity name as an
    operand."""
    from eulerlab.commutator import ROUTES

    quantities = {r.quantity for r in ROUTES.values()}
    found = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare) and any(
                    isinstance(operand, ast.Constant) and operand.value in quantities
                    for operand in (node.left, *node.comparators)):
                found.add(f"{path.stem}:{node.lineno}")
    assert sorted(found) == []


# Documented API with no caller outside the tests: README specifies the
# ``.eulb`` snapshot format, and these read it back.
DOCUMENTED_ONLY = {"snapshots.read_field", "snapshots.load_trajectory"}


def referenced_names(tree: ast.Module) -> set[str]:
    """Every bare name and every attribute the module reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def trace_targets(tree: ast.Module) -> set[str]:
    """The function names in the string table ``TARGETS`` of ``bench/spans.py``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS"
                                                for t in node.targets):
            return {part for entry in ast.literal_eval(node.value) for part in entry[1].split(".")}
    return set()


def test_every_public_name_has_a_caller():
    """Every name in a package module's ``__all__`` is read somewhere outside
    the tests: in another line of the package (``__init__`` re-exports, so it
    is left out), in a demo script, or in the benchmark, whose trace targets
    ``bench/spans.py`` names as strings."""
    root = PACKAGE.parents[1]
    callers = set()
    for path in [*MODULES, *root.glob("demos/*.py"), *root.glob("bench/*.py")]:
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        callers |= referenced_names(tree)
        if path == root / "bench" / "spans.py":
            callers |= trace_targets(tree)
    uncalled = set()
    for path in MODULES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                uncalled |= {f"{path.stem}.{name}" for name in ast.literal_eval(node.value)
                             if name not in callers}
    assert sorted(uncalled - DOCUMENTED_ONLY) == []
