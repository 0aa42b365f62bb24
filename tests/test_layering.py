"""Import layering of ``src/repro``, checked on the syntax trees.

No module is imported or executed: every ``import``/``from`` statement
(module level or nested in a function) is read with :mod:`ast`.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _imports():
    """``(importer, imported module, imported name or None)`` for every
    import statement under ``src/repro``, relative imports resolved."""
    for path in sorted(SRC.rglob("*.py")):
        package = ["repro", *path.relative_to(SRC).parent.parts]
        stem = [] if path.name == "__init__.py" else [path.stem]
        importer = ".".join(package + stem)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield importer, alias.name, None
            elif isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                for alias in node.names:
                    yield importer, module, alias.name


def _within(module: str, name: str | None, layer: str) -> bool:
    """True when ``from module import name`` reaches ``layer`` or inside it."""
    return f"{module}.{name or ''}.".startswith(layer + ".")


def test_only_the_entry_point_imports_the_cli():
    assert not [
        (importer, module, name)
        for importer, module, name in _imports()
        if _within(module, name, "repro.cli") and importer not in ("repro.__main__", "repro.cli")
    ]


def test_storage_imports_nothing_above_it():
    assert not [
        (importer, module, name)
        for importer, module, name in _imports()
        if importer.startswith("repro.storage")
        and any(_within(module, name, f"repro.{layer}") for layer in ("service", "replication", "sim"))
    ]


def test_no_module_reaches_into_the_wal_modules_private_names():
    assert not [
        (importer, name)
        for importer, module, name in _imports()
        if module == "repro.storage.wal"
        and (name or "").startswith("_")
        and importer != "repro.storage.wal"
    ]


def _calls_outside(*allowed: str):
    """``(path under src/repro, module tree, call node)`` for every call in a
    module whose path starts with none of ``allowed``."""
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if not relative.startswith(allowed):
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    yield relative, tree, node


def _is_dataclasses_replace(tree: ast.Module, func: ast.expr) -> bool:
    """Does ``func`` name ``dataclasses.replace`` under any alias ``tree`` imports?"""
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    if isinstance(func, ast.Name):
        return any(
            (alias.asname or alias.name) == func.id
            for node in imports
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
            for alias in node.names
            if alias.name == "replace"
        )
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "replace"
        and isinstance(func.value, ast.Name)
        and any(
            (alias.asname or alias.name) == func.value.id
            for node in imports
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "dataclasses"
        )
    )


def test_only_the_algebra_swaps_the_plan_of_a_subquery_expression():
    """``Expr.map_subplans`` is the one ``replace(sub, plan=...)``."""
    assert not [
        (relative, call.lineno)
        for relative, tree, call in _calls_outside("algebra/")
        if any(keyword.arg == "plan" for keyword in call.keywords)
        and _is_dataclasses_replace(tree, call.func)
    ]


def test_only_the_algebra_and_the_compiler_enumerate_nested_plans():
    """Passes enter nested blocks through ``map_subplans`` / ``iter_dag(nested=True)``."""
    assert not [
        (relative, call.lineno)
        for relative, _, call in _calls_outside("algebra/", "engine/compile.py")
        if isinstance(call.func, ast.Attribute) and call.func.attr == "subquery_plans"
    ]


def test_no_module_reaches_into_the_servers_private_names():
    """The WAL rule, for ``service/server.py``: payload parsers stay in
    the file that parses payloads."""
    assert not [
        (importer, name)
        for importer, module, name in _imports()
        if module == "repro.service.server"
        and (name or "").startswith("_")
        and importer != "repro.service.server"
    ]


def test_nothing_subclasses_the_query_service():
    """Primary / replica / fenced is state behind ``QueryService.role``,
    not a subclass overriding the gates."""
    assert not [
        (path.relative_to(SRC).as_posix(), node.name)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        and any(
            (base.id if isinstance(base, ast.Name) else getattr(base, "attr", None))
            == "QueryService"
            for base in node.bases
        )
    ]


def test_replication_paths_appear_only_in_the_servers_route_table():
    tree = ast.parse((SRC / "service" / "server.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "_ROUTES" for target in node.targets)
    ]
    mounted = {id(node) for node in ast.walk(table)}
    paths = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("/replication")
    ]
    assert paths
    assert not [(node.value, node.lineno) for node in paths if id(node) not in mounted]


def test_the_role_module_imports_nothing_from_the_service():
    """docs/architecture.md's diagram: the node side of replication
    (``stream``, ``role``) sits *below* ``service/``, which mounts it
    through ``role`` alone; followers, routing and failover sit above."""
    below = ("repro.replication.role", "repro.replication.stream")
    assert not [
        (importer, module, name)
        for importer, module, name in _imports()
        if importer in below and _within(module, name, "repro.service")
    ]
    assert not [
        (importer, module, name)
        for importer, module, name in _imports()
        if importer.startswith("repro.service")
        and _within(module, name, "repro.replication")
        and module != "repro.replication.role"
    ]


def test_only_the_planner_runs_plans_outside_the_engine():
    """``PlannedQuery.execute`` is the one caller of ``execute_plan`` (and
    nothing outside the engine compiles a plan itself): reads, prepared
    statements, EXPLAIN ANALYZE and the read inside every DML statement
    all get there through ``Database._run_healed``."""
    runners = ("execute_plan", "compile_plan")
    named = {
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if not path.relative_to(SRC).as_posix().startswith("engine/")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Name) and node.id in runners)
        or (isinstance(node, ast.Attribute) and node.attr in runners)
        or (isinstance(node, ast.alias) and node.name in runners)
    }
    assert named == {"optimizer/planner.py"}


def test_dml_imports_nothing_from_the_engine():
    """``repro.dml`` builds a plan and splices rows; planning is the
    planner's and running is the caller's."""
    assert not [
        (module, name)
        for importer, module, name in _imports()
        if importer == "repro.dml" and _within(module, name, "repro.engine")
    ]
