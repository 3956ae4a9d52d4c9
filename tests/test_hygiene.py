"""Static checks over the package source: no dead imports or constants,
one evaluator, one owner of snapshot memos and read marks, and no raised
recursion limit.

Each module of src/policygraph and tests is parsed with `ast`, not imported.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "policygraph"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))
NOQA_F401 = re.compile(r"#\s*noqa:.*\bF401\b")
CONSTANT = re.compile(r"^_?[A-Z][A-Z0-9_]*$")
INTERPRETER = frozenset(
    {"evaluate", "satisfy", "merge_conditions", "reduce_conditions", "extract_bindings", "substitute_attrs", "substitute_vars"}
)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_read(tree: ast.AST) -> set[str]:
    """Every name the module reads: loaded names, attribute names, and
    names inside string annotations."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for inner in ast.walk(annotation) if annotation is not None else ():
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                    found |= names_read(ast.parse(inner.value, mode="eval"))
    return found


def exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path: Path) -> list[str]:
    """Imported names the module neither reads nor lists in __all__, except
    those on a `# noqa: F401` line."""
    tree = parse(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    used = names_read(tree) | exported(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(NOQA_F401.search(line) for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(bound)
    return unused


def package_reads(trees: dict[str, ast.Module]) -> set[str]:
    """Every name some module reads, exports or imports from another."""
    read: set[str] = set()
    for tree in trees.values():
        read |= names_read(tree) | exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return read


def unread_constants(modules=MODULES) -> list[str]:
    """Module-level UPPER_CASE names that no module of the package reads."""
    trees = {path.stem: parse(path) for path in modules}
    read = package_reads(trees)
    unread = []
    for stem, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if isinstance(target, ast.Name) and CONSTANT.match(target.id) and target.id not in read:
                    unread.append(f"{stem}.{target.id}")
    return unread


def unread_definitions(modules=MODULES) -> list[str]:
    """Module-level functions and classes that no module of the package
    reads and no __all__ exports.  Module hooks (dunder names such as
    __getattr__) are called by Python itself."""
    trees = {path.stem: parse(path) for path in modules}
    read = package_reads(trees)
    return [
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def calls_of(tree: ast.AST, names: frozenset[str]) -> list[str]:
    """The names among `names` that the module calls, directly or as an
    attribute, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in names:
                found.append(f"{name}:{node.lineno}")
    return sorted(found)


def test_modules_are_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_no_unread_constants():
    assert unread_constants() == []


def test_no_unread_definitions():
    assert unread_definitions() == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "predicates.py"], ids=lambda path: path.name)
def test_only_predicates_calls_the_interpreter(path):
    """The compiled closures are the evaluator; the interpreter's functions
    may be imported (perfbench wraps the re-exports in matching and the
    monitor) but are called only inside predicates.py."""
    assert calls_of(parse(path), INTERPRETER) == []


def test_only_matching_knows_join_keys():
    """The monitor hands the join its committed lists and `equal` pairs;
    it imports nothing from values, reads no canonical form and looks
    nothing up itself, so the join's keys are matching's alone."""
    tree = parse(PACKAGE / "monitor.py")
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "values" not in imported
    assert names_read(tree) & {"canonical", "lookup", "_indexes", "join_keys", "join_plans"} == set()


def test_only_matching_judges_events():
    """An event becomes per-edge candidates in one step,
    matching.event_candidates, which the batch pass, the monitor and the
    universe walk share: neither the monitor nor the algebra routes an
    event, judges an edge or builds a candidate itself."""
    for name in ("monitor.py", "algebra.py"):
        assert names_read(parse(PACKAGE / name)) & {"screen", "route", "edge_candidate", "_EdgeCandidate"} == set(), name


def test_the_monitor_reads_no_expression_node():
    """The `equal` pairs come from predicates.unequal_operands, which walks
    the requirement's top-level || as _spine walks a conjunction: the
    monitor takes expressions whole and reads no node class."""
    assert names_read(parse(PACKAGE / "monitor.py")) & {"BinOp", "Var", "Not", "Const", "Attr"} == set()


def test_only_the_graph_keeps_snapshot_entries():
    """Node-plan outcomes live with the snapshots the graph keeps, which
    only its mutators can tell are stale: only system.py reads the
    entries, and neither matching nor the monitor holds plans weakly or
    handles a memo or a snapshot lookup of its own."""
    assert [path.name for path in MODULES if "_entries" in names_read(parse(path))] == ["system.py"]
    for name in ("matching.py", "monitor.py"):
        tree = parse(PACKAGE / name)
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        assert "weakref" not in imported
        assert names_read(tree) & {"snapshot_entry", "attrs_at", "_outcomes", "outcomes", "_judged", "ref"} == set()


def test_only_the_graph_keeps_read_marks():
    """Which instant last read each object, and what dropping the last
    event restores, change only with the graph's own mutators: only
    system.py reads the marks or the undo record."""
    for field in ("_read", "_undo"):
        assert [path.name for path in MODULES if field in names_read(parse(path))] == ["system.py"], field


def test_no_module_raises_the_recursion_limit():
    """Deep or wide predicates are walked iteratively or rejected; raising
    the interpreter's recursion limit would only hide where they are not."""
    raised = [
        f"{path.parent.name}/{path.name}:{call}"
        for path in MODULES + TEST_MODULES
        for call in calls_of(parse(path), frozenset({"setrecursionlimit"}))
    ]
    assert raised == []


def test_the_checks_see_what_they_look_for(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Iterator, Mapping\n"
        "from json import dumps  # noqa: F401  kept for callers\n"
        "__all__ = ['sys']\n"
        "def f(x: 'Mapping[str, int]') -> None:\n"
        "    return None\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["os", "Iterator"]
    other = tmp_path / "other.py"
    other.write_text(
        "from sample import f\n"
        "def __getattr__(name):\n"
        "    return _helper(name)\n"
        "def _helper(name):\n"
        "    return name\n"
        "def dead():\n"
        "    return f\n"
        "class Dead:\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert unread_definitions([module, other]) == ["other.dead", "other.Dead"]
    assert "UNREAD" not in names_read(ast.parse("UNREAD = 1\nREAD = 2\nprint(READ)"))
    calls = ast.parse("from p import evaluate, satisfy\nimport p\nf = satisfy\nevaluate(1)\np.satisfy(2)\n")
    assert calls_of(calls, INTERPRETER) == ["evaluate:4", "satisfy:5"]
    limit = ast.parse("import sys\nsys.setrecursionlimit(5000)\n")
    assert calls_of(limit, frozenset({"setrecursionlimit"})) == ["setrecursionlimit:2"]
