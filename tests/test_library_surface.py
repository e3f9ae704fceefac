"""The library holds only what its entry points reach.

Every top-level function and class in `src/amp` must be reachable, by
name, from one of the roots: the CLI (`cli.main`, `cli.build_parser` and
every `cli.cmd_*`), the functions the benchmark wraps in spans
(`perfbench.spans.LAYERS`) and the paper's checkers that no command runs
yet (`sf_typecheck`, `progress_harness`, `parse_local_type`,
`local_to_fsm`).  Code that only tests use lives under `tests/`.

Reachability is by name, over every module at once: a definition is
reached when a reached body mentions its name as a variable, an
attribute or an imported name.  That over-approximates the call graph,
so a definition this test reports is certainly unused by the roots.
"""

from __future__ import annotations

import ast
from pathlib import Path

from perfbench.spans import LAYERS

SRC = Path(__file__).resolve().parent.parent / "src" / "amp"

PAPER_CHECKERS = ("sf_typecheck", "progress_harness", "parse_local_type",
                  "local_to_fsm")


def _mentions(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.asname or sub.name.rpartition(".")[2])
    return names


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(modules) -> dict[str, list]:
    """name -> the top-level statements of any module that bind it.

    Assignments count as well as functions and classes, so that what a
    table or pattern mentions is reached only when the table is."""
    defs: dict[str, list] = {}
    for module, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((module, stmt))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            defs.setdefault(sub.id, []).append(
                                (module, stmt))
    return defs


def _roots(modules) -> set[str]:
    roots = {"main", "build_parser", *PAPER_CHECKERS}
    roots |= {stmt.name for stmt in modules["cli"].body
              if isinstance(stmt, ast.FunctionDef)
              and stmt.name.startswith("cmd_")}
    for functions in LAYERS.values():
        roots |= set(functions)
    # statements that run on import, other than bindings, reach what
    # they mention
    for tree in modules.values():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef, ast.Assign,
                                     ast.AnnAssign, ast.Import,
                                     ast.ImportFrom)):
                roots |= _mentions(stmt)
    return roots


def _unreached() -> list[str]:
    modules = _modules()
    defs = _definitions(modules)
    seen: set[str] = set()
    todo = list(_roots(modules))
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for _module, stmt in defs.get(name, ()):
            todo.extend(_mentions(stmt) - seen)
    return sorted(f"{module}.{stmt.name}"
                  for name, bound in defs.items() if name not in seen
                  for module, stmt in bound
                  if not isinstance(stmt, (ast.Assign, ast.AnnAssign)))


def test_every_library_definition_is_reached_from_an_entry_point():
    assert _unreached() == []


def test_every_root_is_defined():
    named = set(PAPER_CHECKERS).union(*LAYERS.values())
    assert named - set(_definitions(_modules())) == set()


def test_the_library_does_not_import_the_tests():
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module or ""]
            else:
                continue
            for target in targets:
                assert target.split(".")[0] != "tests", (module, target)


def test_every_imported_name_is_used():
    """A deletion leaves no import behind that its module never reads."""
    for module, tree in _modules().items():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0]
                             for alias in node.names}
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported |= {alias.asname or alias.name
                             for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        assert sorted(imported - read) == [], module
