"""Every name the package defines is used by the package.

A function, class, method or module-level constant defined under
``src/kgprep`` must be referenced by name somewhere under ``src/kgprep``:
as a bare name (``harmonize(...)``, ``from .x import f`` then ``f()``) or
as an attribute (``clean.harmonize``, ``table.canon_label``). Imports and
``__all__`` entries are not references. Methods count only through
attributes, since ``self.m``/``cls.m`` is how a method is reached. Dunder
names are protocol hooks and are exempt. Names are matched by spelling
alone, so a definition counts as used when another one of the same name is.
A name that only tests call belongs in the tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

import kgprep

PACKAGE = Path(kgprep.__file__).parent

# Entry points called from outside the package: scripts, tests and the
# benchmark build their corpora with it.
ALLOWED = {"corpus.build_corpus"}


def _modules() -> dict[str, ast.Module]:
    return {
        path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", "."): ast.parse(
            path.read_text(encoding="utf-8")
        )
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, is_method) for each definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name, False
        elif isinstance(node, ast.ClassDef):
            yield f"{module}.{node.name}", node.name, False
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item.name, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", target.id, False


def _references(trees) -> tuple[set[str], set[str]]:
    """Names loaded bare, and attribute names, across all modules."""
    names: set[str] = set()
    attributes: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def unreferenced() -> list[str]:
    modules = _modules()
    names, attributes = _references(modules.values())
    unused = []
    for module, tree in modules.items():
        for qualified, name, is_method in _definitions(module, tree):
            if _is_dunder(name) or qualified in ALLOWED:
                continue
            used = name in attributes if is_method else name in names or name in attributes
            if not used:
                unused.append(qualified)
    return unused


def test_every_definition_is_referenced_by_the_package():
    assert unreferenced() == []


def test_scan_sees_definitions_and_references():
    # the scan itself must find something on each side, or the check
    # above passes vacuously
    modules = _modules()
    defined = {q for m, t in modules.items() for q, _, _ in _definitions(m, t)}
    assert {"clean.harmonize", "model.KnowledgeGraph.mapped", "model.ENTITY_TYPES"} <= defined
    names, attributes = _references(modules.values())
    assert "harmonize" in attributes and "mapped" in attributes and "ENTITY_TYPES" in names
