"""Layout guard: every top-level definition in `src/rela` has a use.

A function or class defined at the top of a module under `src/rela` must
be referenced from `src/rela` or `demos/` outside its own body, or be
exported in `rela.__all__`.  Code only the tests need lives in `tests/`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import rela

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rela"
DEMOS = ROOT / "demos"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_used(node: ast.AST) -> set[str]:
    """Names read inside `node`, bare or as an attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def unreferenced_definitions() -> list[str]:
    defs = []  # (module, name, node)
    uses: list[tuple[ast.AST, set[str]]] = []  # (top-level node, names)
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, _DEFS):
                defs.append((path.stem, top.name, top))
            uses.append((top, _names_used(top)))
    for path in sorted(DEMOS.glob("*.py")):
        uses.append((None, _names_used(
            ast.parse(path.read_text(encoding="utf-8")))))
    exported = set(rela.__all__)
    return [f"{module}.{name}" for module, name, node in defs
            if name not in exported
            and not any(name in names for top, names in uses
                        if top is not node)]


def test_every_definition_is_used_outside_the_tests():
    assert unreferenced_definitions() == []
