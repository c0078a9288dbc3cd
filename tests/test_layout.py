"""Layout guard: every top-level definition in `src/rela` has a use.

A function or class defined at the top of a module under `src/rela` must
be reachable from a root: a name exported in `rela.__all__`, a name the
`demos/` read, or a name a module-level statement of `src/rela` reads
outside a definition.  A definition reaches every name its own body
reads, so two definitions that only name each other are both unused.
Code only the tests need lives in `tests/`.  Likewise every `rela.rir`
node class must be constructed by some call in `src/rela`, every
parameter of a function, method or lambda there must be read in its
body, no class outside `rela.rir` is a dataclass, and `rela.automata`
keeps a single work list, to which each walk hands one step function.
"""

from __future__ import annotations

import ast
import dataclasses
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
    defs = []  # (module, name)
    reads: dict[str, set[str]] = {}  # definition name -> names it reads
    roots = set(rela.__all__)
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, _DEFS):
                defs.append((path.stem, top.name))
                reads.setdefault(top.name, set()).update(_names_used(top))
            else:
                roots |= _names_used(top)
    for path in sorted(DEMOS.glob("*.py")):
        roots |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    reached, work = set(), list(roots)
    while work:
        name = work.pop()
        if name not in reached:
            reached.add(name)
            work.extend(reads.get(name, ()))
    return [f"{module}.{name}" for module, name in defs
            if name not in reached]


def test_every_definition_is_used_outside_the_tests():
    assert unreferenced_definitions() == []


def unbuilt_node_kinds() -> list[str]:
    """`rela.rir` node classes that no call in `src/rela` constructs."""
    from rela import rir

    kinds = {name for name, obj in vars(rir).items()
             if isinstance(obj, type) and issubclass(obj, rir._Node)
             and dataclasses.is_dataclass(obj)}
    called = set()
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Call):
                f = n.func
                called.add(f.id if isinstance(f, ast.Name)
                           else getattr(f, "attr", None))
    return sorted(kinds - called)


def test_every_node_kind_is_built_outside_the_tests():
    # A node kind only the tests build is one the evaluator, the
    # renderer and the oracle carry for nothing.
    assert unbuilt_node_kinds() == []


def dataclasses_outside_rir() -> list[str]:
    """Classes defined in rela's modules, `rela.rir` apart, that are
    dataclasses."""
    import importlib

    out = []
    for module in ("automata", "checker", "cli", "compiler", "frontend",
                   "snapshot"):
        mod = importlib.import_module(f"rela.{module}")
        out += [f"{module}.{name}" for name, obj in vars(mod).items()
                if isinstance(obj, type) and obj.__module__ == mod.__name__
                and dataclasses.is_dataclass(obj)]
    return out


def test_records_are_plain_classes():
    # A dataclass generates and compiles its methods when its module is
    # imported, which every run pays for; records are `__slots__`
    # classes on `rela.automata.Record` instead.
    assert dataclasses_outside_rir() == []
    # The bench's tree_size walks RIR nodes with `dataclasses.fields`.
    from rela import rir

    nodes = [obj for obj in vars(rir).values()
             if isinstance(obj, type) and issubclass(obj, rir._Node)
             and obj not in (rir._Node, rir.PathSetExpr, rir.RelExpr,
                             rir.SpecExpr)]
    assert nodes and all(dataclasses.is_dataclass(n) for n in nodes)


# Parameters kept unread on purpose, each with the caller that needs it.
UNREAD_PARAMETERS = {
    # bench/traced.py calls it with five arguments
    "checker._process_item(options)",
    # its public signature is in the README's library example
    "snapshot.parse_fec(index)",
}


def unread_parameters() -> set[str]:
    """Parameters of definitions in `src/rela` that their body never
    reads; a method's `self` or `cls` is fixed by the protocol."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for f in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            a = f.args
            params = [x.arg for x in (*a.posonlyargs, *a.args,
                                      *a.kwonlyargs, a.vararg, a.kwarg)
                      if x is not None and x.arg not in ("self", "cls")]
            body = f.body if isinstance(f.body, list) else [f.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            name = getattr(f, "name", "<lambda>")
            out.update(f"{path.stem}.{name}({p})" for p in params
                       if p not in read)
    return out


def test_every_parameter_is_read():
    # A parameter nothing reads is plumbing that outlived its use.
    assert unread_parameters() == UNREAD_PARAMETERS


def work_list_owners() -> list[str]:
    """Top-level definitions of `rela.automata` that read
    `collections.deque`, bare or as an attribute."""
    tree = ast.parse((SRC / "automata.py").read_text(encoding="utf-8"))
    return [top.name for top in tree.body if isinstance(top, _DEFS)
            and "deque" in _names_used(top)]


def test_automata_keeps_one_work_list():
    # Every machine built state by state from discovered keys (subsets,
    # pairs) goes through `_explore`; a new construction is a step
    # function for it, not another breadth-first loop.
    assert work_list_owners() == ["_explore"]


def explore_steps() -> list[ast.expr]:
    """The step argument of every `_explore` call in `rela.automata`."""
    tree = ast.parse((SRC / "automata.py").read_text(encoding="utf-8"))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id == "_explore"]
    return [n.args[1] for n in calls]


def test_each_walk_has_one_step_function():
    # A walk that picks its step per call keeps two code paths for one
    # construction; each construction states its moves in one function.
    steps = explore_steps()
    assert steps
    assert [ast.unparse(s) for s in steps
            if not isinstance(s, ast.Name)] == []
