"""Brute-force oracle for relational path-set expressions.

An independent, deliberately naive evaluator over explicit bounded path
sets: the test suite compares `rela.rir.Evaluator`'s automata against it
to keep the automata path honest.
"""

from __future__ import annotations

from dataclasses import dataclass

from rela.automata import Symbol
from rela.rir import (
    Compose, Concat, Cross, Difference, Identity, Image, Intersect, One,
    PathSetExpr, PostState, PreState, Star, SymSet, Union, Zero,
)


@dataclass(frozen=True)
class OracleEnv:
    """Explicit finite path sets standing in for the two snapshots."""

    pre: frozenset
    post: frozenset
    universe: tuple[Symbol, ...]


_MAX_ORACLE_LEN = 8


def oracle_eval_pathset(p: PathSetExpr, env: OracleEnv,
                        maxlen: int) -> frozenset:
    """Evaluate a path-set expression over explicit sets, length-bounded.

    Returns the denoted set restricted to paths of length <= maxlen,
    computed without automata: unions, intersections and differences are
    set ops, and closures iterate to a fixed point under the length bound.  Relations inside Image nodes are
    evaluated as explicit pair sets with both components bounded.
    """
    if maxlen > _MAX_ORACLE_LEN:
        raise ValueError(f"oracle maxlen capped at {_MAX_ORACLE_LEN}")
    return frozenset(_o_pathset(p, env, maxlen))


def _o_pathset(p, env, maxlen):
    if isinstance(p, SymSet):
        return {(s,) for s in p.symbols} if maxlen >= 1 else set()
    if isinstance(p, Zero):
        return set()
    if isinstance(p, One):
        return {()}
    if isinstance(p, PreState):
        return {q for q in env.pre if len(q) <= maxlen}
    if isinstance(p, PostState):
        return {q for q in env.post if len(q) <= maxlen}
    if isinstance(p, Union):
        return _o_pathset(p.left, env, maxlen) | _o_pathset(p.right, env, maxlen)
    if isinstance(p, Concat):
        xs = _o_pathset(p.left, env, maxlen)
        ys = _o_pathset(p.right, env, maxlen)
        return {x + y for x in xs for y in ys if len(x) + len(y) <= maxlen}
    if isinstance(p, Star):
        base = _o_pathset(p.inner, env, maxlen)
        acc = {()}
        while True:
            nxt = acc | {x + y for x in acc for y in base
                         if len(x) + len(y) <= maxlen}
            if nxt == acc:
                return acc
            acc = nxt
    if isinstance(p, Intersect):
        return _o_pathset(p.left, env, maxlen) & _o_pathset(p.right, env, maxlen)
    if isinstance(p, Difference):
        return _o_pathset(p.left, env, maxlen) - \
            _o_pathset(p.right, env, maxlen)
    if isinstance(p, Image):
        src = _o_pathset(p.source, env, maxlen)
        rel = _o_rel(p.rel, env, maxlen)
        return {q for (x, q) in rel if x in src}
    raise TypeError(f"not a path-set expression: {p!r}")


def _o_rel(r, env, maxlen):
    if isinstance(r, Cross):
        xs = _o_pathset(r.left, env, maxlen)
        ys = _o_pathset(r.right, env, maxlen)
        return {(x, y) for x in xs for y in ys}
    if isinstance(r, Identity):
        return {(x, x) for x in _o_pathset(r.source, env, maxlen)}
    if isinstance(r, Zero):
        return set()
    if isinstance(r, One):
        return {((), ())}
    if isinstance(r, Union):
        return _o_rel(r.left, env, maxlen) | _o_rel(r.right, env, maxlen)
    if isinstance(r, Concat):
        xs = _o_rel(r.left, env, maxlen)
        ys = _o_rel(r.right, env, maxlen)
        return {(a + c, b + d) for (a, b) in xs for (c, d) in ys
                if len(a) + len(c) <= maxlen and len(b) + len(d) <= maxlen}
    if isinstance(r, Star):
        base = _o_rel(r.inner, env, maxlen)
        acc = {((), ())}
        while True:
            nxt = acc | {(a + c, b + d) for (a, b) in acc for (c, d) in base
                         if len(a) + len(c) <= maxlen
                         and len(b) + len(d) <= maxlen}
            if nxt == acc:
                return acc
            acc = nxt
    if isinstance(r, Compose):
        xs = _o_rel(r.left, env, maxlen)
        ys = _o_rel(r.right, env, maxlen)
        by_mid: dict = {}
        for (m, q) in ys:
            by_mid.setdefault(m, []).append(q)
        return {(x, q) for (x, m) in xs for q in by_mid.get(m, ())}
    raise TypeError(f"not a relation expression: {r!r}")
