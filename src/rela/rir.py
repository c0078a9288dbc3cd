"""Intermediate representation for relational change specifications.

Three expression sublanguages, each a small tree of frozen dataclasses:

* path sets   -- regular expressions over locations, extended with the two
  snapshot references `PreState` / `PostState` and the image operator
  `Image(P, R)`; the one leaf over locations is `SymSet`, a set of
  length-one paths (a single location is a one-element set);
* relations   -- regular expressions over *pairs* of paths, built from
  `Cross`, `Identity` and the usual closure operators plus `Compose`;
* specs       -- the check equation `Equal(left, right)` between two path
  sets, the one form the compiler emits.

`Evaluator` lowers path sets to acceptors and relations to pair-labelled
transducers, both `Fsa`s from :mod:`rela.automata`; deciding and
explaining an equation is left to :mod:`rela.checker`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .automata import (
    Fsa, Symbol, accepts, apply_image, complement, fsa_concat,
    fsa_empty, fsa_intersect, fsa_star, fsa_symbol_class, fsa_union,
    fsa_unit, fst_compose, fst_cross, fst_identity, is_empty,
)


class _Node:
    """Base for all expression nodes; tracks snapshot dependence."""

    __hash__ = None  # subclasses are frozen dataclasses and regenerate this

    def _children(self):
        return [getattr(self, f.name) for f in fields(self)
                if isinstance(getattr(self, f.name), _Node)]

    @property
    def ground(self) -> bool:
        """True when evaluation does not consult the snapshot pair."""
        return self._ground  # set in __post_init__

    def _set_ground(self):
        object.__setattr__(
            self, "_ground", all(c._ground for c in self._children()))


def _node(cls):
    """Decorator: freeze the dataclass and compute snapshot dependence."""
    # Must be attached before dataclass() generates __init__, or the
    # hook is never invoked.
    cls.__post_init__ = cls._set_ground
    return dataclass(frozen=True)(cls)


class PathSetExpr(_Node):
    pass


class RelExpr(_Node):
    pass


class SpecExpr(_Node):
    pass


# --- path sets --------------------------------------------------------------


@_node
class SymSet(PathSetExpr):
    """The length-one paths over a set of symbols, as a single leaf.

    A single location is a one-element set; keeping wide location classes
    as one node keeps the lowered machines flat.
    """

    symbols: frozenset[Symbol]


@_node
class Zero(PathSetExpr):
    """The empty path set."""


@_node
class One(PathSetExpr):
    """The set holding only the empty path."""


class PreState(PathSetExpr):
    """The pre-change snapshot's path set."""

    def _set_ground(self):
        object.__setattr__(self, "_ground", False)


class PostState(PathSetExpr):
    """The post-change snapshot's path set."""

    def _set_ground(self):
        object.__setattr__(self, "_ground", False)


PreState = _node(PreState)
PostState = _node(PostState)


@_node
class Union(PathSetExpr):
    left: PathSetExpr
    right: PathSetExpr


@_node
class Concat(PathSetExpr):
    left: PathSetExpr
    right: PathSetExpr


@_node
class Star(PathSetExpr):
    inner: PathSetExpr


@_node
class Intersect(PathSetExpr):
    left: PathSetExpr
    right: PathSetExpr


@_node
class Complement(PathSetExpr):
    """Complement relative to the location universe (markers excluded)."""

    inner: PathSetExpr


@_node
class Image(PathSetExpr):
    """All paths some member of `source` maps to under `rel`."""

    source: PathSetExpr
    rel: "RelExpr"


# --- relations ---------------------------------------------------------------


@_node
class Cross(RelExpr):
    """The full relation left x right."""

    left: PathSetExpr
    right: PathSetExpr


@_node
class Identity(RelExpr):
    source: PathSetExpr


@_node
class RelZero(RelExpr):
    """The empty relation."""


@_node
class RelOne(RelExpr):
    """The relation relating the empty path to itself."""


@_node
class RelUnion(RelExpr):
    left: RelExpr
    right: RelExpr


@_node
class RelConcat(RelExpr):
    """Pairwise concatenation: relates p1 p2 to q1 q2 component-wise."""

    left: RelExpr
    right: RelExpr


@_node
class RelStar(RelExpr):
    inner: RelExpr


@_node
class Compose(RelExpr):
    left: RelExpr
    right: RelExpr


# --- specs -------------------------------------------------------------------


@_node
class Equal(SpecExpr):
    left: PathSetExpr
    right: PathSetExpr


def fold(parts, join):
    """Join operands left to right as a balanced tree, log2(n) deep."""
    while len(parts) > 1:
        parts = [join(parts[i], parts[i + 1]) if i + 1 < len(parts)
                 else parts[i] for i in range(0, len(parts), 2)]
    return parts[0]


def flatten(node, join):
    """The operands of a tree of `join` nodes, left to right."""
    if isinstance(node, join):
        yield from flatten(node.left, join)
        yield from flatten(node.right, join)
    else:
        yield node


# ---------------------------------------------------------------------------
# Evaluation


class SnapshotPair:
    """The two forwarding path sets a spec is judged against.

    Both acceptors must share one universe alphabet.  They carry no
    marker symbols (markers belong to compiled relations only), which
    holds because `rela.snapshot.graph_to_fsa` labels arcs with location
    and drop symbols alone.
    """

    __slots__ = ("pre", "post")

    def __init__(self, pre: Fsa, post: Fsa):
        if pre.alphabet != post.alphabet:
            raise ValueError("snapshot acceptors must share a universe")
        self.pre = pre
        self.post = post

    @property
    def universe(self) -> frozenset[Symbol]:
        return self.pre.alphabet


class Evaluator:
    """Lowers expressions to automata with two layers of memoization.

    Structurally identical subexpressions evaluate once per environment.
    Ground subexpressions (no PreState/PostState) may additionally share a
    cache across environments of the same run -- pass the same mapping as
    `ground_cache` for every snapshot pair evaluated under one universe.
    """

    def __init__(self, env: SnapshotPair,
                 ground_cache: Optional[dict] = None):
        self.env = env
        self.universe = env.universe
        self._ground = ground_cache if ground_cache is not None else {}
        self._local: dict = {}

    def pathset(self, p: PathSetExpr) -> Fsa:
        cache = self._ground if p.ground else self._local
        got = cache.get(p)
        if got is None:
            got = self._pathset(p)
            cache[p] = got
        return got

    def _pathset(self, p: PathSetExpr) -> Fsa:
        u = self.universe
        if isinstance(p, SymSet):
            return fsa_symbol_class(p.symbols, u)
        if isinstance(p, Zero):
            return fsa_empty(u)
        if isinstance(p, One):
            return fsa_unit(u)
        if isinstance(p, PreState):
            return self.env.pre
        if isinstance(p, PostState):
            return self.env.post
        if isinstance(p, Union):
            return fsa_union(self.pathset(p.left), self.pathset(p.right))
        if isinstance(p, Concat):
            return fsa_concat(self.pathset(p.left), self.pathset(p.right))
        if isinstance(p, Star):
            return fsa_star(self.pathset(p.inner))
        if isinstance(p, Intersect):
            return fsa_intersect(self.pathset(p.left), self.pathset(p.right))
        if isinstance(p, Complement):
            return complement(self.pathset(p.inner), u)
        if isinstance(p, Image):
            return self._image(self.pathset(p.source), p.rel)
        raise TypeError(f"not a path-set expression: {p!r}")

    def _image(self, source: Fsa, r: RelExpr) -> Fsa:
        """Image of a concrete path set under a relation expression.

        Images distribute over the relation operators, so wherever the
        structure allows it the relation is applied as plain acceptor
        algebra instead of a transducer product:

            img(P, I(A))    = P n A
            img(P, A x B)   = B when P n A is nonempty, else empty
            img(P, R | S)   = img(P, R) | img(P, S)
            img(P, R . S)   = img(img(P, R), S)       (Compose)

        Concatenation and star would need P split at unknown points, so
        they (and only they) fall back to transducer application.
        """
        if isinstance(r, Identity):
            return fsa_intersect(source, self.pathset(r.source))
        if isinstance(r, Cross):
            if is_empty(fsa_intersect(source, self.pathset(r.left))):
                return fsa_empty(self.universe)
            return self.pathset(r.right)
        if isinstance(r, RelZero):
            return fsa_empty(self.universe)
        if isinstance(r, RelOne):
            if accepts(source, ()):
                return fsa_unit(self.universe)
            return fsa_empty(self.universe)
        if isinstance(r, RelUnion):
            return fsa_union(self._image(source, r.left),
                             self._image(source, r.right))
        if isinstance(r, Compose):
            return self._image(self._image(source, r.left), r.right)
        return apply_image(source, self.rel(r))

    def rel(self, r: RelExpr) -> Fsa:
        cache = self._ground if r.ground else self._local
        got = cache.get(r)
        if got is None:
            got = self._rel(r)
            cache[r] = got
        return got

    def _rel(self, r: RelExpr) -> Fsa:
        """A relation as a pair-labelled transducer (see rela.automata)."""
        if isinstance(r, Cross):
            return fst_cross(self.pathset(r.left), self.pathset(r.right))
        if isinstance(r, Identity):
            return fst_identity(self.pathset(r.source))
        if isinstance(r, RelZero):
            return fsa_empty(self.universe)
        if isinstance(r, RelOne):
            return fsa_unit(self.universe)
        if isinstance(r, RelUnion):
            return fsa_union(self.rel(r.left), self.rel(r.right))
        if isinstance(r, RelConcat):
            return fsa_concat(self.rel(r.left), self.rel(r.right))
        if isinstance(r, RelStar):
            return fsa_star(self.rel(r.inner))
        if isinstance(r, Compose):
            return fst_compose(self.rel(r.left), self.rel(r.right))
        raise TypeError(f"not a relation expression: {r!r}")


# ---------------------------------------------------------------------------
# Debug rendering


_ATOMS = (SymSet, Zero, One, PreState, PostState)


def _p_atom(p) -> str:
    if isinstance(p, SymSet):
        names = sorted(s.name for s in p.symbols)
        if len(names) == 1:
            return names[0]
        if len(names) > 8:
            return f"[{len(names)} locations]"
        return "(" + " | ".join(names) + ")"
    if isinstance(p, Zero):
        return "0"
    if isinstance(p, One):
        return "1"
    if isinstance(p, PreState):
        return "PreState"
    if isinstance(p, PostState):
        return "PostState"
    return "(" + pretty(p) + ")"


def pretty(expr) -> str:
    """Render an expression tree in compact relational notation."""
    # path sets
    if isinstance(expr, _ATOMS):
        return _p_atom(expr)
    if isinstance(expr, Union):
        return "(" + " | ".join(pretty(t) for t in flatten(expr, Union)) + ")"
    if isinstance(expr, Concat):
        return " ".join(_p_atom(t) if not isinstance(t, (Star, Concat))
                        else pretty(t) for t in flatten(expr, Concat))
    if isinstance(expr, Star):
        return _p_atom(expr.inner) + "*"
    if isinstance(expr, Intersect):
        return ("(" + " ∩ ".join(pretty(t) for t in flatten(expr, Intersect))
                + ")")
    if isinstance(expr, Complement):
        return "~" + _p_atom(expr.inner)
    if isinstance(expr, Image):
        return "(" + pretty(expr.source) + " ▷ " + pretty(expr.rel) + ")"
    # relations
    if isinstance(expr, Cross):
        return "(" + pretty(expr.left) + " × " + pretty(expr.right) + ")"
    if isinstance(expr, Identity):
        return "I(" + pretty(expr.source) + ")"
    if isinstance(expr, RelZero):
        return "0"
    if isinstance(expr, RelOne):
        return "1"
    if isinstance(expr, RelUnion):
        return ("(" + " | ".join(pretty(t) for t in flatten(expr, RelUnion))
                + ")")
    if isinstance(expr, RelConcat):
        return " ".join(pretty(t) for t in flatten(expr, RelConcat))
    if isinstance(expr, RelStar):
        inner = pretty(expr.inner)
        if not isinstance(expr.inner, (RelZero, RelOne, Identity, Cross)):
            inner = "(" + inner + ")"
        return inner + "*"
    if isinstance(expr, Compose):
        return ("(" + " ∘ ".join(pretty(t) for t in flatten(expr, Compose))
                + ")")
    # specs
    if isinstance(expr, Equal):
        return pretty(expr.left) + " = " + pretty(expr.right)
    raise TypeError(f"not an expression: {expr!r}")
