"""Intermediate representation for relational change specifications.

Two sorts of expression share one set of regular operators:

* path sets   -- sets of location paths, denoted by acceptors;
* relations   -- sets of *pairs* of paths, denoted by pair-labelled
  transducers.

`Union`, `Concat`, `Star`, `Zero` and `One` serve both sorts, and a
node's sort is fixed by its position: an `Image`'s `rel` and the
operands of `Compose` are relations, while the operands of `Identity`
and `Cross` (and of every other operator) are path sets.  The leaves of
path sets are `SymSet`, a set of length-one paths (a single location is
a one-element set), and the snapshot references `PreState` /
`PostState`; `Intersect`, `Complement` and `Image(P, R)` are path sets
only, `Cross`, `Identity` and `Compose` relations only.  A spec is the
check equation `Equal(left, right)` between two path sets, the one form
the compiler emits.

`Evaluator` lowers either sort to an `Fsa` from :mod:`rela.automata`
with the same constructors; deciding and explaining an equation is left
to :mod:`rela.checker`.  A ground path-set `Union` is cached as the
trimmed minimal DFA of its language, so an `else` chain's masks do not
copy every earlier zone; relations are kept as built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .automata import (
    Fsa, Symbol, accepts, apply_image, complement, fsa_concat,
    fsa_empty, fsa_intersect, fsa_star, fsa_symbol_class, fsa_union,
    fsa_unit, fst_compose, fst_cross, fst_identity, intersects, minimize,
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


# --- both sorts --------------------------------------------------------------


@_node
class Zero(PathSetExpr, RelExpr):
    """The empty set of paths, or of pairs."""


@_node
class One(PathSetExpr, RelExpr):
    """The empty path alone, or the pair of empty paths alone."""


@_node
class Union(PathSetExpr, RelExpr):
    left: PathSetExpr | RelExpr
    right: PathSetExpr | RelExpr


@_node
class Concat(PathSetExpr, RelExpr):
    """Concatenation; on relations it pairs p1 p2 with q1 q2."""

    left: PathSetExpr | RelExpr
    right: PathSetExpr | RelExpr


@_node
class Star(PathSetExpr, RelExpr):
    inner: PathSetExpr | RelExpr


# --- path sets --------------------------------------------------------------


@_node
class SymSet(PathSetExpr):
    """The length-one paths over a set of symbols, as a single leaf.

    A single location is a one-element set; keeping wide location classes
    as one node keeps the lowered machines flat.
    """

    symbols: frozenset[Symbol]


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


def _is_relation(node) -> bool:
    """Whether a node of either sort is a relation: whether an `Identity`,
    `Cross` or `Compose` leaf sits on its `Union`/`Concat`/`Star` spine.

    Unlike `pretty`'s leftmost leaf, every leaf counts, since a `One` or
    `Zero` leaf belongs to both sorts.  Shared subtrees are visited once.
    """
    seen, stack = set(), [node]
    while stack:
        n = stack.pop()
        if isinstance(n, (Identity, Cross, Compose)):
            return True
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, Star):
            stack.append(n.inner)
        elif isinstance(n, (Union, Concat)):
            stack += (n.left, n.right)
    return False


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
    A ground path-set `Union` is cached as a trimmed minimal DFA; a
    relation union, whose labels are symbol pairs, is not minimized, and
    neither is any other node.
    """

    def __init__(self, env: SnapshotPair,
                 ground_cache: Optional[dict] = None):
        self.env = env
        self.universe = env.universe
        self._ground = ground_cache if ground_cache is not None else {}
        self._local: dict = {}

    def pathset(self, p: _Node) -> Fsa:
        """The automaton of `p`: an acceptor for a path set, a
        pair-labelled transducer for a relation (see rela.automata).

        The regular operators build both sorts alike, so one node's
        automaton does not depend on its sort.
        """
        cache = self._ground if p.ground else self._local
        got = cache.get(p)
        if got is None:
            got = self._evaluate(p)
            cache[p] = got
        return got

    def _evaluate(self, p: _Node) -> Fsa:
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
            union = fsa_union(self.pathset(p.left), self.pathset(p.right))
            if p.ground and not _is_relation(p):
                return minimize(union)
            return union
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
        if isinstance(p, Cross):
            return fst_cross(self.pathset(p.left), self.pathset(p.right))
        if isinstance(p, Identity):
            return fst_identity(self.pathset(p.source))
        if isinstance(p, Compose):
            return fst_compose(self.pathset(p.left), self.pathset(p.right))
        raise TypeError(f"not an expression: {p!r}")

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
            if not intersects(source, self.pathset(r.left)):
                return fsa_empty(self.universe)
            return self.pathset(r.right)
        if isinstance(r, Zero):
            return fsa_empty(self.universe)
        if isinstance(r, One):
            if accepts(source, ()):
                return fsa_unit(self.universe)
            return fsa_empty(self.universe)
        if isinstance(r, Union):
            return fsa_union(self._image(source, r.left),
                             self._image(source, r.right))
        if isinstance(r, Compose):
            return self._image(self._image(source, r.left), r.right)
        return apply_image(source, self.pathset(r))


# ---------------------------------------------------------------------------
# Debug rendering


# Nodes that need no brackets as an operand of `*`, `~` or a path-set
# concatenation: atoms, and the relation forms that bracket themselves.
_BARE = (SymSet, Zero, One, PreState, PostState, Identity, Cross)


def pretty(expr) -> str:
    """Render an expression tree in compact relational notation.

    Unions inside a path-set concatenation get an extra pair of brackets
    and those inside a relation concatenation do not, so the renderer
    follows each node's sort down from its position; a bare union,
    concatenation or star takes the sort of its leftmost leaf.
    """
    leaf = expr
    while isinstance(leaf, (Union, Concat, Star)):
        leaf = leaf.inner if isinstance(leaf, Star) else leaf.left
    return _show(expr, isinstance(leaf, (Identity, Cross, Compose)))


def _operand(p, rel: bool) -> str:
    text = _show(p, rel)
    return text if isinstance(p, _BARE) else "(" + text + ")"


def _show(expr, rel: bool) -> str:
    """`expr` rendered as a relation when `rel`, else as a path set."""
    if isinstance(expr, SymSet):
        names = sorted(s.name for s in expr.symbols)
        if len(names) == 1:
            return names[0]
        if len(names) > 8:
            return f"[{len(names)} locations]"
        return "(" + " | ".join(names) + ")"
    if isinstance(expr, Zero):
        return "0"
    if isinstance(expr, One):
        return "1"
    if isinstance(expr, PreState):
        return "PreState"
    if isinstance(expr, PostState):
        return "PostState"
    if isinstance(expr, Union):
        return ("(" + " | ".join(_show(t, rel) for t in flatten(expr, Union))
                + ")")
    if isinstance(expr, Concat):
        return " ".join(_show(t, rel) if rel or isinstance(t, (Star, Concat))
                        else _operand(t, rel) for t in flatten(expr, Concat))
    if isinstance(expr, Star):
        return _operand(expr.inner, rel) + "*"
    if isinstance(expr, Intersect):
        return ("(" + " ∩ ".join(_show(t, False)
                                 for t in flatten(expr, Intersect)) + ")")
    if isinstance(expr, Complement):
        return "~" + _operand(expr.inner, False)
    if isinstance(expr, Image):
        return ("(" + _show(expr.source, False) + " ▷ "
                + _show(expr.rel, True) + ")")
    if isinstance(expr, Cross):
        return ("(" + _show(expr.left, False) + " × "
                + _show(expr.right, False) + ")")
    if isinstance(expr, Identity):
        return "I(" + _show(expr.source, False) + ")"
    if isinstance(expr, Compose):
        return ("(" + " ∘ ".join(_show(t, True)
                                 for t in flatten(expr, Compose)) + ")")
    if isinstance(expr, Equal):
        return _show(expr.left, False) + " = " + _show(expr.right, False)
    raise TypeError(f"not an expression: {expr!r}")
