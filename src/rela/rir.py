"""Intermediate representation for relational change specifications.

Two sorts of expression share one set of regular operators:

* path sets   -- sets of location paths, denoted by acceptors;
* relations   -- sets of *pairs* of paths, denoted by pair-labelled
  transducers.

`Union`, `Concat`, `Star`, `Zero` and `One` serve both sorts: an
`Image`'s `rel` and the operands of `Compose` are relations, while the
operands of `Identity` and `Cross` (and of every other operator) are
path sets.  The leaves of path sets are `SymSet`, a set of length-one
paths (a single location is a one-element set), and the snapshot
references `PreState` / `PostState`; `Intersect`, `Difference` and
`Image(P, R)` are path sets only, `Cross`, `Identity` and `Compose`
relations only.  Each node records its sort as it is built, in
`relation`; a `One` or `Zero` takes the sort of its position.  A spec
is the check equation `Equal(left, right)` between two path sets, the
one form the compiler emits.

Nodes are built in normal form: `union`, `concat`, `star`, `identity`,
`cross` and `compose` apply the algebraic rewrites as they build, so no
separate pass simplifies a tree.

`Evaluator` is given the two snapshot acceptors and the table's default
label, and lowers either sort to an `Fsa` from :mod:`rela.automata`
with the same constructors; a wide `SymSet`, `.` among them, becomes a
default arc, so no machine grows with the number of locations;
deciding and explaining an equation is left to :mod:`rela.checker`.  A
ground path-set `Union` is cached as the trimmed minimal DFA of its
language, and a `Difference` takes a union's operands away together in
one walk, so an `else` chain's masks neither copy nor build the union
of the earlier zones; relations are kept as built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import (
    Fsa, Others, Symbol, apply_image, fsa_concat, fsa_difference, fsa_empty,
    fsa_intersect, fsa_star, fsa_symbol_class, fsa_union, fsa_unit,
    fst_compose, fst_cross, fst_identity, intersects, minimize,
)


class _Node:
    """Base for all expression nodes.

    Every node has a `ground` attribute, True when evaluation does not
    consult the snapshot pair: the node is neither `PreState` nor
    `PostState` and has no child that consults it.  Its `relation`
    attribute is True when the node is a relation: an `Identity`, `Cross`
    or `Compose`, or a `Union`, `Concat` or `Star` with a relation child.
    A `One` or `Zero` belongs to both sorts and counts as a path set.
    """

    __hash__ = None  # subclasses are frozen dataclasses and regenerate this

    def __post_init__(self):
        children = [v for v in vars(self).values() if isinstance(v, _Node)]
        ground = not isinstance(self, (PreState, PostState)) and all(
            c.ground for c in children)
        relation = isinstance(self, (Identity, Cross, Compose)) or (
            isinstance(self, (Union, Concat, Star))
            and any(c.relation for c in children))
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "relation", relation)


class PathSetExpr(_Node):
    pass


class RelExpr(_Node):
    pass


class SpecExpr(_Node):
    pass


# --- both sorts --------------------------------------------------------------


@dataclass(frozen=True)
class Zero(PathSetExpr, RelExpr):
    """The empty set of paths, or of pairs."""


@dataclass(frozen=True)
class One(PathSetExpr, RelExpr):
    """The empty path alone, or the pair of empty paths alone."""


@dataclass(frozen=True)
class Union(PathSetExpr, RelExpr):
    left: PathSetExpr | RelExpr
    right: PathSetExpr | RelExpr


@dataclass(frozen=True)
class Concat(PathSetExpr, RelExpr):
    """Concatenation; on relations it pairs p1 p2 with q1 q2."""

    left: PathSetExpr | RelExpr
    right: PathSetExpr | RelExpr


@dataclass(frozen=True)
class Star(PathSetExpr, RelExpr):
    inner: PathSetExpr | RelExpr


# --- path sets --------------------------------------------------------------


@dataclass(frozen=True)
class SymSet(PathSetExpr):
    """The length-one paths over a set of symbols, as a single leaf.

    A single location is a one-element set; keeping wide location classes
    as one node keeps the lowered machines flat.
    """

    symbols: frozenset[Symbol]


@dataclass(frozen=True)
class PreState(PathSetExpr):
    """The pre-change snapshot's path set."""


@dataclass(frozen=True)
class PostState(PathSetExpr):
    """The post-change snapshot's path set."""


@dataclass(frozen=True)
class Intersect(PathSetExpr):
    left: PathSetExpr
    right: PathSetExpr


@dataclass(frozen=True)
class Difference(PathSetExpr):
    """The paths of `left` that are not in `right`."""

    left: PathSetExpr
    right: PathSetExpr


@dataclass(frozen=True)
class Image(PathSetExpr):
    """All paths some member of `source` maps to under `rel`."""

    source: PathSetExpr
    rel: "RelExpr"


# --- relations ---------------------------------------------------------------


@dataclass(frozen=True)
class Cross(RelExpr):
    """The full relation left x right."""

    left: PathSetExpr
    right: PathSetExpr


@dataclass(frozen=True)
class Identity(RelExpr):
    source: PathSetExpr


@dataclass(frozen=True)
class Compose(RelExpr):
    left: RelExpr
    right: RelExpr


# --- specs -------------------------------------------------------------------


@dataclass(frozen=True)
class Equal(SpecExpr):
    left: PathSetExpr
    right: PathSetExpr


# --- normalizing constructors ------------------------------------------------
#
# The parser and the compiler build `Union`, `Concat`, `Star`, `Identity`,
# `Cross` and `Compose` nodes only through these functions, which apply
# language-preserving rewrites as each node is built, the same ones for
# both sorts: unit and zero elimination, and collapsing nested or trivial
# stars.  Unions of location classes merge into one class.  Relation
# structure is pushed down to plain path sets wherever the relational
# operators act pointwise: identities absorb composition, union,
# concatenation and star of identities, and a composition against a
# cross constrains the cross's input side.  Where a composition meets two
# path sets, a difference met with its own left operand (the same
# object) is that difference.  The payoff is that checks against
# identity-only specs evaluate as single acceptor intersections instead
# of per-arm products.  Operands are taken to be built the same
# way, so no node is revisited.


def union(left, right):
    if isinstance(left, Zero):
        return right
    if isinstance(right, Zero):
        return left
    if isinstance(left, SymSet) and isinstance(right, SymSet):
        return SymSet(left.symbols | right.symbols)
    if isinstance(left, Identity) and isinstance(right, Identity):
        return Identity(union(left.source, right.source))
    return Union(left, right)


def concat(left, right):
    if isinstance(left, Zero) or isinstance(right, Zero):
        return Zero()
    if isinstance(left, One):
        return right
    if isinstance(right, One):
        return left
    if isinstance(left, Identity) and isinstance(right, Identity):
        return Identity(concat(left.source, right.source))
    return Concat(left, right)


def star(inner):
    if isinstance(inner, (Zero, One)):
        return One()
    if isinstance(inner, Star):
        return inner
    if isinstance(inner, Identity):
        return Identity(star(inner.source))
    return Star(inner)


def identity(source):
    # I(0) is the empty relation and I(1) relates () to itself alone
    if isinstance(source, (Zero, One)):
        return source
    return Identity(source)


def cross(left, right):
    if isinstance(left, Zero) or isinstance(right, Zero):
        return Zero()
    return Cross(left, right)


def _meet(left, right):
    # (x - u) n x is x - u: an else arm's mask against its own zone
    if isinstance(left, Difference) and left.left is right:
        return left
    return Intersect(left, right)


def compose(left, right):
    if isinstance(left, Zero) or isinstance(right, Zero):
        return Zero()
    if isinstance(left, Identity) and isinstance(right, Identity):
        return Identity(_meet(left.source, right.source))
    if isinstance(left, Identity) and isinstance(right, Cross):
        return cross(_meet(left.source, right.left), right.right)
    if isinstance(left, Cross) and isinstance(right, Identity):
        return cross(left.left, _meet(left.right, right.source))
    # Composition distributes over union on either side; distributing
    # lets the identity and cross rules above fire per branch.
    if isinstance(right, Union):
        return union(compose(left, right.left), compose(left, right.right))
    if isinstance(left, Union):
        return union(compose(left.left, right), compose(left.right, right))
    return Compose(left, right)


def fold(parts, join):
    """Join operands left to right as a balanced tree, log2(n) deep."""
    while len(parts) > 1:
        parts = [join(parts[i], parts[i + 1]) if i + 1 < len(parts)
                 else parts[i] for i in range(0, len(parts), 2)]
    return parts[0]


def flatten(node, join):
    """The operands of a tree of `join` nodes, left to right."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, join):
            stack += (node.right, node.left)
        else:
            yield node


# ---------------------------------------------------------------------------
# Evaluation


class Evaluator:
    """Lowers expressions to automata with two layers of memoization.

    `pre` and `post` are the two forwarding path sets a spec is judged
    against, the values of `PreState` and `PostState`.  They carry no
    marker symbols (markers belong to compiled relations only), which
    holds because `rela.snapshot.graph_to_fsa` labels arcs with location
    and drop symbols alone.  `others` is the default label of the
    symbols' table: a `SymSet` holding more than half of its locations
    becomes a default arc and its exceptions, so `.` is one arc.

    Structurally identical subexpressions evaluate once per snapshot
    pair.  Ground subexpressions (no PreState/PostState) may additionally
    share a cache across the pairs of one run -- pass the same mapping as
    `ground_cache` to every evaluator whose symbols come from one
    `SymbolTable`.  A ground path-set `Union` is cached as a trimmed
    minimal DFA; a relation union, whose labels are symbol pairs, is not
    minimized, and neither is any other node.
    """

    def __init__(self, pre: Fsa, post: Fsa, others: Others,
                 ground_cache: Optional[dict] = None):
        self.pre = pre
        self.post = post
        self.others = others
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
        if isinstance(p, SymSet):
            return fsa_symbol_class(p.symbols, self.others)
        if isinstance(p, Zero):
            return fsa_empty()
        if isinstance(p, One):
            return fsa_unit()
        if isinstance(p, PreState):
            return self.pre
        if isinstance(p, PostState):
            return self.post
        if isinstance(p, Union):
            union = fsa_union(self.pathset(p.left), self.pathset(p.right))
            if p.ground and not p.relation:
                return minimize(union)
            return union
        if isinstance(p, Concat):
            return fsa_concat(self.pathset(p.left), self.pathset(p.right))
        if isinstance(p, Star):
            return fsa_star(self.pathset(p.inner))
        if isinstance(p, Intersect):
            return fsa_intersect(self.pathset(p.left), self.pathset(p.right))
        if isinstance(p, Difference):
            # x - (a | b) takes a and b away in one walk of x, so an else
            # arm's mask neither builds nor caches the union of the
            # earlier zones, a DFA with an arc per earlier arm.
            return fsa_difference(self.pathset(p.left),
                                  *map(self.pathset, flatten(p.right, Union)))
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
        they fall back to transducer application, as do `Zero` and `One`,
        whose transducers have one state.
        """
        if isinstance(r, Identity):
            return fsa_intersect(source, self.pathset(r.source))
        if isinstance(r, Cross):
            if not intersects(source, self.pathset(r.left)):
                return fsa_empty()
            return self.pathset(r.right)
        if isinstance(r, Union):
            return fsa_union(self._image(source, r.left),
                             self._image(source, r.right))
        if isinstance(r, Compose):
            return self._image(self._image(source, r.left), r.right)
        return apply_image(source, self.pathset(r))


# ---------------------------------------------------------------------------
# Debug rendering


# Nodes that need no brackets as an operand of `*` or a path-set
# concatenation: atoms, and the relation forms that bracket themselves.
_BARE = (SymSet, Zero, One, PreState, PostState, Identity, Cross)

# Each other node renders as prefix + operands joined + suffix; a leaf is
# its prefix alone.
_FORMS = {Zero: ("0", "", ""), One: ("1", "", ""),
          PreState: ("PreState", "", ""), PostState: ("PostState", "", ""),
          Union: ("(", " | ", ")"), Intersect: ("(", " ∩ ", ")"),
          Difference: ("(", " ∖ ", ")"), Image: ("(", " ▷ ", ")"),
          Cross: ("(", " × ", ")"), Identity: ("I(", "", ")"),
          Compose: ("(", " ∘ ", ")"), Equal: ("", " = ", "")}


def pretty(expr) -> str:
    """Render an expression tree in compact relational notation.

    Unions inside a path-set concatenation get an extra pair of brackets
    and those inside a relation concatenation do not, so the renderer
    follows each node's sort down from its position; the root's sort is
    its `relation` flag.  Operands render first, from an explicit stack,
    and each (node, sort) pair once, so no call recurses per level.
    """
    done = {}  # (id(node), sort) -> text
    stack = [(expr, expr.relation)]
    while stack:
        node, rel = stack[-1]
        if (id(node), rel) in done:
            stack.pop()
            continue
        parts = _operands(node, rel)
        todo = [(p, r) for p, r in parts if (id(p), r) not in done]
        if todo:
            stack += todo
            continue
        stack.pop()
        done[id(node), rel] = _text(
            node, rel, [(p, done[id(p), r]) for p, r in parts])
    return done[id(expr), expr.relation]


def _operands(expr, rel: bool) -> list:
    """The operands `expr` renders from, each with the sort it takes."""
    if isinstance(expr, (Union, Concat)):
        return [(t, rel) for t in flatten(expr, type(expr))]
    if isinstance(expr, (Intersect, Compose)):
        sort = isinstance(expr, Compose)
        return [(t, sort) for t in flatten(expr, type(expr))]
    if isinstance(expr, Star):
        return [(expr.inner, rel)]
    if isinstance(expr, Image):
        return [(expr.source, False), (expr.rel, True)]
    return [(v, False) for v in vars(expr).values() if isinstance(v, _Node)]


def _text(expr, rel: bool, parts: list) -> str:
    """`expr` rendered as a relation when `rel`, else as a path set,
    from its operands paired with their texts."""
    if isinstance(expr, SymSet):
        names = sorted(s.name for s in expr.symbols)
        if len(names) == 1:
            return names[0]
        if len(names) > 8:
            return f"[{len(names)} locations]"
        return "(" + " | ".join(names) + ")"
    if isinstance(expr, Concat):
        return " ".join(t if rel or isinstance(p, (Star, *_BARE))
                        else "(" + t + ")" for p, t in parts)
    if isinstance(expr, Star):
        [(p, t)] = parts
        return (t if isinstance(p, _BARE) else "(" + t + ")") + "*"
    form = _FORMS.get(type(expr))
    if form is None:
        raise TypeError(f"not an expression: {expr!r}")
    return form[0] + form[1].join(t for _, t in parts) + form[2]
