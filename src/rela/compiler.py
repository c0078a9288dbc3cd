"""Lowering parsed change specs to relational path-set expressions.

Zones and modifier arguments arrive from the parser as `rir` path sets.
Each spec statement becomes a pair of relations: one applied to the
pre-change paths and one to the post-change paths.  The check itself is
a single equation, image(pre, rpre) == image(post, rpost).  Modifier
arguments are folded into the relations so that both images describe
the same intended outcome; a `#n` marker symbol stands for "some
member of a path family" where the spec allows freedom (`any`).

The statements of a block become a balanced relation concatenation
(`rir.Concat`, pairwise on relations), and the arms of a chain a
relation union (`rir.Union`): relations are built from the same regular
operators as path sets, so one `simplify` cleans up both.  Every `else`
chain, at the top or inside a block, is the union of the arms
`_Lowerer.arms` masks, each guarded by the complement of every earlier
arm's claim zone.  The compiled form keeps the top-level arm list so a
failed check can be blamed on the first arm whose images disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import rir
from .automata import Symbol
from .frontend import (
    Add, AnyOf, AtomicSpec, ConcatSpec, DropTraffic, ElseSpec, LocationIndex,
    Preserve, PrefixPredicate, Program, Remove, Replace, SpecAst,
)


@dataclass(frozen=True)
class MarkerBinding:
    """One `any()` occurrence: its marker and the family it ranges over."""

    symbol: Symbol
    pathset: rir.PathSetExpr


@dataclass(frozen=True)
class SubSpec:
    """One arm of an else chain, with the earlier arms masked out."""

    label: str
    zone: rir.PathSetExpr
    rpre: rir.RelExpr
    rpost: rir.RelExpr


@dataclass(frozen=True)
class CompiledSpec:
    """A spec's check equation, its arms in priority order, its markers.

    `top` is Equal(Image(PreState, rpre), Image(PostState, rpost)), the
    whole spec's two relations being the unions of the arms' ones.
    """

    top: rir.Equal
    subspecs: tuple
    markers: tuple
    name: str = "spec"


@dataclass(frozen=True)
class CompiledGuard:
    name: str
    predicate: PrefixPredicate
    spec: CompiledSpec


@dataclass(frozen=True)
class CompiledProgram:
    guards: tuple
    default: Optional[CompiledSpec]


def _minus(x: rir.PathSetExpr, y: rir.PathSetExpr) -> rir.PathSetExpr:
    return rir.Intersect(x, rir.Complement(y))


def simplify(e):
    """Bottom-up algebraic cleanup of a path-set or relation expression.

    Only language-preserving rewrites, and the same ones for both sorts:
    unit and zero elimination, and collapsing nested or trivial stars.
    Unions of location classes merge into one class.  Relation structure
    is pushed down to plain path sets wherever the relational operators
    act pointwise: identities absorb composition, union, concatenation
    and star of identities, and a composition against a cross constrains
    the cross's input side.  The payoff is that checks against
    identity-only specs evaluate as single acceptor intersections
    instead of per-arm products.
    """
    if isinstance(e, rir.SymSet) and not e.symbols:
        return rir.Zero()
    if isinstance(e, rir.Union):
        left, right = simplify(e.left), simplify(e.right)
        if isinstance(left, rir.Zero):
            return right
        if isinstance(right, rir.Zero):
            return left
        if isinstance(left, rir.SymSet) and isinstance(right, rir.SymSet):
            return rir.SymSet(left.symbols | right.symbols)
        if isinstance(left, rir.Identity) and isinstance(right, rir.Identity):
            return rir.Identity(simplify(rir.Union(left.source, right.source)))
        return rir.Union(left, right)
    if isinstance(e, rir.Concat):
        left, right = simplify(e.left), simplify(e.right)
        if isinstance(left, rir.Zero) or isinstance(right, rir.Zero):
            return rir.Zero()
        if isinstance(left, rir.One):
            return right
        if isinstance(right, rir.One):
            return left
        if isinstance(left, rir.Identity) and isinstance(right, rir.Identity):
            return rir.Identity(
                simplify(rir.Concat(left.source, right.source)))
        return rir.Concat(left, right)
    if isinstance(e, rir.Star):
        inner = simplify(e.inner)
        if isinstance(inner, (rir.Zero, rir.One)):
            return rir.One()
        if isinstance(inner, rir.Star):
            return inner
        if isinstance(inner, rir.Identity):
            return rir.Identity(simplify(rir.Star(inner.source)))
        return rir.Star(inner)
    if isinstance(e, rir.Intersect):
        return rir.Intersect(simplify(e.left), simplify(e.right))
    if isinstance(e, rir.Complement):
        return rir.Complement(simplify(e.inner))
    if isinstance(e, rir.Identity):
        source = simplify(e.source)
        # I(0) is the empty relation and I(1) relates () to itself alone
        if isinstance(source, (rir.Zero, rir.One)):
            return source
        return rir.Identity(source)
    if isinstance(e, rir.Cross):
        left, right = simplify(e.left), simplify(e.right)
        if isinstance(left, rir.Zero) or isinstance(right, rir.Zero):
            return rir.Zero()
        return rir.Cross(left, right)
    if isinstance(e, rir.Compose):
        return _simplify_compose(simplify(e.left), simplify(e.right))
    return e


def _simplify_compose(left: rir.RelExpr, right: rir.RelExpr) -> rir.RelExpr:
    """Simplify a composition of two already-simplified relations."""
    if isinstance(left, rir.Zero) or isinstance(right, rir.Zero):
        return rir.Zero()
    if isinstance(left, rir.Identity) and isinstance(right, rir.Identity):
        return rir.Identity(
            simplify(rir.Intersect(left.source, right.source)))
    if isinstance(left, rir.Identity) and isinstance(right, rir.Cross):
        return simplify(rir.Cross(
            rir.Intersect(left.source, right.left), right.right))
    if isinstance(left, rir.Cross) and isinstance(right, rir.Identity):
        return simplify(rir.Cross(
            left.left, rir.Intersect(left.right, right.source)))
    # Composition distributes over union on either side; distributing
    # lets the identity and cross rules above fire per branch.
    if isinstance(right, rir.Union):
        return simplify(rir.Union(rir.Compose(left, right.left),
                                  rir.Compose(left, right.right)))
    if isinstance(left, rir.Union):
        return simplify(rir.Union(rir.Compose(left.left, right),
                                  rir.Compose(left.right, right)))
    return rir.Compose(left, right)


class _Lowerer:
    def __init__(self, index: LocationIndex):
        self.index = index
        self.markers: list[MarkerBinding] = []

    def spec(self, s: SpecAst):
        """Returns (rpre, rpost, zone) for one spec subtree."""
        if isinstance(s, AtomicSpec):
            return self.atomic(s)
        if isinstance(s, ConcatSpec):
            parts = [self.spec(p) for p in s.parts]
            return (rir.fold([p[0] for p in parts], rir.Concat),
                    rir.fold([p[1] for p in parts], rir.Concat),
                    rir.fold([p[2] for p in parts], rir.Concat))
        if isinstance(s, ElseSpec):
            arms = self.arms(s)
            return (rir.fold([a.rpre for a in arms], rir.Union),
                    rir.fold([a.rpost for a in arms], rir.Union),
                    rir.fold([a.zone for a in arms], rir.Union))
        raise TypeError(f"not a spec: {s!r}")

    def arms(self, s: SpecAst) -> list[SubSpec]:
        """The arms of an else chain in priority order, each masked.

        Arm i's zone and relations are restricted to the complement of
        the union of the earlier arms' zones.
        """
        nodes = s.arms if isinstance(s, ElseSpec) else (s,)
        out = []
        zones = []          # the zones of the arms so far
        unions = [None]     # unions[i]: the union of the first i zones
        for i, arm in enumerate(nodes):
            rpre, rpost, zone = self.spec(arm)
            zone = simplify(zone)
            label = arm.name or f"#{i + 1}"
            if i == 0:
                out.append(SubSpec(label, zone, rpre, rpost))
            else:
                # As in a Fenwick tree, the union of the first i zones
                # joins the union of the first j, i with its lowest bit
                # cleared, to a balanced block of the zones from j on:
                # each union reuses an earlier one, as a left-deep chain
                # would, yet is O(log i) deep.
                j = i & (i - 1)
                block = rir.fold(zones[j:], rir.Union)
                unions.append(simplify(
                    block if j == 0 else rir.Union(unions[j], block)))
                outside = rir.Complement(unions[i])
                mask = rir.Identity(outside)
                out.append(SubSpec(label, rir.Intersect(zone, outside),
                                   rir.Compose(mask, rpre),
                                   rir.Compose(mask, rpost)))
            zones.append(zone)
        return out

    def atomic(self, s: AtomicSpec):
        d = s.zone
        m = s.modifier
        if isinstance(m, Preserve):
            ident = rir.Identity(d)
            return ident, ident, d
        if isinstance(m, Add):
            p = m.paths
            zone = rir.Union(d, p)
            return (rir.Union(rir.Identity(zone), rir.Cross(d, p)),
                    rir.Identity(zone), zone)
        if isinstance(m, Remove):
            p = m.paths
            return rir.Identity(_minus(d, p)), rir.Identity(d), d
        if isinstance(m, Replace):
            old, new = m.old, m.new
            zone = rir.Union(d, new)
            return (rir.Union(rir.Identity(_minus(zone, old)),
                                 rir.Cross(rir.Intersect(d, old), new)),
                    rir.Identity(zone), zone)
        if isinstance(m, DropTraffic):
            dropped = rir.SymSet(frozenset([self.index.table.drop]))
            zone = rir.Union(d, dropped)
            return rir.Cross(zone, dropped), rir.Identity(zone), zone
        if isinstance(m, AnyOf):
            p = m.paths
            marker = self.index.table.fresh_marker()
            self.markers.append(MarkerBinding(marker, p))
            mk = rir.SymSet(frozenset([marker]))
            zone = rir.Union(d, p)
            return (rir.Cross(zone, mk),
                    rir.Union(rir.Cross(p, mk),
                                 rir.Identity(_minus(d, p))),
                    zone)
        raise TypeError(f"not a modifier: {m!r}")


def compile_spec(spec: SpecAst, index: LocationIndex) -> CompiledSpec:
    """Compile one spec tree into its check equation and arm list."""
    lower = _Lowerer(index)
    subspecs = [SubSpec(a.label, simplify(a.zone), simplify(a.rpre),
                        simplify(a.rpost))
                for a in lower.arms(spec)]

    rpre = simplify(rir.fold([s.rpre for s in subspecs], rir.Union))
    rpost = simplify(rir.fold([s.rpost for s in subspecs], rir.Union))
    if rpost == rpre:
        # one tree for both sides, so a check looks its zone up once
        rpost = rpre
    top = rir.Equal(rir.Image(rir.PreState(), rpre),
                    rir.Image(rir.PostState(), rpost))
    return CompiledSpec(top, tuple(subspecs), tuple(lower.markers),
                        getattr(spec, "name", None) or "spec")


def compile_program(program: Program,
                    index: LocationIndex) -> CompiledProgram:
    guards = tuple(
        CompiledGuard(g.name, g.predicate, compile_spec(g.spec, index))
        for g in program.guarded)
    default = None
    if program.default is not None:
        default = compile_spec(program.default, index)
    return CompiledProgram(guards, default)