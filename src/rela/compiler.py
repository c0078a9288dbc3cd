"""Lowering parsed change specs to relational path-set expressions.

Zones and modifier arguments arrive from the parser as `rir` path sets.
Each spec statement becomes a pair of relations: one applied to the
pre-change paths and one to the post-change paths.  The check itself is
a single equation, image(pre, rpre) == image(post, rpost).  Modifier
arguments are folded into the relations so that both images describe
the same intended outcome; a `#n` marker symbol stands for "some
member of a path family" where the spec allows freedom (`any`).

The statements of a block become a balanced pairwise relation
concatenation.  Every `else` chain, at the top or inside a block, is
the union of the arms `_Lowerer.arms` masks, each guarded by the
complement of every earlier arm's claim zone.  The compiled form keeps
the top-level arm list so a failed check can be blamed on the first arm
whose images disagree.
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


def simplify_path(p: rir.PathSetExpr) -> rir.PathSetExpr:
    """Bottom-up algebraic cleanup of a path-set expression.

    Only language-preserving rewrites: unit and zero elimination, merging
    unions of location classes into one class, and collapsing nested or
    trivial stars.
    """
    if isinstance(p, rir.SymSet) and not p.symbols:
        return rir.Zero()
    if isinstance(p, rir.Union):
        left, right = simplify_path(p.left), simplify_path(p.right)
        if isinstance(left, rir.Zero):
            return right
        if isinstance(right, rir.Zero):
            return left
        if isinstance(left, rir.SymSet) and isinstance(right, rir.SymSet):
            return rir.SymSet(left.symbols | right.symbols)
        return rir.Union(left, right)
    if isinstance(p, rir.Concat):
        left, right = simplify_path(p.left), simplify_path(p.right)
        if isinstance(left, rir.Zero) or isinstance(right, rir.Zero):
            return rir.Zero()
        if isinstance(left, rir.One):
            return right
        if isinstance(right, rir.One):
            return left
        return rir.Concat(left, right)
    if isinstance(p, rir.Star):
        inner = simplify_path(p.inner)
        if isinstance(inner, (rir.Zero, rir.One)):
            return rir.One()
        if isinstance(inner, rir.Star):
            return inner
        return rir.Star(inner)
    if isinstance(p, rir.Intersect):
        return rir.Intersect(simplify_path(p.left), simplify_path(p.right))
    if isinstance(p, rir.Complement):
        return rir.Complement(simplify_path(p.inner))
    return p


def simplify_rel(r: rir.RelExpr) -> rir.RelExpr:
    """Bottom-up algebraic cleanup of a relation expression.

    Pushes relation structure down to plain path sets wherever the
    relational operators act pointwise: identities absorb composition,
    union, concatenation and star of identities, and a composition
    against a cross constrains the cross's input side.  The payoff is
    that checks against identity-only specs evaluate as single acceptor
    intersections instead of per-arm products.
    """
    if isinstance(r, rir.Identity):
        source = simplify_path(r.source)
        if isinstance(source, rir.Zero):
            return rir.RelZero()
        if isinstance(source, rir.One):
            return rir.RelOne()
        return rir.Identity(source)
    if isinstance(r, rir.Cross):
        left, right = simplify_path(r.left), simplify_path(r.right)
        if isinstance(left, rir.Zero) or isinstance(right, rir.Zero):
            return rir.RelZero()
        return rir.Cross(left, right)
    if isinstance(r, rir.RelUnion):
        left, right = simplify_rel(r.left), simplify_rel(r.right)
        if isinstance(left, rir.RelZero):
            return right
        if isinstance(right, rir.RelZero):
            return left
        if isinstance(left, rir.Identity) and isinstance(right, rir.Identity):
            return rir.Identity(
                simplify_path(rir.Union(left.source, right.source)))
        return rir.RelUnion(left, right)
    if isinstance(r, rir.RelConcat):
        left, right = simplify_rel(r.left), simplify_rel(r.right)
        if isinstance(left, rir.RelZero) or isinstance(right, rir.RelZero):
            return rir.RelZero()
        if isinstance(left, rir.RelOne):
            return right
        if isinstance(right, rir.RelOne):
            return left
        if isinstance(left, rir.Identity) and isinstance(right, rir.Identity):
            return rir.Identity(
                simplify_path(rir.Concat(left.source, right.source)))
        return rir.RelConcat(left, right)
    if isinstance(r, rir.RelStar):
        inner = simplify_rel(r.inner)
        if isinstance(inner, (rir.RelZero, rir.RelOne)):
            return rir.RelOne()
        if isinstance(inner, rir.Identity):
            return rir.Identity(simplify_path(rir.Star(inner.source)))
        return rir.RelStar(inner)
    if isinstance(r, rir.Compose):
        return _simplify_compose(simplify_rel(r.left), simplify_rel(r.right))
    return r


def _simplify_compose(left: rir.RelExpr, right: rir.RelExpr) -> rir.RelExpr:
    """Simplify a composition of two already-simplified relations."""
    if isinstance(left, rir.RelZero) or isinstance(right, rir.RelZero):
        return rir.RelZero()
    if isinstance(left, rir.Identity) and isinstance(right, rir.Identity):
        return rir.Identity(
            simplify_path(rir.Intersect(left.source, right.source)))
    if isinstance(left, rir.Identity) and isinstance(right, rir.Cross):
        return simplify_rel(rir.Cross(
            rir.Intersect(left.source, right.left), right.right))
    if isinstance(left, rir.Cross) and isinstance(right, rir.Identity):
        return simplify_rel(rir.Cross(
            left.left, rir.Intersect(left.right, right.source)))
    # Composition distributes over union on either side; distributing
    # lets the identity and cross rules above fire per branch.
    if isinstance(right, rir.RelUnion):
        return simplify_rel(rir.RelUnion(rir.Compose(left, right.left),
                                         rir.Compose(left, right.right)))
    if isinstance(left, rir.RelUnion):
        return simplify_rel(rir.RelUnion(rir.Compose(left.left, right),
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
            return (rir.fold([p[0] for p in parts], rir.RelConcat),
                    rir.fold([p[1] for p in parts], rir.RelConcat),
                    rir.fold([p[2] for p in parts], rir.Concat))
        if isinstance(s, ElseSpec):
            arms = self.arms(s)
            return (rir.fold([a.rpre for a in arms], rir.RelUnion),
                    rir.fold([a.rpost for a in arms], rir.RelUnion),
                    rir.fold([a.zone for a in arms], rir.Union))
        raise TypeError(f"not a spec: {s!r}")

    def arms(self, s: SpecAst) -> list[SubSpec]:
        """The arms of an else chain in priority order, each masked.

        Arm i's zone and relations are restricted to the complement of
        the union of the earlier arms' zones.
        """
        nodes = s.arms if isinstance(s, ElseSpec) else (s,)
        out = []
        prior = None  # union of the zones of the arms so far
        for i, arm in enumerate(nodes):
            rpre, rpost, zone = self.spec(arm)
            zone = simplify_path(zone)
            label = arm.name or f"#{i + 1}"
            if prior is None:
                out.append(SubSpec(label, zone, rpre, rpost))
                prior = zone
                continue
            outside = rir.Complement(prior)
            mask = rir.Identity(outside)
            out.append(SubSpec(label, rir.Intersect(zone, outside),
                               rir.Compose(mask, rpre),
                               rir.Compose(mask, rpost)))
            if i + 1 < len(nodes):
                prior = simplify_path(rir.Union(prior, zone))
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
            return (rir.RelUnion(rir.Identity(zone), rir.Cross(d, p)),
                    rir.Identity(zone), zone)
        if isinstance(m, Remove):
            p = m.paths
            return rir.Identity(_minus(d, p)), rir.Identity(d), d
        if isinstance(m, Replace):
            old, new = m.old, m.new
            zone = rir.Union(d, new)
            return (rir.RelUnion(rir.Identity(_minus(zone, old)),
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
                    rir.RelUnion(rir.Cross(p, mk),
                                 rir.Identity(_minus(d, p))),
                    zone)
        raise TypeError(f"not a modifier: {m!r}")


def compile_spec(spec: SpecAst, index: LocationIndex) -> CompiledSpec:
    """Compile one spec tree into its check equation and arm list."""
    lower = _Lowerer(index)
    subspecs = [SubSpec(a.label, simplify_path(a.zone), simplify_rel(a.rpre),
                        simplify_rel(a.rpost))
                for a in lower.arms(spec)]

    rpre = simplify_rel(rir.fold([s.rpre for s in subspecs], rir.RelUnion))
    rpost = simplify_rel(rir.fold([s.rpost for s in subspecs], rir.RelUnion))
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