"""Lowering parsed change specs to relational path-set expressions.

Zones and modifier arguments arrive from the parser as `rir` path sets.
Each spec statement becomes a pair of relations: one applied to the
pre-change paths and one to the post-change paths.  The check itself is
a single equation, image(pre, rpre) == image(post, rpost).  Modifier
arguments are folded into the relations so that both images describe
the same intended outcome; a `#n` marker symbol stands for "some
member of a path family" where the spec allows freedom (`any`).

The statements of a block become a balanced relation concatenation
(`rir.concat`, pairwise on relations), and the arms of a chain a
relation union (`rir.union`): relations are built from the same regular
operators as path sets, through the normalizing constructors of
`rela.rir`, so every node is built simplified and no pass cleans up
afterwards.  Every `else` chain, at the top or inside a block, is the
union of the arms `_Lowerer.arms` masks, each cut to its own zone minus
every earlier arm's zone.  The compiled form keeps the top-level arm
list so a failed check can be blamed on the first arm whose images
disagree.
"""

from __future__ import annotations

from typing import Optional

from . import rir
from .automata import Record, Symbol
from .frontend import (
    Add, AnyOf, AtomicSpec, ConcatSpec, DropTraffic, ElseSpec, LocationIndex,
    Preserve, PrefixPredicate, Program, Remove, Replace, SpecAst,
)


class MarkerBinding(Record):
    """One `any()` occurrence: its marker and the family it ranges over."""

    __slots__ = ("symbol", "pathset")

    def __init__(self, symbol: Symbol, pathset: rir.PathSetExpr):
        self.symbol = symbol
        self.pathset = pathset


class SubSpec(Record):
    """One arm of an else chain, with the earlier arms masked out."""

    __slots__ = ("label", "zone", "rpre", "rpost")

    def __init__(self, label: str, zone: rir.PathSetExpr,
                 rpre: rir.RelExpr, rpost: rir.RelExpr):
        self.label = label
        self.zone = zone
        self.rpre = rpre
        self.rpost = rpost


class CompiledSpec(Record):
    """A spec's check equation, its arms in priority order, its markers.

    `top` is Equal(Image(PreState, rpre), Image(PostState, rpost)), the
    whole spec's two relations being the unions of the arms' ones.
    """

    __slots__ = ("top", "subspecs", "markers", "name")

    def __init__(self, top: rir.Equal, subspecs: tuple, markers: tuple,
                 name: str = "spec"):
        self.top = top
        self.subspecs = subspecs
        self.markers = markers
        self.name = name


class CompiledGuard(Record):
    __slots__ = ("name", "predicate", "spec")

    def __init__(self, name: str, predicate: PrefixPredicate,
                 spec: CompiledSpec):
        self.name = name
        self.predicate = predicate
        self.spec = spec


class CompiledProgram(Record):
    __slots__ = ("guards", "default")

    def __init__(self, guards: tuple, default: Optional[CompiledSpec]):
        self.guards = guards
        self.default = default


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
            return (rir.fold([p[0] for p in parts], rir.concat),
                    rir.fold([p[1] for p in parts], rir.concat),
                    rir.fold([p[2] for p in parts], rir.concat))
        if isinstance(s, ElseSpec):
            arms = self.arms(s)
            return (rir.fold([a.rpre for a in arms], rir.union),
                    rir.fold([a.rpost for a in arms], rir.union),
                    rir.fold([a.zone for a in arms], rir.union))
        raise TypeError(f"not a spec: {s!r}")

    def arms(self, s: SpecAst) -> list[SubSpec]:
        """The arms of an else chain in priority order, each masked.

        Arm i's zone becomes `zone_i - U_i`, U_i the union of the earlier
        arms' zones, and its relations are composed onto the identity of
        that set.  Masking with `zone_i - U_i` rather than the universe
        minus U_i is exact because an arm's relations read only inputs
        inside its own zone, so I(~U_i) . R_i = I(zone_i - U_i) . R_i:

        * every modifier of `atomic` relates only inputs of its zone:
          `preserve` reads d, `remove` d minus p, and `add`, `replace`,
          `drop` and `any` read at most d and the argument they add to
          the zone;
        * a block concatenates its statements' relations and zones, and
          the inputs of a concatenation lie in the concatenation of the
          inputs;
        * a nested chain unites its masked arms, each reading inside its
          masked zone, and its zone is the union of those.
        """
        nodes = s.arms if isinstance(s, ElseSpec) else (s,)
        out = []
        zones = []          # the zones of the arms so far
        unions = [None]     # unions[i]: the union of the first i zones
        for i, arm in enumerate(nodes):
            rpre, rpost, zone = self.spec(arm)
            label = arm.name or f"#{i + 1}"
            if i == 0:
                out.append(SubSpec(label, zone, rpre, rpost))
            else:
                # As in a Fenwick tree, the union of the first i zones
                # joins the union of the first j, i with its lowest bit
                # cleared, to a balanced block of the zones from j on:
                # each union shares the nodes of an earlier one, as a
                # left-deep chain would, yet is O(log i) deep.  The
                # evaluator reads such a union's zones and takes them
                # away in one walk; it never builds the union itself.
                j = i & (i - 1)
                block = rir.fold(zones[j:], rir.union)
                unions.append(
                    block if j == 0 else rir.union(unions[j], block))
                masked = rir.Difference(zone, unions[i])
                mask = rir.identity(masked)
                out.append(SubSpec(label, masked, rir.compose(mask, rpre),
                                   rir.compose(mask, rpost)))
            zones.append(zone)
        return out

    def atomic(self, s: AtomicSpec):
        d = s.zone
        m = s.modifier
        if isinstance(m, Preserve):
            ident = rir.identity(d)
            return ident, ident, d
        if isinstance(m, Add):
            p = m.paths
            zone = rir.union(d, p)
            return (rir.union(rir.identity(zone), rir.cross(d, p)),
                    rir.identity(zone), zone)
        if isinstance(m, Remove):
            p = m.paths
            return rir.identity(rir.Difference(d, p)), rir.identity(d), d
        if isinstance(m, Replace):
            old, new = m.old, m.new
            zone = rir.union(d, new)
            return (rir.union(rir.identity(rir.Difference(zone, old)),
                                 rir.cross(rir.Intersect(d, old), new)),
                    rir.identity(zone), zone)
        if isinstance(m, DropTraffic):
            dropped = rir.SymSet(frozenset([self.index.table.drop]))
            zone = rir.union(d, dropped)
            return rir.cross(zone, dropped), rir.identity(zone), zone
        if isinstance(m, AnyOf):
            p = m.paths
            marker = self.index.table.fresh_marker()
            self.markers.append(MarkerBinding(marker, p))
            mk = rir.SymSet(frozenset([marker]))
            zone = rir.union(d, p)
            return (rir.cross(zone, mk),
                    rir.union(rir.cross(p, mk),
                                 rir.identity(rir.Difference(d, p))),
                    zone)
        raise TypeError(f"not a modifier: {m!r}")


def compile_spec(spec: SpecAst, index: LocationIndex) -> CompiledSpec:
    """Compile one spec tree into its check equation and arm list."""
    lower = _Lowerer(index)
    subspecs = lower.arms(spec)
    rpre = rir.fold([s.rpre for s in subspecs], rir.union)
    rpost = rir.fold([s.rpost for s in subspecs], rir.union)
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