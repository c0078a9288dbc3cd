"""Finite automata over interned location symbols.

This module is the kernel the rest of the checker is built on.  Path sets
(languages of location sequences) are finite-state acceptors (`Fsa`).
A path relation is an `Fsa` too, a transducer whose arc labels are
``(in, out)`` symbol pairs (``None`` on a tape that stands still);
`fsa_union`, `fsa_concat` and `fsa_star` build both kinds.  A machine
carries no symbol universe: its arcs alone fix its language, a state's
default arc included.  A default arc, labelled with its table's
`Others`, is read on every location the state lists no arc of its own
for, so `.` is one arc and a machine's size does not grow with the
number of locations; an arc to `_DEAD` lists a location the default
leaves out.  Drop and markers are never covered by a default.  Acceptors
alone carry defaults: `_relabel` spells a default out, so transducers
have none.  Machines are immutable once constructed; every operation
returns a fresh one, or its input when nothing changes.

One breadth-first walk, `_explore`, builds every machine whose states
are keys discovered from a start key: `determinize` steps over
epsilon-closed subsets, `_product` over pairs of determinized states
(intersection, difference, equivalence and `intersects`; a yes/no
question stops at the first accepting pair) and `fst_compose` over pairs
of transducer states.  The subset and pair steps write each state's
default and its exceptions through `_with_default`; `fsa_symbol_class`
and `minimize` send a default where more than half of the locations go,
by `_over_classes`.  Union, concatenation, star, `trim`, `minimize` and
`substitute` copy and renumber plain arc lists, a default like any other
arc; `fst_identity`, `fst_cross` and `project_output` relabel via
`_relabel`.  `accepts` is a direct NFA simulation that shares no code
with these constructions, and `enumerate_shortest` lists members in
symbol-id order with defaults spelled out.

Symbols are interned through a `SymbolTable`.  Three kinds exist:

* ``location`` -- a network location at the active granularity,
* ``drop``     -- the single reserved symbol marking dropped traffic,
* ``marker``   -- fresh symbols introduced by the spec compiler; they may
  appear on transducer output tapes but never count as part of the
  location universe (locations + drop).

Epsilon is not a `Symbol`; transition labels use ``None`` for it, in
transducers too (one label that moves neither tape).
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Optional, Sequence

EPSILON = None  # transition-label value for the empty move

LOCATION = "location"
DROP = "drop"
MARKER = "marker"


class Symbol:
    """An interned symbol.  Identity is the integer id."""

    __slots__ = ("id", "name", "kind")

    def __init__(self, sid: int, name: str, kind: str):
        self.id = sid
        self.name = name
        self.kind = kind

    def __repr__(self) -> str:
        return f"Symbol({self.id}, {self.name!r}, {self.kind!r})"

    def __str__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return self.id

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Symbol) and other.id == self.id
                and other.name == self.name)

    def __lt__(self, other: "Symbol") -> bool:
        return self.id < other.id

    def __reduce__(self):
        return (Symbol, (self.id, self.name, self.kind))


class Others:
    """The label of a default arc: every location of one `SymbolTable`
    that the arc's state lists no arc of its own for.

    `locations` is the table's location symbols in id order, extended as
    the table interns more.
    """

    __slots__ = ("locations",)

    def __init__(self):
        self.locations: list[Symbol] = []

    def __repr__(self) -> str:
        return f"<Others: {len(self.locations)} locations>"


class SymbolTable:
    """Interns symbols for one run.

    The drop symbol is pre-interned with id 0.  Location ids follow in
    interning order, so callers that want stable ids across runs should
    intern locations in sorted order.  Markers are allocated last, during
    spec compilation.  `others` is the table's default-arc label.
    """

    def __init__(self):
        self._by_name: dict[str, Symbol] = {}
        self._symbols: list[Symbol] = []
        self.others = Others()
        self.drop = self._intern("drop", DROP)
        self._marker_count = 0

    def _intern(self, name: str, kind: str) -> Symbol:
        sym = Symbol(len(self._symbols), name, kind)
        self._by_name[name] = sym
        self._symbols.append(sym)
        if kind == LOCATION:
            self.others.locations.append(sym)
        return sym

    def location(self, name: str) -> Symbol:
        """Intern (or fetch) the location symbol called `name`."""
        sym = self._by_name.get(name)
        return sym if sym is not None else self._intern(name, LOCATION)

    def fresh_marker(self) -> Symbol:
        self._marker_count += 1
        return self._intern(f"#{self._marker_count}", MARKER)

    def universe(self) -> frozenset[Symbol]:
        """All location symbols plus drop; markers excluded."""
        return frozenset(s for s in self._symbols if s.kind in (LOCATION, DROP))


Label = Optional[Symbol]  # None is epsilon


class Record:
    """Base of rela's value records: plain `__slots__` classes.

    A subclass lists its fields in `__slots__` and sets each one in its
    own `__init__`; nothing assigns a field after that.  `_fields` names
    the constructor's arguments in order and `_compare` the fields that
    equality and hashing read; each defaults to the one before
    (`__slots__`, then `_fields`).  Equality is structural and
    class-aware, as a frozen dataclass's is, and equal records hash
    equal.  The methods are written here once, so defining a record
    generates no code at import.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" not in vars(cls):
            cls._fields = cls.__slots__
        if "_compare" not in vars(cls):
            cls._compare = cls._fields

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compare])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((self.__class__, self._key()))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self):
        return (self.__class__,
                tuple([getattr(self, f) for f in self._fields]))


class PathList(Record):
    """A finite, canonically ordered listing drawn from a path language.

    Paths are ordered shortest first, ties broken by symbol ids.  If
    `truncated` is true the source language contains strings beyond those
    listed.
    """

    __slots__ = ("paths", "truncated")

    def __init__(self, paths: tuple[tuple[Symbol, ...], ...],
                 truncated: bool = False):
        self.paths = paths
        self.truncated = truncated

    def render(self) -> list[str]:
        return [" ".join(s.name for s in p) for p in self.paths]

    def __iter__(self):
        return iter(self.paths)

    def __len__(self):
        return len(self.paths)


class Fsa:
    """A finite-state acceptor.  Treat instances as immutable.

    `arcs[q]` is a tuple of ``(label, target)`` pairs where label is a
    `Symbol` (a symbol pair in a transducer) or ``None`` for epsilon.  A
    state of an acceptor may have one default arc, labelled with an
    `Others` and listed first, which reads every location the state has
    no other arc on; a location arc whose target is `_DEAD` is an
    exception to it.  `deterministic` promises there are no epsilon arcs
    and at most one arc per (state, symbol).

    The three trailing slots memoize derived views (the determinized
    twin, per-state transition maps and the minimal twin); they are
    dropped on pickling and do not affect the accepted language.
    """

    __slots__ = ("num_states", "initial", "accepting", "arcs",
                 "deterministic", "_dfa", "_maps", "_min")

    def __init__(self, num_states: int, initial: int,
                 accepting: frozenset[int],
                 arcs: tuple[tuple[tuple[Label, int], ...], ...],
                 deterministic: bool = False):
        if not (0 <= initial < num_states):
            raise ValueError("initial state out of range")
        if len(arcs) != num_states:
            raise ValueError("arc table does not match state count")
        self.num_states = num_states
        self.initial = initial
        self.accepting = accepting
        self.arcs = arcs
        self.deterministic = deterministic
        self._dfa = None
        self._maps = None
        self._min = None

    def __getstate__(self):
        return (self.num_states, self.initial, self.accepting, self.arcs,
                self.deterministic)

    def __setstate__(self, state):
        self.__init__(*state)

    def __repr__(self) -> str:
        return (f"<Fsa {self.num_states} states, "
                f"{sum(len(a) for a in self.arcs)} arcs, "
                f"{'det' if self.deterministic else 'nondet'}>")


# ---------------------------------------------------------------------------
# Acceptor constructors


def fsa_empty() -> Fsa:
    """The empty language."""
    return Fsa(1, 0, frozenset(), ((),), deterministic=True)


def fsa_unit() -> Fsa:
    """The language containing only the empty path."""
    return Fsa(1, 0, frozenset([0]), ((),), deterministic=True)


def fsa_symbol(sym: Symbol) -> Fsa:
    """The single-string language {sym}."""
    return fsa_symbol_class((sym,))


def fsa_symbol_class(symbols, others: Optional[Others] = None) -> Fsa:
    """The length-one strings over a set of symbols, as one flat machine.

    Equivalent to a union of `fsa_symbol` machines but deterministic and
    two states regardless of the class width.  Given `others`, the
    default label of the symbols' table, the start state's arcs are put
    in the one form `_over_classes` gives a deterministic state, so a
    class holding more than half of the locations is one default arc
    plus an arc to `_DEAD` for each location it leaves out, and its size
    follows what it leaves out.
    """
    arcs = tuple((sym, 1) for sym in sorted(symbols, key=lambda s: s.id))
    if others is not None:
        to_default, arcs = _over_classes(arcs, _DEAD, [0, 1, _DEAD], others)
        if to_default != _DEAD:
            arcs = ((others, to_default),) + arcs
    return Fsa(2, 0, frozenset([1]), (arcs, ()), deterministic=True)


def fsa_union(x: Fsa, y: Fsa) -> Fsa:
    arcs: list[list] = [[]]
    off_x = _copy_into(arcs, x)
    off_y = _copy_into(arcs, y)
    arcs[0] = [(EPSILON, x.initial + off_x), (EPSILON, y.initial + off_y)]
    accepting = frozenset(q + off_x for q in x.accepting) | \
        frozenset(q + off_y for q in y.accepting)
    return Fsa(len(arcs), 0, accepting, tuple(map(tuple, arcs)))


def fsa_concat(x: Fsa, y: Fsa) -> Fsa:
    arcs: list[list] = []
    off_x = _copy_into(arcs, x)
    off_y = _copy_into(arcs, y)
    for q in sorted(x.accepting):
        arcs[q + off_x].append((EPSILON, y.initial + off_y))
    accepting = frozenset(q + off_y for q in y.accepting)
    return Fsa(len(arcs), x.initial + off_x, accepting,
               tuple(map(tuple, arcs)))


def fsa_star(x: Fsa) -> Fsa:
    arcs: list[list] = [[]]
    off = _copy_into(arcs, x)
    arcs[0].append((EPSILON, x.initial + off))
    for q in sorted(x.accepting):
        arcs[q + off].append((EPSILON, 0))
    return Fsa(len(arcs), 0, frozenset([0]), tuple(map(tuple, arcs)))


def _copy_into(arcs: list[list], m: Fsa) -> int:
    """Append a shifted copy of `m`'s arc lists to `arcs`; return the
    shift.  Arcs to `_DEAD` stay there."""
    offset = len(arcs)
    arcs.extend([(label, dst + offset if dst != _DEAD else _DEAD)
                 for label, dst in state_arcs]
                for state_arcs in m.arcs)
    return offset


def _default(state_arcs):
    """The target of a state's default arc, or `_DEAD` when it has none."""
    if state_arcs and state_arcs[0][0].__class__ is Others:
        return state_arcs[0][1]
    return _DEAD


def _expand(state_arcs):
    """A state's arcs with its default spelled out, one arc per location
    it covers in symbol-id order after the explicit arcs, and without
    the arcs to `_DEAD`."""
    if not state_arcs or state_arcs[0][0].__class__ is not Others:
        return state_arcs
    (others, target), rest = state_arcs[0], state_arcs[1:]
    listed = {label for label, _ in rest}
    return [arc for arc in rest if arc[1] != _DEAD] + \
        [(sym, target) for sym in others.locations if sym not in listed]


# ---------------------------------------------------------------------------
# Core transformations

# The rejecting sink: a partial DFA's missing arcs lead there, and an
# arc to it lists a location that its state's default does not read.
_DEAD = -1


def _explore(start, step, deterministic: bool = False, decide: bool = False):
    """Build the machine whose states are the keys reachable from `start`.

    Keys are numbered in discovery order, `start` as 0, and stepped in
    that order, so the k-th key stepped is state k.  ``step(key)``
    returns ``(accepts, moves)``, `moves` a list of ``(label,
    target_key)`` pairs that become the state's arcs in order; a move to
    `_DEAD` stays an arc to `_DEAD`.  Returns the `Fsa`; with `decide`,
    whether an accepting key is reachable, stopping at the first one.
    """
    index = {_DEAD: _DEAD, start: 0}
    work = deque([start])
    arcs: list[tuple] = []
    accepting = []
    while work:
        accepts, moves = step(work.popleft())
        if accepts:
            if decide:
                return True
            accepting.append(len(arcs))
        state_arcs = []
        for label, target in moves:
            tid = index.get(target)
            if tid is None:
                tid = index[target] = len(index) - 1
                work.append(target)
            state_arcs.append((label, tid))
        arcs.append(tuple(state_arcs))
    if decide:
        return False
    return Fsa(len(arcs), 0, frozenset(accepting), tuple(arcs), deterministic)


def _epsilon_closures(fsa: Fsa) -> list[tuple[int, ...]]:
    """Per-state epsilon closure as a sorted tuple of state ids."""
    closures: list[tuple[int, ...]] = []
    for q in range(fsa.num_states):
        seen = {q}
        stack = [q]
        while stack:
            s = stack.pop()
            for label, dst in fsa.arcs[s]:
                if label is EPSILON and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        closures.append(tuple(sorted(seen)))
    return closures


def _others_of(fsa: Fsa) -> Optional[Others]:
    """The label of `fsa`'s default arcs, None when it has none."""
    for state_arcs in fsa.arcs:
        if state_arcs and state_arcs[0][0].__class__ is Others:
            return state_arcs[0][0]
    return None


def _with_default(others: Optional[Others], default, moves) -> list:
    """A deterministic state's moves with its default written in.

    `default` is where the state's default arc goes, `_DEAD` for none,
    and `moves` are the ``(label, target)`` of the symbols it lists, in
    order, with `_DEAD` for one that goes nowhere.  A location that goes
    where the default goes is left out, an arc to `_DEAD` is kept only
    for a location the default would otherwise read, and a default that
    reads no location is dropped.
    """
    if default == _DEAD:
        return [move for move in moves if move[1] != _DEAD]
    out = []
    listed, covered = 0, False
    for label, target in moves:
        if label.kind == LOCATION:
            listed += 1
            if target == default:
                covered = True
                continue
        elif target == _DEAD:
            continue
        out.append((label, target))
    if covered or listed < len(others.locations):
        return [(others, default)] + out
    return [move for move in out if move[1] != _DEAD]


def determinize(fsa: Fsa) -> Fsa:
    """Powerset construction; the result has a partial transition function.

    A subset's default arc goes to the union of its members' defaults.
    A location some member lists goes where the members listing it go,
    and where the other members' defaults go; `_with_default` writes the
    subset's default and its exceptions from those targets.

    The result is memoized on the input machine, so repeated product
    constructions against a shared operand pay for one determinization.
    """
    if fsa.deterministic:
        return fsa
    if fsa._dfa is not None:
        return fsa._dfa
    closures = _epsilon_closures(fsa) + [()]  # closures[_DEAD] is empty
    others = _others_of(fsa)
    lists: dict[int, set] = {}   # a member's listed labels, once asked

    def step(subset):
        # Group member arcs by symbol, the defaults under `others` and an
        # exception as no target; re-sort by symbol id to keep state
        # numbering input-independent.
        by_sym: dict = {}
        for q in subset:
            for label, dst in fsa.arcs[q]:
                if label is not EPSILON:
                    by_sym.setdefault(label, set()).update(closures[dst])
        accepts = not fsa.accepting.isdisjoint(subset)
        default = by_sym.pop(others, None)
        if default is not None:
            for q in subset:
                target = _default(fsa.arcs[q])
                if target == _DEAD:
                    continue
                listed = lists.get(q)
                if listed is None:
                    listed = lists[q] = {label for label, _ in fsa.arcs[q]}
                for sym, targets in by_sym.items():
                    if sym.kind == LOCATION and sym not in listed:
                        targets.update(closures[target])
        keys = [(sym, tuple(sorted(by_sym[sym])) or _DEAD)
                for sym in sorted(by_sym, key=lambda s: s.id)]
        if default is None:
            return accepts, keys
        return accepts, _with_default(others, tuple(sorted(default)), keys)

    fsa._dfa = _explore(closures[fsa.initial], step, deterministic=True)
    return fsa._dfa


def _state_maps(dfa: Fsa):
    """Per-state symbol-to-target maps of a deterministic machine, each
    with its default arc's target under ``None`` (a DFA has no epsilon
    arcs), and the machine's default label, None when it has none;
    memoized."""
    got = dfa._maps
    if got is None:
        maps = [dict(state_arcs) for state_arcs in dfa.arcs]
        others = _others_of(dfa)
        if others is not None:
            for m in maps:
                if others in m:
                    m[None] = m.pop(others)
        got = dfa._maps = (maps, others)
    return got


def trim(fsa: Fsa) -> Fsa:
    """Drop states that are unreachable or cannot reach acceptance.

    Under a default arc that is kept, a location arc into a dropped
    state becomes an arc to `_DEAD`, so the default does not take that
    location over.
    """
    forward = {fsa.initial}
    stack = [fsa.initial]
    while stack:
        q = stack.pop()
        for _, dst in fsa.arcs[q]:
            if dst not in forward and dst != _DEAD:
                forward.add(dst)
                stack.append(dst)
    rev: list[list[int]] = [[] for _ in range(fsa.num_states)]
    for q in range(fsa.num_states):
        for _, dst in fsa.arcs[q]:
            if dst != _DEAD:
                rev[dst].append(q)
    backward = set(fsa.accepting)
    stack = [q for q in fsa.accepting]
    while stack:
        q = stack.pop()
        for src in rev[q]:
            if src not in backward:
                backward.add(src)
                stack.append(src)
    live = forward & backward
    if fsa.initial not in live:
        return fsa_empty()
    if len(live) == fsa.num_states:
        return fsa
    remap = {q: n for n, q in enumerate(sorted(live))}
    arcs = []
    for q in remap:
        state_arcs = fsa.arcs[q]
        kept = _default(state_arcs) in remap
        arcs.append(tuple(
            (label, remap[dst]) if dst in remap else (label, _DEAD)
            for label, dst in state_arcs
            if dst in remap or kept and label is not EPSILON
            and label.kind == LOCATION))
    accepting = frozenset(remap[q] for q in fsa.accepting if q in live)
    return Fsa(len(arcs), remap[fsa.initial], accepting, tuple(arcs),
               deterministic=fsa.deterministic)


def minimize(fsa: Fsa) -> Fsa:
    """Language-preserving state minimization (partition refinement).

    The result is memoized on the input and on itself, so minimizing a
    machine `minimize` returned (a cached ground union, say) costs
    nothing.
    """
    if fsa._min is None:
        fsa._min = _refine(trim(determinize(fsa)))
        fsa._min._min = fsa._min
    return fsa._min


def _refine(d: Fsa) -> Fsa:
    """The minimal DFA of the trimmed partial DFA `d`.  On it a missing
    arc genuinely means "no acceptance this way", so refining on arc
    signatures alone is sound."""
    if not d.accepting:
        return d
    # A state's signature is its class, its default's class and its
    # other arcs' symbol ids and target classes in id order; a DFA has
    # one arc per symbol, so the id order is fixed once.  In a machine
    # with defaults every state first has its arcs put in the one form
    # `_over_classes` gives every successor function, so states that
    # read alike share a signature.  `_DEAD`'s class is `_DEAD`, the
    # last entry of `cls`.
    others = _others_of(d)
    default = [_default(arcs) for arcs in d.arcs]
    explicit = [sorted((arc for arc in arcs if arc[0].__class__ is not Others),
                       key=lambda arc: arc[0].id) for arcs in d.arcs]
    ids = [tuple(label.id for label, _ in arcs) for arcs in explicit]
    targets = [[dst for _, dst in arcs] for arcs in explicit]
    cls = [1 if q in d.accepting else 0 for q in range(d.num_states)]
    ncls = len(set(cls))
    while True:
        cls.append(_DEAD)
        sigs: dict[tuple, int] = {}
        new_cls = [0] * d.num_states
        for q in range(d.num_states):
            if others is None:
                sig = (cls[q], _DEAD, ids[q],
                       tuple(map(cls.__getitem__, targets[q])))
            else:
                to_default, arcs = _over_classes(explicit[q], cls[default[q]],
                                                 cls, others)
                sig = (cls[q], to_default, tuple(label.id for label, _ in arcs),
                       tuple(c for _, c in arcs))
            nid = sigs.setdefault(sig, len(sigs))
            new_cls[q] = nid
        stable = len(sigs) == ncls
        cls, ncls = new_cls, len(sigs)
        if stable:
            break
    # Each class takes the arcs of its first member.
    cls.append(_DEAD)
    arcs: list = [None] * ncls
    for q in range(d.num_states):
        if arcs[cls[q]] is not None:
            continue
        if others is None:
            arcs[cls[q]] = tuple((label, cls[dst]) for label, dst in d.arcs[q])
            continue
        to_default, out = _over_classes(explicit[q], cls[default[q]], cls,
                                        others)
        if to_default != _DEAD:
            out = ((others, to_default),) + out
        arcs[cls[q]] = out
    accepting = frozenset(cls[q] for q in d.accepting)
    return Fsa(ncls, cls[d.initial], accepting, tuple(arcs),
               deterministic=True)


def _over_classes(arcs, to_default: int, cls: list, others: Others):
    """One DFA state's successor function over the classes `cls`, in its
    one form: ``(default class, ((label, class), ...))`` in id order.

    `arcs` are the state's arcs other than its default, by id, and
    `to_default` is the class its default goes to (`_DEAD` for none).
    The default goes to the class more than half of the locations go
    to, or is `_DEAD` when no class has that many, and the arcs list
    every symbol that goes elsewhere, locations the old default read
    included.
    """
    counts = {to_default: len(others.locations)}
    for label, dst in arcs:
        if label.kind == LOCATION:
            counts[to_default] -= 1
            counts[cls[dst]] = counts.get(cls[dst], 0) + 1
    best = max(counts, key=counts.get)
    if 2 * counts[best] <= len(others.locations):
        best = _DEAD
    out = [(label, cls[dst]) for label, dst in arcs
           if cls[dst] != (best if label.kind == LOCATION else _DEAD)]
    if best != to_default:
        listed = {label for label, _ in arcs}
        out += [(sym, to_default) for sym in others.locations
                if sym not in listed]
        out.sort(key=lambda arc: arc[0].id)
    return best, tuple(out)


# Whether a pair of targets can still reach a deciding pair, by `follow`.
_ALIVE = {"both": lambda pair: _DEAD not in pair,
          "left": lambda pair: pair[0] != _DEAD,
          "either": lambda pair: pair != (_DEAD, _DEAD)}


def _product(x: Fsa, y: Fsa, follow: str, accept, build: bool = True):
    """Walk the reachable pairs of states of the determinized operands.

    `follow` picks the symbols a pair moves on: ``"both"`` (symbols both
    sides read), ``"left"`` (symbols x reads) or ``"either"`` (symbols
    either side reads).  A side with no arc for a followed symbol moves
    to `_DEAD`, which never accepts, so complements stay implicit.  A
    pair accepts when ``accept(x_accepts, y_accepts)``.  `y` may be a
    `_Union`, whose states are built as the walk reaches them.

    A side whose state has no default decides, where `follow` lets it,
    which labels move the pair: x under ``"left"`` and either side under
    ``"both"``, the one with the smaller fan-out when both decide, so a
    product with a complete machine over many symbols stays proportional
    to the smaller one.  Its labels alone are scanned and looked up in
    the other side's map, where a location the other side does not list
    is read on its default.  Otherwise the pair moves on the symbols
    either side lists and on a default to the pair of the two defaults'
    targets, and `_with_default` writes that default and its exceptions.

    With `build` the walk returns the product as a deterministic `Fsa`;
    without it, whether an accepting pair is reachable, stopping at the
    first one.
    """
    x = determinize(x)
    xmaps, x_others = _state_maps(x)
    if isinstance(y, _Union):
        ymaps, y_others = y, y.others
    else:
        y = determinize(y)
        ymaps, y_others = _state_maps(y)
    others = x_others or y_others
    keep = follow == "left"
    alive = _ALIVE[follow]

    def step(pair):
        qx, qy = pair
        xmap = {} if qx == _DEAD else xmaps[qx]
        ymap = {} if qy == _DEAD else ymaps[qy]
        dx, dy = xmap.get(None, _DEAD), ymap.get(None, _DEAD)
        accepts = accept(qx in x.accepting, qy in y.accepting)
        if follow == "either" or dx != _DEAD and (keep or dy != _DEAD):
            labels = {**xmap, **ymap}   # neither side decides
        elif dx == _DEAD and (keep or dy != _DEAD or len(xmap) <= len(ymap)):
            # x decides
            moves = []
            for label, tx in xmap.items():
                ty = ymap.get(label)
                if ty is None:
                    ty = dy if label.kind == LOCATION else _DEAD
                if ty != _DEAD or keep:   # under "left" y may be dead
                    moves.append((label, (tx, ty)))
            return accepts, moves
        else:
            labels = ymap   # y decides
        moves = []
        for label in labels:
            if label is None:
                continue
            if label.kind == LOCATION:
                target = (xmap.get(label, dx), ymap.get(label, dy))
            else:
                target = (xmap.get(label, _DEAD), ymap.get(label, _DEAD))
            moves.append((label, target if alive(target) else _DEAD))
        default = (dx, dy) if alive((dx, dy)) else _DEAD
        return accepts, _with_default(others, default, moves)

    return _explore((x.initial, y.initial), step, deterministic=True,
                    decide=not build)


class _Union(dict):
    """The union of several machines as the second operand of a product,
    determinized only as far as the walk reads it.

    A state is a tuple of ``(part, state)`` pairs in part order, at most
    one per part since each part is determinized.  The union maps a state
    to its symbol-to-target map, the default's target under ``None``, as
    `_state_maps` maps a DFA's states, and builds that map the first time
    the walk asks for it; the state joins `accepting` then if a member
    accepts.  A location a member lists goes where the members listing
    it go and where the other members' defaults go, and to `_DEAD` where
    that is nowhere.
    """

    def __init__(self, parts):
        super().__init__()
        dfas = [determinize(part) for part in parts]
        self.finals = [dfa.accepting for dfa in dfas]
        self.maps = []
        self.others = None
        for dfa in dfas:
            maps, others = _state_maps(dfa)
            self.maps.append(maps)
            self.others = self.others or others
        self.initial = tuple((k, dfa.initial) for k, dfa in enumerate(dfas))
        self.accepting = set()

    def __missing__(self, state):
        by_sym: dict = {}
        defaults = []
        for k, q in state:
            if q in self.finals[k]:
                self.accepting.add(state)
            m = self.maps[k][q]
            for label, dst in m.items():
                if label is None:
                    defaults.append((k, dst, m))
                else:
                    targets = by_sym.setdefault(label, [])
                    if dst != _DEAD:
                        targets.append((k, dst))
        for k, dst, m in defaults:
            for label, targets in by_sym.items():
                if label.kind == LOCATION and label not in m:
                    targets.append((k, dst))
        out = {label: tuple(sorted(targets)) or _DEAD
               for label, targets in by_sym.items()}
        if defaults:
            out[None] = tuple((k, dst) for k, dst, _ in defaults)
        self[state] = out
        return out


def fsa_intersect(x: Fsa, y: Fsa) -> Fsa:
    """L(x) and L(y), as a deterministic product."""
    return _product(x, y, "both", operator.and_)


def intersects(x: Fsa, y: Fsa) -> bool:
    """True when L(x) and L(y) share a member."""
    return _product(x, y, "both", operator.and_, build=False)


def fsa_difference(x: Fsa, *ys: Fsa) -> Fsa:
    """L(x) minus the languages of `ys`, with their complement kept
    implicit.  Several machines are taken away in one walk of x against
    their union, which is determinized only where the walk goes."""
    y = ys[0] if len(ys) == 1 else _Union(ys)
    return _product(x, y, "left", lambda ax, ay: ax and not ay)


def fsa_equivalent(x: Fsa, y: Fsa) -> bool:
    """Language equality: no reachable pair where exactly one side accepts."""
    return not _product(x, y, "either", operator.ne, build=False)


def accepts(fsa: Fsa, path: Sequence[Symbol]) -> bool:
    """Membership test by direct NFA simulation.  A state reads a
    location it lists no arc for on its default arc, if it has one."""
    closures = _epsilon_closures(fsa)
    current = set(closures[fsa.initial])
    for sym in path:
        nxt: set[int] = set()
        for q in current:
            listed = False
            for label, dst in fsa.arcs[q]:
                if label is not EPSILON and label == sym:
                    listed = True
                    if dst != _DEAD:
                        nxt.update(closures[dst])
            target = _default(fsa.arcs[q])
            if not listed and target != _DEAD and sym.kind == LOCATION:
                nxt.update(closures[target])
        if not nxt:
            return False
        current = nxt
    return any(q in fsa.accepting for q in current)


def enumerate_shortest(fsa: Fsa, limit: int) -> PathList:
    """List the first `limit` members in shortlex order.

    Members come shortest first, and paths of equal length in
    lexicographic order of their symbol ids.  `truncated` is true exactly
    when the language has more than `limit` members.

    The walk runs over the trimmed DFA one length n at a time.  `live[r]`
    holds the states that accept some string of exactly r more symbols,
    one backward step per length; a depth-first search from the initial
    state then enters, in symbol-id order, only arcs whose target is live
    for the steps left, so every branch it takes ends in a member.  It
    stops after `limit` + 1 members, or once no state is reachable in n
    steps.  With L the longest length listed, the cost is
    O(L * arcs + (limit + 1) * L * fan-out), whatever the size of the
    language.  A default arc counts as one arc per location it covers.
    """
    d = trim(determinize(fsa))
    if not d.accepting:
        return PathList((), False)
    limit = max(limit, 0)
    # Arcs of an input DFA (graph_to_fsa's, say) come in input order.
    arcs = [sorted(_expand(state_arcs), key=lambda arc: arc[0].id)
            for state_arcs in d.arcs]
    rev: list[list[int]] = [[] for _ in range(d.num_states)]
    for q, state_arcs in enumerate(arcs):
        for _, dst in state_arcs:
            rev[dst].append(q)
    live = [d.accepting]
    out: list[tuple[Symbol, ...]] = [()] if d.initial in d.accepting else []
    reach = {d.initial}
    n = 0
    while len(out) <= limit:
        reach = {dst for q in reach for _, dst in arcs[q]}
        if not reach:
            break
        live.append(frozenset(src for q in live[n] for src in rev[q]))
        n += 1
        if d.initial in live[n]:
            _members_of_length(arcs, live, d.initial, n, out, limit + 1)
    return PathList(tuple(out[:limit]), len(out) > limit)


def _members_of_length(arcs, live, start: int, n: int,
                       out: list, want: int) -> None:
    """Append the length-`n` members from `start` in symbol-id order.

    Stops early once `out` holds `want` paths.  `start` must be live for
    `n` steps (`start in live[n]`) and `n` must be positive.
    """
    path: list[Symbol] = []
    frames = [iter(arcs[start])]
    while frames:
        left = n - len(path)  # symbols still to read from the top state
        for label, dst in frames[-1]:
            if dst in live[left - 1]:
                path.append(label)
                if left > 1:
                    frames.append(iter(arcs[dst]))
                    break
                out.append(tuple(path))
                if len(out) == want:
                    return
                path.pop()
        else:
            frames.pop()
            if path:
                path.pop()


def substitute(fsa: Fsa, mapping: dict) -> Fsa:
    """Replace each arc reading a mapped symbol with that symbol's language.

    `mapping` sends a Symbol to an Fsa; an arc labeled with a mapped
    symbol is rewired through a private copy of that machine.  Arcs on
    unmapped symbols are kept as they are, and a machine with no arc on a
    mapped symbol is returned as it is.
    """
    if not any(label in mapping for state_arcs in fsa.arcs
               for label, _ in state_arcs):
        return fsa
    arcs: list[list] = [[] for _ in range(fsa.num_states)]
    for q, state_arcs in enumerate(fsa.arcs):
        for label, dst in state_arcs:
            if label is not None and label in mapping:
                inner = mapping[label]
                off = _copy_into(arcs, inner)
                arcs[q].append((EPSILON, inner.initial + off))
                for acc in sorted(inner.accepting):
                    arcs[acc + off].append((EPSILON, dst))
            else:
                arcs[q].append((label, dst))
    return Fsa(len(arcs), fsa.initial, fsa.accepting, tuple(map(tuple, arcs)))


# ---------------------------------------------------------------------------
# Transducers


def _relabel(fsa: Fsa, label_of) -> Fsa:
    """`fsa` with each non-epsilon arc label replaced by ``label_of(label)``,
    a default arc first spelled out in symbol-id order."""
    arcs = tuple(
        tuple((label if label is EPSILON else label_of(label), dst)
              for label, dst in state_arcs)
        for state_arcs in map(_expand, fsa.arcs))
    return Fsa(fsa.num_states, fsa.initial, fsa.accepting, arcs)


def fst_identity(p: Fsa) -> Fsa:
    """The identity relation restricted to L(p)."""
    return _relabel(p, lambda sym: (sym, sym))


def fst_cross(p1: Fsa, p2: Fsa) -> Fsa:
    """The full relation L(p1) x L(p2), linear in the operand sizes.

    Reads any member of p1 while writing nothing, then writes any member
    of p2 while reading nothing.
    """
    return fsa_concat(_relabel(p1, lambda sym: (sym, EPSILON)),
                      _relabel(p2, lambda sym: (EPSILON, sym)))


_STILL = (EPSILON, EPSILON)  # the tapes of a joint-epsilon (None) label


def _tapes(xin, yout):
    """The label that reads `xin` and writes `yout`; a bare ``None`` for
    a move on neither tape."""
    return EPSILON if xin is EPSILON and yout is EPSILON else (xin, yout)


def fst_compose(x: Fsa, y: Fsa) -> Fsa:
    """Relation composition over the reachable pairs of states.

    A pair moves jointly where x writes the symbol y reads; x moves alone
    on an arc that writes epsilon, and y alone on an arc that reads
    epsilon, so every interleaving of those moves is kept.  A ``None``
    label is read as a move on neither tape.  The result has at most
    ``x.num_states * y.num_states`` states.  Rela's relations are
    unweighted, so the language is the contract: how many paths relate
    two strings is not preserved.
    """
    # Index y's arcs by input label once per state.
    y_by_in: list[dict] = []
    for q in range(y.num_states):
        m: dict = {}
        for label, dst in y.arcs[q]:
            yin, yout = _STILL if label is EPSILON else label
            m.setdefault(yin, []).append((yout, dst))
        y_by_in.append(m)

    def step(pair):
        qx, qy = pair
        ymap = y_by_in[qy]
        moves = []
        for label, dx in x.arcs[qx]:
            xin, xout = _STILL if label is EPSILON else label
            if xout is EPSILON:
                moves.append((_tapes(xin, EPSILON), (dx, qy)))
            else:
                moves += [(_tapes(xin, yout), (dx, dy))
                          for yout, dy in ymap.get(xout, ())]
        moves += [(_tapes(EPSILON, yout), (qx, dy))
                  for yout, dy in ymap.get(EPSILON, ())]
        return qx in x.accepting and qy in y.accepting, moves

    return _explore((x.initial, y.initial), step)


def project_output(t: Fsa) -> Fsa:
    """The output tape of transducer `t`, as an acceptor."""
    return _relabel(t, operator.itemgetter(1))


def apply_image(p: Fsa, r: Fsa) -> Fsa:
    """The image of L(p) under transducer r: range(identity(p) . r)."""
    return project_output(fst_compose(fst_identity(p), r))
