"""Finite automata over interned location symbols.

This module is the kernel the rest of the checker is built on.  Path sets
(languages of location sequences) are finite-state acceptors (`Fsa`).
A path relation is an `Fsa` too, a transducer whose arc labels are
``(in, out)`` symbol pairs (``None`` on a tape that stands still);
`fsa_union`, `fsa_concat` and `fsa_star` build both kinds.  A machine
carries no symbol universe: its arcs alone fix its language.  Machines
are immutable once constructed; every operation returns a fresh one, or
its input when nothing changes.

One breadth-first walk, `_explore`, builds every machine whose states
are keys discovered from a start key: `determinize` steps over
epsilon-closed subsets, `_product` over pairs of determinized states
(intersection, difference, equivalence and `intersects`; a yes/no
question stops at the first accepting pair) and `fst_compose` over pairs
of transducer states.  Union, concatenation, star, `trim`, `minimize`
and `substitute` copy and renumber plain arc lists; `fst_identity`,
`fst_cross` and `project_output` relabel via `_relabel`.  `accepts` is a
direct NFA simulation that shares no code with these constructions.

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
from dataclasses import dataclass
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


class SymbolTable:
    """Interns symbols for one run.

    The drop symbol is pre-interned with id 0.  Location ids follow in
    interning order, so callers that want stable ids across runs should
    intern locations in sorted order.  Markers are allocated last, during
    spec compilation.
    """

    def __init__(self):
        self._by_name: dict[str, Symbol] = {}
        self._symbols: list[Symbol] = []
        self.drop = self._intern("drop", DROP)
        self._marker_count = 0

    def _intern(self, name: str, kind: str) -> Symbol:
        sym = Symbol(len(self._symbols), name, kind)
        self._by_name[name] = sym
        self._symbols.append(sym)
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


@dataclass(frozen=True)
class PathList:
    """A finite, canonically ordered listing drawn from a path language.

    Paths are ordered shortest first, ties broken by symbol ids.  If
    `truncated` is true the source language contains strings beyond those
    listed.
    """

    paths: tuple[tuple[Symbol, ...], ...]
    truncated: bool = False

    def render(self) -> list[str]:
        return [" ".join(s.name for s in p) for p in self.paths]

    def __iter__(self):
        return iter(self.paths)

    def __len__(self):
        return len(self.paths)


class Fsa:
    """A finite-state acceptor.  Treat instances as immutable.

    `arcs[q]` is a tuple of ``(label, target)`` pairs where label is a
    `Symbol` (a symbol pair in a transducer) or ``None`` for epsilon.
    `deterministic` promises there are no epsilon arcs and at most one
    arc per (state, symbol).

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


def fsa_symbol_class(symbols) -> Fsa:
    """The length-one strings over a set of symbols, as one flat machine.

    Equivalent to a union of `fsa_symbol` machines but deterministic and
    two states regardless of the class width.
    """
    ordered = sorted(symbols, key=lambda s: s.id)
    return Fsa(2, 0, frozenset([1]),
               (tuple((sym, 1) for sym in ordered), ()),
               deterministic=True)


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
    """Append a shifted copy of `m`'s arc lists to `arcs`; return the shift."""
    offset = len(arcs)
    arcs.extend([(label, dst + offset) for label, dst in state_arcs]
                for state_arcs in m.arcs)
    return offset


# ---------------------------------------------------------------------------
# Core transformations


def _explore(start, step, deterministic: bool = False, decide: bool = False):
    """Build the machine whose states are the keys reachable from `start`.

    Keys are numbered in discovery order, `start` as 0, and stepped in
    that order, so the k-th key stepped is state k.  ``step(key)``
    returns ``(accepts, moves)``, `moves` a list of ``(label,
    target_key)`` pairs that become the state's arcs in order.  Returns
    the `Fsa`; with `decide`, whether an accepting key is reachable,
    stopping at the first one.
    """
    index = {start: 0}
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
                tid = index[target] = len(index)
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


def determinize(fsa: Fsa) -> Fsa:
    """Powerset construction; the result has a partial transition function.

    The result is memoized on the input machine, so repeated product
    constructions against a shared operand pay for one determinization.
    """
    if fsa.deterministic:
        return fsa
    if fsa._dfa is not None:
        return fsa._dfa
    closures = _epsilon_closures(fsa)

    def step(subset):
        # Group member arcs by symbol; dict preserves first-seen order, so
        # re-sort by symbol id to keep state numbering input-independent.
        by_sym: dict[Symbol, set[int]] = {}
        for q in subset:
            for label, dst in fsa.arcs[q]:
                if label is not EPSILON:
                    by_sym.setdefault(label, set()).update(closures[dst])
        return (not fsa.accepting.isdisjoint(subset),
                [(sym, tuple(sorted(by_sym[sym])))
                 for sym in sorted(by_sym, key=lambda s: s.id)])

    fsa._dfa = _explore(closures[fsa.initial], step, deterministic=True)
    return fsa._dfa


def _state_maps(dfa: Fsa) -> list[dict]:
    """Per-state symbol-to-target maps of a deterministic machine, memoized."""
    maps = dfa._maps
    if maps is None:
        maps = [dict(state_arcs) for state_arcs in dfa.arcs]
        dfa._maps = maps
    return maps


def trim(fsa: Fsa) -> Fsa:
    """Drop states that are unreachable or cannot reach acceptance."""
    forward = {fsa.initial}
    stack = [fsa.initial]
    while stack:
        q = stack.pop()
        for _, dst in fsa.arcs[q]:
            if dst not in forward:
                forward.add(dst)
                stack.append(dst)
    rev: list[list[int]] = [[] for _ in range(fsa.num_states)]
    for q in range(fsa.num_states):
        for _, dst in fsa.arcs[q]:
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
    arcs = tuple(tuple((label, remap[dst]) for label, dst in fsa.arcs[q]
                       if dst in live) for q in remap)
    accepting = frozenset(remap[q] for q in fsa.accepting if q in live)
    return Fsa(len(arcs), remap[fsa.initial], accepting, arcs,
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
    # A state's signature is its class, its symbol ids in id order and
    # the classes of the targets in that order; a DFA has one arc per
    # symbol, so the id order is fixed once.
    ordered = [sorted(arcs, key=lambda arc: arc[0].id) for arcs in d.arcs]
    ids = [tuple(label.id for label, _ in arcs) for arcs in ordered]
    targets = [[dst for _, dst in arcs] for arcs in ordered]
    cls = [1 if q in d.accepting else 0 for q in range(d.num_states)]
    ncls = len(set(cls))
    while True:
        sigs: dict[tuple, int] = {}
        new_cls = [0] * d.num_states
        for q in range(d.num_states):
            sig = (cls[q], ids[q], tuple(map(cls.__getitem__, targets[q])))
            nid = sigs.setdefault(sig, len(sigs))
            new_cls[q] = nid
        stable = len(sigs) == ncls
        cls, ncls = new_cls, len(sigs)
        if stable:
            break
    # Each class takes the arcs of its first member.
    arcs: list = [None] * ncls
    for q in range(d.num_states):
        if arcs[cls[q]] is None:
            arcs[cls[q]] = tuple((label, cls[dst]) for label, dst in d.arcs[q])
    accepting = frozenset(cls[q] for q in d.accepting)
    return Fsa(ncls, cls[d.initial], accepting, tuple(arcs),
               deterministic=True)


_DEAD = -1  # the implicit rejecting sink of a partial DFA


def _product(x: Fsa, y: Fsa, follow: str, accept, build: bool = True):
    """Walk the reachable pairs of states of the determinized operands.

    `follow` picks the symbols a pair moves on: ``"both"`` (symbols both
    sides read), ``"left"`` (symbols x reads) or ``"either"`` (symbols
    either side reads).  A side with no arc for a followed symbol moves
    to `_DEAD`, which never accepts, so complements stay implicit.  Under
    ``"both"`` each pair scans whichever side has the smaller fan-out
    and looks the labels up in the other side's map, so a product with a
    complete machine over many symbols stays proportional to the smaller
    one.  A pair accepts when ``accept(x_accepts, y_accepts)``.

    With `build` the walk returns the product as a deterministic `Fsa`;
    without it, whether an accepting pair is reachable, stopping at the
    first one.
    """
    x, y = determinize(x), determinize(y)
    xmaps, ymaps = _state_maps(x), _state_maps(y)

    def step(pair):
        qx, qy = pair
        xmap = {} if qx == _DEAD else xmaps[qx]
        ymap = {} if qy == _DEAD else ymaps[qy]
        if follow == "both":
            if len(xmap) <= len(ymap):
                moves = [(label, (dst, ymap[label]))
                         for label, dst in xmap.items() if label in ymap]
            else:
                moves = [(label, (xmap[label], dst))
                         for label, dst in ymap.items() if label in xmap]
        else:
            moves = [(label, (dst, ymap.get(label, _DEAD)))
                     for label, dst in xmap.items()]
            if follow == "either":
                moves += [(label, (_DEAD, dst))
                          for label, dst in ymap.items() if label not in xmap]
        return accept(qx in x.accepting, qy in y.accepting), moves

    return _explore((x.initial, y.initial), step, deterministic=True,
                    decide=not build)


def fsa_intersect(x: Fsa, y: Fsa) -> Fsa:
    """L(x) and L(y), as a deterministic product."""
    return _product(x, y, "both", operator.and_)


def intersects(x: Fsa, y: Fsa) -> bool:
    """True when L(x) and L(y) share a member."""
    return _product(x, y, "both", operator.and_, build=False)


def fsa_difference(x: Fsa, y: Fsa) -> Fsa:
    """L(x) minus L(y), with y's complement kept implicit."""
    return _product(x, y, "left", lambda ax, ay: ax and not ay)


def fsa_equivalent(x: Fsa, y: Fsa) -> bool:
    """Language equality: no reachable pair where exactly one side accepts."""
    return not _product(x, y, "either", operator.ne, build=False)


def accepts(fsa: Fsa, path: Sequence[Symbol]) -> bool:
    """Membership test by direct NFA simulation."""
    closures = _epsilon_closures(fsa)
    current = set(closures[fsa.initial])
    for sym in path:
        nxt: set[int] = set()
        for q in current:
            for label, dst in fsa.arcs[q]:
                if label is not EPSILON and label == sym:
                    nxt.update(closures[dst])
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
    language.
    """
    d = trim(determinize(fsa))
    if not d.accepting:
        return PathList((), False)
    limit = max(limit, 0)
    # Arcs of an input DFA (graph_to_fsa's, say) come in input order.
    arcs = [sorted(state_arcs, key=lambda arc: arc[0].id)
            for state_arcs in d.arcs]
    rev: list[list[int]] = [[] for _ in range(d.num_states)]
    for q, state_arcs in enumerate(d.arcs):
        for _, dst in state_arcs:
            rev[dst].append(q)
    live = [d.accepting]
    out: list[tuple[Symbol, ...]] = [()] if d.initial in d.accepting else []
    reach = {d.initial}
    n = 0
    while len(out) <= limit:
        reach = {dst for q in reach for _, dst in d.arcs[q]}
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
    """`fsa` with each non-epsilon arc label replaced by ``label_of(label)``."""
    arcs = tuple(
        tuple((label if label is EPSILON else label_of(label), dst)
              for label, dst in state_arcs)
        for state_arcs in fsa.arcs)
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
