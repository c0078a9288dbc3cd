"""Random expression-tree generator for oracle agreement tests.

The brute-force oracle evaluates with every string length bounded, so it
is exact only on trees where short image outputs always have short
witnesses.  The generator enforces that with conservative length
bookkeeping: every relation node must either keep its left tape within
the observation bound or couple it to the right tape (each pair's input
no longer than its output).  Trees violating the rule are regenerated.

Everything is driven by an explicit `random.Random`, so a fixed seed
reproduces the exact same corpus.
"""

from __future__ import annotations

import random
from collections import deque
from typing import NamedTuple

from rela.automata import (_DEAD, Fsa, Others, Symbol, SymbolTable,
                           determinize, trim)
from rela import rir
from rela.rir import (
    Compose, Concat, Cross, Difference, Identity, Image, Intersect, One,
    PostState, PreState, Star, SymSet, Union, Zero,
)

from _oracle import OracleEnv

INF = float("inf")


# --- length analysis --------------------------------------------------------


def ps_maxlen(p, env_ml):
    """Upper bound on member lengths; INF when unbounded."""
    if isinstance(p, SymSet):
        return 1
    if isinstance(p, (Zero, One)):
        return 0
    if isinstance(p, PreState):
        return env_ml[0]
    if isinstance(p, PostState):
        return env_ml[1]
    if isinstance(p, Union):
        return max(ps_maxlen(p.left, env_ml), ps_maxlen(p.right, env_ml))
    if isinstance(p, Concat):
        return ps_maxlen(p.left, env_ml) + ps_maxlen(p.right, env_ml)
    if isinstance(p, Star):
        return 0 if ps_maxlen(p.inner, env_ml) == 0 else INF
    if isinstance(p, Intersect):
        return min(ps_maxlen(p.left, env_ml), ps_maxlen(p.right, env_ml))
    if isinstance(p, Difference):
        return ps_maxlen(p.left, env_ml)
    if isinstance(p, Image):
        return rel_tapes(p.rel, env_ml)[1]
    raise TypeError(p)


def ps_minlen(p, env_ml):
    """Lower bound on member lengths (0 is always sound)."""
    if isinstance(p, SymSet):
        return 1 if p.symbols else INF
    if isinstance(p, One):
        return 0
    if isinstance(p, Zero):
        return INF
    if isinstance(p, (PreState, PostState)):
        return 0
    if isinstance(p, Union):
        return min(ps_minlen(p.left, env_ml), ps_minlen(p.right, env_ml))
    if isinstance(p, Concat):
        return ps_minlen(p.left, env_ml) + ps_minlen(p.right, env_ml)
    if isinstance(p, Star):
        return 0
    if isinstance(p, Intersect):
        return max(ps_minlen(p.left, env_ml), ps_minlen(p.right, env_ml))
    if isinstance(p, Difference):
        return ps_minlen(p.left, env_ml)
    if isinstance(p, Image):
        return 0
    raise TypeError(p)


def rel_tapes(r, env_ml):
    """(left max length, right max length, slack) for a relation node.

    `slack` bounds len(input) - len(output) over all pairs; a relation is
    oracle-safe if its left tape is bounded or its slack is <= 0.
    """
    if isinstance(r, Cross):
        lm = ps_maxlen(r.left, env_ml)
        rm = ps_maxlen(r.right, env_ml)
        slack = lm - ps_minlen(r.right, env_ml)
        return lm, rm, slack
    if isinstance(r, Identity):
        m = ps_maxlen(r.source, env_ml)
        return m, m, 0
    if isinstance(r, (Zero, One)):
        return 0, 0, 0
    if isinstance(r, Union):
        l1, r1, s1 = rel_tapes(r.left, env_ml)
        l2, r2, s2 = rel_tapes(r.right, env_ml)
        return max(l1, l2), max(r1, r2), max(s1, s2)
    if isinstance(r, Concat):
        l1, r1, s1 = rel_tapes(r.left, env_ml)
        l2, r2, s2 = rel_tapes(r.right, env_ml)
        return l1 + l2, r1 + r2, s1 + s2
    if isinstance(r, Star):
        l, rm, s = rel_tapes(r.inner, env_ml)
        if l == 0 and rm == 0:
            return 0, 0, 0
        return (0 if l == 0 else INF), (0 if rm == 0 else INF), \
            (0 if s <= 0 else INF)
    if isinstance(r, Compose):
        l1, _, s1 = rel_tapes(r.left, env_ml)
        _, r2, s2 = rel_tapes(r.right, env_ml)
        return l1, r2, s1 + s2
    raise TypeError(r)


def rel_safe(r, env_ml, bound):
    """Structural check that the bounded oracle is exact for `r`."""
    stack = [r]
    while stack:
        node = stack.pop()
        left, _, slack = rel_tapes(node, env_ml)
        if not (left <= bound or slack <= 0):
            return False
        if isinstance(node, (Union, Concat, Compose)):
            stack.extend((node.left, node.right))
        elif isinstance(node, Star):
            stack.append(node.inner)
    return True


def tree_safe(p, env_ml, bound):
    if isinstance(p, (SymSet, Zero, One, PreState, PostState)):
        return True
    if isinstance(p, (Union, Concat, Intersect, Difference)):
        return tree_safe(p.left, env_ml, bound) and \
            tree_safe(p.right, env_ml, bound)
    if isinstance(p, Star):
        return tree_safe(p.inner, env_ml, bound)
    if isinstance(p, Image):
        return tree_safe(p.source, env_ml, bound) and \
            rel_safe(p.rel, env_ml, bound)
    raise TypeError(p)


# --- generation ---------------------------------------------------------------


class TreeGen:
    def __init__(self, rng: random.Random, symbols, env_ml, bound=6):
        self.rng = rng
        self.symbols = symbols
        self.env_ml = env_ml
        self.bound = bound

    def leaf(self):
        r = self.rng.random()
        if r < 0.35:
            return SymSet(frozenset([self.rng.choice(self.symbols)]))
        if r < 0.47:
            k = self.rng.randint(1, min(3, len(self.symbols)))
            return SymSet(frozenset(self.rng.sample(self.symbols, k)))
        if r < 0.61:
            return PreState()
        if r < 0.75:
            return PostState()
        if r < 0.90:
            return One()
        return Zero()

    def pathset(self, depth):
        if depth <= 0:
            return self.leaf()
        r = self.rng.random()
        if r < 0.18:
            return self.leaf()
        if r < 0.34:
            return Union(self.pathset(depth - 1), self.pathset(depth - 1))
        if r < 0.50:
            return Concat(self.pathset(depth - 1), self.pathset(depth - 1))
        if r < 0.62:
            return Star(self.pathset(depth - 1))
        if r < 0.74:
            return Intersect(self.pathset(depth - 1),
                             self.pathset(depth - 1))
        if r < 0.86:
            # One in three takes its paths from the star of the whole
            # universe, so complete machines over every symbol stay in.
            if self.rng.random() < 1 / 3:
                left = Star(SymSet(frozenset(self.symbols)))
            else:
                left = self.pathset(depth - 1)
            return Difference(left, self.pathset(depth - 1))
        return Image(self.pathset(depth - 1), self.rel(depth - 1))

    def rel(self, depth):
        if depth <= 0:
            return self.rng.choice([One(), Zero(),
                                    Identity(self.leaf()),
                                    Cross(self.leaf(), self.leaf())])
        r = self.rng.random()
        if r < 0.25:
            return Cross(self.pathset(depth - 1), self.pathset(depth - 1))
        if r < 0.45:
            return Identity(self.pathset(depth - 1))
        if r < 0.60:
            return Union(self.rel(depth - 1), self.rel(depth - 1))
        if r < 0.75:
            return Concat(self.rel(depth - 1), self.rel(depth - 1))
        if r < 0.85:
            return Star(self.rel(depth - 1))
        if r < 0.95:
            return Compose(self.rel(depth - 1), self.rel(depth - 1))
        return One()

    def tree(self, depth=4, tries=60):
        for _ in range(tries):
            candidate = self.pathset(depth)
            if tree_safe(candidate, self.env_ml, self.bound):
                return candidate
        # Overwhelmingly unlikely; fall back to a safe shape.
        return Union(PreState(), PostState())


_BUILD = {Union: rir.union, Concat: rir.concat, Cross: rir.cross,
          Compose: rir.compose, Intersect: Intersect,
          Difference: Difference}


def rebuild(e):
    """A raw tree rebuilt bottom-up through rir's normalizing constructors,
    as the parser and compiler build theirs.  `Image` is kept as is."""
    if isinstance(e, tuple(_BUILD)):
        return _BUILD[type(e)](rebuild(e.left), rebuild(e.right))
    if isinstance(e, Star):
        return rir.star(rebuild(e.inner))
    if isinstance(e, Identity):
        return rir.identity(rebuild(e.source))
    return e


def random_paths(rng, symbols, max_paths=4, max_len=4):
    out = set()
    for _ in range(rng.randrange(max_paths + 1)):
        n = rng.randrange(max_len + 1)
        out.add(tuple(rng.choice(symbols) for _ in range(n)))
    return frozenset(out)


def fsa_from_paths(paths) -> Fsa:
    """A straightforward acceptor for an explicit finite path set."""
    arcs: list[list] = [[]]
    accepting = set()
    for path in sorted(paths, key=lambda p: (len(p), [s.id for s in p])):
        state = 0
        for sym in path:
            arcs.append([])
            nxt = len(arcs) - 1
            arcs[state].append((sym, nxt))
            state = nxt
        accepting.add(state)
    return Fsa(len(arcs), 0, frozenset(accepting),
               tuple(tuple(a) for a in arcs))


def expand_defaults(fsa: Fsa) -> Fsa:
    """`fsa` with each default arc spelled out: one arc per location of
    its label's table that the state lists no arc for, in id order after
    the state's other arcs, and no arcs to `_DEAD`.  The twin carries no
    default, so an operation can be checked against it."""
    arcs = []
    for state_arcs in fsa.arcs:
        listed = {label for label, _ in state_arcs}
        out = [(label, dst) for label, dst in state_arcs
               if not isinstance(label, Others) and dst != _DEAD]
        for label, dst in state_arcs:
            if isinstance(label, Others):
                out += [(sym, dst) for sym in label.locations
                        if sym not in listed]
        arcs.append(tuple(out))
    return Fsa(fsa.num_states, fsa.initial, fsa.accepting, tuple(arcs),
               fsa.deterministic)


def is_empty(fsa: Fsa) -> bool:
    """True when the language is empty (no accepting state reachable)."""
    fsa = expand_defaults(fsa)
    seen = {fsa.initial}
    stack = [fsa.initial]
    while stack:
        q = stack.pop()
        if q in fsa.accepting:
            return False
        for _, dst in fsa.arcs[q]:
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return True


def bounded_language(fsa: Fsa, maxlen: int) -> frozenset:
    """All accepted strings of length <= maxlen, by BFS over the DFA."""
    d = expand_defaults(trim(determinize(fsa)))
    out = []
    work = deque([(d.initial, ())])
    while work:
        q, path = work.popleft()
        if q in d.accepting:
            out.append(path)
        if len(path) == maxlen:
            continue
        for label, dst in d.arcs[q]:
            work.append((dst, path + (label,)))
    return frozenset(out)


class Env(NamedTuple):
    """A snapshot pair's two acceptors, the universe they range over and
    its table's default label; an `Evaluator` takes the acceptors and the
    label, the oracle's complements the universe."""

    pre: Fsa
    post: Fsa
    universe: frozenset[Symbol]
    others: Others


def make_env(rng, n_locations=2):
    """Fresh table, snapshot sets and corresponding automata/oracle envs."""
    table = SymbolTable()
    names = [chr(ord("a") + i) for i in range(n_locations)]
    locs = [table.location(n) for n in names]
    symbols = locs + [table.drop]
    universe = table.universe()
    pre = random_paths(rng, symbols)
    post = random_paths(rng, symbols)
    env = Env(fsa_from_paths(pre), fsa_from_paths(post), universe,
              table.others)
    oenv = OracleEnv(pre, post, tuple(sorted(universe)))
    env_ml = (max((len(p) for p in pre), default=0),
              max((len(p) for p in post), default=0))
    return table, symbols, env, oenv, env_ml
