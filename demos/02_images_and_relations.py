"""
Relations between old and new paths
===================================

A change intent is a relation: which new path(s) may stand where each
old path stood.  This demo builds small relations, takes images of path
sets under them, and shows how "unchanged", "rerouted", and checked
equations all become the same kind of object.
"""

from rela import rir
from rela.automata import (Fsa, SymbolTable, enumerate_shortest,
                           fsa_difference, fsa_equivalent)
from rela.rir import (
    Compose, Concat, Cross, Identity, Image, PostState, PreState, Star,
    SymSet, Union,
)

table = SymbolTable()
a, b, c, d = (table.location(n) for n in "abcd")


def locs(*symbols):
    """The one-hop paths through any of `symbols`: a single leaf."""
    return SymSet(frozenset(symbols))


def paths_fsa(paths):
    """A trie acceptor for an explicit set of paths."""
    arcs = [[]]
    accepting = set()
    for path in paths:
        state = 0
        for sym in path:
            arcs.append([])
            arcs[state].append((sym, len(arcs) - 1))
            state = len(arcs) - 1
        accepting.add(state)
    return Fsa(len(arcs), 0, frozenset(accepting),
               tuple(tuple(x) for x in arcs))


# Two snapshots of one traffic class: before, traffic crossed b; after,
# it crosses c.
ev = rir.Evaluator(paths_fsa([(a, b, d)]), paths_fsa([(a, c, d)]),
                   table.others)


def show(label, expr):
    machine = ev.pathset(expr)
    print(label.ljust(42), enumerate_shortest(machine, 8).render())


# The identity relation on a zone keeps matching paths as they are; its
# image is just the intersection with the zone.
no_c = Star(locs(a, b, d))
show("image of pre under I(paths avoiding c):", Image(PreState(), Identity(no_c)))
show("image of post under the same identity:", Image(PostState(), Identity(no_c)))

# A cross relation maps every old path in its domain to every path in
# its range: "whatever matched before is now this family".
reroute = Cross(no_c, locs(c, d))
show("image of pre under the reroute cross:", Image(PreState(), reroute))

# Relations compose; composing with an identity restricts the domain.
masked = Compose(Identity(Star(locs(a, b, c, d))), reroute)
show("the same cross behind a full mask:", Image(PreState(), masked))

# Union covers alternatives: paths may stay put or take the reroute.
either = Union(Identity(no_c), reroute)
show("union relation (keep or reroute):", Image(PreState(), either))

# The check itself is one equation between two images.  This spec says
# "the b hop becomes c": the pre snapshot is mapped through the intended
# rewrite, the post snapshot only has to match it.
intended = Cross(no_c, Concat(locs(a), Concat(locs(c), locs(d))))
after = Star(locs(a, c, d))
equation = rir.Equal(Image(PreState(), intended),
                     Image(PostState(), Identity(after)))


def holds(eq):
    return fsa_equivalent(ev.pathset(eq.left), ev.pathset(eq.right))


print("reroute equation holds:", holds(equation))

# When an equation fails, its two directed differences are automata
# too, so violations can be listed exactly.
naive = rir.Equal(Image(PreState(), Identity(no_c)),
                  Image(PostState(), Identity(no_c)))
print("naive 'nothing changed' equation holds:", holds(naive))
left, right = ev.pathset(naive.left), ev.pathset(naive.right)
print("  only on the left: ",
      enumerate_shortest(fsa_difference(left, right), 5).render())
print("  only on the right:",
      enumerate_shortest(fsa_difference(right, left), 5).render())
