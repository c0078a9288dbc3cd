"""
Path sets as automata
=====================

Forwarding behavior is a set of paths: sequences of locations a packet
visits.  This demo builds a few path sets as finite automata, combines
them with the usual language algebra, and lists members shortest first.
"""

from rela.automata import (
    SymbolTable, accepts, enumerate_shortest, fsa_concat,
    fsa_difference, fsa_equivalent, fsa_intersect, fsa_star, fsa_symbol,
    fsa_symbol_class, fsa_union, minimize,
)

# Every run works over one interned set of locations.  The table hands
# out symbols; its universe is the snapshot of everything interned so
# far plus the reserved "drop" endpoint.  A machine holds no universe of
# its own: its arcs alone fix its language, a state's default arc
# included.  A default arc reads every location the state lists no
# other arc for, and `table.others` is its label.
table = SymbolTable()
leaf1 = table.location("leaf1")
leaf2 = table.location("leaf2")
spine1 = table.location("spine1")
spine2 = table.location("spine2")
universe = table.universe()

print("universe:", sorted(s.name for s in universe))

# A single hop, and a class of interchangeable hops.
at_leaf1 = fsa_symbol(leaf1)
any_spine = fsa_symbol_class({spine1, spine2})

# leaf1 -> some spine -> leaf2, with the spine left free.
route = fsa_concat(at_leaf1, fsa_concat(any_spine, fsa_symbol(leaf2)))
print("routes via any spine:", enumerate_shortest(route, 10).render())

# Membership is just running the machine.
print("accepts leaf1 spine2 leaf2:",
      accepts(route, (leaf1, spine2, leaf2)))
print("accepts leaf1 leaf2:       ", accepts(route, (leaf1, leaf2)))

# The algebra: union, intersection, difference, star.
via_spine1 = fsa_concat(at_leaf1, fsa_concat(fsa_symbol(spine1),
                                             fsa_symbol(leaf2)))
rest = fsa_difference(route, via_spine1)
print("routes avoiding spine1:", enumerate_shortest(rest, 10).render())

# Equivalence is decided on languages, not machine shapes.
same = fsa_union(via_spine1, rest)
print("union of the split equals the original:", fsa_equivalent(same, route))

# Stars give unbounded path families; enumeration reports truncation
# honestly instead of looping forever.
pingpong = fsa_star(fsa_concat(fsa_symbol(spine1), fsa_symbol(spine2)))
listing = enumerate_shortest(pingpong, 4)
print("(spine1 spine2)* members:", listing.render(),
      "... truncated:", listing.truncated)

# Given the table's default label, a class holding more than half of
# the locations is one default arc plus the locations it leaves out,
# so `.*` (any path of locations) is one state and one arc however many
# locations the table holds.
dot = fsa_symbol_class([leaf1, leaf2, spine1, spine2], table.others)
dot_star = minimize(fsa_star(dot))
print("arcs in the minimal DFA of .*:",
      sum(len(arcs) for arcs in dot_star.arcs))

# "Everything but" is a difference too: take it from the star of the
# whole universe.  The walk follows only the left side's arcs.
anything = fsa_star(fsa_symbol_class(universe))
not_route = fsa_difference(anything, route)
print("anything but a route rejects a route:",
      not accepts(not_route, (leaf1, spine1, leaf2)))
print("anything but a route accepts a stray path:",
      accepts(not_route, (leaf2,)))
