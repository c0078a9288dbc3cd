"""
The change-spec language
========================

Specs are written over a location database, not over raw interface
names: `where()` predicates select location classes from the inventory,
statements pair a path zone with a modifier, and `else` chains give a
first-match-wins list of claims.  This demo parses a spec and shows
what it compiles to.
"""

import json

from rela import Granularity, LocationDb, compile_program, parse_program
from rela.rir import pretty

# A small two-pod inventory.  Records carry name/device/group plus any
# extra attributes; predicates can filter on all of them.
rows = []
for pod in (1, 2):
    for kind in ("leaf", "spine"):
        for i in (1, 2):
            dev = f"{kind}{i}-pod{pod}"
            rows.append({"name": f"{dev}:eth0", "device": dev,
                         "group": f"pod{pod}", "role": kind})
db = LocationDb.from_json(json.dumps(rows))

# Granularity picks the alphabet: device-level names here; group-level
# coarsens every location to its group.
index = db.build_index(Granularity.DEVICE)
print("alphabet:", sorted(s.name for s in index.universe if s.name != "drop"))

# The change: pod1's spine1 is being drained.  Paths through it must
# move to spine2, everything else must stay put.
spec_text = """
regex drained := where(device == "spine1-pod1")
regex standby := where(device == "spine2-pod1")
regex pod1 := where(group == "pod1")

spec drain := pod1* : replace(drained, standby)
spec untouched := .* : preserve
spec change := drain else untouched
"""
program = parse_program(spec_text, index)
compiled = compile_program(program, index)

# Each spec compiles to one equation: the pre paths mapped through the
# intended rewrite must equal the post paths mapped through theirs.
top = compiled.default
print("\ncheck equation for 'change':")
print(" ", pretty(top.top))

# The else chain is kept as arms so violations can be blamed on the
# first claim that disagrees, with earlier zones masked out.
print("\narms:")
for sub in top.subspecs:
    print(f"  {sub.label}:")
    print("    zone:", pretty(sub.zone))
    print("    pre: ", pretty(sub.rpre))
    print("    post:", pretty(sub.rpost))

# Guarded programs dispatch on the traffic class before any paths are
# compared; unmatched traffic is reported as such rather than judged.
guarded = parse_program("""
regex pod2 := where(group == "pod2")
spec internal := pod2* : preserve
pspec g := (dstPrefix == 10.2.0.0/16) -> internal
""", index)
cg = compile_program(guarded, index)
print("\nguards:", [g.name for g in cg.guards],
      "default:", cg.default)
