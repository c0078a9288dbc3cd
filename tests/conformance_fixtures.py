"""Hand-derived behavioral fixtures for every modifier's lowering rules.

Each case is (name, spec text, pre paths, post paths, should hold).
Paths are space-separated location names; the world has locations
a, b, c, d plus the reserved drop symbol.  Expected outcomes were
worked out by hand from the relation definitions: the check holds iff
image(pre, rpre) equals image(post, rpost).
"""

import json

from rela.automata import fsa_equivalent
from rela.compiler import compile_spec
from rela.frontend import Granularity, LocationDb, parse_program
from rela.rir import Evaluator

CONFORMANCE = [
    # preserve: identity on the zone, both sides
    ("preserve-equal", "a b* : preserve",
     ["a", "a b"], ["a", "a b"], True),
    ("preserve-missing-path", "a b* : preserve",
     ["a", "a b"], ["a"], False),
    ("preserve-new-path", "a b* : preserve",
     ["a"], ["a", "a b"], False),
    ("preserve-ignores-outside-zone", "a b* : preserve",
     ["a", "c"], ["a", "d"], True),

    # add: pre maps to itself plus the new paths; post is identity
    ("add-performed", "a : add(b)",
     ["a"], ["a", "b"], True),
    ("add-not-performed", "a : add(b)",
     ["a"], ["a"], False),
    ("add-vacuous-outside-zone", "a : add(b)",
     ["c"], ["c"], True),
    ("add-keeps-existing", "a : add(b)",
     ["a", "b"], ["a", "b"], True),
    ("add-lost-original", "a : add(b)",
     ["a"], ["b"], False),

    # remove: pre keeps only what must survive; post is identity on the zone
    ("remove-performed", "a b* : remove(a b)",
     ["a", "a b"], ["a"], True),
    ("remove-not-performed", "a b* : remove(a b)",
     ["a", "a b"], ["a", "a b"], False),
    ("remove-vacuous", "a b* : remove(a b)",
     ["a"], ["a"], True),
    ("remove-too-much", "a b* : remove(a b)",
     ["a", "a b"], [], False),

    # replace: old family maps onto the new one, the rest stays
    ("replace-performed", "a b* : replace(a b, c)",
     ["a", "a b"], ["a", "c"], True),
    ("replace-not-performed", "a b* : replace(a b, c)",
     ["a", "a b"], ["a", "a b"], False),
    ("replace-only-removed", "a b* : replace(a b, c)",
     ["a", "a b"], ["a"], False),
    ("replace-vacuous", "a b* : replace(a b, c)",
     ["a"], ["a"], True),
    ("replace-spurious-new", "a b* : replace(a b, c)",
     ["a"], ["a", "c"], False),

    # drop: every zone path maps to the drop path
    ("drop-performed", "a : drop",
     ["a"], ["drop"], True),
    ("drop-not-performed", "a : drop",
     ["a"], ["a"], False),
    ("drop-vacuous", "a : drop",
     ["c"], ["c"], True),
    ("drop-spurious", "a : drop",
     [], ["drop"], False),

    # any: post must sit inside the family, nonempty, nothing else in zone
    ("any-member-chosen", "a : any(b | c)",
     ["a"], ["b"], True),
    ("any-other-member", "a : any(b | c)",
     ["a"], ["b", "c"], True),
    ("any-empty-choice", "a : any(b | c)",
     ["a"], [], False),
    ("any-stale-zone-path", "a : any(b | c)",
     ["a"], ["a", "b"], False),
    ("any-vacuous", "a : any(b | c)",
     ["d"], ["d"], True),

    # concatenation: statements split the path, changes compose
    ("concat-add-tail", "{ a : preserve; b : add(c); }",
     ["a b"], ["a b", "a c"], True),
    ("concat-add-missing", "{ a : preserve; b : add(c); }",
     ["a b"], ["a b"], False),
    ("concat-wrong-head", "{ a : preserve; b : add(c); }",
     ["a b"], ["a b", "d c"], False),

    # else: first matching arm claims the path
    ("else-both-arms", "a : preserve else . : drop",
     ["a", "b"], ["a", "drop"], True),
    ("else-spurious-drop", "a : preserve else . : drop",
     ["a"], ["a", "drop"], False),
    ("else-first-arm-wins", "a : drop else . : preserve",
     ["a"], ["a"], False),
    ("else-fallback-arm", "a : drop else . : preserve",
     ["b"], ["b"], True),

    # else inside a block: the chain splits the second hop, each arm
    # masked by the zones of the arms before it
    ("else-in-block-dropped", "{ a : preserve; b : drop else . : preserve; }",
     ["a b"], ["a drop"], True),
    ("else-in-block-not-dropped",
     "{ a : preserve; b : drop else . : preserve; }",
     ["a b"], ["a b"], False),
    # b is claimed by the drop arm, so the add arm, whose zone also holds
    # b, must not add a d after it
    ("else-in-block-3-masked", "{ a : preserve; b : drop else b | c : "
     "add(d) else . : preserve; }",
     ["a b"], ["a drop"], True),
    ("else-in-block-3-added", "{ a : preserve; b : drop else b | c : "
     "add(d) else . : preserve; }",
     ["a c"], ["a c", "a d"], True),
    ("else-in-block-3-add-missing", "{ a : preserve; b : drop else b | c : "
     "add(d) else . : preserve; }",
     ["a c"], ["a c"], False),
]


def conformance_world():
    rows = [{"name": n, "device": n, "group": n} for n in "abcd"]
    db = LocationDb.from_json(json.dumps(rows))
    return db.build_index(Granularity.DEVICE)


def paths_from_text(index, texts):
    out = []
    for text in texts:
        out.append(tuple(index.symbol_of[name] for name in text.split()))
    return out


def run_case(spec_text, pre_texts, post_texts):
    """Compile and check one fixture; returns the verdict's truth value."""
    from _treegen import fsa_from_paths

    index = conformance_world()
    program = parse_program(f"spec s := {spec_text}", index)
    compiled = compile_spec(program.default, index)
    ev = Evaluator(fsa_from_paths(paths_from_text(index, pre_texts)),
                   fsa_from_paths(paths_from_text(index, post_texts)),
                   index.table.others)
    return fsa_equivalent(ev.pathset(compiled.top.left),
                          ev.pathset(compiled.top.right))