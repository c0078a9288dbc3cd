"""Spec lowering tests: structure of the relations and their behavior."""

import json
import random

import pytest

from _fecgen import make_index as make_device_index
from _treegen import TreeGen, make_env, rebuild
from conformance_fixtures import CONFORMANCE, conformance_world, run_case
from rela import rir
from rela.automata import fsa_empty, fsa_equivalent
from rela.compiler import compile_program, compile_spec
from rela.frontend import (
    Granularity, LocationDb, parse_program,
)

from _text import parse_regex


@pytest.fixture
def index():
    return conformance_world()


def sym(index, name):
    return rir.SymSet(frozenset([index.symbol_of[name]]))


def symset(index, *names):
    return rir.SymSet(frozenset(index.symbol_of[n] for n in names))


# ---------------------------------------------------------------------------
# regex lowering: the parser builds the rir path sets the compiler uses


class TestLowerRegex:
    def test_single_location(self, index):
        assert parse_regex("a", index) == sym(index, "a")

    def test_location_set_lowers_to_one_class(self, index):
        assert parse_regex("b | a", index) == symset(index, "a", "b")

    def test_dot_excludes_drop(self, index):
        assert parse_regex(".", index) == symset(index, "a", "b", "c", "d")

    def test_star_concat(self, index):
        assert parse_regex("a b*", index) == \
            rir.Concat(sym(index, "a"), rir.Star(sym(index, "b")))

    def test_deterministic(self, index):
        text = "(a | b | c) d"
        assert parse_regex(text, index) == parse_regex(text, index)

    def test_optional_lowers_to_union_with_empty_path(self, index):
        assert parse_regex("a?", index) == \
            rir.Union(sym(index, "a"), rir.One())

    def test_plus_compiles_like_its_expansion(self, index):
        empty = fsa_empty()
        plus = compiled_for(index, "a+ : preserve").subspecs[0].zone
        spelled = compiled_for(index, "a a* : preserve").subspecs[0].zone
        ev = rir.Evaluator(empty, empty, index.table.others)
        assert fsa_equivalent(ev.pathset(plus), ev.pathset(spelled))


# ---------------------------------------------------------------------------
# relation structure per modifier


def compiled_for(index, spec_text):
    program = parse_program(f"spec s := {spec_text}", index)
    return compile_spec(program.default, index)


class TestModifierRelations:
    def test_preserve(self, index):
        c = compiled_for(index, "a : preserve")
        a = sym(index, "a")
        assert c.top.left.rel == rir.Identity(a)
        assert c.top.right.rel == rir.Identity(a)
        assert c.subspecs[0].zone == a

    def test_add(self, index):
        c = compiled_for(index, "a : add(b)")
        a, b = sym(index, "a"), sym(index, "b")
        zone = symset(index, "a", "b")
        assert c.top.left.rel == rir.Union(rir.Identity(zone),
                                           rir.Cross(a, b))
        assert c.top.right.rel == rir.Identity(zone)
        assert c.subspecs[0].zone == zone

    def test_remove(self, index):
        c = compiled_for(index, "a : remove(b)")
        a, b = sym(index, "a"), sym(index, "b")
        assert c.top.left.rel == rir.Identity(rir.Difference(a, b))
        assert c.top.right.rel == rir.Identity(a)
        assert c.subspecs[0].zone == a

    def test_replace(self, index):
        c = compiled_for(index, "a : replace(b, c)")
        a, b, cc = sym(index, "a"), sym(index, "b"), sym(index, "c")
        zone = symset(index, "a", "c")
        assert c.top.left.rel == rir.Union(
            rir.Identity(rir.Difference(zone, b)),
            rir.Cross(rir.Intersect(a, b), cc))
        assert c.top.right.rel == rir.Identity(zone)
        assert c.subspecs[0].zone == zone

    def test_drop(self, index):
        c = compiled_for(index, "a : drop")
        dropped = rir.SymSet(frozenset([index.table.drop]))
        zone = rir.SymSet(frozenset(
            [index.symbol_of["a"], index.table.drop]))
        assert c.top.left.rel == rir.Cross(zone, dropped)
        assert c.top.right.rel == rir.Identity(zone)

    def test_any(self, index):
        c = compiled_for(index, "a : any(b)")
        a, b = sym(index, "a"), sym(index, "b")
        assert len(c.markers) == 1
        binding = c.markers[0]
        assert binding.symbol.kind == "marker"
        assert binding.pathset == b
        mk = rir.SymSet(frozenset([binding.symbol]))
        zone = symset(index, "a", "b")
        assert c.top.left.rel == rir.Cross(zone, mk)
        assert c.top.right.rel == rir.Union(
            rir.Cross(b, mk),
            rir.Identity(rir.Difference(a, b)))

    def test_concat_collapses_identities(self, index):
        c = compiled_for(index, "{ a : preserve; b : preserve; }")
        a, b = sym(index, "a"), sym(index, "b")
        assert c.top.left.rel == rir.Identity(rir.Concat(a, b))
        assert c.subspecs[0].zone == rir.Concat(a, b)

    def test_top_equation(self, index):
        c = compiled_for(index, "a : preserve")
        a = sym(index, "a")
        assert c.top == rir.Equal(
            rir.Image(rir.PreState(), rir.Identity(a)),
            rir.Image(rir.PostState(), rir.Identity(a)))


class TestElseChains:
    def test_two_arm_subspecs(self, index):
        c = compiled_for(index, "a : preserve else b : drop")
        assert [s.label for s in c.subspecs] == ["#1", "#2"]
        first, second = c.subspecs
        a = sym(index, "a")
        drop_zone = rir.SymSet(frozenset(
            [index.symbol_of["b"], index.table.drop]))
        assert first.zone == a
        assert first.rpre == rir.Identity(a)
        # the second arm only sees its zone minus the first zone; the
        # mask composition folds into the cross's input side, which is
        # that zone, so the mask is all that is left of it
        assert second.rpre == rir.Cross(
            rir.Difference(drop_zone, a),
            rir.SymSet(frozenset([index.table.drop])))
        assert second.zone == rir.Difference(drop_zone, a)

    def test_whole_relation_is_arm_union(self, index):
        c = compiled_for(index, "a : preserve else b : drop")
        assert c.top.left.rel == rir.Union(c.subspecs[0].rpre,
                                           c.subspecs[1].rpre)
        # both arms' post relations are identities, so they merge
        a = sym(index, "a")
        masked = rir.Difference(
            rir.SymSet(frozenset([index.symbol_of["b"], index.table.drop])),
            a)
        assert c.top.right.rel == rir.Identity(rir.Union(a, masked))

    def test_preserve_chain_collapses_to_identity(self, index):
        c = compiled_for(
            index, "a : preserve else b : preserve else . : preserve")
        assert isinstance(c.top.left.rel, rir.Identity)
        assert isinstance(c.top.right.rel, rir.Identity)
        assert c.top.left.rel == c.top.right.rel

    def test_equal_relations_are_one_tree(self, index):
        # A check then looks a preserve chain's zone up once per FEC.
        c = compiled_for(
            index, "a : preserve else b : preserve else . : preserve")
        assert c.top.left.rel is c.top.right.rel
        c = compiled_for(index, "a : any(b) else . : preserve")
        assert c.top.left.rel is not c.top.right.rel

    def test_arm_labels_use_definition_names(self, index):
        text = """
        spec strict := a : preserve
        spec loose := . : preserve
        spec s := strict else loose
        """
        program = parse_program(text, index)
        c = compile_spec(program.default, index)
        assert [s.label for s in c.subspecs] == ["strict", "loose"]

    def test_named_chains_keep_the_labels_of_their_arms(self, index):
        # A chain ending in a named chain goes on with that chain's arms;
        # a named chain before the last arm is one arm, under its name.
        text = """
        spec p := b : preserve
        spec q := c : preserve
        spec inner := p else q
        spec outer := a : preserve else inner
        pspec g := (true) -> inner else d : preserve
        """
        program = parse_program(text, index)
        labels = [s.label for s in compile_spec(program.default,
                                                index).subspecs]
        assert labels == ["#1", "p", "q"]
        guarded = compile_spec(program.guarded[0].spec, index)
        assert [s.label for s in guarded.subspecs] == ["inner", "#2"]

    def test_nested_else_inside_concat_not_an_arm(self, index):
        c = compiled_for(index, "{ a : preserve; b : drop else c : drop; }")
        assert len(c.subspecs) == 1
        # the sole arm is the whole definition, so it carries its name
        assert c.subspecs[0].label == "s"

    def test_three_arm_masks_accumulate(self, index):
        c = compiled_for(
            index, "a : preserve else b : preserve else . : preserve")
        assert len(c.subspecs) == 3
        third = c.subspecs[2]
        assert third.zone.right == symset(index, "a", "b")

    def test_long_chain_masks_stay_shallow(self):
        # Each arm is masked by the union of the earlier zones; built
        # left-deep, that union made the trees as deep as the chain is
        # long (66 and 75 here), and a long enough chain overflowed the
        # recursion limit.  Balanced, they grow with log2 of the arms.
        rows = [{"name": f"{d}:eth0", "device": d, "group": "G"}
                for d in ["x1"] + [f"a{i}" for i in range(64)]]
        index = LocationDb.from_json(json.dumps(rows)).build_index(
            Granularity.DEVICE)
        arms = " else ".join(f"x1 a{i} : preserve" for i in range(64))
        c = compiled_for(index, arms)
        assert len(c.subspecs) == 64
        assert max(tree_depth(s.zone) for s in c.subspecs) <= 16
        assert tree_depth(c.top) <= 24

    def test_long_chain_builds_few_nodes_per_arm(self, monkeypatch):
        # Nodes are built in normal form, once each.  Normalizing the
        # lowered trees in a second pass, which rebuilt shared subtrees
        # once per reference, cost about 7,100 nodes per arm here.
        index = make_device_index(200)
        arms = " else ".join(f"{{ d{i:04d} .* : preserve; }}"
                             for i in range(200))
        program = parse_program(f"spec s := {arms}", index)
        built = []
        post_init = rir._Node.__post_init__

        def counted(node):
            built.append(type(node))
            post_init(node)

        monkeypatch.setattr(rir._Node, "__post_init__", counted)
        c = compile_spec(program.default, index)
        assert len(c.subspecs) == 200
        assert len(built) <= 40 * 200

    def test_dot_over_no_locations_is_empty(self):
        index = LocationDb.from_json("[]").build_index(Granularity.DEVICE)
        c = compiled_for(index, ".* : preserve")
        assert rir.pretty(c.top) == "(PreState ▷ 1) = (PostState ▷ 1)"


def tree_depth(node) -> int:
    deepest, stack = 0, [(node, 1)]
    while stack:
        n, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((child, d + 1) for child in vars(n).values()
                     if isinstance(child, rir._Node))
    return deepest


class TestMarkers:
    def test_fresh_marker_per_occurrence(self, index):
        c = compiled_for(index, "a : any(b) else c : any(b)")
        assert len(c.markers) == 2
        assert c.markers[0].symbol != c.markers[1].symbol
        assert c.markers[0].symbol.name == "#1"
        assert c.markers[1].symbol.name == "#2"

    def test_markers_outside_snapshot_universe(self, index):
        c = compiled_for(index, "a : any(b)")
        assert c.markers[0].symbol not in index.universe

    def test_program_collects_markers_per_spec(self, index):
        text = """
        spec inner := a : any(b)
        pspec g := (true) -> inner
        """
        program = parse_program(text, index)
        cp = compile_program(program, index)
        assert cp.default is None
        assert len(cp.guards) == 1
        assert len(cp.guards[0].spec.markers) == 1


# ---------------------------------------------------------------------------
# the normalizing constructors preserve semantics


def test_constructors_preserve_languages_randomized():
    rng = random.Random(77)
    for _ in range(150):
        table, symbols, env, _, env_ml = make_env(rng, n_locations=3)
        gen = TreeGen(rng, symbols, env_ml)
        p = gen.pathset(2)
        r = gen.rel(3)
        ev = rir.Evaluator(env.pre, env.post, table.others)
        plain = ev.pathset(rir.Image(p, r))
        slim = ev.pathset(rir.Image(rebuild(p), rebuild(r)))
        assert fsa_equivalent(plain, slim)


def test_compose_distributes_over_union():
    t = conformance_world()
    a, b = sym(t, "a"), sym(t, "b")
    mask = rir.Identity(rir.Difference(b, a))
    r = rir.Compose(mask, rir.Union(rir.Cross(a, b), rir.Identity(b)))
    got = rebuild(r)
    assert got == rir.Union(
        rir.Cross(rir.Intersect(rir.Difference(b, a), a), b),
        rir.Identity(rir.Difference(b, a)))


def test_difference_meets_its_own_left_operand_as_itself():
    # A masked preserve arm: I(x - u) . I(x) is I(x - u), but only when
    # the x is the same object; an equal copy still gets an Intersect.
    t = conformance_world()
    x, u = sym(t, "a"), sym(t, "b")
    masked = rir.Difference(x, u)
    assert rir.compose(rir.Identity(masked), rir.Identity(x)) == \
        rir.Identity(masked)
    assert rir.compose(rir.Identity(masked), rir.Cross(x, u)) == \
        rir.Cross(masked, u)
    copy = sym(t, "a")
    assert rir.compose(rir.Identity(masked), rir.Identity(copy)) == \
        rir.Identity(rir.Intersect(masked, copy))


# ---------------------------------------------------------------------------
# behavioral conformance


@pytest.mark.parametrize(
    "name,spec,pre,post,should_hold",
    CONFORMANCE, ids=[case[0] for case in CONFORMANCE])
def test_conformance(name, spec, pre, post, should_hold):
    assert run_case(spec, pre, post) is should_hold


def test_conformance_table_covers_every_modifier():
    specs = " ".join(case[1] for case in CONFORMANCE)
    for word in ("preserve", "add", "remove", "replace", "drop", "any",
                 "else"):
        assert word in specs