"""Location database, tokenizer, parser and predicate tests."""

import ipaddress
import json
from dataclasses import dataclass
from typing import Optional

import pytest

from rela import rir
from rela.frontend import (
    Add, AnyOf, AtomicSpec, DropTraffic, ElseSpec, Granularity,
    LocationDb, LocationDbError, Preserve, PredAtom, PredTrue, Remove,
    Replace, SpecResolveError, SpecSyntaxError, match_predicate,
    parse_program, tokenize,
)

from _text import parse_regex, program_to_text, regex_to_text, spec_to_text


def make_db():
    rows = []
    plan = [
        ("x1", "X"), ("a1", "A"), ("a2", "A"), ("a3", "A"),
        ("b1", "B"), ("b2", "B"), ("b3", "B"),
        ("d1", "D"), ("y1", "D"),
    ]
    for device, region in plan:
        for port in ("eth0", "eth1"):
            rows.append({
                "name": f"{device}:{port}",
                "device": device,
                "group": region,
                "vendor": "acme" if region in ("A", "B") else "blue",
            })
    return LocationDb.from_json(json.dumps(rows))


@pytest.fixture
def db():
    return make_db()


@pytest.fixture
def index(db):
    return db.build_index(Granularity.DEVICE)


def sym(index, name):
    s = index.symbol_of[name]
    assert s is not None
    return s


def loc(index, *names):
    """The path set of one-location paths over `names`."""
    return rir.SymSet(frozenset(sym(index, n) for n in names))


# ---------------------------------------------------------------------------
# location database


class TestLocationDb:
    def test_loads_records_with_extra_attributes(self, db):
        assert len(db.records) == 18
        assert db.records[0]["name"] == "x1:eth0"
        assert db.records[0].get("vendor") == "blue"
        assert db.records[2].get("vendor") == "acme"
        assert "vendor" in db.attributes

    def test_duplicate_names_rejected(self):
        rows = [{"name": "p", "device": "d", "group": "g"}] * 2
        with pytest.raises(LocationDbError, match="duplicate"):
            LocationDb.from_json(json.dumps(rows))

    def test_missing_field_rejected(self):
        with pytest.raises(LocationDbError, match="group"):
            LocationDb.from_json('[{"name": "p", "device": "d"}]')

    def test_non_array_rejected(self):
        with pytest.raises(LocationDbError, match="array"):
            LocationDb.from_json('{"name": "p"}')

    def test_invalid_json_rejected(self):
        with pytest.raises(LocationDbError, match="JSON"):
            LocationDb.from_json("[")

    @pytest.mark.parametrize("data", [
        b'[{"name": "p\xff", "device": "d", "group": "g"}]',  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # past the decoder's nesting limit
        # an integer past the int-to-str digit limit
        b'[{"name": "p", "device": "d", "group": "g", "n": '
        + b"1" * 5000 + b"}]",
    ])
    def test_undecodable_file_rejected(self, tmp_path, data):
        path = tmp_path / "locations.json"
        path.write_bytes(data)
        with pytest.raises(LocationDbError, match="JSON"):
            LocationDb.load(str(path))

    def test_drop_is_a_reserved_name(self):
        rows = [{"name": "drop", "device": "drop", "group": "g"}]
        with pytest.raises(LocationDbError, match="reserved"):
            LocationDb.from_json(json.dumps(rows)).build_index(
                Granularity.DEVICE)

    def test_interface_named_like_another_device_is_rejected(self):
        # At device granularity `x1` would be device x1 to the spec but
        # interface x1 of device a1 to a forwarding graph.
        rows = [{"name": "x1", "device": "a1", "group": "g"},
                {"name": "x1:eth0", "device": "x1", "group": "g"}]
        db = LocationDb.from_json(json.dumps(rows))
        with pytest.raises(LocationDbError, match="two locations"):
            db.build_index(Granularity.DEVICE)
        db.build_index(Granularity.INTERFACE)


class TestLocationIndex:
    def test_device_granularity_merges_interfaces(self, index):
        assert index.lookup("x1:eth0") is index.symbol_of["x1"]
        assert index.lookup("x1:eth1") is index.symbol_of["x1"]
        # 9 devices plus drop
        assert len(index.universe) == 10

    def test_symbol_ids_follow_sorted_names(self, index):
        names = sorted(n for n in index.symbol_of if n != "drop")
        ids = [index.symbol_of[n].id for n in names]
        assert ids == sorted(ids)
        assert index.symbol_of["drop"].id == 0

    def test_same_db_same_ids_across_builds(self, db):
        a = db.build_index(Granularity.GROUP)
        b = db.build_index(Granularity.GROUP)
        assert {n: s.id for n, s in a.symbol_of.items()} == \
            {n: s.id for n, s in b.symbol_of.items()}

    def test_lookup_accepts_interface_names_at_device_granularity(self, index):
        assert index.lookup("a1:eth0") is index.symbol_of["a1"]
        assert index.lookup("a1") is index.symbol_of["a1"]
        assert index.lookup("nope") is None

    def test_group_granularity(self, db):
        gi = db.build_index(Granularity.GROUP)
        # X, A, B, D plus drop
        assert len(gi.universe) == 5
        assert gi.lookup("b2:eth1") is gi.symbol_of["B"]


# ---------------------------------------------------------------------------
# tokenizer


class TestTokenizer:
    def kinds(self, text):
        return [t.kind for t in tokenize(text)]

    def test_definition_line(self):
        toks = tokenize('regex a := where(group=="A")')
        assert [(t.kind, t.value) for t in toks] == [
            ("KEYWORD", "regex"), ("NAME", "a"), (":=", ":="),
            ("KEYWORD", "where"), ("(", "("), ("NAME", "group"),
            ("==", "=="), ("STRING", "A"), (")", ")"), ("EOF", "")]

    def test_colon_vs_define(self):
        assert self.kinds("a := b : c")[:5] == \
            ["NAME", ":=", "NAME", ":", "NAME"]

    def test_comments_and_positions(self):
        toks = tokenize("a // rest is ignored\n  b")
        assert [(t.value, t.line, t.col) for t in toks] == [
            ("a", 1, 1), ("b", 2, 3), ("", 2, 4)]

    def test_star_dot_pipe(self):
        assert self.kinds(". * | ( )")[:5] == [".", "*", "|", "(", ")"]

    def test_cidr_v4(self):
        toks = tokenize("dstPrefix == 10.0.0.0/8")
        assert [(t.kind, t.value) for t in toks[:3]] == [
            ("NAME", "dstPrefix"), ("==", "=="), ("CIDR", "10.0.0.0/8")]

    def test_cidr_v6(self):
        toks = tokenize("2001:db8::/32 ::1 ::/0")
        assert [t.kind for t in toks[:3]] == ["CIDR"] * 3

    def test_plain_address_is_cidr_token(self):
        assert tokenize("10.1.2.3")[0].kind == "CIDR"

    def test_hexlike_names_stay_names(self):
        toks = tokenize("d1 : add(a)")
        assert [t.kind for t in toks[:3]] == ["NAME", ":", "KEYWORD"]

    def test_unexpected_character(self):
        with pytest.raises(SpecSyntaxError) as err:
            tokenize("a $ b")
        assert err.value.line == 1 and err.value.col == 3

    def test_arrow_and_braces(self):
        assert self.kinds("-> { } ; ,")[:5] == ["->", "{", "}", ";", ","]

    def test_postfix_operators(self):
        assert self.kinds("a* b+ c?")[:6] == ["NAME", "*", "NAME", "+",
                                              "NAME", "?"]


# ---------------------------------------------------------------------------
# regex parsing and where(): regexes parse straight to rir path sets


class TestRegexParsing:
    def test_single_location(self, index):
        assert parse_regex("a1", index) == loc(index, "a1")

    def test_quoted_interface_resolves_to_device(self, index):
        assert parse_regex('"a1:eth0"', index) == loc(index, "a1")

    def test_dot_and_star(self, index):
        # `.` is every location of the index, never drop
        devices = ("x1", "a1", "a2", "a3", "b1", "b2", "b3", "d1", "y1")
        assert parse_regex(".*", index) == rir.Star(loc(index, *devices))

    def test_drop_keyword(self, index):
        assert parse_regex("drop", index) == \
            rir.SymSet(frozenset([index.table.drop]))

    def test_precedence_union_lowest(self, index):
        a, b, d = (loc(index, n) for n in ("a1", "b1", "d1"))
        assert parse_regex("a1 b1 | d1", index) == \
            rir.Union(rir.Concat(a, b), d)
        assert parse_regex("a1 (b1 | d1)", index) == \
            rir.Concat(a, loc(index, "b1", "d1"))
        assert parse_regex("a1 b1*", index) == rir.Concat(a, rir.Star(b))

    def test_location_unions_collapse(self, index):
        assert parse_regex("a1 | a2 | a3", index) == \
            parse_regex('where(group=="A")', index)

    def test_double_star(self, index):
        a = loc(index, "a1")
        assert parse_regex("a1**", index) == rir.Star(a)

    def test_plus_and_optional_bind_like_star(self, index):
        # `x+` is `x x*` and `x?` is `x | ()`, spliced into the chain
        a, b = loc(index, "a1"), loc(index, "b1")
        ab = rir.Concat(a, b)
        assert parse_regex("a1 b1+", index) == \
            rir.Concat(ab, rir.Star(b))
        assert parse_regex("a1 b1?", index) == \
            rir.Concat(a, rir.Union(b, rir.One()))
        assert parse_regex("(a1 b1)+", index) == \
            rir.Concat(ab, rir.Star(ab))
        assert parse_regex("a1 | b1?", index) == \
            rir.Union(loc(index, "a1", "b1"), rir.One())
        assert parse_regex("a1*+?", index) == rir.Star(a)

    def test_postfix_run_is_one_operator(self, index):
        # (x+)+ = x+, (x?)? = x?, and (x+)? = (x?)+ = x*
        a, d = loc(index, "a1"), loc(index, "d1")
        # compared outside the assert: a failure would print both trees,
        # and nesting each `+` around the last makes that exponential
        same = parse_regex("x1" + "+" * 40, index) == parse_regex("x1+", index)
        assert same
        assert parse_regex("a1+?", index) == rir.Star(a)
        assert parse_regex("a1?+", index) == rir.Star(a)
        assert parse_regex("d1??", index) == parse_regex("d1?", index)
        assert parse_regex("d1?", index) == rir.Union(d, rir.One())

    def test_groups_and_definitions_splice_into_chains(self, index):
        a, b, d, x = (loc(index, n) for n in ("a1", "b1", "d1", "x1"))
        flat = rir.Concat(rir.Concat(a, b), rir.Concat(d, x))
        assert parse_regex("a1 (b1 d1) x1", index) == flat
        assert parse_regex("((a1 b1) d1) x1", index) == flat
        p = parse_program("regex r := b1 d1\nspec s := a1 r x1 : preserve",
                          index)
        assert p.default.zone == flat

    def test_long_chains_fold_balanced(self, index):
        def depth(p):
            if isinstance(p, (rir.Union, rir.Concat)):
                return 1 + max(depth(p.left), depth(p.right))
            return 0

        assert depth(parse_regex(" ".join(["a1"] * 1024), index)) == 10
        wide = " | ".join(["a1 b1"] * 1024)
        assert depth(parse_regex(wide, index)) == 11

    def test_where_by_group(self, index):
        r = parse_regex('where(group == "A")', index)
        assert r == loc(index, "a1", "a2", "a3")

    def test_where_and_or(self, index):
        r = parse_regex('where(group=="A" or group=="D")', index)
        assert len(r.symbols) == 5
        r2 = parse_regex('where(group=="A" and device=="a2")', index)
        assert r2 == loc(index, "a2")

    def test_where_extra_attribute(self, index):
        r = parse_regex('where(vendor=="blue")', index)
        assert r == loc(index, "x1", "d1", "y1")

    def test_where_negation(self, index):
        r = parse_regex('where(vendor!="blue")', index)
        assert len(r.symbols) == 6

    def test_where_unknown_attribute(self, index):
        with pytest.raises(SpecResolveError, match="unknown attribute"):
            parse_regex('where(color=="red")', index)

    def test_where_empty_result(self, index):
        with pytest.raises(SpecResolveError, match="matches no locations"):
            parse_regex('where(group=="Z")', index)

    def test_undefined_name(self, index):
        with pytest.raises(SpecResolveError, match="undefined name 'q9'"):
            parse_regex("q9", index)

    def test_trailing_input(self, index):
        with pytest.raises(SpecSyntaxError, match="trailing"):
            parse_regex("a1 )", index)


class TestResolveWhere:
    def test_missing_attr_on_some_records(self):
        # != only matches records that carry the attribute
        rows = [{"name": "p:eth0", "device": "p", "group": "G",
                 "vendor": "acme"},
                {"name": "q:eth0", "device": "q", "group": "G",
                 "vendor": "blue"},
                {"name": "r:eth0", "device": "r", "group": "G"}]
        index = LocationDb.from_json(json.dumps(rows)).build_index(
            Granularity.DEVICE)
        out = parse_regex('where(vendor != "acme")', index)
        assert out == loc(index, "q")

    def test_and_or_combine_per_record_before_coarsening(self):
        # Device d has one acme port and one blue one: no single record
        # is both, so `and` matches nothing, though the device holds both.
        rows = [{"name": "d:eth0", "device": "d", "group": "G",
                 "vendor": "acme"},
                {"name": "d:eth1", "device": "d", "group": "G",
                 "vendor": "blue"}]
        index = LocationDb.from_json(json.dumps(rows)).build_index(
            Granularity.DEVICE)
        with pytest.raises(SpecResolveError, match="matches no locations"):
            parse_regex('where(vendor == "acme" and vendor == "blue")',
                        index)
        out = parse_regex('where(vendor == "acme" or vendor == "blue")',
                          index)
        assert out == loc(index, "d")

    def test_unknown_attribute_has_its_position(self, index):
        text = 'spec main := { where(group == "A" or color == "x") .* ' \
            ': preserve; }'
        with pytest.raises(SpecResolveError,
                           match="unknown attribute 'color'") as info:
            parse_program(text, index)
        assert (info.value.line, info.value.col) == \
            (1, text.index("color") + 1)


# ---------------------------------------------------------------------------
# spec parsing


class TestSpecParsing:
    def test_atomic(self, index):
        p = parse_program("spec s := a1 : preserve", index)
        assert p.default == AtomicSpec(loc(index, "a1"), Preserve())
        assert p.default.name == "s"
        assert p.guarded == ()

    def test_modifiers(self, index):
        text = """
        spec s := {
            a1 : add(a2);
            a2 : remove(a3);
            a3 : replace(a1, a2 a3);
            b1 : drop;
            b2 : any(b3*);
        }
        """
        p = parse_program(text, index)
        mods = [part.modifier for part in p.default.parts]
        assert len(mods) == 5
        assert isinstance(mods[0], Add)
        assert isinstance(mods[1], Remove)
        assert isinstance(mods[2], Replace)
        assert isinstance(mods[3], DropTraffic)
        assert isinstance(mods[4], AnyOf)

    def test_block_trailing_semicolon_optional(self, index):
        a = parse_program("spec s := { a1 : preserve; a2 : drop }", index)
        b = parse_program("spec s := { a1 : preserve; a2 : drop; }", index)
        assert a.default == b.default

    def test_else_is_right_associative(self, index):
        # a else b else c is a else (b else c): one flat list of arms in
        # falling priority
        p = parse_program(
            "spec s := a1 : preserve else a2 : preserve else a3 : preserve",
            index)
        assert isinstance(p.default, ElseSpec)
        assert [arm.zone for arm in p.default.arms] == \
            [loc(index, n) for n in ("a1", "a2", "a3")]

    def test_trailing_named_chain_continues_the_chain(self, index):
        text = """
        spec inner := b1 : preserve else d1 : preserve
        spec outer := x1 : preserve else inner
        """
        p = parse_program(text, index)
        assert [arm.zone for arm in p.default.arms] == \
            [loc(index, n) for n in ("x1", "b1", "d1")]

    def test_named_chain_before_the_last_arm_stays_one_arm(self, index):
        text = """
        spec inner := b1 : preserve else d1 : preserve
        spec outer := x1 : preserve else inner else a1 : preserve
        """
        arms = parse_program(text, index).default.arms
        assert len(arms) == 3
        assert arms[1].name == "inner" and len(arms[1].arms) == 2

    def test_inlining_attaches_names(self, index):
        text = """
        spec inner := a1 : preserve
        spec outer := inner else a2 : drop
        """
        p = parse_program(text, index)
        assert p.default.name == "outer"
        assert p.default.arms[0].name == "inner"
        # names are presentation only
        assert p.default.arms[0] == AtomicSpec(loc(index, "a1"), Preserve())

    def test_regex_definitions_inline(self, index):
        text = """
        regex a := where(group == "A")
        spec s := a a* : preserve
        """
        p = parse_program(text, index)
        zone = p.default.zone
        a = loc(index, "a1", "a2", "a3")
        assert zone == rir.Concat(a, rir.Star(a))

    def test_forward_reference_rejected(self, index):
        text = """
        spec outer := inner else a2 : drop
        spec inner := a1 : preserve
        """
        with pytest.raises((SpecSyntaxError, SpecResolveError)):
            parse_program(text, index)

    def test_duplicate_definition_rejected(self, index):
        text = "regex a := a1\nspec a := a1 : preserve"
        with pytest.raises(SpecSyntaxError, match="duplicate"):
            parse_program(text, index)

    def test_spec_name_inside_regex_rejected(self, index):
        text = """
        spec inner := a1 : preserve
        spec outer := a1 inner : preserve
        """
        with pytest.raises(SpecSyntaxError, match="names a spec"):
            parse_program(text, index)

    def test_ambiguous_entry_point(self, index):
        text = "spec s1 := a1 : preserve\nspec s2 := a2 : preserve"
        with pytest.raises(SpecSyntaxError, match="ambiguous entry point"):
            parse_program(text, index)

    def test_no_spec_at_all(self, index):
        with pytest.raises(SpecSyntaxError, match="no checkable spec"):
            parse_program("regex a := a1", index)

    def test_comments_anywhere(self, index):
        text = """
        // change plan 7
        spec s := { // zone one
            a1 : preserve; // keep
        }
        """
        assert parse_program(text, index).default is not None

    def test_worked_change_program(self, index):
        text = """
        regex a1r := where(device == "a1")
        regex ar  := where(group == "A")
        regex dr  := where(group == "D")
        spec pathShift := { a1r .* d1 : any(a1r a2 a3 d1); }
        spec e2e := { ar* : preserve; pathShift; dr* : preserve; }
        spec nochange := { .* : preserve; }
        spec change := e2e else nochange
        """
        p = parse_program(text, index)
        assert isinstance(p.default, ElseSpec)
        assert p.default.name == "change"
        e2e, nochange = p.default.arms
        assert e2e.name == "e2e"
        assert nochange.name == "nochange"
        shift = e2e.parts[1]
        assert shift.name == "pathShift"
        assert isinstance(shift.modifier, AnyOf)


class TestGuards:
    def test_guard_order_and_default(self, index):
        text = """
        spec lo := a1 : preserve
        spec hi := a2 : preserve
        spec rest := .* : preserve
        pspec g1 := (dstPrefix == 10.0.0.0/8) -> lo
        pspec g2 := (dstPrefix == 10.1.0.0/16) -> hi
        """
        p = parse_program(text, index)
        assert [g.name for g in p.guarded] == ["g1", "g2"]
        assert p.guarded[0].spec.name == "lo"
        assert p.default.name == "rest"

    def test_guard_only_program_has_no_default(self, index):
        text = """
        spec dealloc := .* : drop
        pspec g := (dstPrefix == 10.0.0.0/24) -> dealloc
        """
        p = parse_program(text, index)
        assert p.default is None
        assert len(p.guarded) == 1

    def test_inline_guard_spec(self, index):
        text = "pspec g := (true) -> { .* : preserve; }"
        p = parse_program(text, index)
        assert isinstance(p.guarded[0].predicate, PredTrue)

    def test_predicate_forms(self, index):
        text = ("pspec g := (dstPrefix in {10.0.0.0/8, 192.168.0.0/16} "
                "and not srcPrefix == 172.16.0.0/12) -> { .* : preserve; }")
        p = parse_program(text, index)
        pred = p.guarded[0].predicate
        assert match_predicate(pred, Traffic("10.2.3.4", "8.8.8.8"))
        assert not match_predicate(pred, Traffic("11.0.0.1", "8.8.8.8"))
        assert not match_predicate(pred, Traffic("10.2.3.4", "172.16.9.9"))

    def test_duplicate_pspec_name_rejected(self, index):
        text = """
        pspec g := (true) -> { .* : preserve; }
        pspec g := (true) -> { .* : drop; }
        """
        with pytest.raises(SpecSyntaxError, match="duplicate"):
            parse_program(text, index)


@dataclass
class Traffic:
    dst_raw: str
    src_raw: Optional[str] = None

    @property
    def dst(self):
        return ipaddress.ip_network(self.dst_raw, strict=False)

    @property
    def src(self):
        if self.src_raw is None:
            return None
        return ipaddress.ip_network(self.src_raw, strict=False)


class TestPredicates:
    def test_eq_is_containment(self):
        pred = PredAtom("dstPrefix", "==",
                        (ipaddress.ip_network("10.0.0.0/8"),))
        assert match_predicate(pred, Traffic("10.1.0.0/16"))
        assert match_predicate(pred, Traffic("10.1.2.3"))
        assert not match_predicate(pred, Traffic("11.0.0.0/8"))
        # a supernet is not contained
        assert not match_predicate(pred, Traffic("0.0.0.0/0"))

    def test_neq(self):
        pred = PredAtom("dstPrefix", "!=",
                        (ipaddress.ip_network("10.0.0.0/8"),))
        assert not match_predicate(pred, Traffic("10.1.0.0/16"))
        assert match_predicate(pred, Traffic("11.0.0.0/8"))

    def test_in_set(self):
        pred = PredAtom("dstPrefix", "in",
                        (ipaddress.ip_network("10.0.0.0/8"),
                         ipaddress.ip_network("192.168.0.0/16")))
        assert match_predicate(pred, Traffic("192.168.4.0/24"))
        assert not match_predicate(pred, Traffic("172.16.0.0/12"))

    def test_mixed_families_never_match(self):
        pred = PredAtom("dstPrefix", "==",
                        (ipaddress.ip_network("10.0.0.0/8"),))
        assert not match_predicate(pred, Traffic("2001:db8::/32"))

    def test_missing_src(self):
        eq = PredAtom("srcPrefix", "==",
                      (ipaddress.ip_network("10.0.0.0/8"),))
        neq = PredAtom("srcPrefix", "!=",
                       (ipaddress.ip_network("10.0.0.0/8"),))
        assert not match_predicate(eq, Traffic("10.0.0.1", None))
        assert match_predicate(neq, Traffic("10.0.0.1", None))


# ---------------------------------------------------------------------------
# rendering round-trips


ROUND_TRIP_PROGRAMS = [
    "spec s := a1 : preserve",
    "spec s := { a1 : preserve; a2 a3 : drop; }",
    "spec s := { a1* : add(a2 | a3); b1 : replace(b2, b3 d1); }",
    "spec s := a1 : preserve else { .* : any(b1*); }",
    'spec s := where(group=="A") . d1 : remove(a2)',
    "spec s := { a1 : preserve; } else { a2 : drop; } else { .* : preserve; }",
    "pspec g := (dstPrefix == 10.0.0.0/8) -> { .* : preserve; }",
    ("spec rest := drop* : preserve\n"
     "pspec g := (dstPrefix in {10.0.0.0/8, 2001:db8::/32} or "
     "not srcPrefix != 172.16.0.0/12) -> { a1 : drop; }"),
]


class TestRendering:
    @pytest.mark.parametrize("text", ROUND_TRIP_PROGRAMS)
    def test_program_round_trip(self, index, text):
        program = parse_program(text, index)
        rendered = program_to_text(program)
        assert parse_program(rendered, index) == program

    def test_regex_round_trip(self, index):
        for text in ["a1", "a1 b1 | d1*", "(a1 | b1) d1", ". .*",
                     'where(group=="A")', "drop", "a1**", "a1+", "a1?",
                     "(a1 b1)+ d1?", "(a1 | b1)? d1+", "(a1 | b1 d1)+",
                     "a1+? | .?", "a1*+?", "a1 | (b1 | d1 x1)",
                     "(a1 b1 | d1 x1 | y1 b2)?", "a1 b1 | d1?? | x1 y1",
                     'a1 | b1 d1 | (a2 | a3) | "x1:eth0"']:
            r = parse_regex(text, index)
            assert parse_regex(regex_to_text(r), index) == r

    def test_postfix_forms_render_expanded(self, index):
        # `+` and `?` do not survive parsing: `x+` is `x x*`, and `x?`
        # renders from the union with the empty path
        assert regex_to_text(parse_regex("(a1 b1)+ d1?", index)) == \
            "a1 b1 (a1 b1)* d1?"

    def test_multi_symbol_loc_renders_sorted(self, index):
        r = parse_regex('where(group=="A")', index)
        assert regex_to_text(r) == "a1 | a2 | a3"

    def test_spec_text_shape(self, index):
        p = parse_program("spec s := { a1 : preserve; a2 : drop; }", index)
        assert spec_to_text(p.default) == "{ a1 : preserve; a2 : drop; }"
