"""Per-FEC verdicts, counterexample explanations, and report assembly."""

import copy
import ipaddress
import json
import pickle
import random

import pytest

import rela.automata
import rela.checker
from _fecgen import make_index as make_device_index
from _fecgen import mutate_one_edge, random_fec_dict
from rela import rir
from rela.automata import fsa_equivalent
from rela.checker import (
    CheckOptions, FAIL, PASS, FecVerdict, Report, StrictInputError, check_all,
    check_fec, counterexample_to_json_dict, report_to_json,
    report_to_json_dict, report_to_text, select_spec,
)
from rela.compiler import compile_program
from rela.frontend import (Add, AnyOf, AtomicSpec, ConcatSpec, DropTraffic,
                           ElseSpec, Granularity, LocationDb, PredAnd, PredOr,
                           PredTrue, Preserve, Remove, parse_program)
from rela.snapshot import (Fec, FecError, TrafficClass, iter_fec_lines,
                           parse_fec)

DEVICES = [("x1", "X"), ("a1", "A"), ("a2", "A"), ("a3", "A"),
           ("b1", "B"), ("b2", "B"), ("b3", "B"), ("d1", "D"), ("y1", "Y")]


def make_index():
    rows = [{"name": f"{device}:eth0", "device": device, "group": group}
            for device, group in DEVICES]
    return LocationDb.from_json(json.dumps(rows)).build_index(
        Granularity.DEVICE)


@pytest.fixture(scope="module")
def index():
    return make_index()


def compile_text(index, text):
    return compile_program(parse_program(text, index), index)


def chain_graph(*devices, node_prefix="n"):
    nodes = [{"id": f"{node_prefix}{i}", "loc": d}
             for i, d in enumerate(devices)]
    edges = [[f"{node_prefix}{i}", f"{node_prefix}{i+1}"]
             for i in range(len(devices) - 1)]
    return {"nodes": nodes, "edges": edges,
            "sources": [f"{node_prefix}0"],
            "sinks": [f"{node_prefix}{len(devices)-1}"]}


def make_fec(index, fec_id, pre, post, dst="10.0.0.0/24", src=None):
    traffic = {"dstPrefix": dst}
    if src is not None:
        traffic["srcPrefix"] = src
    if isinstance(pre, tuple):
        pre = chain_graph(*pre)
    if isinstance(post, tuple):
        post = chain_graph(*post)
    return parse_fec({"id": fec_id, "traffic": traffic,
                      "pre": pre, "post": post}, index)


PRESERVE_ALL = "spec main := { .* : preserve; }"

# a1:eth0 and a1 are one device, so this graph revisits it once coarsened
REVISIT = {
    "nodes": [{"id": "p", "loc": "a1:eth0"}, {"id": "q", "loc": "b1"},
              {"id": "r", "loc": "a1"}],
    "edges": [["p", "q"], ["q", "r"]],
    "sources": ["p"], "sinks": ["r"],
}

SHIFT_PROGRAM = """
regex ra := where(group == "A")
regex rd := where(group == "D")
spec pathShift := { a1 .* d1 : any(a1 a2 a3 d1); }
spec e2e := { (x1 | ra)* : preserve; pathShift; (rd | y1)* : preserve; }
spec nochange := { .* : preserve; }
spec change := e2e else nochange
"""

SHIFT_PRE = ("x1", "a1", "b1", "b2", "b3", "d1", "y1")
SHIFT_POST_GOOD = ("x1", "a1", "a2", "a3", "d1", "y1")
SHIFT_POST_BAD = ("x1", "a1", "a2", "a3", "b3", "d1", "y1")


# ---------------------------------------------------------------------------
# spec selection and single-FEC verdicts


class TestSelectSpec:
    def test_first_matching_guard_wins(self, index):
        program = compile_text(index, """
        spec wide := { .* : preserve; }
        spec narrow := { a1 : preserve; }
        pspec g1 := (dstPrefix == 10.0.0.0/8) -> wide
        pspec g2 := (dstPrefix == 10.1.0.0/16) -> narrow
        """)
        fec = make_fec(index, "f", ("a1", "b1"), ("a1", "b1"),
                       dst="10.1.2.0/24")
        name, spec = select_spec(program, fec.traffic)
        assert name == "g1"
        assert spec is program.guards[0].spec

    def test_default_fallback(self, index):
        program = compile_text(index, """
        spec rest := { .* : preserve; }
        pspec g := (dstPrefix == 192.168.0.0/16) -> { a1 : preserve; }
        """)
        fec = make_fec(index, "f", ("a1",), ("a1",))
        name, spec = select_spec(program, fec.traffic)
        assert name == "rest"
        assert spec is program.default

    def test_nothing_applies(self, index):
        program = compile_text(index, """
        spec only := { .* : preserve; }
        pspec g := (dstPrefix == 192.168.0.0/16) -> only
        """)
        fec = make_fec(index, "f", ("a1",), ("a1",))
        assert select_spec(program, fec.traffic) == ("", None)


class TestCheckFec:
    def test_pass(self, index):
        program = compile_text(index, PRESERVE_ALL)
        fec = make_fec(index, "f", ("x1", "a1"), ("x1", "a1"))
        verdict, cx = check_fec(program.default, fec, index)
        assert verdict == type(verdict)("f", PASS, "main")
        assert cx is None

    def test_fail(self, index):
        program = compile_text(index, PRESERVE_ALL)
        fec = make_fec(index, "f", ("x1", "a1"), ("x1", "a2"))
        verdict, cx = check_fec(program.default, fec, index)
        assert verdict.status == FAIL
        assert cx.fec_id == "f"

    def test_shared_ground_cache(self, index):
        program = compile_text(index, PRESERVE_ALL)
        cache = {}
        fec = make_fec(index, "f", ("x1", "a1"), ("x1", "a1"))
        check_fec(program.default, fec, index, cache)
        assert cache  # ground subexpressions landed in the shared cache
        verdict, _ = check_fec(program.default, fec, index, cache)
        assert verdict.status == PASS

    @staticmethod
    def cached_arcs(arms):
        """Arcs in the ground cache after one unchanged FEC is checked
        against a chain of `arms` per-device arms and a catch-all."""
        index = make_device_index(100)
        fec = make_fec(index, "f", ("d0000", "d0001"), ("d0000", "d0001"))
        text = "spec s := " + " else ".join(
            [f"{{ d{i:04d} .* : preserve; }}" for i in range(arms)]
            + ["{ .* : preserve; }"])
        cache = {}
        verdict, _ = check_fec(compile_text(index, text).default, fec,
                               index, cache)
        assert verdict.status == PASS
        return sum(len(arcs) for m in cache.values() for arcs in m.arcs)

    def test_ground_cache_grows_linearly_with_else_arms(self):
        # Arm i is masked by the union of the earlier zones.  Kept as
        # copies of their operands, those unions make the cache quadratic
        # in the arms (80 arms hold 3.1x the arcs of 40); as minimal DFAs,
        # about twice as many.
        small, large = self.cached_arcs(40), self.cached_arcs(80)
        # the FEC is unchanged; its zones must still be evaluated, or the
        # ratio below would hold as 0 <= 0
        assert small > 0 and large > 0
        assert large <= 2.5 * small

    def test_else_masks_take_one_walk_each(self, monkeypatch):
        # Arm i's mask takes the i - 1 earlier zones away in one walk of
        # its zone: 40 and 80 walks.  One walk per earlier zone took 820
        # and 3,240, growing with the square of the arms.
        walks = []
        product = rela.automata._product
        monkeypatch.setattr(rela.automata, "_product",
                            lambda *a, **k: walks.append(1) or product(*a, **k))
        self.cached_arcs(40)
        small = len(walks)
        walks.clear()
        self.cached_arcs(80)
        assert 0 < small and len(walks) <= 2.5 * small

    @staticmethod
    def bench_chain_arcs(devices):
        """Arcs in the ground cache after one changed FEC is checked
        against the bench's else-chain shape over `devices` devices: 40
        per-device `d .*` arms drawn from the first 200, then `.*`."""
        index = make_device_index(devices)
        arms = random.Random(1).sample(range(200), 40)
        text = "spec s := " + " else ".join(
            [f"{{ d{i:04d} .* : preserve; }}" for i in arms]
            + ["{ .* : preserve; }"])
        fec = make_fec(index, "f", ("d0000", "d0001"), ("d0000", "d0002"))
        cache = {}
        verdict, _ = check_fec(compile_text(index, text).default, fec,
                               index, cache)
        assert verdict.status == FAIL
        return sum(len(arcs) for m in cache.values() for arcs in m.arcs)

    def test_ground_cache_does_not_grow_with_the_locations(self):
        # `.` is one default arc, so 1,600 devices hold the arcs 200 do.
        # With an arc per location per state they held 48,534 and
        # 378,934 arcs.
        small = self.bench_chain_arcs(200)
        assert 0 < self.bench_chain_arcs(1600) <= 1.1 * small

    def test_else_masks_hold_no_universe_wide_machines(self):
        # Arm i's mask is its zone minus the earlier zones, walked along
        # the zone's arcs.  Taken as the universe minus the earlier zones
        # instead, each mask held a machine with an arc per location per
        # state: 37,054 arcs here, against 24,934.
        assert self.cached_arcs(40) <= 30_000


class TestUnchangedFec:
    """An unchanged FEC has one acceptor for both sides.  A spec that
    demands a change still fails it, with the counterexample that two
    separately lowered sides give."""

    CHANGED = ("x1", "a1", "b1")

    @staticmethod
    def paths(*paths):
        return {"paths": list(paths), "truncated": False}

    @pytest.mark.parametrize("text,expected,missing,unexpected", [
        ("spec s := x1 .* : add(x1 a2 b1)",
         ["x1 a1 b1", "x1 a2 b1"], ["x1 a2 b1"], []),
        ("spec s := .* : remove(.* a1 .*)", [], [], ["x1 a1 b1"]),
        ("spec s := x1 .* b1 : any(x1 a2 b1)",
         ["x1 a2 b1"], ["x1 a2 b1"], ["x1 a1 b1"]),
    ])
    def test_a_spec_that_demands_a_change_fails(self, index, text, expected,
                                                missing, unexpected):
        program = compile_text(index, text)
        fec = make_fec(index, "f", self.CHANGED, self.CHANGED)
        assert fec.post is fec.pre
        verdict, cx = check_fec(program.default, fec, index)
        assert verdict.status == FAIL
        got = counterexample_to_json_dict(cx)
        assert got["violated_subspec"] == "s" and got["note"] == ""
        seen = self.paths("x1 a1 b1")
        assert (got["pre_paths"], got["post_paths"], got["observed"]) == \
            (seen, seen, seen)
        assert got["expected"] == self.paths(*expected)
        assert got["missing"] == self.paths(*missing)
        assert got["unexpected"] == self.paths(*unexpected)

    def test_preserve_chain_passes_it_without_a_walk(self, monkeypatch):
        # Both sides are one acceptor and both zones one cached machine,
        # so the equation holds by identity; a changed FEC still walks.
        index = make_device_index(12)
        spec = compile_text(index, TestLazyDecision.SPECS["preserve"]).default
        route = ("d0000", "d0001", "d0003")
        same = make_fec(index, "f", route, route)
        moved = make_fec(index, "g", route, ("d0000", "d0002", "d0003"))
        cache = {}
        check_fec(spec, same, index, cache)  # the zones, once per run
        walks = []
        walk = rela.automata._product

        def counted(*args, **kwargs):
            walks.append(args[2])
            return walk(*args, **kwargs)

        monkeypatch.setattr(rela.automata, "_product", counted)
        assert check_fec(spec, same, index, cache) == \
            (FecVerdict("f", PASS, "s"), None)
        assert walks == []
        verdict, cx = check_fec(spec, moved, index, cache)
        assert verdict.status == FAIL and cx.violated_subspec == "#1"
        assert "either" in walks

    def test_shared_graphs_pickle_small(self):
        # the pool pickles each Fec; a shared graph goes once
        index = make_device_index(50)
        devices = [f"d{i:04d}" for i in range(50)]
        line = json.dumps(random_fec_dict(random.Random(1), "f", devices,
                                          max_nodes=40, min_nodes=40))
        [fec] = iter_fec_lines([line], index)
        apart = Fec(fec.fec_id, fec.traffic, fec.pre,
                    copy.deepcopy(fec.post))
        assert len(pickle.dumps(fec)) < 0.7 * len(pickle.dumps(apart))


class TestLazyDecision:
    """Identity-only equations are decided by `_agree` as intersections of
    each snapshot with its zone, not through the evaluator's images.

    Each verdict and counterexample must be the one built images give.
    `remove` compiles to two different identities, and the chained specs
    have identity arms, so the arm replay of `_explain` takes that path
    too.
    """

    SPECS = {
        "preserve": "spec s := { d0000 .* : preserve; }"
                    " else { .* d0003 .* : preserve; }"
                    " else { .* : preserve; }",
        "remove": "spec s := .* : remove(.* d0002 .*)",
        "remove-arm": "spec s := { d0000 .* : remove(d0000 d0001 .*); }"
                      " else { .* : preserve; }",
    }

    @staticmethod
    def built_images(ev, left, right):
        return fsa_equivalent(ev.pathset(left), ev.pathset(right))

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_matches_built_images(self, name, monkeypatch):
        index = make_device_index(12)
        devices = [f"d{i:04d}" for i in range(12)]
        spec = compile_text(index, self.SPECS[name]).default
        assert isinstance(spec.top.left.rel, rir.Identity)
        assert isinstance(spec.top.right.rel, rir.Identity)
        rng = random.Random(f"lazy/{name}")
        fecs = []
        for i in range(60):
            obj = random_fec_dict(rng, f"f{i:02d}", devices, max_nodes=8,
                                  min_nodes=3)
            if i % 3:
                obj = dict(obj, post=mutate_one_edge(rng, obj, index))
            fecs.append(parse_fec(obj, index))
        lazy = [check_fec(spec, f, index, {}, 5) for f in fecs]
        monkeypatch.setattr(rela.checker, "_agree", self.built_images)
        built = [check_fec(spec, f, index, {}, 5) for f in fecs]
        assert lazy == built
        assert {v.status for v, _ in lazy} == {PASS, FAIL}


# ---------------------------------------------------------------------------
# counterexamples


class TestExplain:
    def test_path_shift_blames_e2e(self, index):
        program = compile_text(index, SHIFT_PROGRAM)
        fec = make_fec(index, "T1", SHIFT_PRE, SHIFT_POST_BAD)
        cx = check_fec(program.default, fec, index)[1]
        assert cx.fec_id == "T1"
        assert cx.violated_subspec == "e2e"
        assert cx.note == ""
        assert cx.expected.render() == ["x1 a1 a2 a3 d1 y1"]
        assert cx.observed.render() == ["x1 a1 a2 a3 b3 d1 y1"]
        assert cx.missing.render() == ["x1 a1 a2 a3 d1 y1"]
        assert cx.unexpected.render() == ["x1 a1 a2 a3 b3 d1 y1"]
        assert cx.pre_paths.render() == ["x1 a1 b1 b2 b3 d1 y1"]
        assert cx.post_paths.render() == ["x1 a1 a2 a3 b3 d1 y1"]

    def test_intended_shift_passes(self, index):
        program = compile_text(index, SHIFT_PROGRAM)
        fec = make_fec(index, "T1", SHIFT_PRE, SHIFT_POST_GOOD)
        verdict, cx = check_fec(program.default, fec, index)
        assert verdict.status == PASS and cx is None

    def test_collateral_damage_blames_nochange(self, index):
        program = compile_text(index, SHIFT_PROGRAM)
        fec = make_fec(index, "T2", ("x1", "b1", "b2", "d1"),
                       ("x1", "b1", "d1"))
        cx = check_fec(program.default, fec, index)[1]
        assert cx.violated_subspec == "nochange"
        assert cx.missing.render() == ["x1 b1 b2 d1"]
        assert cx.unexpected.render() == ["x1 b1 d1"]

    def test_markers_never_rendered(self, index):
        program = compile_text(index, SHIFT_PROGRAM)
        fec = make_fec(index, "T1", SHIFT_PRE, SHIFT_POST_BAD)
        cx = check_fec(program.default, fec, index)[1]
        for listing in (cx.pre_paths, cx.post_paths, cx.expected,
                        cx.observed, cx.missing, cx.unexpected):
            for text in listing.render():
                assert "#" not in text

    def test_first_differing_arm_in_priority_order(self, index):
        # Both arms cover a1 traffic, but only the first one is broken.
        program = compile_text(index, """
        spec s := { a1 : preserve; } else { . : preserve; }
        """)
        fec = make_fec(index, "f", ("a1",), ("a2",))
        cx = check_fec(program.default, fec, index)[1]
        assert cx.violated_subspec == "#1"

    def test_new_path_blamed_via_post_zone(self, index):
        # Pre has nothing in the b1 zone; the post path appearing there
        # is found by the second pass over post-side zones.
        program = compile_text(index, """
        spec s := { a1 a2 : preserve; } else { b1 b2 : preserve; }
        """)
        diamond = {
            "nodes": [{"id": "s", "loc": "a1"}, {"id": "t", "loc": "a2"},
                      {"id": "u", "loc": "b1"}, {"id": "v", "loc": "b2"}],
            "edges": [["s", "t"], ["u", "v"]],
            "sources": ["s", "u"], "sinks": ["t", "v"],
        }
        fec = make_fec(index, "f", ("a1", "a2"), diamond)
        cx = check_fec(program.default, fec, index)[1]
        assert cx.violated_subspec == "#2"
        assert cx.expected.render() == []
        assert cx.observed.render() == ["b1 b2"]

    def test_guard_label_passes_through(self, index):
        program = compile_text(index, PRESERVE_ALL)
        fec = make_fec(index, "f", ("a1",), ("a2",))
        cx = check_fec(program.default, fec, index, guard="g7")[1]
        assert cx.guard == "g7"
        cx = check_fec(program.default, fec, index)[1]
        assert cx.guard == "main"


class TestDiffLanguages:
    """The two directed differences a counterexample lists."""

    def test_two_sided_difference(self, index):
        program = compile_text(index, PRESERVE_ALL)
        fec = make_fec(index, "f", ("a1", "b1"), ("a1", "d1"))
        cx = check_fec(program.default, fec, index)[1]
        assert cx.missing.render() == ["a1 b1"]
        assert cx.unexpected.render() == ["a1 d1"]
        assert not cx.missing.truncated and not cx.unexpected.truncated

    def test_equal_languages_empty_diff(self, index):
        program = compile_text(index, PRESERVE_ALL)
        fec = make_fec(index, "f", ("a1", "b1"), ("a1", "b1"))
        verdict, cx = check_fec(program.default, fec, index)
        assert verdict.status == PASS and cx is None

    def test_infinite_difference_truncates(self, index):
        program = compile_text(index, "spec s := a1 : add(b1*)")
        fec = make_fec(index, "f", ("a1",), ("a1",))
        cx = check_fec(program.default, fec, index, limit=5)[1]
        assert cx.missing.truncated
        assert len(cx.missing.paths) == 5
        for path in cx.missing.paths:
            assert all(sym.name == "b1" for sym in path)
        assert cx.unexpected.render() == []

    def test_block_move_is_agreement_not_diff(self, index):
        # The any() family is diffed as one unit: a shift inside the
        # family is a pass, so there is nothing to list.
        program = compile_text(index, "spec s := a1 .* a2 : any(a1 a2 | a2 a1)")
        fec = make_fec(index, "f", ("a1", "a2"), ("a2", "a1"))
        verdict, cx = check_fec(program.default, fec, index)
        assert verdict.status == PASS and cx is None


# ---------------------------------------------------------------------------
# whole-run reports


def fec_stream(index, lines):
    return list(iter_fec_lines(lines, index))


class TestCheckAll:
    def test_all_pass(self, index):
        program = compile_text(index, PRESERVE_ALL)
        items = [make_fec(index, f"f{i}", ("x1", "a1"), ("x1", "a1"))
                 for i in range(3)]
        report = check_all(program, index, items)
        assert report.verdict == PASS
        assert report.totals == {"pass": 3, "fail": 0, "unmatched": 0,
                                 "error": 0}
        assert report.counterexamples == ()
        assert not report.counterexamples_truncated

    def test_mixed_outcomes(self, index):
        program = compile_text(index, """
        spec main := { .* : preserve; }
        pspec g := (dstPrefix == 10.0.0.0/8) -> main
        """)
        items = [
            make_fec(index, "f1", ("a1",), ("a1",)),
            make_fec(index, "f2", ("a1",), ("a2",)),
            make_fec(index, "f3", ("a1",), ("a1",), dst="192.168.0.0/24"),
            FecError("line 9", "invalid JSON: boom"),
        ]
        report = check_all(program, index, items)
        assert report.verdict == FAIL
        assert report.totals == {"pass": 1, "fail": 1, "unmatched": 1,
                                 "error": 1}
        assert [cx.fec_id for cx in report.counterexamples] == ["f2"]
        assert report.counterexamples[0].guard == "g"
        assert report.per_subspec == {"g/main": 1}
        assert report.errors[0].fec_id == "line 9"

    def test_error_only_verdict(self, index):
        program = compile_text(index, PRESERVE_ALL)
        report = check_all(program, index, [FecError("line 1", "bad")])
        assert report.verdict == "error"

    def test_strict_raises(self, index):
        program = compile_text(index, PRESERVE_ALL)
        items = [FecError("line 1", "bad")]
        with pytest.raises(StrictInputError, match="line 1"):
            check_all(program, index, items, CheckOptions(strict=True))

    def test_results_sorted_by_fec_id(self, index):
        program = compile_text(index, PRESERVE_ALL)
        for arrival, cap, listed in [
                (("f9", "f1", "f5"), 100, ["f1", "f5", "f9"]),
                (("f9", "f5", "f1"), 0, []),
                (("f9", "f5", "f1"), 2, ["f1", "f5"])]:
            items = [make_fec(index, fid, ("a1",), ("a2",))
                     for fid in arrival]
            report = check_all(program, index, items,
                               CheckOptions(max_counterexamples=cap))
            assert [cx.fec_id for cx in report.counterexamples] == listed
            assert report.counterexamples_truncated == (len(listed) < 3)
            assert report.per_subspec == {"main/main": 3}

    def test_global_counterexample_cap(self, index):
        program = compile_text(index, PRESERVE_ALL)
        items = [make_fec(index, f"f{i}", ("a1",), ("a2",))
                 for i in range(5)]
        report = check_all(program, index, items,
                           CheckOptions(max_counterexamples=2))
        assert len(report.counterexamples) == 2
        assert report.counterexamples_truncated
        # tallies still cover every violation
        assert report.per_subspec == {"main/main": 5}
        assert report.totals["fail"] == 5

    def test_cap_keeps_every_arm_tally(self, index):
        program = compile_text(index, """
        spec s := { a1 . : preserve; } else { b1 . : preserve; }
        """)
        items = [
            make_fec(index, "f1", ("a1", "a2"), ("a1", "a3")),
            make_fec(index, "f2", ("a1", "a2"), ("a1", "b1")),
            make_fec(index, "f3", ("b1", "b2"), ("b1", "b3")),
        ]
        report = check_all(program, index, items,
                           CheckOptions(max_counterexamples=1))
        assert report.counterexamples_truncated
        kept = [(cx.fec_id, cx.violated_subspec)
                for cx in report.counterexamples]
        assert kept == [("f1", "#1")]
        # the tallies count the arms of the listings cut by the cap too
        assert report.per_subspec == {"s/#1": 2, "s/#2": 1}

    def test_unparseable_coarsening_is_error(self, index):
        # a1:eth0 and a1 are one device, so the device-level walk revisits
        # it and coarsening must reject the FEC rather than loop.
        program = compile_text(index, PRESERVE_ALL)
        fec = make_fec(index, "f1", REVISIT, ("a1", "b1"))
        report = check_all(program, index, [fec])
        assert report.verdict == "error"
        assert report.errors[0].fec_id == "f1"
        assert report.errors[0].message == \
            "FEC f1: pre graph coarsened to device granularity has a cycle"

    def test_bad_graph_is_error_when_unmatched(self, index):
        # Graphs are checked as they are lowered, and a FEC no guard
        # selects is lowered too: a coarse cycle there is an error, as a
        # structural fault on the same FEC is, not an unmatched verdict.
        program = compile_text(index, """
        spec main := { .* : preserve; }
        pspec g := (dstPrefix == 10.0.0.0/8) -> main
        """)
        unknown = chain_graph("a1", "zz")
        items = [make_fec(index, "f1", REVISIT, ("a1", "b1"),
                          dst="192.168.0.0/24"),
                 make_fec(index, "f2", ("a1", "b1"), unknown,
                          dst="192.168.0.0/24"),
                 make_fec(index, "f3", ("a1",), ("a1",),
                          dst="192.168.0.0/24")]
        report = check_all(program, index, items)
        assert report.totals == {"pass": 0, "fail": 0, "unmatched": 1,
                                 "error": 2}
        assert [(e.fec_id, e.message) for e in report.errors] == [
            ("f1", "FEC f1: pre graph coarsened to device granularity "
                   "has a cycle"),
            ("f2", "FEC f2: post graph node 'n1' has unknown location 'zz'"),
        ]

    def test_pre_side_error_wins(self, index):
        # With both sides bad, the pre side's first error is reported,
        # even when it is a coarse cycle and the post side's is a
        # structural fault.
        program = compile_text(index, PRESERVE_ALL)
        no_nodes = {"nodes": [], "edges": [], "sources": [], "sinks": []}
        report = check_all(program, index,
                           [make_fec(index, "f1", REVISIT, no_nodes)])
        assert [e.message for e in report.errors] == [
            "FEC f1: pre graph coarsened to device granularity has a cycle"]

    def test_stream_of_lines(self, index):
        program = compile_text(index, PRESERVE_ALL)
        lines = [
            json.dumps({"id": "f1", "traffic": {"dstPrefix": "10.0.0.0/24"},
                        "pre": chain_graph("a1", "b1"),
                        "post": chain_graph("a1", "b1")}),
            "this is not json",
        ]
        report = check_all(program, index, fec_stream(index, lines))
        assert report.totals["pass"] == 1
        assert report.totals["error"] == 1

    def test_metadata_carried(self, index):
        program = compile_text(index, PRESERVE_ALL)
        report = check_all(program, index, [],
                           metadata={"granularity": "device"})
        assert report.metadata == {"granularity": "device"}
        assert report.verdict == PASS


class TestWorkers:
    def build(self, index):
        program = compile_text(index, SHIFT_PROGRAM)
        items = [
            make_fec(index, "T1", SHIFT_PRE, SHIFT_POST_BAD),
            make_fec(index, "T2", ("x1", "b1", "b2", "d1"),
                     ("x1", "b1", "d1")),
            make_fec(index, "T3", SHIFT_PRE, SHIFT_POST_GOOD),
            make_fec(index, "T4", ("x1", "y1"), ("x1", "y1")),
        ]
        return program, items

    def test_parallel_matches_serial(self, index):
        program, items = self.build(index)
        serial = check_all(program, index, items, CheckOptions(workers=1))
        parallel = check_all(program, index, items, CheckOptions(workers=3))
        assert report_to_json(serial) == report_to_json(parallel)
        assert serial.totals == {"pass": 2, "fail": 2, "unmatched": 0,
                                 "error": 0}

    def test_parallel_strict_raises(self, index):
        program, items = self.build(index)
        items.append(FecError("line 5", "bad"))
        with pytest.raises(StrictInputError):
            check_all(program, index, items,
                      CheckOptions(workers=2, strict=True))


class TestRecords:
    """Records are plain `__slots__` classes.  The ones that cross the
    pool pickle, and equality is a frozen dataclass's: structural and
    class-aware."""

    def test_pool_records_pickle_equal(self, index):
        program = compile_text(index, SHIFT_PROGRAM)
        fec = make_fec(index, "T1", SHIFT_PRE, SHIFT_POST_BAD,
                       src="172.16.0.0/12")
        guard, spec = select_spec(program, fec.traffic)
        verdict, cx = check_fec(spec, fec, index, guard=guard)
        assert verdict.status == FAIL and cx.pre_paths.paths
        error = FecError("line 3", "invalid JSON")
        for record in (verdict, cx, error, cx.pre_paths, cx.traffic):
            back = pickle.loads(pickle.dumps(record))
            assert type(back) is type(record)
            assert back == record and hash(back) == hash(record)
        back = pickle.loads(pickle.dumps(cx))
        assert counterexample_to_json_dict(back) == \
            counterexample_to_json_dict(cx)
        assert back.traffic.dst == ipaddress.ip_network("10.0.0.0/24")
        assert back.traffic.src == ipaddress.ip_network("172.16.0.0/12")
        assert select_spec(program, back.traffic)[0] == guard

    def test_repr_names_the_fields(self):
        assert repr(FecError("f", "m")) == "FecError(fec_id='f', message='m')"
        assert repr(TrafficClass("10.0.0.0/24")) == \
            "TrafficClass(dst_prefix='10.0.0.0/24', src_prefix=None)"

    def test_equality_is_class_aware(self, index):
        zone = parse_program("spec s := a1 .* : preserve", index) \
            .default.zone
        again = parse_program("spec s := a1 .* : preserve", index) \
            .default.zone
        assert zone is not again
        assert Add(zone) == Add(again) and hash(Add(zone)) == hash(Add(again))
        assert Add(zone) != Remove(zone) != AnyOf(zone)
        assert len({Add(zone), Remove(zone), AnyOf(again), Add(again)}) == 3
        assert PredAnd((PredTrue(),)) != PredOr((PredTrue(),))
        assert FecVerdict("f", "pass") != FecError("f", "pass")
        assert FecVerdict("f", "pass") != ("f", "pass", "")

    def test_spec_equality_ignores_the_name(self, index):
        zone = parse_program("spec s := a1 .* : preserve", index) \
            .default.zone
        atom = AtomicSpec(zone, Preserve(), "first")
        twin = AtomicSpec(zone, Preserve(), "second")
        for one, other in ((atom, twin),
                           (ConcatSpec((atom, twin), "first"),
                            ConcatSpec((twin, atom), "second")),
                           (ElseSpec((atom,), "first"),
                            ElseSpec((twin,), None))):
            assert one == other and hash(one) == hash(other)
            assert one.name != other.name
        assert AtomicSpec(zone, Preserve()) != AtomicSpec(zone, DropTraffic())

    def test_a_definition_binds_its_name(self, index):
        program = parse_program(
            "spec inner := a1 .* : preserve\nspec outer := inner", index)
        assert program.default.name == "outer"
        assert program.default == AtomicSpec(program.default.zone,
                                             Preserve())


# ---------------------------------------------------------------------------
# rendering


class TestRendering:
    def report(self, index):
        program = compile_text(index, SHIFT_PROGRAM)
        items = [
            make_fec(index, "T1", SHIFT_PRE, SHIFT_POST_BAD,
                     src="172.16.0.0/12"),
            FecError("line 3", "invalid JSON"),
        ]
        return check_all(program, index, items,
                         metadata={"granularity": "device"})

    def test_json_shape(self, index):
        doc = report_to_json_dict(self.report(index))
        assert doc["verdict"] == "fail"
        assert doc["totals"] == {"error": 1, "fail": 1, "pass": 0,
                                 "unmatched": 0}
        assert doc["per_subspec"] == {"change/e2e": 1}
        assert doc["errors"] == [{"fec_id": "line 3",
                                  "message": "invalid JSON"}]
        assert doc["metadata"] == {"granularity": "device"}
        (cx,) = doc["counterexamples"]
        assert cx["fec_id"] == "T1"
        assert cx["traffic"] == {"dstPrefix": "10.0.0.0/24",
                                 "srcPrefix": "172.16.0.0/12"}
        assert cx["violated_subspec"] == "e2e"
        assert cx["expected"] == {"paths": ["x1 a1 a2 a3 d1 y1"],
                                  "truncated": False}
        assert cx["observed"] == {"paths": ["x1 a1 a2 a3 b3 d1 y1"],
                                  "truncated": False}
        assert json.loads(report_to_json(self.report(index))) == doc

    def test_text_shape(self, index):
        text = report_to_text(self.report(index))
        assert text.startswith("verdict: fail\n")
        assert "checked: 2  pass: 0  fail: 1  unmatched: 0  error: 1" in text
        assert "  change/e2e: 1" in text
        assert "FEC T1  (dst 10.0.0.0/24 src 172.16.0.0/12)" in text
        assert "expected:   {x1 a1 a2 a3 d1 y1}" in text
        assert "observed:   {x1 a1 a2 a3 b3 d1 y1}" in text
        assert "  line 3: invalid JSON" in text

    def test_truncated_set_rendering(self, index):
        program = compile_text(index, "spec s := a1 : add(b1*)")
        fec = make_fec(index, "f", ("a1",), ("a1",))
        cx = check_fec(program.default, fec, index, limit=3)[1]
        full = check_all(program, index, [fec])
        report = Report(full.verdict, full.totals, full.per_subspec, (cx,),
                        full.counterexamples_truncated, full.errors,
                        full.metadata)
        text = report_to_text(report)
        # add(b1*) also demands the empty path; it renders as ()
        assert "missing:    {(), b1, b1 b1, ...}" in text
