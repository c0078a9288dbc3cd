"""Acceptance suite: one test per shipping criterion.

Each test prints a single verdict line (visible under -v -s or in the
captured output), enforces its own runtime budget, and checks results
against independent evidence: brute-force oracles, hand-derived
fixtures, direct membership tests, or byte comparison.
"""

import json
import random
import time
from pathlib import Path

import pytest

from rela.automata import accepts, enumerate_shortest
from rela.checker import CheckOptions, check_all, check_fec, report_to_json
from rela.cli import main
from rela.compiler import compile_program, compile_spec
from rela.frontend import Granularity, LocationDb, parse_program
from rela.rir import Evaluator, pretty
from rela.snapshot import fec_acceptors, parse_fec

from _fecgen import make_index, mutate_one_edge, random_fec_dict
from _oracle import oracle_eval_pathset
from _treegen import TreeGen, bounded_language, fsa_from_paths, make_env
from conformance_fixtures import CONFORMANCE, run_case

DATA = Path(__file__).parent / "data" / "scenario"


def verdict_line(criterion, detail):
    print(f"acceptance {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------


def test_1_oracle_equivalence():
    """>=1,000 random trees agree with the bounded brute-force oracle."""
    start = time.monotonic()
    rng = random.Random(20260815)
    target, checked = 1000, 0
    while checked < target:
        table, symbols, env, oenv, env_ml = make_env(rng, n_locations=2)
        gen = TreeGen(rng, symbols, env_ml, bound=6)
        for _ in range(10):
            tree = gen.tree(depth=4)
            ev = Evaluator(env.pre, env.post, table.others)
            got = bounded_language(ev.pathset(tree), 6)
            want = oracle_eval_pathset(tree, oenv, 6)
            assert got == want, f"disagreement on {pretty(tree)}"
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"oracle sweep took {elapsed:.1f}s"
    verdict_line("1 oracle equivalence",
                 f"{checked} trees, {elapsed:.1f}s")


def test_2_compilation_rule_conformance():
    """Hand-enumerated fixtures for all six modifiers plus Concat/Else."""
    start = time.monotonic()
    for name, spec_text, pre, post, should_hold in CONFORMANCE:
        held = run_case(spec_text, pre, post)
        assert held == should_hold, f"fixture {name}: held={held}"
    prefixes = {name.split("-")[0] for name, *_ in CONFORMANCE}
    assert prefixes >= {"preserve", "add", "remove", "replace", "drop",
                        "any", "concat", "else"}
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0
    verdict_line("2 compilation-rule conformance",
                 f"{len(CONFORMANCE)} fixtures, {elapsed:.1f}s")


def test_3_topology_scenario_reproduction(tmp_path, capsys):
    """Group-granularity topology: exact counterexample sets, then exit 0."""
    start = time.monotonic()

    def run(fecs_name):
        out = tmp_path / f"{fecs_name}.report.json"
        code = main(["check",
                     "--spec", str(DATA / "change.spec"),
                     "--locations", str(DATA / "locations.json"),
                     "--fecs", str(DATA / fecs_name),
                     "--granularity", "group",
                     "--output", str(out)])
        return code, json.loads(out.read_text())

    code, report = run("fecs_v2.ndjson")
    assert code == 1
    assert report["per_subspec"] == {"change/e2e": 1, "change/nochange": 1}
    by_id = {cx["fec_id"]: cx for cx in report["counterexamples"]}
    t1 = by_id["T1"]
    assert t1["violated_subspec"] == "e2e"
    assert set(t1["expected"]["paths"]) == {"x1 A1 A2 A3 D1 y1"}
    assert set(t1["observed"]["paths"]) == {"x1 A1 A2 A3 B3 D1 y1"}
    assert not t1["expected"]["truncated"]
    assert not t1["observed"]["truncated"]
    assert by_id["T2"]["violated_subspec"] == "nochange"

    code, report = run("fecs_final.ndjson")
    assert code == 0
    assert report["verdict"] == "pass"

    elapsed = time.monotonic() - start
    assert elapsed <= 10.0
    verdict_line("3 topology-scenario reproduction",
                 f"e2e + nochange counterexamples exact, {elapsed:.1f}s")


def test_4_no_change_soundness():
    """200 identical pre/post FECs pass; one edge rewire fails exactly one."""
    start = time.monotonic()
    rng = random.Random(4)
    index = make_index(60)
    devices = [f"d{i:04d}" for i in range(60)]
    program = compile_program(
        parse_program("spec main := { .* : preserve; }", index), index)

    dicts = [random_fec_dict(rng, f"fec{i:03d}", devices, min_nodes=3)
             for i in range(200)]
    items = [parse_fec(obj, index) for obj in dicts]
    report = check_all(program, index, items)
    assert report.verdict == "pass"
    assert report.totals == {"pass": 200, "fail": 0, "unmatched": 0,
                             "error": 0}

    victim = rng.randrange(200)
    dicts[victim] = dict(dicts[victim],
                         post=mutate_one_edge(rng, dicts[victim], index))
    items = [parse_fec(obj, index) for obj in dicts]
    report = check_all(program, index, items)
    assert report.totals["fail"] == 1
    assert report.totals["pass"] == 199
    (counterexample,) = report.counterexamples
    assert counterexample.fec_id == f"fec{victim:03d}"

    # Re-verify the witness paths directly against the mutated FEC.
    pre, post = fec_acceptors(items[victim], index)
    assert counterexample.missing.paths or counterexample.unexpected.paths
    for path in counterexample.missing.paths:
        assert accepts(pre, path) and not accepts(post, path)
    for path in counterexample.unexpected.paths:
        assert accepts(post, path) and not accepts(pre, path)

    elapsed = time.monotonic() - start
    assert elapsed <= 30.0, f"soundness sweep took {elapsed:.1f}s"
    verdict_line("4 no-change soundness",
                 f"200 FECs, single mutation isolated, {elapsed:.1f}s")


def test_5_synthetic_scale():
    """10,000 DAG FECs, 1,000 locations, 5-arm else chain, two worker counts."""
    rng = random.Random(5)
    index = make_index(1000)
    devices = [f"d{i:04d}" for i in range(1000)]
    program = compile_program(parse_program("""
        regex p0 := where(pod == "pod0")
        regex p1 := where(pod == "pod1")
        regex p2 := where(pod == "pod2")
        regex p3 := where(pod == "pod3")
        spec change := { p0* : preserve; }
            else { p1* : preserve; }
            else { p2* : preserve; }
            else { p3* : preserve; }
            else { .* : preserve; }
    """, index), index)
    assert len(compile_spec(
        parse_program("spec z := { .* : preserve; }", index).default,
        index).subspecs) == 1  # sanity: arms count subspecs
    assert len(program.default.subspecs) == 5

    items = []
    for i in range(10_000):
        shifted = i % 500 == 250  # sprinkle violations through the corpus
        obj = random_fec_dict(rng, f"fec{i:05d}", devices, max_nodes=50,
                              max_extra_edges=150,
                              min_nodes=3 if shifted else 2)
        if shifted:
            obj = dict(obj, post=mutate_one_edge(rng, obj, index))
        items.append(parse_fec(obj, index))

    start = time.monotonic()
    report8 = check_all(program, index, items, CheckOptions(workers=8))
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"scale run took {elapsed:.1f}s"
    assert sum(report8.totals.values()) == 10_000
    assert report8.totals["fail"] == 20

    report1 = check_all(program, index, items, CheckOptions(workers=1))
    assert report_to_json(report1) == report_to_json(report8)
    verdict_line("5 synthetic scale",
                 f"10,000 FECs in {elapsed:.1f}s with workers=8, "
                 f"deterministic across worker counts")


def test_6_counterexample_exhaustiveness():
    """Finite diffs are listed in full; infinite diffs truncate honestly."""
    start = time.monotonic()
    index = make_index(16)

    def layered(layers):
        nodes, edges = [], []
        for i, layer in enumerate(layers):
            for j, dev in enumerate(layer):
                nodes.append({"id": f"l{i}x{j}", "loc": dev})
            if i:
                edges += [[f"l{i-1}x{a}", f"l{i}x{b}"]
                          for a in range(len(layers[i - 1]))
                          for b in range(len(layer))]
        return {"nodes": nodes, "edges": edges,
                "sources": [f"l0x{j}" for j in range(len(layers[0]))],
                "sinks": [f"l{len(layers)-1}x{j}"
                          for j in range(len(layers[-1]))]}

    pre = layered([["d0000"], ["d0001", "d0002"], ["d0003", "d0004"],
                   ["d0005", "d0006"], ["d0007"]])
    post = layered([["d0000"], ["d0001", "d0002"], ["d0003", "d0004"],
                    ["d0005", "d0008"], ["d0007"]])
    fec = parse_fec({"id": "f", "traffic": {"dstPrefix": "10.0.0.0/24"},
                     "pre": pre, "post": post}, index)
    program = compile_program(
        parse_program("spec main := { .* : preserve; }", index), index)
    pre, post = fec_acceptors(fec, index)

    # Independent evidence: enumerate both snapshot languages outright.
    pre_paths = set(enumerate_shortest(pre, 1000).render())
    post_paths = set(enumerate_shortest(post, 1000).render())
    want_missing = pre_paths - post_paths
    want_unexpected = post_paths - pre_paths
    assert 0 < len(want_missing | want_unexpected) <= 100

    cx = check_fec(program.default, fec, index)[1]
    missing, unexpected = cx.missing, cx.unexpected
    assert not missing.truncated and not unexpected.truncated
    assert set(missing.render()) == want_missing
    assert set(unexpected.render()) == want_unexpected

    # A star on the required side makes the difference infinite.
    star = compile_program(
        parse_program("spec s := d0000 : add(d0001*)", index), index)
    chain = {"nodes": [{"id": "n0", "loc": "d0000"}], "edges": [],
             "sources": ["n0"], "sinks": ["n0"]}
    fec2 = parse_fec({"id": "g", "traffic": {"dstPrefix": "10.0.0.0/24"},
                      "pre": chain, "post": chain}, index)
    cx = check_fec(star.default, fec2, index, limit=40)[1]
    missing, unexpected = cx.missing, cx.unexpected
    assert missing.truncated
    assert len(missing.paths) == 40
    ev = Evaluator(*fec_acceptors(fec2, index), index.table.others)
    left = ev.pathset(star.default.top.left)
    right = ev.pathset(star.default.top.right)
    for path in missing.paths:
        assert accepts(left, path) and not accepts(right, path)
    assert unexpected.render() == []

    elapsed = time.monotonic() - start
    assert elapsed <= 10.0
    verdict_line("6 counterexample exhaustiveness",
                 f"{len(want_missing | want_unexpected)} finite witnesses "
                 f"listed in full, star diff truncated, {elapsed:.1f}s")


def test_7_determinism_across_workers(tmp_path):
    """Byte-identical reports for workers=1 and workers=8."""
    rng = random.Random(7)
    index = make_index(40)
    devices = [f"d{i:04d}" for i in range(40)]

    spec = tmp_path / "spec.rela"
    spec.write_text("""
        spec main := { .* : preserve; }
        pspec g := (dstPrefix == 10.0.0.0/8) -> main
    """, encoding="utf-8")
    locations = tmp_path / "locations.json"
    locations.write_text(json.dumps(
        [{"name": f"d{i:04d}:p0", "device": f"d{i:04d}",
          "group": f"g{i // 10:03d}", "pod": f"pod{i % 5}"}
         for i in range(40)]), encoding="utf-8")

    lines = []
    for i in range(60):
        obj = random_fec_dict(rng, f"fec{i:02d}", devices, min_nodes=3)
        if i % 7 == 3:
            obj = dict(obj, post=mutate_one_edge(rng, obj, index))
        if i % 11 == 5:
            obj["traffic"] = {"dstPrefix": "192.168.0.0/24"}  # unmatched
        lines.append(json.dumps(obj))
    lines.insert(20, "{broken")  # an input error entry as well
    fecs = tmp_path / "fecs.ndjson"
    fecs.write_text("".join(line + "\n" for line in lines),
                    encoding="utf-8")

    def run(workers, tag):
        out = tmp_path / f"report-{tag}.json"
        code = main(["check", "--spec", str(spec),
                     "--locations", str(locations), "--fecs", str(fecs),
                     "--workers", str(workers), "--output", str(out)])
        assert code == 1
        return out.read_bytes()

    serial = run(1, "w1")
    parallel = run(8, "w8")
    serial_again = run(1, "w1-again")
    assert serial == parallel
    assert serial == serial_again
    doc = json.loads(serial)
    assert doc["totals"]["fail"] > 0
    assert doc["totals"]["unmatched"] > 0
    assert doc["totals"]["error"] == 1
    verdict_line("7 determinism",
                 "reports byte-identical for workers=1 and workers=8")
