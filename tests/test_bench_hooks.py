"""The benchmark's traced pass still hooks the checker.

`bench/traced.py` times `check_all` by swapping module-level names in
`rela.checker` and `rela.rir` while it runs.  A refactor that moves or
renames one of them leaves its swap without effect, and that layer's
metrics silently read 0.  This runs the traced call on a small corpus
with failures, once per workload, and requires the plain call's report,
the corpus's known answer and a span from every swapped layer.  (The benchmark's own smoke test, `bench/test_smoke.py`,
covers this too but also gates on timing.)
"""

import json
import sys
from pathlib import Path

import pytest

import rela.checker
from rela import CheckOptions, check_all, report_to_json, rir
from rela.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import corpus  # noqa: E402
import traced  # noqa: E402

LAYERS = {"checker.fec", "snapshot.acceptors", "rir.ground", "rir.image",
          "automata.equiv", "checker.explain", "automata.enumerate"}


@pytest.mark.parametrize("workload", ["preserve-scale", "reroute-explain",
                                      "else-chain"])
def test_traced_check_all_hooks_every_layer(tmp_path, workload):
    answer = corpus.write_corpus(workload, 1, str(tmp_path), 0.05)
    tracer = traced.Tracer()
    _, index, program, fecs = traced.load_stage(str(tmp_path), tracer)
    plain = check_all(program, index, fecs, CheckOptions(workers=1))
    assert plain.totals["fail"] > 0

    process = rela.checker._process_item
    root = len(tracer.spans)
    with traced.traced_checker(tracer, traced._Counts()):
        report = check_all(program, index, fecs, CheckOptions(workers=1))

    assert rela.checker._process_item is process
    assert report_to_json(report) == report_to_json(plain)
    assert corpus.mismatches(json.loads(report_to_json(report)),
                             answer) == (0, [])
    assert LAYERS <= {span[2] for span in tracer.spans[root:]}


@pytest.mark.parametrize("form", ["parsed", "raw"])
def test_one_worker_judges_each_item_before_the_next_pull(tmp_path,
                                                          monkeypatch, form):
    # `checker.fec_p50_ms` takes the gap between two pulls from the
    # stream as one item's cost, so at one worker `check_all` must pull
    # item k+1 only after `_process_item` has returned for item k.
    corpus.write_corpus("reroute-explain", 1, str(tmp_path), 0.05)
    _, index, program, fecs = traced.load_stage(str(tmp_path),
                                                traced.Tracer())
    items = fecs if form == "parsed" else \
        (tmp_path / "fecs.ndjson").read_bytes().splitlines(keepends=True)
    events = []

    def pulls():
        for k, item in enumerate(items):
            events.append(("pull", k))
            yield item

    process = rela.checker._process_item

    def recorded(program, index, item, options, cache):
        out = process(program, index, item, options, cache)
        events.append(("done", item.fec_id))
        return out

    monkeypatch.setattr(rela.checker, "_process_item", recorded)
    report = check_all(program, index, pulls(), CheckOptions(workers=1))
    assert report.totals["fail"] > 0
    assert events == [event for k, fec in enumerate(fecs)
                      for event in (("pull", k), ("done", fec.fec_id))]


def count_nodes(node) -> int:
    """Nodes in a tree, found through each node's attributes."""
    count, stack = 0, [node]
    while stack:
        n = stack.pop()
        count += 1
        stack.extend(v for v in vars(n).values() if isinstance(v, rir._Node))
    return count


@pytest.mark.parametrize("workload,nodes", [("preserve-scale", 95),
                                            ("reroute-explain", 66),
                                            ("else-chain", 8611)])
def test_tree_size_counts_every_node(tmp_path, workload, nodes):
    # `compiler.rir_nodes` walks the compiled trees through the node
    # classes `traced._children` knows; a node kind it stops counting
    # would shrink the metric without any change to the trees.
    corpus.write_corpus(workload, 1, str(tmp_path), 0.05)
    _, _, program, _ = traced.load_stage(str(tmp_path), traced.Tracer())
    specs = traced._compiled_specs(program)
    assert sum(traced.tree_size(c.top) for c in specs) == nodes
    assert [traced.tree_size(c.top) for c in specs] == \
        [count_nodes(c.top) for c in specs]


def test_tracing_overhead_stays_in_bound_on_else_chain(tmp_path):
    # `trace.overhead_share` is the tracer's cost over the untraced
    # per-FEC step, so it grows as that step gets cheaper.  Else-chain
    # has the cheapest steady step of the three workloads: a change that
    # cut it to a few spans' worth of time would mark the benchmark's
    # traced run incorrect, and this catches that in the tests first.
    corpus.write_corpus("else-chain", 1, str(tmp_path), 1.0)
    _, index, program, fecs = traced.load_stage(str(tmp_path),
                                                traced.Tracer())
    assert traced.measure_overhead(index, program, fecs) <= \
        traced.ACCOUNTING_BOUND


def test_tracing_overhead_stays_in_bound_on_preserve_scale(tmp_path):
    # Preserve-scale passes each unchanged FEC without a walk, so its
    # per-FEC step is the next cheapest.  The lowest of three readings
    # keeps a load spike from failing the test; a lasting breach still
    # fails it.
    corpus.write_corpus("preserve-scale", 1, str(tmp_path), 0.5)
    _, index, program, fecs = traced.load_stage(str(tmp_path),
                                                traced.Tracer())
    readings = [traced.measure_overhead(index, program, fecs)
                for _ in range(3)]
    assert min(readings) <= traced.ACCOUNTING_BOUND


@pytest.mark.parametrize("workload", ["preserve-scale", "reroute-explain",
                                      "else-chain"])
def test_cli_reports_match_the_corpus_answer(tmp_path, capsys, workload):
    # The benchmark's end-to-end gate at a small scale: `rela check`
    # exits with the answer's code at one and two workers, writes the
    # same bytes, and reports every FEC as the corpus expects.
    answer = corpus.write_corpus(workload, 1, str(tmp_path), 0.05)
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"report-w{workers}.json"
        code = main(["check", "--spec", str(tmp_path / "change.spec"),
                     "--locations", str(tmp_path / "locations.json"),
                     "--fecs", str(tmp_path / "fecs.ndjson"),
                     "--workers", workers, "--output", str(out)])
        assert code == answer["exit_code"]
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert corpus.mismatches(json.loads(reports[0]), answer) == (0, [])
