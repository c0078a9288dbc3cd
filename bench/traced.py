"""The traced in-process pass that yields the per-layer metrics.

Spans are recorded here, around calls into rela; nothing inside rela is
instrumented.  The traced call is the real ``check_all`` at one worker,
with the module-level names it calls swapped for timed wrappers while it
runs: ``_process_item`` (one span per FEC, whose trace id is the FEC's
id), ``fec_acceptors``, ``fsa_equivalent``, ``_explain`` and
``enumerate_shortest`` in ``rela.checker``, and ``rela.rir.Evaluator``,
whose subclass times ground evaluation (a miss in the ground cache) and
image evaluation (a non-ground node).  So ``automata.equiv_s`` and
``automata.enumerate_s`` cover every such call check_all makes, the
explanation's too; ``rir.image_s`` is the self time of image evaluation,
without the ground evaluation inside it; ``rir.image_states`` counts the
states of every pair of automata compared.

A span has a name, start, end, parent span and trace id; spans stay in
memory and are written to ``spans.jsonl`` in the corpus directory when
the run ends.  A span's layer is the part of its name before the first
dot, and its self time is its duration minus its children's, so the
layers' self times add up to the traced ``check_all`` exactly.

Once per run, the pass times loading the location database, parsing and
compiling the spec, draining ``load_fecs`` (JSON and validation),
``check_all`` at two workers, rendering, and ``rela.cli.main`` in
process.  Then it repeats rounds while another fits in ``--seconds``.  A
round is one untraced ``check_all`` at one worker, fed by a generator
that timestamps each pull and watched by GC callbacks, then the traced
call.  Round metrics are medians over rounds.

The layers' self times add up to the traced call, so they account for
the untraced ``check_all`` up to the tracing overhead.  Two whole calls
are too far apart to measure that overhead: the machine's speed can
drift by more between them.  So ``trace.overhead_share`` comes from
pairs: every FEC goes through check_all's per-FEC step twice in a row,
once traced and once not, in alternating order, and the share is the
traced sum over the untraced sum, less one.  Above
``ACCOUNTING_BOUND`` the run is marked incorrect.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import statistics
import time
from contextlib import contextmanager

import rela.checker
from rela import (CheckOptions, Granularity, LocationDb, check_all,
                  compile_program, load_fecs, parse_program, report_to_json,
                  report_to_text)
from rela import cli, rir

# The traced check_all may take at most this share longer than the
# untraced one, so that its layers' self times account for it.
ACCOUNTING_BOUND = 0.10


class Tracer:
    """Spans in memory, one tuple each: id, parent, name, trace, start, end.

    A span is begun and ended explicitly.  `end(keep=False)` drops a
    span that turned out to have done no work; it has no children then,
    so it is the last span recorded.
    """

    def __init__(self):
        self.spans: list = []
        self.open: list = []

    @property
    def innermost(self) -> str:
        return self.open[-1][2] if self.open else ""

    def begin(self, name: str, trace: str = "") -> None:
        spans, open_ = self.spans, self.open
        if open_:
            parent = open_[-1]
            entry = (len(spans), parent[0], name, trace or parent[3])
        else:
            entry = (len(spans), None, name, trace)
        spans.append(None)
        open_.append((*entry, time.perf_counter()))

    def end(self, keep: bool = True) -> None:
        end = time.perf_counter()
        sid, parent, name, trace, start = self.open.pop()
        if keep or len(self.spans) > sid + 1:
            self.spans[sid] = (sid, parent, name, trace, start, end)
        else:
            self.spans.pop()

    @contextmanager
    def span(self, name: str, trace: str = ""):
        self.begin(name, trace)
        try:
            yield
        finally:
            self.end()

    def total(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self.spans if s[2] == name)

    def self_times(self, root: int) -> dict:
        """Self time per span name over the tree under span `root`."""
        own = {s[0]: s[5] - s[4] for s in self.spans[root:]}
        names = {root: self.spans[root][2]}
        for sid, parent, name, _, start, end in self.spans[root + 1:]:
            if parent is not None and parent in names:
                names[sid] = name
                own[parent] -= end - start
        result: dict = {}
        for sid, name in names.items():
            result[name] = result.get(name, 0.0) + own[sid]
        return result

    def write(self, fh) -> None:
        for sid, parent, name, trace, start, end in self.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "trace": trace, "start": start,
                                 "end": end}) + "\n")


class _Counts:
    """Sizes the wrappers see during one traced call."""

    def __init__(self):
        self.fsa_states = 0
        self.image_states = 0
        self.ground_nodes = 0


def _timed(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(args, out)
        return out
    return wrapper


def _evaluator(tracer: Tracer, counts: _Counts):
    """rir.Evaluator, with spans for ground misses and image evaluation.

    A ground node gets a `rir.ground` span, kept only if it added to the
    ground cache; a node object seen once is in the cache from then on,
    so later lookups go untimed.  A non-ground node outside an open
    `rir.image` span opens one.  Ground evaluation inside an image is a
    child span, so `rir.image` self time excludes it.
    """
    base = rir.Evaluator
    cached: set = set()

    class TracedEvaluator(base):
        def _traced(self, evaluate, node):
            innermost = tracer.innermost
            if node.ground:
                if id(node) in cached or innermost == "rir.ground":
                    return evaluate(node)
                before = len(self._ground)
                tracer.begin("rir.ground")
                try:
                    return evaluate(node)
                finally:
                    added = len(self._ground) - before
                    counts.ground_nodes += added
                    cached.add(id(node))
                    tracer.end(keep=added > 0)
            if innermost == "rir.image":
                return evaluate(node)
            tracer.begin("rir.image")
            try:
                return evaluate(node)
            finally:
                tracer.end()

        def pathset(self, p):
            return self._traced(super().pathset, p)

        def rel(self, r):
            return self._traced(super().rel, r)

    return TracedEvaluator


@contextmanager
def traced_checker(tracer: Tracer, counts: _Counts, evaluator=None):
    """Swap rela.checker's callees for timed wrappers while in the block.

    `evaluator` is a class from `_evaluator`, to reuse across blocks.
    """
    checker = rela.checker

    def acceptors_seen(args, out):
        counts.fsa_states += out[0].num_states + out[1].num_states

    def images_seen(args, out):
        counts.image_states += args[0].num_states + args[1].num_states

    def fec_span(program, index, item, options, cache):
        tracer.begin("checker.fec", getattr(item, "fec_id", ""))
        try:
            return process(program, index, item, options, cache)
        finally:
            tracer.end()

    process = checker._process_item
    patches = [
        (checker, "_process_item", fec_span),
        (checker, "fec_acceptors",
         _timed(tracer, "snapshot.acceptors", checker.fec_acceptors,
                acceptors_seen)),
        (checker, "fsa_equivalent",
         _timed(tracer, "automata.equiv", checker.fsa_equivalent,
                images_seen)),
        (checker, "_explain",
         _timed(tracer, "checker.explain", checker._explain)),
        (checker, "enumerate_shortest",
         _timed(tracer, "automata.enumerate", checker.enumerate_shortest)),
        (rir, "Evaluator", evaluator or _evaluator(tracer, counts)),
    ]
    saved = [(module, name, getattr(module, name))
             for module, name, _ in patches]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def measure_overhead(index, program, fecs) -> float:
    """The tracing overhead as a share of the untraced time; see above.

    Each FEC goes through the step once untimed first, so that neither
    timed run pays for filling the shared ground cache.
    """
    options = CheckOptions(workers=1)
    cache: dict = {}
    process = rela.checker._process_item
    tracer, counts = Tracer(), _Counts()
    evaluator = _evaluator(tracer, counts)
    plain = traced = 0.0
    for k, fec in enumerate(fecs):
        process(program, index, fec, options, cache)
        for on in ((False, True) if k % 2 else (True, False)):
            if on:
                with traced_checker(tracer, counts, evaluator):
                    start = time.perf_counter()
                    rela.checker._process_item(program, index, fec,
                                               options, cache)
                    traced += time.perf_counter() - start
            else:
                start = time.perf_counter()
                process(program, index, fec, options, cache)
                plain += time.perf_counter() - start
    return traced / plain - 1.0


def _children(node):
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, (rir.PathSetExpr, rir.RelExpr, rir.SpecExpr)):
            yield value


def tree_size(node) -> int:
    """Nodes in the expression tree, shared subtrees counted each time."""
    count, stack = 0, [node]
    while stack:
        n = stack.pop()
        count += 1
        stack.extend(_children(n))
    return count


def _compiled_specs(program):
    specs = [g.spec for g in program.guards]
    if program.default is not None:
        specs.append(program.default)
    return specs


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def load_stage(work: str, tracer: Tracer):
    """Front end, compiler and snapshot loading, each timed once."""
    m: dict = {}
    with tracer.span("frontend.load"):
        db = LocationDb.load(os.path.join(work, "locations.json"))
        index = db.build_index(Granularity.DEVICE)
    with tracer.span("frontend.parse"):
        with open(os.path.join(work, "change.spec"), encoding="utf-8") as fh:
            ast = parse_program(fh.read(), index)
    with tracer.span("compiler.compile"):
        program = compile_program(ast, index)
    m["compiler.rir_nodes"] = (
        sum(tree_size(c.top) for c in _compiled_specs(program)), "count")
    with tracer.span("snapshot.load"):
        fecs = list(load_fecs(os.path.join(work, "fecs.ndjson"), index))
    m["frontend.load_s"] = (tracer.total("frontend.load"), "s")
    m["frontend.parse_s"] = (tracer.total("frontend.parse"), "s")
    m["compiler.compile_s"] = (tracer.total("compiler.compile"), "s")
    load_s = tracer.total("snapshot.load")
    m["snapshot.load_s"] = (load_s, "s")
    m["snapshot.load_us_per_fec"] = (load_s / len(fecs) * 1e6, "us")
    return m, index, program, fecs


def once_stage(work: str, answer: dict, gate, tracer: Tracer, index,
               program, fecs):
    """Two workers, rendering and the in-process CLI, once each.

    Returns the metrics and the two-worker report as JSON, which every
    one-worker report must equal byte for byte.
    """
    m: dict = {}
    gc.collect()
    with tracer.span("checker.check_all.w2"):
        report = check_all(program, index, fecs, CheckOptions(workers=2))
    m["checker.check_s.w2"] = (tracer.total("checker.check_all.w2"), "s")
    rendered = report_to_json(report)
    gate.report("check_all w2", json.loads(rendered))

    with tracer.span("checker.render"):
        report_to_json(report)
        report_to_text(report)
    m["checker.render_s"] = (tracer.total("checker.render"), "s")

    gc.collect()
    out = os.path.join(work, "report-inprocess.json")
    with tracer.span("cli.main"):
        code = cli.main(["check",
                         "--spec", os.path.join(work, "change.spec"),
                         "--locations", os.path.join(work, "locations.json"),
                         "--fecs", os.path.join(work, "fecs.ndjson"),
                         "--workers", "1", "--output", out])
    m["cli.main_s"] = (tracer.total("cli.main"), "s")
    if code != answer["exit_code"]:
        gate.report("cli.main", None, f"exit code {code}")
    else:
        with open(out, encoding="utf-8") as fh:
            gate.report("cli.main", json.load(fh))
    return m, rendered


def check_round(answer: dict, gate, tracer: Tracer, index, program, fecs,
                expected_json: str):
    """One untraced and one traced check_all at one worker.

    Returns the round's metrics, and the untraced and traced seconds with
    the traced call's self time by span name.
    """
    def judge(report, label):
        rendered = report_to_json(report)
        if rendered != expected_json:
            gate.report(label, None, "report differs from the w2 report")
        else:
            gate.report(label, json.loads(rendered))

    # Per-FEC latency: at one worker check_all finishes an item before it
    # pulls the next, so the gap between two pulls is one item's cost.
    stamps: list = []

    def pulls():
        for fec in fecs:
            stamps.append(time.perf_counter())
            yield fec
        stamps.append(time.perf_counter())

    gc_state = {"start": 0.0, "total": 0.0, "gen2": 0}

    def on_gc(phase, info):
        if phase == "start":
            gc_state["start"] = time.perf_counter()
        else:
            gc_state["total"] += time.perf_counter() - gc_state["start"]
            gc_state["gen2"] += info["generation"] == 2

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        start = time.perf_counter()
        report = check_all(program, index, pulls(), CheckOptions(workers=1))
        untraced = time.perf_counter() - start
    finally:
        gc.callbacks.remove(on_gc)
    judge(report, "check_all w1")

    counts = _Counts()
    root = len(tracer.spans)
    gc.collect()
    with traced_checker(tracer, counts), tracer.span("checker.check_all.w1"):
        report = check_all(program, index, iter(fecs),
                           CheckOptions(workers=1))
    judge(report, "check_all w1, traced")
    traced = tracer.spans[root][5] - tracer.spans[root][4]
    by_name = tracer.self_times(root)

    cost = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    fail_cost = [c for fec, c in zip(fecs, cost)
                 if fec.fec_id in answer["failing"]]

    def inside(name):
        return sum(s[5] - s[4] for s in tracer.spans[root:] if s[2] == name)

    m = {
        "snapshot.acceptors_s": (inside("snapshot.acceptors"), "s"),
        "snapshot.fsa_states": (counts.fsa_states, "count"),
        "rir.ground_s": (by_name.get("rir.ground", 0.0), "s"),
        "rir.ground_nodes": (counts.ground_nodes, "count"),
        "rir.image_s": (by_name.get("rir.image", 0.0), "s"),
        "rir.image_states": (counts.image_states, "count"),
        "automata.equiv_s": (inside("automata.equiv"), "s"),
        "automata.enumerate_s": (inside("automata.enumerate"), "s"),
        "checker.explain_s": (inside("checker.explain"), "s"),
        "checker.check_s.w1": (untraced, "s"),
        "checker.fec_p50_ms": (statistics.median(cost), "ms"),
        "checker.fec_p99_ms": (_nearest_rank(cost, 0.99), "ms"),
        "checker.fail_p50_ms": (
            statistics.median(fail_cost) if fail_cost else 0.0, "ms"),
        "checker.fail_max_ms": (max(fail_cost, default=0.0), "ms"),
        "runtime.gc_s": (gc_state["total"], "s"),
        "runtime.gc_gen2": (gc_state["gen2"], "count"),
    }
    return m, (untraced, traced, by_name)


def run(work: str, answer: dict, seconds: float, gate) -> dict:
    start = time.perf_counter()
    tracer = Tracer()
    m, index, program, fecs = load_stage(work, tracer)
    once, expected_json = once_stage(work, answer, gate, tracer, index,
                                     program, fecs)
    m.update(once)

    gc.collect()
    overhead = measure_overhead(index, program, fecs)
    m["trace.overhead_share"] = (overhead, "ratio")
    print(f"tracing overhead {overhead:+.2%}, bound "
          f"{ACCOUNTING_BOUND:.0%}")
    if overhead > ACCOUNTING_BOUND:
        gate.note("trace", f"tracing overhead {overhead:+.2%} is over the "
                           f"bound {ACCOUNTING_BOUND:.0%}, so the layers' "
                           f"self times do not account for check_all")

    # Rounds repeat while another fits in the time left.
    rounds = []
    while True:
        round_start = time.perf_counter()
        rounds.append(check_round(answer, gate, tracer, index, program,
                                  fecs, expected_json))
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            break

    span_file = os.path.join(work, "spans.jsonl")
    with open(span_file, "w", encoding="utf-8") as fh:
        tracer.write(fh)
    print(f"rounds: {len(rounds)}; {len(tracer.spans)} spans in {span_file}")
    print("check_all w1 untraced and traced (s), and the traced call's "
          "self time by layer (s, share), per round:")
    for _, (untraced, traced, by_name) in rounds:
        layers: dict = {}
        for name, t in by_name.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + t
        print(f"  {untraced:.3f} {traced:.3f}: " + "  ".join(
            f"{k} {v:.3f} ({v / traced:.1%})"
            for k, v in sorted(layers.items())))
    for name, (_, unit) in rounds[0][0].items():
        m[name] = (statistics.median(r[name][0] for r, _ in rounds), unit)
    return m
