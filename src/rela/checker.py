"""Checking forwarding changes against a compiled specification.

`check_fec` is the one place a FEC is judged.  It checks and lowers both
forwarding graphs and decides image(pre, Rpre) == image(post, Rpost) by
automaton equivalence; two identity images are the intersections
pre n Z and post n Z'.  An unchanged FEC has one acceptor for both
sides, so when the two zones are one object too, the sides agree
without a walk; a spec whose relations differ still walks.  A failure
is explained from built images: the arms are replayed in priority order
to find the one to blame, and the shortest paths on which the sides
disagree are listed.
`check_all` picks each FEC's spec, runs `check_fec` over a stream of
FECs or raw NDJSON lines, optionally on a process pool whose workers
parse the lines too, and aggregates a deterministic report.
"""

from __future__ import annotations

import bisect
import json
from operator import attrgetter
from typing import Iterable, Optional, Union

from . import rir
from .automata import (PathList, Record, enumerate_shortest, fsa_difference,
                       fsa_equivalent, fsa_intersect, intersects, substitute)
from .compiler import CompiledProgram, CompiledSpec
from .frontend import LocationIndex, match_predicate
from .snapshot import (Fec, FecError, SnapshotError, TrafficClass, claim,
                       fec_acceptors, read_line)

PASS = "pass"
FAIL = "fail"
UNMATCHED = "unmatched"
ERROR = "error"


class CheckOptions(Record):
    """Knobs for a checking run.

    `max_counterexamples` bounds the counterexamples the report lists
    (the per-arm tallies still count every failure).
    """

    __slots__ = ("max_counterexamples", "workers", "strict")

    def __init__(self, max_counterexamples: int = 100, workers: int = 1,
                 strict: bool = False):
        self.max_counterexamples = max_counterexamples
        self.workers = workers
        self.strict = strict


class FecVerdict(Record):
    """The outcome of judging one FEC: pass, fail, or unmatched."""

    __slots__ = ("fec_id", "status", "guard")

    def __init__(self, fec_id: str, status: str, guard: str = ""):
        self.fec_id = fec_id
        self.status = status
        self.guard = guard


class Counterexample(Record):
    """Why one FEC failed, localized to the highest-priority broken arm.

    `expected` is the image of the pre-change paths under that arm's
    pre-side relation; `observed` is the post side's own claim.  `missing`
    and `unexpected` are the two sides of the whole-spec symmetric
    difference.  All listings are concrete paths; marker symbols used
    internally by `any(...)` are rewritten back before rendering.
    """

    __slots__ = ("fec_id", "traffic", "guard", "violated_subspec",
                 "pre_paths", "post_paths", "expected", "observed",
                 "missing", "unexpected", "note")

    def __init__(self, fec_id: str, traffic: TrafficClass, guard: str,
                 violated_subspec: str, pre_paths: PathList,
                 post_paths: PathList, expected: PathList,
                 observed: PathList, missing: PathList,
                 unexpected: PathList, note: str = ""):
        self.fec_id = fec_id
        self.traffic = traffic
        self.guard = guard
        self.violated_subspec = violated_subspec
        self.pre_paths = pre_paths
        self.post_paths = post_paths
        self.expected = expected
        self.observed = observed
        self.missing = missing
        self.unexpected = unexpected
        self.note = note


class Report(Record):
    """Aggregate over a run: totals, per-arm tallies, bounded listings.

    Deterministic for fixed inputs and options: counterexamples and errors
    are sorted by FEC id and capped after sorting, so the report does not
    depend on arrival order or on the number of workers.
    """

    __slots__ = ("verdict", "totals", "per_subspec", "counterexamples",
                 "counterexamples_truncated", "errors", "metadata")

    def __init__(self, verdict: str, totals: dict, per_subspec: dict,
                 counterexamples: tuple, counterexamples_truncated: bool,
                 errors: tuple, metadata: dict):
        self.verdict = verdict
        self.totals = totals
        self.per_subspec = per_subspec
        self.counterexamples = counterexamples
        self.counterexamples_truncated = counterexamples_truncated
        self.errors = errors
        self.metadata = metadata


class StrictInputError(Exception):
    """Raised in strict mode when an input line fails validation."""

    def __init__(self, error: FecError):
        named = error.message.startswith(f"FEC {error.fec_id}: ")
        super().__init__(error.message if named
                         else f"{error.fec_id}: {error.message}")
        self.error = error


# ---------------------------------------------------------------------------
# Spec selection and single-FEC checking


def select_spec(program: CompiledProgram,
                traffic: TrafficClass):
    """Return (label, spec) for the first guard the traffic matches.

    Falls back to the default spec; (\"\", None) when nothing applies.
    """
    for g in program.guards:
        if match_predicate(g.predicate, traffic):
            return g.name, g.spec
    if program.default is not None:
        return program.default.name, program.default
    return "", None


def check_fec(c: CompiledSpec, f: Fec, index: LocationIndex,
              ground_cache: Optional[dict] = None, limit: int = 100,
              guard: str = "") -> tuple[FecVerdict, Optional[Counterexample]]:
    """Judge one FEC against one compiled spec, explaining a failure.

    Returns (verdict, counterexample), the counterexample None on a pass.
    `_agree` decides the equation; images are built only to explain a
    failure.  `limit` bounds each path listing; `guard` labels the verdict
    (the spec's own name by default).  Raises SnapshotError when a graph,
    checked here against `index`, is malformed or cannot be coarsened.
    """
    guard = guard or c.name
    pre, post = fec_acceptors(f, index)
    ev = rir.Evaluator(pre, post, index.table.others, ground_cache)
    if _agree(ev, c.top.left, c.top.right):
        return FecVerdict(f.fec_id, PASS, guard), None
    cx = _explain(c, f.fec_id, f.traffic, ev, guard, limit)
    return FecVerdict(f.fec_id, FAIL, guard), cx


def _agree(ev: rir.Evaluator, left: rir.Image, right: rir.Image) -> bool:
    """Whether the pre-change image `left` equals the post-change `right`.
    img(S, I(Z)) is S n Z, so two identity images are the intersections
    of each snapshot with its zone; they are equal without a walk when
    the snapshots and the zones are one object each, as for an unchanged
    FEC under a shared zone.  A zone both sides share as one object is
    looked up once.  Other images are built by the evaluator."""
    rpre, rpost = left.rel, right.rel
    if isinstance(rpre, rir.Identity) and isinstance(rpost, rir.Identity):
        zone = ev.pathset(rpre.source)
        other = (zone if rpost.source is rpre.source
                 else ev.pathset(rpost.source))
        if ev.pre is ev.post and zone is other:
            return True
        return fsa_equivalent(fsa_intersect(ev.pre, zone),
                              fsa_intersect(ev.post, other))
    return fsa_equivalent(ev.pathset(left), ev.pathset(right))


def _explain(c: CompiledSpec, fec_id: str, traffic: TrafficClass,
             ev: rir.Evaluator, guard: str, limit: int) -> Counterexample:
    """Localize a failed equation `c.top` and list its paths.

    `missing` and `unexpected` are the two directed differences.  They
    are taken before markers are replaced by their path sets, so an `any`
    family that moved as one block stays a single agreement, not a diff.
    """
    left = ev.pathset(c.top.left)
    right = ev.pathset(c.top.right)
    marker_langs = {b.symbol: ev.pathset(b.pathset) for b in c.markers}

    def listing(fsa) -> PathList:
        return enumerate_shortest(substitute(fsa, marker_langs), limit)

    missing = listing(fsa_difference(left, right))
    unexpected = listing(fsa_difference(right, left))

    # Walk arms in priority order, looking first at arms the pre-change
    # paths enter, then at arms only the post-change paths reach (new
    # paths showing up where nothing was before).  Because the whole
    # relation is the union of the arm relations, a failing equation
    # always has a differing arm, and its zone overlaps one snapshot.
    sides = [(sub, rir.Image(rir.PreState(), sub.rpre),
              rir.Image(rir.PostState(), sub.rpost)) for sub in c.subspecs]
    label, exp, obs, note = next(
        ((sub.label, ev.pathset(exp), ev.pathset(obs), "")
         for snapshot in (ev.pre, ev.post) for sub, exp, obs in sides
         if intersects(snapshot, ev.pathset(sub.zone))
         and not _agree(ev, exp, obs)),
        (c.name, left, right, "no arm's zone matches this traffic"))

    return Counterexample(
        fec_id=fec_id,
        traffic=traffic,
        guard=guard,
        violated_subspec=label,
        pre_paths=listing(ev.pre),
        post_paths=listing(ev.post),
        expected=listing(exp),
        observed=listing(obs),
        missing=missing,
        unexpected=unexpected,
        note=note,
    )


# ---------------------------------------------------------------------------
# Whole-run driver

# `_process_item` judges one FEC into one of:
#   FecError                      (bad input line, or a graph is bad)
#   (FecVerdict, None)            (pass or unmatched)
#   (FecVerdict, Counterexample)  (fail, with its explanation)


def _process_item(program: CompiledProgram, index: LocationIndex,
                  item: Union[Fec, FecError], options: CheckOptions,
                  ground_cache: dict):
    if isinstance(item, FecError):
        return item
    guard, spec = select_spec(program, item.traffic)
    try:
        if spec is None:
            # a bad graph is an error whether or not a spec applies
            fec_acceptors(item, index)
            return FecVerdict(item.fec_id, UNMATCHED), None
        return check_fec(spec, item, index, ground_cache, guard=guard)
    except SnapshotError as e:
        return FecError(item.fec_id, str(e))


def _judge(program: CompiledProgram, index: LocationIndex, n: int,
           item: Union[str, bytes, Fec, FecError], options: CheckOptions,
           ground_cache: dict):
    """Item `n` of `check_all`'s stream: None for a blank line, else the
    raw id for `claim` (None unless the item is a raw line) and what
    `_process_item` made of it.  A raw line is parsed here, so at more
    than one worker the workers parse, not the parent."""
    raw_id = None
    if isinstance(item, (str, bytes)):
        read = read_line(n, item, index)
        if read is None:
            return None
        raw_id, item = read
    return raw_id, _process_item(program, index, item, options, ground_cache)


_WORK = None


def _init_worker(program, index, options):
    global _WORK
    _WORK = (program, index, options, {})


def _run_item(numbered):
    program, index, options, cache = _WORK
    n, item = numbered
    return _judge(program, index, n, item, options, cache)


def check_all(program: CompiledProgram, index: LocationIndex,
              items: Iterable[Union[str, bytes, Fec, FecError]],
              options: Optional[CheckOptions] = None,
              metadata: Optional[dict] = None) -> Report:
    """Check every FEC and aggregate a deterministic report.

    `items` is consumed lazily, so it can stream straight from a file.
    An item is a raw NDJSON line (text, or bytes as a binary file yields
    them) or an already parsed Fec or FecError.  Items are numbered from
    1, blank lines included, so a line without a usable id is named
    `line N` by its line number.  Raw lines are parsed where they are
    judged, in the workers when there are several, and the parent
    resolves their ids in line order as `iter_fec_lines` does: a
    repeated id is an error.  Parsed items are taken as they are.
    Input errors become report entries unless `options.strict`, which
    raises StrictInputError at the first one in line order.

    At one worker each item is judged before the next is pulled.
    """
    options = options if options is not None else CheckOptions()
    cap = max(options.max_counterexamples, 0)
    totals = {PASS: 0, FAIL: 0, UNMATCHED: 0, ERROR: 0}
    per_subspec: dict = {}
    kept = []           # the `cap` smallest fec ids seen so far, sorted
    errors = []
    seen: set = set()   # ids claimed so far, in line order

    def take(judged):
        if judged is None:
            return
        out = claim(seen, *judged)
        if isinstance(out, FecError):
            if options.strict:
                raise StrictInputError(out)
            errors.append(out)
            totals[ERROR] += 1
            return
        verdict, cx = out
        totals[verdict.status] += 1
        if cx is not None:
            key = f"{cx.guard}/{cx.violated_subspec}"
            per_subspec[key] = per_subspec.get(key, 0) + 1
            bisect.insort(kept, cx, key=attrgetter("fec_id"))
            if len(kept) > cap:
                kept.pop()

    numbered = enumerate(items, start=1)
    if options.workers > 1:
        import multiprocessing  # only here: importing it slows start-up
        with multiprocessing.Pool(options.workers,
                                  initializer=_init_worker,
                                  initargs=(program, index, options)) as pool:
            for judged in pool.imap(_run_item, numbered, chunksize=16):
                take(judged)
    else:
        cache: dict = {}
        for n, item in numbered:
            take(_judge(program, index, n, item, options, cache))

    errors.sort(key=attrgetter("fec_id"))
    truncated = totals[FAIL] > len(kept)

    if totals[FAIL]:
        verdict = FAIL
    elif totals[ERROR]:
        verdict = ERROR
    else:
        verdict = PASS
    return Report(verdict, totals, per_subspec, tuple(kept), truncated,
                  tuple(errors), dict(metadata or {}))


# ---------------------------------------------------------------------------
# Rendering


def _pathlist_json(pl: PathList) -> dict:
    return {"paths": pl.render(), "truncated": pl.truncated}


def counterexample_to_json_dict(cx: Counterexample) -> dict:
    traffic = {"dstPrefix": cx.traffic.dst_prefix}
    if cx.traffic.src_prefix is not None:
        traffic["srcPrefix"] = cx.traffic.src_prefix
    return {
        "fec_id": cx.fec_id,
        "traffic": traffic,
        "guard": cx.guard,
        "violated_subspec": cx.violated_subspec,
        "pre_paths": _pathlist_json(cx.pre_paths),
        "post_paths": _pathlist_json(cx.post_paths),
        "expected": _pathlist_json(cx.expected),
        "observed": _pathlist_json(cx.observed),
        "missing": _pathlist_json(cx.missing),
        "unexpected": _pathlist_json(cx.unexpected),
        "note": cx.note,
    }


def report_to_json_dict(report: Report) -> dict:
    return {
        "verdict": report.verdict,
        "totals": dict(sorted(report.totals.items())),
        "per_subspec": dict(sorted(report.per_subspec.items())),
        "counterexamples": [counterexample_to_json_dict(cx)
                            for cx in report.counterexamples],
        "counterexamples_truncated": report.counterexamples_truncated,
        "errors": [{"fec_id": e.fec_id, "message": e.message}
                   for e in report.errors],
        "metadata": dict(sorted(report.metadata.items())),
    }


def report_to_json(report: Report) -> str:
    return json.dumps(report_to_json_dict(report), indent=2, sort_keys=True)


def _set_text(pl: PathList) -> str:
    inner = ", ".join(p or "()" for p in pl.render())
    if pl.truncated:
        inner = inner + ", ..." if inner else "..."
    return "{" + inner + "}"


def report_to_text(report: Report) -> str:
    t = report.totals
    lines = [f"verdict: {report.verdict}",
             f"checked: {sum(t.values())}  pass: {t[PASS]}  fail: {t[FAIL]}"
             f"  unmatched: {t[UNMATCHED]}  error: {t[ERROR]}"]
    if report.per_subspec:
        lines.append("violations by sub-spec:")
        for key in sorted(report.per_subspec):
            lines.append(f"  {key}: {report.per_subspec[key]}")
    for cx in report.counterexamples:
        traffic = f"dst {cx.traffic.dst_prefix}"
        if cx.traffic.src_prefix is not None:
            traffic += f" src {cx.traffic.src_prefix}"
        lines.append("")
        lines.append(f"FEC {cx.fec_id}  ({traffic})")
        lines.append(f"  guard: {cx.guard}  violated arm: "
                     f"{cx.violated_subspec}")
        if cx.note:
            lines.append(f"  note: {cx.note}")
        lines.append(f"  pre paths:  {_set_text(cx.pre_paths)}")
        lines.append(f"  post paths: {_set_text(cx.post_paths)}")
        lines.append(f"  expected:   {_set_text(cx.expected)}")
        lines.append(f"  observed:   {_set_text(cx.observed)}")
        lines.append(f"  missing:    {_set_text(cx.missing)}")
        lines.append(f"  unexpected: {_set_text(cx.unexpected)}")
    if report.counterexamples_truncated:
        lines.append("")
        lines.append("counterexample list truncated")
    if report.errors:
        lines.append("")
        lines.append("input errors:")
        for e in report.errors:
            lines.append(f"  {e.fec_id}: {e.message}")
    return "\n".join(lines) + "\n"
