"""Forwarding snapshots: traffic classes and per-FEC forwarding DAGs.

The input is newline-delimited JSON, one forwarding equivalence class
per line::

    {"id": "fec-001",
     "traffic": {"dstPrefix": "10.0.0.0/24", "srcPrefix": "0.0.0.0/0"},
     "pre":  {"nodes": [{"id": "n0", "loc": "x1:eth0"}, ...],
              "edges": [["n0", "n1"], ...],
              "sources": ["n0"], "sinks": ["n2"]},
     "post": {...}}

Node locations are interface names from the location database or
coarse names at the run's granularity, plus the reserved location
"drop", which marks a black-holed endpoint and may only appear on
sinks.  Both graphs must be acyclic, every node reachable from a source
and able to reach a sink; a path of the FEC is the location sequence of
a source-to-sink walk, starting with the source's own location.

Loading checks a line's id and traffic and keeps its two graphs as raw
JSON; when the two are equal, both fields hold one shared object.
`read_line` parses one numbered line on its own, so lines can be parsed
anywhere, in pool workers too; `claim` then resolves ids in line order,
where a repeated id is an error.  `iter_fec_lines` is the two in
sequence.
`graph_to_fsa` checks a graph in the one walk that coarsens it to the
granularity the run checks at, merging every vertex of the same device
(or group) into one, and lowers it to an acceptor.  So a bad graph is
reported when its FEC is checked, not when it is loaded.  An unchanged
FEC is lowered once, and both sides get the same acceptor.
"""

from __future__ import annotations

import ipaddress
import json
from typing import Iterable, Iterator, Optional, Union

from .automata import Fsa, Record
from .frontend import LocationIndex


class SnapshotError(ValueError):
    """A malformed traffic class or forwarding graph."""


def _network(label: str, prefix: str):
    try:
        return ipaddress.ip_network(prefix, strict=False)
    except ValueError:
        raise ValueError(f"bad {label} {prefix!r}") from None


class TrafficClass(Record):
    """A flow's prefixes as written, and as the ip_network values `dst`
    and `src` (None without a source prefix) that guards test.  Raises
    ValueError naming the field when a prefix is not a network."""

    __slots__ = ("dst_prefix", "src_prefix", "dst", "src")
    _fields = ("dst_prefix", "src_prefix")

    def __init__(self, dst_prefix: str, src_prefix: Optional[str] = None):
        self.dst_prefix = dst_prefix
        self.src_prefix = src_prefix
        self.dst = _network("dstPrefix", dst_prefix)
        self.src = (None if src_prefix is None
                    else _network("srcPrefix", src_prefix))


class Fec(Record):
    """One traffic class and its two forwarding graphs, as raw JSON
    (`parse_fec` stores equal graphs as one object)."""

    __slots__ = ("fec_id", "traffic", "pre", "post")

    def __init__(self, fec_id: str, traffic: TrafficClass, pre: object,
                 post: object):
        self.fec_id = fec_id
        self.traffic = traffic
        self.pre = pre
        self.post = post


class FecError(Record):
    """A line that failed validation; checking continues past it."""

    __slots__ = ("fec_id", "message")

    def __init__(self, fec_id: str, message: str):
        self.fec_id = fec_id
        self.message = message


def _err(fec_id: str, message: str) -> SnapshotError:
    return SnapshotError(f"FEC {fec_id}: {message}")


def parse_fec(obj, index: LocationIndex, fallback_id: str = "?") -> Fec:
    """Check one line's id and traffic; the graphs stay raw JSON, to be
    checked against `index` when `fec_acceptors` lowers them.  An error
    names the line `fallback_id` when it has no usable id."""
    if not isinstance(obj, dict):
        raise _err(fallback_id, "each line must be a JSON object")
    fec_id = obj.get("id")
    if not isinstance(fec_id, str) or not fec_id:
        raise _err(fallback_id, "missing string 'id'")

    raw_traffic = obj.get("traffic")
    if not isinstance(raw_traffic, dict):
        raise _err(fec_id, "missing 'traffic' object")
    dst = raw_traffic.get("dstPrefix")
    if not isinstance(dst, str):
        raise _err(fec_id, "traffic needs a string 'dstPrefix'")
    src = raw_traffic.get("srcPrefix")
    if src is not None and not isinstance(src, str):
        raise _err(fec_id, "'srcPrefix' must be a string when present")
    try:
        traffic = TrafficClass(dst, src)
    except ValueError as e:
        raise _err(fec_id, str(e))
    pre, post = obj.get("pre"), obj.get("post")
    if post == pre:
        post = pre      # one object: pickled once, compared in O(1)
    return Fec(fec_id, traffic, pre, post)


def read_line(n: int, line: str | bytes, index: LocationIndex):
    """Parse line `n` of an NDJSON stream: None for a blank line, else
    (raw id, Fec or FecError).  The raw id is the line's `id` when that
    is a non-empty string, else None, and then an error names the line
    `line n`.  The line is parsed whether or not its id is taken; see
    `claim`.

    A line may be text or a raw line of a binary file, which ends at the
    newline byte alone; a line that is not UTF-8 is an error entry.
    `index` is the table the graphs are checked against when lowered.
    """
    text = line.strip()
    if not text:
        return None
    fallback = f"line {n}"
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an
        # integer past the int-to-str digit limit; RecursionError is
        # nesting deeper than the decoder's limit
        return None, FecError(fallback, f"invalid JSON: {e}")
    raw_id = obj.get("id") if isinstance(obj, dict) else None
    if not isinstance(raw_id, str) or not raw_id:
        raw_id = None
    try:
        return raw_id, parse_fec(obj, index, fallback)
    except SnapshotError as e:
        return raw_id, FecError(raw_id or fallback, str(e))


def claim(seen: set, raw_id: Optional[str], outcome):
    """`outcome` for a line with id `raw_id`, unless an earlier line took
    that id; `seen` holds the ids taken so far.  Lines claim in line
    order, each before anything else about it counts, so a later line
    with the id is a duplicate even if the first one failed.  A line
    without an id (`raw_id` None) takes none."""
    if raw_id is None:
        return outcome
    if raw_id in seen:
        return FecError(raw_id, f"FEC {raw_id}: duplicate id")
    seen.add(raw_id)
    return outcome


def iter_fec_lines(lines: Iterable[str | bytes],
                   index: LocationIndex) -> Iterator[Union[Fec, FecError]]:
    """Parse NDJSON lines with `read_line`, numbered from 1, yielding a
    Fec or a FecError per line that is not blank; ids are claimed in
    line order (`claim`)."""
    seen: set = set()
    for n, line in enumerate(lines, start=1):
        read = read_line(n, line, index)
        if read is not None:
            yield claim(seen, *read)


def load_fecs(path: str,
              index: LocationIndex) -> Iterator[Union[Fec, FecError]]:
    """`iter_fec_lines` over the lines of the file at `path`."""
    with open(path, "rb") as fh:
        yield from iter_fec_lines(fh, index)


# ---------------------------------------------------------------------------
# Checking, coarsening and lowering to an acceptor


def _topological(nodes, succ) -> Optional[list]:
    """`nodes` with each before its successors, or None on a cycle."""
    indegree = dict.fromkeys(nodes, 0)
    for u in indegree:
        for v in succ[u]:
            indegree[v] += 1
    stack = [n for n, d in indegree.items() if d == 0]
    order = []
    while stack:
        u = stack.pop()
        order.append(u)
        for v in succ[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                stack.append(v)
    return order if len(order) == len(indegree) else None


def graph_to_fsa(raw, index: LocationIndex,
                 fec_id: str = "?", side: str = "") -> Fsa:
    """Check a raw forwarding graph against `index`, coarsen it to the
    run's granularity and lower it to an acceptor of its paths, in one
    walk that resolves each node's location once.  A graph that breaks
    the input format raises SnapshotError naming `fec_id` and `side`.

    Every vertex of one coarse entity (device or group) becomes one
    state, numbered from 1 in order of first appearance; state 0 is a
    fresh start state.  Entering a state reads its coarse location, so a
    path spells the full location sequence, source included, and sinks
    accept.  Self edges vanish and repeated arcs keep their first
    occurrence, so repeated interface hops inside one device become a
    single visit.  Each state stands for one symbol, so the acceptor is
    deterministic.  A merge that creates a cycle is reported as an
    error: the forwarding walk would revisit a device, which run
    granularity cannot express.
    """
    def err(message: str) -> SnapshotError:
        return _err(fec_id, f"{side} graph {message}")

    if not isinstance(raw, dict):
        raise err("must be an object")
    for key in ("nodes", "edges", "sources", "sinks"):
        if not isinstance(raw.get(key), list):
            raise err(f"needs a {key!r} array")

    lookup = index.lookup
    state = {}          # node id -> state
    state_of = {}       # symbol -> state
    labels = [None]     # symbol read on entering each state
    dropped = []        # nodes at location drop
    for item in raw["nodes"]:
        if not isinstance(item, dict) or \
                not isinstance(item.get("id"), str) or \
                not isinstance(item.get("loc"), str):
            raise err("node entries need string 'id' and 'loc'")
        nid, loc = item["id"], item["loc"]
        if nid in state:
            raise err(f"repeats node {nid!r}")
        sym = lookup(loc)
        if sym is None:
            raise err(f"node {nid!r} has unknown location {loc!r}")
        if loc == "drop":
            dropped.append(nid)
        s = state_of.get(sym)
        if s is None:
            s = state_of[sym] = len(labels)
            labels.append(sym)
        state[nid] = s
    if not state:
        raise err("has no nodes")

    out = {n: [] for n in state}    # node id -> successor node ids
    pairs = []                      # state pairs of the edges, in order
    for pair in raw["edges"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise err("edges must be [src, dst] pairs")
        u, v = pair
        for n in (u, v):
            if not isinstance(n, str) or n not in state:
                raise err(f"edge references unknown node {n!r}")
        out[u].append(v)
        pairs.append((state[u], state[v]))

    for key in ("sources", "sinks"):
        if not raw[key]:
            raise err(f"has no {key}")
        for n in raw[key]:
            if not isinstance(n, str) or n not in state:
                raise err(f"lists unknown node {n!r} in {key}")
    sources, sinks = raw["sources"], set(raw["sinks"])
    for nid in dropped:
        if nid not in sinks:
            raise err(f"puts location 'drop' on non-sink node {nid!r}")
        if out[nid]:
            raise err(f"forwards past dropped node {nid!r}")

    order = _topological(state, out)
    if order is None:
        raise err("has a cycle")
    reached = set(sources)
    for u in order:
        if u in reached:
            reached.update(out[u])
    drains = set(sinks)
    for u in reversed(order):
        if not drains.isdisjoint(out[u]):
            drains.add(u)
    for good, what in ((reached, "is unreachable from the sources"),
                       (drains, "cannot reach a sink")):
        for n in state:
            if n not in good:
                raise err(f"node {n!r} {what}")

    arcs: list[list] = [[] for _ in labels]
    succ: list[list] = [[] for _ in labels]
    seen = set()
    for su, sv in [(0, state[n]) for n in sources] + pairs:
        if su != sv and (su, sv) not in seen:
            seen.add((su, sv))
            arcs[su].append((labels[sv], sv))
            succ[su].append(sv)
    # With no two nodes merged, the coarse graph is the node graph plus
    # state 0, which has no in-arcs, so it is acyclic already.
    if len(labels) != len(state) + 1 and \
            _topological(range(len(labels)), succ) is None:
        raise err(f"coarsened to {index.granularity.value} granularity "
                  "has a cycle")
    return Fsa(len(labels), 0, frozenset(state[n] for n in sinks),
               tuple(tuple(a) for a in arcs), deterministic=True)


def fec_acceptors(fec: Fec, index: LocationIndex):
    """Check, coarsen and lower both sides; returns (pre, post) acceptors.
    The pre side goes first, so its error wins when both sides are bad.
    An unchanged FEC (`post == pre`) is lowered once and gets the same
    `Fsa` on both sides; the test is O(1) when the loader shared the
    graph."""
    pre = graph_to_fsa(fec.pre, index, fec.fec_id, "pre")
    if fec.post == fec.pre:
        return pre, pre
    return pre, graph_to_fsa(fec.post, index, fec.fec_id, "post")
