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

Graphs are coarsened to the granularity the run checks at, merging
every vertex of the same device (or group) into one, as they are
lowered to acceptors.
"""

from __future__ import annotations

import ipaddress
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Union

from .automata import Fsa
from .frontend import LocationIndex


class SnapshotError(ValueError):
    """A malformed traffic class or forwarding graph."""


@dataclass(frozen=True)
class TrafficClass:
    dst_prefix: str
    src_prefix: Optional[str] = None

    @cached_property
    def dst(self):
        return ipaddress.ip_network(self.dst_prefix, strict=False)

    @cached_property
    def src(self):
        if self.src_prefix is None:
            return None
        return ipaddress.ip_network(self.src_prefix, strict=False)


@dataclass(frozen=True)
class ForwardingGraph:
    nodes: tuple        # node ids, in input order
    locs: tuple         # location of nodes[i]
    edges: tuple        # (src id, dst id) pairs, in input order
    sources: tuple
    sinks: tuple


@dataclass(frozen=True)
class Fec:
    fec_id: str
    traffic: TrafficClass
    pre: ForwardingGraph
    post: ForwardingGraph


@dataclass(frozen=True)
class FecError:
    """A line that failed validation; checking continues past it."""

    fec_id: str
    message: str


def _err(fec_id: str, message: str) -> SnapshotError:
    return SnapshotError(f"FEC {fec_id}: {message}")


def _check_acyclic(nodes, out_edges, fec_id, side, what="graph"):
    indegree = {n: 0 for n in nodes}
    for u in nodes:
        for v in out_edges[u]:
            indegree[v] += 1
    queue = [n for n in nodes if indegree[n] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in out_edges[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                queue.append(v)
    if seen != len(nodes):
        raise _err(fec_id, f"{side} {what} has a cycle")


def _parse_graph(raw, side: str, fec_id: str,
                 index: LocationIndex) -> ForwardingGraph:
    if not isinstance(raw, dict):
        raise _err(fec_id, f"{side} graph must be an object")
    for key in ("nodes", "edges", "sources", "sinks"):
        if not isinstance(raw.get(key), list):
            raise _err(fec_id, f"{side} graph needs a {key!r} array")

    nodes, locs = [], []
    loc_by_id = {}
    for item in raw["nodes"]:
        if not isinstance(item, dict) or \
                not isinstance(item.get("id"), str) or \
                not isinstance(item.get("loc"), str):
            raise _err(fec_id, f"{side} graph node entries need "
                               "string 'id' and 'loc'")
        nid, loc = item["id"], item["loc"]
        if nid in loc_by_id:
            raise _err(fec_id, f"{side} graph repeats node {nid!r}")
        if index.lookup(loc) is None:
            raise _err(fec_id, f"{side} graph node {nid!r} has unknown "
                               f"location {loc!r}")
        loc_by_id[nid] = loc
        nodes.append(nid)
        locs.append(loc)
    if not nodes:
        raise _err(fec_id, f"{side} graph has no nodes")

    out_edges = {n: [] for n in nodes}
    edges = []
    for pair in raw["edges"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise _err(fec_id, f"{side} graph edges must be [src, dst] pairs")
        u, v = pair
        for n in (u, v):
            if not isinstance(n, str) or n not in loc_by_id:
                raise _err(fec_id, f"{side} graph edge references unknown "
                                   f"node {n!r}")
        out_edges[u].append(v)
        edges.append((u, v))

    for key in ("sources", "sinks"):
        if not raw[key]:
            raise _err(fec_id, f"{side} graph has no {key}")
        for n in raw[key]:
            if not isinstance(n, str) or n not in loc_by_id:
                raise _err(fec_id, f"{side} graph lists unknown node {n!r} "
                                   f"in {key}")
    sources = tuple(raw["sources"])
    sinks = tuple(raw["sinks"])
    sink_set = set(sinks)

    for nid, loc in loc_by_id.items():
        if loc == "drop":
            if nid not in sink_set:
                raise _err(fec_id, f"{side} graph puts location 'drop' on "
                                   f"non-sink node {nid!r}")
            if out_edges[nid]:
                raise _err(fec_id, f"{side} graph forwards past dropped "
                                   f"node {nid!r}")

    _check_acyclic(nodes, out_edges, fec_id, side)

    reached = set()
    stack = list(sources)
    while stack:
        u = stack.pop()
        if u in reached:
            continue
        reached.add(u)
        stack.extend(out_edges[u])
    if len(reached) != len(nodes):
        orphan = next(n for n in nodes if n not in reached)
        raise _err(fec_id, f"{side} graph node {orphan!r} is unreachable "
                           "from the sources")

    in_edges = {n: [] for n in nodes}
    for u, v in edges:
        in_edges[v].append(u)
    reaches_sink = set()
    stack = list(sinks)
    while stack:
        u = stack.pop()
        if u in reaches_sink:
            continue
        reaches_sink.add(u)
        stack.extend(in_edges[u])
    if len(reaches_sink) != len(nodes):
        stuck = next(n for n in nodes if n not in reaches_sink)
        raise _err(fec_id, f"{side} graph node {stuck!r} cannot reach "
                           "a sink")

    return ForwardingGraph(tuple(nodes), tuple(locs), tuple(edges),
                           sources, sinks)


def parse_fec(obj, index: LocationIndex, fallback_id: str = "?") -> Fec:
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
    for label, value in (("dstPrefix", dst), ("srcPrefix", src)):
        if value is None:
            continue
        try:
            ipaddress.ip_network(value, strict=False)
        except ValueError:
            raise _err(fec_id, f"bad {label} {value!r}")

    pre = _parse_graph(obj.get("pre"), "pre", fec_id, index)
    post = _parse_graph(obj.get("post"), "post", fec_id, index)
    return Fec(fec_id, TrafficClass(dst, src), pre, post)


def iter_fec_lines(lines: Iterable[str],
                   index: LocationIndex) -> Iterator[Union[Fec, FecError]]:
    """Parse NDJSON lines, yielding a Fec or a FecError per line."""
    seen = set()
    for n, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        fallback = f"line {n}"
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            yield FecError(fallback, f"invalid JSON: {e}")
            continue
        try:
            fec = parse_fec(obj, index, fallback)
        except SnapshotError as e:
            raw_id = obj.get("id") if isinstance(obj, dict) else None
            if isinstance(raw_id, str) and raw_id:
                seen.add(raw_id)
            else:
                raw_id = fallback
            yield FecError(raw_id, str(e))
            continue
        if fec.fec_id in seen:
            yield FecError(fec.fec_id, f"FEC {fec.fec_id}: duplicate id")
            continue
        seen.add(fec.fec_id)
        yield fec


def load_fecs(path: str,
              index: LocationIndex) -> Iterator[Union[Fec, FecError]]:
    with open(path, "r", encoding="utf-8") as fh:
        yield from iter_fec_lines(fh, index)


# ---------------------------------------------------------------------------
# Coarsening and lowering to an acceptor


def graph_to_fsa(g: ForwardingGraph, index: LocationIndex,
                 fec_id: str = "?", side: str = "") -> Fsa:
    """Coarsen a forwarding DAG to the run's granularity and lower it to
    an acceptor of its paths, in one walk.

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
    lookup = index.lookup
    state_of = {}       # symbol -> state
    labels = [None]     # symbol read on entering each state
    state = {}          # node id -> state
    for nid, loc in zip(g.nodes, g.locs):
        sym = lookup(loc)
        s = state_of.get(sym)
        if s is None:
            s = state_of[sym] = len(labels)
            labels.append(sym)
        state[nid] = s

    arcs: list[list] = [[] for _ in labels]
    succ: list[list] = [[] for _ in labels]
    seen = set()
    pairs = [(0, state[n]) for n in g.sources]
    pairs += [(state[u], state[v]) for u, v in g.edges]
    for su, sv in pairs:
        if su != sv and (su, sv) not in seen:
            seen.add((su, sv))
            arcs[su].append((labels[sv], sv))
            succ[su].append(sv)

    _check_acyclic(range(len(labels)), succ, fec_id, side,
                   what=f"graph coarsened to {index.granularity.value} "
                        "granularity")
    return Fsa(index.universe, len(labels), 0,
               frozenset(state[n] for n in g.sinks),
               tuple(tuple(a) for a in arcs), deterministic=True)


def fec_acceptors(fec: Fec, index: LocationIndex):
    """Coarsen and lower both sides; returns (pre, post) acceptors."""
    return (graph_to_fsa(fec.pre, index, fec.fec_id, "pre"),
            graph_to_fsa(fec.post, index, fec.fec_id, "post"))
