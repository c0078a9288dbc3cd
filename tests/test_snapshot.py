"""Traffic class, forwarding graph, coarsening and acceptor tests."""

import json
import random

import pytest

from rela.automata import enumerate_shortest
from rela.frontend import Granularity, LocationDb
from rela.snapshot import (
    Fec, FecError, ForwardingGraph, SnapshotError, TrafficClass,
    fec_acceptors, graph_to_fsa, iter_fec_lines, parse_fec,
)

from _fecgen import make_index, random_fec_dict
from _text import fec_to_line

DEVICES = [("x1", "X"), ("a1", "A"), ("a2", "A"), ("b1", "B"),
           ("d1", "D"), ("y1", "Y")]


def make_db():
    rows = []
    for device, group in DEVICES:
        for port in ("eth0", "eth1"):
            rows.append({"name": f"{device}:{port}", "device": device,
                         "group": group})
    return LocationDb.from_json(json.dumps(rows))


@pytest.fixture(scope="module")
def index():
    return make_db().build_index(Granularity.DEVICE)


def graph(nodes, edges, sources, sinks):
    return {"nodes": [{"id": i, "loc": loc} for i, loc in nodes],
            "edges": [list(e) for e in edges],
            "sources": list(sources), "sinks": list(sinks)}


def chain_graph(*locs):
    nodes = [(f"n{i}", loc) for i, loc in enumerate(locs)]
    edges = [[f"n{i}", f"n{i+1}"] for i in range(len(locs) - 1)]
    return graph(nodes, edges, ["n0"], [f"n{len(locs)-1}"])


def fec_obj(fec_id="f1", dst="10.0.0.0/24", src=None, pre=None, post=None):
    traffic = {"dstPrefix": dst}
    if src is not None:
        traffic["srcPrefix"] = src
    default = chain_graph("x1:eth0", "a1:eth0")
    return {"id": fec_id, "traffic": traffic,
            "pre": pre or default, "post": post or default}


def language(fsa, limit=50):
    listing = enumerate_shortest(fsa, limit)
    assert not listing.truncated
    return {" ".join(s.name for s in path) for path in listing.paths}


# ---------------------------------------------------------------------------
# parsing and validation


class TestParseFec:
    def test_valid(self, index):
        fec = parse_fec(fec_obj(src="0.0.0.0/0"), index)
        assert fec.fec_id == "f1"
        assert fec.traffic == TrafficClass("10.0.0.0/24", "0.0.0.0/0")
        assert fec.pre.nodes == ("n0", "n1")
        assert fec.pre.edges == (("n0", "n1"),)

    def test_missing_id(self, index):
        obj = fec_obj()
        del obj["id"]
        with pytest.raises(SnapshotError, match="line 7.*missing string 'id'"):
            parse_fec(obj, index, "line 7")

    def test_bad_dst_prefix(self, index):
        with pytest.raises(SnapshotError, match="f1.*bad dstPrefix"):
            parse_fec(fec_obj(dst="10.0.0.0/99"), index)

    def test_missing_traffic(self, index):
        obj = fec_obj()
        del obj["traffic"]
        with pytest.raises(SnapshotError, match="missing 'traffic'"):
            parse_fec(obj, index)

    def test_duplicate_node(self, index):
        bad = graph([("n0", "x1:eth0"), ("n0", "a1:eth0")], [],
                    ["n0"], ["n0"])
        with pytest.raises(SnapshotError, match="repeats node 'n0'"):
            parse_fec(fec_obj(pre=bad), index)

    def test_unknown_location(self, index):
        bad = chain_graph("x1:eth0", "zz:eth9")
        with pytest.raises(SnapshotError, match="unknown location 'zz:eth9'"):
            parse_fec(fec_obj(pre=bad), index)

    def test_edge_to_unknown_node(self, index):
        bad = graph([("n0", "x1:eth0")], [["n0", "n7"]], ["n0"], ["n0"])
        with pytest.raises(SnapshotError, match="unknown node 'n7'"):
            parse_fec(fec_obj(post=bad), index)

    def test_unknown_source(self, index):
        bad = graph([("n0", "x1:eth0")], [], ["n9"], ["n0"])
        with pytest.raises(SnapshotError, match="unknown node 'n9'.*sources"):
            parse_fec(fec_obj(pre=bad), index)

    @pytest.mark.parametrize("side,key,value", [
        ("pre", "edges", [[["n0"], "n1"]]),
        ("post", "sources", [{"a": 1}]),
        ("pre", "sinks", [["n1"]]),
    ])
    def test_node_reference_must_be_a_string(self, index, side, key, value):
        bad = dict(chain_graph("x1:eth0", "a1:eth0"), **{key: value})
        with pytest.raises(SnapshotError, match=f"{side} graph .*unknown"):
            parse_fec(fec_obj(**{side: bad}), index)

    def test_cycle(self, index):
        bad = graph([("n0", "x1:eth0"), ("n1", "a1:eth0")],
                    [["n0", "n1"], ["n1", "n0"]], ["n0"], ["n1"])
        with pytest.raises(SnapshotError, match="pre graph has a cycle"):
            parse_fec(fec_obj(pre=bad), index)

    def test_unreachable_node(self, index):
        bad = graph([("n0", "x1:eth0"), ("n1", "a1:eth0"),
                     ("n2", "a2:eth0")],
                    [["n0", "n1"], ["n2", "n1"]], ["n0"], ["n1"])
        with pytest.raises(SnapshotError, match="'n2' is unreachable"):
            parse_fec(fec_obj(pre=bad), index)

    def test_node_missing_sink_path(self, index):
        bad = graph([("n0", "x1:eth0"), ("n1", "a1:eth0"),
                     ("n2", "a2:eth0")],
                    [["n0", "n1"], ["n0", "n2"]], ["n0"], ["n1"])
        with pytest.raises(SnapshotError, match="'n2' cannot reach a sink"):
            parse_fec(fec_obj(pre=bad), index)

    def test_drop_must_be_sink(self, index):
        bad = graph([("n0", "drop"), ("n1", "a1:eth0")],
                    [["n0", "n1"]], ["n0"], ["n1"])
        with pytest.raises(SnapshotError, match="drop"):
            parse_fec(fec_obj(pre=bad), index)

    def test_drop_sink_accepted(self, index):
        good = chain_graph("x1:eth0", "drop")
        fec = parse_fec(fec_obj(pre=good), index)
        assert fec.pre.locs[-1] == "drop"

    def test_empty_sources(self, index):
        bad = graph([("n0", "x1:eth0")], [], [], ["n0"])
        with pytest.raises(SnapshotError, match="no sources"):
            parse_fec(fec_obj(pre=bad), index)


class TestIterFecLines:
    def test_mixed_stream(self, index):
        lines = [
            json.dumps(fec_obj("ok-1")),
            "",
            "not json",
            json.dumps(fec_obj("ok-2")),
            json.dumps(fec_obj("ok-1")),  # duplicate
            json.dumps({"id": "bad-graph", "traffic": {"dstPrefix": "10.0.0.0/8"},
                        "pre": {}, "post": {}}),
            json.dumps(fec_obj("bad-graph")),  # a failed line claims its id
            json.dumps(fec_obj("")),  # empty id
        ]
        out = list(iter_fec_lines(lines, index))
        assert [type(x).__name__ for x in out] == \
            ["Fec", "FecError", "Fec", "FecError", "FecError", "FecError",
             "FecError"]
        assert out[1].fec_id == "line 3"
        assert out[3].fec_id == "ok-1"
        assert "duplicate" in out[3].message
        assert out[4].fec_id == "bad-graph"
        assert out[5].fec_id == "bad-graph"
        assert "duplicate" in out[5].message
        assert out[6].fec_id == "line 8"


class TestCanonicalForm:
    def test_round_trip(self, index):
        obj = fec_obj("rt", src="192.168.0.0/16",
                      pre=chain_graph("x1:eth0", "a1:eth0", "d1:eth1"),
                      post=chain_graph("x1:eth0", "drop"))
        fec = parse_fec(obj, index)
        line = fec_to_line(fec)
        again = parse_fec(json.loads(line), index)
        assert again == fec
        assert fec_to_line(again) == line

    def test_canonical_field_order(self, index):
        fec = parse_fec(fec_obj(), index)
        line = fec_to_line(fec)
        assert line.startswith('{"id":"f1","traffic":{"dstPrefix":')
        assert '"pre":{"nodes":' in line


# ---------------------------------------------------------------------------
# coarsening


def parse_graph_dict(raw, index, side="pre"):
    obj = fec_obj(pre=raw)
    return parse_fec(obj, index).pre


def fields(fsa):
    return (fsa.num_states, fsa.initial, fsa.accepting, fsa.arcs,
            fsa.deterministic)


class TestCoarsen:
    def test_merges_interfaces_of_one_device(self, index):
        g = parse_graph_dict(
            chain_graph("x1:eth0", "x1:eth1", "a1:eth0", "a1:eth1",
                        "d1:eth0"), index)
        fsa = graph_to_fsa(g, index)
        sym = index.symbol_of
        assert fsa.num_states == 4
        assert fsa.arcs == (((sym["x1"], 1),), ((sym["a1"], 2),),
                            ((sym["d1"], 3),), ())
        assert fsa.accepting == frozenset({3})
        assert language(fsa) == {"x1 a1 d1"}

    def test_duplicate_edges_collapse(self, index):
        g = parse_graph_dict(graph(
            [("i", "x1:eth0"), ("o1", "a1:eth0"), ("o2", "a1:eth1"),
             ("t", "d1:eth0")],
            [["i", "o1"], ["i", "o2"], ["o1", "t"], ["o2", "t"]],
            ["i"], ["t"]), index)
        fsa = graph_to_fsa(g, index)
        sym = index.symbol_of
        assert fsa.num_states == 4
        assert fsa.arcs == (((sym["x1"], 1),), ((sym["a1"], 2),),
                            ((sym["d1"], 3),), ())
        assert fsa.accepting == frozenset({3})
        assert language(fsa) == {"x1 a1 d1"}

    def test_group_granularity(self):
        gi = make_db().build_index(Granularity.GROUP)
        g = parse_graph_dict(
            chain_graph("x1:eth0", "a1:eth1", "a2:eth0", "d1:eth0"), gi)
        fsa = graph_to_fsa(g, gi)
        assert fsa.num_states == 4
        assert fsa.accepting == frozenset({3})
        assert language(fsa) == {"X A D"}

    def test_device_revisit_is_an_error(self, index):
        g = parse_graph_dict(
            chain_graph("x1:eth0", "a1:eth0", "b1:eth0", "a1:eth1",
                        "d1:eth0"), index)
        with pytest.raises(SnapshotError) as got:
            graph_to_fsa(g, index, "f9", "pre")
        assert str(got.value) == \
            "FEC f9: pre graph coarsened to device granularity has a cycle"

    def test_drop_survives(self, index):
        g = parse_graph_dict(chain_graph("x1:eth0", "x1:eth1", "drop"),
                             index)
        fsa = graph_to_fsa(g, index)
        sym = index.symbol_of
        assert fsa.num_states == 3
        assert fsa.arcs == (((sym["x1"], 1),), ((sym["drop"], 2),), ())
        assert fsa.accepting == frozenset({2})
        assert language(fsa) == {"x1 drop"}


# ---------------------------------------------------------------------------
# acceptors


class TestGraphToFsa:
    def test_chain_language(self, index):
        g = parse_graph_dict(chain_graph("x1:eth0", "a1:eth0"), index)
        fsa = graph_to_fsa(g, index)
        assert language(fsa) == {"x1 a1"}

    def test_diamond_language(self, index):
        g = parse_graph_dict(graph(
            [("s", "x1:eth0"), ("l", "a1:eth0"), ("r", "b1:eth0"),
             ("t", "d1:eth0")],
            [["s", "l"], ["s", "r"], ["l", "t"], ["r", "t"]],
            ["s"], ["t"]), index)
        fsa = graph_to_fsa(g, index)
        assert language(fsa) == {"x1 a1 d1", "x1 b1 d1"}
        assert fsa.deterministic

    def test_dropped_path_language(self, index):
        g = parse_graph_dict(chain_graph("x1:eth0", "a1:eth0", "drop"),
                             index)
        fsa = graph_to_fsa(g, index)
        assert language(fsa) == {"x1 a1 drop"}

    def test_fec_acceptors(self, index):
        obj = fec_obj(pre=chain_graph("x1:eth0", "x1:eth1", "a1:eth0"),
                      post=chain_graph("x1:eth0", "drop"))
        fec = parse_fec(obj, index)
        pre, post = fec_acceptors(fec, index)
        assert language(pre) == {"x1 a1"}
        assert language(post) == {"x1 drop"}


def test_acceptors_read_only_universe_symbols():
    # rir.SnapshotPair relies on this instead of scanning every arc for
    # marker symbols: graph_to_fsa labels arcs with locations and drop.
    rng = random.Random(11)
    index = make_index(30, ports=2)
    devices = [f"d{i:04d}" for i in range(30)]
    for i in range(60):
        obj = random_fec_dict(rng, f"f{i}", devices)
        if i % 2:
            g = obj["post"]
            obj["post"] = dict(
                g, nodes=g["nodes"] + [{"id": "nd", "loc": "drop"}],
                edges=g["edges"] + [["n0", "nd"]],
                sinks=g["sinks"] + ["nd"])
        for fsa in fec_acceptors(parse_fec(obj, index), index):
            labels = {label for arcs in fsa.arcs for label, _ in arcs}
            assert labels - {None} <= index.universe


# ---------------------------------------------------------------------------
# coarsening round trip on forwarding-consistent interface expansions


def random_device_dag(rng):
    """A device-level DAG: distinct devices, sources=indegree 0, and
    every node both reachable and draining, which holds by construction
    when sources and sinks are the degree-zero vertices."""
    pool = [d for d, _ in DEVICES]
    n = rng.randint(1, len(pool))
    devices = rng.sample(pool, n)
    edges = []
    for j in range(1, n):
        targets = sorted(rng.sample(range(j), rng.randint(1, j)))
        for i in targets:
            edges.append((devices[i], devices[j]))
    if rng.random() < 0.3:
        feeders = rng.sample(devices, rng.randint(1, n))
        devices = devices + ["drop"]
        for f in sorted(feeders, key=devices.index):
            edges.append((f, "drop"))
    has_in = {v for _, v in edges}
    has_out = {u for u, _ in edges}
    sources = tuple(d for d in devices if d not in has_in)
    sinks = tuple(d for d in devices if d not in has_out)
    return ForwardingGraph(tuple(devices), tuple(devices), tuple(edges),
                           sources, sinks)


def expand_to_interfaces(g, rng):
    """Replace each device node with an in/out interface pair (or a
    single interface), keeping edge order.  Coarsening inverts it."""
    nodes, locs, edges = [], [], []
    inp, outp = {}, {}
    for device in g.nodes:
        if device == "drop":
            nodes.append(f"{device}.0")
            locs.append("drop")
            inp[device] = outp[device] = f"{device}.0"
        elif rng.random() < 0.5:
            nodes.append(f"{device}.0")
            locs.append(f"{device}:eth0")
            inp[device] = outp[device] = f"{device}.0"
        else:
            nodes.extend([f"{device}.i", f"{device}.o"])
            locs.extend([f"{device}:eth0", f"{device}:eth1"])
            inp[device], outp[device] = f"{device}.i", f"{device}.o"
            edges.append((f"{device}.i", f"{device}.o"))
    for u, v in g.edges:
        edges.append((outp[u], inp[v]))
    return ForwardingGraph(
        tuple(nodes), tuple(locs), tuple(edges),
        tuple(inp[s] for s in g.sources),
        tuple(outp[s] for s in g.sinks))


def test_coarsen_inverts_interface_expansion(index):
    rng = random.Random(20240812)
    for _ in range(200):
        device_graph = random_device_dag(rng)
        expanded = expand_to_interfaces(device_graph, rng)
        fsa = graph_to_fsa(expanded, index)
        assert fields(fsa) == fields(graph_to_fsa(device_graph, index))
        # determinize trusts the flag, so it must hold arc by arc
        assert fsa.deterministic
        for arcs in fsa.arcs:
            labels = [label for label, _ in arcs]
            assert len(labels) == len(set(labels))


def test_sink_expansion_uses_inbound_interface(index):
    # a sink's walk ends where traffic arrives; expansion must not strand
    # the out interface, so expand_to_interfaces marks the out port as
    # the sink and coarsening maps it back
    rng = random.Random(7)
    g = random_device_dag(rng)
    expanded = expand_to_interfaces(g, rng)
    assert fields(graph_to_fsa(expanded, index)) == \
        fields(graph_to_fsa(g, index))
