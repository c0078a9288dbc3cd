"""Traffic class, forwarding graph, coarsening and acceptor tests."""

import json
import random

import pytest

import rela.snapshot
from rela.automata import enumerate_shortest
from rela.checker import CheckOptions, check_all
from rela.compiler import compile_program
from rela.frontend import Granularity, LocationDb, parse_program
from rela.snapshot import (
    FecError, SnapshotError, TrafficClass,
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
            "pre": default if pre is None else pre,
            "post": default if post is None else post}


def language(fsa, limit=50):
    listing = enumerate_shortest(fsa, limit)
    assert not listing.truncated
    return {" ".join(s.name for s in path) for path in listing.paths}


# ---------------------------------------------------------------------------
# parsing and validation


def lower(index, **sides):
    """Both acceptors of a FEC whose graphs default to a valid chain."""
    return fec_acceptors(parse_fec(fec_obj(**sides), index), index)


class TestParseFec:
    """A line's id and traffic are checked when it is parsed, its graphs
    when they are lowered."""

    def test_valid(self, index):
        obj = fec_obj(src="0.0.0.0/0")
        fec = parse_fec(obj, index)
        assert fec.fec_id == "f1"
        assert fec.traffic == TrafficClass("10.0.0.0/24", "0.0.0.0/0")
        assert fec.pre == obj["pre"] and fec.post == obj["post"]

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

    def test_graphs_are_checked_when_lowered(self, index):
        obj = dict(fec_obj(), pre={}, post=None)
        fec = parse_fec(obj, index)
        with pytest.raises(SnapshotError) as got:
            fec_acceptors(fec, index)
        assert str(got.value) == "FEC f1: pre graph needs a 'nodes' array"

    def test_duplicate_node(self, index):
        bad = graph([("n0", "x1:eth0"), ("n0", "a1:eth0")], [],
                    ["n0"], ["n0"])
        with pytest.raises(SnapshotError, match="repeats node 'n0'"):
            lower(index, pre=bad)

    def test_unknown_location(self, index):
        bad = chain_graph("x1:eth0", "zz:eth9")
        with pytest.raises(SnapshotError, match="unknown location 'zz:eth9'"):
            lower(index, pre=bad)

    def test_edge_to_unknown_node(self, index):
        bad = graph([("n0", "x1:eth0")], [["n0", "n7"]], ["n0"], ["n0"])
        with pytest.raises(SnapshotError, match="unknown node 'n7'"):
            lower(index, post=bad)

    def test_unknown_source(self, index):
        bad = graph([("n0", "x1:eth0")], [], ["n9"], ["n0"])
        with pytest.raises(SnapshotError, match="unknown node 'n9'.*sources"):
            lower(index, pre=bad)

    @pytest.mark.parametrize("side,key,value", [
        ("pre", "edges", [[["n0"], "n1"]]),
        ("post", "sources", [{"a": 1}]),
        ("pre", "sinks", [["n1"]]),
    ])
    def test_node_reference_must_be_a_string(self, index, side, key, value):
        bad = dict(chain_graph("x1:eth0", "a1:eth0"), **{key: value})
        with pytest.raises(SnapshotError, match=f"{side} graph .*unknown"):
            lower(index, **{side: bad})

    def test_cycle(self, index):
        bad = graph([("n0", "x1:eth0"), ("n1", "a1:eth0")],
                    [["n0", "n1"], ["n1", "n0"]], ["n0"], ["n1"])
        with pytest.raises(SnapshotError, match="pre graph has a cycle"):
            lower(index, pre=bad)

    def test_unreachable_node(self, index):
        bad = graph([("n0", "x1:eth0"), ("n1", "a1:eth0"),
                     ("n2", "a2:eth0")],
                    [["n0", "n1"], ["n2", "n1"]], ["n0"], ["n1"])
        with pytest.raises(SnapshotError, match="'n2' is unreachable"):
            lower(index, pre=bad)

    def test_node_missing_sink_path(self, index):
        bad = graph([("n0", "x1:eth0"), ("n1", "a1:eth0"),
                     ("n2", "a2:eth0")],
                    [["n0", "n1"], ["n0", "n2"]], ["n0"], ["n1"])
        with pytest.raises(SnapshotError, match="'n2' cannot reach a sink"):
            lower(index, pre=bad)

    def test_drop_must_be_sink(self, index):
        bad = graph([("n0", "drop"), ("n1", "a1:eth0")],
                    [["n0", "n1"]], ["n0"], ["n1"])
        with pytest.raises(SnapshotError, match="drop"):
            lower(index, pre=bad)

    def test_drop_sink_accepted(self, index):
        pre, _ = lower(index, pre=chain_graph("x1:eth0", "drop"))
        assert language(pre) == {"x1 drop"}

    def test_empty_sources(self, index):
        bad = graph([("n0", "x1:eth0")], [], [], ["n0"])
        with pytest.raises(SnapshotError, match="no sources"):
            lower(index, pre=bad)

    @pytest.mark.parametrize("bad,message", [
        ([], "pre graph must be an object"),
        ({"nodes": [], "edges": [], "sources": []},
         "pre graph needs a 'sinks' array"),
        (graph([("n0", 5)], [], ["n0"], ["n0"]),
         "pre graph node entries need string 'id' and 'loc'"),
        (graph([("n0", "x1:eth0"), ("n0", "a1:eth0")], [], ["n0"], ["n0"]),
         "pre graph repeats node 'n0'"),
        (chain_graph("x1:eth0", "zz:eth9"),
         "pre graph node 'n1' has unknown location 'zz:eth9'"),
        (graph([], [], [], []), "pre graph has no nodes"),
        (graph([("n0", "x1:eth0")], [["n0"]], ["n0"], ["n0"]),
         "pre graph edges must be [src, dst] pairs"),
        (graph([("n0", "x1:eth0")], [["n0", "n7"]], ["n0"], ["n0"]),
         "pre graph edge references unknown node 'n7'"),
        (graph([("n0", "x1:eth0")], [], ["n0"], []),
         "pre graph has no sinks"),
        (graph([("n0", "x1:eth0")], [], ["n0"], ["n9"]),
         "pre graph lists unknown node 'n9' in sinks"),
        (graph([("n0", "drop"), ("n1", "a1:eth0")], [["n0", "n1"]],
               ["n0"], ["n1"]),
         "pre graph puts location 'drop' on non-sink node 'n0'"),
        (graph([("n0", "drop"), ("n1", "a1:eth0")], [["n0", "n1"]],
               ["n0"], ["n0", "n1"]),
         "pre graph forwards past dropped node 'n0'"),
        (graph([("n0", "x1:eth0"), ("n1", "x1:eth1")],
               [["n0", "n1"], ["n1", "n0"]], ["n0"], ["n1"]),
         "pre graph has a cycle"),
        (graph([("n0", "x1:eth0"), ("n1", "a1:eth0"), ("n2", "a2:eth0")],
               [["n0", "n1"], ["n2", "n1"]], ["n0"], ["n1"]),
         "pre graph node 'n2' is unreachable from the sources"),
        (graph([("n0", "x1:eth0"), ("n1", "a1:eth0"), ("n2", "a2:eth0")],
               [["n0", "n1"], ["n0", "n2"]], ["n0"], ["n1"]),
         "pre graph node 'n2' cannot reach a sink"),
        (chain_graph("x1:eth0", "a1:eth0", "x1:eth1"),
         "pre graph coarsened to device granularity has a cycle"),
    ])
    def test_exact_messages(self, index, bad, message):
        # one rule broken per graph; the post side is valid
        with pytest.raises(SnapshotError) as got:
            lower(index, pre=bad)
        assert str(got.value) == f"FEC f1: {message}"

    def test_pre_side_error_wins(self, index):
        # a pre-side coarse cycle is reported over a post-side
        # structural error
        with pytest.raises(SnapshotError) as got:
            lower(index, pre=chain_graph("x1:eth0", "a1:eth0", "x1:eth1"),
                  post=graph([], [], [], []))
        assert str(got.value) == \
            "FEC f1: pre graph coarsened to device granularity has a cycle"


class TestIterFecLines:
    def test_mixed_stream(self, index):
        lines = [
            json.dumps(fec_obj("ok-1")),
            "",
            "not json",
            json.dumps(fec_obj("ok-2")),
            json.dumps(fec_obj("ok-1")),  # duplicate
            json.dumps(fec_obj("ok-2", dst="nope")),  # failing duplicate
            json.dumps(fec_obj("bad-traffic", dst="nope")),
            json.dumps(fec_obj("bad-traffic")),  # a failed line claims its id
            json.dumps(fec_obj("")),  # empty id
            json.dumps({"id": "raw", "traffic": {"dstPrefix": "10.0.0.0/8"},
                        "pre": {}, "post": {}}),  # graphs wait for lowering
        ]
        out = list(iter_fec_lines(lines, index))
        assert [type(x).__name__ for x in out] == \
            ["Fec", "FecError", "Fec", "FecError", "FecError", "FecError",
             "FecError", "FecError", "Fec"]
        assert out[1].fec_id == "line 3"
        assert out[3].fec_id == "ok-1"
        assert "duplicate" in out[3].message
        assert out[4] == FecError("ok-2", "FEC ok-2: duplicate id")
        assert out[5] == FecError("bad-traffic",
                                  "FEC bad-traffic: bad dstPrefix 'nope'")
        assert out[6] == FecError("bad-traffic",
                                  "FEC bad-traffic: duplicate id")
        assert out[7].fec_id == "line 9"
        assert out[8].fec_id == "raw"


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


def fields(fsa):
    return (fsa.num_states, fsa.initial, fsa.accepting, fsa.arcs,
            fsa.deterministic)


class TestCoarsen:
    def test_merges_interfaces_of_one_device(self, index):
        g = chain_graph("x1:eth0", "x1:eth1", "a1:eth0", "a1:eth1",
                        "d1:eth0")
        fsa = graph_to_fsa(g, index)
        sym = index.symbol_of
        assert fsa.num_states == 4
        assert fsa.arcs == (((sym["x1"], 1),), ((sym["a1"], 2),),
                            ((sym["d1"], 3),), ())
        assert fsa.accepting == frozenset({3})
        assert language(fsa) == {"x1 a1 d1"}

    def test_duplicate_edges_collapse(self, index):
        g = graph(
            [("i", "x1:eth0"), ("o1", "a1:eth0"), ("o2", "a1:eth1"),
             ("t", "d1:eth0")],
            [["i", "o1"], ["i", "o2"], ["o1", "t"], ["o2", "t"]],
            ["i"], ["t"])
        fsa = graph_to_fsa(g, index)
        sym = index.symbol_of
        assert fsa.num_states == 4
        assert fsa.arcs == (((sym["x1"], 1),), ((sym["a1"], 2),),
                            ((sym["d1"], 3),), ())
        assert fsa.accepting == frozenset({3})
        assert language(fsa) == {"x1 a1 d1"}

    def test_group_granularity(self):
        gi = make_db().build_index(Granularity.GROUP)
        g = chain_graph("x1:eth0", "a1:eth1", "a2:eth0", "d1:eth0")
        fsa = graph_to_fsa(g, gi)
        assert fsa.num_states == 4
        assert fsa.accepting == frozenset({3})
        assert language(fsa) == {"X A D"}

    def test_device_revisit_is_an_error(self, index):
        g = chain_graph("x1:eth0", "a1:eth0", "b1:eth0", "a1:eth1",
                        "d1:eth0")
        with pytest.raises(SnapshotError) as got:
            graph_to_fsa(g, index, "f9", "pre")
        assert str(got.value) == \
            "FEC f9: pre graph coarsened to device granularity has a cycle"

    def test_drop_survives(self, index):
        g = chain_graph("x1:eth0", "x1:eth1", "drop")
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
        g = chain_graph("x1:eth0", "a1:eth0")
        fsa = graph_to_fsa(g, index)
        assert language(fsa) == {"x1 a1"}

    def test_diamond_language(self, index):
        g = graph(
            [("s", "x1:eth0"), ("l", "a1:eth0"), ("r", "b1:eth0"),
             ("t", "d1:eth0")],
            [["s", "l"], ["s", "r"], ["l", "t"], ["r", "t"]],
            ["s"], ["t"])
        fsa = graph_to_fsa(g, index)
        assert language(fsa) == {"x1 a1 d1", "x1 b1 d1"}
        assert fsa.deterministic

    def test_dropped_path_language(self, index):
        g = chain_graph("x1:eth0", "a1:eth0", "drop")
        fsa = graph_to_fsa(g, index)
        assert language(fsa) == {"x1 a1 drop"}

    def test_fec_acceptors(self, index):
        obj = fec_obj(pre=chain_graph("x1:eth0", "x1:eth1", "a1:eth0"),
                      post=chain_graph("x1:eth0", "drop"))
        fec = parse_fec(obj, index)
        pre, post = fec_acceptors(fec, index)
        assert language(pre) == {"x1 a1"}
        assert language(post) == {"x1 drop"}


class TestUnchangedFec:
    """Equal graphs are one object after loading and are lowered once."""

    def test_loader_shares_equal_graphs(self, index):
        # two equal graphs decoded separately, as from one NDJSON line
        line = json.dumps(fec_obj(pre=chain_graph("x1:eth0", "a1:eth0"),
                                  post=chain_graph("x1:eth0", "a1:eth0")))
        [fec] = iter_fec_lines([line], index)
        assert fec.post is fec.pre

    def test_loader_keeps_different_graphs_apart(self, index):
        obj = fec_obj(pre=chain_graph("x1:eth0", "a1:eth0"),
                      post=chain_graph("x1:eth0", "a2:eth0"))
        fec = parse_fec(obj, index)
        assert fec.pre == obj["pre"] and fec.post == obj["post"]
        assert fec.post is not fec.pre

    def test_unchanged_fec_is_lowered_once(self, index, monkeypatch):
        calls = []
        lower_one = rela.snapshot.graph_to_fsa

        def counted(raw, *args):
            calls.append(raw)
            return lower_one(raw, *args)

        monkeypatch.setattr(rela.snapshot, "graph_to_fsa", counted)
        fec = parse_fec(json.loads(json.dumps(fec_obj())), index)
        pre, post = fec_acceptors(fec, index)
        assert len(calls) == 1 and pre is post
        assert language(pre) == {"x1 a1"}

        changed = fec_obj(post=chain_graph("x1:eth0", "a2:eth0"))
        pre, post = fec_acceptors(parse_fec(changed, index), index)
        assert len(calls) == 3 and pre is not post

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_bad_graph_names_the_pre_side(self, index, workers):
        bad = chain_graph("x1:eth0", "zz:eth9")
        lines = [json.dumps(fec_obj("f1", pre=bad, post=bad))]
        program = compile_program(
            parse_program("spec s := { .* : preserve; }", index), index)
        report = check_all(program, index, iter_fec_lines(lines, index),
                           CheckOptions(workers=workers))
        assert report.errors == (FecError(
            "f1", "FEC f1: pre graph node 'n1' has unknown location "
                  "'zz:eth9'"),)


def test_acceptors_read_only_universe_symbols():
    # rir.Evaluator takes snapshot acceptors to carry no marker symbols
    # and nothing checks that at run time: graph_to_fsa labels arcs with
    # locations and drop alone.
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
    return graph([(d, d) for d in devices], edges,
                 [d for d in devices if d not in has_in],
                 [d for d in devices if d not in has_out])


def expand_to_interfaces(g, rng):
    """Replace each device node with an in/out interface pair (or a
    single interface), keeping edge order.  Coarsening inverts it."""
    nodes, edges = [], []
    inp, outp = {}, {}
    for node in g["nodes"]:
        device = node["id"]
        if device == "drop":
            nodes.append((f"{device}.0", "drop"))
            inp[device] = outp[device] = f"{device}.0"
        elif rng.random() < 0.5:
            nodes.append((f"{device}.0", f"{device}:eth0"))
            inp[device] = outp[device] = f"{device}.0"
        else:
            nodes.extend([(f"{device}.i", f"{device}:eth0"),
                          (f"{device}.o", f"{device}:eth1")])
            inp[device], outp[device] = f"{device}.i", f"{device}.o"
            edges.append((f"{device}.i", f"{device}.o"))
    for u, v in g["edges"]:
        edges.append((outp[u], inp[v]))
    return graph(nodes, edges, [inp[s] for s in g["sources"]],
                 [outp[s] for s in g["sinks"]])


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
