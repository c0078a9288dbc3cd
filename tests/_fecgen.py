"""Random forwarding-graph generators for soundness and scale tests.

Graphs come out as the JSON-shaped dicts the loader accepts, so the same
corpus can be parsed in process or serialized to an NDJSON file.  Node
n0 is the single source, node ids follow a topological order, and every
node uses a distinct device, which keeps device-level coarsening trivially
acyclic.  All randomness flows through an explicit `random.Random`.
"""

from __future__ import annotations

import json
import random

from rela.automata import fsa_equivalent
from rela.frontend import Granularity, LocationDb
from rela.snapshot import SnapshotError, graph_to_fsa


def device_rows(n_devices: int, ports: int = 1) -> list:
    rows = []
    for i in range(n_devices):
        device = f"d{i:04d}"
        for p in range(ports):
            rows.append({"name": f"{device}:p{p}", "device": device,
                         "group": f"g{i // 10:03d}", "pod": f"pod{i % 5}"})
    return rows


def make_index(n_devices: int, granularity=Granularity.DEVICE,
               ports: int = 1):
    db = LocationDb.from_json(json.dumps(device_rows(n_devices, ports)))
    return db.build_index(granularity)


def random_graph_dict(rng: random.Random, devices, max_nodes=12,
                      max_extra_edges=8, min_nodes=2) -> dict:
    """A random single-source DAG; `devices` must not repeat inside it."""
    n = rng.randint(min_nodes, max_nodes)
    chosen = rng.sample(devices, n)
    edges = set()
    for i in range(1, n):
        edges.add((rng.randrange(i), i))
    for _ in range(rng.randrange(max_extra_edges + 1)):
        j = rng.randrange(n - 1)
        i = rng.randrange(j + 1, n)
        edges.add((j, i))
    has_out = {j for j, _ in edges}
    return {
        "nodes": [{"id": f"n{i}", "loc": chosen[i]} for i in range(n)],
        "edges": [[f"n{j}", f"n{i}"] for j, i in sorted(edges)],
        "sources": ["n0"],
        "sinks": [f"n{i}" for i in range(n) if i not in has_out],
    }


def random_fec_dict(rng: random.Random, fec_id: str, devices, max_nodes=12,
                    max_extra_edges=8, min_nodes=2) -> dict:
    """A FEC whose post graph is (structurally) its pre graph.

    Callers that intend to rewire an edge afterwards should ask for
    `min_nodes=3`; a two-node graph has no alternative edge target.
    """
    graph = random_graph_dict(rng, devices, max_nodes, max_extra_edges,
                              min_nodes)
    return {
        "id": fec_id,
        "traffic": {"dstPrefix": f"10.{rng.randrange(256)}"
                                 f".{rng.randrange(256)}.0/24"},
        "pre": graph,
        "post": graph,
    }


def _post_language(obj: dict, index):
    return graph_to_fsa(obj["post"], index, obj["id"], "post")


def mutate_one_edge(rng: random.Random, fec_obj: dict, index) -> dict:
    """A copy of the post graph differing from pre by exactly one edge.

    One edge is retargeted, deleted, or added (still forward, so the graph
    stays a DAG).  The result must validate and its path language must
    differ from the original, so a `preserve` check over the FEC fails.
    """
    before = _post_language(fec_obj, index)
    edges = fec_obj["post"]["edges"]
    present = {tuple(e) for e in edges}
    n = len(fec_obj["post"]["nodes"])

    candidates = []
    for k, (u, v) in enumerate(edges):
        candidates.append(("delete", k, None))
        for i in range(int(u[1:]) + 1, n):
            v2 = f"n{i}"
            if v2 != v and (u, v2) not in present:
                candidates.append(("retarget", k, v2))
    for j in range(n - 1):
        for i in range(j + 1, n):
            if (f"n{j}", f"n{i}") not in present:
                candidates.append(("add", f"n{j}", f"n{i}"))
    rng.shuffle(candidates)

    for kind, a, b in candidates:
        if kind == "delete":
            new_edges = [e for k, e in enumerate(edges) if k != a]
        elif kind == "retarget":
            new_edges = [[edges[a][0], b] if k == a else e
                         for k, e in enumerate(edges)]
        else:
            new_edges = edges + [[a, b]]
        post = dict(fec_obj["post"], edges=new_edges)
        try:
            after = _post_language(dict(fec_obj, post=post), index)
        except SnapshotError:
            continue
        if not fsa_equivalent(before, after):
            return post
    raise RuntimeError(f"no language-changing one-edge mutation for "
                       f"{fec_obj['id']!r}")
