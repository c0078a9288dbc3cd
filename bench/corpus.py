"""Seeded corpora for the rela benchmark, each with its known answer.

Every workload is written as the CLI consumes it -- ``locations.json``,
``change.spec`` and ``fecs.ndjson`` -- plus ``answer.json``, which holds
the verdict the checker must reach.  The answer is known by construction:
a failing FEC differs from its pre graph by a path that visits a device
the pre graph never visits (or, for moved flows, by a path the spec
forbids), so its path language changes without asking rela.

    python3 bench/corpus.py --workload preserve-scale --seed 1 --out DIR

The generator imports nothing from rela, so it also runs where rela is
broken.
"""

from __future__ import annotations

import argparse
import json
import os
import random

WORKLOADS = ("preserve-scale", "reroute-explain", "else-chain")

# FEC counts at scale 1.0.
SIZES = {"preserve-scale": 2000, "reroute-explain": 600, "else-chain": 50}

# Arms of the else-chain spec before the final catch-all arm.
CHAIN_ARMS = 40


def _prefix(rng: random.Random) -> dict:
    return {"dstPrefix": f"10.{rng.randrange(256)}.{rng.randrange(256)}.0/24"}


def _graph(nodes, edges, sources, sinks) -> dict:
    """Nodes are interface names; node ids are n0, n1, ... in order."""
    return {"nodes": [{"id": f"n{i}", "loc": loc}
                      for i, loc in enumerate(nodes)],
            "edges": [[f"n{u}", f"n{v}"] for u, v in edges],
            "sources": [f"n{i}" for i in sources],
            "sinks": [f"n{i}" for i in sinks]}


def _random_dag(rng: random.Random, devices, max_nodes, max_extra_edges,
                min_nodes=2) -> dict:
    """A single-source DAG on distinct devices; n0 is the source.

    Every node hangs off an earlier one, so all nodes are reachable, and
    every node without out-edges is a sink, so all reach a sink.
    """
    n = rng.randint(min_nodes, max_nodes)
    chosen = rng.sample(devices, n)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randrange(max_extra_edges + 1)):
        j = rng.randrange(n - 1)
        edges.add((j, rng.randrange(j + 1, n)))
    has_out = {j for j, _ in edges}
    return _graph([f"{d}:p0" for d in chosen], sorted(edges), [0],
                  [i for i in range(n) if i not in has_out])


def _with_fresh_sink(graph: dict, device: str) -> dict:
    """The graph plus an edge from the source to a new sink on `device`.

    `device` must not occur in the graph: the post language then holds a
    path ending in a device the pre language never visits, so the two
    languages differ by construction.
    """
    n = len(graph["nodes"])
    return {"nodes": graph["nodes"] + [{"id": f"n{n}", "loc": f"{device}:p0"}],
            "edges": graph["edges"] + [["n0", f"n{n}"]],
            "sources": graph["sources"],
            "sinks": graph["sinks"] + [f"n{n}"]}


def _devices_of(graph: dict) -> set:
    return {node["loc"].split(":")[0] for node in graph["nodes"]}


def _device_rows(n: int) -> list:
    return [{"name": f"d{i:04d}:p0", "device": f"d{i:04d}",
             "group": f"g{i // 10:03d}", "pod": f"pod{i % 5}"}
            for i in range(n)]


# ---------------------------------------------------------------------------
# Workloads: each returns (locations, spec text, FEC objects, failing map)
# where the failing map sends a FEC id to the arm it must be blamed on.


def preserve_scale(rng: random.Random, n_fecs: int):
    """Acceptance test 5's shape: identical snapshots, 1 FEC in 500 changed.

    A changed FEC gains an edge from its source to a fresh sink whose pod
    differs from the source's.  That new two-hop path mixes pods, so it
    lies only in the catch-all arm #5, and #5 is the blamed arm whether
    the arm walk finds it from the pre or the post side.
    """
    devices = [f"d{i:04d}" for i in range(1000)]
    spec = "\n".join(
        [f'regex p{k} := where(pod == "pod{k}")' for k in range(4)]
        + ["spec change := { p0* : preserve; }",
           "    else { p1* : preserve; }",
           "    else { p2* : preserve; }",
           "    else { p3* : preserve; }",
           "    else { .* : preserve; }"]) + "\n"
    # Tiny smoke corpora still get a failure.
    period = min(500, n_fecs)
    fecs, failing = [], {}
    for i in range(n_fecs):
        fec_id = f"fec{i:05d}"
        pre = _random_dag(rng, devices, max_nodes=50, max_extra_edges=150)
        post = pre
        if i % period == period // 2:
            used = _devices_of(pre)
            source_pod = int(pre["nodes"][0]["loc"][1:5]) % 5
            fresh = rng.choice([d for d in devices if d not in used
                                and int(d[1:]) % 5 != source_pod])
            post = _with_fresh_sink(pre, fresh)
            failing[fec_id] = "#5"
        fecs.append({"id": fec_id, "traffic": _prefix(rng),
                     "pre": pre, "post": post})
    return _device_rows(1000), spec, fecs, failing


REROUTE_SPEC = """\
regex edge := where(group == "ingress") | where(group == "egress")
regex rowA := where(group == "rowA")
regex rowB := where(group == "rowB")

spec moved     := { edge : preserve; rowB rowB* : any(rowA) ; edge : preserve; }
spec untouched := .* : preserve
spec change    := moved else untouched
"""

# Layered core shapes (width, depth) for untouched FECs.  A shape has
# width**depth paths.  Shapes cycle in a fixed order, so every seed draws
# the same multiset of shapes and only the devices differ; the costly
# failing shapes give the explanation cost a heavy tail.
PASS_SHAPES = ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4), (4, 3), (3, 4))
FAIL_SHAPES = ((3, 3), (4, 4), (5, 4), (4, 5), (6, 4), (5, 5), (7, 4),
               (6, 5))


def reroute_explain(rng: random.Random, n_fecs: int):
    """The README change at scale: flows over row B move to row A.

    One FEC in three crosses row B and moves to row A; the others take
    layered paths through the core and must not change.  One FEC in ten
    of each kind fails: a moved flow whose new path still touches row B
    (blamed on `moved`), or an untouched flow that now ends at another
    egress device (blamed on `untouched`).
    """
    groups = {"ingress": ("x", 8), "egress": ("y", 8), "rowA": ("a", 8),
              "rowB": ("b", 8), "core": ("c", 64)}
    locations, by_group = [], {}
    for group, (letter, count) in groups.items():
        names = [f"{letter}{i:02d}" for i in range(count)]
        by_group[group] = names
        locations += [{"name": f"{d}:p0", "device": d, "group": group}
                      for d in names]
    ing, egr = by_group["ingress"], by_group["egress"]
    row_a, row_b, core = by_group["rowA"], by_group["rowB"], by_group["core"]

    def chain(devs):
        return _graph([f"{d}:p0" for d in devs],
                      [(k, k + 1) for k in range(len(devs) - 1)],
                      [0], [len(devs) - 1])

    def layered(x, layers, y):
        devs = [x] + [d for layer in layers for d in layer] + [y]
        edges, prev, at = [], [0], 1
        for layer in layers:
            cur = list(range(at, at + len(layer)))
            edges += [(u, v) for u in prev for v in cur]
            prev, at = cur, at + len(layer)
        edges += [(u, at) for u in prev]
        return _graph([f"{d}:p0" for d in devs], edges, [0], [at])

    fecs, failing = [], {}
    moved = untouched = 0
    for i in range(n_fecs):
        fec_id = f"fec{i:05d}"
        x, y = rng.choice(ing), rng.choice(egr)
        if i % 3 == 1:
            fails = moved % 10 == 5
            moved += 1
            pre = chain([x] + rng.sample(row_b, rng.randint(1, 3)) + [y])
            if fails:
                post = chain([x, rng.choice(row_a), rng.choice(row_b), y])
                failing[fec_id] = "moved"
            else:
                post = chain([x, rng.choice(row_a), y])
        else:
            fails = untouched % 10 == 5
            shapes = FAIL_SHAPES if fails else PASS_SHAPES
            width, depth = shapes[(untouched // 10 if fails else untouched)
                                  % len(shapes)]
            untouched += 1
            picked = rng.sample(core, width * depth)
            layers = [picked[k * width:(k + 1) * width]
                      for k in range(depth)]
            pre = layered(x, layers, y)
            post = pre
            if fails:
                post = layered(x, layers, rng.choice(
                    [e for e in egr if e != y]))
                failing[fec_id] = "untouched"
        fecs.append({"id": fec_id, "traffic": _prefix(rng),
                     "pre": pre, "post": post})
    return locations, REROUTE_SPEC, fecs, failing


def else_chain(rng: random.Random, n_fecs: int):
    """A per-device chain of `dNNNN .*` arms ending in a catch-all arm.

    Half the FECs start at a device that owns an arm.  A failing FEC (1 in
    10) gains a fresh sink next to its source; all of its paths start at
    the source, so the blamed arm is the source's own arm, or the
    catch-all when the source owns none.
    """
    devices = [f"d{i:04d}" for i in range(200)]
    arm_devices = rng.sample(devices, CHAIN_ARMS)
    arms = [f"{{ {d} .* : preserve; }}" for d in arm_devices]
    spec = ("spec change := " + "\n    else ".join(
        arms + ["{ .* : preserve; }"]) + "\n")
    arm_of = {d: f"#{k + 1}" for k, d in enumerate(arm_devices)}
    others = [d for d in devices if d not in arm_of]
    fecs, failing = [], {}
    for i in range(n_fecs):
        fec_id = f"fec{i:05d}"
        source = rng.choice(arm_devices if i % 2 == 0 else others)
        rest = rng.sample([d for d in devices if d != source], 7)
        pre = _random_dag(rng, [source] + rest, max_nodes=8,
                          max_extra_edges=6)
        # _random_dag samples its devices; put the chosen source first.
        first = pre["nodes"][0]["loc"].split(":")[0]
        if first != source:
            swap = {f"{first}:p0": f"{source}:p0",
                    f"{source}:p0": f"{first}:p0"}
            for node in pre["nodes"]:
                node["loc"] = swap.get(node["loc"], node["loc"])
        post = pre
        if i % 10 == 5:
            used = _devices_of(pre)
            post = _with_fresh_sink(
                pre, rng.choice([d for d in devices if d not in used]))
            failing[fec_id] = arm_of.get(source, f"#{CHAIN_ARMS + 1}")
        fecs.append({"id": fec_id, "traffic": _prefix(rng),
                     "pre": pre, "post": post})
    return _device_rows(200), spec, fecs, failing


GENERATORS = {"preserve-scale": preserve_scale,
              "reroute-explain": reroute_explain,
              "else-chain": else_chain}


def write_corpus(workload: str, seed: int, out: str,
                 scale: float = 1.0) -> dict:
    """Write the workload's four files into `out`; returns the answer."""
    rng = random.Random(f"{workload}/{seed}")
    n_fecs = max(12, round(SIZES[workload] * scale))
    locations, spec, fecs, failing = GENERATORS[workload](rng, n_fecs)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "locations.json"), "w",
              encoding="utf-8") as fh:
        json.dump(locations, fh)
    with open(os.path.join(out, "change.spec"), "w", encoding="utf-8") as fh:
        fh.write(spec)
    with open(os.path.join(out, "fecs.ndjson"), "w", encoding="utf-8") as fh:
        for obj in fecs:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
    failing = {fec_id: f"change/{arm}" for fec_id, arm in failing.items()}
    per_subspec = {}
    for key in failing.values():
        per_subspec[key] = per_subspec.get(key, 0) + 1
    assert fecs[0]["id"] not in failing, "set-up checks the first FEC"
    answer = {
        "workload": workload,
        "seed": seed,
        "fecs": len(fecs),
        "first_fec": fecs[0]["id"],
        "exit_code": 1 if failing else 0,
        "totals": {"pass": len(fecs) - len(failing), "fail": len(failing),
                   "unmatched": 0, "error": 0},
        "per_subspec": dict(sorted(per_subspec.items())),
        "failing": dict(sorted(failing.items())),
    }
    with open(os.path.join(out, "answer.json"), "w", encoding="utf-8") as fh:
        json.dump(answer, fh, indent=1, sort_keys=True)
    return answer


def mismatches(doc: dict, answer: dict):
    """Count the FECs whose reported verdict disagrees with the answer.

    `doc` is a report in its JSON form.  A FEC fails in the report when it
    has a counterexample, blamed on `guard/arm`.  A report whose totals
    or per-arm tallies are off, or whose counterexample list is cut short
    (so per-FEC verdicts cannot be read from it), counts every FEC.
    Returns the count and a few lines saying what differs.
    """
    problems = [f"{key}: expected {answer[key]}, reported {doc[key]}"
                for key in ("totals", "per_subspec")
                if doc[key] != answer[key]]
    if doc["counterexamples_truncated"]:
        problems.append("counterexample list truncated")
    if problems:
        return answer["fecs"], problems
    reported = {cx["fec_id"]: f"{cx['guard']}/{cx['violated_subspec']}"
                for cx in doc["counterexamples"]}
    expected = answer["failing"]
    bad = sorted(fec_id for fec_id in reported.keys() | expected.keys()
                 if reported.get(fec_id) != expected.get(fec_id))
    return len(bad), [f"{fec_id}: expected {expected.get(fec_id, 'pass')}, "
                      f"reported {reported.get(fec_id, 'pass')}"
                      for fec_id in bad[:5]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    answer = write_corpus(args.workload, args.seed, args.out, args.scale)
    print(json.dumps({k: answer[k] for k in ("fecs", "totals",
                                             "per_subspec")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
