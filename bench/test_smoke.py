"""Tiny-size smoke run of the whole benchmark.

    python3 -m pytest bench/test_smoke.py

Runs every workload once with tracing off and once with it on, through
``bench/summary.py``, on corpora a twentieth of their measured size, and
checks each run's verdict and each metric's name and unit against
BENCHMARK.json.  Takes about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def run_bench(cwd, workload, trace, seed=1):
    return subprocess.run(
        BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", "0", "--trace", str(trace),
                                "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_the_generator():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(corpus.WORKLOADS)


def test_corpus_is_a_function_of_the_seed(tmp_path):
    def files(seed, name):
        corpus.write_corpus("reroute-explain", seed, str(tmp_path / name),
                            0.05)
        return {f: (tmp_path / name / f).read_bytes()
                for f in ("locations.json", "change.spec", "fecs.ndjson",
                          "answer.json")}

    assert files(3, "a") == files(3, "b")
    assert files(3, "a")["fecs.ndjson"] != files(4, "c")["fecs.ndjson"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, corpus.WORKLOADS[0], 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_summary_prints_every_metric_of_every_workload():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "summary.py"), "--seed", "2",
         "--seconds", "0", "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    runs = [line.split() for line in out.stdout.splitlines()
            if not line.startswith(" ")]
    assert len(runs) == 2 * len(corpus.WORKLOADS)
    for fields in runs:
        assert fields[fields.index("correct") + 1] == "True", fields
        assert fields[fields.index("failed") + 1] == "0", fields
        assert int(fields[fields.index("attempted") + 1]) >= 1, fields
    rows = {(w, name): (float(value), unit) for w, name, value, unit, *_ in
            (line.split() for line in out.stdout.splitlines()
             if line.startswith("  "))}
    for workload in corpus.WORKLOADS:
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            value, unit = rows.pop((workload, metric["name"]))
            assert unit == metric["unit"], (workload, metric["name"])
            if metric in BENCHMARK["end_to_end"]:
                assert value > 0, (workload, metric["name"])
    assert not rows, f"metrics not in BENCHMARK.json: {sorted(rows)}"
