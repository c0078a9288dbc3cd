"""The rela benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload else-chain --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; rela is imported from ``src/``.
The corpus is generated from the seed into ``.bench_work/`` before any
timing starts (see ``bench/corpus.py``).

``--trace 0`` measures what a user sees: ``rela check`` in a fresh process
at ``--workers 1`` and ``2``, alternating, until ``--seconds`` have passed,
and set-up time in fresh interpreters (``bench/probe_setup.py``).  Times
are medians over the runs.  Every report is checked against the corpus's
known answer, and the w1 and w2 reports must be byte-identical.

``--trace 1`` runs the in-process traced pass of ``bench/traced.py`` for
the per-layer metrics instead.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import corpus  # noqa: E402

# The end-to-end metric and workload each per-layer metric should move.
# BENCHMARK.json lists the metrics; its fixed keys leave no room for this.
LAYER_MOVES = {
    "frontend.load_s": "setup_s (small everywhere)",
    "frontend.parse_s": "setup_s (small everywhere)",
    "compiler.compile_s": "setup_s on else-chain",
    "compiler.rir_nodes": "setup_s on else-chain",
    "snapshot.load_s": "wall_s.w1, wall_s.w2 on preserve-scale",
    "snapshot.load_us_per_fec": "wall_s.w1, wall_s.w2 on preserve-scale",
    "snapshot.acceptors_s": "wall_s.w1 on preserve-scale",
    "snapshot.fsa_states": "wall_s.w1 on preserve-scale",
    "rir.ground_s": "setup_s, wall_s.w2 on else-chain",
    "rir.ground_nodes": "setup_s, wall_s.w2 on else-chain",
    "rir.image_s": "wall_s.w1 on reroute-explain and preserve-scale",
    "rir.image_states": "wall_s.w1 on reroute-explain and preserve-scale",
    "automata.equiv_s": "wall_s.w1 on preserve-scale",
    "automata.enumerate_s": "wall_s.w1, peak_rss_mb.w1 on reroute-explain",
    "checker.check_s.w1": "wall_s.w1, all workloads",
    "checker.check_s.w2": "wall_s.w2, all workloads",
    "checker.fec_p50_ms": "wall_s.w1 on preserve-scale",
    "checker.fec_p99_ms": "wall_s.w1 on reroute-explain",
    "checker.fail_p50_ms": "wall_s.w1 on reroute-explain",
    "checker.fail_max_ms": "wall_s.w1 on reroute-explain",
    "checker.explain_s": "wall_s.w1 on reroute-explain",
    "checker.render_s": "wall_s.* (a guard)",
    "cli.main_s": "wall_s.w1, all workloads",
    "runtime.gc_s": "wall_s.w1, peak_rss_mb.w1 on reroute-explain",
    "runtime.gc_gen2": "wall_s.w1, peak_rss_mb.w1 on reroute-explain",
    "trace.overhead_share": "-",
    "fec_mismatch_share": "- (must be 0)",
}


class Gate:
    """Collects correctness findings; any finding makes the run incorrect."""

    def __init__(self, answer: dict):
        self.answer = answer
        self.attempted = 0
        self.failed = 0
        self.findings: list[str] = []

    def report(self, label: str, doc: dict, all_wrong: str = "") -> None:
        """Judge one report of every FEC; `all_wrong` condemns all of them."""
        if all_wrong:
            bad, lines = self.answer["fecs"], [all_wrong]
        else:
            bad, lines = corpus.mismatches(doc, self.answer)
        self.attempted += self.answer["fecs"]
        self.failed += bad
        self.findings += [f"{label}: {line}" for line in lines]

    def note(self, label: str, problem: str) -> None:
        self.findings.append(f"{label}: {problem}")

    @property
    def correct(self) -> bool:
        return not self.findings

    @property
    def mismatch_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def shout(self) -> None:
        if self.findings:
            print("!" * 72, file=sys.stderr)
            print("INCORRECT OUTPUT: rela disagrees with the known answer",
                  file=sys.stderr)
            for line in self.findings[:20]:
                print(f"  {line}", file=sys.stderr)
            print("!" * 72, file=sys.stderr)


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def run_cli(work: str, workers: int, out: str):
    """One `rela check` in a fresh process: (seconds, peak RSS MiB, code)."""
    argv = [sys.executable, "-m", "rela.cli", "check",
            "--spec", os.path.join(work, "change.spec"),
            "--locations", os.path.join(work, "locations.json"),
            "--fecs", os.path.join(work, "fecs.ndjson"),
            "--workers", str(workers), "--output", out]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    # wait4 gives this child's own rusage, so each run's peak RSS stands
    # alone (RUSAGE_CHILDREN would report the maximum over all runs).
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


PROBE_SECONDS = 1.0
PROBES = 5


def probe_setup(work: str, answer: dict) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe_setup.py"), work,
         answer["first_fec"]],
        env=_env(), capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def end_to_end(work: str, answer: dict, seconds: float, gate: Gate):
    runs = {1: [], 2: []}
    setups = []
    first = None
    start = time.perf_counter()
    # Rounds of w1, w2 and set-up probes; a round starts only if it
    # should end within the budget, so a run takes about `seconds`.  A
    # round probes set-up until the probes took PROBE_SECONDS (at most
    # PROBES times), so short set-ups get more samples.
    while True:
        round_start = time.perf_counter()
        for workers in (1, 2):
            out = os.path.join(work, f"report-w{workers}.json")
            if os.path.exists(out):
                os.remove(out)
            elapsed, rss, code = run_cli(work, workers, out)
            runs[workers].append((elapsed, rss))
            label = f"cli w{workers} run {len(runs[workers])}"
            if code != answer["exit_code"]:
                gate.report(label, None, f"exit code {code}, expected "
                                         f"{answer['exit_code']}")
                continue
            with open(out, "rb") as fh:
                raw = fh.read()
            first = raw if first is None else first
            if raw != first:
                gate.report(label, None,
                            "report differs from the first w1 report")
                continue
            try:
                doc = json.loads(raw)
            except json.JSONDecodeError:
                gate.report(label, None, "report is not JSON")
                continue
            gate.report(label, doc)
        probed = 0.0
        for _ in range(PROBES):
            got = probe_setup(work, answer)
            if got["passed"] != 1:
                gate.note(f"set-up probe {len(setups) + 1}",
                          f"first FEC {answer['first_fec']} did not pass")
            setups.append(got["setup_s"])
            probed += got["setup_s"]
            if probed >= PROBE_SECONDS:
                break
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            break

    w1 = [t for t, _ in runs[1]]
    w2 = [t for t, _ in runs[2]]
    rss = [r for _, r in runs[1]]
    print(f"cli runs: {len(w1)} at w1, {len(w2)} at w2; "
          f"set-up probes: {len(setups)}")
    for name, values in (("wall_s.w1", w1), ("wall_s.w2", w2),
                         ("setup_s", setups)):
        print(f"  {name:<16} " + " ".join(f"{v:.3f}" for v in values))
    return {
        "wall_s.w1": (statistics.median(w1), "s"),
        "wall_s.w2": (statistics.median(w2), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb.w1": (statistics.median(rss), "MiB"),
        "fec_match_share": (1.0 - gate.mismatch_share, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rela benchmark")
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size factor; below 1 only for smoke runs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rela", "__init__.py")):
        print(f"bench: no rela sources under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work", args.workload)
    answer = corpus.write_corpus(args.workload, args.seed, work, args.scale)
    gate = Gate(answer)
    print(f"workload {args.workload}  seed {args.seed}  fecs {answer['fecs']}"
          f"  failing {answer['totals']['fail']}  nproc {os.cpu_count()}"
          f"  python {platform.python_version()}  trace {args.trace}")

    if args.trace:
        sys.path.insert(0, SRC)
        import traced
        metrics = traced.run(work, answer, args.seconds, gate)
        metrics["fec_mismatch_share"] = (gate.mismatch_share, "ratio")
    else:
        metrics = end_to_end(work, answer, args.seconds, gate)

    for name, (value, unit) in metrics.items():
        moves = LAYER_MOVES.get(name)
        print(f"{name:<26} {value:>14.6g} {unit:<6}"
              + (f"  moves {moves}" if moves else ""))
    gate.shout()
    print(f"correct: {gate.correct}  attempted: {gate.attempted}  "
          f"failed: {gate.failed}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
