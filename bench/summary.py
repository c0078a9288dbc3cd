"""Every end-to-end and per-layer metric of every workload, in one table.

    python3 bench/summary.py --seed 1

Runs ``bench/run.py`` on each workload with tracing off and then on, and
prints one row per metric: workload, name, value, unit, and what the
metric should move.  Exits 1 if any run's output was incorrect.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
from run import LAYER_MOVES  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    all_correct = True
    for workload in corpus.WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--scale", str(args.scale)],
                capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            if set(result) != RESULT_KEYS:
                raise SystemExit(f"{workload} trace {trace}: result keys "
                                 f"{sorted(result)}, expected "
                                 f"{sorted(RESULT_KEYS)}")
            all_correct &= result["correct"]
            print(f"{workload}  trace {trace}  correct {result['correct']}"
                  f"  attempted {result['attempted']}"
                  f"  failed {result['failed']}")
            for name, metric in result["metrics"].items():
                moves = LAYER_MOVES.get(name, "")
                print(f"  {workload:<16} {name:<26} {metric['value']:>14.6g}"
                      f" {metric['unit']:<6} {moves}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
