"""Set-up time of one check, in the fresh interpreter this script runs in.

    PYTHONPATH=src python3 bench/probe_setup.py CORPUS_DIR FIRST_FEC_ID

Times everything that does not depend on the snapshots: importing rela,
loading the location database, parsing and compiling the spec, and
checking the corpus's first FEC, which pays the one-time ground
evaluation.  Prints one JSON line: the seconds taken and whether that
FEC passed.
"""

import json
import os
import sys
import time


def main(work: str, first_fec: str) -> int:
    start = time.perf_counter()
    from rela import (CheckOptions, Granularity, LocationDb, check_all,
                      compile_program, load_fecs, parse_program)
    db = LocationDb.load(os.path.join(work, "locations.json"))
    index = db.build_index(Granularity.DEVICE)
    with open(os.path.join(work, "change.spec"), encoding="utf-8") as fh:
        program = compile_program(parse_program(fh.read(), index), index)
    fec = next(load_fecs(os.path.join(work, "fecs.ndjson"), index))
    report = check_all(program, index, [fec], CheckOptions(workers=1))
    elapsed = time.perf_counter() - start
    passed = int(getattr(fec, "fec_id", None) == first_fec
                 and report.totals["pass"] == 1)
    print(json.dumps({"setup_s": elapsed, "passed": passed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
