"""Command-line driver: parse, compile, check, and render a report.

Exit status is 0 when every FEC passes, 1 when violations were found, 2
for usage or input problems (including input errors surfaced while
checking), and 3 for an internal error: an unexpected exception in the
checker, in a worker process too.  It is never a verdict: stderr gets
its traceback and then ``rela: internal error: <type>: <message>``.
Progress and phase timings go to stderr; the report goes to stdout or to
--output.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

from . import rir
from .checker import (CheckOptions, StrictInputError, check_all,
                      report_to_json, report_to_text)
from .compiler import compile_program
from .frontend import (Granularity, LocationDb, LocationDbError, SpecError,
                       parse_program)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rela",
        description="Verify a network change against a relational spec.")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser(
        "check", help="check pre/post forwarding snapshots against a spec")
    check.add_argument("--spec", required=True, help="spec program file")
    check.add_argument("--locations", required=True,
                       help="location database, a JSON array of interfaces")
    check.add_argument("--fecs", required=True,
                       help="FEC snapshots, NDJSON with one FEC per line")
    check.add_argument("--granularity", default=Granularity.DEVICE.value,
                       choices=[g.value for g in Granularity],
                       help="path alphabet granularity (default: device)")
    check.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: the CPUs this "
                       "process may run on)")
    check.add_argument("--max-counterexamples", type=int, default=100,
                       metavar="K",
                       help="cap on reported counterexamples (default: 100)")
    check.add_argument("--output", default=None, metavar="FILE",
                       help="write the report here instead of stdout")
    check.add_argument("--format", default="json", choices=["json", "text"],
                       help="report format (default: json)")
    check.add_argument("--strict", action="store_true",
                       help="abort on the first malformed input line")
    check.add_argument("--emit-rir", action="store_true",
                       help="dump the compiled relations to stderr")
    return parser


def _log(message: str) -> None:
    print(f"rela: {message}", file=sys.stderr)


def _fail(message: str) -> int:
    print(f"rela: error: {message}", file=sys.stderr)
    return 2


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _hashed(lines, digest):
    """`lines` as they are, each fed to `digest` on the way through."""
    for line in lines:
        digest.update(line)
        yield line


def _named_specs(program):
    for g in program.guards:
        yield g.name, g.spec
    if program.default is not None:
        yield program.default.name, program.default


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, so a pinned run forks no more workers than CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_check(args) -> int:
    workers = args.workers
    if workers is None:
        workers = _usable_cpus()
    if workers < 1:
        return _fail("--workers must be at least 1")
    if args.max_counterexamples < 0:
        return _fail("--max-counterexamples must not be negative")

    # Each input is read once and hashed as read, so a pipe works too.
    t0 = time.monotonic()
    try:
        locations = _read(args.locations)
        index = LocationDb.from_json(locations).build_index(
            Granularity(args.granularity))
        spec = _read(args.spec)
        program = compile_program(
            parse_program(spec.decode("utf-8"), index), index)
        fecs = open(args.fecs, "rb")
    except OSError as e:
        return _fail(str(e))
    except LocationDbError as e:
        return _fail(f"{args.locations}: {e}")
    except UnicodeDecodeError as e:
        return _fail(f"{args.spec}: not valid UTF-8: {e}")
    except SpecError as e:
        where = f":{e.line}:{e.col}" if e.line else ""
        return _fail(f"{args.spec}{where}: {e.message}")
    metadata = {
        "granularity": args.granularity,
        "spec_sha256": hashlib.sha256(spec).hexdigest(),
        "locations_sha256": hashlib.sha256(locations).hexdigest(),
    }
    digest = hashlib.sha256()
    with fecs:
        t1 = time.monotonic()
        nspecs = len(program.guards) + (program.default is not None)
        _log(f"compiled {nspecs} spec(s) over {len(index.universe)} "
             f"symbols in {t1 - t0:.2f}s")

        if args.emit_rir:
            for label, named in _named_specs(program):
                print(f"// {label}", file=sys.stderr)
                print(rir.pretty(named.top), file=sys.stderr)

        options = CheckOptions(max_counterexamples=args.max_counterexamples,
                               workers=workers, strict=args.strict)
        try:
            # raw lines: at several workers, the workers parse them
            report = check_all(program, index, _hashed(fecs, digest),
                               options, metadata)
        except OSError as e:
            return _fail(str(e))
        except StrictInputError as e:
            return _fail(str(e))
    # check_all has drained the stream, so the digest covers every byte.
    report.metadata["fecs_sha256"] = digest.hexdigest()
    t2 = time.monotonic()
    t = report.totals
    _log(f"checked {sum(t.values())} FECs in {t2 - t1:.2f}s "
         f"(pass {t['pass']}, fail {t['fail']}, "
         f"unmatched {t['unmatched']}, error {t['error']})")

    if args.format == "json":
        rendered = report_to_json(report) + "\n"
    else:
        rendered = report_to_text(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as e:
            return _fail(str(e))
    else:
        sys.stdout.write(rendered)

    if report.verdict == "fail":
        return 1
    if report.verdict == "error":
        return 2
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        try:
            return _run_check(args)
        except Exception as e:
            import traceback  # only here: importing it slows start-up
            traceback.print_exc()
            print(f"rela: internal error: {type(e).__name__}: {e}",
                  file=sys.stderr)
            return 3
    raise AssertionError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
