"""Relational verification of network forwarding changes.

Given two forwarding snapshots per traffic class (before and after a
change) and a compact relational specification of the intended change,
the checker decides for every class whether the post-change paths are
exactly what the spec maps the pre-change paths to, and explains every
violation with concrete path sets.

The layers, bottom up: :mod:`rela.automata` (acceptors and transducers
over interned location symbols), :mod:`rela.rir` (the relational
expression language and its evaluators), :mod:`rela.frontend` (location
database and the surface spec language), :mod:`rela.compiler` (lowering
specs to check equations), :mod:`rela.snapshot` (traffic classes and
forwarding graphs), :mod:`rela.checker` (verdicts, counterexamples,
reports), and :mod:`rela.cli` (the ``rela`` command).
"""

from .checker import (
    CheckOptions, Counterexample, FecVerdict, Report, check_all, check_fec,
    report_to_json, report_to_text,
)
from .compiler import CompiledProgram, CompiledSpec, compile_program
from .frontend import (
    Granularity, LocationDb, LocationDbError, LocationIndex, SpecError,
    parse_program,
)
from .snapshot import Fec, FecError, SnapshotError, load_fecs, parse_fec

__version__ = "0.1.0"

__all__ = [
    "CheckOptions", "Counterexample", "FecVerdict", "Report", "check_all",
    "check_fec", "report_to_json", "report_to_text",
    "CompiledProgram", "CompiledSpec", "compile_program",
    "Granularity", "LocationDb", "LocationDbError", "LocationIndex",
    "SpecError", "parse_program",
    "Fec", "FecError", "SnapshotError", "load_fecs", "parse_fec",
    "__version__",
]
