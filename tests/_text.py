"""Text forms only the tests use: standalone regexes, specs, FEC lines.

`parse_regex` parses one zone regex on its own and `regex_to_text`
inverts it.  `program_to_text` inverts `rela.frontend.parse_program` up
to definition inlining, and `fec_to_line` writes the canonical NDJSON
line that `rela.snapshot.parse_fec` reads back.
"""

from __future__ import annotations

import json
import re

from rela import rir
from rela.automata import Symbol
from rela.frontend import (
    _KEYWORDS, Add, AnyOf, AtomicSpec, ConcatSpec, DropTraffic, ElseSpec,
    LocationIndex, Modifier, PredAnd, PredAtom, PredNot, PredOr, PredTrue,
    PrefixPredicate, Preserve, Program, Remove, Replace, SpecAst,
    SpecSyntaxError, _Parser, tokenize,
)
from rela.snapshot import Fec


def parse_regex(text: str, index: LocationIndex) -> rir.PathSetExpr:
    """Parse a standalone zone regex."""
    p = _Parser(tokenize(text), index)
    out = p.regex()
    tok = p.peek()
    if tok.kind != "EOF":
        raise SpecSyntaxError(f"trailing input {tok.value!r}",
                              tok.line, tok.col)
    return out


_BARE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*$")


def _loc_name(sym: Symbol) -> str:
    if sym.kind == "drop":
        return "drop"
    if _BARE_NAME.match(sym.name) and sym.name not in _KEYWORDS:
        return sym.name
    return f'"{sym.name}"'


def regex_to_text(p: rir.PathSetExpr, prec: int = 0) -> str:
    """Render a parsed regex so that parsing the text gives back `p`.

    `x?` parses to `Union(x, One())` and the parser splices that into
    an enclosing `|` chain, so a `One` among a chain's operands renders
    as a `?` on the operand before it.  `x+` has already become `x x*`.
    """
    if isinstance(p, rir.SymSet):
        names = [_loc_name(s) for s in sorted(p.symbols)]
        text = " | ".join(names)
        return f"({text})" if prec > 0 and len(names) > 1 else text
    if isinstance(p, rir.Union):
        arms = []  # [operand, "?" per One after it]
        for x in rir.flatten(p, rir.Union):
            if isinstance(x, rir.One):
                arms[-1][1] += "?"
            else:
                arms.append([x, ""])
        text = " | ".join(regex_to_text(x, 2 if q else 1) + q
                          for x, q in arms)
        return f"({text})" if prec > 0 and len(arms) > 1 else text
    if isinstance(p, rir.Concat):
        text = " ".join(regex_to_text(x, 1)
                        for x in rir.flatten(p, rir.Concat))
        return f"({text})" if prec > 1 else text
    if isinstance(p, rir.Star):
        return f"{regex_to_text(p.inner, 2)}*"
    raise TypeError(f"not a parsed regex: {p!r}")


def modifier_to_text(m: Modifier) -> str:
    if isinstance(m, Preserve):
        return "preserve"
    if isinstance(m, DropTraffic):
        return "drop"
    if isinstance(m, Add):
        return f"add({regex_to_text(m.paths)})"
    if isinstance(m, Remove):
        return f"remove({regex_to_text(m.paths)})"
    if isinstance(m, AnyOf):
        return f"any({regex_to_text(m.paths)})"
    if isinstance(m, Replace):
        return f"replace({regex_to_text(m.old)}, {regex_to_text(m.new)})"
    raise TypeError(f"not a modifier: {m!r}")


def spec_to_text(s: SpecAst) -> str:
    if isinstance(s, AtomicSpec):
        return f"{regex_to_text(s.zone, 1)} : {modifier_to_text(s.modifier)}"
    if isinstance(s, ConcatSpec):
        return "{ " + " ".join(spec_to_text(p) + ";" for p in s.parts) + " }"
    if isinstance(s, ElseSpec):
        return " else ".join("{ " + spec_to_text(a) + "; }" for a in s.arms)
    raise TypeError(f"not a spec: {s!r}")


def predicate_to_text(p: PrefixPredicate) -> str:
    if isinstance(p, PredTrue):
        return "true"
    if isinstance(p, PredAtom):
        if p.op == "in":
            return f"{p.fieldname} in {{{', '.join(str(c) for c in p.cidrs)}}}"
        return f"{p.fieldname} {p.op} {p.cidrs[0]}"
    if isinstance(p, (PredAnd, PredOr)):
        word = " and " if isinstance(p, PredAnd) else " or "
        return "(" + word.join(predicate_to_text(q) for q in p.operands) + ")"
    if isinstance(p, PredNot):
        return f"not {predicate_to_text(p.inner)}"
    raise TypeError(f"not a predicate: {p!r}")


def program_to_text(program: Program) -> str:
    """Render a program in inlined form; reparsing restores the program."""
    lines = []
    for g in program.guarded:
        lines.append(f"pspec {g.name} := {predicate_to_text(g.predicate)} "
                     f"-> {spec_to_text(g.spec)}")
    if program.default is not None:
        lines.append(f"spec main := {spec_to_text(program.default)}")
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: dict) -> dict:
    """A raw graph with its fields in canonical order, extra keys dropped."""
    return {
        "nodes": [{"id": n["id"], "loc": n["loc"]} for n in g["nodes"]],
        "edges": [list(e) for e in g["edges"]],
        "sources": list(g["sources"]),
        "sinks": list(g["sinks"]),
    }


def fec_to_json_dict(fec: Fec) -> dict:
    traffic = {"dstPrefix": fec.traffic.dst_prefix}
    if fec.traffic.src_prefix is not None:
        traffic["srcPrefix"] = fec.traffic.src_prefix
    return {
        "id": fec.fec_id,
        "traffic": traffic,
        "pre": graph_to_json_dict(fec.pre),
        "post": graph_to_json_dict(fec.post),
    }


def fec_to_line(fec: Fec) -> str:
    """One canonical NDJSON line; stable field order, no extra spaces."""
    return json.dumps(fec_to_json_dict(fec), separators=(",", ":"))
