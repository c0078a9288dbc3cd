"""Surface language for change specifications, plus the location database.

A spec file is a sequence of definitions::

    regex a1   := where(group=="A1")
    spec  path := { a1 .* d1 : any(a1 a2 a3 d1); }
    spec  main := path else { .* : preserve; }
    pspec p0   := (dstPrefix == 10.0.0.0/8) -> main

Zone regexes match whole paths over locations at the active granularity;
`.` stands for any single location (never drop), the keyword `drop` for
the reserved drop symbol, and `where(attr=="value")` for the set of
locations whose database record satisfies the filter.  A spec statement
is `zone : modifier`; statements concatenate, and `else` composes
alternatives with falling priority.  `pspec` definitions attach traffic
guards; guards are tried in file order and the first match wins.

Zone regexes parse straight to balanced `rela.rir` path sets.  Named
definitions are resolved eagerly by inlining, so forward references and
cycles are impossible by construction.
"""

from __future__ import annotations

import ipaddress
import json
import re
from enum import Enum
from typing import Optional

from . import rir
from .automata import LOCATION, Record, Symbol, SymbolTable


class SpecError(Exception):
    """Base for everything the frontend can reject."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f" at line {line}, column {col}" if line else ""
        super().__init__(message + where)


class SpecSyntaxError(SpecError):
    pass


class SpecResolveError(SpecError):
    """A name, attribute or filter that does not resolve to anything."""


class LocationDbError(ValueError):
    pass


class Granularity(str, Enum):
    INTERFACE = "interface"
    DEVICE = "device"
    GROUP = "group"


class LocationDb:
    """The run's location inventory, loaded from a JSON array.

    `records` are the validated rows: dicts whose `name`, `device` and
    `group` are non-empty strings, plus any further attributes.
    """

    def __init__(self, records: list[dict]):
        names = set()
        for r in records:
            if r["name"] in names:
                raise LocationDbError(f"duplicate location name {r['name']!r}")
            names.add(r["name"])
        self.records = tuple(records)
        self.attributes = {"name", "device", "group"}.union(*records)

    @classmethod
    def from_json(cls, text: str | bytes) -> "LocationDb":
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as e:
            # ValueError covers JSONDecodeError, UnicodeDecodeError and an
            # integer past the int-to-str digit limit; RecursionError is
            # nesting deeper than the decoder's limit
            raise LocationDbError(f"location database is not valid JSON: {e}")
        if not isinstance(raw, list):
            raise LocationDbError("location database must be a JSON array")
        for i, item in enumerate(raw):
            if not isinstance(item, dict):
                raise LocationDbError(f"record {i} is not an object")
            for key in ("name", "device", "group"):
                if not isinstance(item.get(key), str) or not item[key]:
                    raise LocationDbError(
                        f"record {i} needs a non-empty string {key!r}")
        return cls(raw)

    @classmethod
    def load(cls, path: str) -> "LocationDb":
        with open(path, "rb") as fh:
            return cls.from_json(fh.read())

    def build_index(self, granularity: Granularity) -> "LocationIndex":
        """One map from every interface name, every coarse name and
        "drop" to its symbol; coarse names are interned in sorted order.

        A name that would mean two locations is rejected: `drop` as any
        record's name or coarse name, and an interface named like another
        entity's coarse name.
        """
        key = "name" if granularity is Granularity.INTERFACE \
            else granularity.value
        for r in self.records:
            if "drop" in (r["name"], r[key]):
                raise LocationDbError(
                    "location name 'drop' is reserved for dropped traffic")
        table = SymbolTable()
        symbol_of = {"drop": table.drop}
        for cname in sorted({r[key] for r in self.records}):
            symbol_of[cname] = table.location(cname)
        for r in self.records:
            sym = symbol_of[r[key]]
            if symbol_of.setdefault(r["name"], sym) is not sym:
                raise LocationDbError(
                    f"location name {r['name']!r} is also a "
                    f"{granularity.value} name, so it would name two "
                    "locations")
        return LocationIndex(self, granularity, table, table.universe(),
                             symbol_of)


class LocationIndex(Record):
    """Symbols for one granularity: the run's working alphabet."""

    __slots__ = ("db", "granularity", "table", "universe", "symbol_of")

    def __init__(self, db: LocationDb, granularity: Granularity,
                 table: SymbolTable, universe: frozenset[Symbol],
                 symbol_of: dict):
        self.db = db
        self.granularity = granularity
        self.table = table
        self.universe = universe
        # interface name, coarse name or "drop" -> Symbol
        self.symbol_of = symbol_of

    def lookup(self, name: str) -> Optional[Symbol]:
        """Resolve a location name: spec atoms, where() filters and FEC
        node locations all resolve here."""
        return self.symbol_of.get(name)


# ---------------------------------------------------------------------------
# Abstract syntax


class Modifier(Record):
    __slots__ = ()


class Preserve(Modifier):
    __slots__ = ()


class Add(Modifier):
    __slots__ = ("paths",)

    def __init__(self, paths: rir.PathSetExpr):
        self.paths = paths


class Remove(Modifier):
    __slots__ = ("paths",)

    def __init__(self, paths: rir.PathSetExpr):
        self.paths = paths


class Replace(Modifier):
    __slots__ = ("old", "new")

    def __init__(self, old: rir.PathSetExpr, new: rir.PathSetExpr):
        self.old = old
        self.new = new


class DropTraffic(Modifier):
    __slots__ = ()


class AnyOf(Modifier):
    """Accept any post-change path set within `paths` (loose preserve)."""

    __slots__ = ("paths",)

    def __init__(self, paths: rir.PathSetExpr):
        self.paths = paths


class SpecAst(Record):
    """A spec tree; `name` is the definition a tree is bound to, if any,
    and equality leaves it out."""

    __slots__ = ()


class AtomicSpec(SpecAst):
    __slots__ = ("zone", "modifier", "name")
    _compare = ("zone", "modifier")

    def __init__(self, zone: rir.PathSetExpr, modifier: Modifier,
                 name: Optional[str] = None):
        self.zone = zone
        self.modifier = modifier
        self.name = name


class ConcatSpec(SpecAst):
    """Statements in sequence: the paths split into one piece per part."""

    __slots__ = ("parts", "name")
    _compare = ("parts",)

    def __init__(self, parts: tuple, name: Optional[str] = None):
        self.parts = parts
        self.name = name


class ElseSpec(SpecAst):
    """Arms in falling priority: each applies where no earlier one does."""

    __slots__ = ("arms", "name")
    _compare = ("arms",)

    def __init__(self, arms: tuple, name: Optional[str] = None):
        self.arms = arms
        self.name = name


def _named(spec: SpecAst, name: str) -> SpecAst:
    """`spec` rebuilt as the tree the definition `name` binds."""
    if isinstance(spec, AtomicSpec):
        return AtomicSpec(spec.zone, spec.modifier, name)
    if isinstance(spec, ConcatSpec):
        return ConcatSpec(spec.parts, name)
    return ElseSpec(spec.arms, name)


# --- traffic predicates ------------------------------------------------------


class PrefixPredicate(Record):
    __slots__ = ()


class PredTrue(PrefixPredicate):
    __slots__ = ()


class PredAtom(PrefixPredicate):
    """Containment test of the flow's prefix within fixed CIDR blocks.

    `op` is "==" (contained in the single block), "!=" (not contained) or
    "in" (contained in at least one of several blocks).
    """

    __slots__ = ("fieldname", "op", "cidrs")

    def __init__(self, fieldname: str, op: str, cidrs):
        self.fieldname = fieldname  # "dstPrefix" | "srcPrefix"
        self.op = op
        self.cidrs = tuple(cidrs)


class PredAnd(PrefixPredicate):
    __slots__ = ("operands",)

    def __init__(self, operands: tuple):
        self.operands = operands  # of PrefixPredicate, two or more


class PredOr(PrefixPredicate):
    __slots__ = ("operands",)

    def __init__(self, operands: tuple):
        self.operands = operands  # of PrefixPredicate, two or more


class PredNot(PrefixPredicate):
    __slots__ = ("inner",)

    def __init__(self, inner: PrefixPredicate):
        self.inner = inner


def _contained(value, block) -> bool:
    if value is None:
        return False
    try:
        return value.subnet_of(block)
    except TypeError:  # mixed address families never match
        return False


def match_predicate(pred: PrefixPredicate, traffic) -> bool:
    """Evaluate a guard against a traffic class.

    `traffic` must expose `dst` and `src` as ip_network values (src may
    be None, in which case srcPrefix atoms are not contained anywhere).
    """
    if isinstance(pred, PredTrue):
        return True
    if isinstance(pred, PredAtom):
        value = traffic.dst if pred.fieldname == "dstPrefix" else traffic.src
        inside = any(_contained(value, c) for c in pred.cidrs)
        return not inside if pred.op == "!=" else inside
    if isinstance(pred, PredAnd):
        return all(match_predicate(p, traffic) for p in pred.operands)
    if isinstance(pred, PredOr):
        return any(match_predicate(p, traffic) for p in pred.operands)
    if isinstance(pred, PredNot):
        return not match_predicate(pred.inner, traffic)
    raise TypeError(f"not a predicate: {pred!r}")


class GuardedSpec(Record):
    __slots__ = ("name", "predicate", "spec")

    def __init__(self, name: str, predicate: PrefixPredicate, spec: SpecAst):
        self.name = name
        self.predicate = predicate
        self.spec = spec


class Program(Record):
    """A parsed spec file: guards in file order plus an optional default.

    The default is the one spec definition no other definition or guard
    references; flows matching no guard are checked against it, or
    reported unmatched when there is none.
    """

    __slots__ = ("guarded", "default")

    def __init__(self, guarded: tuple, default: Optional[SpecAst]):
        self.guarded = guarded
        self.default = default


# ---------------------------------------------------------------------------
# Tokenizer

_KEYWORDS = {"regex", "spec", "pspec", "else", "where", "drop", "preserve",
             "add", "remove", "replace", "any", "true", "and", "or", "not",
             "in"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<cidr>\d{1,3}(?:\.\d{1,3}){3}(?:/\d{1,2})?
      |(?:[0-9A-Fa-f]{1,4})?(?::[0-9A-Fa-f]{0,4}){2,7}(?:/\d{1,3})?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<string>"[^"\n]*")
  | (?P<define>:=)
  | (?P<eq>==)
  | (?P<neq>!=)
  | (?P<arrow>->)
  | (?P<punct>[{}()|*+?.,;:])
""", re.VERBOSE)


class Token(Record):
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind  # NAME KEYWORD STRING CIDR punctuation-char EOF
        self.value = value
        self.line = line
        self.col = col


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecSyntaxError(f"unexpected character {text[pos]!r}",
                                  line, col)
        group = m.lastgroup
        value = m.group()
        if group not in ("ws", "comment"):
            if group == "name":
                kind = "KEYWORD" if value in _KEYWORDS else "NAME"
            elif group == "string":
                kind = "STRING"
                value = value[1:-1]
            elif group == "cidr":
                kind = "CIDR"
            elif group == "punct":
                kind = value
            else:
                kind = {"define": ":=", "eq": "==", "neq": "!=",
                        "arrow": "->"}[group]
            tokens.append(Token(kind, value, line, col))
        newlines = m.group().count("\n")
        if newlines:
            line += newlines
            col = len(m.group()) - m.group().rfind("\n")
        else:
            col += len(m.group())
        pos = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token], index: LocationIndex):
        self.tokens = tokens
        self.pos = 0
        self.index = index
        # `.`: any single location, never drop; nothing when there are none
        locations = frozenset(s for s in index.universe if s.kind == LOCATION)
        self.dot = rir.SymSet(locations) if locations else rir.Zero()
        self.regex_defs: dict[str, rir.PathSetExpr] = {}
        self.spec_defs: dict[str, SpecAst] = {}
        self.def_names: set[str] = set()
        self.referenced: set[str] = set()

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.next()
        if tok.kind != kind:
            wanted = what or kind
            raise SpecSyntaxError(
                f"expected {wanted}, found {tok.value or 'end of input'!r}",
                tok.line, tok.col)
        return tok

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "KEYWORD" and t.value == word

    def flat_chain(self, keyword: str, operand, join):
        """Operands separated by `keyword`, joined in one `join` call."""
        operands = [operand()]
        while self.at_keyword(keyword):
            self.next()
            operands.append(operand())
        return operands[0] if len(operands) == 1 else join(tuple(operands))

    # -- program structure

    def program(self) -> Program:
        guarded = []
        order: list[str] = []
        while not self.peek().kind == "EOF":
            t = self.peek()
            if self.at_keyword("regex"):
                self.next()
                name = self.def_name()
                self.expect(":=")
                self.regex_defs[name] = self.regex()
            elif self.at_keyword("spec"):
                self.next()
                name = self.def_name()
                self.expect(":=")
                self.spec_defs[name] = _named(self.spec_expr(), name)
                order.append(name)
            elif self.at_keyword("pspec"):
                self.next()
                name = self.def_name()
                self.expect(":=")
                pred = self.pred_or()
                self.expect("->")
                guarded.append(GuardedSpec(name, pred, self.spec_expr()))
            else:
                raise SpecSyntaxError(
                    "expected a regex, spec or pspec definition",
                    t.line, t.col)
        unreferenced = [n for n in order if n not in self.referenced]
        if len(unreferenced) > 1:
            raise SpecSyntaxError(
                "ambiguous entry point: specs "
                + ", ".join(repr(n) for n in unreferenced)
                + " are all unreferenced; compose them or guard them")
        default = self.spec_defs[unreferenced[0]] if unreferenced else None
        if default is None and not guarded:
            raise SpecSyntaxError("the file defines no checkable spec")
        return Program(tuple(guarded), default)

    def def_name(self) -> str:
        tok = self.expect("NAME", "a definition name")
        if tok.value in self.def_names:
            raise SpecSyntaxError(f"duplicate definition of {tok.value!r}",
                                  tok.line, tok.col)
        self.def_names.add(tok.value)
        return tok.value

    # -- specs

    def spec_expr(self) -> SpecAst:
        arms = [self.spec_seq()]
        while self.at_keyword("else"):
            self.next()
            arms.append(self.spec_seq())
        if len(arms) == 1:
            return arms[0]
        # A chain that ends in a named chain goes on with that chain's
        # arms; a named chain anywhere else stays one arm.
        if isinstance(arms[-1], ElseSpec):
            arms[-1:] = arms[-1].arms
        return ElseSpec(tuple(arms))

    def spec_seq(self) -> SpecAst:
        units = [self.spec_unit()]
        while self.at_atom("{"):
            units.append(self.spec_unit())
        return units[0] if len(units) == 1 else ConcatSpec(tuple(units))

    def spec_unit(self) -> SpecAst:
        t = self.peek()
        if t.kind == "{":
            return self.spec_block()
        if t.kind == "NAME" and t.value in self.spec_defs \
                and self.peek(1).kind != ":":
            self.next()
            self.referenced.add(t.value)
            return self.spec_defs[t.value]
        zone = self.regex()
        self.expect(":", "':' and a modifier after the zone regex")
        return AtomicSpec(zone, self.modifier())

    def spec_block(self) -> SpecAst:
        self.expect("{")
        stmts = []
        while self.peek().kind != "}":
            stmts.append(self.spec_expr())
            if self.peek().kind == ";":
                self.next()
            elif self.peek().kind != "}":
                t = self.peek()
                raise SpecSyntaxError("expected ';' or '}'", t.line, t.col)
        self.expect("}")
        if not stmts:
            t = self.peek()
            raise SpecSyntaxError("empty spec block", t.line, t.col)
        return stmts[0] if len(stmts) == 1 else ConcatSpec(tuple(stmts))

    def modifier(self) -> Modifier:
        t = self.next()
        if t.kind != "KEYWORD":
            raise SpecSyntaxError("expected a modifier", t.line, t.col)
        if t.value == "preserve":
            return Preserve()
        if t.value == "drop":
            return DropTraffic()
        if t.value in ("add", "remove", "any"):
            self.expect("(")
            arg = self.regex()
            self.expect(")")
            return {"add": Add, "remove": Remove, "any": AnyOf}[t.value](arg)
        if t.value == "replace":
            self.expect("(")
            old = self.regex()
            self.expect(",")
            new = self.regex()
            self.expect(")")
            return Replace(old, new)
        raise SpecSyntaxError(f"unknown modifier {t.value!r}", t.line, t.col)

    # -- regexes

    def at_atom(self, *kinds: str) -> bool:
        """Whether the next token starts a regex atom, or is in `kinds`."""
        t = self.peek()
        return t.kind in ("NAME", "STRING", "(", ".", *kinds) or \
            (t.kind == "KEYWORD" and t.value in ("where", "drop"))

    def regex(self) -> rir.PathSetExpr:
        arms = [self.rx_cat()]
        while self.peek().kind == "|":
            self.next()
            arms.append(self.rx_cat())
        return self.chain(arms, rir.Union, rir.union)

    def rx_cat(self) -> rir.PathSetExpr:
        parts = [self.rx_rep()]
        while self.at_atom():
            parts.append(self.rx_rep())
        return self.chain(parts, rir.Concat, rir.concat)

    def chain(self, parts: list, node, join) -> rir.PathSetExpr:
        """Fold the operands of a `|` or concatenation chain balanced,
        built with `join`, the constructor of `node`.

        An operand that is itself a `node` (a group, a definition, `x+`
        or `x?`) splices in its operands, so nesting never deepens the
        tree.  A leading run of location sets in a `|` chain merges into
        one set, so `a1 | a2` and a where() naming both parse alike.
        """
        flat = []
        for part in parts:
            for x in rir.flatten(part, node):
                if node is rir.Union and len(flat) == 1 and \
                        isinstance(flat[0], rir.SymSet) and \
                        isinstance(x, rir.SymSet):
                    flat[0] = rir.union(flat[0], x)
                else:
                    flat.append(x)
        return rir.fold(flat, join)

    def rx_rep(self) -> rir.PathSetExpr:
        """An atom and its run of postfix operators, as one operator.

        The run collapses exactly: x** = x*, (x+)+ = x+, (x?)? = x? and
        (x+)? = (x?)+ = x*.
        """
        atom = self.rx_atom()
        ops = set()
        while self.peek().kind in ("*", "+", "?"):
            ops.add(self.next().kind)
        if not ops:
            return atom
        star = rir.star(atom)
        if "*" in ops or ops == {"+", "?"}:
            return star
        if "+" in ops:  # x x*
            return self.chain([atom, star], rir.Concat, rir.concat)
        return self.chain([atom, rir.One()], rir.Union, rir.union)  # x or ()

    def rx_atom(self) -> rir.PathSetExpr:
        t = self.next()
        if t.kind == "(":
            inner = self.regex()
            self.expect(")")
            return inner
        if t.kind == ".":
            return self.dot
        if t.kind == "KEYWORD" and t.value == "drop":
            return rir.SymSet(frozenset([self.index.table.drop]))
        if t.kind == "KEYWORD" and t.value == "where":
            self.expect("(")
            names = self.where_or()
            self.expect(")")
            if not names:
                raise SpecResolveError("where() matches no locations",
                                       t.line, t.col)
            return rir.SymSet(frozenset(map(self.index.lookup, names)))
        if t.kind in ("NAME", "STRING"):
            if t.kind == "NAME" and t.value in self.regex_defs:
                return self.regex_defs[t.value]
            if t.kind == "NAME" and t.value in self.spec_defs:
                raise SpecSyntaxError(
                    f"{t.value!r} names a spec, not a regex", t.line, t.col)
            sym = self.index.lookup(t.value)
            if sym is None:
                raise SpecResolveError(
                    f"undefined name {t.value!r}: not a regex definition "
                    f"or a known location", t.line, t.col)
            return rir.SymSet(frozenset([sym]))
        raise SpecSyntaxError(f"unexpected {t.value or 'end of input'!r} "
                              "in a regex", t.line, t.col)

    # -- where() filters
    #
    # A filter resolves as it parses, to the interface names of the
    # records it matches: `and` and `or` combine per record, before the
    # names resolve to symbols.

    def where_or(self) -> frozenset:
        return self.flat_chain("or", self.where_and,
                               lambda sets: frozenset.union(*sets))

    def where_and(self) -> frozenset:
        return self.flat_chain("and", self.where_atom,
                               lambda sets: frozenset.intersection(*sets))

    def where_atom(self) -> frozenset:
        t = self.peek()
        if t.kind == "(":
            self.next()
            inner = self.where_or()
            self.expect(")")
            return inner
        attr = self.next()
        if attr.kind not in ("NAME", "STRING"):
            raise SpecSyntaxError("expected an attribute name",
                                  attr.line, attr.col)
        op = self.next()
        if op.kind not in ("==", "!="):
            raise SpecSyntaxError("expected '==' or '!='", op.line, op.col)
        value = self.next()
        if value.kind not in ("STRING", "NAME", "CIDR"):
            raise SpecSyntaxError("expected a quoted value",
                                  value.line, value.col)
        if attr.value not in self.index.db.attributes:
            raise SpecResolveError(
                f"unknown attribute {attr.value!r} in where()",
                attr.line, attr.col)
        # `!=` matches only the records that carry the attribute
        equal = op.kind == "=="
        return frozenset(r["name"] for r in self.index.db.records
                         if (got := r.get(attr.value)) is not None
                         and (got == value.value) == equal)

    # -- traffic predicates

    def pred_or(self) -> PrefixPredicate:
        return self.flat_chain("or", self.pred_and, PredOr)

    def pred_and(self) -> PrefixPredicate:
        return self.flat_chain("and", self.pred_not, PredAnd)

    def pred_not(self) -> PrefixPredicate:
        if self.at_keyword("not"):
            self.next()
            return PredNot(self.pred_not())
        t = self.peek()
        if t.kind == "(":
            self.next()
            inner = self.pred_or()
            self.expect(")")
            return inner
        if self.at_keyword("true"):
            self.next()
            return PredTrue()
        return self.pred_atom()

    def pred_atom(self) -> PrefixPredicate:
        name = self.expect("NAME", "'dstPrefix' or 'srcPrefix'")
        if name.value not in ("dstPrefix", "srcPrefix"):
            raise SpecSyntaxError(
                f"unknown traffic field {name.value!r}", name.line, name.col)
        op = self.next()
        if op.kind in ("==", "!="):
            cidr = self.cidr()
            return PredAtom(name.value, op.kind, (cidr,))
        if op.kind == "KEYWORD" and op.value == "in":
            self.expect("{")
            blocks = [self.cidr()]
            while self.peek().kind == ",":
                self.next()
                blocks.append(self.cidr())
            self.expect("}")
            return PredAtom(name.value, "in", tuple(blocks))
        raise SpecSyntaxError("expected '==', '!=' or 'in'", op.line, op.col)

    def cidr(self):
        t = self.expect("CIDR", "an address block")
        try:
            return ipaddress.ip_network(t.value, strict=False)
        except ValueError as e:
            raise SpecSyntaxError(f"bad address block {t.value!r}: {e}",
                                  t.line, t.col)


def parse_program(text: str, index: LocationIndex) -> Program:
    """Parse a spec file against a location index.

    Nesting past the interpreter's recursion limit is a syntax error.
    """
    try:
        return _Parser(tokenize(text), index).program()
    except RecursionError:
        raise SpecSyntaxError("the spec nests too deeply") from None
