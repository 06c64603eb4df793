"""Text formats: theory files, DIMACS CNF, edge lists, chain-CNF sections.

Theory file layout (lines; '#' starts a comment):

    defconn NAME ARITY BITSTRING     # optional custom connectives
    W:
    (and x y)                        # one formula per line
    D:
    (default PRE JUST CON)           # one rule per line
    goal: (or x y)                   # optional, at most once

The signature of the parsed theory is the declared custom connectives
plus the builtins actually used, collected while parsing; all formulas of
a file share one Var per variable name.  Machine-written files may contain
reserved "_"-prefixed variables (reductions generate them), so the reader
parses with allow_reserved.
"""

from __future__ import annotations

import re

from .boolfun import BUILTINS, BoolFun
from .errors import InputError, TheoryFormatError
from .formula import Formula, Var, _parse, serialize
from .reductions import CnfFormula, Digraph, Hypergraph, SnsatInstance
from .theory import DefaultRule, DefaultTheory


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


_RULE_RE = re.compile(r"\(default\b(.*)\)")


def _count(token: str, what: str, filename: str, lineno: int) -> int:
    """A count token as a non-negative int; anything else is reported at
    the file and line."""
    try:
        n = int(token)
    except ValueError:
        n = -1
    if n < 0:
        raise TheoryFormatError(f"{what} must be a non-negative integer, got {token!r}", filename, lineno)
    return n


def read_connective(decl: str) -> BoolFun:
    """A custom connective from its declaration 'NAME ARITY BITSTRING'.  A
    builtin name, an arity that is not an integer and a bad table raise
    InputError; the caller says where the declaration came from."""
    parts = decl.split()
    if len(parts) != 3:
        raise InputError("expected 'NAME ARITY BITSTRING'")
    name, arity, bits = parts
    if name in BUILTINS:
        raise InputError(f"cannot redefine builtin {name!r}")
    try:
        n = int(arity)
    except ValueError:
        raise InputError(f"arity {arity!r} is not an integer") from None
    return BoolFun(name, n, bits)


def read_theory(text: str, filename: str = "<input>"):
    """Parse a theory file; returns (DefaultTheory, goal | None).  A
    formula error names the line and an offset from its start."""
    sig = dict(BUILTINS)  # grows at each defconn
    declared: dict[str, BoolFun] = {}
    names: dict[str, Var] = {}
    used: dict[str, BoolFun] = {}
    w_forms: list[Formula] = []
    rules: list[DefaultRule] = []
    goal: Formula | None = None
    section = None

    def read(line: str, lineno: int, many: bool = False, start: int = 0, end: int | None = None):
        try:  # a cap (CapExceeded) passes through
            return _parse(line, sig, True, many, names, used, start, end)
        except InputError as exc:
            raise TheoryFormatError(str(exc), filename, lineno) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line[0] != "(":  # a keyword line (or a W line of one variable)
            low = line.lower()
            parts = line.split()
            if parts[0].lower() == "defconn" and len(parts) > 1:
                try:
                    f = read_connective(line.split(None, 1)[1])
                except InputError as exc:
                    raise TheoryFormatError(f"defconn {parts[1]!r}: {exc}", filename, lineno) from None
                if f.name in declared:
                    # formulas read so far keep the first table; the signature would hold the second
                    raise TheoryFormatError(f"defconn {f.name!r}: already declared", filename, lineno)
                declared[f.name] = sig[f.name] = f
                continue
            if low == "w:":
                section = "W"
                continue
            if low == "d:":
                section = "D"
                continue
            if low.startswith("goal:"):
                if goal is not None:  # as with defconn: one per file (--goal still overrides it)
                    raise TheoryFormatError("goal: already given", filename, lineno)
                goal = read(line, lineno, start=5)
                continue
        if section == "W":
            w_forms.append(read(line, lineno))
        elif section == "D":
            m = _RULE_RE.fullmatch(line)
            if not m:
                raise TheoryFormatError("rules look like (default PRE JUST CON)", filename, lineno)
            formulas = read(line, lineno, True, m.start(1), m.end(1))
            if len(formulas) != 3:
                raise TheoryFormatError(
                    f"a rule needs exactly 3 formulas, got {len(formulas)}", filename, lineno
                )
            rules.append(DefaultRule(*formulas))
        else:
            raise TheoryFormatError("expected a 'W:' or 'D:' section first", filename, lineno)

    signature = frozenset([*declared.values(), *used.values()])
    theory = DefaultTheory(tuple(dict.fromkeys(w_forms)), tuple(rules), signature)
    return theory, goal


def write_theory(theory: DefaultTheory, goal: Formula | None = None) -> str:
    lines: list[str] = []
    for f in sorted(theory.signature, key=lambda f: f.name):
        if f.name not in BUILTINS:
            lines.append(f"defconn {f.name} {f.arity} {f.table}")
    lines.append("W:")
    lines.extend(serialize(w) for w in theory.W)
    lines.append("D:")
    for d in theory.D:
        lines.append(
            f"(default {serialize(d.prerequisite)} {serialize(d.justification)} "
            f"{serialize(d.consequent)})"
        )
    if goal is not None:
        lines.append(f"goal: {serialize(goal)}")
    return "\n".join(lines) + "\n"


def read_dimacs(text: str, filename: str = "<input>") -> CnfFormula:
    """DIMACS CNF: 'p cnf VARS CLAUSES' then 0-terminated clause lines."""
    n_vars = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise TheoryFormatError("expected 'p cnf VARS CLAUSES'", filename, lineno)
            n_vars = _count(parts[2], "the variable count", filename, lineno)
            _count(parts[3], "the clause count", filename, lineno)
            continue
        if n_vars is None:
            raise TheoryFormatError("clause before the 'p cnf' header", filename, lineno)
        try:
            lits = [int(t) for t in line.split()]
        except ValueError:
            raise TheoryFormatError("clause lines are integers", filename, lineno) from None
        for lit in lits:
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        clauses.append(tuple(pending))
    if n_vars is None:
        raise TheoryFormatError("missing 'p cnf' header", filename)
    return CnfFormula(n_vars, tuple(clauses))


_NODE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_]*$")


def _check_node(name: str, filename: str, lineno: int) -> str:
    if not _NODE_RE.match(name):
        raise TheoryFormatError(f"bad node name {name!r}", filename, lineno)
    return name


def read_digraph(text: str, filename: str = "<input>"):
    """Edge-list text: 's NODE', 't NODE', optional 'node NODE', and
    'edge U V' lines.  Returns (Digraph, s, t)."""
    nodes: dict[str, None] = {}
    edges: list[tuple[str, str]] = []
    s = t = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        parts = line.split()
        kw = parts[0].lower()
        if kw == "s" and len(parts) == 2:
            s = _check_node(parts[1], filename, lineno)
            nodes.setdefault(s)
        elif kw == "t" and len(parts) == 2:
            t = _check_node(parts[1], filename, lineno)
            nodes.setdefault(t)
        elif kw == "node" and len(parts) == 2:
            nodes.setdefault(_check_node(parts[1], filename, lineno))
        elif kw == "edge" and len(parts) == 3:
            u, v = (_check_node(p, filename, lineno) for p in parts[1:])
            nodes.setdefault(u)
            nodes.setdefault(v)
            edges.append((u, v))
        else:
            raise TheoryFormatError(f"bad line {line!r}", filename, lineno)
    if s is None or t is None:
        raise TheoryFormatError("need 's NODE' and 't NODE' lines", filename)
    return Digraph(tuple(nodes), tuple(edges)), s, t


def read_hypergraph(text: str, filename: str = "<input>"):
    """Edge-list text: 'source NODE' (or 'sources A B ..'), 'target NODE',
    optional 'node NODE', and 'hedge SRC[,SRC2] DEST' lines.
    Returns (Hypergraph, sources, target)."""
    nodes: dict[str, None] = {}
    edges: list[tuple[tuple[str, ...], str]] = []
    sources: list[str] = []
    target = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        parts = line.split()
        kw = parts[0].lower()
        if kw == "source" and len(parts) == 2:
            sources.append(_check_node(parts[1], filename, lineno))
            nodes.setdefault(sources[-1])
        elif kw == "sources":
            for p in parts[1:]:
                sources.append(_check_node(p, filename, lineno))
                nodes.setdefault(sources[-1])
        elif kw == "target" and len(parts) == 2:
            target = _check_node(parts[1], filename, lineno)
            nodes.setdefault(target)
        elif kw == "node" and len(parts) == 2:
            nodes.setdefault(_check_node(parts[1], filename, lineno))
        elif kw == "hedge" and len(parts) == 3:
            srcs = tuple(_check_node(p, filename, lineno) for p in parts[1].split(","))
            dest = _check_node(parts[2], filename, lineno)
            for x in srcs:
                nodes.setdefault(x)
            nodes.setdefault(dest)
            edges.append((srcs, dest))
        else:
            raise TheoryFormatError(f"bad line {line!r}", filename, lineno)
    if target is None:
        raise TheoryFormatError("need a 'target NODE' line", filename)
    return Hypergraph(tuple(nodes), tuple(edges)), sources, target


_SNSAT_LIT_RE = re.compile(r"^(-?)([xz])(\d+)$")


def read_snsat(text: str, filename: str = "<input>") -> SnsatInstance:
    """Sectioned chain-CNF text: each 'formula' line opens the next formula
    of the chain; clause lines hold literals like 'x1 -z2 z3' (x = chain
    variable, z = local variable), optionally 0-terminated; an optional
    'zvars K' line declares the local variable count."""
    m: list[int] = []
    clauses: list[list[tuple]] = []
    declared: list[int | None] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        parts = line.split()
        if parts[0].lower() == "formula":
            m.append(0)
            declared.append(None)
            clauses.append([])
            continue
        if parts[0].lower() == "zvars" and len(parts) == 2:
            if not m:
                raise TheoryFormatError("zvars before any 'formula' line", filename, lineno)
            declared[-1] = _count(parts[1], "zvars", filename, lineno)
            continue
        if not m:
            raise TheoryFormatError("clause before any 'formula' line", filename, lineno)
        clause = []
        for tok in parts:
            if tok == "0":
                continue
            mt = _SNSAT_LIT_RE.match(tok)
            if not mt:
                raise TheoryFormatError(f"bad literal {tok!r}", filename, lineno)
            sign = -1 if mt.group(1) else 1
            kind = mt.group(2)
            j = int(mt.group(3))
            clause.append((kind, j, sign))
            if kind == "z":
                m[-1] = max(m[-1], j)
        clauses[-1].append(tuple(clause))
    if not m:
        raise TheoryFormatError("no 'formula' sections", filename)
    ms = tuple(max(mi, d or 0) for mi, d in zip(m, declared))
    return SnsatInstance(ms, tuple(tuple(cls) for cls in clauses))
