"""Formula ASTs over a declared connective set, with a prefix-text grammar.

Grammar (UTF-8 text):

    formula := VAR | "(" CONN formula* ")"
    VAR     := [A-Za-z][A-Za-z0-9_]*      (user variables; "_"-prefixed names
                                           are reserved for generated fresh
                                           variables and rejected unless
                                           allow_reserved is set)

Constants are 0-ary connective applications, e.g. ``(top)``; there is no
separate constant node kind.  Formulas are immutable and structurally
hashable, so every operation here is safe to run concurrently on shared
inputs; the parser reads a text's tokens in one regex scan, and a reader
of many texts can share one Var per name and collect the connectives
met (see _parse).
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .boolfun import BoolFun, signature_map
from .errors import (
    ArityMismatch,
    EmptyArgs,
    FormulaSyntaxError,
    NestingTooDeep,
    TooManyVariables,
    UnboundVariable,
    UnknownConnective,
)

VAR_CAP = 20  # hard cap on truth-table construction, 2**20 rows

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"[()]|[A-Za-z_][A-Za-z0-9_]*|\S")  # \S: a character no token starts with


class Formula:
    """Base class; instances are Var or App."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash


class Var(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        object.__setattr__(self, "_hash", hash(("v", name)))

    def __setattr__(self, key, value):
        if hasattr(self, "name") and key != "_hash":
            raise AttributeError("Var is immutable")
        object.__setattr__(self, key, value)

    def __eq__(self, other):
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through the constructor, so the hash is this process's
        return (Var, (self.name,))

    def __repr__(self):
        return f"Var({self.name!r})"


class App(Formula):
    """conn applied to args.  The hash is computed once (``_fill``), from
    the connective's and the arguments' stored hashes, so equal formulas
    hash equal whether built here or by the parser, which skips the arity
    check it has already made."""

    __slots__ = ("conn", "args")

    def __init__(self, conn: BoolFun, args: Sequence[Formula] = ()):
        args = tuple(args)
        if len(args) != conn.arity:
            raise ArityMismatch(
                f"connective {conn.name!r} expects {conn.arity} arguments, got {len(args)}"
            )
        _fill(self, conn, args)

    def __setattr__(self, key, value):
        raise AttributeError("App is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, App)
            and self.conn == other.conn
            and self.args == other.args
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (App, (self.conn, self.args))

    def __repr__(self):
        return f"App({self.conn.name}, {list(self.args)!r})"


# App's slots, written past its immutability guard
_set_conn, _set_args, _set_hash = App.conn.__set__, App.args.__set__, Formula._hash.__set__


def _fill(node: App, conn: BoolFun, args: tuple) -> App:
    """node, an App not yet filled, as conn applied to the tuple args; the
    arity is the caller's to check.  The parser, which has checked it,
    fills object.__new__(App) itself."""
    _set_conn(node, conn)
    _set_args(node, args)
    _set_hash(node, hash(("a", conn._hash, tuple([a._hash for a in args]))))
    return node


def variables(phi: Formula) -> set[str]:
    return variables_of((phi,))


def variables_of(formulas: Iterable[Formula]) -> set[str]:
    """The variable names of all the formulas, in one scan with one stack."""
    names, stack = set(), list(formulas)
    while stack:
        node = stack.pop()
        if node.__class__ is Var:
            names.add(node.name)
        else:
            stack += node.args
    return names


def connectives(phi: Formula) -> set[BoolFun]:
    return connectives_of((phi,))


def connectives_of(formulas: Iterable[Formula]) -> set[BoolFun]:
    """The connectives applied in all the formulas, in one scan with one stack."""
    conns, stack = set(), list(formulas)
    while stack:
        node = stack.pop()
        if node.__class__ is not Var:
            conns.add(node.conn)
            stack += node.args
    return conns


def node_count(phi: Formula) -> int:
    count, stack = 0, [phi]
    while stack:
        node = stack.pop()
        count += 1
        if node.__class__ is not Var:
            stack += node.args
    return count


def serialize(phi: Formula) -> str:
    """Canonical prefix text; parse(serialize(phi)) reproduces phi."""
    if isinstance(phi, Var):
        return phi.name
    parts = [phi.conn.name]
    for a in phi.args:  # a loop, not a comprehension: one frame per level, as in parse
        parts.append(serialize(a))
    return "(" + " ".join(parts) + ")"


def parse(text: str, signature, allow_reserved: bool = False) -> Formula:
    """Parse prefix-notation text against a connective signature.

    ``signature`` is an iterable or mapping of BoolFun.  Variable names
    starting with "_" are reserved for machine-generated formulas and only
    accepted with allow_reserved=True (the theory-file reader sets it, so
    reduction outputs round-trip).
    """
    return _parse(text, signature_map(signature), allow_reserved, False, {}, {})


def parse_formulas(text: str, signature, allow_reserved: bool = False) -> list[Formula]:
    """The formulas of text, read one after another as parse reads one."""
    return _parse(text, signature_map(signature), allow_reserved, True, {}, {})


def _parse(text, sig, allow_reserved, many, names, used, start=0, end=None):
    """The formula of text[start:end] over the name map sig, or with many
    the list of its formulas.  names (to Var) and used (to BoolFun) grow as
    names are met, so a caller passing the same two for every formula of a
    file gets one Var per name and the connectives the file uses.  The
    tokens come from one regex scan; an error's offset, from the start of
    text, is found by scanning again."""
    end = len(text) if end is None else end
    tokens = _TOKEN_RE.findall(text, start, end)
    n = len(tokens)
    tokens.reverse()
    pop = tokens.pop

    def error(cls, message, k=None):
        # cls(message) at token k, by default the last popped, or at the end
        # when k is past the last.  But a token that is neither a name nor a
        # parenthesis is a character no token starts with, and the first
        # such is reported instead, wherever it stands.
        found = list(_TOKEN_RE.finditer(text, start, end))
        for m in found:
            if m.group() not in "()" and not _NAME_RE.match(m.group()):
                return FormulaSyntaxError(f"unexpected character {m.group()!r}", m.start())
        k = n - len(tokens) - 1 if k is None else k
        return cls() if cls is NestingTooDeep else cls(message, found[k].start() if k < n else end)

    def var(tok):  # a variable met for the first time (not a name: see error)
        if not _NAME_RE.match(tok) or (tok[0] == "_" and not allow_reserved):
            raise error(FormulaSyntaxError, f"variable {tok!r} uses the reserved '_' prefix")
        v = names[tok] = Var(tok)
        return v

    def connective(name):  # a connective met for the first time
        if name in "()":
            raise error(FormulaSyntaxError, "expected a connective name after '('")
        conn = sig.get(name) if _NAME_RE.match(name) else None
        if conn is None:
            raise error(UnknownConnective, f"unknown connective {name!r}")
        used[name] = conn
        return conn

    def app() -> App:  # the rest of an application after its '(': one frame per level
        name = pop()
        at = len(tokens)
        conn = used.get(name) or connective(name)
        args = []
        while True:
            tok = pop()
            if tok == "(":
                args.append(app())
            elif tok == ")":
                break
            else:
                args.append(names.get(tok) or var(tok))
        if len(args) != conn.arity:
            raise error(ArityMismatch, f"connective {name!r} expects {conn.arity} arguments, "
                        f"got {len(args)}", n - at - 1)
        return _fill(object.__new__(App), conn, tuple(args))

    formulas: list[Formula] = []
    try:
        while tokens:
            tok = pop()
            if tok == "(":
                formulas.append(app())
            elif tok == ")":
                raise error(FormulaSyntaxError, "unexpected ')'")
            else:
                formulas.append(names.get(tok) or var(tok))
            if not many:
                break
    except RecursionError:
        raise error(NestingTooDeep, "") from None
    except IndexError:  # the tokens ran out inside an application
        if text[:end].rstrip().endswith("("):
            raise error(FormulaSyntaxError, "unexpected end of input, expected a connective name", n) from None
        raise error(FormulaSyntaxError, "missing ')'", n) from None
    if not (many or formulas):
        raise error(FormulaSyntaxError, "unexpected end of input, expected a variable or '('", n)
    if not many and tokens:
        raise error(FormulaSyntaxError, "trailing input after formula", n - len(tokens))
    return formulas if many else formulas[0]


def evaluate(phi: Formula, assignment: dict[str, int]) -> int:
    """Evaluate phi bottom-up under a total assignment."""
    if isinstance(phi, Var):
        try:
            return assignment[phi.name] & 1
        except KeyError:
            raise UnboundVariable(f"variable {phi.name!r} not assigned") from None
    return phi.conn.value(tuple(evaluate(a, assignment) for a in phi.args))


def _var_pattern(j: int, n: int) -> int:
    """Truth-table int of variable j among n variables (j zero-based, LSB first).

    Built by doubling: one period of 2^j zeros then 2^j ones, then the
    value ORed with itself shifted by its width until the width is 2^n,
    so the work is linear in the 2^n bits of the result.
    """
    width = 1 << j
    bits = ((1 << width) - 1) << width
    width <<= 1
    rows = 1 << n
    while width < rows:
        bits |= bits << width
        width <<= 1
    return bits


def table_int(phi: Formula, var_order: Sequence[str]) -> int:
    """Truth table of phi over var_order packed into an int (bit i = row i).

    Row i assigns var_order[j] the bit (i >> j) & 1, so var_order[0] is the
    least significant position, matching the BoolFun convention.
    """
    n = len(var_order)
    if n > VAR_CAP:
        raise TooManyVariables(f"{n} variables exceed the cap of {VAR_CAP}")
    index = {name: j for j, name in enumerate(var_order)}
    rows = 1 << n
    full = (1 << rows) - 1

    def walk(node: Formula) -> int:
        if isinstance(node, Var):
            try:
                return _var_pattern(index[node.name], n)
            except KeyError:
                raise UnboundVariable(
                    f"variable {node.name!r} not in var_order"
                ) from None
        conn = node.conn
        args = [walk(a) for a in node.args]
        out = 0
        for r in range(conn.n_points):
            if not conn.value_at(r):
                continue
            term = full
            for j, t in enumerate(args):
                term &= t if (r >> j) & 1 else ~t & full
            out |= term
            if out == full:
                break
        return out

    return walk(phi)


def truth_table_of(phi: Formula, var_order: Sequence[str], name: str = "f") -> BoolFun:
    """Brute-force truth table of phi over var_order as a BoolFun.

    A reference: no engine calls it, and the tests check the engines'
    tabling kernel (``engine.TableContext``) against ``table_int``.
    """
    missing = variables(phi) - set(var_order)
    if missing:
        raise UnboundVariable(f"vars {sorted(missing)} not in var_order")
    bits = table_int(phi, var_order)
    rows = 1 << len(var_order)
    # one binary conversion, reversed: row 0 is the least significant bit
    table = format(bits, f"0{rows}b")[::-1]
    return BoolFun(name, len(var_order), table)


def substitute(phi: Formula, alpha: Formula, beta: Formula) -> Formula:
    """phi with every occurrence of the subtree alpha replaced by beta.

    Replacement is syntactic, outermost-first and non-overlapping: a
    replaced occurrence is not rescanned.
    """
    if phi == alpha:
        return beta
    if isinstance(phi, Var):
        return phi
    new_args = tuple(substitute(a, alpha, beta) for a in phi.args)
    if new_args == phi.args:
        return phi
    return App(phi.conn, new_args)


def balanced_composition(op: BoolFun, args: Sequence[Formula]) -> Formula:
    """Combine args under a binary associative op as a balanced tree.

    Depth is ceil(log2(len(args))); the truth table equals the left fold,
    which is what makes the log-depth re-bracketing of long chains sound.
    """
    if op.arity != 2:
        raise ArityMismatch(f"balanced composition needs a binary op, got {op.name!r}")
    args = list(args)
    if not args:
        raise EmptyArgs("cannot compose zero arguments")

    def build(lo: int, hi: int) -> Formula:
        if hi - lo == 1:
            return args[lo]
        mid = lo + (hi - lo + 1) // 2
        return App(op, (build(lo, mid), build(mid, hi)))

    return build(0, len(args))


def depth(phi: Formula) -> int:
    if isinstance(phi, Var) or not phi.args:
        return 0
    return 1 + max(depth(a) for a in phi.args)


def fresh_name(base: str, taken: set[str]) -> str:
    """A reserved-prefix name not colliding with taken (nor valid user input)."""
    cand = f"_{base}"
    k = 0
    while cand in taken:
        k += 1
        cand = f"_{base}{k}"
    return cand
