import copy
import math
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postdl.boolfun import BUILTINS, BoolFun
from postdl.errors import (
    ArityMismatch,
    EmptyArgs,
    FormulaSyntaxError,
    TooManyVariables,
    UnboundVariable,
    UnknownConnective,
)
from postdl.formula import (
    App,
    Var,
    _var_pattern,
    balanced_composition,
    connectives,
    connectives_of,
    depth,
    evaluate,
    fresh_name,
    node_count,
    parse,
    parse_formulas,
    serialize,
    substitute,
    truth_table_of,
    variables,
)
from postdl.gen import random_formula

SIG = BUILTINS


def f(text):
    return parse(text, SIG)


# -- parsing ---------------------------------------------------------------


def test_parse_basic():
    phi = f("(and x y)")
    assert phi == App(BUILTINS["and"], (Var("x"), Var("y")))


def test_parse_arity_mismatch():
    with pytest.raises(ArityMismatch):
        f("(and x)")


def test_parse_unknown_connective():
    with pytest.raises(UnknownConnective):
        f("(nand x y)")


def test_parse_custom_connective():
    s10 = BoolFun("s10c", 3, "00010101")
    phi = parse("(s10c x y z)", {"s10c": s10})
    assert isinstance(phi, App) and phi.conn.arity == 3


@pytest.mark.parametrize("bad", ["", "(and x y", ")", "(and x y) z", "(and (x) y)", "( )"])
def test_parse_syntax_errors(bad):
    with pytest.raises(FormulaSyntaxError):
        f(bad)


def test_parse_reserved_prefix():
    with pytest.raises(FormulaSyntaxError):
        f("_t")
    assert parse("_t", SIG, allow_reserved=True) == Var("_t")


def test_parse_positions_reported():
    try:
        f("(and x (nope y z))")
    except UnknownConnective as exc:
        assert exc.position == 8
    else:
        pytest.fail("expected UnknownConnective")


_PARSE_ERRORS = [
    # (text, class, message, offset); both readers unless the reader is named
    ("", FormulaSyntaxError, "unexpected end of input, expected a variable or '('", 0, parse),
    ("(and x y", FormulaSyntaxError, "missing ')'", 8, None),
    (")", FormulaSyntaxError, "unexpected ')'", 0, None),
    ("(and x y) z", FormulaSyntaxError, "trailing input after formula", 10, parse),
    ("(and (x) y)", UnknownConnective, "unknown connective 'x'", 6, None),
    ("( )", FormulaSyntaxError, "expected a connective name after '('", 2, None),
    ("1x", FormulaSyntaxError, "unexpected character '1'", 0, None),
    ("_t", FormulaSyntaxError, "variable '_t' uses the reserved '_' prefix", 0, None),
    ("(and x (nope y z))", UnknownConnective, "unknown connective 'nope'", 8, None),
    ("(and x)", ArityMismatch, "connective 'and' expects 2 arguments, got 1", 1, None),
    (" (and x (", FormulaSyntaxError, "unexpected end of input, expected a connective name", 9, None),
    ("x)", FormulaSyntaxError, "trailing input after formula", 1, parse),
    ("x)", FormulaSyntaxError, "unexpected ')'", 1, parse_formulas),
    # a character that starts no token is reported before an earlier error
    (") (and x) $", FormulaSyntaxError, "unexpected character '$'", 10, None),
]


@pytest.mark.parametrize(
    "read, text, cls, message, offset",
    [
        (read, text, cls, message, offset)
        for text, cls, message, offset, only in _PARSE_ERRORS
        for read in (parse, parse_formulas)
        if only in (None, read)
    ],
)
def test_parse_errors_are_pinned(read, text, cls, message, offset):
    with pytest.raises(FormulaSyntaxError) as exc:
        read(text, SIG)
    assert type(exc.value) is cls
    assert (str(exc.value), exc.value.position) == (f"{message} (at offset {offset})", offset)


def test_parse_formulas_reads_what_parse_refuses_as_trailing():
    assert parse_formulas("", SIG) == []
    assert parse_formulas("(and x y) z", SIG) == [f("(and x y)"), Var("z")]


# -- evaluation ------------------------------------------------------------


def test_eval_examples():
    assert evaluate(f("(and x y)"), {"x": 1, "y": 0}) == 0
    assert evaluate(f("(xor x x)"), {"x": 0}) == 0
    assert evaluate(f("(xor x x)"), {"x": 1}) == 0
    assert evaluate(f("(s10 x y z)"), {"x": 1, "y": 1, "z": 0}) == 1


def test_eval_unbound():
    with pytest.raises(UnboundVariable):
        evaluate(f("(and x y)"), {"x": 1})


# -- truth tables ----------------------------------------------------------


def test_truth_table_identity():
    assert truth_table_of(f("x"), ["x"]).table == "01"
    assert truth_table_of(f("(not x)"), ["x"]).table == "10"


def test_truth_table_s00_shape():
    # brute-force derived: index i assigns x=bit0, y=bit1, z=bit2
    tt = truth_table_of(f("(or x (and y z))"), ["x", "y", "z"])
    assert tt.table[0] == "0"
    assert tt.table[1] == "1"
    assert tt.table[6] == "1"
    brute = "".join(
        str(((i >> 0) & 1) | (((i >> 1) & 1) & ((i >> 2) & 1))) for i in range(8)
    )
    assert tt.table == brute == "01010111"


def test_truth_table_matches_pointwise_eval():
    cases = [(f("(or (and x (not y)) (xor z (imp x y)))"), ["x", "y", "z"])]
    rng = random.Random("truth-table-of")
    for n in range(9):
        order = [f"v{j}" for j in range(n)]
        for _ in range(4):
            phi = random_formula(rng, list(SIG.values()), order, 4) if n else App(SIG["top"])
            cases.append((phi, order))
    for phi, order in cases:
        tt = truth_table_of(phi, order)
        for i in range(1 << len(order)):
            sigma = {v: (i >> j) & 1 for j, v in enumerate(order)}
            assert int(tt.table[i]) == evaluate(phi, sigma)


def test_truth_table_of_sixteen_variables_is_fast():
    # the table string and the BoolFun bits are one conversion each, not a
    # shift of the whole 2^16-bit table per row
    order = [f"v{j}" for j in range(16)]
    phi = balanced_composition(SIG["xor"], [Var(v) for v in order])
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        tt = truth_table_of(phi, order)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.05
    assert tt.table == "".join(str(bin(i).count("1") & 1) for i in range(1 << 16))


def test_var_pattern_bit_i_is_bit_j_of_i():
    for n in range(1, 11):
        for j in range(n):
            bits = _var_pattern(j, n)
            assert bits >> (1 << n) == 0
            for i in range(1 << n):
                assert (bits >> i) & 1 == (i >> j) & 1, (j, n, i)
    rng = random.Random("var-pattern")
    for n in (17, 20):
        rows = [0, 1, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(300)]
        for j in range(n):
            bits = _var_pattern(j, n)
            assert bits.bit_length() == 1 << n
            for i in rows:
                assert (bits >> i) & 1 == (i >> j) & 1, (j, n, i)


def test_truth_table_var_cap():
    order = [f"v{i}" for i in range(21)]
    with pytest.raises(TooManyVariables):
        truth_table_of(f("v0"), order)


def test_truth_table_missing_var():
    with pytest.raises(UnboundVariable):
        truth_table_of(f("(and x y)"), ["x"])


# -- substitution ----------------------------------------------------------


def test_substitute_examples():
    assert substitute(f("(and x y)"), f("x"), f("z")) == f("(and z y)")
    assert substitute(f("x"), f("y"), f("z")) == f("x")
    assert substitute(f("(top)"), f("(top)"), Var("t")) == Var("t")


def test_substitute_outermost_first():
    # replacing (and x x) inside (and (and x x) (and x x)) hits both outer
    # occurrences and does not rescan the replacement
    phi = f("(and (and x x) (and x x))")
    got = substitute(phi, f("(and x x)"), f("x"))
    assert got == f("(and x x)")


# -- hypothesis strategies ---------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "u", "v"])
_conns = st.sampled_from([BUILTINS[n] for n in ("and", "or", "not", "xor", "imp", "top", "bot", "maj")])


def _formulas(max_depth=4):
    return st.recursive(
        _names.map(Var),
        lambda kids: st.builds(
            lambda c, args: App(c, tuple(args[: c.arity])),
            _conns,
            st.lists(kids, min_size=3, max_size=3),
        ),
        max_leaves=12,
    )


@given(_formulas())
@settings(max_examples=150, deadline=None)
def test_roundtrip_parse_serialize(phi):
    assert parse(serialize(phi), SIG) == phi


@given(_formulas())
@settings(max_examples=100, deadline=None)
def test_serialize_parse_canonical(phi):
    text = serialize(phi)
    assert serialize(parse(text, SIG)) == text


@given(_formulas())
@settings(max_examples=100, deadline=None)
def test_parsed_and_built_formulas_hash_alike(phi):
    # the parser builds its nodes without App's arity check; a parsed
    # formula hashes and compares as the App-built one, also once pickled
    # or deep-copied
    parsed = parse(serialize(phi), SIG)
    for other in (parsed, pickle.loads(pickle.dumps(parsed)), copy.deepcopy(parsed)):
        assert other == phi and hash(other) == hash(phi) and other in {phi}
        assert type(other) is type(phi)


@given(_formulas(), _formulas())
@settings(max_examples=100, deadline=None)
def test_substitute_self_is_identity(phi, alpha):
    assert substitute(phi, alpha, alpha) == phi


# -- balanced composition ----------------------------------------------------


def test_balanced_single():
    assert balanced_composition(BUILTINS["or"], [Var("a")]) == Var("a")


def test_balanced_four_shape():
    got = balanced_composition(BUILTINS["or"], [Var(c) for c in "abcd"])
    assert got == f("(or (or a b) (or c d))")
    assert depth(got) == 2


def test_balanced_empty():
    with pytest.raises(EmptyArgs):
        balanced_composition(BUILTINS["or"], [])


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("op", ["and", "or", "xor"])
def test_balanced_semantics_equals_fold(op, n):
    args = [Var(f"a{i}") for i in range(n)]
    bal = balanced_composition(BUILTINS[op], args)
    fold = args[0]
    for a in args[1:]:
        fold = App(BUILTINS[op], (fold, a))
    order = [f"a{i}" for i in range(n)]
    assert truth_table_of(bal, order).table == truth_table_of(fold, order).table
    assert depth(bal) <= math.ceil(math.log2(n)) if n > 1 else depth(bal) == 0


def test_fresh_name_avoids_taken():
    assert fresh_name("t", set()) == "_t"
    assert fresh_name("t", {"_t"}) == "_t1"
    assert fresh_name("t", {"_t", "_t1"}) == "_t2"


def test_variables():
    assert variables(f("(or x (and y x))")) == {"x", "y"}


def _subtrees(phi):
    """Every subtree of phi, outermost first: the reference the stack
    scans are checked against."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, App):
            stack.extend(reversed(node.args))


def test_connective_scans_match_the_subtree_comprehension():
    rng = random.Random("connective-scan")
    conns = list(SIG.values()) + [BoolFun("g", 4, "0110100110010110"), BoolFun("c", 0, "1")]
    for _ in range(300):
        formulas = [random_formula(rng, conns, ["x", "y", "z"], rng.randint(0, 5)) for _ in range(rng.randint(0, 4))]
        want = {node.conn for phi in formulas for node in _subtrees(phi) if node.__class__ is App}
        assert connectives_of(formulas) == want
        for phi in formulas:
            assert connectives(phi) == connectives_of([phi])
            assert node_count(phi) == sum(1 for _ in _subtrees(phi))
    assert connectives_of([]) == set() and node_count(Var("x")) == 1


_PICKLE_FORMULAS = """
import pickle, sys
from postdl.boolfun import BUILTINS
from postdl.engine import decide
from postdl.formula import Var, parse
from postdl.theory import DefaultRule, DefaultTheory

x, xy = Var("x"), parse("(and x (or y (top)))", BUILTINS)
theory = DefaultTheory.make([x], [DefaultRule(x, Var("y"), xy)])
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps((x, xy, theory)))
else:
    lx, lxy, lt = pickle.loads(sys.stdin.buffer.read())
    print(lx in {x}, lxy in {xy}, {lxy: 1}.get(xy), lt == theory, hash(lt) == hash(theory))
    print(decide("cred", lt, Var("y"), want_witness=True).to_json())
"""


def test_formulas_pickle_across_processes():
    # an unpickled formula hashes as the loading process hashes: a Var or
    # App pickled under one string-hash seed is found in the sets and dicts
    # of a process under another
    import postdl
    from postdl.engine import decide
    from postdl.theory import DefaultRule, DefaultTheory

    src = str(Path(postdl.__file__).resolve().parents[1])

    def run(seed, mode, data=None):
        return subprocess.run(
            [sys.executable, "-c", _PICKLE_FORMULAS, mode],
            input=data,
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout

    loaded = run("2", "load", run("1", "dump")).decode().splitlines()
    assert loaded[0] == "True True 1 True True"
    x = Var("x")
    theory = DefaultTheory.make([x], [DefaultRule(x, Var("y"), f("(and x (or y (top)))"))])
    assert loaded[1] == str(decide("cred", theory, Var("y"), want_witness=True).to_json())
