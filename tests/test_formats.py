import random

import pytest

from postdl.boolfun import BUILTINS, BoolFun
from postdl.errors import TheoryFormatError
from postdl.formats import (
    read_digraph,
    read_dimacs,
    read_hypergraph,
    read_snsat,
    read_theory,
    write_theory,
)
from postdl.formula import connectives, serialize
from postdl.gen import FAMILIES, random_formula, random_goal, random_theory
from postdl.reductions import (
    CnfFormula,
    gap_to_default,
    snsat_eval,
    snsat_to_ext,
    threesat_to_default,
)
from postdl.theory import DefaultRule, DefaultTheory
B = BUILTINS


THEORY_TEXT = """
# facts and one rule
defconn nand3 3 11111110
W:
(and x y)
(nand3 x y z)
D:
(default x (top) (or y z))
goal: (or x y)
"""


def test_read_theory_sections():
    theory, goal = read_theory(THEORY_TEXT)
    assert len(theory.W) == 2
    assert len(theory.D) == 1
    assert serialize(goal) == "(or x y)"
    names = {c.name for c in theory.signature}
    # declared custom plus builtins actually used
    assert names == {"nand3", "and", "top", "or"}


def test_read_theory_rejects_builtin_redefinition():
    with pytest.raises(TheoryFormatError):
        read_theory("defconn and 2 0001\nW:\nx\n")


def test_read_theory_refuses_a_second_declaration():
    # formulas before the second line read the first table; the signature
    # would hold only the second, and cred would answer for the wrong one
    text = "defconn f 2 0100\nD:\n(default x (f y z) w)\ndefconn f 2 0001\nW:\nx\ngoal: w\n"
    with pytest.raises(TheoryFormatError) as exc:
        read_theory(text, filename="dup.dt")
    assert str(exc.value) == "dup.dt:4: defconn 'f': already declared"
    with pytest.raises(TheoryFormatError):
        read_theory("defconn f 2 0100\ndefconn f 2 0100\nW:\nx\n")


def test_read_theory_refuses_a_second_goal():
    # the second line used to replace the first silently; --goal still
    # overrides the file's one goal
    text = "W:\nx\ngoal: x\nD:\n(default x y y)\ngoal: y\n"
    with pytest.raises(TheoryFormatError) as exc:
        read_theory(text, filename="goals.dt")
    assert str(exc.value) == "goals.dt:6: goal: already given"


@pytest.mark.parametrize(
    "line, message",
    [
        ("(default x y y) (default x y y)", "unexpected ')' (at offset 14)"),
        ("(default x (and y) y)", "connective 'and' expects 2 arguments, got 1 (at offset 12)"),
        ("(default x y (and y)", "missing ')' (at offset 19)"),
        ("goal: (and x y", "missing ')' (at offset 14)"),
        ("goal:  (nope x)", "unknown connective 'nope' (at offset 8)"),
        ("goal: x y", "trailing input after formula (at offset 8)"),
        ("goal:", "unexpected end of input, expected a variable or '(' (at offset 5)"),
    ],
)
def test_rule_and_goal_offsets_count_from_the_line_start(line, message):
    with pytest.raises(TheoryFormatError) as exc:
        read_theory(f"D:\n{line}\n", filename="t.dt")
    assert str(exc.value) == f"t.dt:2: {message}"


def test_read_theory_names_a_non_integer_defconn_arity():
    with pytest.raises(TheoryFormatError) as exc:
        read_theory("defconn f x 01\nW:\nx\n", filename="bad.dt")
    assert str(exc.value) == "bad.dt:1: defconn 'f': arity 'x' is not an integer"


def test_read_theory_needs_section():
    with pytest.raises(TheoryFormatError):
        read_theory("x\n")


def test_read_theory_bad_rule():
    for rule in (
        "(default x y)",  # two formulas
        "(default x y z w)",  # four
        "(default x (and y) z)",  # arity
        "(default x (and y z z)",  # unbalanced
        "(default x y z))",
        "(default x (nope y) z)",  # unknown connective
        "(default x y z$)",  # bad character
        "(defaultx y z)",  # no space after the keyword
        "(rule x y z)",
    ):
        with pytest.raises(TheoryFormatError):
            read_theory(f"D:\n{rule}\n")


def test_roundtrip_defconn_prefixed_variables():
    # a W line that starts with "defconn" but is one word is a formula
    theory, _ = read_theory("W:\ndefconnX\ndefconn\nDEFCONNy\n")
    assert [serialize(w) for w in theory.W] == ["defconnX", "defconn", "DEFCONNy"]
    text = write_theory(theory)
    theory2, _ = read_theory(text)
    assert theory2.W == theory.W and theory2.signature == theory.signature


def test_roundtrip_plain():
    theory, goal = read_theory(THEORY_TEXT)
    text = write_theory(theory, goal)
    theory2, goal2 = read_theory(text)
    assert theory2.W == theory.W
    assert theory2.D == theory.D
    assert goal2 == goal
    assert theory2.signature == theory.signature


def _written_signature(theory, goal):
    """The signature a theory file gives back: its declared connectives
    and the builtins its formulas, the goal among them, use."""
    used = theory.used_connectives() | (connectives(goal) if goal is not None else set())
    declared = {f for f in theory.signature if f.name not in BUILTINS}
    return theory._replace(signature=frozenset(used | declared))


def test_roundtrip_random_theories_of_every_family():
    nand3 = BoolFun("nand3", 3, "11111110")
    rng = random.Random("formats:roundtrip")
    for family in sorted(FAMILIES):
        for _ in range(30):
            theory = random_theory(rng, family)
            goal = random_goal(rng, theory, family) if rng.random() < 0.7 else None
            theory = _written_signature(theory, goal)
            assert read_theory(write_theory(theory, goal)) == (theory, goal), family
    # a declared connective, used or not, stays in the signature
    conns, pool = [nand3, BUILTINS["or"]], [f"v{i}" for i in range(1, 5)]
    for _ in range(30):
        w = [random_formula(rng, conns, pool, 2)]
        d = [DefaultRule(*(random_formula(rng, conns, pool, 2) for _ in range(3)))]
        theory = _written_signature(DefaultTheory.make(w, d, conns), None)
        assert nand3 in theory.signature
        assert read_theory(write_theory(theory)) == (theory, None)


def test_a_connective_only_the_goal_uses_joins_the_signature():
    theory, goal = read_theory("W:\n(and x y)\nD:\n(default x y y)\ngoal: (or x (not y))\n")
    assert {f.name for f in theory.signature} == {"and", "or", "not"}
    assert serialize(goal) == "(or x (not y))"


def test_a_file_reads_one_var_per_name():
    theory, goal = read_theory("W:\n(and x y)\nD:\n(default x y (or y x))\ngoal: x\n")
    (w,), (d,) = theory.W, theory.D
    assert goal is w.args[0] is d.prerequisite is d.consequent.args[1]
    assert w.args[1] is d.justification is d.consequent.args[0]


def test_roundtrip_reduction_output_with_reserved_vars():
    cnf = CnfFormula(2, ((1, -2, 2),))
    theory, goal = threesat_to_default(cnf, "skep")
    text = write_theory(theory, goal)
    theory2, goal2 = read_theory(text)
    assert theory2.W == theory.W
    assert theory2.D == theory.D
    assert goal2 == goal


def test_dimacs_reader():
    cnf = read_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 0\n")
    assert cnf.n_vars == 3
    assert cnf.clauses == ((1, -2, 3), (-1, 2))
    with pytest.raises(TheoryFormatError):
        read_dimacs("1 2 0\n")
    # a negative or non-integer count is reported at its line
    for header in ("p cnf -2 0", "p cnf x 1", "p cnf 2 1.5", "p cnf 2 -1"):
        with pytest.raises(TheoryFormatError, match="f.cnf:2"):
            read_dimacs(f"c counts\n{header}\n", "f.cnf")


def test_digraph_reader():
    g, s, t = read_digraph("s a\nt c\nedge a b\nedge b c\nnode d\n")
    assert set(g.nodes) == {"a", "b", "c", "d"}
    assert ("a", "b") in g.edges and s == "a" and t == "c"
    with pytest.raises(TheoryFormatError):
        read_digraph("edge a b\n")


def test_hypergraph_reader():
    h, sources, t = read_hypergraph(
        "sources a b\ntarget t\nhedge a,b c\nhedge c t\n"
    )
    assert sources == ["a", "b"] and t == "t"
    assert (("a", "b"), "c") in h.edges and (("c",), "t") in h.edges


def test_snsat_reader_and_eval():
    inst = read_snsat("formula\nz1 0\n-z1 0\nformula\nx1 z1\n-z1\n")
    assert inst.m == (1, 1)
    # c1 = 0 (z1 and not z1), so formula 2 pins x1 = 0 and is unsatisfiable
    assert snsat_eval(inst) == 0
    th = snsat_to_ext(inst)
    assert th.D


def test_snsat_reader_errors():
    with pytest.raises(TheoryFormatError):
        read_snsat("z1\n")
    with pytest.raises(TheoryFormatError):
        read_snsat("formula\nw1\n")
    for count in ("two", "-1"):
        with pytest.raises(TheoryFormatError, match="c.snsat:2"):
            read_snsat(f"formula\nzvars {count}\nz1\n", "c.snsat")


def test_theory_file_parses_under_grammar():
    # the written file round-trips through the plain formula parser too
    g, s, t = read_digraph("s a\nt b\nedge a b\n")
    theory, goal = gap_to_default(g, s, t, "cred")
    text = write_theory(theory, goal)
    for line in text.splitlines():
        if line.startswith("(default"):
            assert line.endswith(")")
    theory2, goal2 = read_theory(text)
    assert theory2.D == theory.D
