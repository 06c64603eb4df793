import pytest

from postdl.boolfun import BUILTINS
from postdl.errors import TheoryFormatError
from postdl.formats import (
    read_digraph,
    read_dimacs,
    read_hypergraph,
    read_snsat,
    read_theory,
    write_theory,
)
from postdl.formula import serialize
from postdl.reductions import (
    CnfFormula,
    gap_to_default,
    snsat_eval,
    snsat_to_ext,
    threesat_to_default,
)
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
