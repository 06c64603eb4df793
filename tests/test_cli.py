import argparse
import json

import pytest

from postdl import engine, implication
from postdl.cli import build_parser, main
from postdl.errors import RuleCountTooLarge, TooManyVariables
from postdl.formats import read_hypergraph, read_theory
from postdl.reductions import hgap_reach

THEORY = """
W:
(and x y)
D:
(default x (top) z)
goal: z
"""

GAP = "s a\nt c\nedge a b\nedge b c\n"

CNF = "p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n"


@pytest.fixture
def theory_file(tmp_path):
    p = tmp_path / "t.dt"
    p.write_text(THEORY, encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_text(theory_file, capsys):
    code, out, _ = run(capsys, "classify", theory_file)
    assert code == 0
    assert "cases:" in out and "ext=" in out


def test_classify_conns_json(capsys):
    code, out, _ = run(capsys, "classify", "--conns", "or", "--json")
    assert code == 0
    js = json.loads(out)
    assert js["cases"] == {"ext": "trivial", "cred": "P", "skep": "P"}


def test_classify_defconn(capsys):
    code, out, _ = run(capsys, "classify", "--defconn", "nand 2 1110", "--json")
    assert code == 0
    js = json.loads(out)
    assert js["cases"]["ext"] == "SigmaP2"


def test_classify_defconn_refuses_a_builtin_name(capsys):
    # the theory reader refuses the same declaration; classifying xor as
    # "and" would report L for a signature the user did not give
    code, out, err = run(capsys, "classify", "--conns", "and", "--defconn", "and 2 0110", "--json")
    assert code == 2 and not out and "cannot redefine builtin 'and'" in err


def test_classify_defconn_refuses_a_second_declaration(capsys):
    # only one table can stand for a name; the last one must not win silently
    code, out, err = run(capsys, "classify", "--defconn", "f 2 0100", "--defconn", "f 2 0001")
    assert code == 2 and not out
    assert err.splitlines() == ["error: --defconn 'f 2 0001': connective 'f' is already declared"]


def test_classify_refuses_a_file_with_conns(theory_file, capsys):
    # the file's signature would be classified and the flags dropped
    for flags in (["--conns", "and,not"], ["--defconn", "nand 2 1110"]):
        code, out, err = run(capsys, "classify", theory_file, *flags)
        assert code == 2 and not out and "not both" in err


def test_classify_defconn_names_a_non_integer_arity(capsys):
    code, out, err = run(capsys, "classify", "--defconn", "f x 01")
    assert code == 2 and not out
    assert err.splitlines() == ["error: --defconn 'f x 01': arity 'x' is not an integer"]


def test_defconn_refuses_a_name_no_formula_can_use(tmp_path, capsys):
    # "1x" is not a token of the formula grammar, so no formula could apply
    # it; the declaration alone used to put the signature in case NP
    p = tmp_path / "bad.dt"
    p.write_text("defconn 1x 1 10\nW:\nx\nD:\n(default x y y)\ngoal: y\n", encoding="utf-8")
    for problem in ("ext", "cred", "skep", "classify"):
        code, out, err = run(capsys, problem, str(p), "--json")
        assert (code, out) == (2, ""), problem
        assert err.splitlines() == [
            f"error: {p}:1: defconn '1x': name '1x' is not an identifier ([A-Za-z_][A-Za-z0-9_]*)"
        ]
    code, out, err = run(capsys, "classify", "--defconn", "1x 1 10", "--json")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: --defconn '1x 1 10': name '1x' is not an identifier ([A-Za-z_][A-Za-z0-9_]*)"
    ]
    code, out, _ = run(capsys, "classify", "--defconn", "_x1 1 10", "--json")
    assert code == 0 and json.loads(out)["cases"]["ext"] == "NP"


def test_ext_yes_no(theory_file, capsys):
    code, out, _ = run(capsys, "ext", theory_file)
    assert code == 0
    assert out.startswith("answer: yes")


def test_ext_witness_text(theory_file, tmp_path, capsys):
    code, out, _ = run(capsys, "ext", theory_file, "--witness")
    assert code == 0 and "\nwitness: [0]\n" in out
    # facts without a model: the one extension is inconsistent, and no
    # rule generates it
    p = tmp_path / "inc.dt"
    p.write_text("W:\nx\n(not x)\nD:\n(default x y y)\n", encoding="utf-8")
    code, out, _ = run(capsys, "ext", str(p), "--witness")
    assert code == 0
    assert out.splitlines()[:5] == [
        "answer: yes", "problem: ext", "engine: affine_guess", "case: NP", "witness: [] (inconsistent)",
    ]


def test_cred_json_schema(theory_file, capsys):
    code, out, _ = run(capsys, "cred", theory_file, "--json", "--witness")
    assert code == 0
    js = json.loads(out)
    assert set(js) == {
        "problem", "answer", "engine", "case", "witness", "witness_inconsistent", "stats",
    }
    assert js["answer"] is True
    assert js["witness"] == [0]


def test_goal_override(theory_file, capsys):
    code, out, _ = run(capsys, "skep", theory_file, "--goal", "(and x q)")
    assert code == 0
    assert out.startswith("answer: no")


def test_goal_override_outside_the_file_signature(tmp_path, capsys):
    # the file's signature is {top}; the --goal connectives join it
    p = tmp_path / "top.dt"
    p.write_text("W:\nx\nD:\n(default x (top) z)\n", encoding="utf-8")
    code, out, _ = run(capsys, "cred", str(p), "--goal", "(or x y)", "--json", "--witness")
    assert code == 0
    assert json.loads(out) == {
        "problem": "cred", "answer": True, "engine": "poly_fragment", "case": "P",
        "witness": [0], "witness_inconsistent": False,
        "stats": {"subsets_checked": 0, "implication_calls": 2},
    }
    code, out, _ = run(capsys, "cred", str(p), "--goal", "(xor x z)", "--json")
    assert code == 0
    js = json.loads(out)
    assert (js["answer"], js["engine"], js["case"]) == (False, "affine_guess", "NP")


def test_missing_goal_is_input_error(tmp_path, capsys):
    p = tmp_path / "nogoal.dt"
    p.write_text("W:\nx\n", encoding="utf-8")
    code, _, err = run(capsys, "cred", str(p))
    assert code == 2 and "goal" in err


def test_unknown_engine_exit_2(theory_file, capsys):
    # the signature picks the engine; --engine offers the values decide and
    # implies check, auto and the reference oracle, and nothing else
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, values in (("ext", engine.ENGINES), ("skep", engine.ENGINES), ("imp", implication.ENGINES)):
        assert sub.choices[command]._option_string_actions["--engine"].choices is values
    for command, name in (("ext", "affine"), ("cred", "monotone"), ("skep", "r1"), ("imp", "conjunctive")):
        with pytest.raises(SystemExit) as exc:
            main([command, theory_file, "--engine", name])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    code, out, _ = run(capsys, "skep", theory_file, "--engine", "generic", "--json")
    assert code == 0 and json.loads(out)["engine"] == "generic"


def test_cap_exit_3(tmp_path, capsys):
    lines = ["W:"] + [f"v{i}" for i in range(25)] + ["D:", "(default (and v0 v1) v2 (not v3))"]
    p = tmp_path / "big.dt"
    p.write_text("\n".join(lines), encoding="utf-8")
    code, _, err = run(capsys, "ext", str(p))
    assert code == 3 and "cap" in err


def test_imp_over_the_cap_exit_3(tmp_path, capsys):
    # 21 variables under {or, not}: the oracle's table is refused, in
    # process with the tabling kernel's message and as one error line with
    # exit 3; at 20 variables it answers
    lines = ["W:"] + [f"v{i}" for i in range(20)] + ["goal: (or v20 (not v20))"]
    p = tmp_path / "wide.dt"
    p.write_text("\n".join(lines), encoding="utf-8")
    theory, goal = read_theory(p.read_text(encoding="utf-8"))
    with pytest.raises(TooManyVariables, match="21 variables, cap is 20"):
        implication.truth_table_implies(list(theory.W), goal)
    assert implication.truth_table_implies(list(theory.W), theory.W[19])
    code, out, err = run(capsys, "imp", str(p))
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "cap" in err and len(err.splitlines()) == 1


def test_rule_cap_exit_3(tmp_path, capsys):
    # one rule more than the fixpoint takes, over {and}: cred and skep run
    # the fixpoint and are refused; ext over this 1-reproducing signature
    # answers without reading a rule, and runs the fixpoint for a witness
    n = engine.POLY_RULE_CAP + 1
    text = "W:\nx\nD:\n" + "".join(f"(default x y{i} (and x y{i}))\n" for i in range(n)) + "goal: y1\n"
    theory, goal = read_theory(text)
    with pytest.raises(RuleCountTooLarge):
        engine.decide("cred", theory, goal)
    p = tmp_path / "many.dt"
    p.write_text(text, encoding="utf-8")
    for argv in (["cred", str(p)], ["skep", str(p)], ["ext", str(p), "--witness"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and f"more than {engine.POLY_RULE_CAP} rules" in err
    code, out, _ = run(capsys, "ext", str(p))
    assert code == 0 and out.startswith("answer: yes")


def test_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.dt"
    p.write_text("W:\n(and x\n", encoding="utf-8")
    code, _, err = run(capsys, "ext", str(p))
    assert code == 2 and "bad.dt:2" in err


def test_imp(tmp_path, capsys):
    p = tmp_path / "prem.dt"
    p.write_text("W:\n(xor a b)\ngoal: (xor b a)\n", encoding="utf-8")
    code, out, _ = run(capsys, "imp", str(p))
    assert code == 0 and out.strip() == "answer: yes"
    # a goal connective outside the premises' signature joins it
    p.write_text("W:\n(and x (top))\ngoal: (or x y)\n", encoding="utf-8")
    code, out, _ = run(capsys, "imp", str(p))
    assert code == 0 and out.strip() == "answer: yes"
    # the premises are W: alone; a file with rules is refused
    p.write_text("W:\nx\nD:\n(default x y y)\ngoal: y\n", encoding="utf-8")
    code, out, err = run(capsys, "imp", str(p))
    assert code == 2 and not out and "must not have rules" in err


def test_imp_ignores_a_declared_but_unused_connective(tmp_path, capsys):
    # 25 variables under "and" are past the truth table's cap; the unused
    # xor-like g must not push the premises off the conjunctive state
    conj = "v0"
    for i in range(1, 25):
        conj = f"(and {conj} v{i})"
    p = tmp_path / "unused.dt"
    p.write_text(f"defconn g 2 0110\nW:\n{conj}\ngoal: (and v24 v3)\n", encoding="utf-8")
    code, out, err = run(capsys, "imp", str(p))
    assert (code, out.strip(), err) == (0, "answer: yes", "")


def test_decisions_follow_the_declared_language(tmp_path, capsys):
    # the paper classifies each problem by the declared connective set B,
    # so a connective that no formula uses still moves cred's case and
    # engine (imp follows its formulas instead; see above)
    rules = "".join(f"(default x y{i} y{i})\n" for i in (1, 2, 3))
    p = tmp_path / "lang.dt"
    for decl, label, case in [("", "reachability", "NL"), ("defconn g 2 0110\n", "affine_guess", "NP")]:
        p.write_text(f"{decl}W:\nx\nD:\n{rules}goal: y3\n", encoding="utf-8")
        code, out, _ = run(capsys, "cred", str(p), "--json")
        js = json.loads(out)
        assert (code, js["answer"], js["engine"], js["case"]) == (0, True, label, case)


def refused(capsys, source, path, flag, value):
    # a flag the source does not read is refused, with nothing written
    code, out, err = run(capsys, "reduce", source, str(path), flag, value)
    return (code, out) == (2, "") and f"reduce {source} takes no {flag}" in err


def test_reduce_hgap_and_xorhgap_read_back(tmp_path, capsys):
    # each image reads back and answers as hypergraph reachability does:
    # an hgap image has no extension exactly when the target is reachable,
    # and the xorhgap image's cred goal holds exactly then; --mode is
    # refused by both and --variant by xorhgap
    cases = [
        ("hgap", "conjunctive", "hedge a b\nhedge a,b t\n"),
        ("hgap", "conjunctive", "node c\nhedge a b\nhedge b,c t\n"),
        ("hgap", "disjunctive", "hedge a b\nhedge b t\n"),
        ("hgap", "disjunctive", "node c\nhedge a b\nhedge c t\n"),
        ("xorhgap", "conjunctive", "hedge a b\nhedge a,b t\n"),
        ("xorhgap", "conjunctive", "node c\nhedge a b\nhedge b,c t\n"),
    ]
    src, image = tmp_path / "h.edges", tmp_path / "h.dt"
    reached = []
    for source, variant, edges in cases:
        text = "source a\ntarget t\n" + edges
        src.write_text(text, encoding="utf-8")
        reachable = hgap_reach(*read_hypergraph(text))
        reached.append(reachable)
        assert refused(capsys, source, src, "--mode", "skep")
        flags = ["--variant", variant]
        if source == "xorhgap":
            assert refused(capsys, source, src, *flags)
            flags = []
        code, _, _ = run(capsys, "reduce", source, str(src), *flags, "-o", str(image))
        assert code == 0
        problem = "ext" if source == "hgap" else "cred"
        code, out, _ = run(capsys, problem, str(image), "--json")
        assert code == 0 and json.loads(out)["answer"] == (reachable if problem == "cred" else not reachable)
    assert reached == [True, False] * 3


def test_reduce_gap_roundtrip(tmp_path, capsys):
    src = tmp_path / "g.edges"
    src.write_text(GAP, encoding="utf-8")
    out_file = tmp_path / "g.dt"
    assert refused(capsys, "gap", src, "--variant", "conjunctive")
    code, _, _ = run(capsys, "reduce", "gap", str(src), "--mode", "ext", "-o", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "ext", str(out_file))
    assert code == 0 and out.startswith("answer: no")  # t reachable -> no extension


def test_reduce_3sat_to_stdout(tmp_path, capsys):
    src = tmp_path / "f.cnf"
    src.write_text(CNF, encoding="utf-8")
    code, out, _ = run(capsys, "reduce", "3sat", str(src))
    assert code == 0 and "(default" in out and "W:" in out
    assert refused(capsys, "3sat", src, "--variant", "disjunctive")


def test_reduce_3sat_refuses_a_negative_count(tmp_path, capsys):
    src = tmp_path / "f.cnf"
    src.write_text("p cnf -2 0\n", encoding="utf-8")
    code, out, err = run(capsys, "reduce", "3sat", str(src))
    assert code == 2 and not out and f"{src}:1" in err


def test_reduce_snsat(tmp_path, capsys):
    src = tmp_path / "c.snsat"
    src.write_text("formula\nz1 0\n", encoding="utf-8")
    out_file = tmp_path / "c.dt"
    assert refused(capsys, "snsat", src, "--mode", "ext")
    assert refused(capsys, "snsat", src, "--variant", "conjunctive")
    code, _, _ = run(capsys, "reduce", "snsat", str(src), "-o", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "ext", str(out_file), "--json")
    assert json.loads(out)["answer"] is True


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "3")
    assert code == 0
    assert out.count("PASS") == 5


def _nots(depth):
    return "(not " * depth + "x" + ")" * depth


def _ands(depth):
    text = "x0"
    for i in range(1, depth + 1):
        text = f"(and {text} x{i})"
    return text


def test_deep_nesting_exits_3(tmp_path, capsys):
    # 600 nested negations parse and classify, but the table walks of ext
    # and cred (and of the oracle under imp) recurse deeper than Python's
    # recursion limit: one error line and exit 3, no traceback
    p = tmp_path / "deep.dt"
    p.write_text(f"W:\n{_nots(600)}\nD:\n(default x y y)\ngoal: y\n", encoding="utf-8")
    assert run(capsys, "classify", str(p))[0] == 0
    for problem in ("ext", "cred"):
        code, out, err = run(capsys, problem, str(p))
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "nesting" in err and len(err.splitlines()) == 1
    p.write_text(f"W:\n{_nots(600)}\ngoal: (and x x)\n", encoding="utf-8")
    code, out, err = run(capsys, "imp", str(p))
    assert (code, out) == (3, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1
    # 1,200 negations already exceed the limit in the parser: the same for
    # a --goal and for a goal: line in the file
    goal = _nots(1200)
    t = tmp_path / "t.dt"
    t.write_text("W:\nx\nD:\n(default x y y)\n", encoding="utf-8")
    w = tmp_path / "w.dt"
    w.write_text("W:\nx\n", encoding="utf-8")
    g = tmp_path / "goal.dt"
    g.write_text(f"W:\nx\nD:\n(default x y y)\ngoal: {goal}\n", encoding="utf-8")
    for argv in (
        ("cred", str(t), "--goal", goal),
        ("imp", str(w), "--goal", goal),
        ("cred", str(g)),
        ("skep", str(g)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error:") and "nesting" in err and len(err.splitlines()) == 1
    # a conjunction 900 deep is read by the Horn state in one frame per
    # level, and the answer's premise text is written the same way
    p.write_text(f"W:\n{_ands(900)}\ngoal: x3\n", encoding="utf-8")
    code, out, _ = run(capsys, "imp", str(p), "--json")
    assert code == 0 and json.loads(out)["answer"] is True


def test_depth_300_still_answers(tmp_path, capsys):
    p = tmp_path / "deep.dt"
    p.write_text(f"W:\n{_nots(300)}\nD:\n(default x y y)\ngoal: y\n", encoding="utf-8")
    for problem in ("ext", "cred"):
        code, out, _ = run(capsys, problem, str(p))
        assert code == 0 and out.startswith("answer: yes")
    p.write_text(f"W:\n{_nots(300)}\ngoal: (and x x)\n", encoding="utf-8")
    assert run(capsys, "imp", str(p))[:2] == (0, "answer: yes\n")
