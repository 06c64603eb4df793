import argparse
import json

import pytest

from postdl import engine, implication
from postdl.cli import build_parser, main

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


def test_ext_yes_no(theory_file, capsys):
    code, out, _ = run(capsys, "ext", theory_file)
    assert code == 0
    assert out.startswith("answer: yes")


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


def test_reduce_gap_roundtrip(tmp_path, capsys):
    src = tmp_path / "g.edges"
    src.write_text(GAP, encoding="utf-8")
    out_file = tmp_path / "g.dt"
    code, _, _ = run(capsys, "reduce", "gap", str(src), "--mode", "ext", "-o", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "ext", str(out_file))
    assert code == 0 and out.startswith("answer: no")  # t reachable -> no extension


def test_reduce_3sat_to_stdout(tmp_path, capsys):
    src = tmp_path / "f.cnf"
    src.write_text(CNF, encoding="utf-8")
    code, out, _ = run(capsys, "reduce", "3sat", str(src))
    assert code == 0 and "(default" in out and "W:" in out


def test_reduce_3sat_refuses_a_negative_count(tmp_path, capsys):
    src = tmp_path / "f.cnf"
    src.write_text("p cnf -2 0\n", encoding="utf-8")
    code, out, err = run(capsys, "reduce", "3sat", str(src))
    assert code == 2 and not out and f"{src}:1" in err


def test_reduce_snsat(tmp_path, capsys):
    src = tmp_path / "c.snsat"
    src.write_text("formula\nz1 0\n", encoding="utf-8")
    out_file = tmp_path / "c.dt"
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
