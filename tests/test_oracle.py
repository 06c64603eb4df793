"""Decisions against an oracle that shares no code with postdl.

``bench/oracles.py`` decides ext, cred and skep by Reiter's fixed-point
test over every rule subset, with its own parser and model sets.  Every
differential test elsewhere compares dispatched engines with ``generic``,
and the two share the tabling kernel, ``_stable``, ``_fire`` and the skip
tables; here both are checked against the oracle, answer and witness.
"""

import random
import sys
from pathlib import Path

from postdl.boolfun import BUILTINS
from postdl.engine import decide
from postdl.formats import write_theory
from postdl.formula import App, Var
from postdl.gen import FAMILIES, random_formula, random_goal, random_theory
from postdl.theory import DefaultRule, DefaultTheory

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import oracles  # noqa: E402

B = BUILTINS


def _even_loop(rng):
    """W = {r} and m <= 3 pairs r : not q_i / p_i and r : not p_i / q_i over
    {and, not}, 2^m extensions before noise, with 0-2 random noise rules
    and a random goal over the loop's atoms."""
    conns = [B["and"], B["not"]]
    m = rng.randint(1, 3)
    pool = ["r"] + [f"{a}{i}" for i in range(m) for a in "pq"]
    rules = []
    for i in range(m):
        p, q = Var(f"p{i}"), Var(f"q{i}")
        rules += [DefaultRule(Var("r"), App(B["not"], (q,)), p), DefaultRule(Var("r"), App(B["not"], (p,)), q)]
    for _ in range(rng.randint(0, 2)):
        rules.append(DefaultRule(*(random_formula(rng, conns, pool, 2) for _ in range(3))))
    return DefaultTheory.make([Var("r")], rules, conns), random_formula(rng, conns, pool, 2)


def _corpus():
    rng = random.Random("reiter-oracle")
    for family in sorted(FAMILIES):
        for _ in range(40):
            t = random_theory(rng, family)
            yield t, random_goal(rng, t, family)
    for _ in range(60):
        yield _even_loop(rng)


def test_decisions_agree_with_reiter_oracle():
    branching = skep_no = theories = 0
    for t, goal in _corpus():
        theories += 1
        # the oracle's parser knows seven builtins, so every connective of
        # the signature is declared before the theory's own text; those
        # lines also stand for the uses: line, which that parser does not read
        declared = sorted(t.signature, key=lambda c: c.name)
        written = [line for line in write_theory(t, goal).splitlines(True) if not line.startswith("uses:")]
        text = "".join(f"defconn {c.name} {c.arity} {c.table}\n" for c in declared) + "".join(written)
        th = oracles.parse_theory(text)
        logic = oracles.logic_for(th)
        expected = oracles.reiter_answers(th)
        branching += len(oracles.all_extensions(logic, th)) > 1
        skep_no += not expected["skep"]
        for problem in ("ext", "cred", "skep"):
            for engine in ("auto", "generic"):
                d = decide(problem, t, None if problem == "ext" else goal, engine, want_witness=True)
                witness = d.witness.generating if d.witness else None
                error = oracles.decision_error(problem, expected[problem], d.answer, witness, th, logic)
                assert error is None, (error, problem, engine, d.engine, text)
    assert theories == 260
    assert branching >= 40 and 4 * skep_no >= theories, (branching, skep_no)
