import random

import pytest

from postdl.boolfun import BUILTINS, BoolFun
from postdl.clones import subset_of_clone
from postdl.errors import NotAffine, ShapeMismatch
from postdl.formula import Var, balanced_composition, evaluate, parse
from postdl.gen import random_formula, random_fragment_formula
from postdl.implication import (
    ENGINES,
    affine_implies,
    conjunctive_implies,
    disjunctive_implies,
    fragment_state,
    implies,
    normal_form,
    normalize_flat,
    select_engine,
    truth_table_implies,
)

SIG = BUILTINS


def f(text):
    return parse(text, SIG)


# -- oracle ----------------------------------------------------------------


def test_oracle_basic():
    assert truth_table_implies([f("x")], f("x"))
    assert truth_table_implies([f("(and x y)")], f("y"))
    assert truth_table_implies([], f("(or x (not x))"))
    assert truth_table_implies([f("x"), f("(not x)")], f("y"))
    assert not truth_table_implies([f("(or x y)")], f("x"))


# -- affine ------------------------------------------------------------------


def test_affine_examples():
    assert affine_implies([f("(xor x y)")], f("(xor y x)"))
    assert not affine_implies([f("x")], f("(xor x y)"))
    assert affine_implies([f("x"), f("(eq x y)")], f("y"))


def test_affine_chain_polarity():
    # x^y and y^z force x^z to be false, so the entailed goal is eq(x, z);
    # verified against the oracle
    prems = [f("(xor x y)"), f("(xor y z)")]
    assert truth_table_implies(prems, f("(eq x z)"))
    assert affine_implies(prems, f("(eq x z)"))
    assert not truth_table_implies(prems, f("(xor x z)"))
    assert not affine_implies(prems, f("(xor x z)"))


def test_affine_inconsistent_premises():
    prems = [f("x"), f("(xor x (top))")]  # x = 1 and x = 0
    assert affine_implies(prems, f("y"))
    assert truth_table_implies(prems, f("y"))


def test_affine_constant_goals():
    assert affine_implies([f("x")], f("(top)"))
    assert not affine_implies([f("x")], f("(bot)"))
    assert affine_implies([f("(xor x x)")], f("(eq y y)"))


def test_affine_rejects_nonlinear():
    with pytest.raises(NotAffine):
        affine_implies([f("(and x y)")], f("x"))


# -- conjunctive / disjunctive -------------------------------------------------


def test_conjunctive_examples():
    assert conjunctive_implies([f("(and x y)")], f("x"))
    assert conjunctive_implies([f("(and x y)"), f("z")], f("(and z y)"))
    assert not conjunctive_implies([f("(and x y)")], f("z"))
    assert conjunctive_implies([f("(bot)")], f("z"))
    assert not conjunctive_implies([f("x")], f("(bot)"))
    assert conjunctive_implies([], f("(top)"))


def test_disjunctive_examples():
    assert disjunctive_implies([f("(or x y)")], f("(or x (or y z))"))
    assert disjunctive_implies([f("(or x y)"), f("z")], f("(or z x)"))
    assert not disjunctive_implies([f("(or x y)")], f("x"))
    assert disjunctive_implies([f("(bot)")], f("x"))


def test_normalize_collapses_redundancy():
    assert normalize_flat(f("(or x x)"), "or") == frozenset({"x"})
    assert normalize_flat(f("(and x (top))"), "and") == frozenset({"x"})
    assert normalize_flat(f("(or x (top))"), "or") == "top"
    assert normalize_flat(f("(and x (bot))"), "and") == "bot"
    assert normal_form(f("(xor x (xor y x))"), "xor") == (0, frozenset({"y"}))
    assert normal_form(f("(eq x (not y))"), "xor") == (0, frozenset({"x", "y"}))


def test_normalize_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        normalize_flat(f("(xor x y)"), "or")


def test_explicit_engine_refuses_foreign_connective():
    # the refusal is per connective, not by semantics: (and x x) is x
    with pytest.raises(ShapeMismatch):
        disjunctive_implies([f("(and x x)")], f("x"))
    with pytest.raises(ShapeMismatch):
        conjunctive_implies([f("x")], f("(or x x)"))
    with pytest.raises(NotAffine):
        affine_implies([f("(or x x)")], f("x"))
    # implies takes no fragment by name: the signature picks it
    assert ENGINES == ("auto", "oracle")
    for name in ("affine", "conjunctive", "disjunctive", "bogus"):
        with pytest.raises(ValueError, match="unknown implication engine"):
            implies([f("x")], f("x"), engine=name)


def test_fragments_beyond_truth_table_cap():
    # 30 variables, over the truth tables' 20: the fragment engines build none
    v = [Var(f"v{i}") for i in range(30)]
    big_and = balanced_composition(SIG["and"], v)
    assert implies([big_and], balanced_composition(SIG["and"], v[5:25]))
    assert not implies([big_and], balanced_composition(SIG["and"], v[5:] + [Var("w")]))
    # the parity of all 30 and v1..v29 force v0 = 0
    prems = [balanced_composition(SIG["xor"], v)] + v[1:]
    assert affine_implies(prems, f("(xor v0 (top))"))
    assert affine_implies(prems, f("(xor v0 v1)"))
    assert not affine_implies(prems[:-1], f("(xor v0 (top))"))


# -- dispatch ------------------------------------------------------------------


def test_select_engine():
    assert select_engine([SIG["xor"], SIG["top"]]) == "affine"
    assert select_engine([SIG["and"], SIG["bot"]]) == "conjunctive"
    assert select_engine([SIG["or"], SIG["top"]]) == "disjunctive"
    assert select_engine([SIG["and"], SIG["or"]]) == "oracle"
    # I lies in both E and L; its signatures go to the Horn state
    assert select_engine([SIG["id"], SIG["bot"]]) == "conjunctive"


def test_implies_auto_infers_signature():
    assert implies([f("(xor x y)")], f("(xor y x)"))
    assert implies([f("(and x y)")], f("y"))


def test_implies_auto_joins_the_formulas_to_the_signature():
    # an "or" goal over {and, top} is answered, as decide answers it, not
    # refused by the conjunctive fragment
    sig = [SIG["and"], SIG["top"]]
    for prems, goal in [(["x"], "(or x y)"), (["(and x z)"], "(or y z)"), (["y"], "(or x x)")]:
        prems = [f(p) for p in prems]
        assert implies(prems, f(goal), sig) == truth_table_implies(prems, f(goal))
    assert implies([f("x")], f("(or x y)"), sig)
    with pytest.raises(ShapeMismatch):
        conjunctive_implies([f("x")], f("(or x y)"))


# -- randomized cross-checks -----------------------------------------------------


@pytest.mark.parametrize("kind,frag", [
    ("affine", affine_implies),
    ("conj", conjunctive_implies),
    ("disj", disjunctive_implies),
])
def test_fragments_agree_with_oracle(kind, frag):
    rng = random.Random(f"fragments:{kind}")
    for _ in range(250):
        prems = [random_fragment_formula(rng, kind, max_vars=8) for _ in range(rng.randint(0, 5))]
        goal = random_fragment_formula(rng, kind, max_vars=8)
        assert frag(prems, goal) == truth_table_implies(prems, goal)


@pytest.mark.parametrize("shape,clone", [("and", "E"), ("or", "V"), ("xor", "L")])
def test_normal_form_matches_truth_table(shape, clone):
    # every connective of arity <= 3 in the clone, inessential arguments
    # included: phi = c op (op of S), and S is phi's essential variables
    conns = [
        BoolFun(f"g{n}_{bits}", n, format(bits, f"0{1 << n}b")[::-1])
        for n in range(4)
        for bits in range(1 << (1 << n))
    ]
    conns = [g for g in conns if subset_of_clone([g], clone)]
    order = ["a", "b", "c", "d"]
    rng = random.Random(f"normal_form:{shape}")
    for _ in range(200):
        phi = random_formula(rng, conns, order, 3)
        c, support = normal_form(phi, shape)
        values = []
        for i in range(16):
            env = {v: (i >> j) & 1 for j, v in enumerate(order)}
            picked = [env[v] for v in support]
            want = {"and": c & all(picked), "or": c | any(picked), "xor": c ^ sum(picked) & 1}
            assert evaluate(phi, env) == want[shape]
            values.append(want[shape])
        essential = {v for j, v in enumerate(order) if any(values[i] != values[i ^ 1 << j] for i in range(16))}
        assert support == essential


def _random_general(rng, n_prems):
    conns = [SIG[n] for n in ("and", "or", "not", "xor", "imp")]
    pool = [f"v{i}" for i in range(1, 7)]
    return [random_formula(rng, conns, pool, 2) for _ in range(n_prems)]


def test_entailment_axioms():
    rng = random.Random(11)
    for _ in range(150):
        prems = _random_general(rng, rng.randint(1, 4))
        goal = _random_general(rng, 1)[0]
        # reflexivity
        assert truth_table_implies(prems, prems[0])
        # monotonicity
        if truth_table_implies(prems, goal):
            extra = prems + _random_general(rng, 1)
            assert truth_table_implies(extra, goal)
        # cut
        psi = _random_general(rng, 1)[0]
        if truth_table_implies(prems, psi) and truth_table_implies(prems + [psi], goal):
            assert truth_table_implies(prems, goal)


def test_affine_system():
    state = fragment_state("affine")
    for p in (f("(eq x y)"), f("x")):
        state.add(p)
    assert state.entails(f("y"))
    assert not state.inconsistent
    state.add(f("(xor x y)"))  # contradicts x = y
    assert state.inconsistent and state.entails(f("(bot)"))


# -- incremental entailment states -------------------------------------------------

@pytest.mark.parametrize("engine,kind", [
    ("affine", "affine"), ("conjunctive", "conj"), ("disjunctive", "disj"),
])
def test_fragment_state_agrees_with_oracle(engine, kind):
    # seeded add/watch/entails sequences over 4 or 12 variables (4 makes
    # entailment and wakes common): every answer, and every wake of a
    # watched goal, happens exactly when the premises added so far entail
    # it by truth tables
    rng = random.Random(f"state:{engine}")
    for _ in range(150):
        state = fragment_state(engine)
        premises, waiting = [], {}
        n_vars = rng.choice((4, 12))
        for step in range(rng.randint(1, 14)):
            phi = random_fragment_formula(rng, kind, max_vars=n_vars)
            move = rng.random()
            if move < 0.4:
                premises.append(phi)
                woken = state.add(phi)
                due = {k for k, g in waiting.items() if truth_table_implies(premises, g)}
                assert sorted(woken) == sorted(due)
                for k in due:
                    del waiting[k]
            elif move < 0.75:
                held = state.watch(step, phi)
                assert held == truth_table_implies(premises, phi)
                if not held:
                    waiting[step] = phi
            else:
                assert state.entails(phi) == truth_table_implies(premises, phi)


@pytest.mark.parametrize("engine", ["affine", "conjunctive", "disjunctive"])
def test_fragment_state_edge_cases(engine):
    top, bot, x, y, q = f("(top)"), f("(bot)"), f("x"), f("y"), f("q")
    state = fragment_state(engine)
    # entails before any add: only the tautology holds
    assert state.entails(top) and not state.entails(x) and not state.entails(bot)
    assert not state.watch("bot", bot) and not state.watch("y", y)
    assert state.watch("top", top)
    # a top premise changes nothing, and a goal over a variable that no
    # premise mentions stays unentailed
    assert state.add(top) == [] and state.add(x) == []
    assert state.entails(x) and not state.entails(q) and not state.inconsistent
    # an inconsistency (bottom, or x = 0 against x = 1 in GF(2)) wakes
    # every waiting goal, the bottom one too, and then entails everything
    contradiction = f("(xor x (top))") if engine == "affine" else bot
    assert sorted(state.add(contradiction)) == ["bot", "y"]
    assert state.inconsistent and state.entails(bot) and state.entails(q)
    assert state.add(y) == [] and state.watch("late", q)
    assert state.tests == 3 + 2 + 1  # watch tests, wakes, the late watch


def test_affine_state_wakes_through_reduced_rows():
    # x xor y xor z needs both premises: x xor z reduces it to y = 0, and
    # the premise y = 0 then makes it 0 = 0; its negation is refuted and
    # keeps waiting
    state = fragment_state("affine")
    goal, negated = f("(xor x (xor y z))"), f("(xor x (xor y (xor z (top))))")
    assert not state.watch("g", goal) and not state.watch("h", negated)
    assert state.add(f("(xor x z)")) == []
    assert state.add(f("(xor y (top))")) == ["g"]
    assert state.entails(goal) and not state.entails(negated)
    assert state.tests == 2 + 2 + 2  # two watches, each pivot touches both rows

    # the equations x + y = 0, then y + z = 0 (bits x, y, z in that order):
    # y + z takes pivot y, and the row of pivot x stays x + y instead of
    # being rewritten to x + z.  The goal x + z = 0 reduces through both
    # rows in turn, and its watch wakes on the second premise
    state = fragment_state("affine")
    goal = f("(eq x z)")
    assert state.add(f("(eq x y)")) == [] and not state.watch("g", goal)
    assert state.add(f("(eq y z)")) == ["g"]
    assert state._pivots == {0b001: (0b011, 0), 0b010: (0b110, 0)}
    assert state.entails(goal) and not state.entails(f("(xor x z)"))
    assert state.tests == 1 + 1  # the watch, the wake
