import random

import pytest

from postdl import formula, implication
from postdl.boolfun import BUILTINS, BoolFun
from postdl.clones import subset_of_clone
from postdl.errors import NotAffine, ShapeMismatch
from postdl.formula import App, Var, balanced_composition, evaluate, parse, table_int, variables_of
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


def _table_int_implies(premises, goal):
    """The oracle over formula.table_int, the reference tabling loop."""
    order = sorted(variables_of([*premises, goal]))
    full = (1 << (1 << len(order))) - 1
    prem = full
    for p in premises:
        prem &= table_int(p, order)
        if prem == 0:
            return True
    return prem & table_int(goal, order) == prem


def _formula(rng, conns, pool, depth):
    """A random formula over conns and the names in pool; with pool empty
    (or by chance) a leaf is a constant, so a formula may have no variable."""
    nullary = [c for c in conns if c.arity == 0]
    proper = [c for c in conns if c.arity > 0]
    if depth <= 0 or rng.random() < 0.3:
        if not pool or rng.random() < 0.15:
            return App(rng.choice(nullary))
        return Var(rng.choice(pool))
    c = rng.choice(proper)
    return App(c, tuple(_formula(rng, conns, pool, depth - 1) for _ in range(c.arity)))


def test_oracle_matches_the_table_int_reference():
    # every builtin and random defconn tables of arity 0-4, over no
    # premises, inconsistent premises, goals with variables outside the
    # premises and formulas with no variable at all
    rng = random.Random("oracle-vs-table_int")
    defconns = [
        BoolFun(f"d{k}", arity, "".join(rng.choice("01") for _ in range(1 << arity)))
        for k, arity in enumerate([0, 0, 1, 2, 2, 3, 3, 4, 4, 4])
    ]
    conns = list(SIG.values()) + defconns
    seen = {"none": 0, "inconsistent": 0, "outside": 0, "constant": 0, "yes": 0, "no": 0}
    for i in range(600):
        pool = [f"v{j}" for j in range(rng.randint(0, 6))]
        prems = [_formula(rng, conns, pool, 3) for _ in range(rng.randint(0, 4))]
        if i % 5 == 0 and prems:  # p and (not p): inconsistent
            prems.append(App(SIG["not"], (prems[0],)))
        goal = _formula(rng, conns, pool + ["w0", "w1"] if i % 3 else pool, 3)
        want = _table_int_implies(prems, goal)
        assert truth_table_implies(prems, goal) == want
        assert implies(prems, goal, engine="oracle") == want
        seen["none"] += not prems
        seen["inconsistent"] += bool(prems) and _table_int_implies(prems, App(SIG["bot"]))
        seen["outside"] += bool(variables_of([goal]) - variables_of(prems))
        seen["constant"] += not variables_of([*prems, goal])
        seen["yes" if want else "no"] += 1
    assert min(seen.values()) >= 20, seen


def test_implies_never_runs_the_reference_loop(monkeypatch):
    # the oracle and every route of auto table through the engines'
    # kernel: formula.table_int is the tests' reference only
    rng = random.Random("no-table_int")
    queries = []
    for names in (("and", "or", "not"), ("xor", "top"), ("and", "bot"), ("or", "top"), ("imp", "nimp", "eq")):
        conns = [SIG[n] for n in names]
        for _ in range(10):
            prems = [random_formula(rng, conns, ["a", "b", "c", "d"], 3) for _ in range(rng.randint(0, 3))]
            goal = random_formula(rng, conns, ["a", "b", "c", "e"], 3)
            queries.append((prems, goal, _table_int_implies(prems, goal)))

    def refuse(*args):
        raise AssertionError("formula.table_int called at run time")

    monkeypatch.setattr(formula, "table_int", refuse)
    for prems, goal, want in queries:
        assert implies(prems, goal) == want
        assert implies(prems, goal, engine="oracle") == want
        assert truth_table_implies(prems, goal) == want
    assert not hasattr(implication, "table_int")


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


def _outcome(phi, shape):
    try:
        return normal_form(phi, shape)
    except (ShapeMismatch, NotAffine) as e:
        return type(e)


def test_renamed_connective_has_the_builtin_normal_form():
    # the connective forms are read by truth table, not by name: a copy of
    # and, or or xor under another name gives the builtin's normal form in
    # every shape, on its first call and after, and is refused where the
    # builtin is
    texts = ["(C x y)", "(C x (C y (top)))", "(C (C x (bot)) y)", "(C (C x y) (C y z))", "(C x x)"]
    for name, builtin in [("andd", "and"), ("orr", "or"), ("xorr", "xor")]:
        sig = {**SIG, name: BoolFun(name, 2, SIG[builtin].table)}
        for text in texts:
            renamed = parse(text.replace("C", name), sig)
            original = parse(text.replace("C", builtin), sig)
            for shape in ("and", "or", "xor"):
                first = _outcome(renamed, shape)
                assert first == _outcome(original, shape) == _outcome(renamed, shape), (name, text, shape)
        assert _outcome(parse(f"({name} x y)", sig), builtin) == (builtin == "and", frozenset({"x", "y"}))


def test_connective_outside_the_clone_is_refused_on_every_call():
    # a refused connective leaves no entry behind, so it is refused again
    nand = BoolFun("nand_once", 2, "1110")
    sig = {**SIG, "nand_once": nand}
    cases = [
        (parse("(or x y)", SIG), "and", ShapeMismatch),
        (parse("(and x (or y z))", SIG), "and", ShapeMismatch),
        (parse("(xor x y)", SIG), "or", ShapeMismatch),
        (parse("(and x y)", SIG), "xor", NotAffine),
        (parse("(nand_once x y)", sig), "and", ShapeMismatch),
        (parse("(xor x (nand_once x y))", sig), "xor", NotAffine),
    ]
    for phi, shape, error in cases:
        for _ in range(3):
            with pytest.raises(error):
                normal_form(phi, shape)
    assert "1110" not in implication._FORMS["and"][0] and "1110" not in implication._FORMS["xor"][0]


def test_a_variable_is_its_own_normal_form():
    x = Var("x")
    assert normal_form(x, "and") == (1, frozenset({"x"}))
    assert normal_form(x, "or") == (0, frozenset({"x"}))
    assert normal_form(x, "xor") == (0, frozenset({"x"}))
    assert normalize_flat(x, "and") == normalize_flat(x, "or") == frozenset({"x"})


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


def _select_by_three_subset_tests(signature) -> str:
    # the engine choice as three clone tests, each over the whole signature
    if subset_of_clone(signature, "E"):
        return "conjunctive"
    if subset_of_clone(signature, "L"):
        return "affine"
    if subset_of_clone(signature, "V"):
        return "disjunctive"
    return "oracle"


def test_select_engine_matches_the_subset_tests_on_every_ternary_signature():
    picked = set()
    for bits in range(256):
        g = BoolFun("g", 3, format(bits, "08b"))
        for sig in ([g], [g, SIG["bot"]], [g, SIG["top"]], [g, SIG["bot"], SIG["top"]]):
            want = _select_by_three_subset_tests(sig)
            assert select_engine(sig) == want, (bits, [h.name for h in sig])
            assert select_engine({h.name: h for h in sig}) == want
            picked.add(want)
    assert picked == {"conjunctive", "affine", "disjunctive", "oracle"}


def test_implies_auto_infers_signature():
    assert implies([f("(xor x y)")], f("(xor y x)"))
    assert implies([f("(and x y)")], f("y"))


def test_implies_auto_joins_the_formulas_to_the_signature():
    # an "or" goal over "and" premises is answered, as decide answers it,
    # not refused by the conjunctive fragment
    for prems, goal in [(["x"], "(or x y)"), (["(and x z)"], "(or y z)"), (["y"], "(or x x)")]:
        prems = [f(p) for p in prems]
        assert implies(prems, f(goal)) == truth_table_implies(prems, f(goal))
    assert implies([f("x")], f("(or x y)"))
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


def _clone_connectives(clone):
    """Every connective of arity <= 3 in the clone, inessential arguments
    included."""
    conns = [
        BoolFun(f"g{n}_{bits}", n, format(bits, f"0{1 << n}b")[::-1])
        for n in range(4)
        for bits in range(1 << (1 << n))
    ]
    return [g for g in conns if subset_of_clone([g], clone)]


@pytest.mark.parametrize("shape,clone", [("and", "E"), ("or", "V"), ("xor", "L")])
def test_normal_form_matches_truth_table(shape, clone):
    # phi = c op (op of S), and S is phi's essential variables
    conns = _clone_connectives(clone)
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
        state.add(state.form(p))
    assert state.entails(state.form(f("y"), False))
    assert not state.inconsistent
    state.add(state.form(f("(xor x y)")))  # contradicts x = y
    assert state.inconsistent and state.entails(state.form(f("(bot)"), False))


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
                woken = state.add(state.form(phi))
                due = {k for k, g in waiting.items() if truth_table_implies(premises, g)}
                assert sorted(woken) == sorted(due)
                for k in due:
                    del waiting[k]
            elif move < 0.75:
                held = state.watch(step, state.form(phi))
                assert held == truth_table_implies(premises, phi)
                if not held:
                    waiting[step] = phi
            else:
                assert state.entails(state.form(phi, False)) == truth_table_implies(premises, phi)


@pytest.mark.parametrize("engine", ["affine", "conjunctive", "disjunctive"])
def test_fragment_state_edge_cases(engine):
    state = fragment_state(engine)
    top, bot, x, y, q = (state.form(f(text)) for text in ("(top)", "(bot)", "x", "y", "q"))
    assert bot == state.bottom != top
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
    contradiction = state.form(f("(xor x (top))")) if engine == "affine" else bot
    assert sorted(state.add(contradiction)) == ["bot", "y"]
    assert state.inconsistent and state.entails(bot) and state.entails(q)
    assert state.add(y) == [] and state.watch("late", q)
    assert state.tests == 3 + 2 + 1  # watch tests, wakes, the late watch


def test_affine_state_wakes_through_reduced_rows():
    # x xor y xor z needs both premises: x xor z reduces it to y = 0, and
    # the premise y = 0 then makes it 0 = 0; its negation is refuted and
    # keeps waiting
    state = fragment_state("affine")
    goal, negated = state.form(f("(xor x (xor y z))")), state.form(f("(xor x (xor y (xor z (top))))"))
    assert not state.watch("g", goal) and not state.watch("h", negated)
    assert state.add(state.form(f("(xor x z)"))) == []
    assert state.add(state.form(f("(xor y (top))"))) == ["g"]
    assert state.entails(goal) and not state.entails(negated)
    assert state.tests == 2 + 2 + 2  # two watches, each pivot touches both rows

    # the equations x + y = 0, then y + z = 0 (bits x, y, z in that order):
    # y + z takes pivot y, and the row of pivot x stays x + y instead of
    # being rewritten to x + z.  The goal x + z = 0 reduces through both
    # rows in turn, and its watch wakes on the second premise
    state = fragment_state("affine")
    x_y, y_z, goal = (state.form(f(text)) for text in ("(eq x y)", "(eq y z)", "(eq x z)"))
    assert state.add(x_y) == [] and not state.watch("g", goal)
    assert state.add(y_z) == ["g"]
    assert state._pivots == {0b001: (0b011, 0), 0b010: (0b110, 0)}
    assert state.entails(goal) and not state.entails(state.form(f("(xor x z)"), False))
    # a goal's new variable is numbered in a copy: the numbering stays x, y, z
    assert not state.entails(state.form(f("(xor x w)"), False)) and state.index == {"x": 0, "y": 1, "z": 2}
    assert state.tests == 1 + 1  # the watch, the wake
