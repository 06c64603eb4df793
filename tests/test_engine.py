import copy
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from postdl import clones, engine, implication
from postdl.boolfun import BUILTINS, BoolFun
from postdl.clones import dispatch_case
from postdl.engine import (
    TableContext,
    check_stable,
    cred,
    decide,
    enumerate_extensions,
    ext,
    is_consistent_W,
    skep,
)
from postdl.errors import (
    DefaultCountTooLarge,
    InputError,
    NestingTooDeep,
    TooManyVariables,
    UnboundVariable,
)
from postdl.formula import App, Var, evaluate, parse, table_int, variables_of
from postdl.gen import FAMILIES, random_cnf3, random_formula, random_goal, random_snsat, random_theory
from postdl.implication import select_engine, truth_table_implies
from postdl.reductions import (
    Hypergraph,
    SnsatInstance,
    hgap_to_ext,
    snsat_eval,
    snsat_to_ext,
    threesat_to_default,
    xor_hgap_to_cred,
)
from postdl.selftest import _from_extensions
from postdl.theory import DefaultRule, DefaultTheory

B = BUILTINS


def f(text):
    return parse(text, B, allow_reserved=True)


def rule(pre, just, con):
    return DefaultRule(f(pre), f(just), f(con))


# -- is_consistent_W -----------------------------------------------------------


def test_consistency_examples():
    assert not is_consistent_W(DefaultTheory.make([f("x"), f("(not x)")], []))
    assert is_consistent_W(DefaultTheory.make([], []))
    assert is_consistent_W(DefaultTheory.make([f("(or x y)")], [], [B["or"]]))


def test_consistency_tables_only_the_facts():
    # the rules' 22 variables would put a context over all of the theory's
    # variables past the cap; the facts alone have one
    rules = [rule(f"a{i}", f"a{i}", f"b{i}") for i in range(11)]
    assert is_consistent_W(DefaultTheory.make([f("(not x)")], rules))
    assert not is_consistent_W(DefaultTheory.make([f("x"), f("(not x)")], rules))


# -- check_stable ----------------------------------------------------------------


def test_check_stable_examples():
    t = DefaultTheory.make([f("p")], [rule("p", "q", "q")])
    assert check_stable(t, [0])
    assert not check_stable(t, [])


def test_check_stable_inconsistent_w():
    t = DefaultTheory.make([f("x"), f("(not x)")], [rule("x", "y", "y")])
    assert check_stable(t, []) and check_stable(t, [0])


def test_check_stable_consistent_w_inconsistent_candidate():
    t = DefaultTheory.make([f("p")], [rule("p", "q", "(bot)")])
    assert not check_stable(t, [0])


def test_check_stable_index_range():
    t = DefaultTheory.make([f("p")], [])
    with pytest.raises(InputError):
        check_stable(t, [3])


# -- worked examples -----------------------------------------------------------------


def test_ext_empty_theory():
    d = ext(DefaultTheory.make([], []), want_witness=True)
    assert d.answer and d.witness.generating == ()


def test_ext_bot_rule_monotone():
    t = DefaultTheory.make(
        [f("x")], [rule("x", "y", "(bot)")], [B["and"], B["bot"], B["top"]]
    )
    assert not ext(t).answer
    assert not ext(t, engine="generic").answer


def test_ext_gap_example():
    t = DefaultTheory.make(
        [f("p_s")],
        [rule("p_s", "p_s", "p_t"), rule("p_t", "p_t", "(bot)")],
        [B["id"], B["bot"]],
    )
    d = ext(t)
    assert not d.answer and d.engine == "reachability"
    assert not ext(t, engine="generic").answer


def test_cred_examples():
    t = DefaultTheory.make([f("p")], [])
    assert cred(t, f("p")).answer
    assert not skep(t, f("q")).answer
    t2 = DefaultTheory.make([f("p_s")], [rule("p_s", "p_s", "p_t")], [B["id"]])
    assert cred(t2, f("p_t")).answer


def test_skep_vacuous_on_no_extension():
    t = DefaultTheory.make(
        [f("p_s")],
        [rule("p_s", "p_s", "p_t"), rule("p_t", "p_t", "(bot)")],
        [B["id"], B["bot"]],
    )
    assert skep(t, f("whatever")).answer


def test_reachability_witness_on_inconsistent_facts_matches_generic():
    # inconsistent facts have the trivial extension, which entails every
    # goal; cred names it with the same witness as the generic oracle
    t = DefaultTheory.make([f("(bot)"), f("p")], [rule("p", "p", "q")], [B["id"], B["bot"]])
    for problem, goal in [("ext", None), ("cred", f("q")), ("cred", f("(bot)")), ("skep", f("r"))]:
        d = decide(problem, t, goal, want_witness=True)
        want = decide(problem, t, goal, engine="generic", want_witness=True)
        assert d.engine == "reachability"
        assert (d.answer, d.witness) == (want.answer, want.witness)
    witness = cred(t, f("q"), want_witness=True).witness
    assert witness == engine.ExtensionWitness((), inconsistent=True)


def test_table_mode_fixpoint_reads_bottom_like_generic():
    # {and, or, bot, top} is monotone but in none of E, V and L, so the
    # fixpoint runs in table mode.  Facts that contain (bot), a fired rule
    # that concludes (bot) and a (bot) justification answer, with the
    # same witness, as the generic oracle does
    sig = [B["and"], B["or"], B["bot"], B["top"]]
    assert select_engine(sig) == "oracle"
    chain = [rule("(or r s)", "(top)", "t"), rule("p", "(bot)", "q"), rule("p", "(and p s)", "(or r s)")]
    theories = [
        DefaultTheory.make([f("(bot)"), f("p")], [rule("p", "q", "(or q r)")], sig),
        DefaultTheory.make([f("p")], [rule("p", "q", "(or q r)"), rule("(or q r)", "(top)", "(bot)")], sig),
        DefaultTheory.make([f("p")], chain, sig),
    ]
    goals = [None, f("q"), f("t"), f("(or r s)"), f("(bot)")]
    for t in theories:
        for problem in ("ext", "cred", "skep"):
            for goal in goals[:1] if problem == "ext" else goals[1:]:
                d = decide(problem, t, goal, want_witness=True)
                want = decide(problem, t, goal, engine="generic", want_witness=True)
                assert d.engine == "monotone_iterative"
                assert (d.answer, d.witness) == (want.answer, want.witness), (problem, t, goal)
    # rule 1's justification is (bot), so rules 0 and 2 are live.  The
    # first pass tests both prerequisites and fires rule 2, the second
    # tests rule 0's again and fires it; then the goal test
    d = cred(theories[2], f("t"), want_witness=True)
    assert (d.answer, d.witness.generating) == (True, (0, 2))
    assert (d.stats.subsets_checked, d.stats.implication_calls) == (0, 3 + 1)


# signatures with a fragment state, and consequents over them equivalent
# to 0 (no formula over L1 is: each is 1 at all ones)
_FRAGMENT_FAMILIES = {
    "E": (("and", "bot", "top"), ("(and v1 (bot))", "(bot)", "(and (and v2 v1) (and (bot) v1))")),
    "V": (("or", "bot"), ("(or (bot) (bot))", "(bot)")),
    "L1": (("xor3", "eq", "top"), ()),
}


def _fragment_corpus():
    """Seeded theories and goals over E, V and L1, where the E and V rules
    include rules that conclude a formula equivalent to 0."""
    for family, (names, bottoms) in _FRAGMENT_FAMILIES.items():
        conns = [B[n] for n in names]
        rng = random.Random(f"fragment-bottom:{family}")
        for _ in range(60):
            pool = [f"v{i}" for i in range(1, rng.randint(2, 6) + 1)]

            def form():
                return random_formula(rng, conns, pool, 2)

            w = [Var(rng.choice(pool)) for _ in range(rng.randint(0, 2))] + [form() for _ in range(rng.randint(0, 1))]
            rules = [DefaultRule(form(), form(), form()) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(0, 2) if bottoms else 0):
                bottom = DefaultRule(Var(rng.choice(pool)), form(), f(rng.choice(bottoms)))
                rules.insert(rng.randrange(len(rules) + 1), bottom)
            yield family, DefaultTheory.make(w, rules, conns), form()


def test_fragment_fixpoint_reads_a_bottom_consequent_like_table_mode():
    # the fragment states read "concludes 0" off a fired consequent's
    # normal form; table mode reads the all-ones row.  Both give the same
    # answer and witness, and the fragment decisions' answers, witnesses
    # and implication_calls are pinned to the values they had when the
    # fragment states read it with an all-ones walk: the bottom test makes
    # no test of its own
    records, refuted = [], Counter()
    for family, t, goal in _fragment_corpus():
        mode = select_engine(t.signature)
        assert mode != "oracle"
        for problem in ("ext", "cred", "skep"):
            g = None if problem == "ext" else goal
            got = engine._fixpoint_engine(problem, t, g, mode)
            want = engine._fixpoint_engine(problem, t, g, "oracle")
            assert got[:2] == want[:2], (family, problem, t, goal)
            refuted[family] += problem == "ext" and not got[0]
            records.append([got[0], got[1] and list(got[1].generating), got[2]])
    assert refuted["E"] >= 10 and refuted["V"] >= 10 and refuted["L1"] == 0
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "0a1f89aa6ec00fa6ac8748e0f4332d8cc4a485b4a45d076ce3d9fb649ba0e0df"


def test_fragment_walk_past_the_recursion_limit_ends_in_nesting_too_deep():
    # a prerequisite nested deeper than the recursion limit, over E, V and
    # L1: the fragment state's walk ends in NestingTooDeep (or, were it to
    # answer, in the generic answer), never in a bare RecursionError
    depth = sys.getrecursionlimit() + 200
    for names in (("and", "bot"), ("or", "bot"), ("xor3",)):
        conn = B[names[0]]
        deep = Var("x")
        for i in range(depth):
            deep = App(conn, (deep, *(Var(f"y{j}") for j in range(conn.arity - 1))))
        t = DefaultTheory.make([Var("x")], [DefaultRule(deep, Var("y0"), Var("z"))], [B[n] for n in names])
        report = dispatch_case(t.signature)
        for problem, goal in (("ext", None), ("cred", Var("z")), ("skep", Var("z"))):
            assert report.engines[problem] in ("poly_fragment", "trivial_yes"), (names, problem)
            outcomes = []
            for name in ("auto", "generic"):
                try:
                    d = decide(problem, t, goal, engine=name, want_witness=True)
                    outcomes.append((d.answer, d.witness))
                except NestingTooDeep:
                    outcomes.append(NestingTooDeep)
            assert outcomes[0] is NestingTooDeep or outcomes[0] == outcomes[1], (names, problem)


def test_rule_free_theory_cred_equals_implication():
    rng = random.Random(9)
    for _ in range(40):
        t = random_theory(rng, "general", max_rules=0)
        goal = random_goal(rng, t, "general")
        assert cred(t, goal).answer == truth_table_implies(list(t.W), goal)


# -- the unique extension over R1 ----------------------------------------------------


def test_unique_extension_examples():
    # over a 1-reproducing signature ext is trivially yes; the witness is the
    # generating defaults of the one extension, named by the fixpoint
    def unique(t):
        d = decide("ext", t, want_witness=True)
        assert (d.answer, d.engine, d.case) == (True, "trivial_yes", "trivial")
        return d.witness.generating

    t = DefaultTheory.make([f("x")], [rule("x", "y", "y")], [B["or"]])
    assert unique(t) == (0,)
    t2 = DefaultTheory.make([], [rule("x", "x", "y")], [B["or"]])
    assert unique(t2) == ()
    t3 = DefaultTheory.make([f("(or x y)")], [rule("x", "(top)", "z")], [B["or"], B["top"]])
    assert unique(t3) == ()


# -- clone-law invariants -------------------------------------------------------------


def test_r1_exactly_one_extension():
    rng = random.Random(21)
    for _ in range(60):
        t = random_theory(rng, "r1", max_vars=4, max_rules=4)
        infos, _ = enumerate_extensions(t)
        assert len({i.models for i in infos}) == 1


def test_monotone_at_most_one_extension():
    rng = random.Random(22)
    for _ in range(60):
        t = random_theory(rng, "m", max_vars=4, max_rules=4)
        infos, _ = enumerate_extensions(t)
        assert len({i.models for i in infos}) <= 1


def test_r1_cred_equals_skep_pointwise():
    rng = random.Random(23)
    for _ in range(40):
        t = random_theory(rng, "r1", max_vars=4, max_rules=4)
        goal = random_goal(rng, t, "r1")
        assert cred(t, goal).answer == skep(t, goal).answer


def test_monotone_cred_skep_pattern():
    rng = random.Random(24)
    for _ in range(60):
        t = random_theory(rng, "m", max_vars=4, max_rules=4)
        goal = random_goal(rng, t, "m")
        has_ext = ext(t).answer
        c, s = cred(t, goal).answer, skep(t, goal).answer
        if has_ext:
            assert c == s
        else:
            assert not c and s


def test_inconsistent_w_laws():
    rng = random.Random(25)
    for _ in range(25):
        t0 = random_theory(rng, "general", max_vars=4, max_rules=3)
        v = sorted(t0.variables()) or ["x"]
        w = list(t0.W) + [f(f"(and {v[0]} (not {v[0]}))")]
        t = DefaultTheory.make(w, t0.D, [B["and"], B["not"]])
        d = ext(t, want_witness=True)
        assert d.answer and d.witness.inconsistent
        for g in range(min(4, 1 << len(t.D))):
            assert check_stable(t, [i for i in range(len(t.D)) if (g >> i) & 1])


def test_consistent_w_extensions_are_consistent():
    rng = random.Random(26)
    for _ in range(40):
        t = random_theory(rng, "general", max_vars=4, max_rules=4)
        if not is_consistent_W(t):
            continue
        infos, ctx = enumerate_extensions(t)
        for info in infos:
            assert info.models != 0


# -- the tabling kernel ------------------------------------------------------------


def _copy(phi):
    """A structurally equal formula that shares no node with phi."""
    if isinstance(phi, Var):
        return Var(phi.name)
    return App(phi.conn, [_copy(a) for a in phi.args])


def test_table_context_matches_table_int():
    # all builtins plus random connectives of arity 0-4, constants included
    rng = random.Random("table-context")
    for trial in range(60):
        conns = list(B.values())
        for k in range(3):
            arity = rng.randint(0, 5)
            table = "".join(rng.choice("01") for _ in range(1 << arity))
            conns.append(BoolFun(f"c{k}", arity, table))
        pool = [f"v{i}" for i in range(rng.randint(1, 6))]
        formulas = [random_formula(rng, conns, pool, 3) for _ in range(6)]
        formulas += [App(c) for c in conns if c.arity == 0]
        ctx = TableContext(formulas)
        for phi in formulas:
            assert ctx.table(phi) == table_int(phi, ctx.order), (trial, phi)
        for phi in formulas:
            assert ctx.table(_copy(phi)) == ctx.table(phi)


def test_table_context_without_variables():
    ctx = TableContext([App(B["top"]), App(B["bot"])])
    assert (ctx.order, ctx.full) == ([], 1)
    assert ctx.table(App(B["top"])) == 1
    assert ctx.table(App(B["not"], [App(B["top"])])) == 0


def test_table_context_refuses_a_variable_outside_its_order():
    ctx = TableContext([f("(and x y)")])
    with pytest.raises(UnboundVariable):
        ctx.table(f("(or x z)"))


def _small_connectives():
    """Every connective table of arity 0-3, and a seeded sample of 100
    tables each at arity 4 and 5."""
    for arity in range(4):
        for bits in range(1 << (1 << arity)):
            yield BoolFun(f"t{bits}", arity, format(bits, f"0{1 << arity}b")[::-1])
    rng = random.Random("small-connectives")
    for arity in (4, 5):
        for k in range(100):
            yield BoolFun(f"s{k}", arity, "".join(rng.choice("01") for _ in range(1 << arity)))


def test_kernel_tables_every_small_connective():
    # over the fixed order a..e: the arguments in order, reversed, and
    # with the first argument repeated
    names = [Var(v) for v in "abcde"]
    for conn in _small_connectives():
        args = names[: conn.arity]
        formulas = [App(conn, args), App(conn, args[::-1]), App(conn, args[:1] * conn.arity)]
        ctx = TableContext(formulas + names)
        assert ctx.order == list("abcde")
        for phi in formulas:
            assert ctx.table(phi) == table_int(phi, ctx.order), (conn, phi)


def _counted(op):
    def apply(self, other):
        _Counted.ops += 1
        return _Counted(op(int(self), int(other)))

    return apply


class _Counted(int):
    """An int whose AND, OR and XOR are counted and give counted ints."""

    ops = 0
    __and__ = __rand__ = _counted(int.__and__)
    __or__ = __ror__ = _counted(int.__or__)
    __xor__ = __rxor__ = _counted(int.__xor__)


def _kernel_ops(conn):
    """The bitwise operations the context does to apply conn to its
    argument variables; the table it gets must be table_int's."""
    ctx = TableContext([Var(v) for v in "abcde"])
    ctx.full = _Counted(ctx.full)
    ctx._patterns = {name: _Counted(bits) for name, bits in ctx._patterns.items()}
    _Counted.ops = 0
    phi = App(conn, [Var(v) for v in "abcde"[: conn.arity]])
    bits = ctx.table(phi)
    assert bits == table_int(phi, ctx.order), conn
    return _Counted.ops


def _satisfying_row_ops(conn):
    """The bitwise operations of an OR over conn's satisfying rows: each
    row the AND of its k literals, each complemented argument computed
    once."""
    rows = [r for r in range(conn.n_points) if conn.value_at(r)]
    if not rows:
        return 0
    negated = {j for r in rows for j in range(conn.arity) if not r >> j & 1}
    return len(negated) + len(rows) * max(conn.arity - 1, 0) + len(rows) - 1


def _anf_ops(conn):
    """The bitwise operations of an XOR over conn's algebraic normal form:
    each monomial the AND of its variables, the constant one the all-ones
    table.  A monomial m is in it when f is 1 on an odd number of the rows
    inside m."""
    sizes = [
        bin(m).count("1")
        for m in range(conn.n_points)
        if sum(conn.value_at(r) for r in range(m + 1) if r & m == r) % 2
    ]
    return sum(max(s - 1, 0) for s in sizes) + len(sizes) - 1 if sizes else 0


def test_kernel_never_does_more_bitwise_work_than_the_satisfying_rows():
    for conn in _small_connectives():
        ops = _kernel_ops(conn)
        assert ops <= _satisfying_row_ops(conn), conn
        assert ops == min(_anf_ops(conn), _satisfying_row_ops(conn)), conn
    # not = full ^ a, or = a ^ b ^ (a & b), xor3 = a ^ b ^ c, where the
    # satisfying rows take 1, 7 and 14 operations
    assert [_kernel_ops(B[n]) for n in ("not", "and", "or", "xor3", "bot", "top")] == [1, 1, 3, 2, 0, 0]
    assert [_satisfying_row_ops(B[n]) for n in ("not", "or", "xor3")] == [1, 7, 14]


def _best_of_three(build, conn):
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        build(conn)
        elapsed.append(time.perf_counter() - start)
    return min(elapsed)


def test_kernel_writes_out_only_the_chosen_form_of_a_16_ary_connective():
    # a random table (the normal form wins) and nor (the one satisfying
    # row wins, over 2^16 monomials); writing out both forms to pick one
    # took 0.25-0.3 s for each.  Building the kernel is as quick: nor's
    # form (cost 32) is compiled, the random one's (32,707 terms) runs as
    # a loop, since one expression of it overflows the compiler's recursion
    rng = random.Random("wide-connective")
    names = [Var(f"v{j:02}") for j in range(16)]
    for conn in (
        BoolFun("r16", 16, "".join(rng.choice("01") for _ in range(1 << 16))),
        BoolFun("nor16", 16, "1" + "0" * ((1 << 16) - 1)),
    ):
        assert _best_of_three(engine._bitwise_form, conn) < 0.1, conn
        assert _best_of_three(engine._kernel, conn) < 0.1, conn
        looped = engine._kernel(conn).__code__.co_filename == engine.__file__
        assert looped == (conn.name == "r16"), conn
        assert TableContext(names).table(App(conn, names)) == conn.bits
        assert engine._ones(App(conn, names)) == conn.value_at((1 << 16) - 1)


def test_ones_is_the_all_ones_evaluation():
    # nested formulas rooted at every connective of arity 0-3 and the
    # arity-4 and 5 samples, over a few others of the same list
    conns = list(_small_connectives())
    rng = random.Random("all-ones")
    pool = ["a", "b", "c"]
    for conn in conns:
        mix = [conn] + rng.sample(conns, 4)
        for _ in range(3):
            phi = App(conn, [random_formula(rng, mix, pool, 2) for _ in range(conn.arity)])
            assert engine._ones(phi) == evaluate(phi, dict.fromkeys(pool, 1)), phi


def test_kernel_source_holds_no_connective_name():
    # a name that would change the expression if it were written into it
    conn = BoolFun("x) or (1", 2, "0110")
    kernel = engine._kernel(conn)
    code = kernel.__code__
    assert conn.name not in repr((code.co_consts, code.co_names, code.co_filename))
    names = [Var(v) for v in "ab"]
    formulas = [App(conn, names), App(conn, [App(conn, names[::-1]), App(B["not"], names[:1])])]
    ctx = TableContext(formulas)
    for phi in formulas:
        assert ctx.table(phi) == table_int(phi, ctx.order)
        assert engine._ones(phi) == evaluate(phi, {"a": 1, "b": 1})


def test_snsat_ext_builds_each_variable_pattern_once(monkeypatch):
    # three chain formulas with two local variables each: 17 variables
    inst = SnsatInstance(
        (2, 2, 2),
        (
            ((("z", 1, 1), ("z", 2, -1)), (("z", 1, -1), ("z", 2, 1))),
            ((("x", 1, 1), ("z", 1, 1)), (("z", 2, -1),)),
            ((("x", 2, 1), ("z", 1, -1), ("z", 2, 1)), (("x", 1, 1), ("z", 2, -1))),
        ),
    )
    t = snsat_to_ext(inst)
    assert len(t.variables()) == 17
    # count only the patterns a context builds, from an empty width store,
    # so neither a caller that builds patterns elsewhere nor an earlier
    # test's width can make the count depend on test order
    built = Counter()
    building = []
    pattern, init = engine._var_pattern, TableContext.__init__

    def counted(j, n):
        if building:
            built[j, n] += 1
        return pattern(j, n)

    def counted_init(self, *args, **kwargs):
        building.append(self)
        try:
            init(self, *args, **kwargs)
        finally:
            building.pop()

    monkeypatch.setattr(engine, "_var_pattern", counted)
    monkeypatch.setattr(engine, "_PATTERNS", {})
    monkeypatch.setattr(TableContext, "__init__", counted_init)
    d = ext(t)
    assert d.engine == "monotone_iterative"
    assert d.answer == bool(snsat_eval(inst))
    assert built and max(built.values()) == 1
    assert {n for _, n in built} == {17}
    assert {j for j, _ in built} == set(range(17))
    # the patterns are kept per width: a second decision at width 17 builds none
    built.clear()
    assert ext(snsat_to_ext(inst)) == d
    assert not built


def test_decisions_at_the_variable_cap_take_milliseconds():
    # 20 variables, the tabling cap: each variable pattern is 2^20 bits,
    # built by doubling in about a millisecond
    facts = [f(f"(or v{i} v{i + 1})") for i in range(0, 20, 2)]
    rules = [
        rule("(or v0 v1)", "v4", "v4"),
        rule("v4", "(and v6 v8)", "(and v6 v8)"),
        rule("(and v6 v8)", "v10", "(or v10 v12)"),
        rule("(or v14 v15)", "(and v16 v13)", "(and v16 v17)"),
        rule("v17", "(or v18 v19)", "v19"),
    ]
    goal = f("(and v4 (or v12 v10))")
    t = DefaultTheory.make(facts, rules)
    general = DefaultTheory.make(facts + [f("(not (and v0 v19))")], rules)
    assert len(t.variables()) == len(general.variables()) == 20
    for theory, problem, g in [
        (t, "ext", None),
        (t, "cred", goal),
        (t, "skep", goal),
        (general, "ext", None),
    ]:
        start = time.perf_counter()
        d = decide(problem, theory, g, want_witness=True)
        assert time.perf_counter() - start < 0.25, problem
        reference = decide(problem, theory, g, engine="generic", want_witness=True)
        assert (d.answer, d.witness) == (reference.answer, reference.witness), problem
    assert d.engine == "generic"


def _digest_corpus():
    """Seeded (theory, goal, engines) inputs: theories of every gen family
    under auto and generic dispatch, theories over random connectives of
    arity 0-5 with "not", and 3SAT and snsat images."""
    for family in sorted(FAMILIES):
        rng = random.Random(f"digest:{family}")
        for _ in range(25):
            t = random_theory(rng, family)
            yield t, random_goal(rng, t, family), ("auto", "generic")
    rng = random.Random("digest:connectives")
    for _ in range(25):
        conns = [B["not"]] + [
            BoolFun(f"c{k}", arity, "".join(rng.choice("01") for _ in range(1 << arity)))
            for k, arity in enumerate(rng.choice([(2, 3), (3, 4), (1, 5), (0, 3, 4)]))
        ]
        pool = [f"v{i}" for i in range(rng.randint(1, 6))]

        def form():
            return random_formula(rng, conns, pool, 2)

        w = [form() for _ in range(rng.randint(0, 2))]
        d = [DefaultRule(form(), form(), form()) for _ in range(rng.randint(1, 5))]
        yield DefaultTheory.make(w, d, conns), form(), ("auto",)
    rng = random.Random("digest:3sat")
    for k in range(10):
        t, goal = threesat_to_default(random_cnf3(rng), ("ext", "skep")[k % 2])
        yield t, goal or Var("_psi"), ("auto",)
    rng = random.Random("digest:snsat")
    for _ in range(10):
        yield snsat_to_ext(random_snsat(rng)), Var("_xp1"), ("auto",)


def _corpus_queries():
    """(problem, theory, goal, engine) for every decision of the digest
    corpus; ext gets no goal."""
    for t, goal, engines in _digest_corpus():
        for engine_name in engines:
            for problem in ("ext", "cred", "skep"):
                yield problem, t, None if problem == "ext" else goal, engine_name


def test_decisions_are_pinned_on_a_seeded_corpus():
    # the sha256 of the decisions' JSON, witnesses and stats included; a
    # change of the tabling kernel leaves it as it is.  The second digest
    # leaves out implication_calls, the third all of stats: a cred-no or
    # skep-yes decision that the goal settles at the root (skep over
    # inconsistent facts included) visits no subset, the root and goal
    # tests count as implication calls, and the fixpoint's table mode
    # counts one test per prerequisite test per pass of ``_fire``, but no
    # answer, engine, case or witness changes
    digest, without_calls, without_stats = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    count = 0
    for problem, t, g, engine_name in _corpus_queries():
        d = decide(problem, t, g, engine_name, want_witness=True)
        record = d.to_json()
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        del record["stats"]["implication_calls"]
        without_calls.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        del record["stats"]
        without_stats.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        count += 1
    assert count == 885
    assert without_stats.hexdigest() == "0ec0ac6c6efbbc40ad91c328f7f4e3dce7f261607ee857b6e57a22d980d2cd35"
    assert without_calls.hexdigest() == "6ce5e68f82c674fcb202ed8b0486ffb84537ecb85b518f27716dbe3fcf6df936"
    assert digest.hexdigest() == "78f03c09b8ed68f04d0dbc849ed42d98d926d848d12b75385e3c2d70855937ba"


def test_warm_theory_facts_decide_as_cold_ones():
    # a theory keeps its variable order, its consequent index, its facts'
    # models and the fixpoint's closure (over L, with the numbering of its
    # rows' variables) on the value: a fresh value with no facts, the corpus's
    # own value (warm from the corpus's earlier queries) and a second run
    # on it all agree, stats included.
    # The digest corpus has no L1 theory, so the fragment corpus's E, V and
    # L1 theories decide warm fragment states too
    fragment_queries = [
        (problem, t, None if problem == "ext" else goal, "auto")
        for _, t, goal in _fragment_corpus()
        for problem in ("ext", "cred", "skep")
    ]
    count = 0
    for problem, t, g, engine_name in [*_corpus_queries(), *fragment_queries]:
        cold = decide(problem, t._replace(), g, engine_name, want_witness=True).to_json()
        for _ in range(2):
            assert decide(problem, t, g, engine_name, want_witness=True).to_json() == cold
        count += 1
    assert count == 885 + 540
    assert sum(isinstance(t.closure.final, implication.AffineState) for _, t, _, _ in fragment_queries) == 3 * 60
    # the kept closure is the one a fresh value computes: the same applied
    # rules and test count, and over L1 the same numbering of the rows'
    # variables, so no goal was numbered into it
    for _, t, _, _ in fragment_queries[::3]:
        fresh = t._replace().closure
        assert fresh[:2] == t.closure[:2]
        assert getattr(fresh.final, "index", None) == getattr(t.closure.final, "index", None)


def test_goals_leave_a_theorys_normal_form_store_as_it_is():
    # a theory keeps the fixpoint's closure: its applied rules, its test
    # count and its final state (over L with the numbering of its rows'
    # variables, in table mode the derived model set).  A goal is
    # normalized, numbered or tabled per decision and never kept, so 50
    # distinct goals, each with a variable outside the theory, leave all of
    # it as it was, and each answers as on a fresh value
    fork = Hypergraph(tuple("abcd"), ((("a",), "b"), (("b",), "c"), (("d",), "c")))
    monotone = [B["and"], B["or"], B["bot"], B["top"]]
    table_mode = DefaultTheory.make(
        [f("p"), f("(or r s)")],
        [rule("p", "q", "(or q r)"), rule("(or q r)", "(bot)", "s"), rule("(and p r)", "(top)", "t")],
        monotone,
    )
    answers = Counter()
    for t, kind, conn in [
        (hgap_to_ext(fork, ["a"], "d", "conjunctive"), implication.ConjunctiveState, "and"),
        (hgap_to_ext(fork, ["a"], "d", "disjunctive"), implication.DisjunctiveState, "or"),
        (xor_hgap_to_cred(fork, ["a"], "d")[0], implication.AffineState, "xor3"),
        (table_mode, int, "or"),
    ]:
        decide("cred", t, t.W[0])
        closure, facts = t.closure, dict(vars(t))
        assert closure.final.__class__ is kind and closure.witness.generating
        final = closure.final if kind is int else copy.deepcopy(vars(closure.final))
        for k in range(50):
            q = Var(f"q{k}")
            goal = App(B[conn], (q, q, t.W[0]) if conn == "xor3" else (q, t.W[0])) if k % 2 else q
            for problem in ("cred", "skep"):
                d = decide(problem, t, goal, want_witness=True)
                assert d == decide(problem, t._replace(), goal, want_witness=True), (kind, problem, goal)
                answers[d.answer] += 1
        assert t.closure is closure and vars(t) == facts, kind
        assert (closure.final if kind is int else vars(closure.final)) == final, kind
    assert answers[True] >= 100 and answers[False] >= 100, answers


def test_a_warm_fixpoint_decision_rederives_nothing(monkeypatch):
    # the second fixpoint decision of a theory value reads the closure the
    # first one kept: in every mode, table mode (the digest corpus's snsat
    # images) included, it fires no rule, asserts or watches nothing in a
    # state, normalizes no formula of the theory and evaluates none at
    # all-ones, nor derives its route.  Over E, V and L1 it tables nothing;
    # in table mode it tables only the goal, and a goal that adds a
    # variable the facts and the fired consequents in its widened context.
    # It builds its record and nothing else: its witness is the closure's
    # own object, and with ExtensionWitness and Stats unusable it answers
    # as the cold decision did
    calls = []
    normal_form, ones, table, fire = implication.normal_form, engine._ones, TableContext.table, engine._fire

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name, args[1] if name == "table" else args[0]))
            return fn(*args)

        return wrapper

    def unusable(*args):
        raise AssertionError("a warm decision built a witness or a Stats")

    monkeypatch.setattr(implication, "normal_form", counted("normal_form", normal_form))
    monkeypatch.setattr(engine, "_ones", counted("ones", ones))
    monkeypatch.setattr(engine, "_fire", counted("fire", fire))
    monkeypatch.setattr(clones, "_common_family", counted("family", clones._common_family))
    monkeypatch.setattr(TableContext, "table", counted("table", table))
    monkeypatch.setattr(implication.EntailmentState, "watch", counted("watch", implication.EntailmentState.watch))
    for state in (implication.ConjunctiveState, implication.DisjunctiveState, implication.AffineState):
        monkeypatch.setattr(state, "add", counted("add", state.add))
    fragment = [(t, goal, True) for _, t, goal in _fragment_corpus()]
    snsat = [(t, goal, False) for t, goal, _ in list(_digest_corpus())[-10:]]
    seen = Counter()
    for t, goal, in_fragment in fragment + snsat:
        own, facts = {id(phi) for phi in t.all_formulas()}, {id(w) for w in t.W}
        for problem in ("ext", "cred", "skep"):
            g = None if problem == "ext" else goal
            calls.clear()
            cold = decide(problem, t, g, want_witness=True)
            assert cold.engine not in ("generic", "affine_guess"), cold
            seen["cold normalized"] += any(name == "normal_form" and id(phi) in own for name, phi in calls)
            seen["cold fired"] += any(name in ("fire", "add") for name, _ in calls)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(engine, "ExtensionWitness", unusable)
                m.setattr(engine, "Stats", unusable)
                warm = decide(problem, t, g, want_witness=True)
            assert warm == cold
            assert warm.witness is None or warm.witness is t.closure.witness, (problem, t, g)
            seen["shared witness", problem] += warm.witness is not None
            assert not any(name in ("ones", "fire", "add", "watch", "family") for name, _ in calls), (problem, t, g)
            assert not any(name == "normal_form" and id(phi) in own for name, phi in calls)
            tabled = {id(phi) for name, phi in calls if name == "table"} - {id(g)}
            widens = g is not None and not variables_of([g]) <= t.variables()
            fired = {id(t.D[i].consequent) for i in getattr(t.closure.witness, "generating", ())}
            assert tabled <= facts | fired if widens else not tabled, (problem, t, g)
            if in_fragment:
                assert not any(name == "table" for name, _ in calls)
            elif not widens:
                seen["table mode, nothing of the theory tabled"] += 1
    assert seen["cold normalized"] >= 150 and seen["cold fired"] >= 100
    assert seen["table mode, nothing of the theory tabled"] >= 10
    assert min(seen["shared witness", problem] for problem in ("ext", "cred", "skep")) >= 50, seen


def test_decisions_table_only_the_rules_they_read(monkeypatch):
    # the rule tables are built on first read: a cred that the closure
    # answers no at the root tables no justification, an ext whose
    # facts-only candidate is stable tables no consequent beyond the fired
    # rules', and the fixpoint's table mode tests liveness at the all-ones
    # row, so it tables no justification and only the fired consequents
    # (the corpus's snsat images, which read _xp1, are counted apart)
    tabled = []
    table = TableContext.table

    def counted(self, phi):
        tabled.append(phi)
        return table(self, phi)

    monkeypatch.setattr(TableContext, "table", counted)
    seen = Counter()
    for problem, t, g, engine_name in _corpus_queries():
        tabled.clear()
        d = decide(problem, t, g, engine_name, want_witness=True)
        read = set(t.W) | {r.prerequisite for r in t.D} | {g}
        fired = {t.D[i].consequent for i in d.witness.generating} if d.witness else set()
        if d.engine in ("generic", "affine_guess"):
            if problem == "cred" and not d.answer and d.stats.subsets_checked == 0:
                seen["cred-root"] += 1
                assert set(tabled) <= read | {r.consequent for r in t.D}
            elif problem == "ext" and d.answer and d.stats.subsets_checked == 1:
                seen["ext-facts"] += 1
                assert set(tabled) <= read | {r.justification for r in t.D} | fired
        elif problem == "ext" and d.answer and select_engine(t.signature) == "oracle":
            seen["table-mode-snsat" if "_xp1" in t.variables() else "table-mode"] += 1
            assert set(tabled) <= read | fired
    assert len(seen) == 4 and min(seen.values()) >= 4, seen


def test_lazy_rule_tables_decide_as_eager_ones(monkeypatch):
    # answers, witnesses and every counter are those of rule tables built
    # in full before the decision reads any
    class Eager(engine._Tables):
        def __init__(self, formulas, table):
            super().__init__(formulas, table)
            for i in range(len(formulas)):
                self[i]

    def run():
        return [decide(p, t, g, e, want_witness=True).to_json() for p, t, g, e in _corpus_queries()]

    lazy = run()
    monkeypatch.setattr(engine, "_Tables", Eager)
    assert run() == lazy


# -- engine equivalence + witnesses ------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engines_agree_with_generic(family):
    rng = random.Random(f"agree:{family}")
    for _ in range(40):
        t = random_theory(rng, family)
        goal = random_goal(rng, t, family)
        for problem in ("ext", "cred", "skep"):
            g = None if problem == "ext" else goal
            auto = decide(problem, t, g, want_witness=True)
            slow = decide(problem, t, g, engine="generic")
            assert auto.answer == slow.answer, (family, problem, t)
            # every returned witness generates a stable extension; a cred
            # witness entails the goal, a skep counter-witness does not
            if auto.witness is None:
                continue
            gen = auto.witness.generating
            assert check_stable(t, gen), (family, problem, t)
            if problem != "ext":
                extension = list(t.W) + [t.D[i].consequent for i in gen]
                assert truth_table_implies(extension, goal) == (problem == "cred")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engines_agree_with_generic_beyond_the_facts(family):
    # most random theories have Th(W) as their only extension, where a
    # query is settled by the facts alone; these keep only theories with an
    # extension stronger than W and ask about its own consequents
    rng = random.Random(f"beyond:{family}")
    kept = 0
    while kept < 20:
        t = random_theory(rng, family)
        infos, _ = enumerate_extensions(t)
        fresh = [
            t.D[i].consequent
            for info in infos
            for i in info.generating
            if not truth_table_implies(list(t.W), t.D[i].consequent)
        ]
        if not fresh:
            continue
        kept += 1
        goal = rng.choice(fresh)
        answers = {}
        for problem in ("cred", "skep"):
            auto = decide(problem, t, goal, want_witness=True)
            slow = decide(problem, t, goal, engine="generic", want_witness=True)
            assert (auto.answer, auto.witness) == (slow.answer, slow.witness), (family, problem, t, goal)
            answers[problem] = auto.answer
        # the goal holds in the extension it was drawn from
        assert answers["cred"], (family, t, goal)


@pytest.mark.parametrize("names", [("not",), ("and", "not"), ("or", "not")])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_engines_agree_with_generic_on_even_loops(names, m):
    # W = {r} and, per i, r : not q_i / p_i and r : not p_i / q_i: each pair
    # picks p_i or q_i, so there are 2^m extensions, skep(p0) is no, and
    # the first extension (p0 chosen) is no cred(q0) witness
    rules = []
    for i in range(m):
        rules += [rule("r", f"(not q{i})", f"p{i}"), rule("r", f"(not p{i})", f"q{i}")]
    t = DefaultTheory.make([f("r")], rules, [B[n] for n in names])
    infos, _ = enumerate_extensions(t)
    assert len(infos) == 2**m
    witnesses = {}
    for problem, goal, answer in [("skep", f("p0"), False), ("cred", f("q0"), True)]:
        auto = decide(problem, t, goal, want_witness=True)
        slow = decide(problem, t, goal, engine="generic", want_witness=True)
        assert (auto.answer, auto.witness) == (slow.answer, slow.witness), (names, m, problem, auto.engine)
        assert auto.answer is answer, (names, m, problem)
        gen = witnesses[problem] = auto.witness.generating
        assert check_stable(t, gen)
        extension = list(t.W) + [t.D[i].consequent for i in gen]
        assert truth_table_implies(extension, goal) == (problem == "cred")
    assert witnesses["cred"] != infos[0].generating


def test_cred_witness_passes_check_stable():
    rng = random.Random(31)
    for _ in range(30):
        t = random_theory(rng, "general", max_vars=4, max_rules=4)
        goal = random_goal(rng, t, "general")
        d = cred(t, goal, want_witness=True)
        if d.answer:
            assert check_stable(t, d.witness.generating)


# -- caps and overrides ---------------------------------------------------------------


def test_generic_consequent_cap(monkeypatch):
    rules = [rule(f"a{i}", f"a{i}", f"c{i}") for i in range(21)]
    t = DefaultTheory.make([], rules, [B["and"], B["not"]])
    with pytest.raises(DefaultCountTooLarge):
        ext(t, engine="generic")

    # the cap is checked before any truth table is built
    def no_context(formulas):
        raise AssertionError("a table context was built")

    monkeypatch.setattr(engine, "TableContext", no_context)
    with pytest.raises(DefaultCountTooLarge):
        ext(t, engine="generic")


def test_generic_shares_consequents_beyond_rule_cap():
    # 30 rules but only 2 distinct consequents stays enumerable
    rules = [rule(f"a{i % 5}", f"a{i % 5}", f"c{i % 2}") for i in range(30)]
    t = DefaultTheory.make([f("a0")], rules, [B["and"], B["not"]])
    assert ext(t, engine="generic").answer


def test_var_cap():
    w = [f(f"v{i}") for i in range(21)]
    t = DefaultTheory.make(w, [], [B["and"], B["not"]])
    with pytest.raises(TooManyVariables):
        ext(t)


def test_engine_override_soundness():
    # no override can run a fixpoint engine outside its clone: over {not}
    # the monotone, r1 and reachability names are refused, and the one
    # engine that can be asked for agrees with auto
    t = DefaultTheory.make([f("(not x)")], [], [B["not"]])
    for name in ("monotone", "r1", "reachability"):
        with pytest.raises(InputError, match="unknown engine"):
            ext(t, engine=name)
    assert ext(t).answer == ext(t, engine="generic").answer
    # an "and" goal takes {id, bot} out of I, so cred leaves reachability
    # and answers like generic
    t = DefaultTheory.make([f("x")], [], [B["id"], B["bot"]])
    with pytest.raises(InputError, match="unknown engine"):
        cred(t, f("(and x x)"), engine="reachability")
    d = cred(t, f("(and x x)"))
    assert d.engine != "reachability"
    assert d.answer == cred(t, f("(and x x)"), engine="generic").answer


def test_goal_connectives_join_the_signature():
    # over {and, top} an "or" goal is answered as the generic oracle does,
    # not refused by the conjunctive fragment
    t = DefaultTheory.make([f("x")], [], [B["and"], B["top"]])
    for goal in ("(or x y)", "(or x x)", "(or q y)"):
        for problem in ("cred", "skep"):
            want = decide(problem, t, f(goal), engine="generic").answer
            assert decide(problem, t, f(goal)).answer == want, (problem, goal)
    assert cred(t, f("(or x y)")).answer and cred(t, f("(or x x)")).answer
    assert not cred(t, f("(or q y)")).answer


def test_a_widened_goal_reads_the_theorys_kept_closure(monkeypatch):
    # a goal's connectives widen the route, not the theory: over {xor3} an
    # eq goal keeps the affine state, so its warm cred and skep read the
    # closure the theory keeps, and an xor goal, which routes to the
    # enumeration, gets the theory as it is; no decision after the first
    # derives a closure, and every answer is the generic oracle's
    t = DefaultTheory.make(
        [f("a"), f("(xor3 a b c)")],
        [rule("a", "d", "d"), rule("d", "b", "b"), rule("c", "e", "(xor3 a e e)")],
        [B["xor3"]],
    )
    derived = []
    least = engine._least_fixpoint

    def once(*args):
        assert not derived, "a decision derived the closure again"
        derived.append(args)
        return least(*args)

    monkeypatch.setattr(engine, "_least_fixpoint", once)
    engines = set()
    for goal in ("(eq a b)", "(eq c d)", "(eq a e)", "(xor a b)", "(xor c e)", "(xor d e)"):
        for problem in ("cred", "skep"):
            cold = decide(problem, t, f(goal), want_witness=True)
            assert decide(problem, t, f(goal), want_witness=True) == cold
            assert cold.answer == decide(problem, t, f(goal), engine="generic").answer, (problem, goal)
            engines.add((goal[1:3], cold.engine))
    assert engines == {("eq", "poly_fragment"), ("xo", "affine_guess")}
    assert len(derived) == 1


def test_decide_validates_problem_and_goal():
    t = DefaultTheory.make([f("x")], [])
    with pytest.raises(InputError):
        decide("foo", t)
    with pytest.raises(InputError):
        decide("cred", t)
    # the signature picks the engine; only the reference oracle can be asked for
    assert engine.ENGINES == ("auto", "generic")
    for name in ("monotone", "r1", "affine", "reachability", "affine_guess", "bogus"):
        with pytest.raises(InputError, match="unknown engine"):
            decide("ext", t, engine=name)


def test_dispatch_picks_a_fixpoint_engine_exactly_within_m_or_r1():
    # so a fixpoint engine, asked for by name, would run only where auto
    # already runs one, and the enumerating ones are the generic code
    from postdl.clones import dispatch_case, subset_of_clone

    fixpoint = {"monotone_iterative", "r1_unique", "poly_fragment", "reachability", "trivial_yes"}
    # every ternary connective, alone and with bot, top or both: 1,024 signatures
    for bits in range(256):
        g = BoolFun("g", 3, format(bits, "08b"))
        for sig in ([g], [g, B["bot"]], [g, B["top"]], [g, B["bot"], B["top"]]):
            within = subset_of_clone(sig, "M") or subset_of_clone(sig, "R1")
            for problem, label in dispatch_case(sig).engines.items():
                assert (label in fixpoint) == within, (sig, problem, label)
                assert label in fixpoint or label in ("generic", "affine_guess"), label


def test_decision_json_schema():
    t = DefaultTheory.make([f("x")], [rule("x", "y", "y")])
    d = ext(t, want_witness=True)
    js = d.to_json()
    assert set(js) == {
        "problem", "answer", "engine", "case", "witness", "witness_inconsistent", "stats",
    }
    assert set(js["stats"]) == {"subsets_checked", "implication_calls"}


_DISJUNCTIVE_CHAINS = """
import json, random
from postdl import Var, decide, reductions

rng = random.Random(16)
for n in (8, 9, 10, 12, 16):
    nodes = [f"n{k}" for k in rng.sample(range(10 * n), n)]
    edges = [((nodes[i],), nodes[i + 1]) for i in range(n - 1)]
    if n % 2:  # turn the last edge around: the target is cut off
        edges[-1] = ((nodes[-1],), nodes[-2])
    h = reductions.Hypergraph(tuple(nodes), tuple(edges[::-1]))
    t = reductions.hgap_to_ext(h, [nodes[0]], nodes[-1], "disjunctive")
    goal = Var("p_" + nodes[n // 2])
    for problem in ("ext", "cred", "skep"):
        g = None if problem == "ext" else goal
        print(json.dumps(decide(problem, t, g, want_witness=True).to_json()))
"""


_XOR3_THEORIES = """
import json, random
from postdl import DefaultRule, DefaultTheory, decide
from postdl.boolfun import BUILTINS
from postdl.gen import random_formula

rng = random.Random(3)
conns = [BUILTINS["xor3"]]
pool = [f"v{i}" for i in range(1, 13)]
for _ in range(30):
    form = lambda: random_formula(rng, conns, pool, 3)
    w = [form() for _ in range(rng.randint(0, 3))]
    d = [DefaultRule(form(), form(), form()) for _ in range(rng.randint(10, 30))]
    t, goal = DefaultTheory.make(w, d, conns), form()
    for problem in ("cred", "skep"):
        print(json.dumps(decide(problem, t, goal, want_witness=True).to_json()))
"""


def test_disjunctive_decisions_do_not_depend_on_the_string_hash():
    # reversed disjunctive chains tie the variables the state re-tests
    # under, and a premise over {xor3} brings several new variables into
    # the GF(2) state at once, whose bit order picks the pivots; so the
    # firing order and the test counts must not follow the per-process
    # string hash
    import postdl

    src = str(Path(postdl.__file__).resolve().parents[1])
    for script, decisions in ((_DISJUNCTIVE_CHAINS, 15), (_XOR3_THEORIES, 60)):
        outs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("1", "2")
        ]
        assert len(outs[0].splitlines()) == decisions
        assert all(json.loads(line)["engine"] == "poly_fragment" for line in outs[0].splitlines())
        assert outs[0] == outs[1]


def test_implication_calls_counts_tests_made():
    # generic ext on two consequents q, r; each candidate tests both
    # justifications once.  The empty subset then tests rule 0's
    # prerequisite, fires it, and its consequent q, outside the subset,
    # fails to cover the candidate: rejected after 2 + 1 + 1 tests.  {q} is
    # stable: rule 1's justification (not q) fails, so only rule 0's
    # prerequisite is tested, q needs no cover test, and the closing test
    # follows: 2 + 1 + 1 tests.  Before the first singleton, one test per
    # consequent asks whether the facts entail it: 2 tests
    t = DefaultTheory.make([f("p")], [rule("p", "q", "q"), rule("p", "(not q)", "r")])
    stats = ext(t, engine="generic").stats
    assert (stats.subsets_checked, stats.implication_calls) == (2, 10)


def test_a_consequent_the_facts_entail_is_not_checked_again():
    # consequents p (entailed by the facts) and q.  The empty subset: 2
    # justification tests, rule 0 fires and p covers the candidate, rule 1
    # fires and q does not: 2 + 2 + 2 tests, rejected.  Then 2 tests find
    # that the facts entail p, so {p}, whose models are those of the empty
    # subset, is counted but makes no test.  {q} is stable: 2 justification
    # tests, rule 0's prerequisite and p's cover test, rule 1's
    # prerequisite, and the closing test.  Checking {p} would cost 5 more
    t = DefaultTheory.make([f("p")], [rule("p", "q", "p"), rule("p", "q", "q")])
    d = ext(t, engine="generic", want_witness=True)
    assert d.witness.generating == (0, 1)
    assert (d.stats.subsets_checked, d.stats.implication_calls) == (3, 6 + 2 + 6)


# -- independent fixpoint-operator oracle ----------------------------------------


def _gamma_oracle(theory, goal=None):
    """Literal transcription of the fixed-point semantics: a candidate
    set of formulas E is an extension iff E equals the least set that
    contains W, is deductively closed, and fires every rule whose
    prerequisite it contains and whose negated justification is outside E.
    Candidates range over Th(W + concl(G)) for raw rule subsets G; all
    sets are handled by their model bitmasks.  Returns the three answers
    and the set of the extensions' model sets."""
    from postdl.formula import table_int, variables

    order = set(theory.variables())
    if goal is not None:
        order |= variables(goal)
    order = sorted(order)
    full = (1 << (1 << len(order))) - 1

    def models(phi):
        return table_int(phi, order)

    m_w = full
    for w in theory.W:
        m_w &= models(w)
    stable_model_sets = []
    for g_mask in range(1 << len(theory.D)):
        m_e = m_w
        for i, d in enumerate(theory.D):
            if (g_mask >> i) & 1:
                m_e &= models(d.consequent)
        m = m_w
        changed = True
        while changed:
            changed = False
            for d in theory.D:
                fires = (m_e & models(d.justification)) != 0  # not beta notin E
                if fires and m & ~models(d.prerequisite) & full == 0:
                    new = m & models(d.consequent)
                    if new != m:
                        m = new
                        changed = True
        if m == m_e:
            stable_model_sets.append(m_e)
    answers = {
        "ext": bool(stable_model_sets),
        "cred": any(
            m == 0 or m & ~models(goal) & full == 0 for m in stable_model_sets
        ) if goal is not None else None,
        "skep": all(
            m == 0 or m & ~models(goal) & full == 0 for m in stable_model_sets
        ) if goal is not None else None,
    }
    return answers, set(stable_model_sets)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engines_agree_with_gamma_fixpoint_oracle(family):
    rng = random.Random(f"gamma:{family}")
    for _ in range(30):
        t = random_theory(rng, family, max_vars=4, max_rules=4)
        goal = random_goal(rng, t, family)
        want, _ = _gamma_oracle(t, goal)
        assert decide("ext", t).answer == want["ext"]
        assert decide("cred", t, goal).answer == want["cred"]
        assert decide("skep", t, goal).answer == want["skep"]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_enumerated_extensions_match_gamma_fixpoint_oracle(family):
    # the enumeration finds exactly the oracle's extensions (an early
    # rejection must never drop a stable candidate), and each generating
    # set it reports passes check_stable
    rng = random.Random(f"gamma-models:{family}")
    for _ in range(30):
        t = random_theory(rng, family, max_vars=4, max_rules=5)
        goal = random_goal(rng, t, family)
        _, want = _gamma_oracle(t, goal)
        infos, _ = enumerate_extensions(t, goal)
        assert {i.models for i in infos} == want, (family, t)
        for info in infos:
            assert check_stable(t, info.generating), (family, t)


def _every_subset_extensions(theory):
    """Reference for enumerate_extensions: every consequent subset in
    (popcount, value) order, none skipped, each run through the extension
    iteration to its least fixpoint over truth tables of its own; an
    extension is kept at the first subset that axiomatizes it.  Returns the
    ExtensionInfo list and the number of stable subsets that repeat one."""
    order = sorted(theory.variables())
    full = (1 << (1 << len(order))) - 1

    def models(phi):
        return table_int(phi, order)

    w = full
    for phi in theory.W:
        w &= models(phi)
    conseqs = list(dict.fromkeys(d.consequent for d in theory.D))
    rules = [tuple(map(models, d)) for d in theory.D]
    found, repeats = {}, 0
    for mask in sorted(range(1 << len(conseqs)), key=lambda m: (bin(m).count("1"), m)):
        e = w
        for j, c in enumerate(conseqs):
            if mask >> j & 1:
                e &= models(c)
        m, applied = w, set()
        fire = True
        while fire:
            fire = [
                i for i, (pre, just, _) in enumerate(rules)
                if i not in applied and e & just and m & ~pre == 0
            ]
            for i in fire:
                m &= rules[i][2]
                applied.add(i)
        if m == e:
            repeats += e in found
            found.setdefault(e, engine.ExtensionInfo(mask, tuple(sorted(applied)), e))
    return list(found.values()), repeats


def _repeat_prone_theories():
    """Seeded theories of every gen family, each also with inconsistent
    facts and with extra rules whose consequents repeat models: one the
    facts entail, one equivalent to another consequent, and one conjoining
    two consequents."""
    for family in sorted(FAMILIES):
        rng = random.Random(f"repeats:{family}")
        for _ in range(20):
            t = random_theory(rng, family, max_vars=4, max_rules=5)
            sig = set(t.signature) | {B["and"], B["not"]}
            yield t
            yield DefaultTheory.make(list(t.W) + [f("(and v1 (not v1))")], t.D, sig)
            pool = list(t.W) + [d.consequent for d in t.D] or [f("v1")]
            a, b = rng.choice(pool), rng.choice(pool)
            extra = [
                DefaultRule(rng.choice(pool), rng.choice(pool), con)
                for con in (rng.choice(t.W) if t.W else a, App(B["and"], (a, a)), App(B["and"], (a, b)))
            ]
            yield DefaultTheory.make(t.W, list(t.D) + extra, sig)


def test_enumeration_lists_each_extension_at_its_first_subset():
    # the kernel skips subsets that repeat an earlier subset's models and
    # enumerate_extensions drops the repeats it still checks: the list must
    # be the reference's, which checks every subset, in the same order
    repeats = 0
    for t in _repeat_prone_theories():
        want, n = _every_subset_extensions(t)
        infos, _ = enumerate_extensions(t)
        assert infos == want, t
        repeats += n
    assert repeats > 100  # the corpus does repeat extensions


def _goal_theories():
    """Seeded (theory, goal) pairs: theories of every gen family, each also
    with inconsistent facts, with a random goal of the family and with a
    fact as goal; and 3SAT images with the skep image's goal and each
    variable's literals as goals."""
    for family in sorted(FAMILIES):
        rng = random.Random(f"goal-first:{family}")
        for _ in range(40):
            t = random_theory(rng, family, max_vars=4, max_rules=5)
            goal = random_goal(rng, t, family)
            yield t, goal
            sig = set(t.signature) | {B["and"], B["not"]}
            yield DefaultTheory.make(list(t.W) + [f("(and v1 (not v1))")], t.D, sig), goal
            if t.W:
                yield t, t.W[0]
    rng = random.Random("goal-first:3sat")
    for _ in range(10):
        t, psi = threesat_to_default(random_cnf3(rng), "skep")
        yield t, psi
        for name in sorted(t.variables()):
            yield t, Var(name)
            yield t, App(B["not"], (Var(name),))


def test_goal_first_answers_match_the_unpruned_extension_list():
    # the root bounds and the per-candidate goal test only drop candidates
    # that cannot answer, so the answer and the witness are those of the
    # unpruned extension list: the first extension in list order that
    # entails (cred) or fails (skep) the goal.  A cred-no or skep-yes is
    # often settled before any subset
    at_root = Counter()
    for t, goal in _goal_theories():
        for problem in ("cred", "skep"):
            d = decide(problem, t, goal, "generic", want_witness=True)
            assert (d.answer, d.witness) == _from_extensions(problem, t, goal), (problem, t, goal)
            at_root[problem] += d.stats.subsets_checked == 0
    assert at_root["cred"] > 20 and at_root["skep"] > 20


def test_cred_no_is_settled_at_the_root():
    # the closure of W under both rules, justifications ignored, is p & q;
    # it does not entail r, so no extension does: the one prerequisite test
    # per rule (both fire in the first pass) and the goal test
    t = DefaultTheory.make([f("p")], [rule("p", "q", "q"), rule("q", "(not r)", "p")])
    d = cred(t, f("r"), engine="generic", want_witness=True)
    assert (d.answer, d.witness) == (False, None)
    assert (d.stats.subsets_checked, d.stats.implication_calls) == (0, 2 + 1)


def test_skep_yes_is_settled_at_the_root():
    # every extension contains the facts, and p entails (or p r); facts
    # {x, not x} entail every goal, so none of the 2^17 consequent subsets
    # of the second theory is visited
    for t, goal in [
        (DefaultTheory.make([f("p")], [rule("p", "(not q)", "r"), rule("p", "(not r)", "q")]), f("(or p r)")),
        (DefaultTheory.make([f("x"), f("(not x)")], [rule(f"a{i}", f"a{i}", f"a{i}") for i in range(17)]), f("a0")),
    ]:
        d = skep(t, goal, engine="generic", want_witness=True)
        assert (d.answer, d.witness) == (True, None)
        assert (d.stats.subsets_checked, d.stats.implication_calls) == (0, 1)


def test_a_closure_that_entails_the_goal_leaves_it_to_the_enumeration():
    # the justification-free closure p & q & r entails (and q r), but the
    # two rules block each other: the extensions are Th(p, q) and Th(p, r),
    # and neither entails it.  The root cannot answer, so all four subsets
    # are visited; skep of (or q r) holds in both and is decided the same way
    t = DefaultTheory.make([f("p")], [rule("p", "(not r)", "q"), rule("p", "(not q)", "r")])
    d = cred(t, f("(and q r)"), engine="generic")
    assert (d.answer, d.stats.subsets_checked) == (False, 4)
    d = skep(t, f("(or q r)"), engine="generic")
    assert (d.answer, d.stats.subsets_checked) == (True, 4)
    d = cred(t, f("r"), engine="generic", want_witness=True)
    assert (d.answer, d.witness.generating, d.stats.subsets_checked) == (True, (1,), 3)


@pytest.mark.parametrize("goal", ["p", "q"])
def test_ext_ignores_a_goal(goal):
    # W entails p, and the one extension Th(p, q) entails q: neither goal
    # may bound or prune ext, which answers as it does without a goal; nor
    # may a goal connective outside the signature move ext to another case
    # or engine
    t = DefaultTheory.make([f("p")], [rule("p", "q", "q")])
    for engine_name in ("generic", "auto"):
        without = decide("ext", t, None, engine_name, want_witness=True).to_json()
        assert (without["answer"], without["witness"]) == (True, [0])
        for g in (f(goal), f(f"(not {goal})")):
            assert decide("ext", t, g, engine_name, want_witness=True).to_json() == without
    # over {or}, W = {x} and 21 rules x : y_i / y_i, ext is trivial; a
    # "not" goal must not send it to the enumeration, over its cap
    t = DefaultTheory.make([f("x")], [rule("x", f"y{i}", f"y{i}") for i in range(21)], [B["or"]])
    without = decide("ext", t, None, want_witness=True).to_json()
    assert (without["engine"], without["case"]) == ("trivial_yes", "trivial")
    assert decide("ext", t, f(f"(not {goal})"), want_witness=True).to_json() == without
    with pytest.raises(DefaultCountTooLarge):
        decide("ext", t, f(goal), "generic")


def test_fresh_goal_variable_across_engines():
    # a goal variable foreign to the theory is only entailed by the
    # inconsistent extension
    fresh = f("q_fresh")
    for family in ("r1", "m", "l", "i", "general"):
        rng = random.Random(f"fresh:{family}")
        for _ in range(10):
            t = random_theory(rng, family, max_vars=3, max_rules=3)
            want_c = decide("cred", t, fresh, engine="generic").answer
            want_s = decide("skep", t, fresh, engine="generic").answer
            assert decide("cred", t, fresh).answer == want_c
            assert decide("skep", t, fresh).answer == want_s


def test_high_arity_signature_dispatches_like_l0():
    # the 4-ary parity generates L0, so its theories go to affine_guess and
    # must answer like the generic oracle, with stable witnesses
    from postdl.boolfun import BoolFun
    from postdl.formula import App, Var

    f4 = BoolFun("f4", 4, "0110100110010110")
    rng = random.Random(4)

    def formula():
        if rng.random() < 0.3:
            return Var(rng.choice("abcd"))
        return App(f4, tuple(Var(rng.choice("abcd")) for _ in range(4)))

    for _ in range(30):
        t = DefaultTheory.make(
            [formula() for _ in range(rng.randint(0, 2))],
            [DefaultRule(formula(), formula(), formula()) for _ in range(rng.randint(1, 4))],
            [f4],
        )
        goal = formula()
        for problem, case in (("ext", "NP"), ("cred", "NP"), ("skep", "coNP")):
            g = None if problem == "ext" else goal
            auto = decide(problem, t, g, want_witness=True)
            assert (auto.engine, auto.case) == ("affine_guess", case)
            assert auto.answer == decide(problem, t, g, engine="generic").answer, (problem, t)
            if auto.witness is None:
                continue
            gen = auto.witness.generating
            assert check_stable(t, gen), (problem, t)
            if problem != "ext":
                extension = list(t.W) + [t.D[i].consequent for i in gen]
                assert truth_table_implies(extension, goal) == (problem == "cred")
