"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest -s tests/test_acceptance.py` to see them).

Criteria and tolerances:
  1  clone golden table, exact, < 1 s
  2  engine-vs-generic equivalence, 500 theories x 5 families, 100 %, < 120 s
  3  uniqueness laws on 200 + 200 random theories, zero violations
  4  inconsistency laws on 50 + 50 theories, zero violations
  5  reduction correctness (3CNF corpus, 200 digraphs, 200 hypergraphs,
     50 chain instances), 100 %, < 10 min
  6  implication fragments, 1000 + 1000 instances + axioms on 500, zero
     violations
  7  constant-elimination witness correspondence on 100 theories, zero
     violations
"""

import random
import time

from postdl.boolfun import BUILTINS
from postdl.clones import dispatch_case
from postdl.engine import (
    check_stable,
    decide,
    enumerate_extensions,
    ext,
    is_consistent_W,
)
from postdl.errors import EmptyDisjunction
from postdl.formula import App, Var, connectives_of, parse
from postdl.gen import (
    FAMILIES,
    random_digraph,
    random_formula,
    random_fragment_formula,
    random_goal,
    random_hypergraph,
    random_snsat,
    random_theory,
    small_3cnf_corpus,
)
from postdl.implication import (
    affine_implies,
    conjunctive_implies,
    disjunctive_implies,
    truth_table_implies,
)
from postdl.reductions import (
    cnf_sat,
    gap_reach,
    gap_to_default,
    hgap_reach,
    hgap_to_ext,
    pad_to_three,
    snsat_eval,
    snsat_to_ext,
    threesat_to_default,
    xor_hgap_to_cred,
)
from postdl.theory import DefaultRule, DefaultTheory, eliminate_constant_true

from golden import GOLDEN_ROWS

B = BUILTINS


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_clone_golden_table():
    t0 = time.perf_counter()
    for row, (base, subset, contains, cases, engines) in GOLDEN_ROWS.items():
        rep = dispatch_case([B[n] for n in base])
        assert rep.subset == frozenset(subset), row
        assert rep.contains == frozenset(contains), row
        assert (rep.ext_case, rep.cred_case, rep.skep_case) == cases, row
        assert (
            rep.engines["ext"],
            rep.engines["cred"],
            rep.engines["skep"],
        ) == engines, row
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"golden table took {elapsed:.2f}s"
    _report(1, f"24 golden rows exact in {elapsed * 1000:.0f} ms")


def test_criterion_2_engine_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20240)
    checked = 0
    for family in sorted(FAMILIES):
        for _ in range(500):
            theory = random_theory(rng, family)
            goal = random_goal(rng, theory, family)
            for problem in ("ext", "cred", "skep"):
                g = None if problem == "ext" else goal
                fast = decide(problem, theory, g)
                slow = decide(problem, theory, g, engine="generic")
                assert fast.answer == slow.answer, (family, problem)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"equivalence suite took {elapsed:.1f}s"
    _report(2, f"{checked} specialized-vs-generic decisions agree in {elapsed:.1f} s")


def test_criterion_3_uniqueness_laws():
    rng = random.Random(20241)
    for _ in range(200):
        theory = random_theory(rng, "r1", max_vars=5, max_rules=5)
        infos, _ = enumerate_extensions(theory)
        assert len({i.models for i in infos}) == 1
    for _ in range(200):
        theory = random_theory(rng, "m", max_vars=5, max_rules=5)
        infos, _ = enumerate_extensions(theory)
        assert len({i.models for i in infos}) <= 1
    _report(3, "200 1-reproducing theories have exactly one extension, "
               "200 monotone theories at most one")


def _contradiction(rng, theory):
    v = sorted(theory.variables()) or ["x"]
    pick = rng.choice(v)
    kind = rng.randrange(3)
    if kind == 0:
        return parse(f"(and {pick} (not {pick}))", B), [B["and"], B["not"]]
    if kind == 1:
        return parse(f"(xor {pick} {pick})", B), [B["xor"]]
    return App(B["bot"]), [B["bot"]]


def test_criterion_4_inconsistency_laws():
    rng = random.Random(20242)
    for _ in range(50):
        base = random_theory(rng, "general", max_vars=4, max_rules=4)
        bad, extra = _contradiction(rng, base)
        theory = DefaultTheory.make(
            list(base.W) + [bad], base.D, set(base.signature) | set(extra)
        )
        d = ext(theory, want_witness=True)
        assert d.answer and d.witness.inconsistent
        for k in range(1 << min(3, len(theory.D))):
            g = [i for i in range(len(theory.D)) if (k >> i) & 1]
            assert check_stable(theory, g)
    produced = 0
    while produced < 50:
        theory = random_theory(rng, "general", max_vars=4, max_rules=4)
        if not is_consistent_W(theory):
            continue
        produced += 1
        infos, _ = enumerate_extensions(theory)
        for info in infos:
            assert info.models != 0, "accepted witness with unsatisfiable axioms"
    _report(4, "50 inconsistent-fact theories trivially extend, 50 consistent "
               "ones only admit satisfiable witnesses")


def test_criterion_5_reduction_correctness():
    t0 = time.perf_counter()
    rng = random.Random(20243)

    corpus = small_3cnf_corpus(limit=450)
    assert len(corpus) >= 300
    n_sat = 0
    for cnf in corpus:
        cnf3 = pad_to_three(cnf)
        want = cnf_sat(cnf3)
        n_sat += want
        theory, _ = threesat_to_default(cnf3, "ext")
        assert ext(theory).answer == want
        theory, goal = threesat_to_default(cnf3, "skep")
        assert decide("skep", theory, goal).answer == (not want)
    assert 0 < n_sat < len(corpus)

    for _ in range(200):
        g, s, t = random_digraph(rng, max_nodes=8)
        want = gap_reach(g, s, t)
        theory, _ = gap_to_default(g, s, t, "ext")
        assert ext(theory).answer == (not want)
        theory, goal = gap_to_default(g, s, t, "cred")
        assert decide("cred", theory, goal).answer == want

    for _ in range(200):
        h, sources, t = random_hypergraph(rng, max_nodes=7, max_edges=10)
        want = hgap_reach(h, sources, t)
        conj = hgap_to_ext(h, sources, t, "conjunctive")
        assert ext(conj).answer == (not want)
        theory, goal = xor_hgap_to_cred(h, sources, t)
        assert decide("cred", theory, goal).answer == want

    # the disjunctive variant is exact on single-source hypergraphs only
    done = 0
    while done < 200:
        h, sources, t = random_hypergraph(rng, max_nodes=7, max_edges=10, single_source=True)
        want = hgap_reach(h, sources, t)
        try:
            disj = hgap_to_ext(h, sources, t, "disjunctive")
        except EmptyDisjunction:
            continue
        done += 1
        assert ext(disj).answer == (not want)
        conj = hgap_to_ext(h, sources, t, "conjunctive")
        assert ext(conj).answer == (not want)

    for _ in range(50):
        inst = random_snsat(rng)
        assert ext(snsat_to_ext(inst)).answer == bool(snsat_eval(inst))

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"reduction suite took {elapsed:.1f}s"
    _report(5, f"{len(corpus)} 3CNF + 200 digraph + 200 hypergraph + 50 chain "
               f"instances agree with their oracles in {elapsed:.1f} s")


def test_criterion_6_implication_fragments():
    rng = random.Random(20244)
    for _ in range(1000):
        prems = [random_fragment_formula(rng, "affine") for _ in range(rng.randint(0, 6))]
        goal = random_fragment_formula(rng, "affine")
        assert affine_implies(prems, goal) == truth_table_implies(prems, goal)
    for kind, frag in (("conj", conjunctive_implies), ("disj", disjunctive_implies)):
        for _ in range(1000):
            prems = [random_fragment_formula(rng, kind) for _ in range(rng.randint(0, 6))]
            goal = random_fragment_formula(rng, kind)
            assert frag(prems, goal) == truth_table_implies(prems, goal)
    conns = [B[n] for n in ("and", "or", "not", "xor", "imp")]
    pool = [f"v{i}" for i in range(1, 7)]
    for _ in range(500):
        prems = [random_formula(rng, conns, pool, 2) for _ in range(rng.randint(1, 5))]
        goal = random_formula(rng, conns, pool, 2)
        psi = random_formula(rng, conns, pool, 2)
        assert truth_table_implies(prems, prems[0])
        if truth_table_implies(prems, goal):
            assert truth_table_implies(prems + [psi], goal)
        if truth_table_implies(prems, psi) and truth_table_implies(prems + [psi], goal):
            assert truth_table_implies(prems, goal)
    _report(6, "1000 affine + 1000 conjunctive + 1000 disjunctive instances "
               "match the oracle; reflexivity, monotonicity and cut hold on "
               "500 instances")


def test_criterion_7_constant_elimination():
    rng = random.Random(20245)
    conns = [B[n] for n in ("and", "or", "not", "top")]
    for _ in range(100):
        pool = [f"v{i}" for i in range(1, rng.randint(2, 5))]
        w = [random_formula(rng, conns, pool, 2) for _ in range(rng.randint(0, 2))]
        rules = [
            DefaultRule(
                random_formula(rng, conns, pool, 2),
                random_formula(rng, conns, pool, 2),
                random_formula(rng, conns, pool, 2),
            )
            for _ in range(rng.randint(0, 3))
        ]
        rules.append(DefaultRule(App(B["top"]), Var(pool[0]), Var(pool[0])))
        theory = DefaultTheory.make(w, rules, conns)
        reduced = eliminate_constant_true(theory)
        assert B["top"] not in connectives_of(reduced.all_formulas())
        before, _ = enumerate_extensions(theory)
        after, _ = enumerate_extensions(reduced)
        assert [e.conseq_mask for e in before] == [e.conseq_mask for e in after]
        assert [e.generating for e in before] == [e.generating for e in after]
    _report(7, "100 constant-elimination round trips preserve the stable "
               "extension witnesses one-to-one")
