import math

import random
import time
from collections import Counter

import pytest

from postdl.boolfun import BUILTINS
from postdl.engine import POLY_RULE_CAP, cred, decide, ext, skep
from postdl.errors import EmptyDisjunction, InputError, MalformedChain, NotThreeCnf
from postdl.formula import connectives, variables
from postdl.gen import random_digraph, random_hypergraph, random_snsat, small_3cnf_corpus
from postdl.reductions import (
    CnfFormula,
    Digraph,
    Hypergraph,
    SnsatInstance,
    cnf_sat,
    gap_reach,
    gap_to_default,
    hgap_reach,
    hgap_to_ext,
    imp_to_cred,
    pad_to_three,
    snsat_eval,
    snsat_to_ext,
    threesat_to_default,
    xor_hgap_to_cred,
)

B = BUILTINS


def theory_vars(theory):
    out = set()
    for g in theory.all_formulas():
        out |= variables(g)
    return out


def assert_signature_pure(theory, allowed_names):
    used = set()
    for g in theory.all_formulas():
        used |= {c.name for c in connectives(g)}
    assert used <= set(allowed_names), used
    assert "top" not in {c.name for c in theory.signature}


# -- 3SAT ------------------------------------------------------------------------


def test_cnf_sat_oracle():
    assert cnf_sat(CnfFormula(2, ((1, 2),)))
    assert not cnf_sat(CnfFormula(1, ((1,), (-1,))))
    assert cnf_sat(CnfFormula(0, ()))
    with pytest.raises(InputError):
        CnfFormula(-2, ())


def test_pad_to_three():
    cnf = pad_to_three(CnfFormula(2, ((1,), (1, -2))))
    assert cnf.clauses == ((1, 1, 1), (1, -2, 1))
    with pytest.raises(InputError):
        pad_to_three(CnfFormula(1, ((),)))


def test_threesat_rejects_wrong_width():
    with pytest.raises(NotThreeCnf):
        threesat_to_default(CnfFormula(2, ((1, 2),)))


def test_threesat_examples():
    sat_f = CnfFormula(1, ((1, 1, 1),))
    unsat_f = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
    th, _ = threesat_to_default(sat_f, "ext")
    assert ext(th).answer
    th, _ = threesat_to_default(unsat_f, "ext")
    assert len(th.D) == 2 * 1 + 6 * 2
    assert not ext(th).answer
    th, goal = threesat_to_default(unsat_f, "skep")
    assert skep(th, goal).answer


def test_threesat_signature_and_hygiene():
    cnf = CnfFormula(2, ((1, -2, 2),))
    th, goal = threesat_to_default(cnf, "skep")
    assert_signature_pure(th, {"not"})
    tv = theory_vars(th)
    assert {"x1", "x2", "_t"} <= tv
    assert all(v.startswith(("x", "_")) for v in tv)
    assert goal.name == "_psi" and "_psi" not in tv


def test_threesat_small_corpus():
    rng = random.Random(7)
    lits = [1, -1, 2, -2]
    for _ in range(60):
        clauses = tuple(
            tuple(rng.choice(lits) for _ in range(3)) for _ in range(rng.randint(1, 3))
        )
        cnf = CnfFormula(2, clauses)
        want = cnf_sat(cnf)
        th, _ = threesat_to_default(cnf, "ext")
        assert ext(th).answer == want
        th, goal = threesat_to_default(cnf, "skep")
        assert skep(th, goal).answer == (not want)


def test_small_3cnf_corpus_clause_lengths():
    # all one- and two-clause formulas plus `limit` three-clause ones
    for limit in (450, 0):
        lengths = Counter(len(cnf.clauses) for cnf in small_3cnf_corpus(limit))
        assert lengths == Counter({1: 56, 2: 1540, 3: limit})


# -- SNSAT ------------------------------------------------------------------------


def test_snsat_eval_examples():
    one = SnsatInstance((1,), (((("z", 1, 1),),),))
    zero = SnsatInstance((1,), (((("z", 1, 1),), (("z", 1, -1),)),))
    assert snsat_eval(one) == 1
    assert snsat_eval(zero) == 0
    chain = SnsatInstance(
        (1, 1),
        (
            ((("z", 1, 1),), (("z", 1, -1),)),
            ((("x", 1, 1), ("z", 1, 1)), (("z", 1, -1),)),
        ),
    )
    assert snsat_eval(chain) == 0


def test_snsat_invariants_checked():
    with pytest.raises(MalformedChain):
        SnsatInstance((1,), (((("x", 1, 1),),),))  # x1 out of range in formula 1
    with pytest.raises(MalformedChain):
        SnsatInstance((1,), (((("z", 2, 1),),),))  # z2 beyond m=1


def test_snsat_reduction_examples():
    one = SnsatInstance((1,), (((("z", 1, 1),),),))
    zero = SnsatInstance((1,), (((("z", 1, 1),), (("z", 1, -1),)),))
    assert ext(snsat_to_ext(one)).answer
    assert not ext(snsat_to_ext(zero)).answer


def test_snsat_reduction_rejects_outside_class():
    # negated chain occurrence: the textbook construction is unsound here
    # (an underivable chain token leaves the chain variable unpinned), so
    # the instance is refused instead of silently mis-reduced
    bad = SnsatInstance(
        (1, 1),
        (
            ((("z", 1, 1),),),
            ((("x", 1, -1), ("z", 1, 1)), (("z", 1, -1),)),
        ),
    )
    with pytest.raises(MalformedChain):
        snsat_to_ext(bad)
    # clause without a local variable: same refusal
    bad2 = SnsatInstance(
        (1, 1),
        (
            ((("z", 1, 1),),),
            ((("x", 1, 1),),),
        ),
    )
    with pytest.raises(MalformedChain):
        snsat_to_ext(bad2)


def test_snsat_reduction_signature():
    inst = SnsatInstance((2,), (((("z", 1, 1), ("z", 2, -1)),),))
    th = snsat_to_ext(inst)
    assert_signature_pure(th, {"and", "or", "bot"})


def test_snsat_random_cross_check():
    rng = random.Random(13)
    for _ in range(25):
        inst = random_snsat(rng)
        want = bool(snsat_eval(inst))
        th = snsat_to_ext(inst)
        assert ext(th).answer == want
        assert ext(th, engine="generic").answer == want


# -- HGAP ------------------------------------------------------------------------


def test_hgap_reach_examples():
    h = Hypergraph(("a", "t"), ((("a",), "t"),))
    assert hgap_reach(h, ["a"], "t")
    h2 = Hypergraph(("a", "t"), ())
    assert not hgap_reach(h2, ["a"], "t")
    h3 = Hypergraph(("a", "b", "t"), ((("a", "b"), "t"),))
    assert not hgap_reach(h3, ["a"], "t")
    assert hgap_reach(h3, ["a", "b"], "t")


def test_hgap_variants_signature():
    h = Hypergraph(("a", "b", "t", "u"), ((("a", "b"), "t"),))
    th = hgap_to_ext(h, ["a"], "t", "conjunctive")
    assert_signature_pure(th, {"and", "bot"})
    h1 = Hypergraph(("a", "t", "u"), ((("a",), "t"),))
    th = hgap_to_ext(h1, ["a"], "t", "disjunctive")
    assert_signature_pure(th, {"or", "bot"})


def test_hgap_disjunctive_preconditions():
    h = Hypergraph(("a", "t", "u"), ((("a",), "t"),))
    with pytest.raises(EmptyDisjunction):
        hgap_to_ext(h, ["a", "t", "u"], "t", "disjunctive")  # S = V
    small = Hypergraph(("a", "t"), ((("a",), "t"),))
    with pytest.raises(EmptyDisjunction):
        hgap_to_ext(small, ["a"], "t", "disjunctive")  # edge covers all nodes
    two_src = Hypergraph(("a", "b", "t", "u"), ((("a", "b"), "t"),))
    with pytest.raises(InputError):
        hgap_to_ext(two_src, ["a"], "t", "disjunctive")  # outside the sound class


def test_hgap_random_cross_check():
    rng = random.Random(17)
    for _ in range(30):
        h, sources, t = random_hypergraph(rng, max_nodes=6, max_edges=7)
        want = hgap_reach(h, sources, t)
        th = hgap_to_ext(h, sources, t, "conjunctive")
        assert ext(th).answer == (not want)
    done = 0
    while done < 30:
        h, sources, t = random_hypergraph(rng, max_nodes=6, max_edges=7, single_source=True)
        want = hgap_reach(h, sources, t)
        try:
            th = hgap_to_ext(h, sources, t, "disjunctive")
        except EmptyDisjunction:
            continue
        assert ext(th).answer == (not want)
        done += 1


def test_hgap_disjunctive_reversed_chain_past_variable_cap():
    # 30 nodes give 30 variables: the image is decided by the fragment
    # engine, with no truth table; the last edge turned around cuts the path
    nodes = tuple(f"n{i}" for i in range(30))
    path = [((nodes[i],), nodes[i + 1]) for i in range(29)]
    for edges in (path, path[:-1] + [((nodes[29],), nodes[28])]):
        h = Hypergraph(nodes, tuple(reversed(edges)))
        d = ext(hgap_to_ext(h, [nodes[0]], nodes[29], "disjunctive"))
        assert d.engine == "poly_fragment"
        assert d.answer == (not hgap_reach(h, [nodes[0]], nodes[29]))


def reversed_chain(n, broken=False, two_source_every=0):
    """The path n0 -> ... -> n(n-1), listed last edge first, so that a pass
    loop fires one rule per pass; every two_source_every-th edge also needs
    n0, and a broken chain has its last edge turned around."""
    nodes = tuple(f"n{i}" for i in range(n))
    edges = []
    for i in range(n - 1):
        two = two_source_every and i % two_source_every == two_source_every - 1
        edges.append(((nodes[i], nodes[0]) if two else (nodes[i],), nodes[i + 1]))
    if broken:
        edges[-1] = ((nodes[-1],), nodes[-2])
    return Hypergraph(nodes, tuple(reversed(edges))), nodes[0], nodes[-1]


def as_digraph(h):
    """The graph of a hypergraph whose edges all have one source."""
    return Digraph(h.nodes, tuple((src, dest) for (src,), dest in h.edges))


def test_fixpoint_implication_calls_grow_linearly():
    # one test per rule at registration and one per wake: doubling the
    # reversed conjunctive or graph chain doubles the count (a pass loop
    # made quadratically many tests)
    calls = {}
    for n in (200, 400):
        h, s, t = reversed_chain(n, two_source_every=4)
        d = ext(hgap_to_ext(h, [s], t))
        assert d.engine == "poly_fragment" and not d.answer
        calls["hgap", n] = d.stats.implication_calls
        h, s, t = reversed_chain(n)
        d = ext(gap_to_default(as_digraph(h), s, t, "ext")[0])
        assert d.engine == "reachability" and not d.answer
        calls["gap", n] = d.stats.implication_calls
    for kind in ("hgap", "gap"):
        assert 200 <= calls[kind, 200] <= 2 * 200
        assert calls[kind, 400] <= 2 * calls[kind, 200] + 2


@pytest.mark.parametrize("variant,n,bound_s", [
    ("conjunctive", 1_000, 1.0),
    ("xor", 1_000, 1.0),
    ("disjunctive", 100, 1.0),
    ("conjunctive", 10_000, 10.0),  # 10,000 rules, POLY_RULE_CAP
    ("xor", 6_000, 10.0),  # 8,997 rules
    ("gap", 10_000, 1.0),  # 10,000 rules for ext, with the poison rule
])
def test_reversed_chain_fixpoint_within_bound(variant, n, bound_s):
    for broken in (False, True):
        h, s, t = reversed_chain(n, broken, 0 if variant in ("disjunctive", "gap") else 4)
        if variant == "gap":
            images = [(gap_to_default(as_digraph(h), s, t, p), p) for p in ("ext", "cred")]
        elif variant == "xor":
            images = [(xor_hgap_to_cred(h, [s], t), "cred")]
        else:
            images = [((hgap_to_ext(h, [s], t, variant), None), "ext")]
        reach = hgap_reach(h, [s], t)
        for (theory, goal), problem in images:
            assert len(theory.D) <= POLY_RULE_CAP
            start = time.perf_counter()
            d = decide(problem, theory, goal, want_witness=True)
            assert time.perf_counter() - start < bound_s
            assert d.engine == ("reachability" if variant == "gap" else "poly_fragment")
            assert d.answer == (reach if problem == "cred" else not reach)


# -- GAP -------------------------------------------------------------------------


def test_gap_examples():
    g = Digraph(("s", "t"), (("s", "t"),))
    th, _ = gap_to_default(g, "s", "t", "ext")
    assert not ext(th).answer
    g2 = Digraph(("s", "t"), ())
    th2, goal2 = gap_to_default(g2, "s", "t", "cred")
    assert not cred(th2, goal2).answer
    g3 = Digraph(("s", "a", "t"), (("s", "a"), ("a", "t")))
    th3, goal3 = gap_to_default(g3, "s", "t", "cred")
    assert cred(th3, goal3).answer
    assert cred(th3, goal3, engine="generic").answer


def test_gap_random_cross_check():
    rng = random.Random(19)
    for _ in range(40):
        g, s, t = random_digraph(rng, max_nodes=7)
        want = gap_reach(g, s, t)
        th, _ = gap_to_default(g, s, t, "ext")
        assert ext(th).answer == (not want)
        th, goal = gap_to_default(g, s, t, "cred")
        assert cred(th, goal).answer == want
        assert skep(th, goal).answer == want  # unique extension


# -- XOR HGAP ---------------------------------------------------------------------


def test_xor_hgap_examples():
    h = Hypergraph(("a", "b", "t"), ((("a", "b"), "t"),))
    th, goal = xor_hgap_to_cred(h, ["a", "b"], "t")
    assert cred(th, goal).answer
    th, goal = xor_hgap_to_cred(h, ["a"], "t")
    assert not cred(th, goal).answer
    h2 = Hypergraph(("a", "t"), ((("a",), "t"),))
    th, goal = xor_hgap_to_cred(h2, ["a"], "t")
    assert cred(th, goal).answer


def test_xor_hgap_signature_and_hygiene():
    h = Hypergraph(("a", "b", "t"), ((("a", "b"), "t"),))
    th, goal = xor_hgap_to_cred(h, ["a"], "t")
    assert_signature_pure(th, {"xor3"})
    assert any(v.startswith("_e") for v in theory_vars(th))


def test_xor_hgap_random_cross_check():
    rng = random.Random(23)
    for _ in range(30):
        h, sources, t = random_hypergraph(rng, max_nodes=6, max_edges=6)
        want = hgap_reach(h, sources, t)
        th, goal = xor_hgap_to_cred(h, sources, t)
        assert cred(th, goal).answer == want


# -- IMP --------------------------------------------------------------------------


def test_imp_to_cred():
    from postdl.formula import parse

    A = [parse("(or x y)", B)]
    th, goal = imp_to_cred(A, parse("x", B))
    assert not cred(th, goal).answer
    th, goal = imp_to_cred([parse("x", B)], parse("(or x y)", B))
    assert cred(th, goal).answer


# -- size monitor --------------------------------------------------------------------


def _image_size_bound(n_in: int) -> int:
    return 220 * max(2, n_in) * max(1, math.ceil(math.log2(max(2, n_in))))


def test_reduction_output_size_polynomial():
    rng = random.Random(29)
    for _ in range(15):
        h, sources, t = random_hypergraph(rng)
        n_in = len(h.nodes) + sum(len(s) + 1 for s, _ in h.edges)
        for build in (
            lambda: hgap_to_ext(h, sources, t, "conjunctive"),
            lambda: xor_hgap_to_cred(h, sources, t)[0],
        ):
            assert build().size() <= _image_size_bound(n_in)
    for _ in range(15):
        inst = random_snsat(rng)
        n_in = sum(inst.m) + sum(
            len(cl) for cls in inst.clauses for cl in cls
        )
        assert snsat_to_ext(inst).size() <= _image_size_bound(n_in)
    for _ in range(15):
        cnf = CnfFormula(3, tuple(
            tuple(rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(3))
            for _ in range(rng.randint(1, 3))
        ))
        n_in = cnf.n_vars + 3 * len(cnf.clauses)
        th, _ = threesat_to_default(cnf, "ext")
        assert th.size() <= _image_size_bound(n_in)
