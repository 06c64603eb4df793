"""Seeded random instance generators for the cross-validation suites."""

from __future__ import annotations

import random
from itertools import combinations

from .boolfun import BUILTINS, BoolFun
from .formula import App, Formula, Var
from .reductions import CnfFormula, Digraph, Hypergraph, SnsatInstance
from .theory import DefaultRule, DefaultTheory

# signature families exercised by the engine-equivalence suite
FAMILIES: dict[str, tuple[str, ...]] = {
    "r1": ("or", "and"),
    "m": ("and", "or", "bot", "top"),
    "l": ("xor", "top"),
    "i": ("id", "bot"),
    "general": ("and", "not"),
}


def _conns(names) -> list[BoolFun]:
    return [BUILTINS[n] for n in names]


def random_formula(rng: random.Random, conns: list[BoolFun], pool: list[str], depth: int) -> Formula:
    nullary = [c for c in conns if c.arity == 0]
    proper = [c for c in conns if c.arity > 0]
    if depth <= 0 or not proper or rng.random() < 0.35:
        if nullary and rng.random() < 0.2:
            return App(rng.choice(nullary))
        return Var(rng.choice(pool))
    c = rng.choice(proper)
    return App(c, tuple(random_formula(rng, conns, pool, depth - 1) for _ in range(c.arity)))


def random_theory(
    rng: random.Random,
    family: str,
    max_vars: int = 6,
    max_rules: int = 6,
    max_w: int = 2,
    depth: int = 2,
) -> DefaultTheory:
    conns = _conns(FAMILIES[family])
    pool = [f"v{i}" for i in range(1, rng.randint(1, max_vars) + 1)]
    w = [random_formula(rng, conns, pool, depth) for _ in range(rng.randint(0, max_w))]
    rules = [
        DefaultRule(
            random_formula(rng, conns, pool, depth),
            random_formula(rng, conns, pool, depth),
            random_formula(rng, conns, pool, depth),
        )
        for _ in range(rng.randint(0, max_rules))
    ]
    return DefaultTheory.make(w, rules, conns)


def random_goal(rng: random.Random, theory: DefaultTheory, family: str, depth: int = 2) -> Formula:
    pool = sorted(theory.variables()) or ["v1"]
    return random_formula(rng, _conns(FAMILIES[family]), pool, depth)


def random_cnf3(rng: random.Random, max_vars: int = 3, max_clauses: int = 3) -> CnfFormula:
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        clauses.append(tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3)))
    return CnfFormula(n, tuple(clauses))


def small_3cnf_corpus(limit: int = 600) -> list[CnfFormula]:
    """A deterministic, deduplicated corpus of 3CNF formulas over at most
    three variables and three clauses: all one- and two-clause formulas
    plus `limit` evenly strided three-clause ones."""
    lits = [1, -1, 2, -2, 3, -3]
    clause_pool = sorted(
        {tuple(sorted(c)) for c in combinations(lits, 3)}
        | {tuple(sorted((a, a, b))) for a in lits for b in lits}
    )
    formulas: list[tuple[tuple[int, ...], ...]] = []
    formulas.extend((c,) for c in clause_pool)
    formulas.extend((a, b) for a, b in combinations(clause_pool, 2))
    triples = list(combinations(clause_pool, 3))
    if limit > 0:
        formulas.extend(triples[:: max(1, len(triples) // limit)][:limit])
    return [CnfFormula(3, f) for f in formulas]


def random_digraph(rng: random.Random, max_nodes: int = 8) -> tuple[Digraph, str, str]:
    n = rng.randint(2, max_nodes)
    nodes = tuple(f"n{i}" for i in range(n))
    possible = [(u, v) for u in nodes for v in nodes if u != v]
    edges = tuple(rng.sample(possible, rng.randint(0, min(len(possible), 2 * n))))
    s, t = rng.sample(list(nodes), 2)
    return Digraph(nodes, edges), s, t


def random_hypergraph(
    rng: random.Random,
    max_nodes: int = 7,
    max_edges: int = 10,
    single_source: bool = False,
) -> tuple[Hypergraph, list[str], str]:
    n = rng.randint(3, max_nodes)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        k = 1 if single_source else rng.choice([1, 2])
        src = tuple(rng.sample(list(nodes), k))
        dest = rng.choice([v for v in nodes if v not in src])
        edges.append((src, dest))
    t = rng.choice(nodes)
    n_src = rng.randint(0, max(0, n - 2))
    sources = rng.sample([v for v in nodes], n_src)
    return Hypergraph(nodes, tuple(edges)), sources, t


def random_snsat(rng: random.Random, max_n: int = 3, max_m: int = 4) -> SnsatInstance:
    """A random chain instance inside the reducible class: chain variables
    occur positively only and every clause has a local literal; the joint
    variable budget keeps the image within the truth-table cap."""
    n = rng.randint(1, max_n)
    budget = 9 - (n - 1)  # primed doubling: image vars = 2*(sum m + n-1) + 1
    ms = []
    for i in range(n):
        hi = min(max_m, budget - (n - 1 - i))
        mi = rng.randint(1, max(1, hi))
        budget -= mi
        ms.append(mi)
    clauses = []
    for i in range(1, n + 1):
        mi = ms[i - 1]
        cls = []
        for _ in range(rng.randint(1, 3)):
            width = rng.randint(1, 3)
            clause = [("z", rng.randint(1, mi), rng.choice([1, -1]))]
            for _ in range(width - 1):
                if i > 1 and rng.random() < 0.4:
                    clause.append(("x", rng.randint(1, i - 1), 1))
                else:
                    clause.append(("z", rng.randint(1, mi), rng.choice([1, -1])))
            cls.append(tuple(clause))
        clauses.append(tuple(cls))
    return SnsatInstance(tuple(ms), tuple(clauses))


def random_fragment_formula(rng: random.Random, kind: str, max_vars: int = 10, depth: int = 3) -> Formula:
    """Random formula in one of the implication fragments: "affine"
    ({xor, top}), "conj" ({and, top, bot}), "disj" ({or, top, bot})."""
    names = {"affine": ("xor", "top"), "conj": ("and", "top", "bot"), "disj": ("or", "top", "bot")}[kind]
    pool = [f"v{i}" for i in range(1, max_vars + 1)]
    return random_formula(rng, _conns(names), pool, depth)
