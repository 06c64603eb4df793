"""Seeded input generators of the benchmark, written without postdl.gen.

Every generator takes a ``random.Random`` and returns plain values (the
formula encoding of ``oracles``), so the same seed always gives the same
inputs.  The sizes are constants here and are listed in the README.
"""

from __future__ import annotations

import random

from oracles import BUILTIN_TABLES, Models, chain_values, cnf_sat, variables

# search: 3SAT images (signature {not}, dispatched to affine_guess), which
# take most of the time; and many small {and, or, not} theories (SigmaP2,
# dispatched to generic), 94% of the decisions, so that both
# percentiles fall well inside that class and average over 100 theories
CNF_VARS, CNF_CLAUSES, CNF_SAT, CNF_UNSAT = 3, 9, 4, 4
AON_VARS, AON_RULES, AON_DEPTH, AON_THEORIES = 5, 6, 2, 100
# fixpoint: reversed chains, one instance per size, every other one broken.
# Each kind is a ladder of sizes, and the ladders are cut so that about 60%
# of the operations take under 80 ms and the dearest 15% over 130 ms: the
# median and the 90th percentile then fall on fixed-size chains, never on
# the snsat images, whose cost moves with the drawn clauses.
CONJ_NODES = (21, 24, 27, 30, 33, 42, 45)
XOR_NODES = (15, 18, 21, 24, 33, 36)
DISJ_NODES = (8, 8, 9, 9, 10, 10)
TWO_SOURCE_EVERY = 4
# fixpoint: snsat chains of three formulas with two local variables each,
# which the reduction turns into 17 variables; one chain per pattern of
# chain values (c1, c2, c3), which fixes which rules fire
SNSAT_M, SNSAT_CLAUSES = (2, 2, 2), 4
SNSAT_PATTERNS = ((1, 1, 1), (1, 0, 1), (1, 1, 0), (0, 1, 0))
# every workload: one entailment query per implication engine, chosen by
# the connectives (affine, conjunctive, disjunctive, truth-table oracle)
IMP_CONNECTIVES = {"affine": ("xor3",), "conjunctive": ("and",), "disjunctive": ("or",),
                   "oracle": ("and", "or", "not")}
IMP_VARS, IMP_PREMISES, IMP_DEPTH = 8, 5, 3


def cnf(rng: random.Random, n_vars: int, n_clauses: int) -> tuple:
    """Clauses of three distinct variables with random signs."""
    return tuple(
        tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, n_vars + 1), 3))
        for _ in range(n_clauses)
    )


def balanced_cnfs(rng: random.Random, n_sat: int, n_unsat: int, n_vars: int, n_clauses: int) -> list:
    """n_sat satisfiable then n_unsat unsatisfiable formulas, by rejection
    against the brute-force SAT oracle."""
    out: dict[bool, list] = {True: [], False: []}
    want = {True: n_sat, False: n_unsat}
    while len(out[True]) < n_sat or len(out[False]) < n_unsat:
        f = cnf(rng, n_vars, n_clauses)
        sat = cnf_sat(n_vars, f)
        if len(out[sat]) < want[sat]:
            out[sat].append(f)
    return out[True] + out[False]


def aon_formula(rng: random.Random, names: list, depth: int):
    if depth == 0 or rng.random() < 0.25:
        v = rng.choice(names)
        return ("not", v) if rng.random() < 0.4 else v
    conn = rng.choice(("and", "or", "not"))
    if conn == "not":
        return ("not", aon_formula(rng, names, depth - 1))
    return (conn, aon_formula(rng, names, depth - 1), aon_formula(rng, names, depth - 1))


def _connectives(f) -> set:
    return set() if isinstance(f, str) else {f[0]}.union(*map(_connectives, f[1:]))


def aon_theory(rng: random.Random) -> tuple:
    """(W, D, goal) over {and, or, not}: satisfiable facts, all three
    connectives used, so the signature sits in the SigmaP2 case."""
    names = [f"v{i}" for i in range(AON_VARS)]
    while True:
        W = [aon_formula(rng, names, AON_DEPTH)]
        D = [tuple(aon_formula(rng, names, AON_DEPTH) for _ in range(3)) for _ in range(AON_RULES)]
        goal = aon_formula(rng, names, AON_DEPTH)
        used = set().union(*(_connectives(f) for f in W + [x for d in D for x in d]))
        models = Models(set().union(*map(variables, W)), BUILTIN_TABLES)
        if used == {"and", "or", "not"} and models.closure(W) != 0:
            return W, D, goal


def reversed_chain(rng: random.Random, n: int, broken: bool, two_source_every: int = 0) -> tuple:
    """A path n0 -> n1 -> ... listed last edge first, so each fixpoint pass
    fires one more rule.  Every two_source_every-th edge also needs the
    source node.  A broken chain has its last edge turned around, which
    leaves the target unreachable at the same size.  Node names are drawn
    from the seed.  Returns (nodes, edges, source, target)."""
    nodes = [f"n{k}" for k in rng.sample(range(10 * n), n)]
    edges = []
    for i in range(n - 1):
        src = (nodes[i],)
        if two_source_every and i % two_source_every == two_source_every - 1:
            src = (nodes[i], nodes[0])
        edges.append((src, nodes[i + 1]))
    if broken:
        edges[-1] = ((nodes[-1],), nodes[-2])
    edges.reverse()
    return nodes, edges, nodes[0], nodes[-1]


def snsat_chain(rng: random.Random) -> tuple:
    """(m, clauses) of a chain the snsat reduction accepts: positive chain
    literals only, and a local variable in every clause."""
    clauses = []
    for i, mi in enumerate(SNSAT_M, start=1):
        cls = []
        for _ in range(SNSAT_CLAUSES):
            lits = {("z", rng.randint(1, mi), rng.choice((1, -1))) for _ in range(2)}
            if i > 1 and rng.random() < 0.6:
                lits.add(("x", rng.randint(1, i - 1), 1))
            cls.append(tuple(sorted(lits)))
        clauses.append(tuple(cls))
    return SNSAT_M, tuple(clauses)


def patterned_snsat(rng: random.Random) -> list:
    """One chain per entry of SNSAT_PATTERNS, by rejection against the
    chain evaluation."""
    out = []
    for pattern in SNSAT_PATTERNS:
        while True:
            m, clauses = snsat_chain(rng)
            if chain_values(m, clauses) == pattern:
                out.append((m, clauses))
                break
    return out


def imp_query(rng: random.Random, conns: tuple) -> tuple:
    """(premises, goal) over conns; the goal is a premise every other
    query, so both answers occur."""
    names = [f"u{i}" for i in range(IMP_VARS)]

    def formula(depth: int):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(names)
        conn = rng.choice(conns)
        return (conn, *(formula(depth - 1) for _ in range(BUILTIN_TABLES[conn][0])))

    premises = [formula(IMP_DEPTH) for _ in range(IMP_PREMISES)]
    return premises, rng.choice(premises) if rng.random() < 0.5 else formula(IMP_DEPTH)
