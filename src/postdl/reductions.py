"""Constructive reductions from classical source problems into default
theories, with independent brute-force oracles for each source problem.

Every reduction builds its theory over a base signature plus the constant
top (used as the dummy justification or prerequisite) and then eliminates
top by the fresh-variable substitution, so the output uses exactly the
advertised connectives.  Generated helper variables carry the reserved
"_" prefix and cannot collide with input names.
"""

from __future__ import annotations

from itertools import permutations

from .boolfun import BUILTINS
from .errors import EmptyDisjunction, InputError, MalformedChain, NotThreeCnf, TooManyVariables
from .formula import App, Formula, Var, balanced_composition, connectives_of
from .theory import DefaultRule, DefaultTheory, eliminate_constant_true

_AND = BUILTINS["and"]
_OR = BUILTINS["or"]
_NOT = BUILTINS["not"]
_TOP = BUILTINS["top"]
_BOT = BUILTINS["bot"]
_ID = BUILTINS["id"]
_XOR3 = BUILTINS["xor3"]

_TOP_F = App(_TOP)
_BOT_F = App(_BOT)


class _Record:
    """An immutable instance of a source problem: the fields are the
    subclass's ``__slots__``, set once by ``__init__`` after the subclass has
    validated them.  Equality holds within one class only; pickling and
    copying go through the constructor, so they validate again."""

    __slots__ = ()

    def __init__(self, *values):
        for key, value in zip(self.__slots__, values):
            object.__setattr__(self, key, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self.__slots__)

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, key):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return (type(self), self._values())

    def __repr__(self):
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self.__slots__)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# CNF / 3SAT


class CnfFormula(_Record):
    """Clauses of signed 1-based variable indices."""

    __slots__ = ("n_vars", "clauses")

    def __init__(self, n_vars: int, clauses: tuple[tuple[int, ...], ...]):
        if n_vars < 0:
            raise InputError(f"negative variable count {n_vars}")
        for cl in clauses:
            for lit in cl:
                if lit == 0 or abs(lit) > n_vars:
                    raise InputError(f"literal {lit} out of range for {n_vars} variables")
        super().__init__(n_vars, clauses)

    def is_three_cnf(self) -> bool:
        return all(len(cl) == 3 for cl in self.clauses)


def pad_to_three(cnf: CnfFormula) -> CnfFormula:
    """Pad clauses to exactly three literals by repetition."""
    clauses = []
    for cl in cnf.clauses:
        if not cl:
            raise InputError("cannot pad an empty clause")
        cl = tuple(cl)
        while len(cl) < 3:
            cl = cl + (cl[0],)
        if len(cl) > 3:
            raise NotThreeCnf("clause has more than three literals")
        clauses.append(cl)
    return CnfFormula(cnf.n_vars, tuple(clauses))


def cnf_sat(cnf: CnfFormula) -> bool:
    """Brute-force satisfiability (the oracle side)."""
    if cnf.n_vars > 20:
        raise TooManyVariables(f"{cnf.n_vars} variables exceed the oracle cap")
    for bits in range(1 << cnf.n_vars):
        ok = True
        for cl in cnf.clauses:
            if not any(
                ((bits >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0) for l in cl
            ):
                ok = False
                break
        if ok:
            return True
    return False


def _lit_formula(lit: int) -> Formula:
    v = Var(f"x{abs(lit)}")
    return v if lit > 0 else App(_NOT, (v,))


def _lit_negated(lit: int) -> Formula:
    return _lit_formula(-lit)


def threesat_to_default(cnf: CnfFormula, mode: str = "ext"):
    """Map a 3CNF formula to a negation-fragment default theory.

    mode="ext": the formula is satisfiable iff the theory has a stable
    extension (the guess rules decide every variable, the clause rules
    punish falsified clauses).  mode="skep": additionally returns a fresh
    goal variable that is in all extensions iff the formula is
    unsatisfiable (vacuously, extensions exist only for satisfiable input).
    """
    if mode not in ("ext", "skep"):
        raise InputError(f"unknown mode {mode!r}")
    if not cnf.is_three_cnf():
        raise NotThreeCnf("expected exactly three literals per clause")
    rules: list[DefaultRule] = []
    for i in range(1, cnf.n_vars + 1):
        pos, neg = _lit_formula(i), _lit_formula(-i)
        rules.append(DefaultRule(_TOP_F, pos, pos))
        rules.append(DefaultRule(_TOP_F, neg, neg))
    for cl in cnf.clauses:
        for p in permutations(range(3)):
            rules.append(
                DefaultRule(
                    _lit_negated(cl[p[0]]),
                    _lit_negated(cl[p[1]]),
                    _lit_formula(cl[p[2]]),
                )
            )
    theory = DefaultTheory.make((), rules, {_NOT, _TOP})
    theory = eliminate_constant_true(theory)
    if mode == "skep":
        return theory, Var("_psi")
    return theory, None


# ---------------------------------------------------------------------------
# SNSAT


class SnsatInstance(_Record):
    """A chain of CNF formulas; formula i may mention the chain variables
    x_1..x_{i-1} and its local variables z_{i,1}..z_{i,m_i}.

    Literals are ("x", j, sign) or ("z", j, sign) with sign +1/-1.
    ``m`` gives the local-variable count per formula.
    """

    __slots__ = ("m", "clauses")

    def __init__(
        self,
        m: tuple[int, ...],
        clauses: tuple[tuple[tuple[tuple[str, int, int], ...], ...], ...],
    ):
        if len(m) != len(clauses):
            raise MalformedChain("m and clauses must have one entry per formula")
        if not m:
            raise MalformedChain("an instance needs at least one formula")
        for i, (mi, cls) in enumerate(zip(m, clauses), start=1):
            for cl in cls:
                for kind, j, sign in cl:
                    if sign not in (1, -1):
                        raise MalformedChain(f"bad literal sign {sign}")
                    if kind == "x":
                        if not 1 <= j < i:
                            raise MalformedChain(
                                f"formula {i} references chain variable x{j}"
                            )
                    elif kind == "z":
                        if not 1 <= j <= mi:
                            raise MalformedChain(
                                f"formula {i} references local variable z{j} > m_{i}={mi}"
                            )
                    else:
                        raise MalformedChain(f"bad literal kind {kind!r}")
        super().__init__(m, clauses)

    @property
    def n(self) -> int:
        return len(self.m)


def snsat_eval(inst: SnsatInstance) -> int:
    """The chain value c_n: c_i is 1 iff formula i is satisfiable with the
    chain variables pinned to c_1..c_{i-1} (the oracle side)."""
    c: list[int] = []
    for i in range(1, inst.n + 1):
        mi = inst.m[i - 1]
        if mi > 20:
            raise TooManyVariables(f"formula {i} has {mi} local variables")
        sat = False
        for bits in range(1 << mi):
            ok = True
            for cl in inst.clauses[i - 1]:
                some = False
                for kind, j, sign in cl:
                    val = c[j - 1] if kind == "x" else (bits >> (j - 1)) & 1
                    if (val == 1) == (sign > 0):
                        some = True
                        break
                if not some:
                    ok = False
                    break
            if ok:
                sat = True
                break
        c.append(1 if sat else 0)
    return c[-1]


def _snsat_check_reducible(inst: SnsatInstance) -> None:
    # The pair-variable construction needs every chain occurrence positive
    # and every clause grounded in a local variable; outside this class the
    # textbook construction is unsound (underivable chain tokens leave the
    # chain variable unpinned).
    for i, cls in enumerate(inst.clauses, start=1):
        for cl in cls:
            if not cl:
                raise MalformedChain(f"formula {i} has an empty clause")
            if not any(kind == "z" for kind, _, _ in cl):
                raise MalformedChain(
                    f"formula {i} has a clause without a local variable"
                )
            for kind, j, sign in cl:
                if kind == "x" and sign < 0:
                    raise MalformedChain(
                        f"formula {i} uses a negated chain variable x{j}; "
                        "only positive chain occurrences reduce soundly"
                    )
    if any(mi < 1 for mi in inst.m):
        raise MalformedChain("every formula needs at least one local variable")


def _xname(j: int) -> str:
    return f"x{j}"


def _xprime(j: int) -> str:
    return f"_xp{j}"


def _zname(i: int, j: int) -> str:
    return f"z{i}_{j}"


def _zprime(i: int, j: int) -> str:
    return f"_zp{i}_{j}"


def snsat_to_ext(inst: SnsatInstance) -> DefaultTheory:
    """Map a chain-satisfiability instance to a monotone default theory
    whose extension existence equals the chain value.

    Negated variables are replaced by primed companions with
    one-of-each-pair disjunctions; a rule per stage derives the primed
    chain token when the stage formula is unsatisfiable under the pins,
    and the last stage concludes 0 instead.  Conjunctions and disjunctions
    are built as balanced trees.
    """
    _snsat_check_reducible(inst)
    n = inst.n
    w: list[Formula] = []
    for i in range(1, n + 1):
        mi = inst.m[i - 1]
        conjuncts: list[Formula] = []
        for cl in inst.clauses[i - 1]:
            lits: list[Formula] = []
            for kind, j, sign in cl:
                if kind == "x":
                    lits.append(Var(_xname(j)))
                elif sign > 0:
                    lits.append(Var(_zname(i, j)))
                else:
                    lits.append(Var(_zprime(i, j)))
            conjuncts.append(balanced_composition(_OR, lits))
        for j in range(1, i):
            conjuncts.append(App(_OR, (Var(_xname(j)), Var(_xprime(j)))))
        for j in range(1, mi + 1):
            conjuncts.append(App(_OR, (Var(_zname(i, j)), Var(_zprime(i, j)))))
        w.append(balanced_composition(_AND, conjuncts))
    rules: list[DefaultRule] = []
    for i in range(1, n + 1):
        mi = inst.m[i - 1]
        disjuncts: list[Formula] = [
            App(_AND, (Var(_zname(i, j)), Var(_zprime(i, j)))) for j in range(1, mi + 1)
        ]
        disjuncts += [
            App(_AND, (Var(_xname(j)), Var(_xprime(j)))) for j in range(1, i)
        ]
        prereq = balanced_composition(_OR, disjuncts)
        conseq: Formula = _BOT_F if i == n else Var(_xprime(i))
        rules.append(DefaultRule(prereq, _TOP_F, conseq))
    theory = DefaultTheory.make(w, rules, {_AND, _OR, _BOT, _TOP})
    return eliminate_constant_true(theory)


# ---------------------------------------------------------------------------
# hypergraph and graph reachability


class Hypergraph(_Record):
    """Directed hypergraph: each edge has one or two source nodes and a
    destination node."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: tuple[str, ...], edges: tuple[tuple[tuple[str, ...], str], ...]):
        known = set(nodes)
        for src, dest in edges:
            if not 1 <= len(src) <= 2:
                raise InputError("hyperedges need one or two source nodes")
            if not set(src) <= known or dest not in known:
                raise InputError("hyperedge mentions an unknown node")
        super().__init__(nodes, edges)


class Digraph(_Record):
    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: tuple[str, ...], edges: tuple[tuple[str, str], ...]):
        known = set(nodes)
        for u, v in edges:
            if u not in known or v not in known:
                raise InputError("edge mentions an unknown node")
        super().__init__(nodes, edges)


def hgap_reach(h: Hypergraph, sources, target: str) -> bool:
    """Forward chaining in linear time (the oracle side): each hyperedge
    counts its sources not yet reached and fires when the count drops to
    zero; an index from each node to the hyperedges it feeds visits every
    hyperedge once per source."""
    missing = [len(set(src)) for src, _ in h.edges]
    feeds: dict[str, list[int]] = {}
    for k, (src, _) in enumerate(h.edges):
        for v in set(src):
            feeds.setdefault(v, []).append(k)
    reached = set(sources)
    frontier = list(reached)
    while frontier:
        for k in feeds.get(frontier.pop(), ()):
            missing[k] -= 1
            dest = h.edges[k][1]
            if not missing[k] and dest not in reached:
                reached.add(dest)
                frontier.append(dest)
    return target in reached


def gap_reach(g: Digraph, s: str, t: str) -> bool:
    """Depth-first search over an index of each node's successors."""
    succ: dict[str, list[str]] = {}
    for a, b in g.edges:
        succ.setdefault(a, []).append(b)
    reached = {s}
    frontier = [s]
    while frontier:
        for b in succ.get(frontier.pop(), ()):
            if b not in reached:
                reached.add(b)
                frontier.append(b)
    return t in reached


def _pvar(node: str) -> Formula:
    return Var(f"p_{node}")


def hgap_to_ext(h: Hypergraph, sources, target: str, variant: str = "conjunctive") -> DefaultTheory:
    """Map hypergraph reachability to extension non-existence over the
    conjunction fragment ({and, bot}) or the disjunction fragment
    ({or, bot}): the target is reachable iff the image has no extension."""
    sources = list(dict.fromkeys(sources))
    if not set(sources) <= set(h.nodes) or target not in h.nodes:
        raise InputError("sources and target must be nodes")
    if variant == "conjunctive":
        w = [_pvar(s) for s in sources]
        rules = [
            DefaultRule(
                balanced_composition(_AND, [_pvar(v) for v in src]),
                _TOP_F,
                _pvar(dest),
            )
            for src, dest in h.edges
        ]
        rules.append(DefaultRule(_pvar(target), _TOP_F, _BOT_F))
        theory = DefaultTheory.make(w, rules, {_AND, _BOT, _TOP})
        return eliminate_constant_true(theory)
    if variant != "disjunctive":
        raise InputError(f"unknown variant {variant!r}")
    if any(len(src) != 1 for src, _ in h.edges):
        # Disjunctive premises entail a disjunction only through a single
        # premise, so the complement encoding cannot join sources derived
        # along different branches; with two-source edges the image would
        # miss derivations (it stays sound but incomplete).  Restricting to
        # single-source edges keeps the advertised equivalence exact.
        raise InputError(
            "the disjunctive variant supports single-source hyperedges only"
        )
    nodes = list(h.nodes)
    rest = [v for v in nodes if v not in set(sources)]
    if not rest:
        raise EmptyDisjunction("source set covers all nodes")
    if len(nodes) == 1:
        raise EmptyDisjunction("the graph has no node besides the target")
    w = [balanced_composition(_OR, [_pvar(v) for v in rest])]
    rules = []
    for src, dest in h.edges:
        outside = [v for v in nodes if v not in set(src)]
        remaining = [v for v in nodes if v not in set(src) | {dest}]
        if not remaining:
            raise EmptyDisjunction("a hyperedge covers all nodes")
        rules.append(
            DefaultRule(
                balanced_composition(_OR, [_pvar(v) for v in outside]),
                _TOP_F,
                balanced_composition(_OR, [_pvar(v) for v in remaining]),
            )
        )
    not_t = [v for v in nodes if v != target]
    rules.append(
        DefaultRule(
            balanced_composition(_OR, [_pvar(v) for v in not_t]), _TOP_F, _BOT_F
        )
    )
    theory = DefaultTheory.make(w, rules, {_OR, _BOT, _TOP})
    return eliminate_constant_true(theory)


def gap_to_default(g: Digraph, s: str, t: str, mode: str = "ext"):
    """Map graph reachability into the projection fragment.

    mode="ext": add the poison rule on the target; t reachable iff no
    stable extension.  mode="cred": plain edge rules with goal p_t; t
    reachable iff p_t is in the (unique) extension.
    """
    if s not in g.nodes or t not in g.nodes:
        raise InputError("s and t must be nodes")
    w = [_pvar(s)]
    rules = [DefaultRule(_pvar(u), _pvar(u), _pvar(v)) for u, v in g.edges]
    if mode == "ext":
        rules.append(DefaultRule(_pvar(t), _pvar(t), _BOT_F))
        return DefaultTheory.make(w, rules, {_ID, _BOT}), None
    if mode != "cred":
        raise InputError(f"unknown mode {mode!r}")
    return DefaultTheory.make(w, rules, {_ID}), _pvar(t)


def xor_hgap_to_cred(h: Hypergraph, sources, target: str):
    """Map hypergraph reachability into the ternary-parity fragment: a
    two-source edge gets a carrier variable derivable from either source,
    and the parity prerequisite fires the destination exactly when both
    sources are derived."""
    sources = list(dict.fromkeys(sources))
    if not set(sources) <= set(h.nodes) or target not in h.nodes:
        raise InputError("sources and target must be nodes")
    w = [_pvar(s) for s in sources]
    rules: list[DefaultRule] = []
    for k, (src, dest) in enumerate(h.edges):
        if len(src) == 1:
            rules.append(DefaultRule(_pvar(src[0]), _TOP_F, _pvar(dest)))
        else:
            carrier = Var(f"_e{k}")
            rules.append(DefaultRule(_pvar(src[0]), _TOP_F, carrier))
            rules.append(DefaultRule(_pvar(src[1]), _TOP_F, carrier))
            rules.append(
                DefaultRule(
                    App(_XOR3, (_pvar(src[0]), _pvar(src[1]), carrier)),
                    _TOP_F,
                    _pvar(dest),
                )
            )
    theory = DefaultTheory.make(w, rules, {_XOR3, _TOP})
    return eliminate_constant_true(theory), _pvar(target)


def imp_to_cred(premises, goal: Formula):
    """Entailment as credulous reasoning over the rule-free theory: the
    premises alone axiomatize the unique stable extension."""
    theory = DefaultTheory.make(premises, (), connectives_of([*premises, goal]))
    return theory, goal
