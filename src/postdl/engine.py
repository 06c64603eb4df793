"""Decision engines for extension existence, credulous and skeptical
reasoning over a default theory.

The generic engine enumerates candidate extensions and doubles as the
brute-force oracle: by the generating-defaults characterization, every
stable extension is axiomatized by the facts plus a subset of the distinct
rule consequents, so enumeration runs over consequent subsets (ascending
popcount, then index), not over raw rule subsets, and skips a subset that
chooses a consequent the facts entail alone or with one other chosen
consequent, since a smaller subset has the same models.  The rules are tabled
once per decision; a candidate tests each justification once, runs the
prerequisite fixpoint over the live rules only, and is rejected as soon as
a fired consequent cuts into its models.  The goal bounds cred and skep
first: every extension contains the facts and, over consistent facts,
lies inside their closure under every rule with the justifications
ignored, so skep is yes when the facts entail the goal and cred is no
when that closure fails to, before any subset; otherwise only candidates
that entail the goal (cred) or fail it (skep) are checked for stability.
Neither bound changes an answer or a witness.  Affine signatures (the
NP case) use the same guess-and-check enumeration: the case fixes the
complexity of the problem, not how a guess is checked.  Every other
engine is one rule-firing least fixpoint, for monotone, 1-reproducing and
projection-like signatures; over the last, every formula is a constant or
one variable and the fixpoint is graph reachability.  Where the signature
has a fragment state of ``implication``, the fixpoint is a worklist over
it, so a rule is re-tested only when an asserted formula changes what its
prerequisite waits on; otherwise it is the enumeration's own rule closure
(``_fire``) over the rule tables, so one closure over truth tables serves
both engines.

The signature alone picks the engine (``clones.dispatch_case``): a
fixpoint engine exactly when it lies within the monotone clone M or the
1-reproducing clone R1, an enumerating one otherwise.  ``decide`` runs
that pick (engine "auto") or the generic enumerator (engine "generic"),
which is sound for every signature; no other engine can be asked for.

Justification tests ("not beta" must stay out of the extension) are always
evaluated semantically: against a consistent candidate they reduce to
joint satisfiability with beta, which the truth-table context decides even
when negation is not in the signature.

Every truth table a decision reads comes from one ``TableContext``, the
engines' tabling kernel: it tables each distinct formula once per decision
(structurally equal formulas share the entry) and applies each connective
in the cheaper of two bitwise forms.  ``formula.table_int`` stays the
reference that the tests compare it against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .boolfun import BoolFun
from .clones import dispatch_case, subset_of_clone
from .errors import (
    DefaultCountTooLarge,
    InputError,
    NestingTooDeep,
    RuleCountTooLarge,
    TooManyVariables,
    UnboundVariable,
)
from .formula import VAR_CAP, Formula, Var, _var_pattern, connectives, variables_of
from .implication import fragment_state, select_engine
from .properties import table_views
from .theory import DefaultTheory

PROBLEMS = ("ext", "cred", "skep")
GENERIC_CONSEQUENT_CAP = 20
POLY_RULE_CAP = 10_000

# the settable engines: the signature's own pick, or the reference oracle
ENGINES = ("auto", "generic")


class Stats:
    """Work counters of one decision.

    subsets_checked: consequent subsets visited, in enumeration order up to
    the one that answers; 0 when the goal settles cred or skep at the root.
    A subset that repeats an earlier subset's model set by choosing a
    consequent the facts entail, alone or with one other chosen
    consequent, is counted but skipped, and a skipped subset makes no test.
    implication_calls: entailment and consistency tests actually made, one
    count per test.  The enumerating engines test each rule's justification
    once per checked candidate extension; only the live rules, those whose
    justification is consistent with the candidate, have their prerequisite
    tested against the formulas derived so far.  A fired consequent outside
    the candidate's chosen consequents is tested for covering the
    candidate, and a failed cover test rejects the candidate at once (early
    rejection); a check that runs to completion ends with the closing test
    that the derived formulas have the candidate's models.  The skip tables
    cost one test per consequent before the first singleton (do the facts
    entail it?) and one per ordered pair of the consequents left before
    the first pair (do the facts and one entail the other?).  cred first
    runs the justification-free closure of consistent facts under every
    rule, one test per prerequisite test, and tests the goal against it;
    skep tests the goal against the facts, once.  In cred and skep,
    every candidate that the repeat skips leave makes one goal test
    before its check.  The fixpoint engine counts one test per
    prerequisite test, plus the goal test: over a fragment state, a rule's
    prerequisite is tested when the rule registers and each time an
    asserted formula wakes it; in table mode, ``_fire`` tests each waiting
    prerequisite once per pass, as in the enumeration.  Satisfiability
    checks of the facts or of a candidate on its own and the fixpoint
    engine's all-ones evaluations and all-ones row reads are not counted.
    """

    __slots__ = ("subsets_checked", "implication_calls")

    def __init__(self, subsets_checked: int = 0, implication_calls: int = 0):
        self.subsets_checked = subsets_checked
        self.implication_calls = implication_calls

    __hash__ = None  # mutable

    def __eq__(self, other):
        if other.__class__ is not Stats:
            return NotImplemented
        return (self.subsets_checked, self.implication_calls) == (
            other.subsets_checked,
            other.implication_calls,
        )

    def __repr__(self):
        return (
            f"Stats(subsets_checked={self.subsets_checked!r}, "
            f"implication_calls={self.implication_calls!r})"
        )

    def to_json(self) -> dict:
        return {
            "subsets_checked": self.subsets_checked,
            "implication_calls": self.implication_calls,
        }


class ExtensionWitness(NamedTuple):
    """Generating defaults of a stable extension, as indices into D."""

    generating: tuple[int, ...]
    inconsistent: bool = False


class Decision(NamedTuple):
    problem: str
    answer: bool
    engine: str
    case: str
    witness: ExtensionWitness | None
    stats: Stats

    def to_json(self) -> dict:
        return {
            "problem": self.problem,
            "answer": self.answer,
            "engine": self.engine,
            "case": self.case,
            "witness": list(self.witness.generating) if self.witness else None,
            "witness_inconsistent": self.witness.inconsistent if self.witness else None,
            "stats": self.stats.to_json(),
        }


class TableContext:
    """The one tabling kernel of a decision: truth tables over a fixed
    variable order, shared by every formula of the decision instance.

    The order is the sorted variables of the formulas the context is built
    over, collected in one scan, and their patterns are built with the
    context; order[0] is the least significant position, and a table is an
    int whose bit i is the value at joint assignment i.  Each requested
    formula is tabled once: the memo is keyed by the formula itself, and
    formulas hash and compare structurally, so an equal formula built
    elsewhere reads the same entry.  Only requested formulas are kept, not
    their subformulas, since each table holds 2^n bits.  A walk applies each
    connective in its cheaper bitwise form (``_bitwise_form``), so it does
    bitwise work only; ``formula.table_int`` stays the reference.
    """

    def __init__(self, formulas: Iterable[Formula]):
        self.order = order = sorted(variables_of(formulas))
        n = len(order)
        if n > VAR_CAP:
            raise TooManyVariables(f"instance has {n} variables, cap is {VAR_CAP}")
        self.rows = 1 << n
        self.full = (1 << self.rows) - 1
        self._patterns = {name: _var_pattern(j, n) for j, name in enumerate(order)}
        self._memo: dict[Formula, int] = {}

    def table(self, phi: Formula) -> int:
        bits = self._memo.get(phi)
        if bits is None:
            bits = self._memo[phi] = self._walk(phi)
        return bits

    def and_of(self, formulas: Iterable[Formula]) -> int:
        bits = self.full
        for f in formulas:
            bits &= self.table(f)
        return bits

    def _walk(self, node: Formula) -> int:
        if node.__class__ is Var:
            try:
                return self._patterns[node.name]
            except KeyError:
                raise UnboundVariable(f"variable {node.name!r} not in the context's order") from None
        negs, terms = _bitwise_form(node.conn)
        vals = [self._walk(a) for a in node.args]
        full = self.full
        vals.append(full)
        for j in negs:
            vals.append(full ^ vals[j])
        out = None
        for term in terms:
            t = vals[term[0]]
            for j in term[1:]:
                t &= vals[j]
            out = t if out is None else out ^ t
        return 0 if out is None else out


@lru_cache(maxsize=1024)
def _bitwise_form(f: BoolFun) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """f as an XOR of AND-terms over its k arguments, in the cheaper of two
    forms by bitwise operations, counted from the bits of f (a tie goes to
    the first): the algebraic normal form (Zhegalkin), a term per monomial,
    or the satisfying rows, a term per row that ANDs the arguments and
    complements selecting it (disjoint rows, so XOR is OR).  Returns (negs,
    terms); in a term, literal j < k is argument j, k the all-ones table and
    k + 1 + i the complement of argument negs[i].  A form costs len(negs) +
    the total length of its terms - 1; only the chosen one is written out.
    Both forms are read off ``properties.table_views``: the arguments'
    patterns pick the complemented ones, bit m of the ANF is monomial m."""
    k, rows = f.arity, f.bits
    pats, anf = table_views(f)
    negs = [j for j, p in enumerate(pats) if rows & ~p]
    # x's term joins parts[j][x >> j & 1], j < k: a monomial's variables or a row's k literals
    if sum((anf & p).bit_count() for p in pats) + (anf & 1) <= len(negs) + rows.bit_count() * max(k, 1):
        negs, parts, xs = [], [((), (j,)) for j in range(k)], anf
    else:
        lit = {j: (k + 1 + i,) for i, j in enumerate(negs)}
        parts, xs = [(lit.get(j, ()), (j,)) for j in range(k)], rows
    # the terms of every low and every high half of x, built by doubling
    h, low, high = k >> 1, [()], [()]
    for j, (zero, one) in enumerate(parts):
        ts = low if j < h else high
        ts[:] = [t + zero for t in ts] + [t + one for t in ts]
    ones = (x for x, c in enumerate(reversed(format(xs, "b"))) if c == "1")
    return tuple(negs), tuple(low[x & (1 << h) - 1] + high[x >> h] or (k,) for x in ones)


def _ones(phi: Formula) -> int:
    """Value of phi under the all-ones assignment; for monotone formulas
    this decides equivalence to the constant 0."""
    if isinstance(phi, Var):
        return 1
    return phi.conn.value(tuple(_ones(a) for a in phi.args))


def is_consistent_W(theory: DefaultTheory) -> bool:
    """Satisfiability of the facts.  1-reproducing signatures shortcut to
    True (the all-ones assignment is always a model)."""
    if subset_of_clone(theory.signature, "R1"):
        return True
    return TableContext(theory.W).and_of(theory.W) != 0


# ---------------------------------------------------------------------------
# stable-extension checking and enumeration


class _RuleTables(NamedTuple):
    """The truth tables one enumeration reads, built once per decision: the
    facts' models, each rule's prerequisite, justification and consequent,
    the distinct consequents in first-occurrence order, and the index of
    each rule's consequent among them."""

    w_models: int
    pre: list[int]
    just: list[int]
    con: list[int]
    conseqs: list[int]
    conseq_of: list[int]


def _enumeration_context(
    theory: DefaultTheory, goal: Formula | None, cap: int | None = GENERIC_CONSEQUENT_CAP
) -> tuple[_RuleTables, TableContext]:
    """The rule tables and the instance's table context.  The distinct
    consequents are indexed first, so a count over the cap raises before any
    truth table is built; ``check_stable`` (one candidate) passes no cap."""
    index: dict[Formula, int] = {}
    conseq_of = [index.setdefault(d.consequent, len(index)) for d in theory.D]
    if cap is not None and len(index) > cap:
        raise DefaultCountTooLarge(f"{len(index)} distinct consequents exceed the enumeration cap of {cap}")
    ctx = TableContext(theory.all_formulas() + ([goal] if goal is not None else []))
    return _RuleTables(
        ctx.and_of(theory.W),
        [ctx.table(d.prerequisite) for d in theory.D],
        [ctx.table(d.justification) for d in theory.D],
        [ctx.table(d.consequent) for d in theory.D],
        [ctx.table(c) for c in index],
        conseq_of,
    ), ctx


def _fire(
    t: _RuleTables, waiting: list[int], stats: Stats, ehat: int = 0, chosen: int = -1
) -> tuple[int, list[int]] | None:
    """The extension iteration over the waiting rules: from the facts'
    models, fire every rule whose prerequisite the derived formulas entail,
    until none is left to fire.  Returns the derived model set and the
    fired rules, or None as soon as a fired consequent outside the chosen
    ones (chosen masks the distinct consequents; -1 chooses them all) does
    not cover ehat."""
    pre, con, conseq_of = t.pre, t.con, t.conseq_of
    gens = t.w_models
    applied: list[int] = []
    while waiting:
        rest = []
        for i in waiting:
            stats.implication_calls += 1
            if gens & pre[i] != gens:
                rest.append(i)
                continue
            applied.append(i)
            gens &= con[i]
            if not chosen >> conseq_of[i] & 1:
                stats.implication_calls += 1
                if ehat & con[i] != ehat:
                    return None
        if len(rest) == len(waiting):
            break
        waiting = rest
    return gens, applied


def _stable(
    t: _RuleTables, ehat: int, chosen: int, stats: Stats
) -> tuple[bool, tuple[int, ...]]:
    """Is the candidate with model set ehat a stable extension, and which
    rules generate it?  chosen masks the distinct consequents that, with
    the facts, axiomatize ehat, so ehat entails them without a test.

    The live rules are those whose justification is consistent with ehat;
    the extension iteration (``_fire``) starts from the facts' models and
    fires every live rule whose prerequisite the derived formulas entail.
    The derived model set only shrinks and must end equal to ehat, so the
    candidate is rejected as soon as a fired consequent does not cover
    ehat; a stable candidate never meets that test and runs to the closing
    comparison."""
    if ehat == 0:
        return t.w_models == 0, ()
    stats.implication_calls += len(t.just)
    fired = _fire(t, [i for i, j in enumerate(t.just) if ehat & j], stats, ehat, chosen)
    if fired is None:
        return False, ()
    stats.implication_calls += 1
    return fired[0] == ehat, tuple(sorted(fired[1]))


def check_stable(theory: DefaultTheory, generating: Iterable[int]) -> bool:
    """Does the rule subset G generate a stable extension, i.e. is
    Th(W + concl(G)) a fixed point of the extension iteration?

    An unsatisfiable candidate is stable exactly when W itself is
    inconsistent (then the only extension is the set of all formulas).
    """
    idx = sorted(set(generating))
    if any(i < 0 or i >= len(theory.D) for i in idx):
        raise InputError("generating-default index out of range")
    t, _ = _enumeration_context(theory, None, cap=None)
    ehat, chosen = t.w_models, 0
    for i in idx:
        ehat &= t.con[i]
        chosen |= 1 << t.conseq_of[i]
    return _stable(t, ehat, chosen, Stats())[0]


class ExtensionInfo(NamedTuple):
    """One stable extension found by enumeration: the consequent-subset
    mask, the canonical generating defaults, and the model set of its
    finite axiomatization (over the context's variable order)."""

    conseq_mask: int
    generating: tuple[int, ...]
    models: int


def _masks(k: int, ones: int) -> Iterator[int]:
    """The k-bit masks with the given popcount by ascending value (Gosper's
    hack steps to the next larger mask of the same popcount)."""
    if ones == 0:
        yield 0
        return
    mask = (1 << ones) - 1
    while mask < 1 << k:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple


def _stable_extensions(
    t: _RuleTables, stats: Stats, goal: int | None = None, entails: bool = True
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Stable extensions in enumeration order, lazily: for each consequent
    subset that axiomatizes one (with the facts) and is checked, its mask,
    the model set of the facts plus the chosen consequents, and the
    generating rules.

    The subsets run by ascending popcount, then value, and each is counted,
    but one that chooses a consequent the facts entail alone (by_facts, k
    tests before the first singleton) or together with another chosen
    consequent (by_one, tested before the first pair among the consequents
    by_facts leaves) is skipped: dropping that consequent leaves the model
    set as it is and gives a subset that comes earlier.  So the first
    subset of each model set is always checked, and since stability and the
    generating rules depend on the model set alone, the first extension
    that answers a query and its witness do not change.  A candidate
    without models over satisfiable facts is not stable and is skipped as
    well.  Repeats that need two or more other consequents are checked
    again; no model set is remembered.

    Given the goal's table, only candidates whose model set entails the
    goal (entails=True, for cred) or fails it (entails=False, for skep) go
    on to the stability check; the goal test comes after the repeat skips
    and costs one test per candidate, so the visit order, and with it the
    first answering subset, stay the same."""
    w, conseqs = t.w_models, t.conseqs
    k = len(conseqs)
    by_facts, by_one = 0, [0] * k
    for ones in range(k + 1):
        if ones == 1:
            stats.implication_calls += k
            by_facts = sum(1 << j for j, c in enumerate(conseqs) if w & c == w)
        elif ones == 2:
            free = [j for j in range(k) if not by_facts >> j & 1]
            stats.implication_calls += len(free) * (len(free) - 1)
            for i in free:
                e = w & conseqs[i]
                by_one[i] = sum(1 << j for j in free if j != i and e & conseqs[j] == e)
        for mask in _masks(k, ones):
            stats.subsets_checked += 1
            if mask & by_facts:
                continue
            ehat, rest = w, mask
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                if by_one[j] & mask:
                    break
                ehat &= conseqs[j]
                rest ^= low
            if rest or (ehat == 0 and w):
                continue
            if goal is not None:
                stats.implication_calls += 1
                if (ehat & goal == ehat) != entails:
                    continue
            stable, applied = _stable(t, ehat, mask, stats)
            if stable:
                yield mask, ehat, applied


def enumerate_extensions(theory: DefaultTheory, goal: Formula | None = None) -> tuple[list[ExtensionInfo], TableContext]:
    """All stable extensions by consequent-subset enumeration (oracle side),
    each listed once, at the first consequent subset that axiomatizes it:
    the kernel skips most later subsets with the same model set, and the
    few it checks again are dropped here.  The list holds every extension
    anyway, so keying it by the model set costs no extra memory.  The goal
    only joins the table context; it prunes no candidate."""
    t, ctx = _enumeration_context(theory, goal)
    found: dict[int, ExtensionInfo] = {}
    for mask, models, applied in _stable_extensions(t, Stats()):
        found.setdefault(models, ExtensionInfo(mask, applied, models))
    return list(found.values()), ctx


# ---------------------------------------------------------------------------
# engines


def _enumerate_engine(
    problem: str,
    theory: DefaultTheory,
    goal: Formula | None,
    stats: Stats,
) -> tuple[bool, ExtensionWitness | None]:
    """Guess and check over consequent subsets (generic and affine_guess):
    the first stable extension answers ext, and the first one that entails
    (cred) or fails (skep) the goal is the witness.

    Two bounds on every extension E decide some goals before any subset is
    checked: W is in E, and over consistent facts E is in the closure of W
    under every rule with the justifications ignored (E_out at the root).
    So skep is yes when W entails the goal, as inconsistent W does every
    goal, and cred is no when that closure fails to entail it: the bound
    fails the goal test that ``_stable_extensions`` puts to each
    candidate, and so does every extension."""
    t, ctx = _enumeration_context(theory, goal)
    g = None if goal is None else ctx.table(goal)
    entails = problem == "cred"
    if g is not None and (t.w_models or not entails):
        bound = _fire(t, list(range(len(t.pre))), stats)[0] if entails else t.w_models
        stats.implication_calls += 1
        if (bound & g == bound) != entails:
            return problem == "skep", None
    for _, models, applied in _stable_extensions(t, stats, g, entails):
        # only an inconsistent W makes an unsatisfiable candidate stable
        return problem != "skep", ExtensionWitness(applied, inconsistent=models == 0)
    # skep is vacuously true when no extension exists
    return problem == "skep", None


def _fixpoint_engine(
    problem: str,
    theory: DefaultTheory,
    goal: Formula | None,
    stats: Stats,
) -> tuple[bool, ExtensionWitness | None]:
    """Least fixpoint of rule firing for monotone or 1-reproducing
    signatures (monotone_iterative, r1_unique, poly_fragment and
    reachability): a rule fires when its prerequisite is implied and its
    justification is not equivalent to 0; an applicable rule concluding 0
    refutes extension existence.  The not-equivalent-to-0 tests are
    all-ones evaluations, exact for monotone formulas.  Under a
    1-reproducing signature every formula is 1 at all-ones, so these tests
    never fire and the iteration is justification-free; it yields the
    unique stable extension.  Inconsistent facts short-circuit, before any
    table is built: the theory then has the trivial extension.

    Where the signature has a fragment state of ``implication``, the
    iteration is a worklist over it: the facts are asserted, every rule
    with a live justification watches its prerequisite, and a fired rule
    asserts its consequent, which wakes only the rules whose watched
    prerequisite it makes entailed; each formula is normalized once.
    Otherwise (table mode) the rules are tabled as for the enumeration and
    ``_fire`` takes the closure of the facts under the live rules; a
    justification's liveness and the consistency of the derived models are
    read at the all-ones row of their tables.  The fixpoint is least, so
    the answer and the generating rules do not depend on the firing order.
    """
    if len(theory.D) > POLY_RULE_CAP:
        raise RuleCountTooLarge(f"more than {POLY_RULE_CAP} rules")
    if any(_ones(w) == 0 for w in theory.W):
        return True, None if problem == "skep" else ExtensionWitness((), inconsistent=True)
    mode = select_engine(theory.signature)
    if mode == "oracle":
        t, ctx = _enumeration_context(theory, goal, cap=None)
        top = ctx.rows - 1
        models, applied = _fire(t, [i for i, j in enumerate(t.just) if j >> top & 1], stats)
        if not models >> top & 1:
            return problem == "skep", None
        entails = lambda phi: models & ctx.table(phi) == models
    else:
        state = fragment_state(mode)
        for w in theory.W:
            state.add(w)
        ready = [
            i for i, d in enumerate(theory.D)
            if _ones(d.justification) and state.watch(i, d.prerequisite)
        ]
        applied = set()
        while ready:
            i = ready.pop()
            if _ones(theory.D[i].consequent) == 0:
                stats.implication_calls += state.tests
                return problem == "skep", None
            applied.add(i)
            ready += state.add(theory.D[i].consequent)
        stats.implication_calls += state.tests
        entails = state.entails
    witness = ExtensionWitness(tuple(sorted(applied)))
    if problem == "ext":
        return True, witness
    stats.implication_calls += 1
    holds = entails(goal)
    if problem == "cred":
        return holds, witness if holds else None
    return holds, None if holds else witness


def _run_engine(
    label: str,
    problem: str,
    theory: DefaultTheory,
    goal: Formula | None,
    stats: Stats,
    want_witness: bool,
) -> tuple[bool, ExtensionWitness | None]:
    if label in ("generic", "affine_guess"):
        return _enumerate_engine(problem, theory, goal, stats)
    if label in ("monotone_iterative", "r1_unique", "poly_fragment", "reachability"):
        return _fixpoint_engine(problem, theory, goal, stats)
    if label == "trivial_yes":
        # every theory over a 1-reproducing signature has an extension; the
        # fixpoint is run only to name its generating defaults
        return True, _fixpoint_engine("ext", theory, None, stats)[1] if want_witness else None
    raise ValueError(f"unknown engine label {label!r}")


def decide(
    problem: str,
    theory: DefaultTheory,
    goal: Formula | None = None,
    engine: str = "auto",
    want_witness: bool = False,
) -> Decision:
    """Decide one of the three problems.  The signature alone picks the
    case and the engine (``dispatch_case``); engine="generic" runs the
    reference oracle instead, which is sound for every signature.  ext
    reads no goal, so a goal given with it is dropped before dispatch; the
    connectives of a cred or skep goal join the signature before the case
    and the engine are picked, so every engine reads the goal within its
    clone.  A formula nested too deep for the recursive walks raises
    NestingTooDeep."""
    if problem not in PROBLEMS:
        raise InputError(f"unknown problem {problem!r}")
    if engine not in ENGINES:
        raise InputError(f"unknown engine {engine!r}")
    if problem == "ext":
        goal = None
    elif goal is None:
        raise InputError(f"{problem} needs a goal formula")
    used = connectives(goal) if goal is not None else set()
    if not used <= theory.signature:
        theory = DefaultTheory(theory.W, theory.D, theory.signature | used)
    report = dispatch_case(theory.signature)
    case = {"ext": report.ext_case, "cred": report.cred_case, "skep": report.skep_case}[problem]
    label = report.engines[problem] if engine == "auto" else "generic"
    stats = Stats()
    try:
        answer, witness = _run_engine(label, problem, theory, goal, stats, want_witness)
    except RecursionError:
        raise NestingTooDeep() from None
    if not want_witness:
        witness = None
    return Decision(problem, answer, label, case, witness, stats)


def ext(theory: DefaultTheory, engine: str = "auto", want_witness: bool = False) -> Decision:
    return decide("ext", theory, None, engine, want_witness)


def cred(theory: DefaultTheory, goal: Formula, engine: str = "auto", want_witness: bool = False) -> Decision:
    return decide("cred", theory, goal, engine, want_witness)


def skep(theory: DefaultTheory, goal: Formula, engine: str = "auto", want_witness: bool = False) -> Decision:
    return decide("skep", theory, goal, engine, want_witness)
