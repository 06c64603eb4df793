"""Decision engines for extension existence, credulous and skeptical
reasoning over a default theory.

The generic engine enumerates candidate extensions and doubles as the
brute-force oracle: by the generating-defaults characterization, every
stable extension is axiomatized by the facts plus a subset of the distinct
rule consequents, so enumeration runs over consequent subsets (ascending
popcount, then index), not over raw rule subsets, and skips a subset that
chooses a consequent the facts entail alone or with one other chosen
consequent, since a smaller subset has the same models.  Each rule's
prerequisite, justification and consequent is tabled on its first read, at
most once per decision, so a decision pays only for the tables it reads; a
candidate tests each justification once, runs the prerequisite fixpoint
over the live rules only, and is rejected as soon as a fired consequent
cuts into its models.  The goal bounds cred and skep
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
both engines.  A justification's liveness is its all-ones value
(``_ones``), which tables nothing.  The least fixpoint reads no goal, so
the theory value keeps it (``DefaultTheory.closure``, a ``Closure``): a
fixpoint decision reads it, its witness included, and makes at most one
goal test; a goal is normalized, numbered or tabled per decision and
never kept.  An enumeration tables the facts once per decision, and no
engine writes into a theory value: it keeps only its own cached facts.

The signature alone picks the engine (``clones.route``): a
fixpoint engine exactly when it lies within the monotone clone M or the
1-reproducing clone R1, an enumerating one otherwise; the same route
names the entailment state the fixpoint runs on.  ``decide`` runs
that pick (engine "auto") or the generic enumerator (engine "generic"),
which is sound for every signature; no other engine can be asked for.

Justification tests ("not beta" must stay out of the extension) are always
evaluated semantically: against a consistent candidate they reduce to
joint satisfiability with beta, which the truth-table context decides even
when negation is not in the signature.

Every truth table a decision reads comes from one ``TableContext``, the
engines' tabling kernel: it keeps no table, and the enumeration's rule
tables (``_RuleTables``), each built on its first read, are the decision's
one table store.  It applies each connective in the cheaper of two
bitwise forms, compiled once per truth table into one straight-line
function (``_kernel``) and kept in a
``boolfun.table_store`` (``_KERNELS``), a plain dict read with the table
string; a form larger than KERNEL_CUTOFF runs as a loop over its terms
instead.  The fixpoint's all-ones evaluations (``_ones``) run the same
kernel on a one-row table; ``implication.truth_table_implies`` runs it too.
``formula.table_int`` and ``BoolFun.value`` stay the references that the
tests compare them against; no engine calls them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .boolfun import BoolFun, table_store
from .clones import route, subset_of_clone
from .errors import (
    DefaultCountTooLarge,
    InputError,
    NestingTooDeep,
    RuleCountTooLarge,
    TooManyVariables,
    UnboundVariable,
)
from .formula import VAR_CAP, Formula, Var, _var_pattern, connectives, variables_of
from .implication import fragment_state
from .properties import table_views
from .theory import DefaultTheory

PROBLEMS = ("ext", "cred", "skep")
GENERIC_CONSEQUENT_CAP = 20
POLY_RULE_CAP = 10_000

# the settable engines: the signature's own pick, or the reference oracle
ENGINES = ("auto", "generic")


class Stats:
    """The enumeration's working counter; ``Decision.stats`` builds one per read.

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
    before its check.  A fixpoint decision counts the tests of its
    theory's closure, whether it made them or read them off the kept
    closure (``DefaultTheory.closure``), plus the goal test; the closure
    makes one test per prerequisite test: over a fragment state, a rule's
    prerequisite is tested when the rule registers and each time an
    asserted formula wakes it; in table mode, ``_fire`` tests each waiting
    prerequisite once per pass, as in the enumeration.  Satisfiability
    checks of the facts or of a candidate on its own and the fixpoint
    engine's all-ones evaluations, all-ones row reads and reads of a fired
    consequent's normal form (does it conclude 0?) are not counted.  A
    trivial_yes decision (every theory over a 1-reproducing signature has
    an extension) runs the fixpoint only to name the witness, so it counts
    the fixpoint's tests only when a witness is asked: ``postdl ext t.dt``
    reads implication_calls=0, and the same query with ``--witness`` reads
    the tests of the ext fixpoint.
    """

    __slots__ = ("subsets_checked", "implication_calls")

    def __init__(self, subsets_checked: int = 0, implication_calls: int = 0):
        self.subsets_checked = subsets_checked
        self.implication_calls = implication_calls

    __hash__ = None  # mutable

    def __eq__(self, other):
        if other.__class__ is not Stats:
            return NotImplemented
        return self.to_json() == other.to_json()

    def __repr__(self):
        return "Stats(" + ", ".join(f"{k}={v!r}" for k, v in self.to_json().items()) + ")"

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class ExtensionWitness(NamedTuple):
    """Generating defaults of a stable extension, as indices into D."""

    generating: tuple[int, ...]
    inconsistent: bool = False


_INCONSISTENT = ExtensionWitness((), inconsistent=True)  # the witness of every fixpoint over inconsistent facts


class Decision(NamedTuple):
    """One decision: problem, answer, engine, case, the witness when asked (a
    fixpoint's is its closure's own shared, immutable object) and the counters
    ``Stats`` documents, as plain fields; ``stats`` is a view built per read."""

    problem: str
    answer: bool
    engine: str
    case: str
    witness: ExtensionWitness | None
    subsets_checked: int
    implication_calls: int

    @property
    def stats(self) -> Stats:
        return Stats(self.subsets_checked, self.implication_calls)

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


# n -> the n variable patterns of width n, each 2^n bits: at most
# VAR_CAP + 1 entries, about 4.75 MiB (sum of n * 2^n bits) when every
# width from 1 to 20 has been used
_PATTERNS: dict[int, tuple[int, ...]] = {}


class TableContext:
    """The one tabling kernel of a decision or an oracle implication query:
    truth tables over a fixed variable order.

    The order is given sorted (a decision's theory keeps its own, and a
    goal's variables outside it are merged in) or scanned off the formulas,
    and the variables' patterns are read from the store of their width
    (``_PATTERNS``), built once per width; order[0] is the least
    significant position, and a table is an int whose bit i is the value at
    joint assignment i.  The context keeps no table: ``table`` is the walk,
    run afresh on each call, so a caller that reads a table again keeps it
    itself (an enumeration's rule tables, ``_Tables``).  A walk returns a
    variable's pattern and applies a connective through its compiled
    kernel (``_kernel``, the cheaper ``_bitwise_form`` written out once,
    found by the connective's table string in ``_KERNELS``), which walks
    the arguments and reads ``full`` at each call, so it does bitwise work
    only.
    """

    def __init__(self, formulas: Iterable[Formula] = (), order: Sequence[str] | None = None):
        self.order = order = sorted(variables_of(formulas)) if order is None else order
        n = len(order)
        if n > VAR_CAP:
            raise TooManyVariables(f"instance has {n} variables, cap is {VAR_CAP}")
        self.rows = 1 << n
        self.full = (1 << self.rows) - 1
        try:
            patterns = _PATTERNS[n]
        except KeyError:
            patterns = _PATTERNS[n] = tuple(_var_pattern(j, n) for j in range(n))
        self._patterns = dict(zip(order, patterns))

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
        try:
            kernel = _KERNELS[node.conn.table]
        except KeyError:
            kernel = _fill_kernel(node.conn)
        return kernel(self._walk, node.args, self.full)

    table = _walk


# a form costing more (len(negs) + total term length) runs as a loop: one
# expression of a random 16-ary form's 32,707 terms overflows the
# compiler's recursion
KERNEL_CUTOFF = 128


def _kernel(f: BoolFun):
    """f's ``_bitwise_form`` as one function kernel(walk, args, full): it
    walks each argument in order, takes each needed complement once (full ^
    the argument) and returns the XOR of the AND-terms.  A form within
    KERNEL_CUTOFF is compiled into one straight-line expression, whose source
    is built from argument indices only; a larger one runs the terms in a
    loop.  Each argument is walked by a direct call, so a nesting level
    costs two Python frames (the walk and the kernel) either way."""
    negs, terms = _bitwise_form(f)
    k = f.arity
    if len(negs) + sum(map(len, terms)) > KERNEL_CUTOFF:

        def kernel(walk, args, full):
            vals = []
            for a in args:
                vals.append(walk(a))
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

        return kernel
    lits = [f"a{j}" for j in range(k)] + ["full"] + [f"n{j}" for j in negs]
    body = [f"a{j} = walk(args[{j}])" for j in range(k)] + [f"n{j} = full ^ a{j}" for j in negs]
    value = " ^ ".join(" & ".join(lits[i] for i in term) for term in terms) or "0"
    source = "def kernel(walk, args, full):\n" + "".join(f"    {s}\n" for s in body + [f"return {value}"])
    scope: dict = {}
    exec(compile(source, f"<kernel of arity {k}>", "exec"), scope)
    return scope["kernel"]


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


# table -> compiled kernel, a ``table_store``: a kernel depends on the
# table alone, so a renamed copy of a connective shares its entry
_KERNELS, _fill_kernel = table_store(_kernel)


def _ones(phi: Formula) -> int:
    """Value of phi under the all-ones assignment; for monotone formulas
    this decides equivalence to the constant 0.  It is the one-row table
    of phi: the kernel with full = 1 and every variable 1."""
    if phi.__class__ is Var:
        return 1
    try:
        kernel = _KERNELS[phi.conn.table]
    except KeyError:
        kernel = _fill_kernel(phi.conn)
    return kernel(_ones, phi.args, 1)


def is_consistent_W(theory: DefaultTheory) -> bool:
    """Satisfiability of the facts.  1-reproducing signatures shortcut to
    True (the all-ones assignment is always a model)."""
    if subset_of_clone(theory.signature, "R1"):
        return True
    return TableContext(theory.W).and_of(theory.W) != 0


def _decision_context(theory: DefaultTheory, goal: Formula | None) -> TableContext:
    """A decision's table context: over the theory's own variable order,
    widened (and sorted again) by the goal's variables outside it, if any."""
    order = theory.variable_order
    extra = variables_of([goal] if goal is not None else []).difference(order)
    return TableContext(order=sorted(extra.union(order)) if extra else order)


# ---------------------------------------------------------------------------
# stable-extension checking and enumeration


class _Tables(dict):
    """formulas[i]'s truth table under key i, tabled through ``table`` on
    the first read: a read of a tabled key is a plain dict subscript."""

    def __init__(self, formulas: Sequence[Formula], table):
        super().__init__()
        self._formulas, self._table = formulas, table

    def __missing__(self, i: int) -> int:
        bits = self[i] = self._table(self._formulas[i])
        return bits


class _RuleTables(NamedTuple):
    """The truth tables one enumeration reads: the facts' models, tabled
    with the context, and each rule's prerequisite and justification and
    the distinct consequents in first-occurrence order, each tabled on its
    first read (``_Tables``), so a decision pays only for the tables it
    reads and tables each at most once; they are the decision's only table
    store.  conseq_of has one entry per rule: rule i's consequent is
    conseqs[conseq_of[i]], and k counts the distinct consequents; both are
    the theory's ``consequent_index``."""

    w_models: int
    pre: _Tables
    just: _Tables
    conseqs: _Tables
    conseq_of: tuple[int, ...]
    k: int


def _enumeration_context(
    theory: DefaultTheory, goal: Formula | None, cap: int | None = GENERIC_CONSEQUENT_CAP
) -> tuple[_RuleTables, TableContext]:
    """The rule tables and the instance's table context
    (``_decision_context``).  The distinct consequents are counted first
    (the theory keeps their index), so a count over the cap raises before
    the context is built; ``check_stable`` (one candidate) passes no cap.
    The facts are tabled once per decision, in this context."""
    conseqs, conseq_of = theory.consequent_index
    if cap is not None and len(conseqs) > cap:
        raise DefaultCountTooLarge(f"{len(conseqs)} distinct consequents exceed the enumeration cap of {cap}")
    ctx = _decision_context(theory, goal)
    return _RuleTables(
        ctx.and_of(theory.W),
        _Tables([d.prerequisite for d in theory.D], ctx.table),
        _Tables([d.justification for d in theory.D], ctx.table),
        _Tables(conseqs, ctx.table),
        conseq_of,
        len(conseqs),
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
    pre, conseqs, conseq_of = t.pre, t.conseqs, t.conseq_of
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
            j = conseq_of[i]
            gens &= conseqs[j]
            if not chosen >> j & 1:
                stats.implication_calls += 1
                if ehat & conseqs[j] != ehat:
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
    just, n = t.just, len(t.conseq_of)
    stats.implication_calls += n
    fired = _fire(t, [i for i in range(n) if ehat & just[i]], stats, ehat, chosen)
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
        j = t.conseq_of[i]
        ehat &= t.conseqs[j]
        chosen |= 1 << j
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
    w, conseqs, k = t.w_models, t.conseqs, t.k
    by_facts, by_one = 0, [0] * k
    for ones in range(k + 1):
        if ones == 1:
            stats.implication_calls += k
            by_facts = sum(1 << j for j in range(k) if w & conseqs[j] == w)
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
) -> tuple[bool, ExtensionWitness | None, Stats]:
    """Guess and check over consequent subsets (generic and affine_guess):
    the first stable extension answers ext, and the first one that entails
    (cred) or fails (skep) the goal is the witness; the work is counted in a
    fresh ``Stats``.

    Two bounds on every extension E decide some goals before any subset is
    checked: W is in E, and over consistent facts E is in the closure of W
    under every rule with the justifications ignored (E_out at the root).
    So skep is yes when W entails the goal, as inconsistent W does every
    goal, and cred is no when that closure fails to entail it: the bound
    fails the goal test that ``_stable_extensions`` puts to each
    candidate, and so does every extension."""
    t, ctx = _enumeration_context(theory, goal)
    g, stats = None if goal is None else ctx.table(goal), Stats()
    entails = problem == "cred"
    if g is not None and (t.w_models or not entails):
        bound = _fire(t, list(range(len(t.conseq_of))), stats)[0] if entails else t.w_models
        stats.implication_calls += 1
        if (bound & g == bound) != entails:
            return problem == "skep", None, stats
    for _, models, applied in _stable_extensions(t, stats, g, entails):
        # only an inconsistent W makes an unsatisfiable candidate stable
        return problem != "skep", ExtensionWitness(applied, inconsistent=models == 0), stats
    # skep is vacuously true when no extension exists
    return problem == "skep", None, stats


class Closure(NamedTuple):
    """A theory's goal-free least fixpoint (``DefaultTheory.closure``): the
    witness it names (None when a fired consequent concludes 0, as there is
    no extension, ``_INCONSISTENT`` when some fact is 0 at all-ones, else
    the applied rules in ascending order), the tests it made, and its final
    state: the fragment state, or in table mode the derived model set over
    the theory's variable order."""

    witness: ExtensionWitness | None
    tests: int
    final: object


def _least_fixpoint(theory: DefaultTheory, mode: str | None = None) -> Closure:
    """The least fixpoint of rule firing from the facts, on a fresh state of
    mode (by default the signature's, ``clones.route``): a rule fires when
    its prerequisite is implied and its justification is not equivalent to
    0, an all-ones evaluation (``_ones``) that is exact for monotone
    formulas and never fails under a 1-reproducing signature, so no
    justification is tabled.  Inconsistent facts short-circuit first.

    Where mode names a fragment state of ``implication``, the iteration is
    a worklist over it: the facts are asserted, every live rule watches its
    prerequisite, and a fired rule asserts its consequent, which wakes only
    the rules whose watched prerequisite it makes entailed; a fired
    consequent concludes 0 when its form is the state's ``bottom`` (exact
    in E, V and L1, where the fragment states lie).  Otherwise (mode
    "oracle", table mode) ``_fire`` closes the facts under the live rules
    over the enumeration's rule tables, tabling only the prerequisites it
    tests and the consequents that fire, and the derived models are
    consistent when they hold the all-ones row.  The fixpoint is least, so
    the generating rules do not depend on the firing order."""
    W, D = theory.W, theory.D
    if any(_ones(w) == 0 for w in W):
        return Closure(_INCONSISTENT, 0, None)
    live = [i for i, d in enumerate(D) if _ones(d.justification)]
    mode = route(theory.signature)[3] if mode is None else mode
    if mode == "oracle":
        stats = Stats()
        t, ctx = _enumeration_context(theory, None, cap=None)
        models, applied = _fire(t, live, stats)
        witness = ExtensionWitness(tuple(sorted(applied))) if models >> ctx.rows - 1 & 1 else None
        return Closure(witness, stats.implication_calls, models)
    state = fragment_state(mode)
    form, applied = state.form, []
    for w in W:
        state.add(form(w))
    ready = [i for i in live if state.watch(i, form(D[i].prerequisite))]
    while ready:
        i = ready.pop()
        n = form(D[i].consequent)
        if n == state.bottom:
            return Closure(None, state.tests, state)
        applied.append(i)
        ready += state.add(n)
    return Closure(ExtensionWitness(tuple(sorted(applied))), state.tests, state)


def _fixpoint_engine(
    problem: str,
    theory: DefaultTheory,
    goal: Formula | None,
    mode: str | None = None,
) -> tuple[bool, ExtensionWitness | None, int]:
    """Least fixpoint of rule firing for monotone or 1-reproducing
    signatures (monotone_iterative, r1_unique, poly_fragment and
    reachability): the theory's one candidate extension, its unique stable
    one under a 1-reproducing signature; an applicable rule concluding 0
    refutes extension existence.  The fixpoint reads no goal, so it is the
    theory's kept ``closure``; a given mode runs a fresh one on that state,
    kept nowhere.  A goal is tested once against the final state: read in
    the state's shape (``form(goal, False)``), or in table mode tabled in
    the decision's context (``_decision_context``), where a goal that adds
    a variable tables the facts and the fired consequents again instead of
    firing.  Returns (answer, the closure's witness or None, tests)."""
    if len(theory.D) > POLY_RULE_CAP:
        raise RuleCountTooLarge(f"more than {POLY_RULE_CAP} rules")
    witness, tests, final = theory.closure if mode is None else _least_fixpoint(theory, mode)
    if witness is None:
        return problem == "skep", None, tests
    if witness is _INCONSISTENT:
        return True, None if problem == "skep" else witness, 0
    if problem == "ext":
        return True, witness, tests
    if final.__class__ is int:
        ctx = _decision_context(theory, goal)
        if len(ctx.order) > len(theory.variable_order):
            final = ctx.and_of([*theory.W, *(theory.D[i].consequent for i in witness.generating)])
        holds = final & ctx.table(goal) == final
    else:
        holds = final.entails(final.form(goal, False))
    if problem == "cred":
        return holds, witness if holds else None, tests + 1
    return holds, None if holds else witness, tests + 1


def decide(
    problem: str,
    theory: DefaultTheory,
    goal: Formula | None = None,
    engine: str = "auto",
    want_witness: bool = False,
) -> Decision:
    """Decide one of the three problems.  The declared signature B alone
    picks the case and the engine (``clones.route``), a declared but
    unused connective included, as the paper classifies each problem by
    B; engine="generic" runs the reference oracle instead, which is sound
    for every signature.  ext reads no goal, so a goal given with it is
    dropped before dispatch; the connectives of a cred or skep goal join
    the route's signature (``clones.route``) but not the theory, so every
    engine reads the goal within its clone, and a fixpoint on the theory's
    own entailment state reads its kept closure.  A formula nested too
    deep for the recursive walks raises NestingTooDeep."""
    if problem not in PROBLEMS:
        raise InputError(f"unknown problem {problem!r}")
    if engine not in ENGINES:
        raise InputError(f"unknown engine {engine!r}")
    signature = theory.signature
    if problem == "ext":
        goal = None
    elif goal is None:
        raise InputError(f"{problem} needs a goal formula")
    elif not (used := connectives(goal)) <= signature:
        signature |= used
    _, _, picks, state = route(signature)
    case, label = picks[problem]
    if engine == "generic":
        label = "generic"
    subsets = 0
    try:
        if label in ("generic", "affine_guess"):
            answer, witness, stats = _enumerate_engine(problem, theory, goal)
            subsets, calls = stats.subsets_checked, stats.implication_calls
        elif label != "trivial_yes":
            mode = None if signature is theory.signature or state == route(theory.signature)[3] else state
            answer, witness, calls = _fixpoint_engine(problem, theory, goal, mode)
        else:
            # every theory over a 1-reproducing signature has an extension;
            # the fixpoint (it answers yes) is run only to name its generating defaults
            answer, witness, calls = _fixpoint_engine("ext", theory, None) if want_witness else (True, None, 0)
    except RecursionError:
        raise NestingTooDeep() from None
    # one C-level construction: NamedTuple's own __new__ is a Python function
    return tuple.__new__(Decision, (problem, answer, label, case, witness if want_witness else None, subsets, calls))


def ext(theory: DefaultTheory, engine: str = "auto", want_witness: bool = False) -> Decision:
    return decide("ext", theory, None, engine, want_witness)


def cred(theory: DefaultTheory, goal: Formula, engine: str = "auto", want_witness: bool = False) -> Decision:
    return decide("cred", theory, goal, engine, want_witness)


def skep(theory: DefaultTheory, goal: Formula, engine: str = "auto", want_witness: bool = False) -> Decision:
    return decide("skep", theory, goal, engine, want_witness)
