"""Entailment A |= phi for formula sets, with polynomial fragment engines.

The truth-table check is the reference oracle.  The fragment engines read
each formula off its connectives instead, in one walk over the formula
(``normal_form``), with no truth table and no variable cap: over the
affine clone L a formula is c xor (xor of a variable set), so the premises
become GF(2) equations and entailment is Gaussian elimination; over the
conjunctive clone E (or the disjunctive clone V) a formula is bottom, top,
or the conjunction (disjunction) of a variable set, and entailment is
containment bookkeeping.  The walk is one module-level recursion over the
applications, with no per-call closure: a variable is read in place, and
each connective's constant and essential arguments are derived once per
truth table and shape, kept in the shape's ``boolfun.table_store``, and
read by subscripting its plain dict with the table string.
``implies`` takes engine "auto", which selects the cheapest sound engine
from the formulas' own connectives (premises that mix conjunction and
disjunction stay on the oracle), or "oracle".  The fragment engines,
called by name, refuse a formula with a connective outside their clone.
The oracle tables on the decisions' kernel, one ``engine.TableContext``.

Each fragment has one entailment implementation, an incremental state
(``EntailmentState``): premises are added one at a time, goals are tested
against them, and a watched goal is handed back when an added premise
makes it entailed.  A state reads each formula as its form in the
state's shape (``form``: the normal form, or the GF(2) row for L), and
every other operation takes that form.  ``conjunctive_implies``,
``disjunctive_implies`` and ``affine_implies`` add their premises' forms
to a fresh state and test the goal's.  The rule-firing fixpoint of
``engine`` runs once per theory on a fresh state, reads off a fired
consequent's form whether it is equivalent to 0, and leaves its final
state on the theory (``DefaultTheory.closure``), where each later goal
is one ``entails`` test; the goal's form is read per decision and never
kept.

Entailment is classical: inconsistent premises imply everything.
"""

from __future__ import annotations

from operator import and_, or_, xor
from typing import Sequence

from .boolfun import BoolFun, table_store
from .clones import _classified, route
from .errors import NestingTooDeep, NotAffine, ShapeMismatch
from .formula import Formula, Var, connectives_of

# the settable engines: the signature's own pick, or the reference oracle
ENGINES = ("auto", "oracle")

# shape: the fragment clone, the shape's operation on constants, and the
# error for a connective outside the clone
_SHAPES = {
    "and": ("E", and_, ShapeMismatch),
    "or": ("V", or_, ShapeMismatch),
    "xor": ("L", xor, NotAffine),
}


def truth_table_implies(premises: Sequence[Formula], goal: Formula) -> bool:
    """Exhaustive oracle in one ``engine.TableContext``: every model of the
    premises satisfies the goal (vacuously, and untabled, when they have none)."""
    from .engine import TableContext  # engine imports this module

    context = TableContext([*premises, goal])
    prem = context.full
    for p in premises:
        prem &= context.table(p)
        if prem == 0:
            return True
    return prem & context.table(goal) == prem


def _connective_form(f: BoolFun, shape: str) -> tuple[int, tuple[int, ...]]:
    """f as c op (op of its essential arguments), for f in the shape's
    clone.  c is f at the shape's base point (all ones for "and", all
    zeros otherwise); clone membership and the essential arguments are
    read from the connective's classification."""
    clone, _, mismatch = _SHAPES[shape]
    props, family = _classified(f)
    if clone not in family:
        raise mismatch(f"connective {f.name!r} is outside the clone {clone}")
    return f.value_at(f.n_points - 1 if shape == "and" else 0), tuple(sorted(props.depends_on))


# shape -> (store, fill) of its connectives' forms, a ``table_store`` per
# shape: a connective outside the clone never gets an entry, so it is
# refused on every call
_FORMS = {shape: table_store(lambda f, shape=shape: _connective_form(f, shape)) for shape in _SHAPES}


def _walk(node: Formula, forms: dict, fill, op, support: set[str]) -> int:
    """The constant of the application node's normal form, combined by op
    from its connective's constant and its essential arguments' constants.
    A variable argument is op's identity and leaves the constant as it is:
    its name joins support, or for "xor" is toggled in it (x xor x = 0).
    One frame per application level; a variable costs no call."""
    conn = node.conn
    try:
        c, essential = forms[conn.table]
    except KeyError:
        c, essential = fill(conn)
    args = node.args
    for j in essential:
        arg = args[j]
        if arg.__class__ is Var:
            name = arg.name
            if op is xor and name in support:
                support.remove(name)
            else:
                support.add(name)
        else:
            c = op(c, _walk(arg, forms, fill, op, support))
    return c


def normal_form(phi: Formula, shape: str) -> tuple[int, frozenset[str]]:
    """(c, S) with phi = c op (op of the variables in S), op being the
    shape's connective: "and", "or" or "xor".

    A variable is read at once: (1, {x}) for "and", (0, {x}) otherwise.
    Any other formula is read off its connectives in one walk (``_walk``),
    linear in the size of phi: each connective's constant and essential
    arguments come from the shape's store (_FORMS), the constants
    combine by op, and the variable sets by union ("and", "or") or
    symmetric difference ("xor").  S is empty when c absorbs ("and" with
    0, "or" with 1), so S holds exactly the essential variables of phi.
    A connective outside the shape's clone raises ShapeMismatch ("and",
    "or") or NotAffine ("xor"), on every call.
    """
    identity = int(shape == "and")
    if phi.__class__ is Var:
        return identity, frozenset((phi.name,))
    _, op, _ = _SHAPES[shape]
    forms, fill = _FORMS[shape]
    support: set[str] = set()
    c = _walk(phi, forms, fill, op, support)
    if shape != "xor" and c != identity:
        return c, frozenset()
    return c, frozenset(support)


def linear_row(phi: Formula, index: dict[str, int]) -> tuple[int, int]:
    """Encode a linear formula as the GF(2) equation (mask, rhs):
    xor of the masked variables equals rhs.  Asserting phi means asserting
    phi = 1, i.e. xor(S) = 1 xor c for phi = c xor xor(S)."""
    return _row(*normal_form(phi, "xor"), index)


def _row(c: int, support: frozenset[str], index: dict[str, int]) -> tuple[int, int]:
    """``linear_row`` of the formula whose "xor" normal form is (c, support);
    a name outside index is numbered there on first sight."""
    mask = 0
    for name in sorted(support):  # new names numbered by name, not hash order
        mask |= 1 << index.setdefault(name, len(index))
    return mask, c ^ 1


def normalize_flat(phi: Formula, shape: str):
    """Normalize an E-formula (shape="and") or V-formula (shape="or") to
    "top", "bot", or the frozenset of its essential variables."""
    c, support = normal_form(phi, shape)
    if support:
        return support
    return "top" if c else "bot"


def _toggle(index: dict, key, mask: int) -> None:
    """Flip key's membership in index[bit] for every bit of mask: the
    index follows a row that was xor-ed with mask."""
    while mask:
        bit = mask & -mask
        holders = index.setdefault(bit, set())
        holders ^= {key}
        mask ^= bit


class EntailmentState:
    """Premises asserted one at a time, with entailment tests against them;
    one subclass per fragment, and the rule-firing fixpoint's worklist.
    Every operation takes a formula's form in the state's shape, which
    form(phi) reads off the formula: its ``normal_form`` (c, S) for the E
    and V states, its GF(2) row, built from that form, for the L state.

    add(n) asserts n and returns the keys of the watched goals that n made
    entailed.  entails(n) tests n now.  watch(key, n) tests n now and, when
    it does not hold yet, keeps it waiting under key until an add entails
    it; each waiting key is returned at most once.  A form equal to
    ``bottom`` is equivalent to 0.  tests counts the tests made by watch
    and by the wakes of waiting goals.  The L state numbers a formula's new
    variables in its own index, or in a copy of it for form(phi,
    keep=False), so no goal is numbered there.  form refuses a formula
    with a connective outside the fragment's clone (ShapeMismatch,
    NotAffine), and inconsistent premises entail everything.
    """

    bottom = (0, frozenset())  # the normal form of every formula equivalent to 0

    def __init__(self):
        self.inconsistent = False
        self.tests = 0
        self._waiting: dict = {}  # key -> the goal, in the state's own form

    def form(self, phi: Formula, keep: bool = True):
        return normal_form(phi, self._shape)

    def entails(self, n) -> bool:
        return self.inconsistent or self._holds(n)

    def watch(self, key, n) -> bool:
        self.tests += 1
        if self.inconsistent or self._holds(n):
            return True
        self._wait(key, n)
        return False

    def _refute(self) -> list:
        """The premises became inconsistent, which wakes every waiting goal."""
        self.inconsistent = True
        woken = list(self._waiting)
        self._waiting.clear()
        self.tests += len(woken)
        return woken


class ConjunctiveState(EntailmentState):
    """E fragment: a formula (c, S) is 0 when c is 0, else the conjunction
    of S.  The premises force the union of their variable sets.  A waiting
    goal keeps the count of its variables not yet forced and wakes when it
    reaches 0, so a fixpoint over this state is Horn forward chaining in
    linear time (Dowling & Gallier, J. Logic Programming 1984).
    """

    _shape = "and"

    def __init__(self):
        super().__init__()
        self.forced: set[str] = set()
        self._watchers: dict[str, list] = {}  # variable -> waiting keys

    def _holds(self, n) -> bool:
        c, support = n
        return c == 1 and support <= self.forced

    def _wait(self, key, n) -> None:
        # a bottom goal has no variable to wait on: only an inconsistency wakes it
        missing = n[1] - self.forced
        self._waiting[key] = len(missing)
        for v in missing:
            self._watchers.setdefault(v, []).append(key)

    def add(self, n) -> list:
        c, support = n
        if self.inconsistent:
            return []
        if not c:
            return self._refute()
        woken = []
        for v in support - self.forced:
            self.forced.add(v)
            for key in self._watchers.pop(v, ()):
                self._waiting[key] -= 1
                if not self._waiting[key]:
                    del self._waiting[key]
                    self.tests += 1
                    woken.append(key)
        return woken


class DisjunctiveState(EntailmentState):
    """V fragment: a formula (c, S) is 1 when c is 1, else the disjunction
    of S.  A disjunction follows when some premise's variable set lies
    inside its own.  Premises are indexed by their least variable, which a
    goal must hold for the premise to lie inside it; waiting goals are
    indexed by each of their variables, and a new premise re-tests only
    the goals under its variable with the fewest of them."""

    _shape = "or"

    def __init__(self):
        super().__init__()
        self._premises: dict[str, list[frozenset]] = {}  # least variable -> premises
        self._watchers: dict[str, list] = {}  # variable -> waiting keys

    def _holds(self, n) -> bool:
        c, support = n
        return c == 1 or any(p <= support for v in support for p in self._premises.get(v, ()))

    def _wait(self, key, n) -> None:
        support = self._waiting[key] = n[1]
        for v in support:
            self._watchers.setdefault(v, []).append(key)

    def add(self, form) -> list:
        c, n = form
        if self.inconsistent or c:
            return []
        if not n:
            return self._refute()
        self._premises.setdefault(min(n), []).append(n)
        # ties go to the least name, not to the set's hash order
        watchers, v, fewest = self._watchers, None, 0
        for u in n:
            m = len(watchers.get(u, ()))
            if v is None or m < fewest or m == fewest and u < v:
                v, fewest = u, m
        woken, still = [], []
        for key in self._watchers.pop(v, ()):
            goal = self._waiting.get(key)
            if goal is None:  # woken earlier under another variable
                continue
            self.tests += 1
            if n <= goal:
                del self._waiting[key]
                woken.append(key)
            else:
                still.append(key)
        if still:
            self._watchers[v] = still
        return woken


class AffineState(EntailmentState):
    """L fragment: each premise is a GF(2) equation (variable mask,
    right-hand bit), asserted true.

    The pivot rows are kept in echelon form: a row's pivot is its lowest
    bit when it is added, so it holds no lower bit, and it is never
    rewritten afterwards.  A waiting goal keeps its row reduced against
    the pivots and indexed by its bits; a new pivot re-reduces only the
    goals that hold its bit.  A formula equivalent to 0 is the row 0 = 1.

    index numbers the rows' variables (name -> bit position) on first
    sight; a goal read with keep=False that adds a variable is numbered in
    a copy, so a kept state's numbering never grows with the goals asked.
    """

    bottom = (0, 1)
    _shape = "xor"

    def __init__(self):
        super().__init__()
        self.index: dict[str, int] = {}
        self._pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> its row
        self._pivot_bits = 0
        self._watchers: dict[int, set] = {}  # bit -> waiting keys whose row holds it

    def form(self, phi: Formula, keep: bool = True) -> tuple[int, int]:
        c, support = normal_form(phi, "xor")
        index = self.index
        return _row(c, support, index if keep or support <= index.keys() else dict(index))

    def _reduce(self, mask: int, rhs: int) -> tuple[int, int]:
        """The equation minus pivot rows until no pivot bit is left; it is
        0 = 0 exactly when the rows entail it.  Each step xors in the row
        of the lowest pivot bit still present, which only adds bits above
        the one it clears, so no pivot is used twice."""
        hit = mask & self._pivot_bits
        while hit:
            pmask, prhs = self._pivots[hit & -hit]
            mask ^= pmask
            rhs ^= prhs
            hit = mask & self._pivot_bits
        return mask, rhs

    def _holds(self, row) -> bool:
        return self._reduce(*row) == (0, 0)

    def _wait(self, key, row) -> None:
        # a goal the rows refute reduces to 0 = 1: only an inconsistency wakes it
        mask, rhs = self._reduce(*row)
        self._waiting[key] = (mask, rhs)
        _toggle(self._watchers, key, mask)

    def add(self, row) -> list:
        if self.inconsistent:
            return []
        mask, rhs = self._reduce(*row)
        if not mask:
            return self._refute() if rhs else []
        bit = mask & -mask
        self._pivots[bit] = (mask, rhs)
        self._pivot_bits |= bit
        woken = []
        for key in self._watchers.pop(bit, ()):
            gmask, grhs = self._waiting[key]
            self.tests += 1
            if gmask == mask and grhs == rhs:
                del self._waiting[key]
                woken.append(key)
            else:
                self._waiting[key] = (gmask ^ mask, grhs ^ rhs)
            _toggle(self._watchers, key, mask ^ bit)
        return woken


_STATES = {"affine": AffineState, "conjunctive": ConjunctiveState, "disjunctive": DisjunctiveState}


def fragment_state(engine: str) -> EntailmentState:
    """An empty entailment state of the fragment engine "affine",
    "conjunctive" or "disjunctive"."""
    return _STATES[engine]()


def _state_implies(state: EntailmentState, premises: Sequence[Formula], goal: Formula) -> bool:
    for p in premises:
        state.add(state.form(p))
    return state.entails(state.form(goal))


def affine_implies(premises: Sequence[Formula], goal: Formula) -> bool:
    """Entailment between linear formulas by GF(2) elimination: true iff
    the premise system is inconsistent or the goal's equation lies in the
    row span (constants tracked as an augmented column)."""
    return _state_implies(AffineState(), premises, goal)


def conjunctive_implies(premises: Sequence[Formula], goal: Formula) -> bool:
    """Entailment for conjunction-shaped formulas: the premises jointly
    force the union of their variable sets."""
    return _state_implies(ConjunctiveState(), premises, goal)


def disjunctive_implies(premises: Sequence[Formula], goal: Formula) -> bool:
    """Entailment for disjunction-shaped formulas: some premise's variable
    set must be contained in the goal's."""
    return _state_implies(DisjunctiveState(), premises, goal)


def select_engine(signature) -> str:
    """Cheapest sound engine for the signature (a list, set or name map of
    connectives): conjunctive, affine, or disjunctive fragments when the
    clone analysis licenses them, otherwise the truth-table oracle.  It is
    the entailment state of the signature's route, read from the store
    keyed by its connectives (``clones.route``)."""
    return route(signature)[3]


def implies(premises: Sequence[Formula], goal: Formula, engine: str = "auto") -> bool:
    """Decide whether the premises entail the goal.

    With engine="auto" the connectives of the premises and the goal pick
    the engine (``select_engine``, one read of their stored route), so a
    fragment engine never meets a connective outside its clone, and a
    connective declared but not used moves nothing; engine="oracle" runs
    the truth-table check.  A formula nested too deep for the recursive
    walks raises NestingTooDeep.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown implication engine {engine!r}")
    if engine == "auto":
        engine = select_engine(connectives_of([*premises, goal]))
    try:
        if engine == "oracle":
            return truth_table_implies(premises, goal)
        if engine == "affine":
            return affine_implies(premises, goal)
        if engine == "conjunctive":
            return conjunctive_implies(premises, goal)
        return disjunctive_implies(premises, goal)
    except RecursionError:
        raise NestingTooDeep() from None
