"""Entailment A |= phi for formula sets, with polynomial fragment engines.

The truth-table check is the reference oracle.  The fragment engines read
each formula off its connectives instead, in one walk over the formula
(``normal_form``), with no truth table and no variable cap: over the
affine clone L a formula is c xor (xor of a variable set), so the premises
become GF(2) equations and entailment is Gaussian elimination; over the
conjunctive clone E (or the disjunctive clone V) a formula is bottom, top,
or the conjunction (disjunction) of a variable set, and entailment is
containment bookkeeping.  ``implies`` takes engine "auto", which selects
the cheapest sound engine from the signature (premises that mix
conjunction and disjunction stay on the oracle), or "oracle".  The
fragment engines, called by name, refuse a formula with a connective
outside their clone.

Each fragment has one entailment implementation, an incremental state
(``EntailmentState``): premises are added one at a time, goals are tested
against them, and a watched goal is handed back when an added premise
makes it entailed.  ``conjunctive_implies``, ``disjunctive_implies`` and
``affine_implies`` add their premises to a fresh state and test the goal;
the rule-firing fixpoint of ``engine`` keeps one state per decision.

Entailment is classical: inconsistent premises imply everything.
"""

from __future__ import annotations

from functools import lru_cache
from operator import and_, or_, xor
from typing import Sequence

from .boolfun import BoolFun, signature_map
from .clones import subset_of_clone
from .errors import NestingTooDeep, NotAffine, ShapeMismatch
from .formula import Formula, Var, connectives_of, table_int, variables_of

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
    """Exhaustive oracle: every joint assignment satisfying all premises
    satisfies the goal.  Vacuously true on unsatisfiable premises."""
    order = sorted(variables_of([*premises, goal]))
    rows = 1 << len(order)
    full = (1 << rows) - 1
    prem = full
    for p in premises:
        prem &= table_int(p, order)
        if prem == 0:
            return True
    return prem & table_int(goal, order) == prem


@lru_cache(maxsize=1024)
def _connective_form(f: BoolFun, shape: str) -> tuple[int, tuple[int, ...]]:
    """f as c op (op of its arguments at the returned indices), for f in
    the shape's clone.  c is f at the shape's base point (all ones for
    "and", all zeros otherwise), and an argument counts exactly when
    flipping it there changes f."""
    clone, _, mismatch = _SHAPES[shape]
    if not subset_of_clone([f], clone):
        raise mismatch(f"connective {f.name!r} is outside the clone {clone}")
    base = f.n_points - 1 if shape == "and" else 0
    c = f.value_at(base)
    return c, tuple(j for j in range(f.arity) if f.value_at(base ^ 1 << j) != c)


def normal_form(phi: Formula, shape: str) -> tuple[int, frozenset[str]]:
    """(c, S) with phi = c op (op of the variables in S), op being the
    shape's connective: "and", "or" or "xor".

    Read off the connectives in one walk, linear in the size of phi: the
    constants combine by op, the variable sets by union ("and", "or") or
    symmetric difference ("xor").  S is empty when c absorbs ("and" with
    0, "or" with 1), so S holds exactly the essential variables of phi.
    A connective outside the shape's clone raises ShapeMismatch ("and",
    "or") or NotAffine ("xor").
    """
    _, op, _ = _SHAPES[shape]
    identity = int(shape == "and")
    support: set[str] = set()

    def walk(node: Formula) -> int:
        if isinstance(node, Var):
            if shape == "xor" and node.name in support:
                support.remove(node.name)  # x xor x = 0
            else:
                support.add(node.name)
            return identity
        c, essential = _connective_form(node.conn, shape)
        for j in essential:
            c = op(c, walk(node.args[j]))
        return c

    c = walk(phi)
    if shape != "xor" and c != identity:
        return c, frozenset()
    return c, frozenset(support)


def linear_row(phi: Formula, index: dict[str, int]) -> tuple[int, int]:
    """Encode a linear formula as the GF(2) equation (mask, rhs):
    xor of the masked variables equals rhs.  Asserting phi means asserting
    phi = 1, i.e. xor(S) = 1 xor c for phi = c xor xor(S)."""
    c, support = normal_form(phi, "xor")
    mask = 0
    for name in sorted(support):  # new names numbered by name, not hash order
        mask |= 1 << index[name]
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

    add(phi) asserts phi and returns the keys of the watched goals that
    phi made entailed.  entails(phi) tests phi now.  watch(key, phi) tests
    phi now and, when it does not hold yet, keeps it waiting under key
    until an add entails it; each waiting key is returned at most once.
    tests counts the tests made by watch and by the wakes of waiting
    goals.  Each formula is normalized once per state.  A formula with a
    connective outside the fragment's clone is refused (ShapeMismatch,
    NotAffine), and inconsistent premises entail everything.
    """

    def __init__(self):
        self.inconsistent = False
        self.tests = 0
        self._waiting: dict = {}  # key -> the goal, in the state's own form
        self._norms: dict = {}

    def _norm(self, phi: Formula):
        n = self._norms.get(phi)
        if n is None:
            n = self._norms[phi] = self._normalize(phi)
        return n

    def entails(self, phi: Formula) -> bool:
        n = self._norm(phi)
        return self.inconsistent or self._holds(n)

    def watch(self, key, phi: Formula) -> bool:
        self.tests += 1
        n = self._norm(phi)
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
    """E fragment: the premises force the union of their variable sets.
    A waiting goal keeps the count of its variables not yet forced and
    wakes when it reaches 0, so a fixpoint over this state is Horn forward
    chaining in linear time (Dowling & Gallier, J. Logic Programming 1984).
    """

    def __init__(self):
        super().__init__()
        self.forced: set[str] = set()
        self._watchers: dict[str, list] = {}  # variable -> waiting keys

    def _normalize(self, phi: Formula):
        return normalize_flat(phi, "and")

    def _holds(self, n) -> bool:
        return n == "top" or (n != "bot" and n <= self.forced)

    def _wait(self, key, n) -> None:
        # a bottom goal waits on no variable: only an inconsistency wakes it
        missing = () if n == "bot" else n - self.forced
        self._waiting[key] = len(missing)
        for v in missing:
            self._watchers.setdefault(v, []).append(key)

    def add(self, phi: Formula) -> list:
        n = self._norm(phi)
        if self.inconsistent or n == "top":
            return []
        if n == "bot":
            return self._refute()
        woken = []
        for v in n - self.forced:
            self.forced.add(v)
            for key in self._watchers.pop(v, ()):
                self._waiting[key] -= 1
                if not self._waiting[key]:
                    del self._waiting[key]
                    self.tests += 1
                    woken.append(key)
        return woken


class DisjunctiveState(EntailmentState):
    """V fragment: a disjunction follows when some premise's variable set
    lies inside its own.  Premises are indexed by their least variable,
    which a goal must hold for the premise to lie inside it; waiting goals
    are indexed by each of their variables, and a new premise re-tests only
    the goals under its variable with the fewest of them."""

    def __init__(self):
        super().__init__()
        self._premises: dict[str, list[frozenset]] = {}  # least variable -> premises
        self._watchers: dict[str, list] = {}  # variable -> waiting keys

    def _normalize(self, phi: Formula):
        return normalize_flat(phi, "or")

    def _holds(self, n) -> bool:
        if isinstance(n, str):
            return n == "top"
        return any(p <= n for v in n for p in self._premises.get(v, ()))

    def _wait(self, key, n) -> None:
        self._waiting[key] = n
        for v in () if n == "bot" else n:
            self._watchers.setdefault(v, []).append(key)

    def add(self, phi: Formula) -> list:
        n = self._norm(phi)
        if self.inconsistent or n == "top":
            return []
        if n == "bot":
            return self._refute()
        self._premises.setdefault(min(n), []).append(n)
        # ties go to the least name, not to the set's hash order
        v = min(n, key=lambda u: (len(self._watchers.get(u, ())), u))
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


class _Index(dict):
    """Variable name -> bit position, numbering each name on first sight."""

    def __missing__(self, name: str) -> int:
        self[name] = position = len(self)
        return position


class AffineState(EntailmentState):
    """L fragment: each premise is a GF(2) equation (variable mask,
    right-hand bit), asserted true.

    The pivot rows are kept in echelon form: a row's pivot is its lowest
    bit when it is added, so it holds no lower bit, and it is never
    rewritten afterwards.  A waiting goal keeps its row reduced against
    the pivots and indexed by its bits; a new pivot re-reduces only the
    goals that hold its bit.
    """

    def __init__(self):
        super().__init__()
        self._index = _Index()
        self._pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> its row
        self._pivot_bits = 0
        self._watchers: dict[int, set] = {}  # bit -> waiting keys whose row holds it

    def _normalize(self, phi: Formula):
        return linear_row(phi, self._index)

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

    def add(self, phi: Formula) -> list:
        row = self._norm(phi)
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
        state.add(p)
    return state.entails(goal)


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
    """Cheapest sound engine for the signature: conjunctive, affine, or
    disjunctive fragments when the clone analysis licenses them, otherwise
    the truth-table oracle.  Monotone signatures with both conjunction and
    disjunction deliberately stay on the oracle.  E comes before L since
    the signatures in both are those of I, where the conjunctive state is
    linear-time Horn chaining and the affine one GF(2) elimination."""
    if subset_of_clone(signature, "E"):
        return "conjunctive"
    if subset_of_clone(signature, "L"):
        return "affine"
    if subset_of_clone(signature, "V"):
        return "disjunctive"
    return "oracle"


def implies(
    premises: Sequence[Formula],
    goal: Formula,
    signature=None,
    engine: str = "auto",
) -> bool:
    """Decide whether the premises entail the goal.

    With engine="auto" the signature, joined with the connectives of the
    premises and the goal, picks the engine (``select_engine``), so a
    fragment engine never meets a connective outside its clone;
    engine="oracle" runs the truth-table check.  A formula nested too deep
    for the recursive walks raises NestingTooDeep.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown implication engine {engine!r}")
    if engine == "auto":
        sig = set(signature_map(signature or ()).values()) | connectives_of([*premises, goal])
        engine = select_engine(sig)
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
