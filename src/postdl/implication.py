"""Entailment A |= phi for formula sets, with polynomial fragment engines.

The truth-table check is the reference oracle.  The fragment engines read
each formula off its connectives instead, in one walk over the formula
(``normal_form``), with no truth table and no variable cap: over the
affine clone L a formula is c xor (xor of a variable set), so the premises
become GF(2) equations and entailment is Gaussian elimination; over the
conjunctive clone E (or the disjunctive clone V) a formula is bottom, top,
or the conjunction (disjunction) of a variable set, and entailment is
containment bookkeeping.  Engine "auto" selects the cheapest sound engine
from the signature; premises that mix conjunction and disjunction stay on
the oracle.  An explicit fragment engine refuses a formula with a
connective outside its clone.

Entailment is classical: inconsistent premises imply everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import and_, or_, xor
from typing import Iterable, Sequence

from .boolfun import BoolFun, signature_map
from .clones import subset_of_clone
from .errors import NotAffine, ShapeMismatch
from .formula import Formula, Var, connectives, table_int, variables

_ENGINES = ("auto", "oracle", "affine", "conjunctive", "disjunctive")

# shape: the fragment clone, the shape's operation on constants, and the
# error for a connective outside the clone
_SHAPES = {
    "and": ("E", and_, ShapeMismatch),
    "or": ("V", or_, ShapeMismatch),
    "xor": ("L", xor, NotAffine),
}


def joint_variables(premises: Iterable[Formula], goal: Formula | None = None) -> list[str]:
    vs: set[str] = set()
    for p in premises:
        vs |= variables(p)
    if goal is not None:
        vs |= variables(goal)
    return sorted(vs)


def truth_table_implies(premises: Sequence[Formula], goal: Formula) -> bool:
    """Exhaustive oracle: every joint assignment satisfying all premises
    satisfies the goal.  Vacuously true on unsatisfiable premises."""
    order = joint_variables(premises, goal)
    rows = 1 << len(order)
    full = (1 << rows) - 1
    prem = full
    for p in premises:
        prem &= table_int(p, order)
        if prem == 0:
            return True
    return prem & ~table_int(goal, order) & full == 0


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
    for name in support:
        mask |= 1 << index[name]
    return mask, c ^ 1


@dataclass
class AffineSystem:
    """GF(2) equations (variable mask, right-hand bit) over an ordered
    variable universe, kept in row-reduced form; each row came from one
    linear premise asserted true."""

    order: list[str]
    pivots: list[tuple[int, int]]
    inconsistent: bool

    @staticmethod
    def from_formulas(premises: Sequence[Formula], order: Sequence[str]) -> "AffineSystem":
        index = {name: j for j, name in enumerate(order)}
        system = AffineSystem(list(order), [], False)
        for p in premises:
            system.add_row(*linear_row(p, index))
        return system

    def _reduce(self, mask: int, rhs: int) -> tuple[int, int]:
        for pmask, prhs in self.pivots:
            if mask & pmask & -pmask:  # pivot bit set in mask
                mask ^= pmask
                rhs ^= prhs
        return mask, rhs

    def add_row(self, mask: int, rhs: int) -> None:
        mask, rhs = self._reduce(mask, rhs)
        if mask:
            self.pivots.append((mask, rhs))
            self.pivots.sort(key=lambda r: r[0] & -r[0])
        elif rhs:
            self.inconsistent = True

    def entails(self, mask: int, rhs: int) -> bool:
        if self.inconsistent:
            return True
        mask, rhs = self._reduce(mask, rhs)
        return mask == 0 and rhs == 0


def affine_implies(premises: Sequence[Formula], goal: Formula) -> bool:
    """Entailment between linear formulas by GF(2) elimination: true iff
    the premise system is inconsistent or the goal's equation lies in the
    row span (constants tracked as an augmented column)."""
    order = joint_variables(premises, goal)
    system = AffineSystem.from_formulas(premises, order)
    index = {name: j for j, name in enumerate(order)}
    return system.entails(*linear_row(goal, index))


def normalize_flat(phi: Formula, shape: str):
    """Normalize an E-formula (shape="and") or V-formula (shape="or") to
    "top", "bot", or the frozenset of its essential variables."""
    c, support = normal_form(phi, shape)
    if support:
        return support
    return "top" if c else "bot"


def conjunctive_implies(premises: Sequence[Formula], goal: Formula) -> bool:
    """Entailment for conjunction-shaped formulas: the premises jointly
    force the union of their variable sets."""
    norms = [normalize_flat(p, "and") for p in premises]
    if "bot" in norms:
        return True
    g = normalize_flat(goal, "and")
    if g == "top":
        return True
    if g == "bot":
        return False
    forced: set[str] = set()
    for n in norms:
        if n != "top":
            forced |= n
    return g <= forced


def disjunctive_implies(premises: Sequence[Formula], goal: Formula) -> bool:
    """Entailment for disjunction-shaped formulas: some premise's variable
    set must be contained in the goal's."""
    norms = [normalize_flat(p, "or") for p in premises]
    if "bot" in norms:
        return True
    g = normalize_flat(goal, "or")
    if g == "top":
        return True
    if g == "bot":
        return False
    return any(n != "top" and n <= g for n in norms)


def select_engine(signature) -> str:
    """Cheapest sound engine for the signature: affine, conjunctive, or
    disjunctive fragments when the clone analysis licenses them, otherwise
    the truth-table oracle.  Monotone signatures with both conjunction and
    disjunction deliberately stay on the oracle."""
    if subset_of_clone(signature, "L"):
        return "affine"
    if subset_of_clone(signature, "E"):
        return "conjunctive"
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

    With engine="auto" the signature (derived from the formulas when not
    given) picks the fragment engine; explicit engines skip the analysis
    and refuse a connective outside their clone (ShapeMismatch, NotAffine).
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown implication engine {engine!r}")
    if engine == "auto":
        if signature is None:
            sig: set[BoolFun] = set()
            for f in list(premises) + [goal]:
                sig |= connectives(f)
            signature = sig
        engine = select_engine(signature_map(signature))
    if engine == "oracle":
        return truth_table_implies(premises, goal)
    if engine == "affine":
        return affine_implies(premises, goal)
    if engine == "conjunctive":
        return conjunctive_implies(premises, goal)
    return disjunctive_implies(premises, goal)
