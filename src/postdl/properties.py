"""Truth-table properties of Boolean functions.

These are the predicates that define the property-characterized clones:
c-reproducing, monotone, c-separating, self-dual, linear, plus the shape
tests for conjunction-like and disjunction-like functions and essential
variables.  All flags are computed exactly from the table.
"""

from __future__ import annotations

from typing import NamedTuple

from .boolfun import BoolFun
from .errors import ArityUnsupported

PROPERTY_ARITY_CAP = 20


class FunSignature(NamedTuple):
    """Exact property flags of one Boolean function."""

    reproducing0: bool
    reproducing1: bool
    monotone: bool
    self_dual: bool
    linear: bool
    separating0: bool
    separating1: bool
    depends_on: frozenset[int]  # essential variable indices, zero-based
    is_projection: bool
    is_constant: bool
    is_and_shape: bool  # equivalent to a constant or a conjunction of variables
    is_or_shape: bool   # equivalent to a constant or a disjunction of variables

    def to_json(self) -> dict:
        d = {
            k: getattr(self, k)
            for k in (
                "reproducing0",
                "reproducing1",
                "monotone",
                "self_dual",
                "linear",
                "separating0",
                "separating1",
                "is_projection",
                "is_constant",
                "is_and_shape",
                "is_or_shape",
            )
        }
        d["depends_on"] = sorted(self.depends_on)
        return d


def _essential_vars(f: BoolFun) -> frozenset[int]:
    ess = set()
    rows = f.n_points
    for j in range(f.arity):
        bit = 1 << j
        if any(f.value_at(i) != f.value_at(i ^ bit) for i in range(rows) if not i & bit):
            ess.add(j)
    return frozenset(ess)


def _monotone(f: BoolFun) -> bool:
    rows = f.n_points
    for j in range(f.arity):
        bit = 1 << j
        for i in range(rows):
            if not i & bit and f.value_at(i) > f.value_at(i | bit):
                return False
    return True


def _self_dual(f: BoolFun) -> bool:
    rows = f.n_points
    return all(f.value_at(i) != f.value_at(rows - 1 - i) for i in range(rows))


def _linear(f: BoolFun) -> bool:
    # f is linear iff f(x) = c xor (+) over S of x_j for c = f(0..0) and
    # coefficients read off at the unit vectors; verified at every point.
    c = f.value_at(0)
    coeff = [f.value_at(1 << j) ^ c for j in range(f.arity)]
    for i in range(f.n_points):
        acc = c
        for j in range(f.arity):
            if (i >> j) & 1 and coeff[j]:
                acc ^= 1
        if acc != f.value_at(i):
            return False
    return True


def _separating(f: BoolFun, c: int) -> bool:
    # exists a variable index i such that f(a) = c implies a_i = c.
    # Vacuously needs an index to exist, so 0-ary functions are never
    # c-separating under the letter of the definition.
    points = [i for i in range(f.n_points) if f.value_at(i) == c]
    for j in range(f.arity):
        if all(((i >> j) & 1) == c for i in points):
            return True
    return False


def _projection_of(f: BoolFun) -> int | None:
    for j in range(f.arity):
        bit = 1 << j
        if all(f.value_at(i) == ((i >> j) & 1) for i in range(f.n_points)):
            return j
    return None


def _and_shape(f: BoolFun, ess: frozenset[int]) -> bool:
    if not ess:
        return True  # constant
    for i in range(f.n_points):
        expect = 1 if all((i >> j) & 1 for j in ess) else 0
        if f.value_at(i) != expect:
            return False
    return True


def _or_shape(f: BoolFun, ess: frozenset[int]) -> bool:
    if not ess:
        return True
    for i in range(f.n_points):
        expect = 1 if any((i >> j) & 1 for j in ess) else 0
        if f.value_at(i) != expect:
            return False
    return True


def function_signature(f: BoolFun) -> FunSignature:
    """Compute all property flags of f exactly."""
    if f.arity > PROPERTY_ARITY_CAP:
        raise ArityUnsupported(f"arity {f.arity} exceeds property cap {PROPERTY_ARITY_CAP}")
    ess = _essential_vars(f)
    rows = f.n_points
    return FunSignature(
        reproducing0=f.value_at(0) == 0,
        reproducing1=f.value_at(rows - 1) == 1,
        monotone=_monotone(f),
        self_dual=_self_dual(f),
        linear=_linear(f),
        separating0=_separating(f, 0),
        separating1=_separating(f, 1),
        depends_on=ess,
        is_projection=_projection_of(f) is not None,
        is_constant=not ess,
        is_and_shape=_and_shape(f, ess),
        is_or_shape=_or_shape(f, ess),
    )
