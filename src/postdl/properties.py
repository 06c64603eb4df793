"""Truth-table properties of Boolean functions.

These are the predicates that define the property-characterized clones:
c-reproducing, monotone, c-separating, self-dual, linear, plus the shape
tests for conjunction-like and disjunction-like functions and essential
variables.  All flags are computed exactly and bit-parallel from one view
of the table (``table_views``): the table int, each argument's pattern and
the algebraic normal form, each an int over the 2^arity rows.  The engines'
tabling kernel reads the same view.
"""

from __future__ import annotations

from typing import NamedTuple

from .boolfun import BoolFun
from .errors import ArityUnsupported
from .formula import _var_pattern

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
        d = self._asdict()
        d["depends_on"] = sorted(self.depends_on)
        return d


def table_views(f: BoolFun) -> tuple[list[int], int]:
    """(pats, anf) over f's 2^arity rows: pats[j] is argument j's table (the
    rows with bit j set) and bit m of anf is the coefficient of monomial m
    (the variables of m's set bits) in f's algebraic normal form
    (Zhegalkin), from one Moebius pass."""
    pats, anf = [_var_pattern(j, f.arity) for j in range(f.arity)], f.bits
    for j, p in enumerate(pats):
        anf ^= (anf & ~p) << (1 << j)
    return pats, anf


def function_signature(f: BoolFun) -> FunSignature:
    """Compute all property flags of f exactly, a few bitwise operations
    over the whole table per argument."""
    if f.arity > PROPERTY_ARITY_CAP:
        raise ArityUnsupported(f"arity {f.arity} exceeds property cap {PROPERTY_ARITY_CAP}")
    rows, bits = f.n_points, f.bits
    full = (1 << rows) - 1
    pats, anf = table_views(f)
    # per argument j: the rows with bit j clear, and f shifted so each reads f there with bit j set
    lows = [(~p & full, bits >> (1 << j)) for j, p in enumerate(pats)]
    ess = frozenset(j for j, (low, up) in enumerate(lows) if (bits ^ up) & low)
    and_of, or_of = full, 0
    for j in ess:
        and_of &= pats[j]
        or_of |= pats[j]
    return FunSignature(
        reproducing0=not bits & 1,
        reproducing1=bool(bits >> (rows - 1)),
        monotone=all(not bits & ~up & low for low, up in lows),
        # read most significant first, the table string has f(~a) at bit a
        self_dual=bits ^ int(f.table, 2) == full,
        linear=not anf & ~sum(1 << (1 << j) for j in range(f.arity)) & ~1,
        separating0=any(not p & ~bits for p in pats),
        separating1=any(not bits & ~p for p in pats),
        depends_on=ess,
        is_projection=bits in pats,
        is_constant=not ess,
        is_and_shape=bits == and_of or not ess,
        is_or_shape=bits == or_of or not ess,
    )
