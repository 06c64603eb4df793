"""Clone analysis of a connective set and complexity-case dispatch.

The connective set B generates a function clone [B].  Everything the
decision problems need to know about [B] is captured by (a) which of the
property-defined clones contain [B] (subset flags, computed per function)
and (b) which small named clones are contained in [B] (contains flags).

Contains flags follow from Post's lattice, where every clone is an
intersection of property-defined clones (Böhler, Creignou, Reith,
Vollmer, "Playing with Boolean Blocks, Part I", SIGACT News 2003): a
named clone X lies in [B] exactly when every clone of ``FAMILY_CLONES``
that contains B also contains X's base.  Each connective is tested
on its own truth table, so any arity up to ``PROPERTY_ARITY_CAP`` is
classified, and its classification is derived once per table and kept
in a ``boolfun.table_store`` (``_classified``), which a renamed copy
reads too.  The arity-3 slice closure
(``slice3_closure`` with ``contains_clone``) decides the same flags
from the generated ternary tables, in integer arithmetic; it is kept as
the reference oracle for connectives of arity at most 3, and the tests
read the lattice order of the clones with a ternary base from it.

``dispatch_case`` evaluates the complexity-case conditions for
extension existence, credulous and skeptical reasoning, hardest cases
first, and selects an engine per problem.  The conditions read only the
clone family of [B], so each family's cases and engines, and the
entailment state its fixpoint runs on, are worked out once (``_route``,
memoized by family: Post's lattice bounds the families); ``route`` keeps
each signature's route in one store keyed by its frozenset, read by every
decision, ``implies``, ``subset_of_clone`` and ``dispatch_case``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import boolfun
from .boolfun import BUILTINS, BoolFun, signature_map, table_store
from .errors import ArityUnsupported, UnknownClone
from .formula import _var_pattern
from .properties import FunSignature, function_signature

# ternary projections as 8-bit tables (bit i = value at assignment i); a
# set of such tables is a 256-bit int with bit c set for table c, and
# _HIGH[j] is the set of the tables with bit j set
_PROJ = (0xAA, 0xCC, 0xF0)
_HIGH = tuple(_var_pattern(j, 8) for j in range(8))
_ALL = (1 << 256) - 1

SUBSET_CLONES = ("R1", "M", "L", "L1", "V", "E", "N", "I")
CONTAINS_CLONES = ("S1", "D", "S11", "S00", "S10", "D2", "N2", "L0", "L2", "V2", "E2", "I2")


def ternary_lift(f: BoolFun) -> int:
    """f as a ternary function on its first arity arguments (8-bit code)."""
    if f.arity > 3:
        raise ArityUnsupported(f"cannot lift arity {f.arity} to the ternary slice")
    mask = (1 << f.arity) - 1
    out = 0
    for i in range(8):
        if f.value_at(i & mask):
            out |= 1 << i
    return out


def _members(codes: int) -> list[int]:
    return [c for c in range(256) if codes >> c & 1]


def _image(codes: int, zero: int, one: int) -> int:
    """The tables that take, at each bit j, zero's bit where a table of
    codes has 0 and one's bit where it has 1: one shift-and-mask step per
    bit moves every table of the set at once."""
    for j, high in enumerate(_HIGH):
        s, hi = 1 << j, codes & high
        lo = codes ^ hi
        codes = (lo << s if zero >> j & 1 else lo) | (hi if one >> j & 1 else hi >> s)
    return codes


def _maps(t: list[int], have: int, new: int) -> set[tuple[int, int]]:
    """The pairs (f(a, b, 0), f(a, b, 1)) of the ternary connective f with
    per-bit table t, for tables a and b of ``have`` one of which is in
    ``new``: with a and b fixed, f reads its last argument c bit by bit,
    so _image applies f(a, b, c) to a whole set of tables c."""
    t0, t1, t2, t3, t4, t5, t6, t7 = t
    full, fresh, maps = _members(have), _members(new), set()
    # one a stands for all when the connective does not read a
    for a in full if t[::2] != t[1::2] else [0]:
        u0, u1 = t0 ^ (a & (t0 ^ t1)), t2 ^ (a & (t2 ^ t3))  # f(a, 0|1, 0)
        v0, v1 = t4 ^ (a & (t4 ^ t5)), t6 ^ (a & (t6 ^ t7))  # f(a, 0|1, 1)
        for b in full if new >> a & 1 else fresh:
            maps.add((u0 ^ (b & (u0 ^ u1)), v0 ^ (b & (v0 ^ v1))))
    return maps


def slice3_closure(signature) -> frozenset[int]:
    """The arity-3 members of [B] as 8-bit truth-table codes: the least set
    of ternary tables containing the projections and closed under applying
    every connective of the signature."""
    conns = signature_map(signature).values()
    for f in conns:
        if f.arity > 3:
            raise ArityUnsupported(
                f"connective {f.name!r} has arity {f.arity} > 3; slice closure unsupported"
            )
    # each connective read as a ternary one of its last arguments (padding
    # changes no clone), every table bit spread over the 8 bits, with the
    # pairs that have been applied to every table reached
    forms = [([0xFF if f.table[i >> 3 - f.arity] == "1" else 0 for i in range(8)], set()) for f in conns]
    have = new = sum(1 << p for p in _PROJ)
    while new and have != _ALL:
        out = have
        for t, seen in forms:
            maps = _maps(t, have, new) - seen
            for zero, one in seen:
                out |= _image(new, zero, one)
            for zero, one in maps:
                out |= _image(have, zero, one)
            seen |= maps
            if out == _ALL:
                break
        new, have = out ^ have, out
    return frozenset(_members(have))


# Bases of the named clones used in contains tests, from the standard
# clone table; 0-ary base members are checked via the constant ternary
# table by the slice oracle and as unary constants by the property route.
_CONTAINS_BASES: dict[str, tuple[BoolFun, ...]] = {
    "S1": (BUILTINS["nimp"],),
    "D": (BUILTINS["dbase"],),
    "S11": (BUILTINS["s10"], BUILTINS["bot"]),
    "S00": (BUILTINS["s00"],),
    "S10": (BUILTINS["s10"],),
    "D2": (BUILTINS["maj"],),
    "N2": (BUILTINS["not"],),
    "L0": (BUILTINS["xor"],),
    "L2": (BUILTINS["xor3"],),
    "V2": (BUILTINS["or"],),
    "E2": (BUILTINS["and"],),
    "I2": (BUILTINS["id"],),
}


def contains_clone(slice3: frozenset[int], clone: str) -> bool:
    """True iff the named clone is contained in [B], decided by base
    membership in the ternary slice."""
    base = _CONTAINS_BASES.get(clone)
    if base is None:
        raise UnknownClone(f"no contains-test for clone {clone!r}")
    return all(ternary_lift(f) in slice3 for f in base)


# Property clones whose intersections give every clone of Post's lattice
# that the contains tests tell apart.  Sc^k holds the functions whose
# c-points share, k at a time, a coordinate equal to c.  The bases in
# _CONTAINS_BASES have arity at most 3, and a function of arity m in
# Sc^m lies in Sc; so for them Sc^k with k > 3 means Sc, and the chain
# Sc^2, Sc^3, Sc is the part of the Sc^k chain that can separate them.
# Degree 3 is needed from arity 4 on: without it every member containing
# S1^3 = [nimp, at least 3 of 4] also contains maj, which S1^3 misses.
FAMILY_CLONES = (
    "R0", "R1", "M", "D", "L", "V", "E", "N",
    "S0", "S1", "S0^2", "S1^2", "S0^3", "S1^3",
)
_EVERY_FAMILY = frozenset(FAMILY_CLONES)

_SWAP01 = str.maketrans("01", "10")


def _empty_meet_counts(f: BoolFun, c: int) -> tuple[int, int]:
    """Numbers of ordered pairs and triples of c-points of f (repeats
    allowed) that have no coordinate equal to c in common.

    With C(a) the coordinates of a equal to c and u(S) the number of
    c-points a with S inside C(a), inclusion-exclusion gives the number
    of k-tuples with empty common part as the sum over S of
    (-1)^|S| u(S)^k, in O(n 2^n) steps for arity n.  The superset sum over
    coordinate j adds the half of the list with bit j set onto the half
    without it by whole-slice additions: 2^j strided slices while the runs
    of 2^j are short, else one slice per run, so a coordinate costs at
    most about sqrt(2^(n-1)) slice operations.
    """
    size = f.n_points
    # u[a] starts as 1 when a is C of a c-point: for c = 0 that point is ~a
    u = list(map(int, f.table if c else f.table[::-1].translate(_SWAP01)))
    for j in range(f.arity):  # superset sums
        step = 1 << j
        span = step << 1
        if step < size // span:
            for r in range(step):
                u[r::span] = map(add, u[r::span], u[r + step::span])
        else:
            for i in range(0, size, span):
                u[i:i + step] = map(add, u[i:i + step], u[i + step:i + span])
    sign = [1]  # sign[a] = (-1)^|a|
    for _ in range(f.arity):
        sign += [-s for s in sign]
    squares = list(map(mul, u, u))
    return sum(map(mul, sign, squares)), sum(map(mul, sign, map(mul, squares, u)))


def _classification(f: BoolFun) -> tuple[FunSignature, frozenset[str]]:
    """The property flags of f and the members of FAMILY_CLONES that contain
    f; a 0-ary constant is tested for the family as the unary constant
    function, so that top lies in S0 and bot in S1."""
    props = s = function_signature(f)
    if f.arity == 0:
        f = BoolFun(f.name, 1, f.table * 2)
        s = function_signature(f)
    flags = {
        "R0": s.reproducing0,
        "R1": s.reproducing1,
        "M": s.monotone,
        "D": s.self_dual,
        "L": s.linear,
        "V": s.is_or_shape,
        "E": s.is_and_shape,
        "N": len(s.depends_on) <= 1,
        "S0": s.separating0,
        "S1": s.separating1,
    }
    for c in (0, 1):
        pairs, triples = _empty_meet_counts(f, c)
        flags[f"S{c}^2"] = pairs == 0
        flags[f"S{c}^3"] = triples == 0
    return props, frozenset(name for name, ok in flags.items() if ok)


# table -> the connective's classification; _classified(f) reads f's entry
_CLASSIFIED, _classified = table_store(_classification)
_ROUTES: dict = {}  # signature (a frozenset of BoolFun) -> its route (``route``)


def _common_family(conns) -> frozenset[str]:
    """The members of FAMILY_CLONES that contain every connective of conns."""
    family = _EVERY_FAMILY
    for f in conns:
        family &= _classified(f)[1]
    return family


_CONTAINS_FAMILIES = {clone: _common_family(base) for clone, base in _CONTAINS_BASES.items()}


# the members of FAMILY_CLONES whose intersection is each subset clone:
# L1 = L n R1, I = N n M (constants and projections), the rest by name
_SUBSET_FAMILIES = {c: frozenset({c}) for c in SUBSET_CLONES} | {
    "L1": frozenset({"L", "R1"}),
    "I": frozenset({"N", "M"}),
}


def subset_of_clone(signature, clone: str) -> bool:
    """True iff [B] is contained in the property-defined clone, i.e. every
    connective satisfies the clone's defining property (a flag of ``route``)."""
    if clone not in _SUBSET_FAMILIES:
        raise UnknownClone(f"no property test for clone {clone!r}")
    return clone in route(signature)[0]


class CloneReport(NamedTuple):
    """Where [B] sits relative to the clones the case analysis tests, the
    complexity case of each decision problem, and the engine to run."""

    properties: dict[str, FunSignature]
    subset: frozenset[str]
    contains: frozenset[str]
    ext_case: str
    cred_case: str
    skep_case: str
    engines: dict[str, str]

    def to_json(self) -> dict:
        return {
            "properties": {name: s.to_json() for name, s in sorted(self.properties.items())},
            "subset": sorted(self.subset),
            "contains": sorted(self.contains),
            "cases": {"ext": self.ext_case, "cred": self.cred_case, "skep": self.skep_case},
            "engines": dict(self.engines),
        }


def _pick(problem: str, named: list[tuple[bool, str, str]]) -> tuple[str, str]:
    hits = [(case, engine) for ok, case, engine in named if ok]
    if len(hits) != 1:
        matched = [case for ok, case, _ in named if ok]
        raise AssertionError(
            f"classifier bug: {problem} matched cases {matched}; expected exactly one"
        )
    return hits[0]


@lru_cache(maxsize=None)
def _route(family: frozenset[str]) -> tuple[frozenset[str], frozenset[str], Mapping[str, tuple[str, str]], str]:
    """The subset and contains flags of a clone family (the members of
    FAMILY_CLONES that contain [B]), each problem's (case, engine) in a
    read-only mapping, and the entailment state of its fixpoint, computed
    once per family.  Families are clones of Post's lattice, so the keys
    are few whatever the connectives are called.

    Case conditions are checked from hardest to easiest; the derived
    predicates are pairwise disjoint and a loud assertion fires if the
    analysis ever matches zero or two cases.
    """
    subset = frozenset(c for c, need in _SUBSET_FAMILIES.items() if need <= family)
    contains = frozenset(c for c in CONTAINS_CLONES if family <= _CONTAINS_FAMILIES[c])

    def sub(c: str) -> bool:
        return c in subset

    def has(c: str) -> bool:
        return c in contains

    top_hard = has("S1") or has("D")
    delta = has("S11") and sub("M")
    affine_np = sub("L") and not sub("R1") and not sub("I")
    ev_p = (sub("E") or sub("V")) and not sub("R1") and not sub("I")
    nl_proper = sub("I") and not sub("R1")

    ext = _pick(
        "ext",
        [
            (top_hard, "SigmaP2", "generic"),
            (delta, "DeltaP2", "monotone_iterative"),
            (affine_np, "NP", "affine_guess"),
            (ev_p, "P", "poly_fragment"),
            (nl_proper, "NL", "reachability"),
            (sub("R1") and not top_hard and not delta, "trivial", "trivial_yes"),
        ],
    )

    cred_conp = (has("S00") or has("S10") or has("D2")) and sub("R1")
    frag_p = (
        (has("V2") and sub("V"))
        or (has("E2") and sub("E"))
        or (sub("L1") and not sub("I"))
    )
    cred = _pick(
        "cred",
        [
            (top_hard, "SigmaP2", "generic"),
            (delta, "DeltaP2", "monotone_iterative"),
            (cred_conp, "coNP", "r1_unique"),
            (affine_np, "NP", "affine_guess"),
            (frag_p, "P", "poly_fragment"),
            (sub("I"), "NL", "reachability"),
        ],
    )

    # Within R1 the extension is unique, so skeptical membership above
    # D2 coincides with credulous membership and stays in coNP.
    skep_conp = (
        (has("S00") or has("S10") or has("D2") or has("N2") or has("L0"))
        and (sub("R1") or sub("M") or sub("L"))
        and not delta
    )
    skep = _pick(
        "skep",
        [
            (top_hard, "PiP2", "generic"),
            (delta, "DeltaP2", "monotone_iterative"),
            (skep_conp, "coNP", "r1_unique" if sub("R1") else "affine_guess"),
            (frag_p, "P", "poly_fragment"),
            (sub("I"), "NL", "reachability"),
        ],
    )
    # the cheapest sound entailment state of ``implication``, else tables (so
    # a monotone B with both "and" and "or" stays on them); E before L, since
    # over I conjunctive is linear-time Horn chaining, affine GF(2) elimination
    state = "conjunctive" if sub("E") else "affine" if sub("L") else "disjunctive" if sub("V") else "oracle"
    return subset, contains, MappingProxyType({"ext": ext, "cred": cred, "skep": skep}), state


def route(signature) -> tuple[frozenset[str], frozenset[str], Mapping[str, tuple[str, str]], str]:
    """The signature's route (``_route``: subset and contains flags, each
    problem's (case, engine), the fixpoint's entailment state), read from
    ``_ROUTES`` by the frozenset of its connectives, which keeps its hash.
    A miss derives it, as a ``table_store`` does, clearing the store at
    STORE_CAP; a signature that names one connective with two tables is
    refused on every call and never stored."""
    if signature.__class__ is not frozenset:  # a list, set or name map
        signature = frozenset(signature.values() if isinstance(signature, dict) else signature)
    value = _ROUTES.get(signature)
    if value is None:
        value = _route(_common_family(signature_map(signature).values()))
        if len(_ROUTES) >= boolfun.STORE_CAP:
            _ROUTES.clear()
        _ROUTES[signature] = value
    return value


def dispatch_case(signature) -> CloneReport:
    """Classify [B] and pick a sound engine per decision problem: the
    connectives' property flags and the signature's route (``route``)."""
    subset, contains, picks, _ = route(signature)
    return CloneReport(
        properties={name: _classified(f)[0] for name, f in signature_map(signature).items()},
        subset=subset,
        contains=contains,
        ext_case=picks["ext"][0],
        cred_case=picks["cred"][0],
        skep_case=picks["skep"][0],
        engines={problem: engine for problem, (_, engine) in picks.items()},
    )
