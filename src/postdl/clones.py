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
once on its own truth table, so any arity up to
``PROPERTY_ARITY_CAP`` is classified.  The arity-3 slice closure
(``slice3_closure`` with ``contains_clone``) decides the same flags
from the generated ternary tables; it is kept as the reference oracle
for connectives of arity at most 3 and needs numpy.

``dispatch_case`` evaluates the complexity-case conditions for
extension existence, credulous and skeptical reasoning, hardest cases
first, and selects an engine per problem.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import add, and_, mul
from typing import TYPE_CHECKING, NamedTuple

from .boolfun import BUILTINS, BoolFun, signature_map
from .errors import ArityUnsupported, UnknownClone
from .properties import FunSignature, function_signature

if TYPE_CHECKING:
    import numpy as np

# ternary projections as 8-bit tables (bit i = value at assignment i)
_PROJ = (0xAA, 0xCC, 0xF0)

SUBSET_CLONES = ("R1", "M", "L", "L1", "V", "E", "N", "I")
CONTAINS_CLONES = ("S1", "D", "S11", "S00", "S10", "D2", "N2", "L0", "L2", "V2", "E2", "I2")


class Slice3(NamedTuple):
    """The arity-3 members of [B], as a set of 8-bit truth-table codes.
    ``len`` and ``in`` read the member set, not the one-field tuple."""

    members: frozenset[int]

    def __contains__(self, table8: int) -> bool:
        return table8 in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __le__(self, other: "Slice3") -> bool:
        return self.members <= other.members


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


def _apply_bitwise(f: BoolFun, args: list[np.ndarray]) -> np.ndarray:
    """Apply f pointwise to ternary tables packed as uint8 arrays."""
    import numpy as np

    shape = np.broadcast_shapes(*(a.shape for a in args)) if args else ()
    res = np.zeros(shape, dtype=np.uint8)
    for r in range(f.n_points):
        if not f.value_at(r):
            continue
        term = np.full(shape, 0xFF, dtype=np.uint8)
        for j, a in enumerate(args):
            term &= a if (r >> j) & 1 else ~a
        res |= term
    return res


def _closure(conns: frozenset[BoolFun]) -> frozenset[int]:
    for f in conns:
        if f.arity > 3:
            raise ArityUnsupported(
                f"connective {f.name!r} has arity {f.arity} > 3; slice closure unsupported"
            )
    import numpy as np

    current: set[int] = set(_PROJ)
    frontier: set[int] = set(current)
    while frontier and len(current) < 256:
        full = np.array(sorted(current), dtype=np.uint8)
        new = np.array(sorted(frontier), dtype=np.uint8)
        seen = np.zeros(256, dtype=bool)
        seen[full] = True

        def applications():
            for f in conns:
                if f.arity == 0:
                    yield np.array([0xFF if f.bits & 1 else 0x00], dtype=np.uint8)
                elif f.arity == 1:
                    yield _apply_bitwise(f, [new])
                elif f.arity == 2:
                    a, b = new[:, None], full[None, :]
                    yield _apply_bitwise(f, [a, b])
                    yield _apply_bitwise(f, [b, a])
                else:
                    n1, f1 = new[:, None, None], full[:, None, None]
                    n2, f2 = new[None, :, None], full[None, :, None]
                    n3, f3 = new[None, None, :], full[None, None, :]
                    for combo in ([n1, f2, f3], [f1, n2, f3], [f1, f2, n3]):
                        yield _apply_bitwise(f, combo)

        for arr in applications():
            seen[arr.ravel()] = True
            if seen.all():  # all 256 tables reached: the rest of the round adds nothing
                break
        produced = set(np.flatnonzero(seen).tolist())
        frontier = produced - current
        current |= frontier
    return frozenset(current)


def slice3_closure(signature) -> Slice3:
    """Least set of ternary tables containing the projections and closed
    under applying every connective of the signature."""
    sig = signature_map(signature)
    return Slice3(_closure(frozenset(sig.values())))


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


def contains_clone(slice3: Slice3, clone: str) -> bool:
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


@lru_cache(maxsize=1024)
def _classified(f: BoolFun) -> tuple[FunSignature, frozenset[str]]:
    """The property flags of f and the members of FAMILY_CLONES that contain
    f, computed once per connective; a 0-ary constant is tested for the
    family as the unary constant function, so that top lies in S0 and bot
    in S1."""
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


def _family(f: BoolFun) -> frozenset[str]:
    """The members of FAMILY_CLONES that contain f."""
    return _classified(f)[1]


def _common_family(conns) -> frozenset[str]:
    """The members of FAMILY_CLONES that contain every connective of conns."""
    return reduce(and_, map(_family, conns), frozenset(FAMILY_CLONES))


_CONTAINS_FAMILIES = {clone: _common_family(base) for clone, base in _CONTAINS_BASES.items()}


# the members of FAMILY_CLONES whose intersection is each subset clone:
# L1 = L n R1, I = N n M (constants and projections), the rest by name
_SUBSET_FAMILIES = {c: frozenset({c}) for c in SUBSET_CLONES} | {
    "L1": frozenset({"L", "R1"}),
    "I": frozenset({"N", "M"}),
}


def subset_of_clone(signature, clone: str) -> bool:
    """True iff [B] is contained in the property-defined clone, i.e. every
    connective satisfies the clone's defining property."""
    need = _SUBSET_FAMILIES.get(clone)
    if need is None:
        raise UnknownClone(f"no property test for clone {clone!r}")
    return need <= _common_family(signature_map(signature).values())


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


def dispatch_case(signature) -> CloneReport:
    """Classify [B] and pick a sound engine per decision problem.

    Case conditions are checked from hardest to easiest; the derived
    predicates are pairwise disjoint and a loud assertion fires if the
    analysis ever matches zero or two cases.
    """
    sig = signature_map(signature)
    props = {name: _classified(f)[0] for name, f in sig.items()}
    family = _common_family(sig.values())
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

    ext_case, ext_engine = _pick(
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
    cred_case, cred_engine = _pick(
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
    skep_case, skep_engine = _pick(
        "skep",
        [
            (top_hard, "PiP2", "generic"),
            (delta, "DeltaP2", "monotone_iterative"),
            (skep_conp, "coNP", "r1_unique" if sub("R1") else "affine_guess"),
            (frag_p, "P", "poly_fragment"),
            (sub("I"), "NL", "reachability"),
        ],
    )

    return CloneReport(
        properties=props,
        subset=subset,
        contains=contains,
        ext_case=ext_case,
        cred_case=cred_case,
        skep_case=skep_case,
        engines={"ext": ext_engine, "cred": cred_engine, "skep": skep_engine},
    )
