import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from postdl import clones
from postdl.boolfun import BUILTINS, BoolFun
from postdl.clones import (
    CONTAINS_CLONES,
    SUBSET_CLONES,
    _classified,
    _empty_meet_counts,
    contains_clone,
    dispatch_case,
    slice3_closure,
    subset_of_clone,
    ternary_lift,
)
from postdl.engine import PROBLEMS, decide
from postdl.errors import ArityUnsupported, InputError, UnknownClone
from postdl.formula import App, Var
from postdl.theory import DefaultTheory

from golden import GOLDEN_ROWS, GOLDEN_ROWS_ARITY4, TERNARY_CLONE_BASES


def conns(*names):
    return [BUILTINS[n] for n in names]


def _family(f):
    """The members of FAMILY_CLONES that contain f."""
    return _classified(f)[1]


def table(bits, arity):
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(1 << arity))


# -- slice closure -----------------------------------------------------------


def test_slice_projections_only():
    assert slice3_closure(conns("id")) == frozenset({0xAA, 0xCC, 0xF0})


def test_slice_full_for_complete_base():
    assert len(slice3_closure(conns("and", "not"))) == 256


def test_slice_or_enumerated():
    # nonempty positive disjunctions over three variables
    assert slice3_closure(conns("or")) == frozenset(
        {0xAA, 0xCC, 0xF0, 0xAA | 0xCC, 0xAA | 0xF0, 0xCC | 0xF0, 0xAA | 0xCC | 0xF0}
    )


def test_slice_contains_projections_always():
    for base in ("bot", "top", "xor", "maj"):
        assert {0xAA, 0xCC, 0xF0} <= slice3_closure(conns(base))


def test_slice_monotone_in_base():
    pool = ["and", "or", "not", "xor", "imp", "id", "top", "bot", "maj"]
    rng = random.Random(3)
    for _ in range(25):
        small = rng.sample(pool, rng.randint(1, 3))
        big = small + rng.sample([p for p in pool if p not in small], rng.randint(0, 3))
        assert slice3_closure(conns(*small)) <= slice3_closure(conns(*big))


def test_slice_idempotent():
    # regenerating from all slice members is cubic in the slice size, so
    # the property is checked on the small and mid-sized clones
    for base in (("or",), ("xor",), ("maj",), ("s10", "bot"), ("id", "top"), ("eq",)):
        sl = slice3_closure(conns(*base))
        assert len(sl) <= 40
        regen = [
            BoolFun(f"g{t}", 3, "".join("1" if (t >> i) & 1 else "0" for i in range(8)))
            for t in sorted(sl)
        ]
        assert slice3_closure(regen) == sl


def test_slice_rejects_high_arity():
    f4 = BoolFun("f4", 4, "0" * 16)
    with pytest.raises(ArityUnsupported):
        slice3_closure([f4])


# -- containment tests --------------------------------------------------------


def test_contains_examples():
    assert contains_clone(slice3_closure(conns("and", "not")), "S1")
    assert not contains_clone(slice3_closure(conns("or")), "E2")
    assert contains_clone(slice3_closure(conns("maj")), "D2")


def test_contains_unknown_clone():
    with pytest.raises(UnknownClone):
        contains_clone(slice3_closure(conns("or")), "R1")


def test_subset_examples():
    assert subset_of_clone(conns("or", "top"), "R1")
    assert subset_of_clone(conns("xor"), "L")
    assert not subset_of_clone(conns("xor"), "M")
    assert subset_of_clone(conns("s10"), "M")


def test_subset_unknown_clone():
    with pytest.raises(UnknownClone):
        subset_of_clone(conns("or"), "S1")


def test_ternary_lift():
    assert ternary_lift(BUILTINS["id"]) == 0xAA
    assert ternary_lift(BUILTINS["bot"]) == 0x00
    assert ternary_lift(BUILTINS["top"]) == 0xFF


# -- golden table --------------------------------------------------------------


@pytest.mark.parametrize("row", sorted(GOLDEN_ROWS))
def test_golden_row(row):
    base, subset, contains, cases, engines = GOLDEN_ROWS[row]
    rep = dispatch_case(conns(*base))
    assert rep.subset == frozenset(subset), f"{row} subset"
    assert rep.contains == frozenset(contains), f"{row} contains"
    assert (rep.ext_case, rep.cred_case, rep.skep_case) == cases, f"{row} cases"
    assert (rep.engines["ext"], rep.engines["cred"], rep.engines["skep"]) == engines


@pytest.mark.parametrize("row", sorted(GOLDEN_ROWS_ARITY4))
def test_golden_row_arity4(row):
    base, (subset, contains, cases, engines) = GOLDEN_ROWS_ARITY4[row]
    rep = dispatch_case([BUILTINS[b] if isinstance(b, str) else BoolFun(*b) for b in base])
    assert rep.subset == frozenset(subset), f"{row} subset"
    assert rep.contains == frozenset(contains), f"{row} contains"
    assert (rep.ext_case, rep.cred_case, rep.skep_case) == cases, f"{row} cases"
    assert (rep.engines["ext"], rep.engines["cred"], rep.engines["skep"]) == engines


def test_golden_s00_vs_s10_distinguished():
    rep = dispatch_case(conns("s00"))
    assert "S00" in rep.contains and "S10" not in rep.contains
    rep = dispatch_case(conns("s10"))
    assert "S10" in rep.contains and "S00" not in rep.contains


# -- dispatch ------------------------------------------------------------------


def test_dispatch_examples():
    rep = dispatch_case(conns("and", "not"))
    assert rep.ext_case == "SigmaP2" and rep.engines["ext"] == "generic"
    rep = dispatch_case(conns("or"))
    assert rep.ext_case == "trivial" and rep.cred_case == "P"
    rep = dispatch_case(conns("id", "bot"))
    assert rep.ext_case == "NL"


def test_dispatch_exhaustive_singletons():
    # every ternary connective alone lands in exactly one case per problem
    # (the classifier asserts uniqueness internally)
    ext_cases = set()
    for bits in range(256):
        table = "".join("1" if (bits >> i) & 1 else "0" for i in range(8))
        rep = dispatch_case([BoolFun("g", 3, table)])
        assert rep.ext_case in {"SigmaP2", "DeltaP2", "NP", "P", "NL", "trivial"}
        assert rep.cred_case in {"SigmaP2", "DeltaP2", "coNP", "NP", "P", "NL"}
        assert rep.skep_case in {"PiP2", "DeltaP2", "coNP", "P", "NL"}
        # a problem with a trivial answer cannot be harder than the rest
        if rep.ext_case == "trivial":
            assert "R1" in rep.subset
        ext_cases.add(rep.ext_case)
    assert "SigmaP2" in ext_cases and "trivial" in ext_cases


def test_decide_reads_one_route_per_clone_family():
    # decide reads its case and engine from a route stored per clone
    # family, so signatures of one family share it: on every ternary table,
    # alone and with bot, top or both, it agrees with a report worked out
    # afresh, and the store holds one route per distinct family
    t = DefaultTheory.make([], [])
    signatures = [
        [BoolFun("g", 3, table(bits, 3))] + conns(*extra)
        for bits in range(256)
        for extra in ((), ("bot",), ("top",), ("bot", "top"))
    ]

    def picks(sig):
        theory = t._replace(signature=frozenset(sig))
        return [(d.case, d.engine) for d in (decide(p, theory, Var("x")) for p in PROBLEMS)]

    # a route stored by an earlier test would hide its family from the count
    clones._ROUTES.clear()
    clones._route.cache_clear()
    picked = [picks(sig) for sig in signatures]
    families = {frozenset.intersection(*map(_family, sig)) for sig in signatures}
    assert clones._route.cache_info().currsize == len(families)
    for sig, got in zip(signatures, picked):
        clones._ROUTES.clear()
        clones._route.cache_clear()
        rep = dispatch_case(sig)
        cases = (rep.ext_case, rep.cred_case, rep.skep_case)
        assert got == [(case, rep.engines[p]) for p, case in zip(PROBLEMS, cases)], sig


def test_a_signature_is_routed_once(monkeypatch):
    # the route is stored per signature: an equal but distinct signature,
    # in any form (frozenset, list, set or name map), reads the stored
    # route and derives no family, and so do every reader of it
    from postdl.implication import select_engine

    sig = conns("s10", "bot", "not")
    first = clones.route(frozenset(sig))

    def derive(conns):
        raise AssertionError("a stored route was derived again")

    monkeypatch.setattr(clones, "_common_family", derive)
    for form in (frozenset(sig), sig, set(sig), {g.name: g for g in sig}, sig[::-1]):
        assert clones.route(form) is first
        assert dispatch_case(form) == dispatch_case(sig)
        assert subset_of_clone(form, "M") == ("M" in first[0])
        assert select_engine(form) == first[3]


def test_a_refused_signature_is_never_stored():
    # a signature naming "and" with two tables raises on every call, in
    # every form and through every reader, and never enters the store
    from postdl.implication import select_engine

    sig = [BUILTINS["and"], BoolFun("and", 2, BUILTINS["or"].table)]
    for _ in range(2):
        for read in (clones.route, dispatch_case, select_engine, lambda s: subset_of_clone(s, "M")):
            for form in (sig, frozenset(sig), set(sig)):
                with pytest.raises(InputError, match="twice with different tables"):
                    read(form)
        assert frozenset(sig) not in clones._ROUTES


def test_the_route_store_clears_at_its_cap(monkeypatch):
    # past STORE_CAP entries the store is cleared before the next one is
    # stored, and every read still answers the family's route
    from postdl import boolfun

    monkeypatch.setattr(boolfun, "STORE_CAP", 2)
    clones._ROUTES.clear()
    signatures = [conns(*names) for names in (("and",), ("or",), ("xor",), ("and", "or"), ("maj",), ("and",))]
    for sig in signatures:
        got = clones.route(sig)
        assert got is clones._route(frozenset.intersection(*map(_family, sig)))
        assert 1 <= len(clones._ROUTES) <= 2 and frozenset(sig) in clones._ROUTES


def test_decide_refuses_a_goal_that_renames_a_signature_connective():
    # the goal's "and" has the table of "or": the signature would name one
    # connective with two tables
    t = DefaultTheory.make([Var("x")], [], conns("and", "not"))
    goal = App(BoolFun("and", 2, BUILTINS["or"].table), (Var("x"), Var("y")))
    for problem in ("cred", "skep"):
        with pytest.raises(InputError, match="twice with different tables"):
            decide(problem, t, goal)


def test_subset_and_contains_flags_cohere():
    # if [B] lies inside property clone C and clone X lies inside [B],
    # then X's base functions must satisfy C's property; checked through
    # the per-function property route, independent of the slice closure
    from postdl.clones import _CONTAINS_BASES

    rng = random.Random(43)
    pool = sorted(BUILTINS)
    bases = [row[0] for row in GOLDEN_ROWS.values()]
    bases += [tuple(rng.sample(pool, rng.randint(1, 3))) for _ in range(40)]
    for base in bases:
        rep = dispatch_case(conns(*base))
        for c in rep.subset:
            for x in rep.contains:
                for member in _CONTAINS_BASES[x]:
                    assert subset_of_clone([member], c), (base, c, x)


def test_dispatch_total_on_random_signatures():
    # no case gap and no double match on arbitrary builtin combinations
    # (the classifier asserts single-match internally)
    pool = sorted(BUILTINS)
    rng = random.Random(41)
    for _ in range(120):
        names = rng.sample(pool, rng.randint(1, 4))
        rep = dispatch_case(conns(*names))
        assert rep.ext_case != "unknown"
        # a trivially answerable existence problem needs the 1-reproducing
        # guarantee that makes every theory extend
        if rep.ext_case == "trivial":
            assert "R1" in rep.subset


def test_dispatch_high_arity_parity_is_l0():
    # the 4-ary parity generates L0 = [xor], so it classifies like the L0 row
    rep = dispatch_case([BoolFun("f4", 4, "0110100110010110")])
    assert rep.subset == frozenset({"L"})
    assert rep.contains == frozenset({"I2", "L0", "L2"})
    assert (rep.ext_case, rep.cred_case, rep.skep_case) == ("NP", "NP", "coNP")
    assert rep.engines == {"ext": "affine_guess", "cred": "affine_guess", "skep": "affine_guess"}


def test_dispatch_arity16_within_bound():
    rng = random.Random(16)
    f = BoolFun("f16", 16, table(rng.getrandbits(1 << 16), 16))
    start = time.perf_counter()
    rep = dispatch_case([f])
    assert time.perf_counter() - start < 2.0
    assert rep.ext_case in {"SigmaP2", "DeltaP2", "NP", "P", "NL", "trivial"}


def test_dispatch_is_monotone_in_the_lattice():
    # [B] within [B'] never makes a problem easier.  Each pinned base
    # generates its own clone, and a clone with a ternary base lies in
    # another exactly when its slice does.  NP and coNP are incomparable.
    rank = {"trivial": 0, "NL": 1, "P": 2, "NP": 3, "coNP": 3, "DeltaP2": 4, "SigmaP2": 5, "PiP2": 5}
    clones = []
    for codes in TERNARY_CLONE_BASES:
        sig = [BoolFun(f"g{i}", 3, table(c, 3)) for i, c in enumerate(codes)]
        rep = dispatch_case(sig)
        clones.append((slice3_closure(sig), (rep.ext_case, rep.cred_case, rep.skep_case), codes))
    assert len({sl for sl, _, _ in clones}) == 46
    pairs = [(s, b) for s, b in itertools.permutations(clones, 2) if s[0] < b[0]]
    assert len(pairs) == 333
    for (_, small, base), (_, large, above) in pairs:
        for problem, a, b in zip(("ext", "cred", "skep"), small, large):
            assert a == b or rank[a] < rank[b], (problem, base, a, above, b)


# -- property route against the slice oracle -----------------------------------


def slice_contains(signature):
    sl = slice3_closure(signature)
    return frozenset(c for c in CONTAINS_CLONES if contains_clone(sl, c))


def test_property_route_matches_slice_oracle():
    signatures = [[BoolFun("g", 3, table(bits, 3))] for bits in range(256)]
    signatures += [[f] for f in BUILTINS.values()]
    rng = random.Random(44)
    pool = sorted(BUILTINS)
    for _ in range(500):
        sig = []
        for i in range(rng.randint(2, 3)):
            if rng.random() < 0.5:
                sig.append(BUILTINS[rng.choice(pool)])
            else:
                arity = rng.randint(0, 3)
                sig.append(BoolFun(f"c{i}", arity, table(rng.getrandbits(1 << arity), arity)))
        signatures.append(sig)
    mismatches = [s for s in signatures if dispatch_case(s).contains != slice_contains(s)]
    assert not mismatches


def test_property_family_hand_cases():
    # nimp's 0-points include 11, which has no coordinate equal to 0
    assert "S0^2" not in _family(BUILTINS["nimp"])
    # s00 = x or (y and z) is 0 only where x is 0
    assert "S0" in _family(BUILTINS["s00"])
    # constants are tested as unary functions: top has no 0-point, bot no 1-point
    assert "S0" in _family(BUILTINS["top"])
    assert "S1" in _family(BUILTINS["bot"])
    # maj: every two 1-points share a 1, but 110, 101, 011 do not
    assert {"S1^2", "S0^2"} <= _family(BUILTINS["maj"])
    assert not {"S1^3", "S0^3", "S1", "S0"} & _family(BUILTINS["maj"])


def test_empty_meet_counts_match_enumeration():
    # the inclusion-exclusion counts against enumerating pairs and triples
    rng = random.Random(45)
    for _ in range(60):
        arity = rng.randint(1, 5)
        f = BoolFun("f", arity, table(rng.getrandbits(1 << arity), arity))
        full = (1 << arity) - 1
        for c in (0, 1):
            sets = [a if c else full ^ a for a in range(1 << arity) if f.value_at(a) == c]
            pairs = sum(1 for a in sets for b in sets if not a & b)
            triples = sum(1 for a in sets for b in sets for d in sets if not a & b & d)
            assert _empty_meet_counts(f, c) == (pairs, triples), (f.table, c)


def test_empty_meet_counts_match_pointwise_superset_sums():
    # the slice additions against superset sums taken one point at a time,
    # on every function of arity at most 3 and on seeded ones up to arity
    # 10, where both slice layouts (strided and contiguous) occur
    def pointwise(f, c):
        u = [int(f.value_at(a if c else (1 << f.arity) - 1 - a) == c) for a in range(f.n_points)]
        for j in range(f.arity):
            for a in range(f.n_points):
                if not a >> j & 1:
                    u[a] += u[a | 1 << j]
        signs = [(-1) ** bin(a).count("1") for a in range(f.n_points)]
        return tuple(sum(s * x**k for s, x in zip(signs, u)) for k in (2, 3))

    fs = [BoolFun("f", n, table(bits, n)) for n in range(4) for bits in range(1 << (1 << n))]
    rng = random.Random(46)
    fs += [BoolFun("f", n, table(rng.getrandbits(1 << n), n)) for n in range(4, 11) for _ in range(4)]
    for f in fs:
        for c in (0, 1):
            assert _empty_meet_counts(f, c) == pointwise(f, c), (f.table, c)


def test_import_leaves_numpy_out():
    # no postdl module needs numpy, the slice oracle included; importing
    # the package must not pull it in
    import postdl

    src = str(Path(postdl.__file__).resolve().parents[1])
    code = "import sys, postdl; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "False"


def test_cold_import_stays_lean():
    # every CLI process compiles what `import postdl.cli` pulls in: no
    # dataclasses (and with it inspect), no selftest or generators; the
    # traced benchmark run needs every layer module imported up front and
    # every layer function present under its name
    import postdl

    src = Path(postdl.__file__).resolve().parents[1]
    bench = src.parent / "bench"
    code = (
        "import sys, postdl.cli\n"
        "lean = ('dataclasses', 'inspect', 'postdl.gen', 'postdl.selftest')\n"
        "print(sorted(m for m in lean if m in sys.modules))\n"
        f"sys.path.insert(0, {str(bench)!r})\n"
        "from tracing import LAYERS\n"
        "print(sorted({m for m, _, _ in LAYERS} - set(sys.modules)))\n"
        "print(sorted(f'{m}.{a}' for m, a, _ in LAYERS if not hasattr(sys.modules.get(m), a)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out.splitlines() == ["[]", "[]", "[]"]


def test_records_keep_value_semantics():
    import copy
    import pickle

    from postdl.engine import Decision, ExtensionInfo, ExtensionWitness, Stats, decide, enumerate_extensions
    from postdl.errors import InputError, MalformedChain
    from postdl.formula import App, Var, parse
    from postdl.properties import function_signature
    from postdl.reductions import CnfFormula, Digraph, Hypergraph, SnsatInstance
    from postdl.theory import DefaultRule, DefaultTheory

    x, y = Var("x"), Var("y")
    xy = App(BUILTINS["and"], (x, y))
    theory = DefaultTheory.make([x, App(BUILTINS["top"])], [DefaultRule(x, y, xy)], conns("and", "top"))
    decision = decide("cred", theory, y, want_witness=True)
    assert isinstance(decision, Decision) and isinstance(decision.witness, ExtensionWitness)
    (info,), _ = enumerate_extensions(theory)
    assert isinstance(info, ExtensionInfo)

    def conj_theory():
        return DefaultTheory.make([x], [DefaultRule(x, y, xy)], conns("and"))

    # a theory whose facts (variable order, consequent index, the
    # fixpoint's closure) are filled is the same value as a fresh one
    filled = conj_theory()
    decide("ext", filled, want_witness=True)
    enumerate_extensions(filled)
    assert filled.variable_order == ("x", "y") and filled.closure[:2] == (ExtensionWitness((0,)), 1)
    assert filled.consequent_index == ((xy,), (0,))
    assert filled.closure.final.forced == {"x", "y"}
    assert set(vars(filled)) == {"variable_order", "consequent_index", "closure"}
    frozen = [
        (filled, conj_theory()),
        (BoolFun("f", 2, "0110"), BoolFun("f", 2, "0110")),
        (function_signature(BUILTINS["maj"]), function_signature(BoolFun("maj", 3, "00010111"))),
        (dispatch_case(conns("xor")), dispatch_case(conns("xor"))),
        (ExtensionWitness((0,)), ExtensionWitness((0,), inconsistent=False)),
        (decision, decide("cred", theory, y, want_witness=True)),
        (info, enumerate_extensions(theory)[0][0]),
        (x, Var("x")),
        (xy, parse("(and x y)", BUILTINS)),
        (DefaultRule(x, y, xy), DefaultRule(Var("x"), Var("y"), parse("(and x y)", BUILTINS))),
        (theory, DefaultTheory.make([x, parse("(top)", BUILTINS)], [DefaultRule(x, y, xy)], conns("and", "top"))),
        (CnfFormula(2, ((1, -2, 2),)), CnfFormula(2, ((1, -2, 2),))),
        (SnsatInstance((1,), (((("z", 1, 1),),),)), SnsatInstance((1,), (((("z", 1, 1),),),))),
        (Hypergraph(("a", "b"), ((("a",), "b"),)), Hypergraph(("a", "b"), ((("a",), "b"),))),
        (Digraph(("a", "b"), (("a", "b"),)), Digraph(("a", "b"), (("a", "b"),))),
    ]
    for a, b in frozen:
        assert a == b and not a != b
        hashable = type(a).__name__ != "CloneReport"  # dict fields
        assert not hashable or hash(a) == hash(b)
        for c in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert c == a
            assert not hashable or (hash(c) == hash(a) and c in {a})
        field = next(k for k in dir(a) if not k.startswith("_") and not callable(getattr(a, k)))
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
    # copies, pickles and _replace start without the facts; neither a
    # replaced D nor a goal that widens the signature reads a stale order,
    # consequent index or closure
    for c in (pickle.loads(pickle.dumps(filled)), copy.deepcopy(filled), filled._replace()):
        assert c == filled and hash(c) == hash(filled) and not vars(c)
    with pytest.raises(AttributeError):
        filled.variable_order = ()
    z = Var("z")
    replaced = filled._replace(D=(DefaultRule(x, z, z), DefaultRule(z, y, xy), DefaultRule(y, z, z)))
    assert replaced.variable_order == ("x", "y", "z")
    assert replaced.consequent_index == ((z, xy), (0, 1, 0))
    assert replaced.closure.witness == ExtensionWitness((0, 1, 2))
    fresh_replaced = DefaultTheory.make([x], replaced.D, conns("and"))
    for problem in ("ext", "cred", "skep"):
        assert decide(problem, replaced, z, want_witness=True) == decide(problem, fresh_replaced, z, want_witness=True)
    wide = App(BUILTINS["or"], (y, z))
    for problem in ("cred", "skep"):
        assert decide(problem, filled, wide, want_witness=True) == decide(problem, conj_theory(), wide, want_witness=True)
    assert filled.variable_order == ("x", "y")
    assert BoolFun("f", 2, "0110") != BoolFun("g", 2, "0110")
    assert BoolFun("f", 2, "0110").bits == 0b0110
    assert Hypergraph(("a",), ()) != Digraph(("a",), ())

    stats = Stats()
    stats.subsets_checked += 2
    assert stats == Stats(2, 0) != Stats(2, 1)
    assert pickle.loads(pickle.dumps(stats)) == copy.deepcopy(stats) == stats
    with pytest.raises(TypeError):
        hash(stats)

    for bad, error in [
        (lambda: BoolFun("f", 2, "011"), InputError),
        (lambda: BoolFun("f", -1, "0"), InputError),
        (lambda: BoolFun("f", 1, "0x"), InputError),
        (lambda: CnfFormula(1, ((2,),)), InputError),
        (lambda: SnsatInstance((), ()), MalformedChain),
        (lambda: SnsatInstance((1,), (((("x", 1, 1),),),)), MalformedChain),
        (lambda: Hypergraph(("a",), ((("a", "a", "a"), "a"),)), InputError),
        (lambda: Digraph(("a",), (("a", "b"),)), InputError),
    ]:
        with pytest.raises(error):
            bad()


def test_report_json_schema():
    rep = dispatch_case(conns("or", "top"))
    js = rep.to_json()
    assert set(js) == {"properties", "subset", "contains", "cases", "engines"}
    assert set(js["cases"]) == {"ext", "cred", "skep"}
    assert all(c in CONTAINS_CLONES for c in js["contains"])
    assert all(c in SUBSET_CLONES for c in js["subset"])
