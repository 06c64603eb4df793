import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from postdl.boolfun import BUILTINS, BoolFun
from postdl.clones import (
    CONTAINS_CLONES,
    SUBSET_CLONES,
    _empty_meet_counts,
    _family,
    contains_clone,
    dispatch_case,
    slice3_closure,
    subset_of_clone,
    ternary_lift,
)
from postdl.errors import ArityUnsupported, UnknownClone

from golden import GOLDEN_ROWS, GOLDEN_ROWS_ARITY4


def conns(*names):
    return [BUILTINS[n] for n in names]


def table(bits, arity):
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(1 << arity))


# -- slice closure -----------------------------------------------------------


def test_slice_projections_only():
    sl = slice3_closure(conns("id"))
    assert sl.members == frozenset({0xAA, 0xCC, 0xF0})


def test_slice_full_for_complete_base():
    assert len(slice3_closure(conns("and", "not"))) == 256


def test_slice_or_enumerated():
    # nonempty positive disjunctions over three variables
    sl = slice3_closure(conns("or"))
    assert sl.members == frozenset(
        {0xAA, 0xCC, 0xF0, 0xAA | 0xCC, 0xAA | 0xF0, 0xCC | 0xF0, 0xAA | 0xCC | 0xF0}
    )


def test_slice_contains_projections_always():
    for base in ("bot", "top", "xor", "maj"):
        assert {0xAA, 0xCC, 0xF0} <= slice3_closure(conns(base)).members


def test_slice_monotone_in_base():
    pool = ["and", "or", "not", "xor", "imp", "id", "top", "bot", "maj"]
    rng = random.Random(3)
    for _ in range(25):
        small = rng.sample(pool, rng.randint(1, 3))
        big = small + rng.sample([p for p in pool if p not in small], rng.randint(0, 3))
        assert slice3_closure(conns(*small)).members <= slice3_closure(conns(*big)).members


def test_slice_idempotent():
    # regenerating from all slice members is cubic in the slice size, so
    # the property is checked on the small and mid-sized clones
    for base in (("or",), ("xor",), ("maj",), ("s10", "bot"), ("id", "top"), ("eq",)):
        sl = slice3_closure(conns(*base))
        assert len(sl) <= 40
        regen = [
            BoolFun(f"g{t}", 3, "".join("1" if (t >> i) & 1 else "0" for i in range(8)))
            for t in sorted(sl.members)
        ]
        assert slice3_closure(regen).members == sl.members


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
    # numpy is a test-only dependency: the slice oracle imports it lazily
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
    # traced benchmark run needs every layer module imported up front
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
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out.splitlines() == ["[]", "[]"]


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
    frozen = [
        (BoolFun("f", 2, "0110"), BoolFun("f", 2, "0110")),
        (function_signature(BUILTINS["maj"]), function_signature(BoolFun("maj", 3, "00010111"))),
        (slice3_closure(conns("or")), slice3_closure(conns("or", "or"))),
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
        hashable = type(a).__name__ not in ("CloneReport", "Decision")  # dict and Stats fields
        assert not hashable or hash(a) == hash(b)
        for c in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert c == a
            assert not hashable or (hash(c) == hash(a) and c in {a})
        field = next(k for k in dir(a) if not k.startswith("_") and not callable(getattr(a, k)))
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
    assert BoolFun("f", 2, "0110") != BoolFun("g", 2, "0110")
    assert BoolFun("f", 2, "0110").bits == 0b0110
    assert Hypergraph(("a",), ()) != Digraph(("a",), ())
    sl = slice3_closure(conns("or"))
    assert sl <= slice3_closure(conns("or", "and")) and 0xAA in sl and len(sl) == len(sl.members)

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
