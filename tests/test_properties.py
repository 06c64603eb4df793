import random
import time

from postdl.boolfun import BUILTINS, BoolFun, dual
from postdl.properties import FunSignature, function_signature


def sig(name):
    return function_signature(BUILTINS[name])


def test_and_flags():
    s = sig("and")
    assert s.monotone and s.reproducing0 and s.reproducing1
    assert not s.linear
    assert s.separating1 and not s.separating0
    assert s.is_and_shape and not s.is_or_shape


def test_not_flags():
    s = sig("not")
    assert s.self_dual and s.linear and not s.monotone
    assert not s.reproducing0 and not s.reproducing1


def test_maj_flags():
    # all 28 monotonicity comparisons and 4 dual pairs checked exactly
    s = sig("maj")
    assert s.self_dual and s.monotone
    assert s.reproducing0 and s.reproducing1
    assert not s.linear


def test_or_flags():
    s = sig("or")
    assert s.separating0 and not s.separating1
    assert s.is_or_shape and not s.is_and_shape


def test_xor_flags():
    s = sig("xor")
    assert s.linear and not s.monotone
    assert s.reproducing0 and not s.reproducing1
    assert not s.separating0 and not s.separating1


def test_s10_flags():
    s = sig("s10")
    assert s.monotone and s.reproducing0 and s.reproducing1 and s.separating1


def test_imp_flags():
    s = sig("imp")
    assert s.separating0 and s.reproducing1 and not s.reproducing0


def test_constants():
    top, bot = sig("top"), sig("bot")
    assert top.is_constant and bot.is_constant
    assert top.reproducing1 and not top.reproducing0
    assert top.linear and bot.linear and top.monotone and bot.monotone
    # the separating definition quantifies over argument positions, so
    # 0-ary functions are never separating
    assert not top.separating0 and not top.separating1


def test_projection_and_essential_vars():
    s = sig("id")
    assert s.is_projection and s.depends_on == frozenset({0})
    pr2 = BoolFun("pr2", 3, "".join(str((i >> 1) & 1) for i in range(8)))
    s2 = function_signature(pr2)
    assert s2.is_projection and s2.depends_on == frozenset({1})


def test_inflated_or_shape():
    # or(x, x) written as a 2-ary table on one essential variable
    f = BoolFun("orxx", 2, "0101")
    s = function_signature(f)
    assert s.is_or_shape and s.is_and_shape and s.is_projection


def _all_functions_upto_arity4(arities=range(5)):
    for arity in arities:
        for bits in range(1 << (1 << arity)):
            table = "".join("1" if (bits >> i) & 1 else "0" for i in range(1 << arity))
            yield BoolFun(f"g{arity}_{bits}", arity, table)


def _by_definition(f):
    """Every FunSignature field from its textbook definition, point by point
    over f's table (row a sets argument j to bit j of a)."""
    k, v = f.arity, [int(c) for c in f.table]
    pts, top = range(len(v)), len(v) - 1
    ess = frozenset(j for j in range(k) if any(v[a] != v[a ^ 1 << j] for a in pts))
    # f(a) = f(0) xor the sum over a's bits j of the coefficient f(e_j) xor f(0)
    coeff = [v[1 << j] ^ v[0] for j in range(k)]
    parity = [v[0] ^ sum(coeff[j] for j in range(k) if a >> j & 1) % 2 for a in pts]
    return FunSignature(
        reproducing0=v[0] == 0,
        reproducing1=v[top] == 1,
        # a <= b componentwise is a chain of steps that each set one bit
        monotone=all(v[a] <= v[a | 1 << j] for a in pts for j in range(k)),
        self_dual=all(v[a ^ top] != v[a] for a in pts),
        linear=v == parity,
        separating0=any(all(a >> j & 1 == 0 for a in pts if v[a] == 0) for j in range(k)),
        separating1=any(all(a >> j & 1 == 1 for a in pts if v[a] == 1) for j in range(k)),
        depends_on=ess,
        is_projection=any(all(v[a] == a >> j & 1 for a in pts) for j in range(k)),
        is_constant=len(set(v)) == 1,
        is_and_shape=not ess or all(v[a] == all(a >> j & 1 for j in ess) for a in pts),
        is_or_shape=not ess or all(v[a] == any(a >> j & 1 for j in ess) for a in pts),
    )


def _seeded_wide_functions():
    # random, parity-of-subset, AND-of-subset and OR-of-subset tables at
    # arities 5-10, so the projection and shape flags also hold at width
    rng = random.Random("wide-signatures")
    shapes = {
        "rand": lambda a, s: rng.getrandbits(1),
        "par": lambda a, s: bin(a & s).count("1") % 2,
        "and": lambda a, s: int(a & s == s),
        "or": lambda a, s: int(a & s != 0),
    }
    for arity in range(5, 11):
        for name, shape in shapes.items():
            # a single variable makes the AND and OR shapes projections
            for s in (1 << rng.randrange(arity), rng.randrange(1, 1 << arity)):
                table = "".join(str(shape(a, s)) for a in range(1 << arity))
                yield BoolFun(f"{name}{arity}_{s}", arity, table)


def test_flags_match_their_definitions_exhaustively():
    for f in _all_functions_upto_arity4():
        assert function_signature(f) == _by_definition(f), f.table


def test_flags_match_their_definitions_at_width():
    flags = ("is_projection", "is_and_shape", "is_or_shape", "linear")
    seen = set()
    for f in _seeded_wide_functions():
        s = function_signature(f)
        assert s == _by_definition(f), f.name
        seen.update((k, f.arity) for k in flags if getattr(s, k))
    # each of these flags is true on some table of every arity 5-10
    assert seen == {(k, arity) for k in flags for arity in range(5, 11)}


def test_signature_at_the_arity_cap_is_fast():
    # bit-parallel over the 2^20 rows; a per-point scan of the parity took
    # about 2 s
    rng = random.Random("cap-signature")
    for f in (
        BoolFun("par20", 20, "".join(str(bin(a).count("1") % 2) for a in range(1 << 20))),
        BoolFun("rand20", 20, format(rng.getrandbits(1 << 20), f"0{1 << 20}b")),
    ):
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            function_signature(f)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.1, (f.name, elapsed)


def test_separating_duality_exhaustive():
    # separating0 of f equals separating1 of its dual, for every function
    # of arity at most 4
    for f in _all_functions_upto_arity4():
        sf = function_signature(f)
        sd = function_signature(dual(f))
        assert sf.separating0 == sd.separating1, f.table
        assert sf.separating1 == sd.separating0, f.table


def test_linear_iff_no_degree2_monomial():
    # cross-check the linearity flag against the algebraic normal form on
    # all binary functions
    for f in _all_functions_upto_arity4([2]):
        v = [f.value_at(i) for i in range(4)]
        # ANF coefficients via the Moebius transform
        c0 = v[0]
        cx = v[1] ^ v[0]
        cy = v[2] ^ v[0]
        cxy = v[3] ^ v[2] ^ v[1] ^ v[0]
        assert function_signature(f).linear == (cxy == 0)
