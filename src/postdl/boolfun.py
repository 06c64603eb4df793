"""Boolean connectives as explicit truth tables.

A connective is a named Boolean function given by its arity and a truth
table bitstring of length 2**arity.  Bit i of the table is the value of
the function at the assignment where variable j (1-based) takes bit
(i >> (j-1)) & 1, i.e. variable 1 is the least significant position.
"""

from __future__ import annotations

from .errors import InputError


class BoolFun:
    """A Boolean function: name, arity and truth table.

    ``table`` is a string of '0'/'1' of length 2**arity; arity 0 encodes a
    constant (table of length 1).  ``bits`` caches the table as an integer
    with bit i equal to table[i].  Instances are immutable; equality is over
    name, arity and table, and the hash is computed once, at construction,
    since connectives key the per-connective caches on every call.
    """

    __slots__ = ("name", "arity", "table", "bits", "_hash")

    def __init__(self, name: str, arity: int, table: str):
        if arity < 0:
            raise InputError(f"connective {name!r}: negative arity")
        if len(table) != 1 << arity:
            raise InputError(
                f"connective {name!r}: table length {len(table)} != 2^{arity}"
            )
        if set(table) - {"0", "1"}:
            raise InputError(f"connective {name!r}: table must be a 0/1 bitstring")
        bits = int(table[::-1], 2)  # table[i] is bit i: one conversion, reversed
        set_ = object.__setattr__
        set_(self, "name", name)
        set_(self, "arity", arity)
        set_(self, "table", table)
        set_(self, "bits", bits)
        set_(self, "_hash", hash((name, arity, table)))

    def __setattr__(self, key, value):
        raise AttributeError("BoolFun is immutable")

    def __delattr__(self, key):
        raise AttributeError("BoolFun is immutable")

    def __eq__(self, other):
        if other.__class__ is not BoolFun:
            return NotImplemented
        return (
            self.name == other.name
            and self.arity == other.arity
            and self.table == other.table
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (BoolFun, (self.name, self.arity, self.table))

    def __repr__(self):
        return f"BoolFun(name={self.name!r}, arity={self.arity!r}, table={self.table!r})"

    def value(self, args: tuple[int, ...]) -> int:
        """Evaluate at a tuple of 0/1 argument values."""
        if len(args) != self.arity:
            raise InputError(f"connective {self.name!r}: expected {self.arity} args")
        idx = 0
        for j, a in enumerate(args):
            idx |= (a & 1) << j
        return self.value_at(idx)

    def value_at(self, idx: int) -> int:
        """Table bit at assignment index idx, read from the table string in
        constant time (shifting ``bits`` would copy 2**arity bits)."""
        return 1 if self.table[idx] == "1" else 0

    @property
    def n_points(self) -> int:
        return 1 << self.arity


def dual(f: BoolFun) -> BoolFun:
    """The dual function: dual(f)(x1..xn) = not f(not x1, .., not xn)."""
    n = f.n_points
    table = "".join("1" if f.value_at(n - 1 - i) == 0 else "0" for i in range(n))
    return BoolFun(f"dual_{f.name}", f.arity, table)


def _tbl(fn, arity: int) -> str:
    return "".join(
        str(fn(*[(i >> j) & 1 for j in range(arity)])) for i in range(1 << arity)
    )


# Builtin signature of the prefix grammar.  The three-ary members are the
# standard clone bases: s00 = x or (y and z), s10 = x and (y or z),
# dbase = (x and not y) or (x and not z) or (not y and not z),
# maj = the ternary majority, xor3 = ternary parity.
BUILTINS: dict[str, BoolFun] = {
    f.name: f
    for f in [
        BoolFun("and", 2, _tbl(lambda x, y: x & y, 2)),
        BoolFun("or", 2, _tbl(lambda x, y: x | y, 2)),
        BoolFun("not", 1, _tbl(lambda x: 1 - x, 1)),
        BoolFun("xor", 2, _tbl(lambda x, y: x ^ y, 2)),
        BoolFun("imp", 2, _tbl(lambda x, y: (1 - x) | y, 2)),
        BoolFun("nimp", 2, _tbl(lambda x, y: x & (1 - y), 2)),
        BoolFun("eq", 2, _tbl(lambda x, y: 1 - (x ^ y), 2)),
        BoolFun("id", 1, "01"),
        BoolFun("top", 0, "1"),
        BoolFun("bot", 0, "0"),
        BoolFun("xor3", 3, _tbl(lambda x, y, z: x ^ y ^ z, 3)),
        BoolFun("maj", 3, _tbl(lambda x, y, z: (x & y) | (y & z) | (x & z), 3)),
        BoolFun("s00", 3, _tbl(lambda x, y, z: x | (y & z), 3)),
        BoolFun("s10", 3, _tbl(lambda x, y, z: x & (y | z), 3)),
        BoolFun(
            "dbase",
            3,
            _tbl(lambda x, y, z: (x & (1 - y)) | (x & (1 - z)) | ((1 - y) & (1 - z)), 3),
        ),
    ]
}

TOP = BUILTINS["top"]
BOT = BUILTINS["bot"]


def signature_map(signature) -> dict[str, BoolFun]:
    """Normalize a signature (iterable or mapping of BoolFun) to a name map."""
    if isinstance(signature, dict):
        return dict(signature)
    out: dict[str, BoolFun] = {}
    for f in signature:
        if f.name in out and out[f.name] != f:
            raise InputError(f"signature declares {f.name!r} twice with different tables")
        out[f.name] = f
    return out
