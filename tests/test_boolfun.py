import random

import pytest

from postdl.boolfun import BUILTINS, BoolFun, dual, signature_map
from postdl.errors import InputError

EXPECTED_TABLES = {
    "and": "0001",
    "or": "0111",
    "not": "10",
    "xor": "0110",
    "imp": "1011",
    "nimp": "0100",
    "eq": "1001",
    "id": "01",
    "top": "1",
    "bot": "0",
    "xor3": "01101001",
    "maj": "00010111",
    "s00": "01010111",
    "s10": "00010101",
    "dbase": "11010100",
}


def test_builtin_tables_frozen():
    assert set(BUILTINS) == set(EXPECTED_TABLES)
    for name, table in EXPECTED_TABLES.items():
        assert BUILTINS[name].table == table, name


@pytest.mark.parametrize(
    "name,args,expect",
    [
        ("and", (1, 1), 1),
        ("and", (1, 0), 0),
        ("imp", (1, 0), 0),
        ("imp", (0, 0), 1),
        ("nimp", (1, 0), 1),
        ("s10", (1, 1, 0), 1),
        ("s10", (1, 0, 0), 0),
        ("maj", (1, 0, 1), 1),
        ("dbase", (0, 0, 0), 1),
        ("dbase", (1, 1, 1), 0),
    ],
)
def test_value(name, args, expect):
    assert BUILTINS[name].value(args) == expect


def test_table_validation():
    with pytest.raises(InputError):
        BoolFun("f", 2, "010")
    with pytest.raises(InputError):
        BoolFun("f", 1, "0x")
    with pytest.raises(InputError):
        BoolFun("f", -1, "")


def test_constants():
    assert BUILTINS["top"].value(()) == 1
    assert BUILTINS["bot"].value(()) == 0


def test_dual_involution():
    for f in BUILTINS.values():
        assert dual(dual(f)).table == f.table


def test_dual_and_is_or():
    assert dual(BUILTINS["and"]).table == BUILTINS["or"].table
    assert dual(BUILTINS["s10"]).table == BUILTINS["s00"].table


def test_bits_and_value_at_follow_the_table():
    rng = random.Random("boolfun-bits")
    for arity in range(11):
        for _ in range(5):
            table = "".join(rng.choice("01") for _ in range(1 << arity))
            fn = BoolFun("f", arity, table)
            for i, ch in enumerate(table):
                assert (fn.bits >> i) & 1 == fn.value_at(i) == int(ch)
            assert fn.bits >> (1 << arity) == 0


def test_signature_map_refuses_one_name_with_two_tables():
    f, g = BoolFun("f", 2, "0110"), BoolFun("f", 2, "0001")
    assert signature_map([f, BUILTINS["and"], f]) == {"f": f, "and": BUILTINS["and"]}
    with pytest.raises(InputError, match="'f' twice"):
        signature_map([f, g])
