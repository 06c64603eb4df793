import random

import pytest

from postdl import boolfun, clones, engine, implication
from postdl.boolfun import BUILTINS, BoolFun, dual, signature_map
from postdl.clones import subset_of_clone
from postdl.engine import TableContext
from postdl.errors import InputError
from postdl.formula import App, Var, evaluate, table_int, variables_of
from postdl.gen import random_formula

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


def _small_tables():
    """A connective per truth table of arity 0-3, and a seeded ten of arity 4."""
    conns = [BoolFun(f"g{n}_{bits}", n, format(bits, f"0{1 << n}b")[::-1]) for n in range(4) for bits in range(1 << (1 << n))]
    rng = random.Random("store-tables")
    return conns + [BoolFun(f"r{k}", 4, "".join(rng.choice("01") for _ in range(16))) for k in range(10)]


def _kernel_read(phi):
    return TableContext([phi]).table(phi), engine._ones(phi)


def _kernel_reference(phi):
    order = sorted(variables_of([phi]))
    return table_int(phi, order), evaluate(phi, dict.fromkeys(order, 1))


def _memo(name):
    """(store, connectives, read, reference) of one per-connective memo:
    read reads an item (a formula, or for the classification a
    connective) through the store, and reference gives what it must read."""
    conns = _small_tables()
    if name == "kernels":
        return engine._KERNELS, conns, _kernel_read, _kernel_reference
    if name == "classification":
        return clones._CLASSIFIED, conns, clones._classified, clones._classification
    shape, clone = name.split("-")
    store = implication._FORMS[shape][0]
    conns = [g for g in conns if subset_of_clone([g], clone)]
    return store, conns, lambda phi: implication.normal_form(phi, shape), None


@pytest.mark.parametrize("memo", ["kernels", "and-E", "or-V", "xor-L", "classification"])
def test_store_is_found_by_truth_table_and_survives_clearing(monkeypatch, memo):
    # a renamed copy of a connective reads the entry its table made, and
    # with a store of two entries nearly every connective clears it, also
    # in the middle of a walk, without changing a table, a normal form or
    # a classification
    store, conns, read, reference = _memo(memo)
    rng = random.Random(f"store:{memo}")
    if memo == "classification":
        item, items = (lambda conn: conn), conns
    else:
        args = [Var(v) for v in "xyxy"]
        item = lambda conn: App(conn, args[: conn.arity])
        items = [random_formula(rng, conns, ["a", "b", "c"], 3) for _ in range(40)]
    for conn in rng.sample(conns, 6):
        got = read(item(conn))
        entry = store[conn.table]
        assert read(item(BoolFun(f"my_{conn.name}", conn.arity, conn.table))) == got, conn
        assert store[conn.table] is entry, conn
    want = [(reference or read)(i) for i in items]
    monkeypatch.setattr(boolfun, "STORE_CAP", 2)
    store.clear()
    assert [read(i) for i in items] == want
    assert len(store) <= 2
