"""The bench tracer's names resolve against the package.

``bench/tracing.py`` looks up each layer function by name and reads a
decision's counters off ``decide``'s result, so a rename or a change to
the record would otherwise break only traced benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import postdl.cli  # noqa: F401  (the bench imports the package this way)
from postdl.boolfun import BUILTINS
from postdl.engine import decide
from postdl.formula import App, Var
from postdl.theory import DefaultRule, DefaultTheory

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = _tracing()
    for module, attr, _ in tracing.LAYERS:
        assert callable(getattr(sys.modules[module], attr, None)), (module, attr)


def test_the_tracer_reads_a_decisions_counters():
    # an even loop over {and, not}: the enumeration checks subsets, and the
    # tracer adds up the counters its wrapper reads off decide's result
    B = BUILTINS
    p, q, r = Var("p"), Var("q"), Var("r")
    rules = [DefaultRule(r, App(B["not"], (q,)), p), DefaultRule(r, App(B["not"], (p,)), q)]
    t = DefaultTheory.make([r], rules, [B["and"], B["not"]])
    d = decide("skep", t, p)
    assert d.stats.subsets_checked > 0 and d.stats.implication_calls > 0
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert postdl.engine.decide("skep", t, p) == d
    finally:
        tracer.uninstall()
    counts = tracer.take()["counts"]
    assert counts["engine.subsets_checked"] == d.stats.subsets_checked
    assert counts["engine.implication_calls"] == d.stats.implication_calls
