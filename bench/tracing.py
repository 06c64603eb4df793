"""Spans around the calls into postdl's layers, recorded from outside.

``Tracer.install`` replaces each layer function in every postdl module
that holds it under its own name (``engine`` and ``implication`` bind
``table_int``, the ``*_implies`` functions and ``dispatch_case`` at import,
so patching the defining module alone would miss those calls).  Spans
(name, start, end, parent index) are kept in memory; ``layer_totals``
derives calls and self time from them, where self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (defining module, function, span name)
LAYERS = (
    ("postdl.formula", "table_int", "formula.table_int"),
    ("postdl.implication", "truth_table_implies", "implication.truth_table_implies"),
    ("postdl.implication", "affine_implies", "implication.affine_implies"),
    ("postdl.implication", "conjunctive_implies", "implication.conjunctive_implies"),
    ("postdl.implication", "disjunctive_implies", "implication.disjunctive_implies"),
    ("postdl.implication", "normalize_flat", "implication.normalize_flat"),
    ("postdl.implication", "linear_row", "implication.linear_row"),
    ("postdl.engine", "decide", "engine.decide"),
    ("postdl.clones", "dispatch_case", "clones.dispatch_case"),
    ("postdl.clones", "slice3_closure", "clones.slice3_closure"),
    ("postdl.properties", "function_signature", "properties.function_signature"),
    ("postdl.reductions", "threesat_to_default", "reductions.build"),
    ("postdl.reductions", "hgap_to_ext", "reductions.build"),
    ("postdl.reductions", "xor_hgap_to_cred", "reductions.build"),
    ("postdl.reductions", "snsat_to_ext", "reductions.build"),
    ("postdl.theory", "eliminate_constant_true", "theory.eliminate_constant_true"),
    ("postdl.formats", "read_theory", "formats.read_theory"),
    ("postdl.formats", "write_theory", "formats.write_theory"),
)

# what makes a call a repeat of an earlier one in the same decision
REPEAT_KEYS = {
    "formula.table_int": lambda phi, order: (phi, tuple(order)),
    "implication.normalize_flat": lambda phi, shape: (phi, shape),
    "implication.linear_row": lambda phi, index: (phi, frozenset(index.items())),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._decisions = 0  # engine.decide calls open on the stack
        self._seen: set = set()
        self._undo: list = []

    def install(self) -> None:
        for module, attr, name in LAYERS:
            original = getattr(sys.modules[module], attr)
            traced = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "postdl" and getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn):
        spans, stack, key = self.spans, self._stack, REPEAT_KEYS.get(name)
        is_decide = name == "engine.decide"

        def traced(*args, **kwargs):
            if is_decide:
                if not self._decisions:
                    self._seen.clear()
                self._decisions += 1
            elif key is not None and self._decisions:
                k = (name, key(*args, **kwargs))
                if k in self._seen:
                    self.counts[name + ".repeat_calls"] += 1
                else:
                    self._seen.add(k)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if is_decide:
                    self._decisions -= 1
            if is_decide:
                self.counts["engine.subsets_checked"] += result.stats.subsets_checked
                self.counts["engine.implication_calls"] += result.stats.implication_calls
            return result

        return traced

    def take(self) -> dict:
        """Spans and counts recorded since the last take, as plain data:
        span names are indices into "names", times are integer tenths of a
        microsecond from the first span."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        spans = [
            (index[name], round((start - origin) * 1e7), round((end - origin) * 1e7), parent)
            for name, start, end, parent in self.spans
        ]
        out = {"names": names, "spans": spans, "counts": dict(self.counts)}
        self.spans.clear()
        self.counts.clear()
        return out


def layer_totals(record: dict) -> Counter:
    """Counter of '<span>.calls', '<span>.self_ms' and the recorded counts."""
    names, spans = record["names"], record["spans"]
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Counter = Counter(record["counts"])
    for (name, start, end, _), child in zip(spans, covered):
        out[names[name] + ".calls"] += 1
        out[names[name] + ".self_ms"] += (end - start - child) / 1e4
    return out
