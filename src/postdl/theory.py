"""Default theories: facts W plus default rules over a connective set."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .boolfun import TOP, BoolFun, signature_map
from .errors import InputError
from .formula import App, Formula, Var, connectives_of, fresh_name, node_count, substitute, variables_of


class DefaultRule(NamedTuple):
    """A default (prerequisite : justification) / consequent."""

    prerequisite: Formula
    justification: Formula
    consequent: Formula

    def formulas(self) -> tuple[Formula, Formula, Formula]:
        return (self.prerequisite, self.justification, self.consequent)


class _Fields(NamedTuple):
    W: tuple[Formula, ...]
    D: tuple[DefaultRule, ...]
    signature: frozenset[BoolFun]


class DefaultTheory(_Fields):
    """Facts W (set semantics, stored in first-seen order), an ordered list
    of defaults D, and the connective signature the formulas live in.  The
    value keeps three facts that W, D and the signature fix, each computed
    on first read: its variable order, its consequent index and the
    fixpoint's closure; no goal enters them, so none grows with the goals
    asked.  Equality, hash, pickles and copies read the three fields
    alone, and every constructor, ``_replace`` included, starts without
    the facts."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a theory is immutable")

    def __getstate__(self):
        return None

    @cached_property
    def variable_order(self) -> tuple[str, ...]:
        return tuple(sorted(variables_of(self.all_formulas())))

    @cached_property
    def consequent_index(self) -> tuple[tuple[Formula, ...], tuple[int, ...]]:
        """(conseqs, conseq_of): the distinct consequents in first-occurrence
        order, and for each rule i the position of its consequent in them."""
        index: dict[Formula, int] = {}
        conseq_of = tuple(index.setdefault(d.consequent, len(index)) for d in self.D)
        return tuple(index), conseq_of

    @cached_property
    def closure(self):
        """The least fixpoint of rule firing from the facts, goal-free, on a
        fresh state of the signature's entailment state (``engine.Closure``,
        ``engine._least_fixpoint``): the theory's one candidate extension
        when the signature lies within M or R1, which every fixpoint
        decision reads."""
        from .engine import _least_fixpoint  # engine imports this module

        return _least_fixpoint(self)

    @staticmethod
    def make(
        W: Iterable[Formula],
        D: Iterable[DefaultRule],
        signature=None,
    ) -> "DefaultTheory":
        W = tuple(dict.fromkeys(W))
        D = tuple(D)
        used = connectives_of(_all_formulas(W, D))
        if signature is None:
            signature = used
        else:
            signature = set(signature_map(signature).values())
            stray = {f.name for f in used - signature}
            if stray:
                # a signature that understates the connectives would let
                # engine dispatch pick an unsound fragment
                raise InputError(
                    f"formulas use connectives outside the signature: {sorted(stray)}"
                )
        return DefaultTheory(W, D, frozenset(signature))

    def all_formulas(self) -> list[Formula]:
        return _all_formulas(self.W, self.D)

    def variables(self) -> set[str]:
        return set(self.variable_order)

    def size(self) -> int:
        return sum(node_count(f) for f in self.all_formulas())


def _all_formulas(W: Sequence[Formula], D: Sequence[DefaultRule]) -> list[Formula]:
    out = list(W)
    for d in D:
        out.extend(d.formulas())
    return out


def eliminate_constant_true(theory: DefaultTheory) -> DefaultTheory:
    """Replace the 0-ary connective top by a fresh variable forced true.

    Returns <W[1/t] + {t}, D[1/t]> over the signature without top; the
    stable extensions of input and output correspond one-to-one under the
    substitution.  A theory with no occurrence of top is returned as is.
    """
    if TOP not in connectives_of(theory.all_formulas()):
        return theory
    top_node = App(TOP)
    t = Var(fresh_name("t", theory.variables()))
    new_w = tuple(dict.fromkeys(
        [substitute(w, top_node, t) for w in theory.W] + [t]
    ))
    new_d = tuple(
        DefaultRule(*(substitute(f, top_node, t) for f in d.formulas()))
        for d in theory.D
    )
    new_sig = frozenset(f for f in theory.signature if f != TOP)
    return DefaultTheory(new_w, new_d, new_sig)
