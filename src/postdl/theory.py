"""Default theories: facts W plus default rules over a connective set."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .boolfun import TOP, BoolFun, signature_map
from .errors import InputError
from .formula import App, Formula, Var, connectives, connectives_of, fresh_name, node_count, substitute, variables_of


class DefaultRule(NamedTuple):
    """A default (prerequisite : justification) / consequent."""

    prerequisite: Formula
    justification: Formula
    consequent: Formula

    def formulas(self) -> tuple[Formula, Formula, Formula]:
        return (self.prerequisite, self.justification, self.consequent)


class DefaultTheory(NamedTuple):
    """Facts W (set semantics, stored in first-seen order), an ordered list
    of defaults D, and the connective signature the formulas live in."""

    W: tuple[Formula, ...]
    D: tuple[DefaultRule, ...]
    signature: frozenset[BoolFun]

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
        return variables_of(self.all_formulas())

    def used_connectives(self) -> frozenset[BoolFun]:
        return frozenset(connectives_of(self.all_formulas()))

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
    top_node = App(TOP)
    uses_top = any(
        TOP in connectives(f) for f in theory.all_formulas()
    )
    if not uses_top:
        return theory
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
