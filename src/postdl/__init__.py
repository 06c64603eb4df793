"""Connective-aware reasoner for propositional default logic.

Decides extension existence and credulous/skeptical inference for default
theories whose formulas range over a fixed set of Boolean connectives,
routing each query to the cheapest engine the position of the connective
set in the clone lattice licenses.
"""

from .boolfun import BUILTINS, BoolFun, dual
from .clones import (
    CloneReport,
    contains_clone,
    dispatch_case,
    slice3_closure,
    subset_of_clone,
    ternary_lift,
)
from .engine import (
    Decision,
    ExtensionWitness,
    check_stable,
    cred,
    decide,
    enumerate_extensions,
    ext,
    is_consistent_W,
    skep,
)
from .formula import (
    App,
    Formula,
    Var,
    balanced_composition,
    evaluate,
    parse,
    serialize,
    substitute,
    truth_table_of,
    variables,
)
from .implication import (
    affine_implies,
    conjunctive_implies,
    disjunctive_implies,
    fragment_state,
    implies,
    truth_table_implies,
)
from .properties import FunSignature, function_signature
from .theory import DefaultRule, DefaultTheory, eliminate_constant_true

__all__ = [
    "BUILTINS",
    "BoolFun",
    "dual",
    "CloneReport",
    "contains_clone",
    "dispatch_case",
    "slice3_closure",
    "subset_of_clone",
    "ternary_lift",
    "Decision",
    "ExtensionWitness",
    "check_stable",
    "cred",
    "decide",
    "enumerate_extensions",
    "ext",
    "is_consistent_W",
    "skep",
    "App",
    "Formula",
    "Var",
    "balanced_composition",
    "evaluate",
    "parse",
    "serialize",
    "substitute",
    "truth_table_of",
    "variables",
    "affine_implies",
    "conjunctive_implies",
    "disjunctive_implies",
    "fragment_state",
    "implies",
    "truth_table_implies",
    "FunSignature",
    "function_signature",
    "DefaultRule",
    "DefaultTheory",
    "eliminate_constant_true",
]

__version__ = "0.1.0"
