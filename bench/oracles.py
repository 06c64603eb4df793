"""Correctness oracles of the benchmark, written without postdl.

Every answer the benchmark times is checked here against an independent
computation: brute-force SAT for the 3SAT images, forward chaining for the
hypergraph images, chain evaluation for the snsat images, a brute-force
Reiter check for returned witnesses and for the answers on the
{and, or, not} theories, and clone flags recomputed from truth tables for
``postdl classify``.  The checks read theories from the theory-file text
with their own parser, so a change inside postdl cannot move or weaken
them.

Formulas are plain values: a variable is its name (a str), an application
is a tuple ``(connective_name, arg, ...)``; a connective table is
``(arity, bits)`` with bit i the value at assignment i (first argument
least significant), as in the theory-file format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations

BUILTIN_TABLES = {
    "and": (2, 0b1000),
    "or": (2, 0b1110),
    "not": (1, 0b01),
    "id": (1, 0b10),
    "top": (0, 1),
    "bot": (0, 0),
    "xor3": (3, 0b10010110),
}
BOT = ("bot",)
MODEL_VAR_CAP = 18

# ---------------------------------------------------------------------------
# theory text


def serialize(f) -> str:
    if isinstance(f, str):
        return f
    return "(" + " ".join([f[0]] + [serialize(a) for a in f[1:]]) + ")"


def theory_text(W, D, goal=None) -> str:
    """Theory-file text of facts W, rules D (triples) and an optional goal."""
    lines = ["W:", *(serialize(w) for w in W), "D:"]
    lines += [f"(default {serialize(p)} {serialize(j)} {serialize(c)})" for p, j, c in D]
    if goal is not None:
        lines.append(f"goal: {serialize(goal)}")
    return "\n".join(lines) + "\n"


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse_formula(text: str):
    tokens = _TOKEN.findall(text)

    def walk(pos: int):
        if tokens[pos] != "(":
            return tokens[pos], pos + 1
        name, pos = tokens[pos + 1], pos + 2
        args = []
        while tokens[pos] != ")":
            arg, pos = walk(pos)
            args.append(arg)
        return (name, *args), pos + 1

    f, end = walk(0)
    if end != len(tokens):
        raise ValueError(f"trailing text in formula {text!r}")
    return f


@dataclass
class Theory:
    W: list
    D: list  # (prerequisite, justification, consequent) triples
    goal: object = None
    conns: dict = field(default_factory=lambda: dict(BUILTIN_TABLES))

    def variables(self) -> set[str]:
        out: set[str] = set()
        for f in self.W + [x for d in self.D for x in d] + ([self.goal] if self.goal else []):
            out |= variables(f)
        return out


def parse_theory(text: str) -> Theory:
    """Parse theory-file text: defconn lines, W:, D:, goal:."""
    th = Theory([], [])
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("defconn"):
            _, name, arity, bits = line.split()
            th.conns[name] = (int(arity), int(bits[::-1], 2))
        elif line in ("W:", "D:"):
            section = line[0]
        elif line.startswith("goal:"):
            th.goal = parse_formula(line[5:])
        elif section == "W":
            th.W.append(parse_formula(line))
        elif section == "D":
            rule = parse_formula(line)
            if rule[0] != "default" or len(rule) != 4:
                raise ValueError(f"bad rule line {line!r}")
            th.D.append(rule[1:])
        else:
            raise ValueError(f"line outside a section: {line!r}")
    return th


def variables(f) -> set[str]:
    if isinstance(f, str):
        return {f}
    out: set[str] = set()
    for a in f[1:]:
        out |= variables(a)
    return out


# ---------------------------------------------------------------------------
# two exact entailment back ends for the Reiter check


class Models:
    """Model sets as int bitsets over every assignment to a fixed variable
    list (bit i is the assignment giving variable j the value (i >> j) & 1)."""

    def __init__(self, names, conns):
        names = sorted(names)
        if len(names) > MODEL_VAR_CAP:
            raise ValueError(f"{len(names)} variables exceed the oracle cap of {MODEL_VAR_CAP}")
        rows = 1 << len(names)
        self.full = (1 << rows) - 1
        self.conns = conns
        self.pattern = {}
        for j, name in enumerate(names):
            width = 2 << j
            bits = ((1 << (1 << j)) - 1) << (1 << j)
            while width < rows:
                bits |= bits << width
                width <<= 1
            self.pattern[name] = bits & self.full
        self._memo: dict = {}

    def of(self, f) -> int:
        hit = self._memo.get(f)
        if hit is not None:
            return hit
        if isinstance(f, str):
            out = self.pattern[f]
        else:
            arity, table = self.conns[f[0]]
            if len(f) - 1 != arity:
                raise ValueError(f"{f[0]} takes {arity} arguments")
            args = [self.of(a) for a in f[1:]]
            out = 0
            for r in range(1 << arity):
                if (table >> r) & 1:
                    term = self.full
                    for k, a in enumerate(args):
                        term &= a if (r >> k) & 1 else self.full ^ a
                    out |= term
        self._memo[f] = out
        return out

    # the logic interface used by is_extension: a state is a model set
    def closure(self, formulas) -> int:
        state = self.full
        for f in formulas:
            state &= self.of(f)
        return state

    def add(self, state: int, f) -> int:
        return state & self.of(f)

    def entails(self, state: int, f) -> bool:
        return state & (self.full ^ self.of(f)) == 0

    def consistent(self, state: int, f) -> bool:
        return state & self.of(f) != 0

    @staticmethod
    def inconsistent(state: int) -> bool:
        return state == 0


class Atoms:
    """Theories whose facts and consequents are all variables (or bot): a
    state is the set of variables asserted true, None once bot is derived.
    Entailment of a formula is decided on its own few variables, with the
    asserted ones pinned to 1."""

    def __init__(self, conns):
        self.conns = conns
        self._spaces: dict = {}

    def _rows(self, state, f) -> tuple[int, int, int]:
        names = tuple(sorted(variables(f)))
        space = self._spaces.get(names)
        if space is None:
            space = self._spaces[names] = Models(names, self.conns)
        pinned = space.full
        for name in names:
            if name in state:
                pinned &= space.pattern[name]
        return pinned, space.of(f), space.full

    def closure(self, formulas):
        state: frozenset | None = frozenset()
        for f in formulas:
            state = self.add(state, f)
        return state

    @staticmethod
    def add(state, f):
        if state is None or f == BOT:
            return None
        if not isinstance(f, str):
            raise ValueError(f"atom back end cannot assert {serialize(f)}")
        return state | {f}

    def entails(self, state, f) -> bool:
        if state is None:
            return True
        pinned, models, full = self._rows(state, f)
        return pinned & (full ^ models) == 0

    def consistent(self, state, f) -> bool:
        if state is None:
            return False
        pinned, models, _ = self._rows(state, f)
        return pinned & models != 0

    @staticmethod
    def inconsistent(state) -> bool:
        return state is None


def logic_for(th: Theory):
    """Atom back end when every fact and consequent is a variable or bot
    (the hypergraph images, too wide for model sets), model sets otherwise."""
    asserted = th.W + [d[2] for d in th.D]
    if all(isinstance(f, str) or f == BOT for f in asserted):
        return Atoms(th.conns)
    return Models(th.variables(), th.conns)


def extension_of(logic, th: Theory, generating):
    return logic.closure(th.W + [th.D[i][2] for i in generating])


def is_extension(logic, th: Theory, generating) -> bool:
    """Reiter's fixed-point test: is E = Th(W + consequents of the
    generating rules) equal to the least theory containing W and closed
    under every rule whose prerequisite it derives and whose justification
    is consistent with E?"""
    if any(not 0 <= i < len(th.D) for i in generating):
        return False
    w = logic.closure(th.W)
    e = extension_of(logic, th, generating)
    if logic.inconsistent(e):
        return logic.inconsistent(w)
    state, fired, changed = w, set(), True
    while changed:
        changed = False
        for i, (pre, just, con) in enumerate(th.D):
            if i in fired or not logic.consistent(e, just) or not logic.entails(state, pre):
                continue
            state = logic.add(state, con)
            if logic.inconsistent(state):
                return False
            fired.add(i)
            changed = True
    return state == e


def all_extensions(logic, th: Theory) -> list:
    """Every stable extension, by trying every rule subset as generating set."""
    out = []
    for k in range(len(th.D) + 1):
        for gen in combinations(range(len(th.D)), k):
            if is_extension(logic, th, gen):
                e = extension_of(logic, th, gen)
                if e not in out:
                    out.append(e)
    return out


def reiter_answers(th: Theory) -> dict[str, bool]:
    """ext, cred and skep (for th.goal) from every extension."""
    logic = logic_for(th)
    exts = all_extensions(logic, th)
    holds = [logic.entails(e, th.goal) for e in exts]
    return {"ext": bool(exts), "cred": any(holds), "skep": all(holds)}


def decision_error(problem: str, expected: bool, answer, witness, th: Theory, logic) -> str | None:
    """Why a decision is wrong, or None.  A yes for ext/cred and a no for
    skep must carry a witness that is a stable extension and that contains
    (cred) or misses (skep) the goal."""
    if answer is not expected:
        return f"answer {answer}, oracle says {expected}"
    if (problem == "skep") == answer:
        return None
    if witness is None:
        return "missing witness"
    if not is_extension(logic, th, witness):
        return f"witness {list(witness)} is not a stable extension"
    if problem != "ext":
        holds = logic.entails(extension_of(logic, th, witness), th.goal)
        if holds != (problem == "cred"):
            return f"witness {list(witness)} {'misses' if problem == 'cred' else 'contains'} the goal"
    return None


def entails(premises, goal) -> bool:
    """Brute-force entailment over the joint variables."""
    models = Models(set().union(variables(goal), *map(variables, premises)), BUILTIN_TABLES)
    return models.entails(models.closure(premises), goal)


# ---------------------------------------------------------------------------
# source-problem oracles


def cnf_sat(n_vars: int, clauses) -> bool:
    """Brute-force satisfiability of signed 1-based literal clauses."""
    for bits in range(1 << n_vars):
        if all(any(((bits >> (abs(l) - 1)) & 1) == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


def reachable(edges, sources, target) -> bool:
    """Forward chaining: a hyperedge (sources, dest) fires once all its
    sources are reached."""
    reached = set(sources)
    changed = True
    while changed:
        changed = False
        for src, dest in edges:
            if dest not in reached and set(src) <= reached:
                reached.add(dest)
                changed = True
    return target in reached


def chain_values(m, clauses) -> tuple[int, ...]:
    """(c_1, ..., c_n) of a chain: c_i = 1 iff formula i is satisfiable with
    x_j pinned to c_j; literals are (kind, index, sign), kind "x" or "z"."""
    c: list[int] = []
    for mi, cls in zip(m, clauses):
        sat = any(
            all(
                any(
                    ((c[j - 1] if kind == "x" else (bits >> (j - 1)) & 1) == 1) == (sign > 0)
                    for kind, j, sign in cl
                )
                for cl in cls
            )
            for bits in range(1 << mi)
        )
        c.append(int(sat))
    return tuple(c)


# ---------------------------------------------------------------------------
# classify: clone flags and engine soundness from the truth table


def subset_flags(arity: int, bits: int) -> set[str]:
    """The property clones among R1 M L L1 V E N I that contain [f]."""
    n = 1 << arity
    val = [(bits >> i) & 1 for i in range(n)]
    ess = [j for j in range(arity) if any(val[i] != val[i | 1 << j] for i in range(n) if not i >> j & 1)]
    monotone = all(val[i] <= val[i | 1 << j] for j in range(arity) for i in range(n))
    c = val[0]
    coeff = [val[1 << j] ^ c for j in range(arity)]
    linear = all(val[i] == c ^ (sum(coeff[j] for j in range(arity) if i >> j & 1) & 1) for i in range(n))
    and_shape = all(val[i] == all(i >> j & 1 for j in ess) for i in range(n))
    or_shape = all(val[i] == any(i >> j & 1 for j in ess) for i in range(n))
    projection = any(all(val[i] == (i >> j) & 1 for i in range(n)) for j in range(arity))
    flags = {
        "R1": val[n - 1] == 1,
        "M": monotone,
        "L": linear,
        "L1": linear and val[n - 1] == 1,
        "V": not ess or or_shape,
        "E": not ess or and_shape,
        "N": len(ess) <= 1,
        "I": projection or not ess,
    }
    return {name for name, ok in flags.items() if ok}


# the clone an engine needs the signature to stay in (None: always sound)
ENGINE_NEEDS = {
    "generic": None,
    "affine_guess": {"L"},
    "reachability": {"I"},
    "monotone_iterative": {"M"},
    "r1_unique": {"R1"},
    "trivial_yes": {"R1"},
    "poly_fragment": {"M", "R1"},  # the monotone loop or the R1 loop
}


def classify_error(arity: int, bits: int, report: dict) -> str | None:
    flags = subset_flags(arity, bits)
    if set(report["subset"]) != flags:
        return f"subset {sorted(report['subset'])}, truth table gives {sorted(flags)}"
    for problem, engine in report["engines"].items():
        if engine not in ENGINE_NEEDS:
            return f"unknown engine {engine!r} for {problem}"
        needs = ENGINE_NEEDS[engine]
        if needs is not None and not needs & flags:
            return f"{engine} for {problem} needs one of {sorted(needs)}, flags {sorted(flags)}"
    return None
