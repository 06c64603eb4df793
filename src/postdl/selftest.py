"""Seeded end-to-end self-check, a condensed version of the test suite."""

from __future__ import annotations

import random

from .boolfun import BUILTINS
from .clones import dispatch_case
from .engine import ExtensionWitness, check_stable, decide, enumerate_extensions
from .gen import (
    FAMILIES,
    random_digraph,
    random_fragment_formula,
    random_hypergraph,
    random_snsat,
    random_theory,
    random_goal,
)
from .implication import (
    affine_implies,
    conjunctive_implies,
    disjunctive_implies,
    truth_table_implies,
)
from .reductions import (
    gap_reach,
    gap_to_default,
    hgap_reach,
    hgap_to_ext,
    snsat_eval,
    snsat_to_ext,
    xor_hgap_to_cred,
)

_GOLDEN = {
    ("and", "not"): ("SigmaP2", "SigmaP2", "PiP2"),
    ("or",): ("trivial", "P", "P"),
    ("id",): ("trivial", "NL", "NL"),
    ("not",): ("NP", "NP", "coNP"),
    ("s10", "bot"): ("DeltaP2", "DeltaP2", "DeltaP2"),
}


def _classify_section() -> tuple[bool, str]:
    for base, expect in _GOLDEN.items():
        rep = dispatch_case([BUILTINS[n] for n in base])
        got = (rep.ext_case, rep.cred_case, rep.skep_case)
        if got != expect:
            return False, f"dispatch({base}) = {got}, expected {expect}"
    return True, f"{len(_GOLDEN)} golden signatures"


def _engines_section(rng: random.Random, per_family: int) -> tuple[bool, str]:
    checked = 0
    for family in FAMILIES:
        for _ in range(per_family):
            theory = random_theory(rng, family)
            goal = random_goal(rng, theory, family)
            for problem in ("ext", "cred", "skep"):
                g = None if problem == "ext" else goal
                fast = decide(problem, theory, g, want_witness=True)
                slow = decide(problem, theory, g, engine="generic", want_witness=True)
                checked += 1
                if fast.answer != slow.answer:
                    return False, (
                        f"{problem} mismatch on a {family} theory: "
                        f"{fast.engine}={fast.answer} generic={slow.answer}"
                    )
                for d in (fast, slow):
                    if d.witness is not None and not _witness_holds(problem, theory, goal, d.witness):
                        return False, f"{d.engine} returned a bad {problem} witness on a {family} theory"
                if g is not None and (slow.answer, slow.witness) != _from_extensions(problem, theory, goal):
                    return False, f"generic {problem} disagrees with the extension list on a {family} theory"
    return True, f"{checked} engine-vs-generic decisions, witnesses checked, cred and skep against the extension list"


def _from_extensions(problem: str, theory, goal) -> tuple[bool, ExtensionWitness | None]:
    """cred or skep read off the unpruned extension list: the first
    extension that entails (cred) or fails (skep) the goal."""
    infos, ctx = enumerate_extensions(theory, goal)
    g = ctx.table(goal)
    for info in infos:
        if (info.models & g == info.models) == (problem == "cred"):
            return problem == "cred", ExtensionWitness(info.generating, inconsistent=info.models == 0)
    return problem == "skep", None


def _witness_holds(problem: str, theory, goal, witness) -> bool:
    """The witness generates a stable extension; a cred witness entails the
    goal, a skep counter-witness does not."""
    gen = witness.generating
    if not check_stable(theory, gen):
        return False
    if problem == "ext":
        return True
    extension = list(theory.W) + [theory.D[i].consequent for i in gen]
    return truth_table_implies(extension, goal) == (problem == "cred")


def _implication_section(rng: random.Random, rounds: int) -> tuple[bool, str]:
    for kind, frag in (("affine", affine_implies), ("conj", conjunctive_implies), ("disj", disjunctive_implies)):
        for _ in range(rounds):
            prems = [random_fragment_formula(rng, kind, max_vars=6) for _ in range(rng.randint(0, 4))]
            goal = random_fragment_formula(rng, kind, max_vars=6)
            if frag(prems, goal) != truth_table_implies(prems, goal):
                return False, f"{kind} fragment disagrees with the oracle"
    return True, f"3x{rounds} fragment implications"


def _reductions_section(rng: random.Random, rounds: int) -> tuple[bool, str]:
    for _ in range(rounds):
        g, s, t = random_digraph(rng, max_nodes=6)
        reach = gap_reach(g, s, t)
        th, _ = gap_to_default(g, s, t, "ext")
        if decide("ext", th).answer != (not reach):
            return False, "gap ext image disagrees with reachability"
        th, goal = gap_to_default(g, s, t, "cred")
        if decide("cred", th, goal).answer != reach:
            return False, "gap cred image disagrees with reachability"
    for _ in range(rounds):
        h, sources, t = random_hypergraph(rng, max_nodes=6, max_edges=6)
        reach = hgap_reach(h, sources, t)
        th = hgap_to_ext(h, sources, t, "conjunctive")
        if decide("ext", th).answer != (not reach):
            return False, "conjunctive hgap image disagrees with reachability"
        th, goal = xor_hgap_to_cred(h, sources, t)
        if decide("cred", th, goal).answer != reach:
            return False, "xor hgap image disagrees with reachability"
    for _ in range(rounds):
        inst = random_snsat(rng)
        if decide("ext", snsat_to_ext(inst)).answer != bool(snsat_eval(inst)):
            return False, "snsat image disagrees with the chain oracle"
    return True, f"{3 * rounds} reduction round trips"


def _uniqueness_section(rng: random.Random, rounds: int) -> tuple[bool, str]:
    for _ in range(rounds):
        theory = random_theory(rng, "r1", max_vars=4, max_rules=4)
        infos, _ = enumerate_extensions(theory)
        if len({i.models for i in infos}) != 1:
            return False, "an r1 theory without exactly one extension"
    for _ in range(rounds):
        theory = random_theory(rng, "m", max_vars=4, max_rules=4)
        infos, _ = enumerate_extensions(theory)
        if len({i.models for i in infos}) > 1:
            return False, "a monotone theory with two distinct extensions"
    return True, f"2x{rounds} uniqueness checks"


def run_selftest(seed: int = 0, quick: bool = True) -> int:
    """Run all sections; prints one line per section, returns an exit code."""
    rng = random.Random(seed)
    scale = 1 if quick else 5
    sections = [
        ("classify", lambda: _classify_section()),
        ("engines", lambda: _engines_section(rng, 8 * scale)),
        ("implication", lambda: _implication_section(rng, 40 * scale)),
        ("reductions", lambda: _reductions_section(rng, 10 * scale)),
        ("uniqueness", lambda: _uniqueness_section(rng, 15 * scale)),
    ]
    failed = False
    for name, fn in sections:
        ok, info = fn()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {info}")
        failed |= not ok
    return 1 if failed else 0
