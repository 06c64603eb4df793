"""Command-line interface.

Answers are data on stdout ("yes"/"no", or JSON with --json); the exit
code only reports whether the run succeeded: 0 success, 2 bad input,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .boolfun import BUILTINS, BoolFun
from .clones import dispatch_case
from .engine import ENGINES, decide
from .errors import CapExceeded, InputError, ReasonerError
from .formats import (
    read_connective,
    read_digraph,
    read_dimacs,
    read_hypergraph,
    read_snsat,
    read_theory,
    write_theory,
)
from .formula import parse, serialize
from .implication import ENGINES as IMP_ENGINES, implies
from .reductions import (
    gap_to_default,
    hgap_to_ext,
    pad_to_three,
    snsat_to_ext,
    threesat_to_default,
    xor_hgap_to_cred,
)


def _load_theory(path: str):
    return read_theory(Path(path).read_text(encoding="utf-8"), filename=path)


def _load_query(command: str, args):
    """The theory file and its goal; --goal overrides the file's goal:
    line, and every command but ext needs a goal."""
    theory, goal = _load_theory(args.theory)
    if args.goal is not None:
        goal = parse(args.goal, {f.name: f for f in theory.signature} | BUILTINS, allow_reserved=True)
    if goal is None and command != "ext":
        raise InputError(f"{command} needs a goal: line in the file or --goal")
    return theory, goal


def _signature_from_args(args) -> dict[str, BoolFun]:
    sig: dict[str, BoolFun] = {}
    if args.conns:
        for name in args.conns.split(","):
            name = name.strip()
            if name not in BUILTINS:
                raise InputError(f"unknown builtin connective {name!r}")
            sig[name] = BUILTINS[name]
    for decl in args.defconn or []:
        try:
            f = read_connective(decl)
        except InputError as exc:
            raise InputError(f"--defconn {decl!r}: {exc}") from None
        if f.name in sig:
            raise InputError(f"--defconn {decl!r}: connective {f.name!r} is already declared")
        sig[f.name] = f
    return sig


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    if "answer" in payload:
        print("answer:", "yes" if payload["answer"] else "no")
        for key in ("problem", "engine", "case"):
            print(f"{key}:", payload[key])
        if payload.get("witness") is not None:
            flag = " (inconsistent)" if payload.get("witness_inconsistent") else ""
            print("witness:", payload["witness"], flag, sep="")
        stats = payload["stats"]
        print(
            f"stats: subsets_checked={stats['subsets_checked']} "
            f"implication_calls={stats['implication_calls']}"
        )
    else:
        print("subset:", ", ".join(payload["subset"]) or "(none)")
        print("contains:", ", ".join(payload["contains"]) or "(none)")
        print("cases:", " ".join(f"{k}={v}" for k, v in payload["cases"].items()))
        print("engines:", " ".join(f"{k}={v}" for k, v in payload["engines"].items()))


def _cmd_classify(args) -> int:
    if args.theory:
        if args.conns or args.defconn:
            raise InputError("give a theory file or --conns/--defconn, not both")
        theory, _ = _load_theory(args.theory)
        signature = theory.signature
    else:
        signature = _signature_from_args(args)
        if not signature:
            raise InputError("give a theory file or --conns/--defconn")
    report = dispatch_case(signature)
    _emit(report.to_json(), args.json)
    return 0


def _cmd_decide(problem: str, args) -> int:
    theory, goal = _load_query(problem, args)
    decision = decide(problem, theory, goal, engine=args.engine, want_witness=args.witness)
    _emit(decision.to_json(), args.json)
    return 0


def _cmd_imp(args) -> int:
    theory, goal = _load_query("imp", args)
    if theory.D:
        raise InputError("imp reads the premises from W:; the file must not have rules")
    answer = implies(list(theory.W), goal, theory.signature, engine=args.engine)
    payload = {
        "problem": "imp",
        "answer": answer,
        "engine": args.engine,
        "premises": [serialize(w) for w in theory.W],
        "goal": serialize(goal),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("answer:", "yes" if answer else "no")
    return 0


def _cmd_reduce(args) -> int:
    text = Path(args.instance).read_text(encoding="utf-8")
    goal = None
    if args.source == "3sat":
        cnf = pad_to_three(read_dimacs(text, args.instance))
        theory, goal = threesat_to_default(cnf, args.mode)
    elif args.source == "gap":
        g, s, t = read_digraph(text, args.instance)
        theory, goal = gap_to_default(g, s, t, args.mode)
    elif args.source == "hgap":
        h, sources, t = read_hypergraph(text, args.instance)
        theory = hgap_to_ext(h, sources, t, args.variant)
    elif args.source == "xorhgap":
        h, sources, t = read_hypergraph(text, args.instance)
        theory, goal = xor_hgap_to_cred(h, sources, t)
    elif args.source == "snsat":
        theory = snsat_to_ext(read_snsat(text, args.instance))
    else:
        raise InputError(f"unknown reduction source {args.source!r}")
    out = write_theory(theory, goal)
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="postdl",
        description="default-logic reasoning with clone-based engine dispatch",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    cl = sub.add_parser("classify", help="clone analysis and complexity cases for a signature")
    cl.add_argument("theory", nargs="?", help="theory file (classify its signature)")
    cl.add_argument("--conns", help="comma-separated builtin connectives, e.g. 'or,xor3'")
    cl.add_argument("--defconn", action="append", help="custom connective 'NAME ARITY BITSTRING'")
    cl.add_argument("--json", action="store_true")

    for problem in ("ext", "cred", "skep"):
        dp = sub.add_parser(problem, help=f"decide {problem} for a theory file")
        dp.add_argument("theory")
        dp.add_argument("--goal", help="goal formula (overrides the file's goal: line)")
        dp.add_argument("--engine", default="auto", choices=ENGINES)
        dp.add_argument("--witness", action="store_true")
        dp.add_argument("--json", action="store_true")

    ip = sub.add_parser("imp", help="premises (W:) entail the goal?")
    ip.add_argument("theory")
    ip.add_argument("--goal")
    ip.add_argument("--engine", default="auto", choices=IMP_ENGINES)
    ip.add_argument("--json", action="store_true")

    rd = sub.add_parser("reduce", help="map a source instance to a theory file")
    rd.add_argument("source", choices=["3sat", "gap", "hgap", "xorhgap", "snsat"])
    rd.add_argument("instance", help="DIMACS CNF, edge list, or chain-CNF file")
    rd.add_argument("--mode", default="ext", choices=["ext", "skep", "cred"])
    rd.add_argument("--variant", default="conjunctive", choices=["conjunctive", "disjunctive"])
    rd.add_argument("-o", "--output")

    st = sub.add_parser("selftest", help="seeded end-to-end self-check")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--full", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command in ("ext", "cred", "skep"):
            return _cmd_decide(args.command, args)
        if args.command == "imp":
            return _cmd_imp(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        if args.command == "selftest":
            # imported here: no other command needs selftest or gen compiled
            from .selftest import run_selftest

            return run_selftest(seed=args.seed, quick=not args.full)
        raise InputError(f"unknown command {args.command!r}")
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ReasonerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
