"""Check that wrong outputs are counted as failed: python3 bench/selfcheck.py [--seed N]

For each workload it runs one round of the operations as they are (none
may fail), one round with every answer flipped (every operation must fail
and be counted wrong), and one round in which each returned yes-witness
of a 3SAT or hypergraph image is replaced by the empty generating set.
The empty set is never stable on those images, by construction: a rule
always fires from the facts alone (a guess rule of the 3SAT image, the
first chain edge of a hypergraph image), so every replaced witness must
fail.  The outputs are altered after the program returns them, through
the same counting code that run.py measures with.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run

EMPTY_UNSTABLE = ("3sat-ext", "hgap-conj-ext", "xorhgap-cred", "hgap-disj-ext")


def flip(op, fields: dict) -> dict:
    if "answer" in fields:
        return dict(fields, answer=not fields["answer"])
    subset = set(fields["subset"]) ^ {"R1"}  # classify: one clone flag wrong
    return dict(fields, subset=sorted(subset))


class EmptyWitness:
    def __init__(self):
        self.planted = 0

    def __call__(self, op, fields: dict) -> dict:
        if op.label.removeprefix("cli-") in EMPTY_UNSTABLE and fields.get("witness"):
            self.planted += 1
            return dict(fields, witness=())
        return fields


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    run.import_program()
    ok = True
    for workload in run.WORKLOADS:
        workdir = run.OUT / f"selfcheck-{workload}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            ops, _ = run.build(workload, args.seed, workdir)
            drift = run.Drift()
            clean = run.measure(ops, 0, 0, drift)
            flipped = run.measure(ops, 0, 0, drift, plant=flip)
            empty = EmptyWitness()
            unstable = run.measure(ops, 0, 0, drift, plant=empty)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        checks = [
            ("as returned: none failed", clean.failed == 0),
            ("answers flipped: all failed as wrong", flipped.wrong == flipped.attempted == len(ops)),
            (f"{empty.planted} empty witnesses planted: all failed",
             empty.planted > 0 and unstable.wrong == empty.planted),
        ]
        for what, passed in checks:
            print(f"{workload:8s} {what:45s} {'ok' if passed else 'FAILED'}")
            ok = ok and passed
        for problem in (clean.problems + unstable.problems)[:3]:
            print(f"         {problem}")
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
