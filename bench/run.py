"""postdl benchmark: python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (search, fixpoint or cli; "all" runs each in its own
process) as a closed loop with one caller: the next operation starts when
the last one returns.  A round is the workload's fixed operation list,
built from the seed at set-up; rounds repeat until S seconds have passed
and, untraced, at least MIN_OPS operations are done, so percentiles have
ten samples beyond them.  Every answer and witness is checked against the
benchmark's own oracles (oracles.py).

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics, end-to-end ones with --trace 0 and per-layer ones with
--trace 1.  The README explains every metric and the drift correction.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from bisect import bisect_left, bisect_right  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from functools import cache  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("search", "fixpoint", "cli")
MIN_OPS = 100
SETUP_SAMPLES = 9  # set-ups per run: this process plus eight --setup-only children
CHILD_TIMEOUT_S = 60

# Drift correction: a short fixed pure-Python loop is timed next to the
# operations, and each operation's time is scaled by REFERENCE_S over the
# loop times on both sides of it; operations with drift_corrected=False
# are timed raw, where that was steadier (README, "Timing method").
REFERENCE_ITERS = 4000
REFERENCE_S = 0.000500
DRIFT_INTERVAL_S = 0.05

# classify --defconn on these ternary truth tables: one code per residue
# mod 16, the same sample for every seed
CLASSIFY_CODES = tuple(range(0, 256, 17))

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)
PER_LAYER = (
    ("formula.table_int.calls", "count"),
    ("formula.table_int.self_ms", "ms"),
    ("formula.table_int.repeat_calls", "count"),
    *(
        (f"implication.{fn}.{what}", unit)
        for fn in ("truth_table_implies", "affine_implies", "conjunctive_implies", "disjunctive_implies")
        for what, unit in (("calls", "count"), ("self_ms", "ms"))
    ),
    ("implication.normalize_flat.repeat_calls", "count"),
    ("implication.linear_row.repeat_calls", "count"),
    ("engine.decide.self_ms", "ms"),
    ("engine.subsets_checked", "count"),
    ("engine.implication_calls", "count"),
    ("clones.dispatch_case.self_ms", "ms"),
    ("clones.slice3_closure.self_ms", "ms"),
    ("properties.function_signature.calls", "count"),
    ("cli.import_ms", "ms"),
    ("reductions.build.self_ms", "ms"),
    ("theory.eliminate_constant_true.self_ms", "ms"),
    ("formats.read_theory.self_ms", "ms"),
    ("formats.write_theory.self_ms", "ms"),
    ("trace.slowdown", "ratio"),
)


def import_program():
    """Import postdl from this checkout's src/ and time it."""
    if not (SRC / "postdl" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'postdl'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import postdl.cli  # noqa: F401

    import_ms = (perf_counter() - start) * 1000
    import postdl

    if Path(postdl.__file__).resolve().parent != SRC / "postdl":
        sys.exit(f"error: imported postdl from {postdl.__file__}, not from {SRC}")
    return import_ms


# ---------------------------------------------------------------------------
# operations
#
# Oracle answers are computed on first use (functools.cache), so set-up
# holds only program work and input generation.


@dataclass
class Op:
    label: str
    run: Callable[[], object]  # the timed call
    result: Callable[[object], dict]  # its output as plain fields, untimed
    check: Callable[[dict], "str | None"]  # why the fields are wrong, or None
    drift_corrected: bool = True  # False where raw times are steadier (README)


def roundtrip(theory, goal):
    """write_theory then read_theory; returns (theory, goal, text)."""
    from postdl import formats

    text = formats.write_theory(theory, goal)
    theory, goal = formats.read_theory(text)
    return theory, goal, text


def parsed(text: str) -> Callable[[], oracles.Theory]:
    """The oracle's reading of a theory file, parsed on first use."""
    return cache(lambda: oracles.parse_theory(text))


def decide_op(label, problem, theory, goal, own, expected, drift_corrected=True) -> Op:
    """An in-process decide() call checked against the oracle theory own()."""
    from postdl import engine

    logic = cache(lambda: oracles.logic_for(own()))

    def run():
        return engine.decide(problem, theory, goal if problem != "ext" else None, want_witness=True)

    def result(d):
        return {"answer": d.answer, "witness": d.witness.generating if d.witness else None}

    def check(res):
        return oracles.decision_error(problem, expected(), res["answer"], res["witness"], own(), logic())

    return Op(f"{label}-{problem}", run, result, check, drift_corrected)


def imp_queries(rng: random.Random) -> list:
    """(engine, premises, goal, premises text) per implication engine."""
    out = []
    for engine, conns in inputs.IMP_CONNECTIVES.items():
        premises, goal = inputs.imp_query(rng, conns)
        out.append((engine, premises, goal, oracles.theory_text(premises, [], goal)))
    return out


def imp_ops(rng: random.Random) -> list[Op]:
    """In-process implies() calls, engine chosen from the connectives."""
    from postdl import implication

    ops = []
    for engine, premises, goal, text in imp_queries(rng):
        theory, goal_f, _ = read_roundtrip(text)
        expected = cache(lambda p=premises, g=goal: oracles.entails(p, g))
        ops.append(Op(
            f"imp-{engine}",
            lambda w=list(theory.W), g=goal_f: implication.implies(w, g),
            lambda answer: {"answer": answer},
            lambda res, e=expected: None if res["answer"] is e() else f"answer {res['answer']}, oracle says {e()}",
        ))
    return ops


def search_ops(rng: random.Random) -> list[Op]:
    from postdl import reductions

    ops = []
    for clauses in inputs.balanced_cnfs(
        rng, inputs.CNF_SAT, inputs.CNF_UNSAT, inputs.CNF_VARS, inputs.CNF_CLAUSES
    ):
        sat = cache(lambda c=clauses: oracles.cnf_sat(inputs.CNF_VARS, c))
        for mode in ("ext", "skep"):
            image = reductions.threesat_to_default(reductions.CnfFormula(inputs.CNF_VARS, clauses), mode)
            theory, goal, text = roundtrip(*image)
            expected = sat if mode == "ext" else (lambda s=sat: not s())
            ops.append(decide_op("3sat", mode, theory, goal, parsed(text), expected))
    for _ in range(inputs.AON_THEORIES):
        W, D, goal = inputs.aon_theory(rng)
        own = oracles.Theory(W, D, goal)
        theory, goal_f, _ = read_roundtrip(oracles.theory_text(W, D, goal))
        answers = cache(lambda t=own: oracles.reiter_answers(t))
        for problem in ("ext", "cred", "skep"):
            ops.append(decide_op("aon", problem, theory, goal_f, lambda t=own: t, lambda p=problem, a=answers: a()[p]))
    return ops + imp_ops(rng)


def read_roundtrip(text: str):
    """read_theory of the benchmark's own text, then the round trip."""
    from postdl import formats

    return roundtrip(*formats.read_theory(text))


def fixpoint_ops(rng: random.Random) -> list[Op]:
    from postdl import reductions

    def hypergraph(nodes, edges):
        return reductions.Hypergraph(tuple(nodes), tuple(edges))

    ops = []
    for k, n in enumerate(inputs.CONJ_NODES):
        nodes, edges, s, t = inputs.reversed_chain(rng, n, k % 2 == 1, inputs.TWO_SOURCE_EVERY)
        reach = cache(lambda e=edges, s=s, t=t: oracles.reachable(e, [s], t))
        theory, goal, text = roundtrip(reductions.hgap_to_ext(hypergraph(nodes, edges), [s], t, "conjunctive"), None)
        ops.append(decide_op("hgap-conj", "ext", theory, goal, parsed(text), lambda r=reach: not r()))
    for k, n in enumerate(inputs.XOR_NODES):
        nodes, edges, s, t = inputs.reversed_chain(rng, n, k % 2 == 1, inputs.TWO_SOURCE_EVERY)
        reach = cache(lambda e=edges, s=s, t=t: oracles.reachable(e, [s], t))
        theory, goal, text = roundtrip(*reductions.xor_hgap_to_cred(hypergraph(nodes, edges), [s], t))
        ops.append(decide_op("xorhgap", "cred", theory, goal, parsed(text), reach))
    for k, n in enumerate(inputs.DISJ_NODES):
        nodes, edges, s, t = inputs.reversed_chain(rng, n, k % 2 == 1)
        reach = cache(lambda e=edges, s=s, t=t: oracles.reachable(e, [s], t))
        theory, goal, text = roundtrip(reductions.hgap_to_ext(hypergraph(nodes, edges), [s], t, "disjunctive"), None)
        ops.append(decide_op("hgap-disj", "ext", theory, goal, parsed(text), lambda r=reach: not r()))
    for m, clauses in inputs.patterned_snsat(rng):
        value = cache(lambda m=m, c=clauses: oracles.chain_values(m, c)[-1] == 1)
        theory, goal, text = roundtrip(reductions.snsat_to_ext(reductions.SnsatInstance(m, clauses)), None)
        # big-integer table work: steady raw, noisier when rescaled by a
        # pure-Python reference loop
        ops.append(decide_op("snsat", "ext", theory, goal, parsed(text), value, False))
    return ops + imp_ops(rng)


class Cli:
    """Runs cold postdl processes.  With records set to a list, each runs
    through launch_cli.py and its trace record is appended there."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.records: list | None = None
        self._count = 0

    def run(self, args: list[str]):
        spans = None
        if self.records is None:
            cmd = [sys.executable, "-m", "postdl.cli", *args]
        else:
            self._count += 1
            spans = self.workdir / f"spans-{self._count}.json"
            cmd = [sys.executable, str(BENCH / "launch_cli.py"), str(spans), *args]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return proc, spans

    def output(self, raw) -> dict:
        proc, spans = raw
        if spans is not None:
            self.records.append(json.loads(spans.read_text(encoding="utf-8")))
            spans.unlink()
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return json.loads(proc.stdout)


def cli_ops(rng: random.Random, workdir: Path) -> tuple[list[Op], Cli]:
    from postdl import reductions

    cli = Cli(workdir)
    ops = []
    for code in CLASSIFY_CODES:
        bits = "".join(str(code >> i & 1) for i in range(8))
        args = ["classify", "--defconn", f"f 3 {bits}", "--json"]
        ops.append(Op(
            f"classify-{code}",
            lambda a=args: cli.run(a),
            cli.output,
            lambda res, c=code: oracles.classify_error(3, c, res),
        ))

    files = []  # (label, problem, theory text, expected answer on first use)
    clauses = inputs.cnf(rng, 3, 4)
    sat = cache(lambda: oracles.cnf_sat(3, clauses))
    for mode in ("ext", "skep"):
        image = reductions.threesat_to_default(reductions.CnfFormula(3, clauses), mode)
        files.append(("3sat", mode, roundtrip(*image)[2], sat if mode == "ext" else (lambda: not sat())))
    nodes, edges, s, t = inputs.reversed_chain(rng, 8, True, inputs.TWO_SOURCE_EVERY)
    h = reductions.Hypergraph(tuple(nodes), tuple(edges))
    reach = cache(lambda e=edges, s=s, t=t: oracles.reachable(e, [s], t))
    files.append(("hgap-conj", "ext", roundtrip(reductions.hgap_to_ext(h, [s], t), None)[2], lambda r=reach: not r()))
    nodes, edges, s, t = inputs.reversed_chain(rng, 8, False, inputs.TWO_SOURCE_EVERY)
    h = reductions.Hypergraph(tuple(nodes), tuple(edges))
    reach = cache(lambda e=edges, s=s, t=t: oracles.reachable(e, [s], t))
    files.append(("xorhgap", "cred", roundtrip(*reductions.xor_hgap_to_cred(h, [s], t))[2], reach))
    for problem in ("ext", "cred", "skep", "cred"):
        own = oracles.Theory(*inputs.aon_theory(rng))
        text = read_roundtrip(oracles.theory_text(own.W, own.D, own.goal))[2]
        files.append(("aon", problem, text, cache(lambda t=own, p=problem: oracles.reiter_answers(t)[p])))

    for engine, premises, goal, text in imp_queries(rng):
        text = read_roundtrip(text)[2]
        files.append((engine, "imp", text, cache(lambda p=premises, g=goal: oracles.entails(p, g))))

    for n, (label, problem, text, expected) in enumerate(files):
        path = workdir / f"theory-{n}.dt"
        path.write_text(text, encoding="utf-8")
        own = parsed(text)
        logic = cache(lambda o=own: oracles.logic_for(o()))
        args = [problem, str(path), "--json"] + (["--witness"] if problem != "imp" else [])

        def check(res, p=problem, e=expected, own=own, logic=logic):
            if p == "imp":
                return None if res["answer"] is e() else f"answer {res['answer']}, oracle says {e()}"
            witness = tuple(res["witness"]) if res["witness"] is not None else None
            return oracles.decision_error(p, e(), res["answer"], witness, own(), logic())

        ops.append(Op(f"cli-{label}-{problem}", lambda a=args: cli.run(a), cli.output, check))
    return ops, cli


def build(workload: str, seed: int, workdir: Path):
    """The workload's operation list (and the Cli runner for cli)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search":
        return search_ops(rng), None
    if workload == "fixpoint":
        return fixpoint_ops(rng), None
    return cli_ops(rng, workdir)


# ---------------------------------------------------------------------------
# measurement


def _reference_loop() -> float:
    start = perf_counter()
    acc, table = 0, {}
    for i in range(REFERENCE_ITERS):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 63] = acc
    return perf_counter() - start


class Drift:
    """Timeline of reference-loop times.  A sample is taken before an
    operation when the last one is older than DRIFT_INTERVAL_S, and after
    every operation longer than that, so an operation's time is rescaled
    by the samples on both sides of it."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []

    def tick(self, op_seconds: float = 0.0) -> None:
        if self.times and op_seconds < DRIFT_INTERVAL_S and perf_counter() - self.times[-1] < DRIFT_INTERVAL_S:
            return
        ref = min(_reference_loop() for _ in range(3))
        self.times.append(perf_counter())
        self.refs.append(ref)

    def corrected(self, start: float, seconds: float) -> float:
        """seconds, as if the reference loop had taken REFERENCE_S."""
        before = self.refs[max(bisect_right(self.times, start) - 1, 0)]
        after = self.refs[min(bisect_left(self.times, start + seconds), len(self.refs) - 1)]
        return seconds * 2 * REFERENCE_S / (before + after)


@dataclass
class Measurement:
    starts: list  # perf_counter at the start of each operation that returned
    raw: list  # its wall time in seconds
    corrects: list  # whether its time is drift-corrected
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    rounds: int = 0
    problems: list = field(default_factory=list)

    def latencies(self, drift: Drift) -> list[float]:
        return [drift.corrected(t, s) if c else s for t, s, c in zip(self.starts, self.raw, self.corrects)]


def measure(ops, seconds: float, min_ops: int, drift: Drift, plant=None) -> Measurement:
    """Whole rounds of ops until seconds have passed and min_ops are done.
    plant(op, fields) may alter outputs before the check (selfcheck.py)."""
    m = Measurement([], [], [])
    start = perf_counter()
    while True:
        for op in ops:
            m.attempted += 1
            drift.tick()
            t0 = perf_counter()
            try:
                raw = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                m.failed += 1
                m.problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            elapsed = perf_counter() - t0
            drift.tick(elapsed)
            m.starts.append(t0)
            m.raw.append(elapsed)
            m.corrects.append(op.drift_corrected)
            try:
                fields = op.result(raw)
                if plant is not None:
                    fields = plant(op, fields)
                error = op.check(fields)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                m.failed += 1
                m.wrong += 1
                m.problems.append(f"{op.label}: {error}")
        m.rounds += 1
        if perf_counter() - start >= seconds and m.attempted >= min_ops:
            return m


def setup_samples(args) -> list[float]:
    """Drift-corrected set-up time of SETUP_SAMPLES - 1 fresh processes."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=10)[q - 1]


def per_layer(setup_record: dict, op_records: list, rounds: int, import_ms: float, slowdown: float) -> dict:
    """Each layer metric for one set-up plus one round of operations."""
    setup = layer_totals(setup_record)
    ops = Counter()
    for record in op_records:
        ops.update(layer_totals(record))
    values = {name: setup[name] + ops[name] / rounds for name, _ in PER_LAYER}
    values["cli.import_ms"] = import_ms
    values["trace.slowdown"] = slowdown
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        # each workload in its own process, its output passed through
        for workload in WORKLOADS:
            code = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
            if code != 0:
                return code
        return 0

    # One CPU for this process and the postdl processes it starts, so the
    # reference loop times the CPU the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_ms = import_program()
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, import_ms, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, import_ms: float, workdir: Path) -> int:
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ops, cli = build(args.workload, args.seed, workdir)
    setup_s = (perf_counter() - PROCESS_START) * REFERENCE_S / min(_reference_loop() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    drift = Drift()
    if tracer:
        runs, metrics = traced_run(args, ops, cli, tracer, drift, import_ms)
        units = dict(PER_LAYER)
    else:
        runs, metrics = untraced_run(args, ops, cli, drift, setup_s)
        units = dict(END_TO_END)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for problem in [p for r in runs for p in r.problems][:10]:
        print(f"# failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations in "
          f"{sum(r.rounds for r in runs)} rounds of {len(ops)}, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": not any(r.wrong for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def untraced_run(args, ops, cli, drift: Drift, setup_s: float):
    m = measure(ops, args.seconds, MIN_OPS, drift)
    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    peak_rss_mib = resource.getrusage(usage).ru_maxrss / 1024  # before the set-up children
    lat = m.latencies(drift)
    raw = m.raw
    print(f"# raw ops_per_s={len(raw) / sum(raw):.4f} p50_ms={statistics.median(raw) * 1000:.3f} "
          f"p90_ms={quantile(raw, 9) * 1000:.3f} "
          f"reference_median_ms={statistics.median(drift.refs) * 1000:.4f}", file=sys.stderr)
    return (m,), {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": quantile(lat, 9) * 1000,
        "peak_rss_mib": peak_rss_mib,
        "setup_s": statistics.median([setup_s, *setup_samples(args)]),
    }


def traced_run(args, ops, cli, tracer: Tracer, drift: Drift, import_ms: float):
    """One traced round after the traced set-up, then untraced rounds for
    the rest of the time, for the tracing overhead."""
    setup_record = tracer.take()
    if cli:
        cli.records = []
    start = perf_counter()
    traced = measure(ops, 0, 0, drift)
    if cli:
        op_records, cli.records = cli.records, None
        imports = [r["import_ms"] for r in op_records]
    else:
        op_records, imports = [tracer.take()], [import_ms]
    tracer.uninstall()
    untraced = measure(ops, args.seconds - (perf_counter() - start), 0, drift)
    with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"setup": setup_record, "ops": op_records, "rounds": traced.rounds}, fh)
    speed = [len(m.raw) / sum(m.latencies(drift)) for m in (untraced, traced)]
    return (traced, untraced), per_layer(
        setup_record, op_records, traced.rounds, statistics.median(imports), speed[0] / speed[1]
    )


if __name__ == "__main__":
    sys.exit(main())
