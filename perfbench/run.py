"""Benchmark of the selfish-mining command line, one workload per run.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 10 --trace 0

A single caller drives ``selfish_mining.cli.main(argv)`` in this process,
one call after the other (a closed loop), repeating whole rounds of the
workload's operations until ``--seconds`` have passed; a round longer than
that runs once.  An operation is one CLI call with its output checks; a
nonzero exit status or a failed check counts it as failed.  ``--seed`` fixes
the generated arguments and nothing else reaches the program.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` every operation runs untraced and then traced, and the run
reports per-layer figures from the traced executions together with the
tracing overhead, the traced time over the untraced time.
The last line of standard output is the result as one JSON object; result
and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Cap BLAS threads at the CPU count before numpy is first imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
PACKAGE = "selfish_mining"

SETUP_PROBES = 3

BOUNDS_ALPHAS = tuple(checks.PUBLISHED_BOUNDS)
BOUNDS_T = 95
EPS = 1e-5

THRESHOLD_GAMMA = 0.5
THRESHOLD_T = 75
ALPHA_TOL = 1e-3

SIM_T = 75
SINGLE_ALPHA, SINGLE_GAMMA, SINGLE_ROUNDS = 0.45, 0.0, 200_000
BATCH_ALPHA, BATCH_GAMMA, BATCH_ROUNDS, BATCH_REPLICAS = 0.35, 0.5, 20_000, 100


@dataclass(frozen=True)
class Operation:
    """One CLI call.  ``prefix`` is its ``--out`` prefix; ``data`` are the
    suffixes of the data files it writes, which ``check`` receives parsed
    and which must not change from round to round."""

    argv: list[str]
    prefix: Path
    data: tuple[str, ...]
    check: Callable[[dict], None]


def bounds_workload(seed: int, work: Path) -> list[Operation]:
    """``optimize`` then ``evaluate`` of the emitted policy at the published
    gamma = 0 points, in an order drawn from the seed."""
    ops = []
    for alpha in random.Random(seed).sample(BOUNDS_ALPHAS, len(BOUNDS_ALPHAS)):
        point = ["--alpha", repr(alpha), "--gamma", "0", "--T", str(BOUNDS_T)]
        opt, ev = work / f"optimize-{alpha:.4f}", work / f"evaluate-{alpha:.4f}"
        sm1 = checks.sm1_truncated_revenue(alpha, BOUNDS_T)

        def check_optimize(data: dict, alpha=alpha, sm1=sm1) -> None:
            checks.check_bounds(alpha, data[".bounds.json"], sm1)

        def check_evaluate(data: dict, opt=opt) -> None:
            bounds = json.loads(opt.with_name(opt.name + ".bounds.json").read_text())
            checks.check_policy_revenue(data[".evaluate.json"]["rev"], bounds)

        ops.append(
            Operation(
                ["optimize", *point, "--eps", str(EPS), "--eps-prime", str(EPS),
                 "--out", str(opt)],
                opt,
                (".bounds.json", ".policy.json"),
                check_optimize,
            )
        )
        ops.append(
            Operation(
                ["evaluate", *point, "--policy", f"{opt}.policy.json", "--out", str(ev)],
                ev,
                (".evaluate.json",),
                check_evaluate,
            )
        )
    return ops


def threshold_workload(seed: int, work: Path) -> list[Operation]:
    """Threshold searches at gamma = 0.5 under both protocol variants, in an
    order drawn from the seed."""
    ops = []
    for variant in random.Random(seed).sample(["standard", "uniform"], 2):
        prefix = work / f"threshold-{variant}"

        def check(data: dict, variant=variant) -> None:
            checks.check_threshold(variant, data[".threshold.json"])

        ops.append(
            Operation(
                ["threshold", "--gamma", str(THRESHOLD_GAMMA), "--variant", variant,
                 "--T", str(THRESHOLD_T), "--eps", str(EPS),
                 "--alpha-tol", str(ALPHA_TOL), "--out", str(prefix)],
                prefix,
                (".threshold.json",),
                check,
            )
        )
    return ops


def montecarlo_workload(seed: int, work: Path) -> list[Operation]:
    """SM1 evaluated exactly, then simulated in two shapes: one long replica
    with long adopt-to-adopt cycles, and many short replicas with races.
    The simulator seeds are drawn from the benchmark seed."""
    rng = random.Random(seed)
    single_seed, batch_seed = rng.randrange(2**31), rng.randrange(2**31)
    single = ["--policy", "sm1", "--alpha", repr(SINGLE_ALPHA),
              "--gamma", repr(SINGLE_GAMMA), "--T", str(SIM_T)]
    exact = checks.sm1_truncated_revenue(SINGLE_ALPHA, SIM_T)
    closed = checks.sm1_closed_form(BATCH_ALPHA, BATCH_GAMMA)

    def check_evaluate(data: dict) -> None:
        checks.check_exact(data[".evaluate.json"]["rev"], exact)

    def check_single(data: dict) -> None:
        sim = data[".sim.json"]
        checks.check_simulated(sim["rev"], sim["stderr"], exact)

    def check_batch(data: dict) -> None:
        sim = data[".sim.json"]
        stderr = sim["std_rev"] / sim["replicas"] ** 0.5
        checks.check_simulated(sim["mean_rev"], stderr, closed)

    ev, one, many = work / "evaluate-sm1", work / "simulate-single", work / "simulate-batch"
    return [
        Operation(["evaluate", *single, "--out", str(ev)], ev,
                  (".evaluate.json",), check_evaluate),
        Operation(["simulate", *single, "--rounds", str(SINGLE_ROUNDS),
                   "--seed", str(single_seed), "--out", str(one)],
                  one, (".sim.json",), check_single),
        Operation(["simulate", "--policy", "sm1", "--alpha", repr(BATCH_ALPHA),
                   "--gamma", repr(BATCH_GAMMA), "--T", str(SIM_T),
                   "--rounds", str(BATCH_ROUNDS), "--replicas", str(BATCH_REPLICAS),
                   "--seed", str(batch_seed), "--out", str(many)],
                  many, (".sim.json", ".replicas.csv"), check_batch),
    ]


WORKLOADS = {
    "bounds": bounds_workload,
    "threshold": threshold_workload,
    "montecarlo": montecarlo_workload,
}


def import_cli():
    """The CLI module of the package under ``src/`` of this checkout, never
    an installed copy."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no {PACKAGE} package under {SRC}")
    sys.path.insert(0, str(SRC))
    import selfish_mining.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's copy")
    return cli


@dataclass
class Outcome:
    seconds: float
    ok: bool
    digest: str = ""
    error: str = ""


def run_operation(cli, op: Operation) -> Outcome:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        crash = ""
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects a flag by exiting
            code = exc.code
        except Exception:  # the program crashed: a failed operation
            code, crash = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
    if code != 0:
        return Outcome(elapsed, False, error=crash or f"exit {code}: {sink.getvalue()}")
    paths = [op.prefix.with_name(op.prefix.name + suffix) for suffix in op.data]
    try:
        raw = [path.read_bytes() for path in paths]
        parsed = {s: json.loads(b) for s, b in zip(op.data, raw) if s.endswith(".json")}
        op.check(parsed)
    except (OSError, ValueError, KeyError, TypeError, checks.CheckFailed) as exc:
        return Outcome(elapsed, False, error=f"{type(exc).__name__}: {exc}")
    return Outcome(elapsed, True, hashlib.sha256(b"\0".join(raw)).hexdigest())


@dataclass
class Tally:
    """Operations attempted and failed, and the data digest each operation
    gave first; an execution that gives another digest makes the run
    incorrect."""

    attempted: int = 0
    failed: int = 0
    changed: int = 0
    digests: dict[int, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def record(self, index: int, op: Operation, outcome: Outcome) -> float:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.errors.append(f"{' '.join(op.argv)}: {outcome.error}")
        elif self.digests.setdefault(index, outcome.digest) != outcome.digest:
            self.changed += 1
            self.errors.append(f"{' '.join(op.argv)}: output changed")
        return outcome.seconds


def run_round(
    cli, ops: list[Operation], work: Path, tally: Tally, tracer: spans.Tracer | None
) -> tuple[float, float]:
    """One round of the workload.  Returns the summed wall time of its CLI
    calls, and with a tracer the summed time of a traced second execution of
    each call, made right after the untraced one so that both see the same
    load on the machine.  Outputs of earlier rounds are removed first, so a
    check never reads a stale file."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plain = traced = 0.0
    for index, op in enumerate(ops):
        plain += tally.record(index, op, run_operation(cli, op))
        if tracer is not None:
            with tracer.installed(PACKAGE):
                traced += tally.record(index, op, run_operation(cli, op))
    return plain, traced


def measure_setup(args: argparse.Namespace) -> float:
    """Median wall time of fresh processes that import the program and
    generate this workload's inputs, then exit."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_cli()
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    ops = WORKLOADS[args.workload](args.seed, work)
    if args.setup_only:
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    setup_s = None if args.trace else measure_setup(args)
    tracer = spans.Tracer() if args.trace else None
    tally = Tally()
    rounds: list[tuple[float, float]] = []
    try:
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < args.seconds:
            rounds.append(run_round(cli, ops, work, tally, tracer))
        # every operation overwrites its own files, so this is one round's output
        bytes_written = sum(path.stat().st_size for path in work.iterdir())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans, len(rounds))
        layers["cli.bytes_written"] = bytes_written
        plain, traced = map(sum, zip(*rounds))
        layers["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = {m["name"]: metric(layers[m["name"]], m["unit"])
                   for m in declared["per_layer"]}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "round_s": metric(statistics.median(plain for plain, _ in rounds), "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }

    result = {
        "correct": tally.changed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        {**result, "rounds": rounds, "errors": tally.errors}, indent=2))
    for error in tally.errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
