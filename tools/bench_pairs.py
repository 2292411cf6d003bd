"""Paired benchmark runs of two checkouts, summarized into a BENCH file.

    python3 tools/bench_pairs.py --before ../parent --after . \
        --workloads bounds,threshold,montecarlo --seeds 1-10 --seconds 20

For each workload and seed, ``python3 perfbench/run.py`` runs once in each
checkout, the two runs of a pair back to back and their order alternating
from seed to seed, so that drift in the machine's load falls on both sides
alike.  Each workload's metrics are the end-to-end metrics of
``BENCHMARK.json``; the file gets their medians and quartiles per side and
the number of pairs in which the after side was better.  With ``--trace``,
one traced run per side and workload adds the per-layer scalarization,
solver and simulator figures, the solver's time per Bellman sweep
(``mdp.sweep_ms``) among them; the threshold search's decision passes are
solves, so the traced ``mdp.solve_calls`` and ``mdp.rvi_sweeps`` count them
too.  ``mdp.sweep_ms`` is solve time over Bellman applications, so it counts
the LU factorizations of policy iteration as sweep time.  So ``--trace``
also counts one round's Bellman applications and LU factorizations, and
the states those LUs factor (``lu_states``), directly, in a fresh
interpreter per side that wraps ``mdp._bellman`` and ``mdp._factorized``.
Before the workloads, five fresh interpreters per side, alternating, each
only import ``selfish_mining.cli``; the file gets their wall time, peak RSS
and number of loaded modules, the layer every CLI process pays before its
first operation.

The summary goes to ``BENCH_<name>.json`` at the root of the repository
that holds this script.  A workload's section is keyed by workload and
seeds, and the startup probes by the call's seeds, so a later call with
other seeds (say a confirmation on seeds 101-110) adds its sections and one
with the same seeds replaces them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_LAYERS = (
    "chain.build_calls", "chain.scalarize_calls", "chain.scalarize_s",
    "optimize.find_optimal_calls",
    "mdp.solve_calls", "mdp.solve_s", "mdp.rvi_sweeps", "mdp.sweep_ms",
    "mdp.evaluate_calls", "mdp.evaluate_s", "mdp.reachable_s",
    "mdp.reachable_states", "mdp.stationary_s",
    "simulate.loop_s", "simulate.loop_rounds_per_s", "cli.sim_batch_rounds_per_s",
    "model.tabulate_s", "model.policy_load_s",
)
# one round of a workload with the solver's sweep and LU counted, run from
# the checkout's perfbench/ so that it imports that checkout's run.py
COUNT_PROBE = """\
import contextlib, io, json, sys, tempfile
from pathlib import Path
import run
cli = run.import_cli()
from selfish_mining import mdp
counts = {"bellman": 0, "lu": 0, "lu_states": 0}
def counted(fn, key, states=None):
    def call(*args, **kwargs):
        counts[key] += 1
        if states:
            counts[states] += args[0].shape[0]
        return fn(*args, **kwargs)
    return call
mdp._bellman = counted(mdp._bellman, "bellman")
mdp._factorized = counted(mdp._factorized, "lu", "lu_states")
with tempfile.TemporaryDirectory() as work:
    for op in run.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(work)):
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(op.argv) != 0:
                raise SystemExit(f"failed: {op.argv}")
print(json.dumps(counts))
"""
STARTUP_PROCESSES = 5
STARTUP_PROBE = (
    "import resource, sys\n"
    "import selfish_mining.cli\n"
    "print(selfish_mining.cli.__file__)\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, len(sys.modules))\n"
)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int,
        shown: tuple[str, ...]) -> dict:
    """One ``perfbench/run.py`` call in ``checkout``; returns its result line
    and logs the ``shown`` metrics to standard error."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} in {checkout} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"  {checkout.name} {workload} seed {seed}: "
          + ", ".join(f"{k}={result['metrics'][k]['value']:.4g}" for k in shown),
          file=sys.stderr, flush=True)
    return result


def startup(checkout: Path) -> dict:
    """One fresh interpreter importing ``selfish_mining.cli`` from the
    ``src/`` of ``checkout``: wall time of the whole process, its peak RSS
    and the number of modules the import loaded."""
    src = checkout / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, "-c", STARTUP_PROBE]
    begin = time.perf_counter()
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - begin
    if done.returncode != 0:
        raise SystemExit(f"startup probe in {checkout} failed:\n{done.stderr}")
    path, figures = done.stdout.strip().splitlines()
    if not Path(path).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"startup probe in {checkout} imported {path}")
    maxrss_kb, modules = map(int, figures.split())
    return {"wall_s": wall, "maxrss_mb": maxrss_kb / 1024, "modules": modules}


def count_work(checkout: Path, workload: str, seed: int) -> dict:
    """Bellman applications, LU factorizations and the states those LUs
    factor in one round of ``workload`` in ``checkout``, counted in a fresh
    interpreter."""
    command = [sys.executable, "-c", COUNT_PROBE, workload, str(seed)]
    done = subprocess.run(
        command, cwd=checkout / "perfbench", capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"work count in {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(metric: dict, before: list[dict], after: list[dict]) -> dict:
    name, lower = metric["name"], metric["better"] == "lower"
    old = [r["metrics"][name]["value"] for r in before]
    new = [r["metrics"][name]["value"] for r in after]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
    old_q, new_q = quartiles(old), quartiles(new)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "before": {**old_q, "values": old},
        "after": {**new_q, "values": new},
        "after_better_pairs": wins,
        "pairs": len(old),
        "median_change": new_q["median"] / old_q["median"] - 1.0,
        "beyond_before_iqr": abs(new_q["median"] - old_q["median"]) > old_q["iqr"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True, help="parent checkout")
    parser.add_argument("--after", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workloads", default="bounds,threshold,montecarlo")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true",
                        help="add one traced run per side and workload")
    parser.add_argument("--name", default="solver", help="BENCH_<name>.json")
    args = parser.parse_args(argv)

    before, after = args.before.resolve(), args.after.resolve()
    declared = json.loads((after / "BENCHMARK.json").read_text())
    end_to_end = tuple(m["name"] for m in declared["end_to_end"])
    out = ROOT / f"BENCH_{args.name}.json"
    bench = json.loads(out.read_text()) if out.exists() else {"sections": {}}
    bench.update({
        "command": declared["command"],
        "seconds": args.seconds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "system": f"{platform.system()} {platform.machine()}"},
    })

    probes: dict[str, list[dict]] = {"before": [], "after": []}
    for index in range(STARTUP_PROCESSES):
        order = ("before", "after") if index % 2 == 0 else ("after", "before")
        for side in order:
            probes[side].append(startup(before if side == "before" else after))
    seeds = f"seeds {args.seeds[0]}-{args.seeds[-1]}"
    bench.setdefault("startup", {})[seeds] = {
        "processes": STARTUP_PROCESSES,
        "order": "before first on even indexes, after first on odd",
        **{
            name: {
                side: {**quartiles([p[name] for p in runs]),
                       "values": [p[name] for p in runs]}
                for side, runs in probes.items()
            }
            for name in ("wall_s", "maxrss_mb", "modules")
        },
    }
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out.name}: startup {seeds}", file=sys.stderr, flush=True)

    for workload in args.workloads.split(","):
        runs: dict[str, list[dict]] = {"before": [], "after": []}
        for index, seed in enumerate(args.seeds):
            order = ("before", "after") if index % 2 == 0 else ("after", "before")
            for side in order:
                checkout = before if side == "before" else after
                runs[side].append(
                    run(checkout, workload, seed, args.seconds, 0, end_to_end)
                )
        section = {
            "workload": workload,
            "seeds": args.seeds,
            "order": "before first on even pair indexes, after first on odd",
            "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
            "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
            "all_correct": {s: all(r["correct"] for r in runs[s]) for s in runs},
            "end_to_end": {
                m["name"]: summarize(m, runs["before"], runs["after"])
                for m in declared["end_to_end"]
            },
        }
        if args.trace:
            seed = args.seeds[0]
            section["traced"] = {"seed": seed}
            for side, checkout in (("before", before), ("after", after)):
                metrics = run(
                    checkout, workload, seed, args.seconds, 1, TRACED_LAYERS
                )["metrics"]
                section["traced"][side] = {
                    name: metrics[name]["value"] for name in TRACED_LAYERS
                }
            section["counted_per_round"] = {
                "seed": seed,
                **{side: count_work(checkout, workload, seed)
                   for side, checkout in (("before", before), ("after", after))},
            }
        key = f"{workload} {seeds}"
        bench["sections"][key] = section
        out.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"wrote {out.name}: {key}", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
