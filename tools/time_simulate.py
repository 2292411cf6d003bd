"""Direct timing of the simulator on four batch shapes.

    python3 tools/time_simulate.py --before ../parent --after . --seeds 1-10

Times one ``simulate_batch`` call of SM1 at T=75, table compilation
included, in a fresh process per checkout, shape and seed, after a short
warm-up call.  The shapes are the ``montecarlo`` single replica (1 x 200,000
rounds at alpha=0.45, gamma=0), its batch (100 x 20,000 at alpha=0.35,
gamma=0.5), many small replicas (4,000 x 200, same point) and the acceptance
suite's simulator cross-check (100 x 1,000,000 at alpha=0.45, gamma=0.5).
The two runs of a pair go back to back, their order alternating from seed
to seed.  Rounds per second, with medians and quartiles per side, go to the
``direct`` section of ``BENCH_simulator.json`` at the root of the repository
that holds this script, keyed by shape and seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench_pairs import ROOT, quartiles, seed_range

SHAPES = {  # name: alpha, gamma, replicas, rounds
    "1 x 200k": (0.45, 0.0, 1, 200_000),
    "100 x 20k": (0.35, 0.5, 100, 20_000),
    "4000 x 200": (0.35, 0.5, 4000, 200),
    "100 x 1M": (0.45, 0.5, 100, 1_000_000),
}
PROGRAM = """
import sys, time
sys.path.insert(0, "src")
from selfish_mining.model import MiningParams, builtin_policy
from selfish_mining.simulate import SimConfig, simulate_batch
alpha, gamma = map(float, sys.argv[1:3])
replicas, rounds, seed = map(int, sys.argv[3:6])
params = MiningParams(alpha, gamma)
policy = builtin_policy("sm1", 75, params)
simulate_batch(SimConfig(params, policy, 1000, 0), 1)
start = time.perf_counter()
simulate_batch(SimConfig(params, policy, rounds, seed), replicas)
print(time.perf_counter() - start)
"""


def timed(checkout: Path, shape: tuple, seed: int) -> float:
    """Rounds per second of one call in a fresh process in ``checkout``."""
    alpha, gamma, replicas, rounds = shape
    argv = [str(x) for x in (alpha, gamma, replicas, rounds, seed)]
    done = subprocess.run([sys.executable, "-c", PROGRAM, *argv], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return replicas * rounds / float(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True, help="parent checkout")
    parser.add_argument("--after", type=Path, required=True, help="changed checkout")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)

    checkouts = {"before": args.before.resolve(), "after": args.after.resolve()}
    out = ROOT / "BENCH_simulator.json"
    bench = json.loads(out.read_text()) if out.exists() else {"sections": {}}
    for name, shape in SHAPES.items():
        alpha, gamma, replicas, rounds = shape
        rates: dict[str, list[float]] = {"before": [], "after": []}
        for index, seed in enumerate(args.seeds):
            order = ("before", "after") if index % 2 == 0 else ("after", "before")
            for side in order:
                rates[side].append(timed(checkouts[side], shape, seed))
            print(f"  {name} seed {seed}: before {rates['before'][-1]:.4g}, after"
                  f" {rates['after'][-1]:.4g} rounds/s", file=sys.stderr, flush=True)
        key = f"{name}, seeds {args.seeds[0]}-{args.seeds[-1]}"
        medians = {side: statistics.median(values) for side, values in rates.items()}
        bench.setdefault("direct", {})[key] = {
            "call": f"simulate_batch, SM1, alpha={alpha}, gamma={gamma}, T=75,"
                    f" {replicas} x {rounds} rounds",
            "unit": "rounds/s",
            "before": {**quartiles(rates["before"]), "values": rates["before"]},
            "after": {**quartiles(rates["after"]), "values": rates["after"]},
            "median_ratio": medians["after"] / medians["before"],
        }
        out.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"wrote {out.name}: direct {key}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
