"""Direct timing of the simulator on the ``montecarlo`` single replica.

    python3 tools/time_simulate.py --before ../parent --after . --seeds 1-10

Times one ``simulate_batch`` call -- SM1 at alpha=0.45, gamma=0, T=75 and
200,000 rounds, one replica, table compilation (and, in checkouts that
still build one, the model) included --
in a fresh process per checkout and seed, after a short warm-up call.  The
two runs of a pair go back to back, their order alternating from seed to
seed.  Rounds per second, with medians and quartiles per side, go to the
``direct`` section of ``BENCH_simulator.json`` at the root of the repository
that holds this script, keyed by the seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench_pairs import ROOT, quartiles, seed_range

ROUNDS = 200_000
PROGRAM = f"""
import sys, time
sys.path.insert(0, "src")
from selfish_mining.model import MiningParams, builtin_policy
from selfish_mining.simulate import SimConfig, simulate_batch
params = MiningParams(0.45, 0.0)
policy = builtin_policy("sm1", 75, params)
simulate_batch(SimConfig(params, policy, 1000, 0), 1)
start = time.perf_counter()
simulate_batch(SimConfig(params, policy, {ROUNDS}, int(sys.argv[1])), 1)
print(time.perf_counter() - start)
"""


def timed(checkout: Path, seed: int) -> float:
    """Rounds per second of one call in a fresh process in ``checkout``."""
    done = subprocess.run([sys.executable, "-c", PROGRAM, str(seed)], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return ROUNDS / float(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True, help="parent checkout")
    parser.add_argument("--after", type=Path, required=True, help="changed checkout")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)

    checkouts = {"before": args.before.resolve(), "after": args.after.resolve()}
    rates: dict[str, list[float]] = {"before": [], "after": []}
    for index, seed in enumerate(args.seeds):
        order = ("before", "after") if index % 2 == 0 else ("after", "before")
        for side in order:
            rates[side].append(timed(checkouts[side], seed))
        print(f"  seed {seed}: before {rates['before'][-1]:.4g}, after"
              f" {rates['after'][-1]:.4g} rounds/s", file=sys.stderr, flush=True)
    out = ROOT / "BENCH_simulator.json"
    bench = json.loads(out.read_text()) if out.exists() else {"sections": {}}
    key = f"seeds {args.seeds[0]}-{args.seeds[-1]}"
    medians = {side: statistics.median(values) for side, values in rates.items()}
    bench.setdefault("direct", {})[key] = {
        "call": f"simulate_batch, SM1, alpha=0.45, gamma=0, T=75, {ROUNDS} rounds",
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
