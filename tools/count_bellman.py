"""Direct counts of the solver work in one round of a benchmark workload.

    python3 tools/count_bellman.py --checkout . --workload threshold --seed 1

Runs the workload's operations once, as ``perfbench/run.py`` builds them,
through the CLI of the ``src/`` package of ``--checkout``, and counts the
calls of ``mdp.solve_average_reward``, every Bellman application
(``mdp._bellman``: value-iteration sweeps and policy-iteration steps alike),
and the calls of ``mdp.gain_below``, the threshold search's decision
passes, with the Bellman applications made inside them; ``solve_bellman``
is the rest.  Where a decision pass is a solve stopped by its bracket, its
solve is counted among ``solve_calls`` too; where it runs its own sweeps
outside any solve, perfbench's traced ``mdp.rvi_sweeps``, which sums the
iterations that solves report, does not see them.  A checkout without
``gain_below`` counts no decision passes.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import pkgutil
import sys
from pathlib import Path

PACKAGE = "selfish_mining"


def rebind(package, original, wrapper) -> None:
    """Replace ``original`` wherever a module of ``package`` binds it."""
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path("."))
    parser.add_argument("--workload", default="threshold")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import run as perfbench  # perfbench/run.py of the checkout

    package = importlib.import_module(PACKAGE)
    from selfish_mining import cli, mdp

    if Path(mdp.__file__).resolve().parent != (checkout / "src" / PACKAGE):
        raise SystemExit(f"error: imported {mdp.__file__}, not the checkout's copy")

    counts = {"solve_calls": 0, "bellman": 0, "decision_passes": 0,
              "decision_sweeps": 0}
    bellman, solve = mdp._bellman, mdp.solve_average_reward
    decide = getattr(mdp, "gain_below", None)

    @functools.wraps(bellman)
    def counted_bellman(*a, **k):
        counts["bellman"] += 1
        return bellman(*a, **k)

    @functools.wraps(solve)
    def counted_solve(*a, **k):
        counts["solve_calls"] += 1
        return solve(*a, **k)

    rebind(package, bellman, counted_bellman)
    rebind(package, solve, counted_solve)
    if decide is not None:
        @functools.wraps(decide)
        def counted_decide(*a, **k):
            before = counts["bellman"]
            try:
                return decide(*a, **k)
            finally:
                counts["decision_passes"] += 1
                counts["decision_sweeps"] += counts["bellman"] - before

        rebind(package, decide, counted_decide)

    work = perfbench.OUT / "count"
    work.mkdir(parents=True, exist_ok=True)
    for op in perfbench.WORKLOADS[args.workload](args.seed, work):
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(op.argv)
        if status != 0:
            raise SystemExit(f"{' '.join(op.argv)} exited {status}")
    counts["solve_bellman"] = counts["bellman"] - counts["decision_sweeps"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
