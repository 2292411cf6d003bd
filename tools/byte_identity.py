"""Byte-for-byte comparison of the CLI's outputs between two checkouts.

    python3 tools/byte_identity.py --before ../parent --after .

Runs a fixed command set with each checkout's ``src/``, in a fresh temporary
directory per checkout, one fresh interpreter per command, the commands in
order (``evaluate``, ``simulate`` and ``render`` read the policies
``optimize`` wrote).  For every command it compares the exit status, standard
output, standard error and every data file the command created, byte for
byte; manifests carry a timestamp and are left out.  Prints one verdict line
per command and exits 1 if any command differs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = [
    ["optimize", "--alpha", "0.4", "--gamma", "0", "--T", "40", "--out", "opt"],
    ["optimize", "--alpha", "0.3", "--gamma", "0.5", "--T", "8"],
    # the benchmark's bounds point; its ratio iteration ends in policy iteration
    ["optimize", "--alpha", "0.45", "--gamma", "0", "--T", "95", "--out", "opt95"],
    # criterion 7's point: at gamma > 0 the cells with a >= h >= 1 keep their
    # fork labels apart, and the rest of the grid solves as one class a cell
    ["optimize", "--alpha", "0.4", "--gamma", "0.5", "--T", "75", "--out", "opt75"],
    ["evaluate", "--policy", "opt.policy.json", "--alpha", "0.4", "--gamma", "0",
     "--out", "ev"],
    # emitted policies act alike within every fork-label class, so they are
    # scored on the classes: the benchmark's bounds evaluate, and one at a
    # gamma where the cells with a >= h >= 1 keep their labels apart
    ["evaluate", "--policy", "opt95.policy.json", "--alpha", "0.45", "--gamma", "0",
     "--out", "ev95"],
    ["evaluate", "--policy", "opt75.policy.json", "--alpha", "0.4", "--gamma", "0.5",
     "--out", "ev75"],
    # SM1 at gamma 0 matches at (1,1,relevant) alone and is scored on the grid
    ["evaluate", "--policy", "sm1", "--alpha", "0.45", "--gamma", "0", "--T", "75",
     "--out", "sm1"],
    # the smallest grid: the two start states, both on the boundary, are all
    # the policy reaches
    ["evaluate", "--policy", "sm1", "--alpha", "0.3", "--gamma", "0.5", "--T", "1"],
    ["simulate", "--policy", "sm1", "--alpha", "0.45", "--gamma", "0", "--T", "75",
     "--rounds", "200000", "--seed", "12345", "--out", "single"],
    ["simulate", "--policy", "sm1", "--alpha", "0.35", "--gamma", "0.5", "--T", "75",
     "--rounds", "20000", "--replicas", "100", "--seed", "777", "--out", "batch"],
    ["simulate", "--policy", "sm1", "--alpha", "0.45", "--gamma", "0", "--T", "10",
     "--rounds", "1", "--seed", "1", "--out", "null"],
    ["threshold", "--gamma", "0.5", "--T", "16", "--out", "thr"],
    ["threshold", "--gamma", "0.5", "--T", "75", "--out", "thr75"],
    # gamma 0 and 1 and uniform tie breaking change which race branches live
    ["optimize", "--alpha", "0.35", "--gamma", "1", "--variant", "uniform",
     "--T", "20", "--out", "optu"],
    # a uniform policy under standard tie breaking at gamma 0.5, run with
    # --force: refused, exit 2, since it matches at a reachable irrelevant
    # fork, which no standard race allows
    ["evaluate", "--policy", "optu.policy.json", "--alpha", "0.35", "--gamma", "0.5",
     "--T", "20", "--force"],
    ["simulate", "--policy", "optu.policy.json", "--alpha", "0.35", "--gamma", "0.5",
     "--T", "20", "--rounds", "1000", "--seed", "1", "--force"],
    ["render", "--policy", "optu.policy.json", "--t-view", "20"],
    ["threshold", "--gamma", "0", "--T", "16", "--out", "thr0"],
    ["threshold", "--gamma", "1", "--T", "16", "--out", "thr1"],
    ["threshold", "--gamma", "0.5", "--variant", "uniform", "--T", "16",
     "--out", "thru"],
    # an eps so large that rho = candidate + eps reaches 1 within the sweep
    ["threshold", "--gamma", "0.5", "--T", "8", "--eps", "0.7", "--out", "thrbig"],
    ["simulate", "--policy", "sm1", "--alpha", "0.4", "--gamma", "0.5",
     "--variant", "uniform", "--T", "40", "--rounds", "50000", "--replicas", "4",
     "--seed", "2024", "--out", "simu"],
    ["sweep", "--alphas", "0.3,0.4", "--gammas", "0,0.5", "--T", "12",
     "--out", "sweep.csv"],
    ["render", "--policy", "opt.policy.json"],
    ["render", "--policy", "opt.policy.json", "--out", "grid.txt"],
    ["delay", "--alpha", "0.3", "--lambda", "2.5", "--d-ah", "0.4", "--d-ha", "0.1",
     "--rho", "0.35", "--out", "delay"],
]


def run_all(
    checkout: Path, work: Path
) -> list[tuple[int, bytes, bytes, dict[str, bytes]]]:
    """Each command's exit status, standard output, standard error and new
    data files."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    results = []
    for argv in COMMANDS:
        before = set(os.listdir(work))
        done = subprocess.run(
            [sys.executable, "-m", "selfish_mining.cli", *argv],
            cwd=work, env=env, capture_output=True,
        )
        created = sorted(set(os.listdir(work)) - before)
        files = {
            name: (work / name).read_bytes()
            for name in created
            if not name.endswith(".manifest.json")
        }
        results.append((done.returncode, done.stdout, done.stderr, files))
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True, help="parent checkout")
    parser.add_argument("--after", type=Path, required=True, help="changed checkout")
    args = parser.parse_args(argv)

    sides = []
    for checkout in (args.before, args.after):
        with tempfile.TemporaryDirectory() as work:
            sides.append(run_all(checkout.resolve(), Path(work)))
    differing = 0
    for argv, old, new in zip(COMMANDS, *sides):
        old_code, old_out, old_err, old_files = old
        new_code, new_out, new_err, new_files = new
        problems = []
        if old_code != new_code:
            problems.append(f"exit {old_code} -> {new_code}")
        if old_out != new_out:
            problems.append("stdout")
        if old_err != new_err:
            problems.append("stderr")
        problems.extend(
            name
            for name in sorted(old_files.keys() | new_files.keys())
            if old_files.get(name) != new_files.get(name)
        )
        files = ", ".join(sorted(new_files)) or "stdout only"
        verdict = f"DIFFERS in {', '.join(problems)}" if problems else "identical"
        print(f"{verdict}: {' '.join(argv)} -> {files}")
        differing += bool(problems)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
