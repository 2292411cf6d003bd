"""Command-line surface: optimize, threshold, sweep, simulate, evaluate,
render, delay.

Each subcommand returns what it produced and ``main`` writes it: the data
files, then a ``<prefix>.manifest.json`` echoing the full parameter set, tool
version, timestamp, seeds and output paths.  The file names follow from the
flags alone, so ``main`` refuses an unwritable ``--out`` before any
computation.  Files are created with the permissions the umask leaves of
0666.  Data files carry no timestamps, so re-running with fixed flags and
seeds reproduces them byte for byte.  Exit codes: 0 on success, 2 for flag or
validation errors, an unreadable ``--policy`` or an unwritable ``--out``, 3
for numeric failures."""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Sequence

from . import __version__
from .chain import build_base_model
from .delay import DelayParams, catchup_probability, deviation_gain, min_profitable_k
from .mdp import SolverError, evaluate_policy_exact
from .model import (
    BUILTIN_POLICIES,
    MiningParams,
    Policy,
    Variant,
    builtin_policy,
)
from .optimize import (
    DEFAULT_EPS,
    DEFAULT_EPS_PRIME,
    DEFAULT_T,
    OptimizeConfig,
    find_optimal,
    format_sweep_csv,
    profit_threshold,
    sweep,
)
from .render import render_policy_text
from .simulate import SimConfig, simulate_batch

EXIT_OK = 0
EXIT_FLAG_ERROR = 2
EXIT_NUMERIC_ERROR = 3

# Data files of each subcommand, as suffixes of its output prefix.
OUTPUT_SUFFIXES = {
    "optimize": (".bounds.json", ".policy.json"),
    "evaluate": (".evaluate.json",),
    "render": ("",),
    "simulate": (".sim.json",),
    "threshold": (".threshold.json",),
    "sweep": ("",),
    "delay": (".delay.json",),
}


@dataclass(frozen=True)
class Outcome:
    """What a subcommand produced.  ``data`` holds the contents of its
    :func:`_data_paths`, in order: text as given, or data written as strict
    JSON; ``main`` writes them only where the flags name files."""

    stdout: list[str]
    data: list[object] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    stderr: list[str] = field(default_factory=list)


def _json_safe(value):
    """``value`` with every non-finite float replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _json_text(data) -> str:
    """``data`` as strict JSON.  JSON has no NaN or infinity, and strict
    parsers reject the bare tokens, so only when ``json.dumps`` meets a
    non-finite float is ``data`` walked and dumped with None in its place;
    a policy's action names are not walked otherwise."""
    try:
        text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(_json_safe(data), indent=2, sort_keys=True, allow_nan=False)
    return text + "\n"


def _manifest(args: argparse.Namespace, outputs: list[str], seeds: list[int]) -> dict:
    echo = {
        key: (value.value if isinstance(value, Variant) else value)
        for key, value in sorted(vars(args).items())
        if key != "func"
    }
    return {
        "subcommand": args.subcommand,
        "parameters": echo,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(outputs),
        "seeds": seeds,
    }


def _prefix(args: argparse.Namespace) -> str | None:
    """The output prefix: ``optimize`` names one when ``--out`` is not
    given and ``sweep`` writes even an empty one; the other subcommands
    write nothing without a nonempty ``--out``."""
    if args.subcommand == "optimize":
        return args.out or f"optimize-a{args.alpha:g}-g{args.gamma:g}"
    if args.subcommand == "sweep":
        return args.out
    return args.out or None


def _data_paths(args: argparse.Namespace) -> list[str]:
    """The data files a subcommand writes, in write order, from its flags
    alone."""
    prefix = _prefix(args)
    if prefix is None:
        return []
    suffixes = OUTPUT_SUFFIXES[args.subcommand]
    if args.subcommand == "simulate" and args.replicas != 1:
        suffixes = (".replicas.csv", *suffixes)
    return [prefix + suffix for suffix in suffixes]


def _open_beside(path: str) -> tuple[int, str]:
    """A new temporary file in ``path``'s directory, open for writing, with
    the permissions the umask leaves of 0666.  Raises ``OSError`` where
    ``path`` cannot be renamed onto: an empty path, or a directory."""
    if not path or os.path.isdir(path):
        code = errno.EISDIR if path else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}.part")
    return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp


def _check_writable(paths: list[str]) -> None:
    """Refuse, before any computation, what :func:`_write_files` would: a
    ``ValueError`` names the first path that cannot be written."""
    for path in paths:
        try:
            fd, tmp = _open_beside(path)
        except OSError as exc:
            raise ValueError(f"cannot write {path!r}: {exc.strerror}") from exc
        os.close(fd)
        os.unlink(tmp)


def _write_files(files: dict[str, object]) -> None:
    """Write each file, text as given and anything else as strict JSON, to
    a temporary beside its path, then rename them into place in order.  On
    an OSError, the files already renamed are removed and a ValueError names
    the path; no temporary outlives the call."""
    staged: dict[str, str] = {}  # temporary -> target
    placed: list[str] = []
    try:
        for path, data in files.items():
            fd, tmp = _open_beside(path)
            staged[tmp] = path
            with os.fdopen(fd, "w") as handle:
                handle.write(data if isinstance(data, str) else _json_text(data))
        for tmp, path in staged.items():
            os.replace(tmp, path)
            placed.append(path)
    except OSError as exc:
        for done in placed:
            os.unlink(done)
        raise ValueError(f"cannot write {path!r}: {exc.strerror}") from exc
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _params_from(args: argparse.Namespace) -> MiningParams:
    return MiningParams(args.alpha, args.gamma, Variant(args.variant))


def _read_policy_file(path: str) -> Policy:
    """Load a policy JSON file; an unreadable file or a malformed one exits 2."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read policy file {path!r}: {exc.strerror}") from exc
    return Policy.from_json_dict(document)


def _load_policy(
    spec: str, args: argparse.Namespace, params: MiningParams
) -> tuple[Policy, str]:
    """Resolve a --policy flag: a built-in name or a policy JSON path."""
    if spec in BUILTIN_POLICIES:
        return builtin_policy(spec, args.T, params), spec
    policy = _read_policy_file(spec)
    label = policy.label or os.path.basename(spec)
    mismatched = (
        (policy.alpha is not None and policy.alpha != params.alpha)
        or (policy.gamma is not None and policy.gamma != params.gamma)
        or (policy.variant is not None and policy.variant != params.variant)
    )
    if mismatched and not getattr(args, "force", False):
        raise ValueError(
            f"policy {spec} was produced for alpha={policy.alpha},"
            f" gamma={policy.gamma}, variant="
            f"{policy.variant.value if policy.variant else '?'};"
            " cross-evaluation needs --force"
        )
    return policy, label


def _add_variant_and_truncation(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        default=Variant.STANDARD.value,
        help="protocol variant",
    )
    parser.add_argument("--T", type=int, default=DEFAULT_T, help="truncation")


def _add_common_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True, help="attacker hashrate")
    parser.add_argument(
        "--gamma", type=float, required=True, help="tie-race win fraction"
    )
    _add_variant_and_truncation(parser)


def _add_tolerances(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps", type=float, default=DEFAULT_EPS)
    parser.add_argument(
        "--eps-prime", type=float, default=DEFAULT_EPS_PRIME, dest="eps_prime"
    )


def _cmd_optimize(args: argparse.Namespace) -> Outcome:
    config = OptimizeConfig(
        _params_from(args), T=args.T, eps=args.eps, eps_prime=args.eps_prime
    )
    report = find_optimal(config)
    bounds_path, policy_path = _data_paths(args)
    line = f"lower_bound={report.lower_bound:.6f} upper_bound={report.upper_bound:.6f}"
    return Outcome(
        [line, f"wrote {bounds_path} and {policy_path}"],
        [report.to_json_dict(), report.policy.to_json_dict()],
    )


def _cmd_evaluate(args: argparse.Namespace) -> Outcome:
    params = _params_from(args)
    policy, label = _load_policy(args.policy, args, params)
    value = evaluate_policy_exact(build_base_model(params, policy.T), policy)
    result = {
        "alpha": params.alpha,
        "gamma": params.gamma,
        "variant": params.variant.value,
        "T": policy.T,
        "policy": label,
        "attacker_rate": value.attacker_rate,
        "honest_rate": value.honest_rate,
        "rev": value.rev,
    }
    return Outcome([f"rev={value.rev:.6f}"], [result])


def _cmd_render(args: argparse.Namespace) -> Outcome:
    text = render_policy_text(_read_policy_file(args.policy), t_view=args.t_view)
    return Outcome([] if args.out else text.splitlines(), [text])


def _cmd_simulate(args: argparse.Namespace) -> Outcome:
    params = _params_from(args)
    last = args.seed + (args.replicas - 1) * args.seed_stride
    if args.replicas >= 1 and min(args.seed, last) < 0:  # seeds are linear in k
        k = 0 if args.seed < 0 else args.replicas - 1
        raise ValueError(
            f"--seed {args.seed} with --seed-stride {args.seed_stride} gives replica"
            f" {k} the seed {args.seed + k * args.seed_stride}; every replica seed"
            " seed + k*stride must be >= 0"
        )
    policy, label = _load_policy(args.policy, args, params)
    config = SimConfig(params=params, policy=policy, rounds=args.rounds, seed=args.seed)
    batch = simulate_batch(config, args.replicas, args.seed_stride)
    if args.replicas == 1:
        result = batch.results[0]
        line = f"rev={result.rev:.6f} stderr={result.stderr:.2e}"
        data = [{**result.to_json_dict(), "policy": label}]
    else:
        line = (
            f"mean_rev={batch.mean_rev:.6f} std_rev={batch.std_rev:.2e}"
            f" replicas={args.replicas}"
        )
        rows = [f"{k},{r.seed},{r.rev:.6f}" for k, r in enumerate(batch.results)]
        data = [
            "\n".join(["replica,seed,rev", *rows]) + "\n",
            {
                "policy": label,
                "mean_rev": batch.mean_rev,
                "std_rev": batch.std_rev,
                "replicas": args.replicas,
                "rounds": args.rounds,
                "seed": args.seed,
                "seed_stride": args.seed_stride,
            },
        ]
    seeds = [args.seed + k * args.seed_stride for k in range(args.replicas)]
    return Outcome([line], data, seeds)


def _cmd_threshold(args: argparse.Namespace) -> Outcome:
    report = profit_threshold(
        gamma=args.gamma,
        variant=Variant(args.variant),
        T=args.T,
        eps=args.eps,
        alpha_tol=args.alpha_tol,
    )
    line = (
        f"threshold={report.threshold:.6f}"
        f" bracket=[{report.alpha_lower:.6f}, {report.alpha_upper:.6f}]"
    )
    return Outcome([line], [report.to_json_dict()])


def _cmd_sweep(args: argparse.Namespace) -> Outcome:
    try:
        alphas = [float(x) for x in args.alphas.split(",") if x]
        gammas = [float(x) for x in args.gammas.split(",") if x]
    except ValueError as exc:
        raise ValueError(f"bad sweep list: {exc}") from exc
    if not alphas or not gammas:
        raise ValueError("sweep needs at least one alpha and one gamma")
    rows = sweep(
        alphas,
        gammas,
        variant=Variant(args.variant),
        T=args.T,
        eps=args.eps,
        eps_prime=args.eps_prime,
        jobs=args.jobs,
    )
    failures = [
        f"point alpha={row.alpha} gamma={row.gamma} failed: {row.error}"
        for row in rows
        if row.error
    ]
    return Outcome(
        [f"wrote {args.out} ({len(rows)} rows, {len(failures)} failed)"],
        [format_sweep_csv(rows)],
        stderr=failures,
    )


def _cmd_delay(args: argparse.Namespace) -> Outcome:
    params = DelayParams(args.alpha, args.lam, args.d_ah, args.d_ha)
    q = catchup_probability(params)
    k = min_profitable_k(params, args.rho, args.k_cap)
    gain = deviation_gain(k, q, args.rho) if k is not None else None
    result = {"q": q, "min_k": k, "gain_at_min_k": gain}
    return Outcome([json.dumps(result, sort_keys=True)], [result])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfish-mining",
        description=(
            "Compute eps-optimal block-withholding policies, revenue bounds,"
            " profit thresholds, and Monte Carlo verification runs."
        ),
    )
    parser.add_argument(
        "--json-errors",
        action="store_true",
        help="emit errors as one-line JSON on stderr",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_opt = sub.add_parser("optimize", help="revenue bounds and eps-optimal policy")
    _add_common_params(p_opt)
    _add_tolerances(p_opt)
    p_opt.add_argument("--out", default=None, help="output file prefix")
    p_opt.set_defaults(func=_cmd_optimize)

    p_eval = sub.add_parser("evaluate", help="exact revenue of a policy")
    _add_common_params(p_eval)
    p_eval.add_argument(
        "--policy", required=True, help="policy JSON path, or 'honest'/'sm1'"
    )
    p_eval.add_argument("--force", action="store_true", help="ignore provenance")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_render = sub.add_parser("render", help="render a policy as an action grid")
    p_render.add_argument("--policy", required=True)
    p_render.add_argument("--t-view", type=int, default=8, dest="t_view")
    p_render.add_argument("--out", default=None)
    p_render.set_defaults(func=_cmd_render)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo verification")
    _add_common_params(p_sim)
    p_sim.add_argument("--policy", required=True)
    p_sim.add_argument("--rounds", type=int, default=1_000_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--replicas", type=int, default=1)
    p_sim.add_argument("--seed-stride", type=int, default=1, dest="seed_stride")
    p_sim.add_argument("--force", action="store_true")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_thr = sub.add_parser("threshold", help="profit-threshold bracket")
    p_thr.add_argument("--gamma", type=float, required=True)
    _add_variant_and_truncation(p_thr)
    p_thr.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p_thr.add_argument("--alpha-tol", type=float, default=1e-3, dest="alpha_tol")
    p_thr.add_argument("--out", default=None)
    p_thr.set_defaults(func=_cmd_threshold)

    p_sweep = sub.add_parser("sweep", help="bounds over a parameter grid, CSV out")
    p_sweep.add_argument("--alphas", required=True, help="comma-separated")
    p_sweep.add_argument("--gammas", required=True, help="comma-separated")
    _add_variant_and_truncation(p_sweep)
    _add_tolerances(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_delay = sub.add_parser("delay", help="catch-up probability under delays")
    p_delay.add_argument("--alpha", type=float, required=True)
    p_delay.add_argument("--lambda", type=float, required=True, dest="lam")
    p_delay.add_argument("--d-ah", type=float, default=0.0, dest="d_ah")
    p_delay.add_argument("--d-ha", type=float, default=0.0, dest="d_ha")
    p_delay.add_argument("--rho", type=float, required=True)
    p_delay.add_argument("--k-cap", type=int, default=10**6, dest="k_cap")
    p_delay.add_argument("--out", default=None)
    p_delay.set_defaults(func=_cmd_delay)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; write its files, all or none, then print."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        paths = _data_paths(args)
        manifest = f"{_prefix(args)}.manifest.json"
        _check_writable([*paths, manifest] if paths else [])
        outcome = args.func(args)
        if paths:
            files = dict(zip(paths, outcome.data))
            files[manifest] = _manifest(args, paths, outcome.seeds)
            _write_files(files)
    except (SolverError, ValueError) as exc:
        code = EXIT_NUMERIC_ERROR if isinstance(exc, SolverError) else EXIT_FLAG_ERROR
        if args.json_errors:
            print(json.dumps({"error": str(exc), "code": code}), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code
    for line in outcome.stderr:
        print(line, file=sys.stderr)
    for line in outcome.stdout:
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
