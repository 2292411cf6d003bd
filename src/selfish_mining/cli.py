"""Command-line surface: optimize, threshold, sweep, simulate, evaluate,
render, delay.

Every subcommand that writes files also writes a ``<prefix>.manifest.json``
beside them echoing the full parameter set, tool version, timestamp, seeds
and output paths; data files themselves carry no timestamps, so re-running
with fixed flags and seeds reproduces them byte for byte.  Exit codes: 0 on
success, 2 for flag or validation errors, 3 for numeric failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from datetime import datetime, timezone
from typing import Sequence

from . import __version__
from .chain import build_base_model
from .delay import DelayParams, catchup_probability, deviation_gain, min_profitable_k
from .mdp import SolverError, evaluate_policy_exact
from .model import BUILTIN_POLICIES, MiningParams, Policy, Variant, builtin_policy
from .optimize import (
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


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_FLAG_ERROR):
        super().__init__(message)
        self.code = code


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, data: dict) -> None:
    _atomic_write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_manifest(
    prefix: str,
    subcommand: str,
    args: argparse.Namespace,
    outputs: list[str],
    seeds: list[int] | None = None,
) -> str:
    path = f"{prefix}.manifest.json"
    echo = {
        key: (value.value if isinstance(value, Variant) else value)
        for key, value in sorted(vars(args).items())
        if key != "func"
    }
    manifest = {
        "subcommand": subcommand,
        "parameters": echo,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(outputs),
        "seeds": seeds or [],
    }
    _write_json(path, manifest)
    return path


def _params_from(args: argparse.Namespace) -> MiningParams:
    try:
        return MiningParams(args.alpha, args.gamma, Variant(args.variant))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _read_policy_file(path: str) -> Policy:
    """Load a policy JSON file; a missing file or a malformed one exits 2."""
    if not os.path.exists(path):
        raise CliError(f"policy file not found: {path}")
    with open(path) as handle:
        return Policy.from_json_dict(json.load(handle))


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
        raise CliError(
            f"policy {spec} was produced for alpha={policy.alpha},"
            f" gamma={policy.gamma}, variant="
            f"{policy.variant.value if policy.variant else '?'};"
            " cross-evaluation needs --force"
        )
    return policy, label


def _add_common_params(parser: argparse.ArgumentParser, default_T: int = 75) -> None:
    parser.add_argument("--alpha", type=float, required=True, help="attacker hashrate")
    parser.add_argument(
        "--gamma", type=float, required=True, help="tie-race win fraction"
    )
    parser.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        default=Variant.STANDARD.value,
        help="protocol variant",
    )
    parser.add_argument("--T", type=int, default=default_T, help="truncation")


def _cmd_optimize(args: argparse.Namespace) -> int:
    params = _params_from(args)
    try:
        config = OptimizeConfig(
            params, T=args.T, eps=args.eps, eps_prime=args.eps_prime
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = find_optimal(config)
    prefix = args.out or f"optimize-a{args.alpha:g}-g{args.gamma:g}"
    bounds_path = f"{prefix}.bounds.json"
    policy_path = f"{prefix}.policy.json"
    _write_json(bounds_path, report.to_json_dict())
    _write_json(policy_path, report.policy.to_json_dict())
    _write_manifest(prefix, "optimize", args, [bounds_path, policy_path])
    print(
        f"lower_bound={report.lower_bound:.6f} upper_bound={report.upper_bound:.6f}"
    )
    print(f"wrote {bounds_path} and {policy_path}")
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    params = _params_from(args)
    policy, label = _load_policy(args.policy, args, params)
    model = build_base_model(params, policy.T)
    try:
        value = evaluate_policy_exact(model, policy)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
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
    print(f"rev={value.rev:.6f}")
    if args.out:
        _write_json(f"{args.out}.evaluate.json", result)
        _write_manifest(args.out, "evaluate", args, [f"{args.out}.evaluate.json"])
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    policy = _read_policy_file(args.policy)
    try:
        text = render_policy_text(policy, t_view=args.t_view)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.out:
        _atomic_write(args.out, text)
        _write_manifest(args.out, "render", args, [args.out])
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _params_from(args)
    if args.rounds < 1:
        raise CliError(f"rounds must be >= 1 (got {args.rounds})")
    policy, label = _load_policy(args.policy, args, params)
    config = SimConfig(params=params, policy=policy, rounds=args.rounds, seed=args.seed)
    outputs: list[str] = []
    batch = simulate_batch(config, max(args.replicas, 1), args.seed_stride)
    if args.replicas <= 1:
        result = batch.results[0]
        payload = result.to_json_dict()
        payload["policy"] = label
        print(f"rev={result.rev:.6f} stderr={result.stderr:.2e}")
        if args.out:
            path = f"{args.out}.sim.json"
            _write_json(path, payload)
            outputs.append(path)
    else:
        print(
            f"mean_rev={batch.mean_rev:.6f} std_rev={batch.std_rev:.2e}"
            f" replicas={args.replicas}"
        )
        if args.out:
            csv_path = f"{args.out}.replicas.csv"
            lines = ["replica,seed,rev"]
            lines.extend(
                f"{k},{r.seed},{r.rev:.6f}" for k, r in enumerate(batch.results)
            )
            _atomic_write(csv_path, "\n".join(lines) + "\n")
            json_path = f"{args.out}.sim.json"
            _write_json(
                json_path,
                {
                    "policy": label,
                    "mean_rev": batch.mean_rev,
                    "std_rev": batch.std_rev,
                    "replicas": args.replicas,
                    "rounds": args.rounds,
                    "seed": args.seed,
                    "seed_stride": args.seed_stride,
                },
            )
            outputs.extend([csv_path, json_path])
    if args.out:
        seeds = [args.seed + k * args.seed_stride for k in range(max(args.replicas, 1))]
        _write_manifest(args.out, "simulate", args, outputs, seeds=seeds)
    return EXIT_OK


def _cmd_threshold(args: argparse.Namespace) -> int:
    try:
        report = profit_threshold(
            gamma=args.gamma,
            variant=Variant(args.variant),
            T=args.T,
            eps=args.eps,
            alpha_tol=args.alpha_tol,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(
        f"threshold={report.threshold:.6f}"
        f" bracket=[{report.alpha_lower:.6f}, {report.alpha_upper:.6f}]"
    )
    if args.out:
        path = f"{args.out}.threshold.json"
        _write_json(path, report.to_json_dict())
        _write_manifest(args.out, "threshold", args, [path])
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        alphas = [float(x) for x in args.alphas.split(",") if x]
        gammas = [float(x) for x in args.gammas.split(",") if x]
    except ValueError as exc:
        raise CliError(f"bad sweep list: {exc}") from exc
    if not alphas or not gammas:
        raise CliError("sweep needs at least one alpha and one gamma")
    if any(a >= 0.5 or a <= 0 for a in alphas):
        raise CliError("alpha must be > 0 and alpha must be < 0.5 for every point")
    rows = sweep(
        alphas,
        gammas,
        variant=Variant(args.variant),
        T=args.T,
        eps=args.eps,
        eps_prime=args.eps_prime,
        jobs=args.jobs,
    )
    csv_text = format_sweep_csv(rows)
    _atomic_write(args.out, csv_text)
    _write_manifest(args.out, "sweep", args, [args.out])
    failures = [row for row in rows if row.error]
    for row in failures:
        print(
            f"point alpha={row.alpha} gamma={row.gamma} failed: {row.error}",
            file=sys.stderr,
        )
    print(f"wrote {args.out} ({len(rows)} rows, {len(failures)} failed)")
    return EXIT_OK


def _cmd_delay(args: argparse.Namespace) -> int:
    try:
        params = DelayParams(args.alpha, args.lam, args.d_ah, args.d_ha)
        if not 0.0 <= args.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1] (got {args.rho})")
        q = catchup_probability(params)
        k = min_profitable_k(params, args.rho, args.k_cap)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    gain = deviation_gain(k, q, args.rho).lower_bound if k is not None else None
    result = {"q": q, "min_k": k, "gain_at_min_k": gain}
    print(json.dumps(result, sort_keys=True))
    if args.out:
        path = f"{args.out}.delay.json"
        _write_json(path, result)
        _write_manifest(args.out, "delay", args, [path])
    return EXIT_OK


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
    p_opt.add_argument("--eps", type=float, default=1e-5)
    p_opt.add_argument("--eps-prime", type=float, default=1e-5, dest="eps_prime")
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
    p_thr.add_argument(
        "--variant", choices=[v.value for v in Variant], default="standard"
    )
    p_thr.add_argument("--T", type=int, default=75)
    p_thr.add_argument("--eps", type=float, default=1e-5)
    p_thr.add_argument("--alpha-tol", type=float, default=1e-3, dest="alpha_tol")
    p_thr.add_argument("--out", default=None)
    p_thr.set_defaults(func=_cmd_threshold)

    p_sweep = sub.add_parser("sweep", help="bounds over a parameter grid, CSV out")
    p_sweep.add_argument("--alphas", required=True, help="comma-separated")
    p_sweep.add_argument("--gammas", required=True, help="comma-separated")
    p_sweep.add_argument(
        "--variant", choices=[v.value for v in Variant], default="standard"
    )
    p_sweep.add_argument("--T", type=int, default=75)
    p_sweep.add_argument("--eps", type=float, default=1e-5)
    p_sweep.add_argument("--eps-prime", type=float, default=1e-5, dest="eps_prime")
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


def _emit_error(message: str, code: int, json_errors: bool) -> int:
    if json_errors:
        print(json.dumps({"error": message, "code": code}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        return _emit_error(str(exc), exc.code, args.json_errors)
    except SolverError as exc:
        return _emit_error(str(exc), EXIT_NUMERIC_ERROR, args.json_errors)
    except ValueError as exc:
        return _emit_error(str(exc), EXIT_FLAG_ERROR, args.json_errors)


if __name__ == "__main__":
    sys.exit(main())
