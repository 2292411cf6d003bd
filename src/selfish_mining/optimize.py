"""Revenue-root search, revenue upper bounds, and profit-threshold search.

The attacker's relative revenue is a ratio objective, so it is not solvable
directly as an average-reward MDP.  Scalarizing the two-part rewards at a
trial revenue ``rho`` yields a family of ordinary MDPs whose optimal gain is
monotone decreasing in ``rho`` and crosses zero exactly at the optimal
revenue; :func:`find_optimal` binary-searches that root on the under-paying
truncation and then certifies an upper bound from one over-paying solve.

:func:`profit_threshold` searches for the largest hashrate at which honest
mining is certifiably optimal: at probe ``alpha`` it solves the over-paying
model with honest mining disabled (override removed at (1,0), and separately
adopt removed at (0,1)) at ``rho = alpha``; a value at or below ``-eps`` for
both variants certifies that no deviation beats honest mining there.
"""

from __future__ import annotations

from concurrent import futures
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    BoundaryMode,
    MiningModel,
    ThresholdVariant,
    build_base_model,
    build_honest_disabled,
    build_truncated,
)
from .mdp import SolveResult, evaluate_policy_exact, solve_average_reward
from .model import MiningParams, Policy, Variant, builtin_policy, upper_bound_revenue

DEFAULT_T = 75
DEFAULT_EPS = 1e-5
DEFAULT_EPS_PRIME = 1e-5


@dataclass(frozen=True)
class OptimizeConfig:
    params: MiningParams
    T: int = DEFAULT_T
    eps: float = DEFAULT_EPS
    eps_prime: float = DEFAULT_EPS_PRIME

    def __post_init__(self) -> None:
        if self.T < 2:
            raise ValueError(f"truncation must be >= 2 (got {self.T})")
        if not 0.0 < self.eps < 8.0 * self.params.alpha:
            raise ValueError(
                f"eps must satisfy 0 < eps < 8*alpha ="
                f" {8 * self.params.alpha} (got {self.eps})"
            )
        if not 0.0 < self.eps_prime < 1.0:
            raise ValueError(f"eps_prime must be in (0, 1) (got {self.eps_prime})")


@dataclass(frozen=True)
class ProbeRecord:
    rho: float
    gain: float
    went_low: bool  # True when the probe raised the lower end of the bracket
    iterations: int
    span: float


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """Output of the bound computation.

    ``lower_bound`` is ``rho_final - eps`` and certifies achievable revenue
    (the attached policy earns within ``eps`` of ``rho_final``).
    ``upper_bound`` is the smaller of the over-paying certificate
    ``rho_prime + 2*(u + eps_prime)`` and the closed-form ceiling
    ``alpha/(1-alpha)``; both are valid upper bounds on the untruncated
    optimum, so their minimum is reported and the raw certificate is kept in
    ``overpaying_bound``.
    """

    params: MiningParams
    T: int
    eps: float
    eps_prime: float
    lower_bound: float
    upper_bound: float
    policy: Policy
    rho_final: float
    rho_prime: float
    overpaying_gain: float
    overpaying_bound: float
    ceiling: float
    probes: tuple[ProbeRecord, ...]

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.params.alpha,
            "gamma": self.params.gamma,
            "variant": self.params.variant.value,
            "T": self.T,
            "eps": self.eps,
            "eps_prime": self.eps_prime,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "rho_final": self.rho_final,
            "rho_prime": self.rho_prime,
            "overpaying_gain": self.overpaying_gain,
            "overpaying_bound": self.overpaying_bound,
            "ceiling": self.ceiling,
            "probes": [
                {
                    "rho": p.rho,
                    "gain": p.gain,
                    "went_low": p.went_low,
                    "iterations": p.iterations,
                    "span": p.span,
                }
                for p in self.probes
            ],
        }


def find_optimal(
    config: OptimizeConfig, model: MiningModel | None = None
) -> BoundsReport:
    """Binary search for the revenue root, then certify an upper bound.

    The search keeps the invariant gain(low) > 0 >= gain(high): a probe with
    positive gain means revenue above ``rho`` is achievable, so the bracket's
    lower end rises; a zero gain goes to the high branch.  It stops once the
    bracket is narrower than ``eps/8``, re-using the previous probe's value
    vector to warm-start each solve (the result is a pure function of the
    inputs either way).
    """
    if model is None:
        model = build_base_model(config.params, config.T)
    elif model.T != config.T or model.params != config.params:
        raise ValueError("provided model does not match the configuration")

    solver_eps = config.eps / 8.0
    low, high = 0.0, 1.0
    probes: list[ProbeRecord] = []
    values = None
    result: SolveResult | None = None
    rho = 0.5
    while True:
        rho = 0.5 * (low + high)
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, rho)
        result = solve_average_reward(scalar, solver_eps, initial_values=values)
        values = result.values
        went_low = result.gain > 0.0
        probes.append(
            ProbeRecord(rho, result.gain, went_low, result.iterations, result.span)
        )
        if went_low:
            low = rho
        else:
            high = rho
        if high - low < solver_eps:
            break

    lower_bound = rho - config.eps
    policy = result.policy

    rho_prime = max(low - config.eps / 4.0, 0.0)
    over = build_truncated(model, BoundaryMode.OVER_PAYING, rho_prime)
    over_result = solve_average_reward(over, config.eps_prime, initial_values=values)
    u = over_result.gain
    overpaying_bound = rho_prime + 2.0 * (u + config.eps_prime)
    ceiling = upper_bound_revenue(config.params.alpha)
    upper_bound = min(overpaying_bound, ceiling)

    return BoundsReport(
        params=config.params,
        T=config.T,
        eps=config.eps,
        eps_prime=config.eps_prime,
        lower_bound=lower_bound,
        upper_bound=upper_bound,
        policy=policy,
        rho_final=rho,
        rho_prime=rho_prime,
        overpaying_gain=u,
        overpaying_bound=overpaying_bound,
        ceiling=ceiling,
        probes=tuple(probes),
    )


@dataclass(frozen=True)
class ThresholdProbe:
    alpha: float
    kind: str  # "certified", "not-certified", or "profitable"
    evidence: float  # worst disabled-model gain, or the exhibited lower bound


@dataclass(frozen=True)
class ThresholdReport:
    """Profit-threshold bracket for one (gamma, variant) pair.

    ``alpha_lower`` is certified: honest mining is provably optimal at every
    hashrate up to it.  ``alpha_upper`` is the smallest probed hashrate where
    a strictly profitable deviation was exhibited (0.5 when none was found
    within the probe budget).  ``threshold`` is the certified value
    ``alpha_lower``; probes that neither certify nor exhibit only widen the
    gap between the two bounds, never the invariant alpha_lower <=
    alpha_upper.
    """

    gamma: float
    variant: Variant
    T: int
    eps: float
    alpha_tol: float
    alpha_lower: float
    alpha_upper: float
    probes: tuple[ThresholdProbe, ...] = field(repr=False)
    exhibited: bool

    @property
    def threshold(self) -> float:
        return self.alpha_lower

    @property
    def bracket_width(self) -> float:
        return self.alpha_upper - self.alpha_lower

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "variant": self.variant.value,
            "T": self.T,
            "eps": self.eps,
            "alpha_tol": self.alpha_tol,
            "threshold": self.threshold,
            "alpha_lower": self.alpha_lower,
            "alpha_upper": self.alpha_upper,
            "bracket_width": self.bracket_width,
            "exhibited": self.exhibited,
            "probes": [
                {"alpha": p.alpha, "kind": p.kind, "evidence": p.evidence}
                for p in self.probes
            ],
        }


def _certify_honest(
    alpha: float,
    gamma: float,
    variant: Variant,
    T: int,
    eps: float,
) -> tuple[bool, float]:
    """Certification test at one hashrate: honest mining is optimal if both
    honest-disabled over-paying models, scalarized at rho = alpha, have gain
    at or below -eps.  Returns (certified, worst gain)."""
    model = build_base_model(MiningParams(alpha, gamma, variant), T)
    worst = -np.inf
    for tv in ThresholdVariant:
        disabled = build_honest_disabled(model, tv)
        scalar = build_truncated(disabled, BoundaryMode.OVER_PAYING, rho=alpha)
        result = solve_average_reward(scalar, eps)
        worst = max(worst, result.gain)
        if worst > -eps:
            return False, worst
    return True, worst


def profit_threshold(
    gamma: float,
    variant: Variant = Variant.STANDARD,
    T: int = DEFAULT_T,
    eps: float = DEFAULT_EPS,
    alpha_tol: float = 1e-3,
) -> ThresholdReport:
    """Bracket the minimal hashrate at which deviating from honest mining
    becomes profitable.

    Bisection on (0, 0.5) driven by the certification test; the certified
    side is exact (never moves on inconclusive evidence).  Afterwards a short
    outward sweep of full bound computations exhibits a concrete profitable
    deviation to pin ``alpha_upper``.
    """
    if alpha_tol < 1e-5:
        raise ValueError(f"alpha_tol must be >= 1e-5 (got {alpha_tol})")

    probes: list[ThresholdProbe] = []
    low, high = 0.0, 0.5
    alpha_lower = 0.0
    while high - low > alpha_tol:
        mid = 0.5 * (low + high)
        certified, worst = _certify_honest(mid, gamma, variant, T, eps)
        if certified:
            probes.append(ThresholdProbe(mid, "certified", worst))
            low = mid
            alpha_lower = max(alpha_lower, mid)
        else:
            probes.append(ThresholdProbe(mid, "not-certified", worst))
            high = mid

    if alpha_lower == 0.0 and low == 0.0:
        # The first probes all failed; try to salvage a certified bound just
        # below the bracket.
        candidate = high - alpha_tol
        if candidate > 0.0:
            certified, worst = _certify_honest(candidate, gamma, variant, T, eps)
            kind = "certified" if certified else "not-certified"
            probes.append(ThresholdProbe(candidate, kind, worst))
            if certified:
                alpha_lower = candidate

    # Exhibit a profitable deviation above the bracket: lower_bound > alpha +
    # eps proves some policy beats honest mining's revenue alpha.
    alpha_upper = 0.5
    exhibited = False
    step = alpha_tol
    candidate = high
    for _ in range(10):
        if not 0.0 < candidate < 0.5 or eps >= 8.0 * candidate:
            candidate = min(max(candidate + step, 2 * eps), 0.499)
            step *= 2.0
            continue
        params = MiningParams(candidate, gamma, variant)
        report = find_optimal(OptimizeConfig(params, T, eps, eps))
        if report.lower_bound > candidate + eps:
            probes.append(
                ThresholdProbe(candidate, "profitable", report.lower_bound)
            )
            alpha_upper = candidate
            exhibited = True
            break
        probes.append(ThresholdProbe(candidate, "not-profitable", report.lower_bound))
        candidate = min(candidate + step, 0.499)
        step *= 2.0

    if alpha_upper < alpha_lower:
        raise RuntimeError(
            f"threshold search produced an inverted bracket"
            f" [{alpha_lower}, {alpha_upper}]"
        )
    return ThresholdReport(
        gamma=gamma,
        variant=variant,
        T=T,
        eps=eps,
        alpha_tol=alpha_tol,
        alpha_lower=alpha_lower,
        alpha_upper=alpha_upper,
        probes=tuple(probes),
        exhibited=exhibited,
    )


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    gamma: float
    variant: Variant
    T: int
    eps: float
    honest_rev: float
    sm1_rev: float
    lower_bound: float
    upper_bound: float
    ceiling: float
    error: str | None = None


SWEEP_HEADER = (
    "alpha,gamma,variant,T,epsilon,honest_rev,sm1_rev,"
    "lower_bound,upper_bound,ceiling"
)


def _sweep_point(
    alpha: float, gamma: float, variant: Variant, T: int, eps: float, eps_prime: float
) -> SweepRow:
    try:
        params = MiningParams(alpha, gamma, variant)
        model = build_base_model(params, T)
        sm1 = evaluate_policy_exact(model, builtin_policy("sm1", T, params))
        report = find_optimal(OptimizeConfig(params, T, eps, eps_prime), model=model)
        return SweepRow(
            alpha=alpha,
            gamma=gamma,
            variant=variant,
            T=T,
            eps=eps,
            honest_rev=alpha,
            sm1_rev=sm1.rev,
            lower_bound=report.lower_bound,
            upper_bound=report.upper_bound,
            ceiling=report.ceiling,
        )
    except Exception as exc:  # per-point failures stay in-row
        return SweepRow(
            alpha=alpha,
            gamma=gamma,
            variant=variant,
            T=T,
            eps=eps,
            honest_rev=float("nan"),
            sm1_rev=float("nan"),
            lower_bound=float("nan"),
            upper_bound=float("nan"),
            ceiling=float("nan"),
            error=str(exc),
        )


def sweep(
    alphas: list[float],
    gammas: list[float],
    variant: Variant = Variant.STANDARD,
    T: int = DEFAULT_T,
    eps: float = DEFAULT_EPS,
    eps_prime: float = DEFAULT_EPS_PRIME,
    jobs: int = 1,
) -> list[SweepRow]:
    """One row per (alpha, gamma), alphas outer, deterministic order.
    Honest revenue equals alpha identically, so it is emitted directly."""
    points = [(a, g) for a in alphas for g in gammas]
    if jobs <= 1:
        return [_sweep_point(a, g, variant, T, eps, eps_prime) for a, g in points]
    with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        tasks = [
            pool.submit(_sweep_point, a, g, variant, T, eps, eps_prime)
            for a, g in points
        ]
        return [task.result() for task in tasks]


def format_sweep_csv(rows: list[SweepRow]) -> str:
    """Fixed column order, six decimal places, LF line endings."""
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(
            f"{row.alpha:.6f},{row.gamma:.6f},{row.variant.value},{row.T},"
            f"{row.eps:.6g},{row.honest_rev:.6f},{row.sm1_rev:.6f},"
            f"{row.lower_bound:.6f},{row.upper_bound:.6f},{row.ceiling:.6f}"
        )
    return "\n".join(lines) + "\n"
