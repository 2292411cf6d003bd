"""Revenue-root search, revenue upper bounds, and profit-threshold search.

The attacker's relative revenue is a ratio objective, so it is not solvable
directly as an average-reward MDP.  Scalarizing the two-part rewards at a
trial revenue ``rho`` yields a family of ordinary MDPs whose optimal gain is
monotone decreasing in ``rho`` and crosses zero exactly at the optimal
revenue.  :func:`ratio_iteration` finds that root on the under-paying
truncation by Dinkelbach's ratio iteration (Dinkelbach 1967): solve the
model at ``rho``, then move ``rho`` to the exact revenue of the solve's
greedy policy.  Every solve runs on the model's fork-label classes, and its
greedy class policy is lifted to the grid before it is scored or emitted.
The best revenue met is the lower bound; :func:`find_optimal` adds one
over-paying solve that certifies an upper bound.  The models of two steps differ only in ``rho``, so a step after one
that ended in policy iteration resumes policy iteration from that step's
policy, with no value-iteration sweep; the over-paying solve starts value
iteration warm from the last step's values, which costs fewer LU
factorizations than resuming policy iteration there.

:func:`profit_threshold` searches for the largest hashrate at which honest
mining is certifiably optimal.  At probe ``alpha`` it scalarizes the
over-paying model with honest mining disabled (override removed at (1,0),
and separately adopt removed at (0,1)) at ``rho = alpha``; a gain at or
below ``-eps`` for both variants certifies that no deviation beats honest
mining there.  Each model is decided by :func:`gain_below`, on the
Bellman-residual bracket that holds the optimal gain for any value vector:
below ``-eps`` at the first sweep whose residual max is below it, above at
the first sweep whose residual min is above it.  A model whose span
narrows to ``eps`` with ``-eps`` still inside the bracket, or whose solve
hands over to policy iteration, is decided by the midpoint gain, as a full
solve reports it.  A probe is certified when both models are decided below
and refused at the first decided above; its evidence is the larger of the
deciding figures, a bracket end (a certified bound on the gain) or a
midpoint.  Value iteration starts warm, on the same classes: a probe's
first model from the mean of the first models' final values at the
bracket's two ends (the probe is their midpoint, so this interpolates in
alpha), or from the one end probed so far, and its second model from the
values the first ended at.  The residual bracket holds the gain for any
value vector, so a deciding bracket end is a certified bound whatever the
start.  The search builds one transition table
(:func:`~selfish_mining.chain.transition_table`), which does not depend on
alpha, and weighs it at each probe's alpha, so the transition rules are
evaluated, and the operator's sparse pattern sorted, once per search.
Above the certified bracket, each exhibit candidate is decided by
:func:`gain_below` too, on the under-paying model at ``rho = alpha + eps``,
and its greedy policy scored exactly.
"""

from __future__ import annotations

import os
from concurrent import futures
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import (
    BoundaryMode,
    MiningModel,
    ThresholdVariant,
    TransitionTable,
    build_base_model,
    build_honest_disabled,
    build_truncated,
    transition_table,
)
from .mdp import evaluate_policy_exact, gain_below, solve_average_reward
from .model import (
    MiningParams,
    Policy,
    Variant,
    builtin_policy,
    max_truncation,
    upper_bound_revenue,
)

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
        _check_tolerances(self.eps, self.eps_prime, self.params.alpha)


def _check_tolerances(eps: float, eps_prime: float, alpha: float = 0.5) -> None:
    """``0 < eps < 8*alpha`` and ``0 < eps_prime < 1``.  At the default
    alpha, the supremum of the model's alphas, these are the rules every
    point of a sweep shares."""
    if not 0.0 < eps < 8.0 * alpha:
        raise ValueError(f"eps must satisfy 0 < eps < 8*alpha = {8 * alpha} (got {eps})")
    if not 0.0 < eps_prime < 1.0:
        raise ValueError(f"eps_prime must be in (0, 1) (got {eps_prime})")


@dataclass(frozen=True)
class ProbeRecord:
    """One Dinkelbach step: the under-paying solve at ``rho`` and the exact
    revenue ``rev`` of its greedy policy, the next step's ``rho``."""

    rho: float
    gain: float
    rev: float
    iterations: int
    span: float


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """Output of the bound computation.

    ``lower_bound`` is the exact revenue of the attached policy, the best of
    the policies the ratio iteration met, so it is achievable and equals what
    :func:`evaluate_policy_exact` reports for that policy bit for bit.  The
    policy is a lifted class policy, so both read its revenue from the
    stationary distribution of its chain on the classes it reaches.
    ``rho_final`` is the ``rho`` of the last under-paying solve.
    ``upper_bound`` is the smaller of the over-paying certificate
    ``rho_prime + 2*(u + eps_prime)`` and the closed-form ceiling
    ``alpha/(1-alpha)``; both are valid upper bounds on the untruncated
    optimum, so their minimum is reported and the raw certificate is kept in
    ``overpaying_bound``.  ``probes`` holds one record per ratio step.
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
                    "rev": p.rev,
                    "iterations": p.iterations,
                    "span": p.span,
                }
                for p in self.probes
            ],
        }


@dataclass(frozen=True, eq=False)
class RatioIteration:
    """Output of :func:`ratio_iteration`: the lower bound and its policy,
    the last step's ``rho`` and value vector, and one record per step."""

    lower_bound: float
    policy: Policy
    rho_final: float
    values: np.ndarray
    probes: tuple[ProbeRecord, ...]


def ratio_iteration(model: MiningModel, eps: float, blocks=None) -> RatioIteration:
    """Dinkelbach's ratio iteration for the revenue root of a base model.

    Each step solves the under-paying class model scalarized at ``rho`` to
    ``eps/8``, lifts that solve's greedy class policy to the grid
    (:meth:`~selfish_mining.chain.MiningModel.lift`) and scores it exactly.
    The first ``rho`` is ``alpha``, honest mining's revenue, so the first
    gain is nonnegative.  The iteration stops once the gain is at most
    ``eps/8`` or the greedy policy earns no more than ``rho``; otherwise
    ``rho`` becomes that policy's revenue, so ``rho`` rises strictly and the
    steps end.  A step after one that ended in policy iteration resumes
    policy iteration from that step's class policy; any other step starts
    value iteration warm from the previous step's value vector (the result
    is a pure function of the inputs either way).  Every step scalarizes
    ``blocks``, the model's expected blocks, weighed once here unless the
    caller hands them in.
    """
    solver_eps = eps / 8.0
    probes: list[ProbeRecord] = []
    values = actions = None
    lower_bound, policy = -np.inf, None
    params = model.params
    rho = params.alpha
    if blocks is None:
        blocks = model.expected_blocks()
    while True:
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, rho, blocks)
        result = solve_average_reward(
            scalar, solver_eps, initial_values=values, initial_actions=actions
        )
        values = result.values
        actions = result.actions if result.evaluations else None
        lifted = model.lift(result.actions)
        greedy = Policy(model.T, lifted, params.alpha, params.gamma, params.variant)
        rev = evaluate_policy_exact(model, greedy).rev
        probes.append(ProbeRecord(rho, result.gain, rev, result.iterations, result.span))
        if rev >= lower_bound:
            lower_bound, policy = rev, greedy
        if result.gain <= solver_eps or rev <= rho:
            break
        rho = rev
    return RatioIteration(lower_bound, policy, rho, values, tuple(probes))


def find_optimal(
    config: OptimizeConfig, model: MiningModel | None = None
) -> BoundsReport:
    """:func:`ratio_iteration` for the lower bound, then the over-paying
    model scalarized at ``rho_prime``, solved to ``eps_prime`` by value
    iteration warm from the last ratio step's values, for the upper bound.
    Both scalarize one weighing of the model's expected blocks."""
    if model is None:
        model = build_base_model(config.params, config.T)
    elif model.T != config.T or model.params != config.params:
        raise ValueError("provided model does not match the configuration")

    blocks = model.expected_blocks()
    ratio = ratio_iteration(model, config.eps, blocks)
    rho_prime = max(ratio.lower_bound - config.eps / 4.0, 0.0)
    over = build_truncated(model, BoundaryMode.OVER_PAYING, rho_prime, blocks)
    over_result = solve_average_reward(
        over, config.eps_prime, initial_values=ratio.values
    )
    u = over_result.gain
    overpaying_bound = rho_prime + 2.0 * (u + config.eps_prime)
    ceiling = upper_bound_revenue(config.params.alpha)
    upper_bound = min(overpaying_bound, ceiling)

    return BoundsReport(
        params=config.params,
        T=config.T,
        eps=config.eps,
        eps_prime=config.eps_prime,
        lower_bound=ratio.lower_bound,
        upper_bound=upper_bound,
        policy=ratio.policy,
        rho_final=ratio.rho_final,
        rho_prime=rho_prime,
        overpaying_gain=u,
        overpaying_bound=overpaying_bound,
        ceiling=ceiling,
        probes=ratio.probes,
    )


@dataclass(frozen=True)
class ThresholdProbe:
    alpha: float
    kind: str  # "certified", "not-certified", "profitable" or "not-profitable"
    evidence: float  # deciding gain bound or midpoint, or exhibit's exact revenue


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
    table: TransitionTable,
    alpha: float,
    eps: float,
    values: np.ndarray | None = None,
) -> tuple[bool, float, np.ndarray]:
    """Certification test at one hashrate: honest mining is optimal if both
    honest-disabled over-paying models of ``table`` weighed at
    ``alpha``, scalarized at rho = alpha, have gain at or below -eps.  Each
    model is decided by :func:`gain_below` against -eps, the first warm
    from ``values`` and the second from the values the first ended at; a
    refused first model leaves the second undecided.  Returns (certified,
    evidence, the first model's final values), the evidence being the
    larger of the decided models'."""
    model = table.weigh(alpha)
    # the variants differ only in feasibility, so they share one scalarization
    scalar = build_truncated(model, BoundaryMode.OVER_PAYING, rho=alpha)
    evidence, first = -np.inf, None
    for tv in ThresholdVariant:
        disabled = replace(scalar, model=build_honest_disabled(model, tv))
        verdict = gain_below(disabled, -eps, eps, values)
        evidence, values = max(evidence, verdict.evidence), verdict.result.values
        first = values if first is None else first
        if not verdict.below:
            return False, evidence, first
    return True, evidence, first


def _exhibit(
    table: TransitionTable,
    alpha: float,
    eps: float,
    values: np.ndarray | None = None,
) -> tuple[bool, float, np.ndarray]:
    """Exhibit test at one hashrate: some policy earns more than alpha +
    eps.  The under-paying model of ``table`` weighed at ``alpha``,
    scalarized at rho = alpha + eps, is decided by :func:`gain_below`
    against 0 to ``eps/8``, warm from ``values``.  A decided bracket min
    above 0 makes the greedy policy's residual positive at every state, so
    its revenue exceeds rho; a decided max below 0 proves that no policy
    earns rho; a bracket narrowed to ``eps/8`` undecided is decided by its
    midpoint.  Returns (profitable, evidence, final values), the evidence
    being the exact revenue of the greedy class policy lifted to the grid,
    which must also exceed rho."""
    model = table.weigh(alpha)
    scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, rho=alpha + eps)
    verdict = gain_below(scalar, 0.0, eps / 8.0, values)
    params = model.params
    lifted = model.lift(verdict.result.actions)
    greedy = Policy(model.T, lifted, alpha, params.gamma, params.variant)
    rev = evaluate_policy_exact(model, greedy).rev
    return not verdict.below and rev > alpha + eps, rev, verdict.result.values


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
    side is exact (never moves on inconclusive evidence).  A probe decides
    each honest-disabled model by its residual bracket against ``-eps``:
    certified at the first sweep whose residual max is below ``-eps``,
    refused at the first whose residual min is above it, and by the
    midpoint gain when the span narrows to ``eps`` undecided or the solve
    hands over to policy iteration.  A probe's value iteration starts from
    the mean of the values its first model ended at on the two bracket
    ends, or from the one end probed so far, the first probe's from zero;
    only those two vectors are held.  Every probe weighs one transition
    table, built once at ``gamma``, ``variant`` and ``T``.  Afterwards a
    short outward sweep of exhibit tests (:func:`_exhibit`) on the same
    table, warm from the last probe's first-model values, each candidate
    from the last one's, looks for a concrete profitable deviation to pin
    ``alpha_upper``.  It stops after 0.499, and before any ``rho =
    candidate + eps`` of 1 or more, which no policy earns.  ``eps`` must be
    positive and finite, checked before any solve.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be > 0 and finite (got {eps})")
    if not 1e-5 <= alpha_tol < 0.5:
        raise ValueError(f"alpha_tol must be in [1e-5, 0.5) (got {alpha_tol})")

    # any alpha in (0, 0.5) gives the same table
    table = transition_table(MiningParams(0.25, gamma, variant), T)
    probes: list[ThresholdProbe] = []
    # at_low, at_high: the first model's final values at the bracket ends
    values = at_low = at_high = None
    low, high = 0.0, 0.5
    while high - low > alpha_tol:
        mid = 0.5 * (low + high)
        if at_low is None or at_high is None:
            start = at_high if at_low is None else at_low
        else:
            # mid is the ends' mean, so their values' mean interpolates in alpha
            start = np.add(at_low, at_high)
            start *= 0.5
        certified, worst, values = _certify_honest(table, mid, eps, start)
        if certified:
            probes.append(ThresholdProbe(mid, "certified", worst))
            low, at_low = mid, values
        else:
            probes.append(ThresholdProbe(mid, "not-certified", worst))
            high, at_high = mid, values

    # Exhibit a profitable deviation above the bracket: a policy whose exact
    # revenue exceeds alpha + eps beats honest mining's revenue alpha.  The
    # candidates rise from the bracket's top and stop at 0.499, or where
    # rho = candidate + eps is no revenue.
    exhibited = False
    step, candidate = alpha_tol, min(high, 0.499)
    for _ in range(10):
        if candidate + eps >= 1.0:
            break
        exhibited, evidence, values = _exhibit(table, candidate, eps, values)
        kind = "profitable" if exhibited else "not-profitable"
        probes.append(ThresholdProbe(candidate, kind, evidence))
        if exhibited or candidate == 0.499:
            break
        candidate = min(candidate + step, 0.499)
        step *= 2.0
    alpha_upper = candidate if exhibited else 0.5

    if alpha_upper < low:
        raise RuntimeError(
            f"threshold search produced an inverted bracket [{low}, {alpha_upper}]"
        )
    return ThresholdReport(
        gamma=gamma,
        variant=variant,
        T=T,
        eps=eps,
        alpha_tol=alpha_tol,
        alpha_lower=low,
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
    params: MiningParams, T: int, eps: float, eps_prime: float
) -> SweepRow:
    point = dict(
        alpha=params.alpha, gamma=params.gamma, variant=params.variant, T=T, eps=eps
    )
    try:
        model = build_base_model(params, T)
        sm1 = evaluate_policy_exact(model, builtin_policy("sm1", T, params))
        report = find_optimal(OptimizeConfig(params, T, eps, eps_prime), model=model)
        return SweepRow(
            **point,
            honest_rev=params.alpha,
            sm1_rev=sm1.rev,
            lower_bound=report.lower_bound,
            upper_bound=report.upper_bound,
            ceiling=report.ceiling,
        )
    except Exception as exc:  # per-point failures stay in-row
        nan = float("nan")
        return SweepRow(
            **point,
            honest_rev=nan,
            sm1_rev=nan,
            lower_bound=nan,
            upper_bound=nan,
            ceiling=nan,
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
    Honest revenue equals alpha identically, so it is emitted directly.

    ``jobs`` below 1, T outside ``[2, max_truncation()]``, a point whose
    parameters :class:`MiningParams` rejects, or a tolerance no alpha
    admits raises ``ValueError`` before any solve; eps at or above 8*alpha
    fails only the rows of that alpha.  The points run in at most ``jobs``
    worker processes, and never in more than there are points or CPUs."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (got {jobs})")
    limit = max_truncation()
    if not 2 <= T <= limit:
        raise ValueError(f"truncation must be in [2, {limit}] (got {T})")
    _check_tolerances(eps, eps_prime)
    points = [MiningParams(a, g, variant) for a in alphas for g in gammas]
    workers = min(jobs, len(points), os.cpu_count() or 1)
    if workers <= 1:
        return [_sweep_point(params, T, eps, eps_prime) for params in points]
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        tasks = [
            pool.submit(_sweep_point, params, T, eps, eps_prime) for params in points
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
