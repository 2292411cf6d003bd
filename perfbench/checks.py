"""Output checks for the benchmark's workloads.

Every reference here is computed apart from the program: the figures the
paper publishes, the Eyal-Sirer closed form for the one-block-withholding
strategy (SM1), an exact renewal recursion for SM1 on the truncated grid,
and properties the method must have.  The recursion is kept here rather than
imported from the test suite, so that the benchmark runs unchanged against
later commits whatever happens to the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

# The paper's gamma = 0 table at T = 95: alpha -> (lower bound, upper bound).
PUBLISHED_BOUNDS = {
    1 / 3: (0.33705, 0.33707),
    0.4: (0.48866, 0.48904),
    0.45: (0.66891, 0.70109),
}
BOUND_TOL = 2e-3

# Profit thresholds at gamma = 0.5, and Eyal and Sirer's conjectured 1/4 for
# uniform tie breaking.
PUBLISHED_THRESHOLDS = {"standard": 0.25, "uniform": 0.2321}
THRESHOLD_TOL = 1e-3
CONJECTURED_UNIFORM_THRESHOLD = 0.25

EVALUATE_TOL = 1e-9
Z_LIMIT = 4.0


class CheckFailed(Exception):
    """An output of the program contradicts its reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sm1_closed_form(alpha: float, gamma: float) -> float:
    """Untruncated long-run revenue of SM1 (Eyal and Sirer 2014, eq. 8)."""
    numerator = alpha * (1 - alpha) ** 2 * (4 * alpha + gamma * (1 - 2 * alpha))
    numerator -= alpha**3
    return numerator / (1 - alpha * (1 + (2 - alpha) * alpha))


def sm1_truncated_revenue(alpha: float, T: int) -> float:
    """Exact revenue of SM1 at gamma = 0 on the {0..T}^2 grid.

    SM1 returns to the start after every adopt, so its revenue is the ratio
    of expected attacker to expected honest blocks per cycle.  A cycle opens
    with one block: an honest one is adopted (1 honest block); an attacker
    block followed by an honest one starts a race that the attacker wins
    only with its own next block (2 blocks to the winner); two attacker
    blocks start a walk from (2, 0) that waits while the lead is at least 2.
    The walk ends by overriding when an honest block brings the lead to 1
    (a attacker blocks), or by the adopt the truncation forces when the
    attacker's branch reaches T (h honest blocks lost).  Paths through the
    walk are counted in integers, so the sum is exact in the float ``alpha``.
    """
    if T < 3:
        raise ValueError(f"the walk needs T >= 3 (got {T})")
    p = Fraction(alpha)
    q = 1 - p
    # paths[a][h]: walk paths from (2, 0) to (a, h), all with lead >= 2, a < T
    paths = [[0] * T for _ in range(T)]
    paths[2][0] = 1
    for a in range(2, T):
        for h in range(a - 1):
            if (a, h) == (2, 0):
                continue
            after_attacker = paths[a - 1][h] if a - 1 - h >= 2 else 0
            after_honest = paths[a][h - 1] if h >= 1 else 0
            paths[a][h] = after_attacker + after_honest
    overrides = [(paths[a][a - 2] * p ** (a - 2) * q ** (a - 1), a) for a in range(2, T)]
    edges = [(paths[T - 1][h] * p ** (T - 2) * q**h, h) for h in range(T - 2)]
    if sum(w for w, _ in overrides) + sum(w for w, _ in edges) != 1:
        raise ArithmeticError("walk exits do not sum to one")
    walk_attacker = sum(w * blocks for w, blocks in overrides)
    walk_honest = sum(w * blocks for w, blocks in edges)
    attacker = 2 * p * q * p + p * p * walk_attacker
    honest = q + 2 * p * q * q + p * p * walk_honest
    return float(attacker / (attacker + honest))


def check_bounds(alpha: float, bounds: dict, sm1_revenue: float) -> None:
    """Certified bounds of ``optimize`` at a published gamma = 0 point."""
    lower, upper, eps = bounds["lower_bound"], bounds["upper_bound"], bounds["eps"]
    published_lower, published_upper = PUBLISHED_BOUNDS[alpha]
    _require(
        abs(lower - published_lower) <= BOUND_TOL,
        f"alpha={alpha}: lower bound {lower} is not within {BOUND_TOL}"
        f" of the published {published_lower}",
    )
    ceiling = min(published_upper + BOUND_TOL, alpha / (1 - alpha))
    _require(
        upper <= ceiling,
        f"alpha={alpha}: upper bound {upper} is above {ceiling}",
    )
    _require(
        lower >= sm1_revenue - eps,
        f"alpha={alpha}: lower bound {lower} is below SM1's exact revenue"
        f" {sm1_revenue} minus eps",
    )


def check_policy_revenue(revenue: float, bounds: dict) -> None:
    """The emitted policy earns between the certified bounds."""
    lower, upper = bounds["lower_bound"], bounds["upper_bound"]
    _require(
        lower <= revenue <= upper,
        f"exact revenue {revenue} of the emitted policy is outside the"
        f" certified bounds [{lower}, {upper}]",
    )


def check_threshold(variant: str, report: dict) -> None:
    """A threshold bracket with an exhibited deviation, around the published
    threshold."""
    lower, upper = report["alpha_lower"], report["alpha_upper"]
    published = PUBLISHED_THRESHOLDS[variant]
    _require(lower <= upper, f"{variant}: inverted bracket [{lower}, {upper}]")
    _require(report["exhibited"], f"{variant}: no profitable deviation exhibited")
    _require(
        lower - THRESHOLD_TOL <= published <= upper + THRESHOLD_TOL,
        f"{variant}: bracket [{lower}, {upper}] misses the published"
        f" threshold {published} by more than {THRESHOLD_TOL}",
    )
    if variant == "uniform":
        _require(
            upper < CONJECTURED_UNIFORM_THRESHOLD,
            f"uniform: deviation exhibited at {upper}, not below the"
            f" conjectured {CONJECTURED_UNIFORM_THRESHOLD}",
        )


def check_exact(revenue: float, reference: float) -> None:
    _require(
        abs(revenue - reference) <= EVALUATE_TOL,
        f"evaluated revenue {revenue} differs from the recursion {reference}"
        f" by more than {EVALUATE_TOL}",
    )


def check_simulated(revenue: float, stderr: float, reference: float) -> None:
    """A Monte Carlo estimate within Z_LIMIT standard errors of its reference."""
    _require(
        math.isfinite(stderr) and stderr > 0.0,
        f"standard error {stderr} is not a positive number",
    )
    _require(
        abs(revenue - reference) <= Z_LIMIT * stderr,
        f"simulated revenue {revenue} is {abs(revenue - reference) / stderr:.2f}"
        f" standard errors from {reference}",
    )
