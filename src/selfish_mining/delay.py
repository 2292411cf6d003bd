"""Block-race analysis under communication delays.

With link delays, forks appear naturally even when everyone mines honestly,
so an attacker that is behind by one block can gamble on catching up instead
of adopting.  ``catchup_probability`` gives a closed-form lower bound q on
winning that race: the attacker must mine the next two blocks before the
honest network mines any, including while the relevant blocks are in flight.
The expected advantage of gambling at deficit one with honest length k is
lower-bounded by ``(k+1)*q - rho``, which is positive for large enough k
whenever q > 0 -- with delays, some deviation always pays, no matter how
small the attacker.

The closed form is all the package evaluates, so this module needs only the
standard library; the adaptive quadrature of the double integral behind q,
the cross-check of the closed form, lives with the test oracles in
``tests/helpers.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DelayParams:
    """Block rate and one-way link delays between attacker and honest nodes.

    alpha may be 0 (degenerate attacker, q = 0) but not 1; lambda is the
    network block rate in blocks per time unit; delays are in time units.
    """

    alpha: float
    lam: float
    d_ah: float  # attacker -> honest delay
    d_ha: float  # honest -> attacker delay

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1) (got {self.alpha})")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lambda must be > 0 and finite (got {self.lam})")
        if not (self.d_ah >= 0.0 and self.d_ha >= 0.0):
            raise ValueError("delays must be >= 0")


def catchup_probability(params: DelayParams) -> float:
    """Closed form alpha^2 * exp(-(1-alpha)*lambda*(d_ah + d_ha)).

    The round-trip delay only enters through the chance that honest mining
    stays silent while blocks propagate; the attacker's own two block times
    integrate out.  The test suite recomputes the underlying double
    integral by adaptive quadrature to cross-check it.
    """
    alpha, lam = params.alpha, params.lam
    return alpha * alpha * math.exp(-(1.0 - alpha) * lam * (params.d_ah + params.d_ha))


def deviation_gain(k: int, q: float, rho: float) -> float:
    """Lower bound (k+1)*q - rho on the expected-reward advantage of the
    catch-up gamble over adopting at state (k-1, k)."""
    if k < 1:
        raise ValueError(f"k must be >= 1 (got {k})")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1] (got {q})")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1] (got {rho})")
    return (k + 1) * q - rho


def min_profitable_k(
    params: DelayParams, rho: float, k_cap: int = 10**6
) -> int | None:
    """Smallest k with (k+1)*q - rho > 0, or None when no k up to k_cap
    qualifies (possible only as q approaches 0)."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1] (got {rho})")
    if k_cap < 1:
        raise ValueError(f"k_cap must be >= 1 (got {k_cap})")
    q = catchup_probability(params)
    if q <= 0.0:
        return None
    # Every qualifying k exceeds rho/q - 1, which is infinite when a
    # subnormal q overflows the division.
    start = rho / q - 1.0
    if start > k_cap:
        return None
    # Arithmetic start k = ceil(rho/q - 1), then scan to settle strictness at
    # floating-point boundaries.
    k = max(1, math.ceil(start) - 1)
    while k <= k_cap:
        if deviation_gain(k, q, rho) > 0.0:
            return k
        k += 1
    return None
