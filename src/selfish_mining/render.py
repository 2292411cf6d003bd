"""Text rendering of policies as action grids.

Rows index the attacker's branch length, columns the honest branch length;
each cell holds three characters for the irrelevant/relevant/active fork
labels, drawn from a (adopt), o (override), m (match), w (wait), with '*'
marking states the policy never visits (forward closure from the two start
states under the policy itself).
"""

from __future__ import annotations

import numpy as np

from .chain import policy_closure, transition_table
from .model import MiningParams, Policy

ACTION_CHARS = np.array(["a", "o", "m", "w"])  # indexed by action ordinal
UNREACHABLE_CHAR = "*"


def render_policy_grid(policy: Policy, t_view: int = 8) -> list[list[str]]:
    """Grid of three-character cells, ``grid[a][h]``, for a,h <= t_view.
    Reachability is traced on the transition table of the parameters the
    policy carries."""
    if policy.alpha is None or policy.gamma is None:
        raise ValueError("policy carries no parameters")
    params = MiningParams(policy.alpha, policy.gamma, policy.variant or "standard")
    if not 0 <= t_view <= policy.T:
        raise ValueError(f"t_view must be in [0, {policy.T}] (got {t_view})")
    table = transition_table(params, policy.T)
    chars = np.where(
        policy_closure(table, policy.actions),
        ACTION_CHARS[policy.actions],
        UNREACHABLE_CHAR,
    )
    side = policy.T + 1
    cells = chars.reshape(side, side, 3)[: t_view + 1, : t_view + 1]
    return np.char.add(np.char.add(cells[..., 0], cells[..., 1]), cells[..., 2]).tolist()


def render_policy_text(policy: Policy, t_view: int = 8) -> str:
    """Fixed-width table of :func:`render_policy_grid` with a/h axis labels."""
    grid = render_policy_grid(policy, t_view)
    width = 3
    header = "a\\h | " + " ".join(f"{h:>{width}}" for h in range(t_view + 1))
    rule = "-" * len(header)
    lines = [header, rule]
    for a, row in enumerate(grid):
        lines.append(f"{a:>3} | " + " ".join(f"{cell:>{width}}" for cell in row))
    return "\n".join(lines) + "\n"
