"""Text rendering of policies as action grids.

Rows index the attacker's branch length, columns the honest branch length;
each cell holds three characters for the irrelevant/relevant/active fork
labels, drawn from a (adopt), o (override), m (match), w (wait), with '*'
marking states the policy never visits (forward closure from the two start
states under the policy itself).
"""

from __future__ import annotations

import numpy as np

from .chain import MiningModel, build_base_model
from .mdp import reachable_mask
from .model import MiningParams, Policy

ACTION_CHARS = np.array(["a", "o", "m", "w"])  # indexed by action ordinal
UNREACHABLE_CHAR = "*"


def _model_for(policy: Policy, model: MiningModel | None) -> MiningModel:
    if model is not None:
        if model.T != policy.T:
            raise ValueError("model truncation does not match the policy")
        return model
    if policy.alpha is None or policy.gamma is None:
        raise ValueError(
            "policy carries no parameters; pass the model it was solved on"
        )
    params = MiningParams(
        policy.alpha, policy.gamma, policy.variant or "standard"
    )
    return build_base_model(params, policy.T)


def render_policy_grid(
    policy: Policy, model: MiningModel | None = None, t_view: int = 8
) -> list[list[str]]:
    """Grid of three-character cells, ``grid[a][h]``, for a,h <= t_view."""
    model = _model_for(policy, model)
    if not 0 <= t_view <= policy.T:
        raise ValueError(f"t_view must be in [0, {policy.T}] (got {t_view})")
    chars = np.where(
        reachable_mask(model, policy), ACTION_CHARS[policy.actions], UNREACHABLE_CHAR
    )
    side = policy.T + 1
    cells = chars.reshape(side, side, 3)[: t_view + 1, : t_view + 1]
    return np.char.add(np.char.add(cells[..., 0], cells[..., 1]), cells[..., 2]).tolist()


def render_policy_text(
    policy: Policy, model: MiningModel | None = None, t_view: int = 8
) -> str:
    """Fixed-width table of :func:`render_policy_grid` with a/h axis labels."""
    grid = render_policy_grid(policy, model, t_view)
    width = 3
    header = "a\\h | " + " ".join(f"{h:>{width}}" for h in range(t_view + 1))
    rule = "-" * len(header)
    lines = [header, rule]
    for a, row in enumerate(grid):
        lines.append(f"{a:>3} | " + " ".join(f"{cell:>{width}}" for cell in row))
    return "\n".join(lines) + "\n"
