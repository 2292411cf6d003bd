"""Shared test oracles, kept independent of the code paths they check."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy import sparse

from selfish_mining.chain import MiningModel, ThresholdVariant, transitions
from selfish_mining.model import (
    Action,
    ChainState,
    Fork,
    MiningParams,
    Policy,
    enumerate_states,
    feasible_actions,
    initial_states,
    num_states,
    state_index,
)

ACCEPTANCE_LINES: list[str] = []


def record_criterion(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def overpaying_reward_exact(
    a: int, h: int, rho: Fraction, alpha: Fraction, drift_at_full_weight: bool = False
) -> Fraction:
    """Re-derive the boundary compensation with exact rational arithmetic.

    ``drift_at_full_weight`` gives the superseded attacker-side formula
    ``(1-rho)*peak + drift``, which credited the drift blocks at weight 1
    instead of ``1 - rho``; tests use it to show that only the attacker side
    changed.
    """
    peak = alpha * (1 - alpha) / (1 - 2 * alpha) ** 2
    if a >= h:
        drift = Fraction(1, 2) * (Fraction(a - h) / (1 - 2 * alpha) + a + h)
        if drift_at_full_weight:
            return (1 - rho) * peak + drift
        return (1 - rho) * (peak + drift)
    catchup = (alpha / (1 - alpha)) ** (h - a)
    return (1 - catchup) * (-rho * h) + catchup * (1 - rho) * (
        peak + Fraction(h - a) / (1 - 2 * alpha)
    )


def sm1_reference_revenue(alpha: float, gamma: float) -> float:
    """Closed-form long-run revenue of the one-block-withholding strategy,
    from its renewal structure (independent of the stationary-solve path)."""
    numerator = alpha * (1 - alpha) ** 2 * (4 * alpha + gamma * (1 - 2 * alpha)) - (
        alpha**3
    )
    denominator = 1 - alpha * (1 + (2 - alpha) * alpha)
    return numerator / denominator


def sm1_truncated_revenue(alpha: float | Fraction, T: int) -> Fraction:
    """Exact long-run revenue of the one-block-withholding strategy at
    gamma = 0 on the {0..T}^2 grid, from its renewal structure (independent
    of the stationary-solve path).

    Every cycle starts with one fresh block.  An honest block is adopted
    (1 honest block).  An attacker block at (1,0) is followed either by an
    honest block, giving the (1,1) race that the attacker wins with its next
    block (2 attacker blocks) or loses (2 honest blocks), or by a second
    attacker block, starting the lead walk at (2,0).  The walk waits while
    the lead a-h is at least 2.  It ends by overriding when the lead falls
    to 1 (a attacker blocks), or at the grid edge a = T, where the
    truncation forces an adopt (h honest blocks, the whole branch lost).
    Lattice-path counts through the walk are exact integers, so the result
    is exact for a rational alpha.
    """
    if T < 3:
        raise ValueError(f"the lead walk needs T >= 3 (got {T})")
    alpha = Fraction(alpha)
    beta = 1 - alpha
    # paths[a][h]: lattice paths from (2,0) to (a,h) with a-h >= 2, a < T
    paths = [[0] * (T + 1) for _ in range(T)]
    paths[2][0] = 1
    for a in range(2, T):
        for h in range(a - 1):
            if (a, h) != (2, 0):
                from_attacker = paths[a - 1][h] if h <= a - 3 else 0
                from_honest = paths[a][h - 1] if h >= 1 else 0
                paths[a][h] = from_attacker + from_honest
    # override when an honest block brings (a, a-2) to lead 1
    overrides = [
        (paths[a][a - 2] * alpha ** (a - 2) * beta ** (a - 1), a) for a in range(2, T)
    ]
    # forced adopt when an attacker block brings (T-1, h) to the edge
    edges = [(paths[T - 1][h] * alpha ** (T - 2) * beta**h, h) for h in range(T - 2)]
    if sum(p for p, _ in overrides) + sum(p for p, _ in edges) != 1:
        raise AssertionError("lead-walk exits do not sum to one")
    walk_attacker = sum(p * blocks for p, blocks in overrides)
    walk_honest = sum(p * blocks for p, blocks in edges)
    attacker = alpha * beta * alpha * 2 + alpha * alpha * walk_attacker
    honest = beta + alpha * beta * beta * 2 + alpha * alpha * walk_honest
    return attacker / (attacker + honest)


def forward_closure(rule, params: MiningParams, T: int) -> set[ChainState]:
    """Brute-force reachable set of a per-state action rule, walking the raw
    transition generator from the two start states.  Boundary states adopt."""
    start = [ChainState(1, 0, Fork.IRRELEVANT), ChainState(0, 1, Fork.IRRELEVANT)]
    seen = set(start)
    frontier = list(start)
    while frontier:
        state = frontier.pop()
        action = Action.ADOPT if max(state.a, state.h) == T else rule(state)
        for prob, nxt, _reward in transitions(state, action, params):
            if prob > 0 and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def forward_closure_all_actions(
    params: MiningParams, T: int, feasible_fn
) -> set[ChainState]:
    """Reachable set when every feasible action may be taken."""
    start = [ChainState(1, 0, Fork.IRRELEVANT), ChainState(0, 1, Fork.IRRELEVANT)]
    seen = set(start)
    frontier = list(start)
    while frontier:
        state = frontier.pop()
        if max(state.a, state.h) == T:
            actions = [Action.ADOPT]
        else:
            actions = feasible_fn(state, params)
        for action in actions:
            for prob, nxt, _reward in transitions(state, action, params):
                if prob > 0 and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def grid_states(T: int) -> list[ChainState]:
    return enumerate_states(T)


def action_rows(model: MiningModel, action: Action) -> sparse.csr_matrix:
    """The (n, n) block of the stacked operator that holds ``action``'s rows."""
    start = int(action) * model.n
    return model.transition[start : start + model.n]


def reference_layers(
    params: MiningParams, T: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[sparse.csr_matrix, ...]]:
    """Feasibility, expected attacker and honest blocks, and one (n, n)
    transition matrix per action, built by walking :func:`transitions` state
    by state: the loop the vectorized builder replaced, kept as its
    reference."""
    n = num_states(T)
    states = enumerate_states(T)
    n_actions = len(Action)

    feasible = np.zeros((n_actions, n), dtype=bool)
    exp_attacker = np.zeros((n_actions, n))
    exp_honest = np.zeros((n_actions, n))
    rows: list[list[int]] = [[] for _ in range(n_actions)]
    cols: list[list[int]] = [[] for _ in range(n_actions)]
    probs: list[list[float]] = [[] for _ in range(n_actions)]

    for idx, state in enumerate(states):
        if max(state.a, state.h) == T:
            actions = [Action.ADOPT]
        else:
            actions = sorted(feasible_actions(state, params))
        for action in actions:
            feasible[action, idx] = True
            ea = eh = 0.0
            for prob, nxt, reward in transitions(state, action, params):
                if prob <= 0.0:
                    continue
                rows[action].append(idx)
                cols[action].append(state_index(nxt, T))
                probs[action].append(prob)
                ea += prob * reward.attacker
                eh += prob * reward.honest
            exp_attacker[action, idx] = ea
            exp_honest[action, idx] = eh

    matrices = tuple(
        sparse.coo_matrix(
            (probs[action], (rows[action], cols[action])), shape=(n, n)
        ).tocsr()
        for action in Action
    )
    return feasible, exp_attacker, exp_honest, matrices


def reference_model(params: MiningParams, T: int) -> MiningModel:
    """:func:`reference_layers` as a model, its per-action matrices stacked
    into the (actions * n, n) operator."""
    feasible, exp_attacker, exp_honest, matrices = reference_layers(params, T)
    n = num_states(T)
    states = enumerate_states(T)

    initial = np.zeros(n)
    first, second = initial_states(T)
    initial[first] = params.alpha
    initial[second] = 1 - params.alpha

    boundary = np.zeros(n, dtype=bool)
    for idx, state in enumerate(states):
        boundary[idx] = max(state.a, state.h) == T

    return MiningModel(
        params=params,
        T=T,
        feasible=feasible,
        transition=sparse.vstack(matrices, format="csr"),
        exp_attacker=exp_attacker,
        exp_honest=exp_honest,
        initial=initial,
        boundary=boundary,
    )


def reference_honest_disabled(
    model: MiningModel, variant: ThresholdVariant
) -> MiningModel:
    """A :func:`reference_model` with override removed at (1,0) or adopt at
    (0,1), across all fork labels."""
    if variant is ThresholdVariant.OVERRIDE_DISABLED_AT_1_0:
        a, h, action = 1, 0, Action.OVERRIDE
    else:
        a, h, action = 0, 1, Action.ADOPT
    feasible = model.feasible.copy()
    for fork in Fork:
        feasible[action, state_index(ChainState(a, h, fork), model.T)] = False
    return replace(model, feasible=feasible, disabled=variant)


def assert_models_identical(got: MiningModel, want: MiningModel) -> None:
    """Every field equal bit for bit, dtypes and sparse layouts included."""
    assert (got.params, got.T, got.disabled) == (want.params, want.T, want.disabled)
    for name in ("feasible", "exp_attacker", "exp_honest", "initial", "boundary"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    g, w = got.transition, want.transition
    assert g.format == w.format == "csr" and g.shape == w.shape
    for part in ("data", "indices", "indptr"):
        gp, wp = getattr(g, part), getattr(w, part)
        assert gp.dtype == wp.dtype and gp.tobytes() == wp.tobytes(), part


def reference_rvi(
    feasible: np.ndarray,
    matrices: tuple[sparse.csr_matrix, ...],
    rewards: np.ndarray,
    reference: int,
    eps: float,
) -> tuple[float, int, np.ndarray, np.ndarray]:
    """Damped relative value iteration with one sparse product per action
    and sweep, the loop the stacked solver replaced.  Returns the gain, the
    sweep count, the relative values and the greedy actions."""
    damping = 0.01
    masked = np.where(feasible, rewards, -np.inf)
    values = np.zeros(rewards.shape[1])
    q = np.empty(rewards.shape)
    for iteration in range(1, 1_000_000):
        for action, matrix in enumerate(matrices):
            q[action] = masked[action] + matrix.dot(values)
        bellman = q.max(axis=0)
        residual = bellman - values
        low, high = residual.min(), residual.max()
        if high - low <= eps:
            greedy = np.argmax(q, axis=0).astype(np.int8)
            return float(0.5 * (low + high)), iteration, values, greedy
        values = (1.0 - damping) * bellman + damping * values
        values -= values[reference]
    raise AssertionError("reference value iteration did not converge")


def reference_dump(model: MiningModel) -> str:
    """The text of ``dump_model``, written line by line from
    :func:`transitions`."""
    lines = []
    for idx, state in enumerate(enumerate_states(model.T)):
        for action in model.feasible_at(idx):
            entries = [
                f"{prob:.12g}:({nxt.a},{nxt.h},{nxt.fork.name.lower()})"
                f":{reward.attacker},{reward.honest}"
                for prob, nxt, reward in transitions(state, action, model.params)
                if prob > 0.0
            ]
            lines.append(
                f"{state.a},{state.h},{state.fork.name.lower()}"
                f" | {action.name.lower()} -> [{' '.join(entries)}]"
            )
    return "\n".join(lines) + "\n"


def reference_step_tables(policy: Policy, params: MiningParams) -> dict:
    """The simulator's step tables for a feasible policy, read state by
    state from :func:`transitions`; boundary states adopt.  Row ``state`` of
    the (n, 3) tables holds the attacker-block branch, the race-won branch
    and the other honest-block branch; without a race the last two are the
    same honest-block entry."""
    T = policy.T
    n = num_states(T)
    tables = {
        "next_state": np.zeros((n, 3), dtype=np.int64),
        "attacker": np.zeros((n, 3), dtype=np.int64),
        "honest": np.zeros(n, dtype=np.int64),
        "race_win_prob": np.zeros(n),
    }
    for idx, state in enumerate(enumerate_states(T)):
        action = Action.ADOPT if max(state.a, state.h) == T else policy.action_at(state)
        entries = transitions(state, action, params)
        branches = (entries[0], entries[1], entries[-1])
        for branch, (_prob, nxt, reward) in enumerate(branches):
            tables["next_state"][idx, branch] = state_index(nxt, T)
            tables["attacker"][idx, branch] = reward.attacker
        tables["honest"][idx] = entries[0].reward.honest
        tables["race_win_prob"][idx] = params.race_win_prob if len(entries) == 3 else 0.0
    return tables
