"""Shared test oracles, kept independent of the code paths they check."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import integrate, sparse
from scipy.sparse import linalg as sparse_linalg

from selfish_mining.chain import (
    BoundaryMode,
    MiningModel,
    ScalarModel,
    ThresholdVariant,
    TransitionTable,
    branch_weights,
    build_base_model,
    build_honest_disabled,
    build_truncated,
    overpaying_terminal_reward,
    transition_table,
)
from selfish_mining.delay import DelayParams
from selfish_mining.mdp import evaluate_gain, gain_below, solve_average_reward
from selfish_mining.model import (
    Action,
    ChainState,
    Fork,
    MiningParams,
    Policy,
    Variant,
    grid_coordinates,
    initial_states,
    num_states,
    state_index,
    upper_bound_revenue,
)
from selfish_mining.optimize import OptimizeConfig, _exhibit, find_optimal

ACCEPTANCE_LINES: list[str] = []
QUADRATURE_TOL = 1e-10


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


# The block-race rules and the built-in policies stated one state at a time:
# the references the grid-wide table and the grid rules are checked against.


class RewardPair(NamedTuple):
    """Blocks permanently accepted on a transition, attacker and honest."""

    attacker: int
    honest: int


class TransitionEntry(NamedTuple):
    probability: float
    next_state: ChainState
    reward: RewardPair


def grid_states(T: int) -> list[ChainState]:
    """All grid states in index order; the first is (0,0,irrelevant)."""
    num_states(T)  # rejects a truncation off the grid or past memory
    return [
        ChainState(a, h, fork)
        for a in range(T + 1)
        for h in range(T + 1)
        for fork in Fork
    ]


def action_at(policy: Policy, state: ChainState) -> Action:
    """The action a policy takes at one state."""
    return Action(policy.actions[state_index(state, policy.T)])


def class_at(model: MiningModel, state: ChainState) -> int:
    """The class of a built model that holds one grid state."""
    return int(model.table.classes[0][state_index(state, model.T)])


def feasible_at(model: MiningModel, index: int) -> list[Action]:
    """The feasible actions of a built model at one grid state index, those
    of the class that holds it, in ordinal order."""
    cls = model.table.classes[0][index]
    return [action for action in Action if model.feasible[action, cls]]


def bisimulation_classes(params: MiningParams, T: int) -> np.ndarray:
    """The coarsest partition of the grid into fork-label classes, within
    (a, h) cells, that is a bisimulation of the per-state
    :func:`transitions`: two states share a class when every feasible action
    of one has an action of the other with the same expected attacker and
    honest blocks and the same probability of landing in each class.
    Partition refinement from the cells until no class splits; probabilities
    are compared to 12 decimals, so that sums of race branches that differ
    from a plain branch by round-off alone still match.  Returns each grid
    state's class, the classes numbered by their lowest member."""
    moves = []
    for state in grid_states(T):
        if max(state.a, state.h) == T:
            actions = [Action.ADOPT]
        else:
            actions = sorted(feasible_actions(state, params))
        per_action = []
        for action in actions:
            entries = [e for e in transitions(state, action, params) if e.probability > 0]
            per_action.append((
                round(sum(e.probability * e.reward.attacker for e in entries), 12),
                round(sum(e.probability * e.reward.honest for e in entries), 12),
                [(state_index(e.next_state, T), e.probability) for e in entries],
            ))
        moves.append(per_action)
    label = [index // len(Fork) for index in range(len(moves))]  # the cells
    while True:
        signatures = []
        for index, per_action in enumerate(moves):
            outcomes = set()
            for attacker, honest, branches in per_action:
                into: dict[int, float] = defaultdict(float)
                for target, probability in branches:
                    into[label[target]] += probability
                landing = tuple(sorted((c, round(p, 12)) for c, p in into.items()))
                outcomes.add((attacker, honest, landing))
            signatures.append((label[index], frozenset(outcomes)))
        numbers: dict = {}
        refined = [numbers.setdefault(sig, len(numbers)) for sig in signatures]
        if len(numbers) == len(set(label)):
            return np.array(refined)
        label = refined


def feasible_actions(state: ChainState, params: MiningParams) -> frozenset[Action]:
    """Actions available at an interior state (max(a,h) below the truncation;
    truncation-boundary states keep adopt alone).

    Adopt and wait are always available.  Override needs a strictly longer
    secret branch.  Match needs a >= h and a live race opportunity: a relevant
    fork, or any non-active fork under uniform tie breaking.
    """
    actions = {Action.ADOPT, Action.WAIT}
    if state.a > state.h:
        actions.add(Action.OVERRIDE)
    if state.a >= state.h:
        if state.fork is Fork.RELEVANT:
            actions.add(Action.MATCH)
        elif (
            state.fork is Fork.IRRELEVANT
            and params.variant is Variant.UNIFORM_TIE_BREAK
        ):
            actions.add(Action.MATCH)
    return frozenset(actions)


def transitions(
    state: ChainState, action: Action, params: MiningParams
) -> tuple[TransitionEntry, ...]:
    """Raw transition entries for one state-action pair.

    Entries come in a fixed branch order -- attacker block first, then the
    honest-block branches (race-won before race-lost where a race applies) --
    and zero-probability race branches are kept, so positional semantics stay
    stable for the simulator.  Matrix builders drop zero entries.
    """
    alpha = params.alpha
    a, h = state.a, state.h

    if action is Action.ADOPT:
        reward = RewardPair(0, h)
        return (
            TransitionEntry(alpha, ChainState(1, 0, Fork.IRRELEVANT), reward),
            TransitionEntry(1 - alpha, ChainState(0, 1, Fork.IRRELEVANT), reward),
        )

    if action is Action.OVERRIDE:
        if a <= h:
            raise ValueError(f"override infeasible at {state}")
        reward = RewardPair(h + 1, 0)
        return (
            TransitionEntry(alpha, ChainState(a - h, 0, Fork.IRRELEVANT), reward),
            TransitionEntry(
                1 - alpha, ChainState(a - h - 1, 1, Fork.RELEVANT), reward
            ),
        )

    race = action is Action.MATCH or (
        action is Action.WAIT and state.fork is Fork.ACTIVE and a >= h
    )
    if race:
        if action is Action.MATCH and a < h:
            raise ValueError(f"match infeasible at {state}")
        win = params.race_win_prob
        return (
            TransitionEntry(
                alpha, ChainState(a + 1, h, Fork.ACTIVE), RewardPair(0, 0)
            ),
            TransitionEntry(
                win * (1 - alpha),
                ChainState(a - h, 1, Fork.RELEVANT),
                RewardPair(h, 0),
            ),
            TransitionEntry(
                (1 - win) * (1 - alpha),
                ChainState(a, h + 1, Fork.RELEVANT),
                RewardPair(0, 0),
            ),
        )

    if action is Action.WAIT:
        # Plain private mining.  Also used for the inconsistent (and
        # unreachable) active-fork states with a < h, where no published
        # attacker chain exists to race.
        return (
            TransitionEntry(
                alpha, ChainState(a + 1, h, Fork.IRRELEVANT), RewardPair(0, 0)
            ),
            TransitionEntry(
                1 - alpha, ChainState(a, h + 1, Fork.RELEVANT), RewardPair(0, 0)
            ),
        )

    raise ValueError(f"unknown action {action!r}")


def honest_policy(state: ChainState) -> Action:
    """The protocol-following policy: publish a longer chain immediately,
    abandon a shorter one, wait on ties."""
    if state.h > state.a:
        return Action.ADOPT
    if state.a > state.h:
        return Action.OVERRIDE
    return Action.WAIT


def sm1_policy(state: ChainState) -> Action:
    """The classic one-block-withholding strategy: match at (1,1) only when
    the fork is relevant, override when the lead falls to one."""
    if state.h > state.a:
        return Action.ADOPT
    if state.a == state.h == 1:
        return Action.MATCH if state.fork is Fork.RELEVANT else Action.WAIT
    if state.h == state.a - 1 and state.h >= 1:
        return Action.OVERRIDE
    return Action.WAIT


REFERENCE_POLICIES = {"honest": honest_policy, "sm1": sm1_policy}


def reference_policy(name: str, T: int, params: MiningParams) -> Policy:
    """A built-in policy tabulated state by state from its per-state rule;
    boundary states adopt."""
    rule = REFERENCE_POLICIES[name]
    actions = [
        Action.ADOPT if max(state.a, state.h) == T else rule(state)
        for state in grid_states(T)
    ]
    return Policy(
        T=T,
        actions=np.array(actions, dtype=np.int8),
        alpha=params.alpha,
        gamma=params.gamma,
        variant=params.variant,
        label=name,
    )


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


def operator_closure(model: ReferenceModel, actions: np.ndarray) -> np.ndarray:
    """Mask of the states a policy reaches traced on a grid operator, not
    on the table: a depth-first walk from the two start states over the
    positive entries of the policy's rows of ``model.transition``."""
    n = model.transition.shape[1]
    P = model.transition[actions.astype(np.int64) * n + np.arange(n)]
    seen = np.zeros(n, dtype=bool)
    frontier = list(initial_states(model.T))
    seen[frontier] = True
    while frontier:
        state = frontier.pop()
        row = slice(P.indptr[state], P.indptr[state + 1])
        for nxt in P.indices[row][P.data[row] > 0]:
            if not seen[nxt]:
                seen[nxt] = True
                frontier.append(nxt)
    return seen


def branch_probability(table: TransitionTable) -> np.ndarray:
    """(actions, n, 3) branch probabilities of a transition table at its
    params' alpha: the weight of each branch's kind."""
    return branch_weights(table.params)[table.kind]


def action_rows(model: MiningModel | ReferenceModel, action: Action) -> sparse.csr_matrix:
    """The (n, n) block of the stacked operator that holds ``action``'s rows."""
    n = model.transition.shape[1]
    return model.transition[int(action) * n : (int(action) + 1) * n]


def reference_layers(
    params: MiningParams, T: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[sparse.csr_matrix, ...]]:
    """Feasibility, expected attacker and honest blocks, and one (n, n)
    transition matrix per action, built by walking :func:`transitions` state
    by state: the loop the vectorized builder replaced, kept as its
    reference."""
    n = num_states(T)
    states = grid_states(T)
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


@dataclass(frozen=True, eq=False)
class ReferenceModel:
    """A built model's arrays as a reference build gives them: the stacked
    operator, feasibility, the expected attacker and honest blocks of every
    (action, state) pair and the truncation boundary."""

    params: MiningParams
    T: int
    feasible: np.ndarray  # (num actions, n) bool
    transition: sparse.csr_matrix  # (num actions * n, n)
    exp_attacker: np.ndarray  # (num actions, n)
    exp_honest: np.ndarray  # (num actions, n)
    boundary: np.ndarray  # (n,) bool

    @property
    def reference_index(self) -> int:
        """The grid index of (1,0,irrelevant), where a grid solve pins its
        relative values."""
        return initial_states(self.T)[0]


def reference_model(params: MiningParams, T: int) -> ReferenceModel:
    """:func:`reference_layers` as a model, its per-action matrices stacked
    into the (actions * n, n) operator."""
    feasible, exp_attacker, exp_honest, matrices = reference_layers(params, T)
    n = num_states(T)
    states = grid_states(T)

    boundary = np.zeros(n, dtype=bool)
    for idx, state in enumerate(states):
        boundary[idx] = max(state.a, state.h) == T

    return ReferenceModel(
        params=params,
        T=T,
        feasible=feasible,
        transition=sparse.vstack(matrices, format="csr"),
        exp_attacker=exp_attacker,
        exp_honest=exp_honest,
        boundary=boundary,
    )


def coo_base_model(params: MiningParams, T: int) -> ReferenceModel:
    """The base model as built before the alpha-free table: the live
    branches of :func:`transition_table` handed to scipy as COO triplets,
    whose CSR conversion sums the two branches of a race that land on one
    state, and the expected rewards summed branch by branch."""
    table = transition_table(params, T)
    n = num_states(T)
    p = branch_probability(table)
    live = np.nonzero(p > 0.0)
    transition = sparse.coo_matrix(
        (p[live], (live[0] * n + live[1], table.next_state[live])),
        shape=(len(Action) * n, n),
    ).tocsr()
    a, h, _fork = grid_coordinates(T)
    return ReferenceModel(
        params=params,
        T=T,
        feasible=table.feasible,
        transition=transition,
        exp_attacker=sum(p[..., b] * table.attacker[..., b] for b in range(3)),
        exp_honest=sum(p[..., b] * table.honest[..., b] for b in range(3)),
        boundary=np.maximum(a, h) == T,
    )


def reference_honest_disabled(
    model: ReferenceModel, variant: ThresholdVariant
) -> ReferenceModel:
    """A :func:`reference_model` with override removed at (1,0) or adopt at
    (0,1), across all fork labels."""
    if variant is ThresholdVariant.OVERRIDE_DISABLED_AT_1_0:
        a, h, action = 1, 0, Action.OVERRIDE
    else:
        a, h, action = 0, 1, Action.ADOPT
    feasible = model.feasible.copy()
    for fork in Fork:
        feasible[action, state_index(ChainState(a, h, fork), model.T)] = False
    return replace(model, feasible=feasible)


def grid_truncated(
    params: MiningParams,
    T: int,
    mode: BoundaryMode,
    rho: float,
    disabled: ThresholdVariant | None = None,
) -> ScalarModel:
    """The scalarized model on the whole grid, the solve the class model
    replaced: scipy's COO build of the grid operator (:func:`coo_base_model`),
    with honest mining ``disabled`` as :func:`reference_honest_disabled`
    removes it, and every boundary state's adopt paid its
    :func:`overpaying_terminal_reward` when over-paying.  It solves with
    :func:`solve_average_reward` like a class model."""
    grid = coo_base_model(params, T)
    if disabled is not None:
        grid = reference_honest_disabled(grid, disabled)
    attacker, honest = grid.exp_attacker, grid.exp_honest
    rewards = attacker - rho * (attacker + honest)
    if mode is BoundaryMode.OVER_PAYING:
        a, h, _fork = grid_coordinates(T)
        for idx in np.flatnonzero(grid.boundary):
            rewards[Action.ADOPT, idx] = overpaying_terminal_reward(
                a[idx], h[idx], rho, params.alpha
            )
    return ScalarModel(model=grid, rewards=rewards)


def lumped(model: ReferenceModel, table: TransitionTable) -> ReferenceModel:
    """A grid model lumped by the table's class map: a class's actions are
    those feasible at every member, and its rows are its representative's
    rows with the columns of each class summed; its expected blocks and
    boundary are its representative's."""
    class_of, representatives = table.classes
    n, k = len(class_of), len(representatives)
    feasible = np.ones((len(Action), k), dtype=bool)
    for action in Action:
        np.logical_and.at(feasible[action], class_of, model.feasible[action])
    rows = (np.arange(len(Action))[:, None] * n + representatives).ravel()
    members = sparse.csr_matrix((np.ones(n), (np.arange(n), class_of)), (n, k))
    transition = (model.transition[rows] @ members).tocsr()
    transition.sum_duplicates()
    return replace(
        model,
        feasible=feasible,
        transition=transition,
        exp_attacker=model.exp_attacker[:, representatives],
        exp_honest=model.exp_honest[:, representatives],
        boundary=model.boundary[representatives],
    )


def lumped_matrices(params: MiningParams, T: int) -> tuple[sparse.csr_matrix, ...]:
    """One (k, k) class matrix per action, the per-state reference build
    lumped by the class map: the per-action layers of the stacked class
    operator."""
    table = transition_table(params, T)
    P, k = lumped(reference_model(params, T), table).transition, len(table.classes[1])
    return tuple(P[action * k : (action + 1) * k] for action in Action)


def assert_models_identical(got: MiningModel, want: ReferenceModel) -> None:
    """Every array of the grid reference lumped by the built model's class
    map (:func:`lumped`) equal bit for bit to the built class model's, the
    expected blocks it gives included, dtypes and sparse layouts too."""
    assert (got.params, got.T) == (want.params, want.T)
    want = lumped(want, got.table)
    exp_attacker, exp_honest = got.expected_blocks()
    arrays = {
        "feasible": got.feasible,
        "exp_attacker": exp_attacker,
        "exp_honest": exp_honest,
        "boundary": got.boundary,
    }
    for name, g in arrays.items():
        w = getattr(want, name)
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
    initial_values: np.ndarray | None = None,
    bound: float = np.nan,
) -> tuple[float, int, np.ndarray, np.ndarray, tuple[float, float]]:
    """Damped relative value iteration with one sparse product per action
    and sweep, the loop the stacked solver replaced, from ``initial_values``
    (zeros by default).  It stops at a span of at most ``eps`` or at a
    residual bracket wholly above or below ``bound``.  Returns the gain, the
    sweep count, the relative values, the greedy actions and the bracket."""
    damping = 0.01
    masked = np.where(feasible, rewards, -np.inf)
    if initial_values is None:
        values = np.zeros(rewards.shape[1])
    else:
        values = np.array(initial_values, dtype=float)
    q = np.empty(rewards.shape)
    for iteration in range(1, 1_000_000):
        for action, matrix in enumerate(matrices):
            q[action] = masked[action] + matrix.dot(values)
        bellman = q.max(axis=0)
        residual = bellman - values
        low, high = residual.min(), residual.max()
        if high - low <= eps or high < bound or low > bound:
            greedy = np.argmax(q, axis=0).astype(np.int8)
            gain = float(0.5 * (low + high))
            return gain, iteration, values, greedy, (float(low), float(high))
        values = (1.0 - damping) * bellman + damping * values
        values -= values[reference]
    raise AssertionError("reference value iteration did not converge")


def reference_policy_iteration(
    feasible: np.ndarray,
    transition: sparse.csr_matrix,
    matrices: tuple[sparse.csr_matrix, ...],
    rewards: np.ndarray,
    reference: int,
    eps: float,
    actions: np.ndarray,
) -> tuple[int, np.ndarray, np.ndarray, tuple[float, float]]:
    """Howard policy iteration from ``actions`` with one sparse product per
    action and step, each policy evaluated exactly on the stacked
    ``transition``; the improved policy keeps the current action unless the
    lowest-ordinal best one is strictly better.  Stops at a residual span of
    at most ``eps``.  Returns the step count, the improved actions, the
    evaluated bias and the bracket."""
    masked = np.where(feasible, rewards, -np.inf)
    states = np.arange(rewards.shape[1])
    q = np.empty(rewards.shape)
    for step in range(1, 1_000):
        _, values = evaluate_gain(feasible, transition, rewards, reference, actions)
        for action, matrix in enumerate(matrices):
            q[action] = masked[action] + matrix.dot(values)
        best = np.argmax(q, axis=0)
        residual = q.max(axis=0) - values
        low, high = residual.min(), residual.max()
        better = q[best, states] > q[actions, states]
        improved = np.where(better, best, actions).astype(np.int8)
        if high - low <= eps:
            return step, improved, values, (float(low), float(high))
        actions = improved
    raise AssertionError("reference policy iteration did not converge")


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
        "adopt": np.zeros(n, dtype=bool),
    }
    for idx, state in enumerate(grid_states(T)):
        action = Action.ADOPT if max(state.a, state.h) == T else action_at(policy, state)
        entries = transitions(state, action, params)
        branches = (entries[0], entries[1], entries[-1])
        for branch, (_prob, nxt, reward) in enumerate(branches):
            tables["next_state"][idx, branch] = state_index(nxt, T)
            tables["attacker"][idx, branch] = reward.attacker
        tables["honest"][idx] = entries[0].reward.honest
        tables["race_win_prob"][idx] = params.race_win_prob if len(entries) == 3 else 0.0
        tables["adopt"][idx] = action is Action.ADOPT
    return tables


def exact_round_law(
    policy: Policy, params: MiningParams, rounds: int
) -> dict[tuple[int, int], float]:
    """Law of (attacker blocks, honest blocks) accepted in the first
    ``rounds`` rounds from the initial distribution, summed over every
    branch path through :func:`transition_table`; boundary states adopt."""
    T = policy.T
    table = transition_table(params, T)
    probability = branch_probability(table)
    a, h, _ = grid_coordinates(T)
    actions = np.where(np.maximum(a, h) == T, Action.ADOPT, policy.actions)
    first, second = initial_states(T)
    paths = {(first, 0, 0): params.alpha, (second, 0, 0): 1 - params.alpha}
    for _ in range(rounds):
        step: dict[tuple[int, int, int], float] = defaultdict(float)
        for (state, attacker, honest), p in paths.items():
            action = actions[state]
            for branch in range(3):
                q = probability[action, state, branch]
                if q > 0:
                    key = (
                        int(table.next_state[action, state, branch]),
                        attacker + int(table.attacker[action, state, branch]),
                        honest + int(table.honest[action, state, branch]),
                    )
                    step[key] += p * q
        paths = step
    law: dict[tuple[int, int], float] = defaultdict(float)
    for (_, attacker, honest), p in paths.items():
        law[attacker, honest] += p
    return dict(law)


class BisectionBounds(NamedTuple):
    rho: float
    upper_bound: float


def reference_bisection(config: OptimizeConfig, model: MiningModel) -> BisectionBounds:
    """Bisection on ``rho`` for the root of the under-paying gain, the search
    the ratio iteration replaced, with the same over-paying certificate.

    The search keeps the invariant gain(low) > 0 >= gain(high) and stops
    once the bracket is narrower than ``eps/8``, warm-starting each solve
    from the previous probe's values.  Its lower bound was ``rho - eps``, and
    the certificate is solved at ``low - eps/4``.
    """
    solver_eps = config.eps / 8.0
    low, high = 0.0, 1.0
    values = None
    while True:
        rho = 0.5 * (low + high)
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, rho)
        result = solve_average_reward(scalar, solver_eps, initial_values=values)
        values = result.values
        if result.gain > 0.0:
            low = rho
        else:
            high = rho
        if high - low < solver_eps:
            break

    rho_prime = max(low - config.eps / 4.0, 0.0)
    over = build_truncated(model, BoundaryMode.OVER_PAYING, rho_prime)
    u = solve_average_reward(over, config.eps_prime, initial_values=values).gain
    upper_bound = min(
        rho_prime + 2.0 * (u + config.eps_prime),
        upper_bound_revenue(config.params.alpha),
    )
    return BisectionBounds(rho, upper_bound)


def reference_certify(
    alpha: float, gamma: float, variant: Variant, T: int, eps: float
) -> tuple[bool, float]:
    """The certification test solving both honest-disabled over-paying
    models cold to ``eps``, the loop whose results the threshold search's
    decision pass must reproduce.  Returns (certified, worst gain)."""
    model = build_base_model(MiningParams(alpha, gamma, variant), T)
    worst = -np.inf
    for tv in ThresholdVariant:
        disabled = build_honest_disabled(model, tv)
        scalar = build_truncated(disabled, BoundaryMode.OVER_PAYING, rho=alpha)
        worst = max(worst, solve_average_reward(scalar, eps).gain)
        if worst > -eps:
            return False, worst
    return True, worst


def reference_exhibit(
    alpha: float, gamma: float, variant: Variant, T: int, eps: float
) -> float:
    """The lower bound of a cold :func:`find_optimal` at ``alpha``, the
    revenue the threshold search's exhibit step must match within ``eps``;
    it exhibits a profitable deviation when it exceeds ``alpha + eps``."""
    config = OptimizeConfig(MiningParams(alpha, gamma, variant), T, eps, eps)
    return find_optimal(config).lower_bound


def warm_certify(
    table: TransitionTable, alpha: float, eps: float, values: np.ndarray | None
) -> tuple[bool, np.ndarray]:
    """The certification test with each model decided warm from the values
    the last decision ended at, the first from ``values``.  Returns
    (certified, the last decided model's final values)."""
    model = table.weigh(alpha)
    scalar = build_truncated(model, BoundaryMode.OVER_PAYING, rho=alpha)
    for tv in ThresholdVariant:
        disabled = replace(scalar, model=build_honest_disabled(model, tv))
        verdict = gain_below(disabled, -eps, eps, values)
        values = verdict.result.values
        if not verdict.below:
            return False, values
    return True, values


def reference_threshold_warm(
    gamma: float, variant: Variant, T: int, eps: float, alpha_tol: float = 1e-3
) -> tuple[list[tuple[float, str]], float, float]:
    """The threshold search starting every decision from the values the last
    one ended at, across probes, and each exhibit from the last decision's:
    the start rule the bracket ends' mean replaced, and the oracle for its
    decisions.  Returns the probes' (alpha, kind), alpha_lower and
    alpha_upper."""
    table = transition_table(MiningParams(0.25, gamma, variant), T)
    probes, values = [], None
    low, high = 0.0, 0.5
    while high - low > alpha_tol:
        mid = 0.5 * (low + high)
        certified, values = warm_certify(table, mid, eps, values)
        probes.append((mid, "certified" if certified else "not-certified"))
        low, high = (mid, high) if certified else (low, mid)
    exhibited, step, candidate = False, alpha_tol, min(high, 0.499)
    for _ in range(10):
        if candidate + eps >= 1.0:
            break
        exhibited, _rev, values = _exhibit(table, candidate, eps, values)
        probes.append((candidate, "profitable" if exhibited else "not-profitable"))
        if exhibited or candidate == 0.499:
            break
        candidate = min(candidate + step, 0.499)
        step *= 2.0
    return probes, low, candidate if exhibited else 0.5


def reference_stationary(P: sparse.csr_matrix) -> np.ndarray:
    """Stationary distribution by a second direct solver: ``spsolve`` with
    its default options on ``P^T - I`` with the first state's probability
    fixed at one and its equation dropped, normalized afterwards.  Needs the
    first state recurrent; round-off below zero is clipped."""
    n = P.shape[0]
    if n == 1:
        return np.ones(1)
    Q = (P.T - sparse.identity(n, format="csr")).tocsc()
    keep = np.arange(1, n)
    rhs = -np.asarray(Q[keep, 0].todense()).ravel()
    pi = np.empty(n)
    pi[0] = 1.0
    pi[1:] = sparse_linalg.spsolve(Q[keep][:, keep].tocsr(), rhs)
    pi = np.maximum(pi / pi.sum(), 0.0)
    return pi / pi.sum()


def deviation_gain_full(k: int, q: float, rho: float) -> float:
    """The catch-up gamble's advantage at state (k-1, k) before it is
    bounded: ``q*(1-rho)*(k+1) - (1-q)*rho*(k+1) + rho*k``, which
    ``deviation_gain``'s ``(k+1)*q - rho`` never exceeds when the gambling
    policy earns at least rho."""
    return q * (1.0 - rho) * (k + 1) - (1.0 - q) * rho * (k + 1) + rho * k


def catchup_probability_quadrature(params: DelayParams) -> float:
    """Adaptive two-dimensional quadrature of the race integral: density of
    the attacker's next two block times t, s, damped by the probability that
    no honest block lands during t + s plus the round-trip delay.  The oracle
    for the closed form ``delay.catchup_probability``."""
    alpha, lam = params.alpha, params.lam
    if alpha == 0.0:
        return 0.0
    delay = params.d_ah + params.d_ha

    def integrand(s: float, t: float) -> float:
        rate = alpha * lam
        return (
            rate
            * rate
            * math.exp(-rate * (t + s))
            * math.exp(-(1.0 - alpha) * lam * (t + s + delay))
        )

    value, _ = integrate.dblquad(
        integrand,
        0.0,
        math.inf,
        0.0,
        math.inf,
        epsabs=QUADRATURE_TOL,
        epsrel=QUADRATURE_TOL,
    )
    return value
