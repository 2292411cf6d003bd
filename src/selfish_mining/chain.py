"""Builders that turn the block-race rules into solvable models.

The rules are computed once, over the whole grid, by :func:`transition_table`:
for every (action, state) pair it gives each branch's next state,
probability and block rewards, with the feasibility of the pair.  The model's
transition operator and expected rewards, the simulator's step tables, the
model validation and the text dump are all read from that table.  Every
per-(action, state) quantity of a built model shares one row layout: row
``action*n + state``, the (actions, n) arrays flattened in C order.
:func:`transitions` states the same rules for one state-action pair; it is
kept as the scalar reference the tests compare the table against.

The built model keeps two-component block rewards untransformed.  The scalar
reward used by the average-reward solver, ``(1-rho)*attacker - rho*honest``,
is applied lazily by :func:`build_truncated`, so one built model serves every
rho probed by the optimizer's binary search.  Truncation-boundary states
(max(a,h) = T) carry a single terminal action with adopt's transition
distribution; its scalar reward depends on the boundary mode:

* under-paying: the plain adopt reward, worth ``-rho*h`` after scalarization
  (a pessimistic cut-off, lower-bounding the untruncated value), or
* over-paying: a closed-form compensation at least as large as anything the
  attacker could still have extracted from that state, upper-bounding the
  untruncated value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .model import (
    Action,
    ChainState,
    Fork,
    MiningParams,
    RewardPair,
    Variant,
    initial_states,
    num_states,
    state_index,
)


class TransitionEntry(NamedTuple):
    probability: float
    next_state: ChainState
    reward: RewardPair


class BoundaryMode(Enum):
    UNDER_PAYING = "under"
    OVER_PAYING = "over"


class ThresholdVariant(Enum):
    """Which half of honest mining to disable when certifying thresholds."""

    OVERRIDE_DISABLED_AT_1_0 = "override-disabled-at-1-0"
    ADOPT_DISABLED_AT_0_1 = "adopt-disabled-at-0-1"


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


@dataclass(frozen=True, eq=False)
class MiningModel:
    """Enumerated truncated decision process: one stacked sparse transition
    operator and per-(action, state) expected block rewards.

    Row ``action*n + state`` of ``transition`` is the next-state
    distribution of taking ``action`` in ``state``; it is empty where the
    pair is infeasible.  ``feasible``, ``exp_attacker`` and ``exp_honest``
    flatten to the same row order.
    """

    params: MiningParams
    T: int
    feasible: np.ndarray  # (num actions, n) bool
    transition: sparse.csr_matrix  # (num actions * n, n), row action*n + state
    exp_attacker: np.ndarray  # (num actions, n) expected attacker blocks
    exp_honest: np.ndarray  # (num actions, n) expected honest blocks
    initial: np.ndarray  # (n,) initial distribution
    boundary: np.ndarray  # (n,) bool, truncation-boundary states
    disabled: ThresholdVariant | None = None

    @property
    def n(self) -> int:
        return len(self.initial)

    @property
    def reference_index(self) -> int:
        """Anchor state for relative value iteration: (1,0,irrelevant)."""
        return initial_states(self.T)[0]

    def feasible_at(self, index: int) -> list[Action]:
        return [action for action in Action if self.feasible[action, index]]


class TransitionTable(NamedTuple):
    """The rules of :func:`transitions` for every (action, state) pair of a
    grid, indexed ``[action, state, branch]``.

    Branches keep :func:`transitions`' order: the attacker block, then the
    honest block (race won, then race lost, where ``race`` is set).  A pair
    without a race has two branches; its third repeats the second with
    probability zero.  Infeasible pairs, including every action but adopt at
    the truncation boundary, hold zeros.
    """

    next_state: np.ndarray  # (actions, n, 3) grid index
    probability: np.ndarray  # (actions, n, 3)
    attacker: np.ndarray  # (actions, n, 3) attacker blocks accepted
    honest: np.ndarray  # (actions, n, 3) honest blocks accepted
    feasible: np.ndarray  # (actions, n) bool
    race: np.ndarray  # (actions, n) bool, three branches with a race split


def grid_coordinates(T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a, h, fork)`` of every grid state, in index order."""
    index = np.arange(num_states(T))
    rest = index // 3
    return rest // (T + 1), rest % (T + 1), index % 3


def transition_table(params: MiningParams, T: int) -> TransitionTable:
    """Evaluate the block-race rules on the whole {0..T}^2 grid at once.

    Interior states get every action
    :func:`~selfish_mining.model.feasible_actions` allows; truncation-boundary
    states keep adopt alone.
    """
    a, h, fork = grid_coordinates(T)
    alpha, win, lost = params.alpha, params.race_win_prob, 1 - params.alpha
    interior = np.maximum(a, h) < T
    late_match = params.variant is Variant.UNIFORM_TIE_BREAK
    can_match = (fork == Fork.RELEVANT) | ((fork == Fork.IRRELEVANT) & late_match)
    match_ok = interior & (a >= h) & can_match
    feasible = np.stack([np.ones_like(interior), interior & (a > h), match_ok, interior])
    never = np.zeros_like(interior)
    race = np.stack([never, never, match_ok, interior & (fork == Fork.ACTIVE) & (a >= h)])

    # (next a, next h, next fork, attacker blocks, honest blocks, probability)
    irr, rel, act = Fork.IRRELEVANT, Fork.RELEVANT, Fork.ACTIVE
    lead = a - h
    racing = [
        (a + 1, h, act, 0, 0, alpha),
        (lead, 1, rel, h, 0, win * lost),
        (a, h + 1, rel, 0, 0, (1 - win) * lost),
    ]
    two_branch = [
        ((1, 0, irr, 0, h, alpha), (0, 1, irr, 0, h, lost)),  # adopt
        ((lead, 0, irr, h + 1, 0, alpha), (lead - 1, 1, rel, h + 1, 0, lost)),
        racing[:2],  # match always races
        ((a + 1, h, irr, 0, 0, alpha), (a, h + 1, rel, 0, 0, lost)),  # wait
    ]
    # without a race the third branch repeats the second at probability 0
    plain = [[first, second, second[:5] + (0.0,)] for first, second in two_branch]
    shape = (len(Action), len(a), 3)
    columns = [np.zeros(shape, np.int32) for _ in range(5)] + [np.zeros(shape)]
    for action in Action:
        for branch in range(3):
            for column, r, p in zip(columns, racing[branch], plain[action][branch]):
                column[action, :, branch] = np.where(race[action], r, p)
    na, nh, nf, attacker, honest, probability = columns
    next_state = nf + 3 * (nh + (T + 1) * na)
    for column in (next_state, probability, attacker, honest):
        column[~feasible] = 0
    return TransitionTable(next_state, probability, attacker, honest, feasible, race)


def build_base_model(params: MiningParams, T: int) -> MiningModel:
    """Realize the transition rules on the {0..T}^2 grid.

    Interior states get every feasible action; boundary states keep a single
    terminal action with adopt's transition distribution and adopt's reward
    (the boundary mode of :func:`build_truncated` decides its scalar value).
    """
    table = transition_table(params, T)
    n = num_states(T)
    live = np.nonzero(table.probability > 0.0)
    transition = sparse.coo_matrix(
        (table.probability[live], (live[0] * n + live[1], table.next_state[live])),
        shape=(len(Action) * n, n),
    ).tocsr()
    p = table.probability
    exp_attacker = sum(p[..., b] * table.attacker[..., b] for b in range(3))
    exp_honest = sum(p[..., b] * table.honest[..., b] for b in range(3))

    initial = np.zeros(n)
    first, second = initial_states(T)
    initial[first] = params.alpha
    initial[second] = 1 - params.alpha

    a, h, _fork = grid_coordinates(T)
    return MiningModel(
        params=params,
        T=T,
        feasible=table.feasible,
        transition=transition,
        exp_attacker=exp_attacker,
        exp_honest=exp_honest,
        initial=initial,
        boundary=np.maximum(a, h) == T,
    )


def build_honest_disabled(model: MiningModel, variant: ThresholdVariant) -> MiningModel:
    """A built base model with one half of honest mining removed: override
    at (1,0) or adopt at (0,1), across all fork labels.  Wait remains
    feasible there, so the model stays well formed."""
    if model.T < 2:
        raise ValueError("honest-disabled models need T >= 2")
    if variant is ThresholdVariant.OVERRIDE_DISABLED_AT_1_0:
        a, h, action = 1, 0, Action.OVERRIDE
    else:
        a, h, action = 0, 1, Action.ADOPT
    first = state_index(ChainState(a, h, Fork.IRRELEVANT), model.T)
    feasible = model.feasible.copy()
    feasible[action, first : first + len(Fork)] = False
    return replace(model, feasible=feasible, disabled=variant)


def overpaying_terminal_reward(a: int, h: int, rho: float, alpha: float) -> float:
    """Scalar compensation granted at a truncation-boundary state of the
    over-paying process.

    On the attacker side (a = T >= h) the reward bounds what the attacker
    could still win by racing at the last moment its branch is at least as
    long as the honest one: the expected peak of the lead excursion plus the
    drift of the branch, each block worth ``1 - rho`` like every other
    attacker block of the scalarized model.  On the honest side (h = T >= a)
    it mixes the cost of an immediate adopt with the (geometrically unlikely)
    value of catching up to the diagonal first.  Either way the compensation
    over-pays, so the truncated value upper-bounds the untruncated one.
    """
    if alpha >= 0.5:
        raise ValueError("over-paying rewards require alpha < 0.5")
    expected_peak = alpha * (1 - alpha) / (1 - 2 * alpha) ** 2
    if a >= h:
        drift_term = 0.5 * ((a - h) / (1 - 2 * alpha) + a + h)
        return (1 - rho) * (expected_peak + drift_term)
    catchup = (alpha / (1 - alpha)) ** (h - a)
    return (1 - catchup) * (-rho * h) + catchup * (1 - rho) * (
        expected_peak + (h - a) / (1 - 2 * alpha)
    )


@dataclass(frozen=True, eq=False)
class ScalarModel:
    """A mining model with the ratio objective scalarized at a fixed rho.

    ``rewards[action, state]`` is the expected scalar reward
    ``(1-rho)*attacker - rho*honest`` of taking the action there, except at
    over-paying boundary states where it is the terminal compensation.
    """

    model: MiningModel
    rho: float
    mode: BoundaryMode
    rewards: np.ndarray  # (num actions, n)

    @property
    def n(self) -> int:
        return self.model.n


def build_truncated(model: MiningModel, mode: BoundaryMode, rho: float) -> ScalarModel:
    """Scalarize a built model at ``rho`` under the given boundary mode."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1] (got {rho})")
    rewards = model.exp_attacker - rho * (model.exp_attacker + model.exp_honest)
    if mode is BoundaryMode.OVER_PAYING:
        alpha = model.params.alpha
        T = model.T
        for idx in np.flatnonzero(model.boundary):
            rest = idx // 3
            a, h = rest // (T + 1), rest % (T + 1)
            rewards[Action.ADOPT, idx] = overpaying_terminal_reward(a, h, rho, alpha)
    return ScalarModel(model=model, rho=rho, mode=mode, rewards=rewards)


def _cat(*parts) -> np.ndarray:
    """Elementwise string concatenation of arrays and scalars."""
    text = np.asarray(parts[0]).astype(str)
    for part in parts[1:]:
        text = np.char.add(text, np.asarray(part).astype(str))
    return text


def dump_model(model: MiningModel) -> str:
    """Per-row text dump, one line per (state, action), for golden-file
    diffing: ``a,h,fork | action -> [p:next:rA,rH] ...``."""
    table = transition_table(model.params, model.T)
    a, h, fork = grid_coordinates(model.T)
    names = _cat(a, ",", h, ",", np.array([f.name.lower() for f in Fork])[fork])
    state, action = np.nonzero(model.feasible.T)  # state-major, like the grid
    pick = (action, state)
    entries = _cat(
        " ", np.char.mod("%.12g", table.probability[pick]),
        ":(", names[table.next_state[pick]], "):",
        table.attacker[pick], ",", table.honest[pick],
    )
    entries[table.probability[pick] <= 0.0] = ""
    action_names = np.array([act.name.lower() for act in Action])
    lines = _cat(
        names[state], " | ", action_names[action], " -> [",
        np.char.lstrip(_cat(*entries.T), " "), "]",
    )
    return "\n".join(lines.tolist()) + "\n"
