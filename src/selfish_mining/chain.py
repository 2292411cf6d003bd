"""Builders that turn the block-race rules into solvable models.

The rules are computed once, over the whole grid, by :func:`transition_table`:
for every (action, state) pair it gives each branch's next state, kind and
block rewards, with the feasibility of the pair.  The model's transition
operator and expected rewards, the simulator's step tables and every policy
closure, :func:`policy_closure`, are all read from that table.  Every
per-(action, state) quantity of a built model shares one row layout: row
``action*n + state``, the (actions, n) arrays flattened in C order.

A branch's probability is one of five weights of its kind (the attacker's
block, a race won or lost by the honest block, a plain honest block, or no
branch), so the table stores kinds, not probabilities, and at a fixed T,
gamma and variant it is the same for every alpha in (0, 0.5), its live
branches included.  :meth:`TransitionTable.weigh` turns it into the model at
any such alpha: the table and an operator on its sparse pattern, which it
sorts once per table.  The model keeps no expected rewards; it weighs them
from the table when asked.  :func:`build_base_model` is the table weighed at
its own alpha.

The built model gives two-component block rewards untransformed.  The scalar
reward used by the average-reward solver, ``(1-rho)*attacker - rho*honest``,
is applied lazily by :func:`build_truncated`, so one built model serves every
rho of the optimizer's ratio iteration.  Truncation-boundary states
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
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .model import (
    ACTION_NAMES,
    Action,
    ChainState,
    Fork,
    MiningParams,
    Variant,
    grid_coordinates,
    initial_states,
    num_states,
    state_at,
    state_index,
)


class BoundaryMode(Enum):
    UNDER_PAYING = "under"
    OVER_PAYING = "over"


class ThresholdVariant(Enum):
    """Which half of honest mining to disable when certifying thresholds."""

    OVERRIDE_DISABLED_AT_1_0 = "override-disabled-at-1-0"
    ADOPT_DISABLED_AT_0_1 = "adopt-disabled-at-0-1"


@dataclass(frozen=True, eq=False)
class MiningModel:
    """A transition table weighed at one alpha: the truncated decision
    process as one stacked sparse transition operator.

    Row ``action*n + state`` of ``transition`` is the next-state
    distribution of taking ``action`` in ``state``; it is empty where the
    pair is infeasible.  ``feasible`` flattens to the same row order.  The
    grid and its boundary are the table's, and the expected block rewards
    are read from it on demand by :meth:`expected_blocks`.
    """

    params: MiningParams
    table: TransitionTable
    feasible: np.ndarray  # (num actions, n) bool
    transition: sparse.csr_matrix  # (num actions * n, n), row action*n + state

    @property
    def T(self) -> int:
        return self.table.T

    @property
    def n(self) -> int:
        return self.table.feasible.shape[1]

    @property
    def boundary(self) -> np.ndarray:
        """(n,) bool, the truncation-boundary states."""
        return self.table._pattern[-1]

    @property
    def reference_index(self) -> int:
        """Anchor state for relative value iteration: (1,0,irrelevant)."""
        return initial_states(self.T)[0]

    def expected_blocks(self, actions=slice(None), states=slice(None)):
        """Expected attacker and honest blocks of the pairs ``(actions,
        states)``, every pair as (actions, n) arrays by default: each
        branch's blocks times the weight of its kind at the model's alpha,
        summed branch by branch.  Computed on each call, never kept."""
        weights, kind = branch_weights(self.params), self.table.kind[actions, states]
        return tuple(
            sum(weights.take(kind[..., b]) * blocks[..., b] for b in range(3))
            for blocks in (self.table.attacker[actions, states],
                           self.table.honest[actions, states])
        )


# Branch kinds, each weighed by one entry of :func:`branch_weights`.
ATTACKER_BLOCK, RACE_WON, RACE_LOST, HONEST_BLOCK, NO_BRANCH = range(5)


def branch_weights(params: MiningParams) -> np.ndarray:
    """The probability of each branch kind: ``alpha``, ``win*(1-alpha)``,
    ``(1-win)*(1-alpha)``, ``1-alpha`` and 0, where ``win`` is the chance
    that the honest block of a race extends the attacker's branch."""
    alpha, win, lost = params.alpha, params.race_win_prob, 1 - params.alpha
    return np.array([alpha, win * lost, (1 - win) * lost, lost, 0.0])


@dataclass(frozen=True, eq=False)
class TransitionTable:
    """The block-race rules for every (action, state) pair of a grid at
    ``params``'s gamma and variant, indexed ``[action, state, branch]``.

    Branches come in a fixed order: the attacker block, then the honest
    block (race won, then race lost, where a race is live).  A pair
    without a race has two branches; its third repeats the second as kind
    ``NO_BRANCH``.  Infeasible pairs, including every action but adopt at
    the truncation boundary, hold zeros and ``NO_BRANCH``.  Grid indices
    and block counts, at most T + 1, are kept in the smallest unsigned
    dtypes that hold them; the counts convert to float exactly.

    Nothing here depends on alpha: a branch's probability is the weight of
    its kind, ``branch_weights(params)[kind]``, and its live branches
    (probability > 0) are the same for every alpha in (0, 0.5).
    """

    params: MiningParams
    T: int
    next_state: np.ndarray  # (actions, n, 3) grid index
    kind: np.ndarray  # (actions, n, 3) branch kind
    attacker: np.ndarray  # (actions, n, 3) attacker blocks accepted
    honest: np.ndarray  # (actions, n, 3) honest blocks accepted
    feasible: np.ndarray  # (actions, n) bool

    @cached_property
    def _pattern(self) -> tuple[np.ndarray, ...]:
        """``(pair, indices, indptr, boundary)``, built on first use and
        shared by every weighing: the operator's CSR pattern, from the
        (row, column) keys of the live branches, and for each of its entries
        the kinds ``first * 5 + second`` of the branches that land there:
        ``second`` is the other branch of a race that lands on the same
        state, or ``NO_BRANCH``."""
        n, weights = self.kind.shape[1], branch_weights(self.params)
        live = np.flatnonzero((weights > 0.0)[self.kind])
        keys = live // 3  # operator row
        keys *= n
        keys += self.next_state.ravel()[live]
        order = np.argsort(keys)
        keys, kinds = keys[order], self.kind.ravel()[live[order]]
        first = np.concatenate([[True], keys[1:] != keys[:-1]])
        pair = kinds[first] * len(weights) + NO_BRANCH
        pair[np.cumsum(first)[~first] - 1] += kinds[~first] - NO_BRANCH
        keys = keys[first]
        counts = np.bincount(keys // n, minlength=len(Action) * n)
        a, h, _fork = grid_coordinates(self.T)
        return (
            pair,
            (keys % n).astype(np.int32),
            np.concatenate([[0], np.cumsum(counts)]).astype(np.int32),
            np.maximum(a, h) == self.T,
        )

    def weigh(self, alpha: float) -> MiningModel:
        """The base model at hashrate ``alpha``: this table and an operator
        whose data is the branch weights summed onto the fixed pattern, the
        one array a weighing allocates.  Boundary states keep adopt alone;
        :func:`build_truncated`'s boundary mode decides its scalar reward."""
        params = replace(self.params, alpha=alpha)
        pair, indices, indptr, boundary = self._pattern
        n, weights = len(boundary), branch_weights(params)
        data = np.add.outer(weights, weights).ravel()[pair]
        transition = sparse.csr_matrix((data, indices, indptr), (len(Action) * n, n))
        return MiningModel(params, self, self.feasible, transition)


def transition_table(params: MiningParams, T: int) -> TransitionTable:
    """Evaluate the block-race rules on the whole {0..T}^2 grid at once.

    At interior states adopt and wait are always feasible.  Override needs a
    strictly longer secret branch.  Match needs a >= h and a live race
    opportunity: a relevant fork, or any non-active fork under uniform tie
    breaking (honest nodes then accept a late equal-length chain with
    probability 1/2, so no block needs to be prepared in advance).  Waiting
    in an active fork with a >= h keeps the race going; with a < h, an
    inconsistent and unreachable state, it is plain private mining.
    Truncation-boundary states keep adopt alone.  A T past what memory can
    hold is refused before anything is allocated.
    """
    rows = (len(Action), num_states(T), 3)
    # The coordinates broadcast over the (a, h, fork) grid, so that every
    # rule below is at most an (a, h) plane.
    side = T + 1
    a = np.arange(side, dtype=np.int32).reshape(side, 1, 1)
    h = a.reshape(1, side, 1)
    fork = np.arange(len(Fork), dtype=np.int32).reshape(1, 1, len(Fork))
    interior = np.maximum(a, h) < T
    late_match = params.variant is Variant.UNIFORM_TIE_BREAK
    can_match = (fork == Fork.RELEVANT) | ((fork == Fork.IRRELEVANT) & late_match)
    match_ok = interior & (a >= h) & can_match
    by_action = np.broadcast_arrays(True, interior & (a > h), match_ok, interior)
    feasible = np.stack(by_action)  # (actions, a, h, fork)
    race = (False, False, match_ok, interior & (fork == Fork.ACTIVE) & (a >= h))

    def at(na, nh, nf):  # grid index of (a, h, fork)
        return nf + 3 * (nh + side * na)

    # (next state, attacker blocks, honest blocks, kind)
    irr, rel, act = int(Fork.IRRELEVANT), int(Fork.RELEVANT), int(Fork.ACTIVE)
    lead = a - h
    racing = [
        (at(a + 1, h, act), 0, 0, ATTACKER_BLOCK),
        (at(lead, 1, rel), h, 0, RACE_WON),
        (at(a, h + 1, rel), 0, 0, RACE_LOST),
    ]
    two_branch = [
        (  # adopt
            (at(1, 0, irr), 0, h, ATTACKER_BLOCK),
            (at(0, 1, irr), 0, h, HONEST_BLOCK),
        ),
        (  # override
            (at(lead, 0, irr), h + 1, 0, ATTACKER_BLOCK),
            (at(lead - 1, 1, rel), h + 1, 0, HONEST_BLOCK),
        ),
        racing[:2],  # match always races
        (  # wait
            (at(a + 1, h, irr), 0, 0, ATTACKER_BLOCK),
            racing[2][:3] + (HONEST_BLOCK,),
        ),
    ]
    # without a race the third branch repeats the second as no branch
    plain = [[first, second, second[:3] + (NO_BRANCH,)] for first, second in two_branch]
    shape, blocks = (*feasible.shape, 3), np.min_scalar_type(T + 1)
    next_state = np.empty(shape, np.min_scalar_type(rows[1] - 1))
    kind = np.empty(shape, np.int8)
    attacker, honest = np.empty(shape, blocks), np.empty(shape, blocks)
    # Filled in place, one (action, branch) slice at a time, so that no
    # temporary as large as a slice is ever held.  Infeasible pairs hold
    # zeros and no branch; a race is only live at a feasible pair.  Every
    # value fits its column's dtype.
    columns, empty = (next_state, attacker, honest, kind), (0, 0, 0, NO_BRANCH)
    for action in Action:
        for branch in range(3):
            rules = zip(columns, racing[branch], plain[action][branch], empty)
            for column, r, p, infeasible in rules:
                cells = column[action, ..., branch]
                cells[...] = infeasible
                np.copyto(cells, p, casting="unsafe", where=feasible[action])
                np.copyto(cells, r, casting="unsafe", where=race[action])
    return TransitionTable(
        params=params,
        T=T,
        next_state=next_state.reshape(rows),
        kind=kind.reshape(rows),
        attacker=attacker.reshape(rows),
        honest=honest.reshape(rows),
        feasible=feasible.reshape(rows[:2]),
    )


def forward_closure(graph: sparse.csr_matrix, T: int) -> np.ndarray:
    """Mask of the grid states reached from the two start states,
    (1,0,irrelevant) and (0,1,irrelevant), along the edges of ``graph``."""
    seen = np.zeros(graph.shape[0], dtype=bool)
    for start in initial_states(T):
        seen[csgraph.breadth_first_order(graph, start, return_predecessors=False)] = True
    return seen


def policy_closure(table: TransitionTable, actions: np.ndarray) -> np.ndarray:
    """The states a policy reaches: the closure over the live branches
    (probability > 0) of its table rows, where a dead branch names its own
    state, so the trace stops at an infeasible pair, which has none live."""
    n = len(actions)
    states = np.arange(n, dtype=np.int32)
    rows = actions.astype(np.int64) * n + states  # a take beats [actions, states]
    kind = table.kind.reshape(-1, 3).take(rows, axis=0)
    next_state = table.next_state.reshape(-1, 3).take(rows, axis=0)
    live = branch_weights(table.params)[kind] > 0.0
    successors = np.where(live, next_state, states[:, None])
    edges = np.arange(0, 3 * n + 1, 3, dtype=np.int32)
    graph = sparse.csr_matrix((np.ones(3 * n), successors.ravel(), edges), (n, n))
    return forward_closure(graph, table.T)


def check_feasible(
    feasible: np.ndarray, actions: np.ndarray, reached: np.ndarray, T: int
) -> None:
    """Raise ``ValueError`` naming the first reached state at which the
    policy's action is infeasible."""
    idxs = np.flatnonzero(reached)
    bad = idxs[~feasible[actions[idxs], idxs]]
    if len(bad):
        raise ValueError(
            f"policy assigns infeasible action {ACTION_NAMES[actions[bad[0]]]}"
            f" at reachable state {state_at(int(bad[0]), T)}"
        )


def build_base_model(params: MiningParams, T: int) -> MiningModel:
    """Realize the transition rules on the {0..T}^2 grid at ``params``: the
    transition table weighed at its own alpha."""
    return transition_table(params, T).weigh(params.alpha)


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
    return replace(model, feasible=feasible)


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
    ``a`` and ``h`` are taken as the grid's int64 coordinates, whatever
    integer type the caller passes: numpy's scalar power and Python's can
    differ in the last bit.
    """
    if alpha >= 0.5:
        raise ValueError("over-paying rewards require alpha < 0.5")
    a, h = np.int64(a), np.int64(h)
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
    rewards: np.ndarray  # (num actions, n)


def build_truncated(model: MiningModel, mode: BoundaryMode, rho: float) -> ScalarModel:
    """Scalarize a built model at ``rho`` under the given boundary mode.

    Every reward is ``(1-rho)*attacker - rho*honest``, computed as
    ``attacker - rho*(attacker + honest)``.  Over-paying, each boundary pair
    ``(a, h)`` then gets one :func:`overpaying_terminal_reward` as the adopt
    reward of its three fork labels.  The rewards read only the model's
    expected blocks and boundary, so one scalarization serves every model
    that differs from ``model`` only in ``feasible`` (``replace(scalar,
    model=...)``)."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1] (got {rho})")
    attacker, honest = model.expected_blocks()
    rewards = attacker - rho * (attacker + honest)
    if mode is BoundaryMode.OVER_PAYING:
        alpha = model.params.alpha
        T = model.T
        for rest in np.flatnonzero(model.boundary[::3]):  # pair h + (T+1)*a
            a, h = rest // (T + 1), rest % (T + 1)
            reward = overpaying_terminal_reward(a, h, rho, alpha)
            rewards[Action.ADOPT, 3 * rest : 3 * rest + 3] = reward
    return ScalarModel(model=model, rewards=rewards)
