"""Builders that turn the block-race rules into solvable models.

The rules are computed once, over the whole grid, by :func:`transition_table`:
for every (action, state) pair it gives each branch's next state, kind,
probability and block rewards, with the feasibility of the pair.  The model's
transition operator and expected rewards, the simulator's step tables, the
model validation and the text dump are all read from that table.  Every
per-(action, state) quantity of a built model shares one row layout: row
``action*n + state``, the (actions, n) arrays flattened in C order.

A branch's probability is one of five weights of its kind (the attacker's
block, a race won or lost by the honest block, a plain honest block, or no
branch), so at a fixed T, gamma and variant everything but those weights,
the live branches included, is the same for every alpha in (0, 0.5).
:func:`model_structure` builds that part once, with the sparse pattern of
the operator; :meth:`ModelStructure.weigh` turns it into the model at any
such alpha, and :func:`build_base_model` is the structure weighed at its
own alpha.

The built model keeps two-component block rewards untransformed.  The scalar
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
from typing import NamedTuple

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
    boundary: np.ndarray  # (n,) bool, truncation-boundary states

    @property
    def n(self) -> int:
        return len(self.boundary)

    @property
    def reference_index(self) -> int:
        """Anchor state for relative value iteration: (1,0,irrelevant)."""
        return initial_states(self.T)[0]


# Branch kinds, each weighed by one entry of :func:`branch_weights`.
ATTACKER_BLOCK, RACE_WON, RACE_LOST, HONEST_BLOCK, NO_BRANCH = range(5)


def branch_weights(params: MiningParams) -> np.ndarray:
    """The probability of each branch kind: ``alpha``, ``win*(1-alpha)``,
    ``(1-win)*(1-alpha)``, ``1-alpha`` and 0, where ``win`` is the chance
    that the honest block of a race extends the attacker's branch."""
    alpha, win, lost = params.alpha, params.race_win_prob, 1 - params.alpha
    return np.array([alpha, win * lost, (1 - win) * lost, lost, 0.0])


class TransitionTable(NamedTuple):
    """The block-race rules for every (action, state) pair of a grid,
    indexed ``[action, state, branch]``.

    Branches come in a fixed order: the attacker block, then the honest
    block (race won, then race lost, where ``race`` is set).  A pair
    without a race has two branches; its third repeats the second as kind
    ``NO_BRANCH``, at probability zero.  Infeasible pairs, including every
    action but adopt at the truncation boundary, hold zeros and
    ``NO_BRANCH``.  ``probability`` is ``branch_weights(params)[kind]``.
    """

    next_state: np.ndarray  # (actions, n, 3) grid index
    kind: np.ndarray  # (actions, n, 3) branch kind
    probability: np.ndarray  # (actions, n, 3)
    attacker: np.ndarray  # (actions, n, 3) attacker blocks accepted
    honest: np.ndarray  # (actions, n, 3) honest blocks accepted
    feasible: np.ndarray  # (actions, n) bool
    race: np.ndarray  # (actions, n) bool, three branches with a race split


def transition_table(params: MiningParams, T: int) -> TransitionTable:
    """Evaluate the block-race rules on the whole {0..T}^2 grid at once.

    At interior states adopt and wait are always feasible.  Override needs a
    strictly longer secret branch.  Match needs a >= h and a live race
    opportunity: a relevant fork, or any non-active fork under uniform tie
    breaking (honest nodes then accept a late equal-length chain with
    probability 1/2, so no block needs to be prepared in advance).  Waiting
    in an active fork with a >= h keeps the race going; with a < h, an
    inconsistent and unreachable state, it is plain private mining.
    Truncation-boundary states keep adopt alone.
    """
    a, h, fork = (c.astype(np.int32) for c in grid_coordinates(T))
    interior = np.maximum(a, h) < T
    late_match = params.variant is Variant.UNIFORM_TIE_BREAK
    can_match = (fork == Fork.RELEVANT) | ((fork == Fork.IRRELEVANT) & late_match)
    match_ok = interior & (a >= h) & can_match
    feasible = np.stack([np.ones_like(interior), interior & (a > h), match_ok, interior])
    never = np.zeros_like(interior)
    race = np.stack([never, never, match_ok, interior & (fork == Fork.ACTIVE) & (a >= h)])

    def at(na, nh, nf):  # grid index of (a, h, fork)
        return nf + 3 * (nh + (T + 1) * na)

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
    weights = branch_weights(params)
    shape = (len(Action), len(a), 3)
    next_state, attacker, honest = (np.empty(shape, np.int32) for _ in range(3))
    kind = np.empty(shape, np.int8)
    probability = np.empty(shape)
    # Filled one (action, branch) slice at a time, so that no temporary as
    # large as a column of the table is ever held.  Infeasible pairs hold
    # zeros and no branch.
    columns, empty = (next_state, attacker, honest, kind), (0, 0, 0, NO_BRANCH)
    for action in Action:
        for branch in range(3):
            cells = (action, slice(None), branch)
            rules = zip(columns, racing[branch], plain[action][branch], empty)
            for column, r, p, infeasible in rules:
                rule = np.where(race[action], r, p)
                column[cells] = np.where(feasible[action], rule, infeasible)
            probability[cells] = weights[kind[cells]]
    return TransitionTable(
        next_state, kind, probability, attacker, honest, feasible, race
    )


def forward_closure(source: np.ndarray, target: np.ndarray, T: int) -> np.ndarray:
    """Mask of the grid states reached from the two start states,
    (1,0,irrelevant) and (0,1,irrelevant), along the edges
    ``source[i] -> target[i]``, one per live branch."""
    n = num_states(T)
    graph = sparse.csr_matrix((np.ones(len(source)), (source, target)), shape=(n, n))
    seen = np.zeros(n, dtype=bool)
    for start in initial_states(T):
        seen[csgraph.breadth_first_order(graph, start, return_predecessors=False)] = True
    return seen


def policy_closure(table: TransitionTable, actions: np.ndarray, T: int) -> np.ndarray:
    """The states a policy reaches: the forward closure over the live
    branches (probability > 0) of its rows of the table.  An infeasible
    pair has no live branch, so the trace stops there."""
    rows = (actions, np.arange(len(actions)))
    state, branch = np.nonzero(table.probability[rows] > 0.0)
    return forward_closure(state, table.next_state[rows][state, branch], T)


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


@dataclass(frozen=True, eq=False)
class ModelStructure:
    """A built model without its branch probabilities: the parts of the
    transition table of ``params`` that :meth:`weigh` reads, in the smallest
    dtypes that hold them, and the CSR pattern of the stacked operator.  Its
    live branches (probability > 0) are the same for every alpha in
    (0, 0.5) at its T, gamma and variant.  ``live_kind`` holds the kind of
    each live branch, in C order over ``[action, state, branch]``, and
    ``slot`` its position in the operator's data; the two branches of a
    race that land on one state share a slot."""

    params: MiningParams
    T: int
    feasible: np.ndarray  # (actions, n) bool
    kind: np.ndarray  # (actions, n, 3) branch kind
    attacker: np.ndarray  # (actions, n, 3) attacker blocks accepted
    honest: np.ndarray  # (actions, n, 3) honest blocks accepted
    live_kind: np.ndarray  # (live branches,) branch kind
    slot: np.ndarray  # (live branches,) operator data position
    indices: np.ndarray  # CSR column indices of the operator
    indptr: np.ndarray  # CSR row pointers of the operator
    boundary: np.ndarray  # (n,) bool, truncation-boundary states

    def weigh(self, alpha: float) -> MiningModel:
        """The base model at hashrate ``alpha``: the operator's data is the
        branch weights summed onto the fixed pattern, and the expected block
        rewards their products with the blocks of each branch."""
        params = replace(self.params, alpha=alpha)
        weights = branch_weights(params)
        n = len(self.boundary)
        data = np.bincount(
            self.slot, weights=weights[self.live_kind], minlength=len(self.indices)
        )
        transition = sparse.csr_matrix(
            (data, self.indices, self.indptr), shape=(len(Action) * n, n)
        )
        p = weights[self.kind]
        return MiningModel(
            params=params,
            T=self.T,
            feasible=self.feasible,
            transition=transition,
            exp_attacker=sum(p[..., b] * self.attacker[..., b] for b in range(3)),
            exp_honest=sum(p[..., b] * self.honest[..., b] for b in range(3)),
            boundary=self.boundary,
        )


def model_structure(params: MiningParams, T: int) -> ModelStructure:
    """The structure of the base models at ``params``'s gamma and variant on
    the {0..T}^2 grid.

    Interior states get every feasible action; boundary states keep a single
    terminal action with adopt's transition distribution and adopt's reward
    (the boundary mode of :func:`build_truncated` decides its scalar value).
    Live branches are sorted into the operator's row-major order by a stable
    sort of their (row, column) keys; branches with equal keys share a slot.
    Block counts, at most T + 1, are kept in the smallest unsigned dtype
    that holds that, which converts to float exactly.
    """
    table = transition_table(params, T)
    n = num_states(T)
    live = np.flatnonzero(table.probability > 0.0)  # (action*n + state)*3 + branch
    keys = live // 3  # operator row
    keys *= n
    keys += table.next_state.ravel()[live]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.concatenate([[True], keys[1:] != keys[:-1]])
    slot = np.empty(len(keys), dtype=np.int32)
    slot[order] = np.cumsum(first, dtype=np.int32) - 1
    keys = keys[first]
    counts = np.bincount(keys // n, minlength=len(Action) * n)
    blocks = np.min_scalar_type(T + 1)
    a, h, _fork = grid_coordinates(T)
    return ModelStructure(
        params=params,
        T=T,
        feasible=table.feasible,
        kind=table.kind,
        attacker=table.attacker.astype(blocks),
        honest=table.honest.astype(blocks),
        live_kind=table.kind.ravel()[live],
        slot=slot,
        indices=(keys % n).astype(np.int32),
        indptr=np.concatenate([[0], np.cumsum(counts)]).astype(np.int32),
        boundary=np.maximum(a, h) == T,
    )


def build_base_model(params: MiningParams, T: int) -> MiningModel:
    """Realize the transition rules on the {0..T}^2 grid at ``params``: the
    structure of :func:`model_structure` weighed at its own alpha."""
    return model_structure(params, T).weigh(params.alpha)


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
    rewards: np.ndarray  # (num actions, n)


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
    return ScalarModel(model=model, rewards=rewards)


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
    lines = _cat(
        names[state], " | ", ACTION_NAMES[action], " -> [",
        np.char.lstrip(_cat(*entries.T), " "), "]",
    )
    return "\n".join(lines.tolist()) + "\n"
