"""Builders that turn the block-race rules into solvable models.

The rules are computed once, over the whole grid, by :func:`transition_table`:
for every (action, state) pair it gives each branch's next state, kind and
block rewards, with the feasibility of the pair.  The model's transition
operator and expected rewards, the simulator's step tables, every policy
closure, :func:`policy_closure`, and every policy's chain,
:meth:`MiningModel.policy_chain`, are all read from that table.

A built model is a model on fork-label classes.  The three fork labels of an
(a, h) cell are bisimilar wherever no race can be won at them: everywhere at
gamma = 0 under standard tie breaking, and otherwise everywhere but the
interior cells with a >= h >= 1 (:attr:`TransitionTable.classes`).  Lumping
them (Kemeny & Snell 1960; Givan, Dean & Greig 2003) keeps every optimal
gain, on a third of the states at gamma = 0.  Every per-(action, class)
quantity of a built model shares one row layout: row ``action*k + class``,
the (actions, k) arrays flattened in C order, for k classes.  Policies stay
grid rules: :meth:`MiningModel.lift` writes a class policy back on the grid.
A policy's closure and chain are read from the table's rows at the
representatives of a state map's nodes, each next state taken to its node:
a grid policy that acts alike within every class, as a lifted one does, is
scored on the classes, the grid chain lumped onto them, and one that acts
apart on the grid, where every state is its own node.

A branch's probability is one of five weights of its kind (the attacker's
block, a race won or lost by the honest block, a plain honest block, or no
branch), so the table stores kinds, not probabilities, and at a fixed T,
gamma and variant it is the same for every alpha in (0, 0.5), its live
branches and its classes included.  :meth:`TransitionTable.weigh` turns it
into the model at any such alpha: the table and an operator on its sparse
class pattern, which it sorts once per table.  The model keeps no expected
rewards; it weighs them from the table when asked.  :func:`build_base_model`
is the table weighed at its own alpha.

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
    process on the table's fork-label classes as one stacked sparse
    transition operator.

    Row ``action*k + class`` of ``transition`` is the next-class
    distribution of taking ``action`` at the class's representative, empty
    where the representative cannot.  ``feasible`` flattens to the same row
    order; a class's actions are those feasible at every member, which
    leaves out only ``match`` under uniform tie breaking at cells with
    h = 0, where the active label cannot match and the move is ``wait``'s.
    The class boundary is the table's, and the expected block rewards are
    read from it on demand by :meth:`expected_blocks`.
    """

    params: MiningParams
    table: TransitionTable
    feasible: np.ndarray  # (num actions, k) bool
    transition: sparse.csr_matrix  # (num actions * k, k), row action*k + class

    @property
    def T(self) -> int:
        return self.table.T

    @property
    def n(self) -> int:
        """The number of classes, k."""
        return len(self.table.classes[1])

    @property
    def boundary(self) -> np.ndarray:
        """(k,) bool, the truncation-boundary classes."""
        return self.table._pattern[-1]

    @property
    def reference_index(self) -> int:
        """Anchor class for relative value iteration: (1,0,irrelevant)'s."""
        return int(self.table.classes[0][initial_states(self.T)[0]])

    def expected_blocks(self):
        """Expected attacker and honest blocks of every (action, class)
        pair, as (actions, k) arrays, read at the classes' representatives:
        each branch's blocks times the weight of its kind at the model's
        alpha, summed branch by branch.  Computed on each call, never
        kept."""
        table, representatives = self.table, self.table.classes[1]
        columns = (table.kind, table.attacker, table.honest)
        return _expected_blocks(
            branch_weights(self.params),
            *(column.take(representatives, axis=1) for column in columns),
        )

    def lift(self, actions: np.ndarray) -> np.ndarray:
        """A class policy written back on the grid: each class's action at
        every member state.  It is feasible there, since a class's actions
        are those feasible at every member, and it moves to the same
        classes with the same probabilities and blocks.  So where the grid
        policy's labels of a cell could act apart, the lifted one acts
        alike: at gamma = 0 a class cannot match, and its members wait.
        A grid policy equal to the lift of its actions at the
        representatives acts alike within every class, and its chain lumps
        onto the classes (:meth:`policy_chain` with the table's classes)."""
        return np.asarray(actions).take(self.table.classes[0])

    def policy_chain(self, actions: np.ndarray, reached: np.ndarray, nodes=None):
        """The chain a policy ``actions``, one action per node, induces on
        the sorted nodes ``reached``, which must hold every node their live
        branches reach, read from the table's rows at the nodes'
        representatives: its (m, m) CSR operator, the live branches weighed,
        each next state taken to its node and two that land on one node
        summed, and the expected attacker and honest blocks of its rows.

        ``nodes`` is the state map ``(node_of, representatives)``: the
        table's classes, or the grid, every state its own node, when None.
        A class policy feasible at every member of the reached classes
        induces the chain of its lift lumped onto the classes (Kemeny & Snell
        1960, sec. 6.3), with the lift's stationary block rates up to
        round-off."""
        node_of, representatives = nodes or (np.arange(len(actions), dtype=np.int32),) * 2
        weights = branch_weights(self.params)
        next_state, kind, attacker, honest = self.table.rows(
            actions[reached], representatives[reached]
        )
        p = weights.take(kind).ravel()
        live = np.flatnonzero(p > 0.0)  # branch b of the i-th row is 3*i + b
        m = len(reached)
        position = np.zeros(len(representatives), dtype=np.int32)
        position[reached] = np.arange(m, dtype=np.int32)
        columns = position.take(node_of.take(next_state.ravel().take(live)))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(live // 3, minlength=m))])
        P = sparse.csr_matrix((p.take(live), columns, indptr), (m, m))
        P.sum_duplicates()
        return P, *_expected_blocks(weights, kind, attacker, honest)


def _expected_blocks(weights, kind, *blocks):
    """Each block column's branch blocks times the weights of the branch
    kinds, summed branch by branch."""
    return tuple(
        sum(weights.take(kind[..., b]) * column[..., b] for b in range(3))
        for column in blocks
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
    (probability > 0) and its fork-label classes are the same for every
    alpha in (0, 0.5).
    """

    params: MiningParams
    T: int
    next_state: np.ndarray  # (actions, n, 3) grid index
    kind: np.ndarray  # (actions, n, 3) branch kind
    attacker: np.ndarray  # (actions, n, 3) attacker blocks accepted
    honest: np.ndarray  # (actions, n, 3) honest blocks accepted
    feasible: np.ndarray  # (actions, n) bool

    @cached_property
    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(class_of, representatives)``: each grid state's fork-label
        class, and each class's lowest grid index, its representative.

        A class is a run of the labels of one (a, h) cell, so classes are
        numbered in grid order.  Where no race can be won (gamma = 0 under
        standard tie breaking) every cell is one class.  Otherwise the
        interior cells with a >= h >= 1, where a race can both be won and
        change the outcome, keep their labels apart: all three under
        standard tie breaking, and {irrelevant, relevant} and {active}
        under uniform tie breaking, where both non-active labels may match.
        Every other cell is one class."""
        a, h, fork = grid_coordinates(self.T)
        kept = (np.maximum(a, h) < self.T) & (a >= h) & (h >= 1)
        if self.params.variant is Variant.UNIFORM_TIE_BREAK:
            kept &= fork == Fork.ACTIVE
        elif self.params.race_win_prob == 0.0:
            kept = False
        starts = (fork == Fork.IRRELEVANT) | kept
        class_of = np.cumsum(starts, dtype=np.int64) - 1
        return class_of.astype(np.min_scalar_type(class_of[-1])), np.flatnonzero(starts)

    def rows(
        self,
        actions: np.ndarray,
        states: np.ndarray,
        columns: tuple[str, ...] = ("next_state", "kind", "attacker", "honest"),
    ) -> tuple[np.ndarray, ...]:
        """The named ``columns`` of the pairs ``(actions[i], states[i])``,
        by default all four, each (m, 3): one ``take`` per column over rows
        ``action*n + state`` of its (actions * n, 3) view, which beats
        ``[actions, states]`` fancy indexing."""
        rows = actions.astype(np.int64) * self.feasible.shape[1] + states
        return tuple(
            getattr(self, c).reshape(-1, 3).take(rows, axis=0) for c in columns
        )

    @cached_property
    def _pattern(self) -> tuple[np.ndarray, ...]:
        """``(pair, indices, indptr, feasible, boundary)`` of the classes,
        built on first use and shared by every weighing.  ``feasible`` holds
        the actions feasible at every member of a class.  The operator's
        CSR pattern comes from the (row, column) keys of the live branches
        of the representatives' rows, each next state taken to its class,
        and for each of its entries the kinds ``first * 5 + second`` of the
        branches that land there: ``second`` is the other branch of a race
        that lands on the same class, or ``NO_BRANCH``."""
        class_of, representatives = self.classes
        k, weights = len(representatives), branch_weights(self.params)
        feasible = np.logical_and.reduceat(self.feasible, representatives, axis=1)
        kind = self.kind.take(representatives, axis=1)
        live = np.flatnonzero((weights > 0.0)[kind])
        keys = live // 3  # operator row
        keys *= k
        keys += class_of[self.next_state.take(representatives, axis=1).ravel()[live]]
        order = np.argsort(keys, kind="stable")  # rows come in order already
        keys, kinds = keys[order], kind.ravel()[live[order]]
        first = np.concatenate([[True], keys[1:] != keys[:-1]])
        pair = kinds[first] * len(weights) + NO_BRANCH
        pair[np.cumsum(first)[~first] - 1] += kinds[~first] - NO_BRANCH
        keys = keys[first]
        counts = np.bincount(keys // k, minlength=len(Action) * k)
        cell = representatives // 3
        return (
            pair,
            (keys % k).astype(np.int32),
            np.concatenate([[0], np.cumsum(counts)]).astype(np.int32),
            feasible,
            np.maximum(cell // (self.T + 1), cell % (self.T + 1)) == self.T,
        )

    def weigh(self, alpha: float) -> MiningModel:
        """The base model at hashrate ``alpha``: this table and a class
        operator whose data is the branch weights summed onto the fixed
        pattern, the one array a weighing allocates.  Boundary classes keep
        adopt alone; :func:`build_truncated`'s boundary mode decides its
        scalar reward."""
        params = replace(self.params, alpha=alpha)
        pair, indices, indptr, feasible, boundary = self._pattern
        k, weights = len(boundary), branch_weights(params)
        data = np.add.outer(weights, weights).ravel()[pair]
        transition = sparse.csr_matrix((data, indices, indptr), (len(Action) * k, k))
        return MiningModel(params, self, feasible, transition)


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


def forward_closure(graph: sparse.csr_matrix, starts) -> np.ndarray:
    """Mask of the nodes reached from the nodes ``starts`` along the edges of
    ``graph``."""
    seen = np.zeros(graph.shape[0], dtype=bool)
    for start in starts:
        seen[csgraph.breadth_first_order(graph, start, return_predecessors=False)] = True
    return seen


def policy_closure(table: TransitionTable, actions: np.ndarray, nodes=None) -> np.ndarray:
    """The nodes a policy ``actions``, one action per node, reaches from the
    start states' nodes over the live branches (probability > 0) of its
    table rows at the nodes' representatives, each next state taken to its
    node.  A dead branch names its own node, so the trace stops at an
    infeasible pair, which has none live.  ``nodes`` is the state map of
    :meth:`MiningModel.policy_chain`."""
    node_of, representatives = nodes or (np.arange(len(actions), dtype=np.int32),) * 2
    n = len(representatives)
    next_state, kind = table.rows(actions, representatives, ("next_state", "kind"))
    live = (branch_weights(table.params) > 0.0).take(kind)
    own = np.arange(n, dtype=np.int32)
    successors = np.where(live, node_of.take(next_state), own[:, None])
    edges = np.arange(0, 3 * n + 1, 3, dtype=np.int32)
    graph = sparse.csr_matrix((np.ones(3 * n), successors.ravel(), edges), (n, n))
    return forward_closure(graph, node_of.take(initial_states(table.T)))


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
    at (1,0) or adopt at (0,1), in the class that holds the cell's three
    fork labels.  Wait remains feasible there, so the model stays well
    formed."""
    if model.T < 2:
        raise ValueError("honest-disabled models need T >= 2")
    if variant is ThresholdVariant.OVERRIDE_DISABLED_AT_1_0:
        a, h, action = 1, 0, Action.OVERRIDE
    else:
        a, h, action = 0, 1, Action.ADOPT
    state = state_index(ChainState(a, h, Fork.IRRELEVANT), model.T)
    feasible = model.feasible.copy()
    feasible[action, model.table.classes[0][state]] = False
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

    ``rewards[action, class]`` is the expected scalar reward
    ``(1-rho)*attacker - rho*honest`` of taking the action there, except at
    over-paying boundary classes where it is the terminal compensation.
    """

    model: MiningModel
    rewards: np.ndarray  # (num actions, k)


def build_truncated(
    model: MiningModel, mode: BoundaryMode, rho: float, blocks=None
) -> ScalarModel:
    """Scalarize a built model at ``rho`` under the given boundary mode.

    Every reward is ``(1-rho)*attacker - rho*honest``, computed as
    ``attacker - rho*(attacker + honest)`` from ``blocks``, the model's
    :meth:`~MiningModel.expected_blocks`, weighed here unless a caller that
    scalarizes one model at several rho hands them in.  Over-paying, each
    boundary class, one (a, h) cell, then gets its
    :func:`overpaying_terminal_reward` as its adopt reward.  The rewards
    read only the model's expected blocks and boundary, so one
    scalarization serves every model that differs from ``model`` only in
    ``feasible`` (``replace(scalar, model=...)``)."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1] (got {rho})")
    attacker, honest = model.expected_blocks() if blocks is None else blocks
    rewards = attacker - rho * (attacker + honest)
    if mode is BoundaryMode.OVER_PAYING:
        alpha = model.params.alpha
        side = model.T + 1
        cells = model.table.classes[1] // 3  # cell h + (T+1)*a
        for cls in np.flatnonzero(model.boundary):
            a, h = divmod(cells[cls], side)
            rewards[Action.ADOPT, cls] = overpaying_terminal_reward(a, h, rho, alpha)
    return ScalarModel(model=model, rewards=rewards)
