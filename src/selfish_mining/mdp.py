"""Average-reward MDP machinery: relative value iteration and exact policy
evaluation through the stationary distribution of the induced chain.

The solver is a plain synchronous relative value iteration with a damping
step ``V <- (1-tau)*Bellman(V) + tau*V`` (tau = 0.01) guarding against
periodic chains; damping changes neither the gain estimate nor the greedy
policy.  The gain is bracketed each sweep by the extremes of the Bellman
residual ``Bellman(V) - V``, so the reported span is a certified bound on the
gain error.  Identical inputs produce bit-identical results: iteration order
is fixed and argmax ties break toward the lowest action ordinal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as sparse_linalg

from .chain import MiningModel, ScalarModel, grid_coordinates, transition_table
from .model import Action, Policy, state_at

DAMPING = 0.01
STATIONARY_NEGATIVE_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    """Raised when value iteration fails to reach the requested span, or
    when a stationary solve returns no valid distribution."""

    def __init__(self, message: str, span: float, iterations: int):
        super().__init__(message)
        self.span = span
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class RviResult:
    """Raw solver output on an anonymous state grid."""

    actions: np.ndarray  # greedy action ordinal per state
    gain: float  # midpoint of the final Bellman-residual bracket
    iterations: int
    span: float  # final residual span; bounds the gain error
    values: np.ndarray  # final relative values (reference state pinned to 0)


@dataclass(frozen=True, eq=False)
class SolveResult:
    policy: Policy
    gain: float
    iterations: int
    span: float
    values: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "gain": self.gain,
            "iterations": self.iterations,
            "span": self.span,
            "policy": self.policy.to_json_dict(),
        }


def relative_value_iteration(
    feasible: np.ndarray,
    transition: sparse.csr_matrix,
    rewards: np.ndarray,
    reference: int,
    eps: float,
    max_iters: int = 1_000_000,
    initial_values: np.ndarray | None = None,
    forced_actions: np.ndarray | None = None,
) -> RviResult:
    """Solve a finite average-reward MDP given its stacked operator.

    ``feasible`` and ``rewards`` are (num_actions, n); ``transition`` is the
    (num_actions * n, n) operator whose row ``action*n + state`` is that
    pair's next-state distribution (rows of infeasible pairs are ignored), so
    a sweep is one sparse matrix-vector product.  ``forced_actions`` pins the
    policy and turns the solve into fixed-policy evaluation.  Raises
    :class:`SolverError` instead of returning an unconverged result.
    """
    if eps <= 0:
        raise ValueError(f"solver tolerance must be positive (got {eps})")
    n_actions, n = rewards.shape
    values = (
        np.zeros(n) if initial_values is None else np.array(initial_values, dtype=float)
    )
    if forced_actions is not None:
        forced_actions = np.asarray(forced_actions)
        if len(forced_actions) != n:
            raise ValueError("forced policy length does not match the state count")
        bad = np.flatnonzero(~feasible[forced_actions, np.arange(n)])
        if len(bad):
            raise ValueError(
                f"forced policy assigns an infeasible action at state index {bad[0]}"
            )

    # Infeasible (action, state) pairs carry -inf reward so they never win
    # the max; every state keeps at least one feasible action.
    masked_rewards = np.where(feasible, rewards, -np.inf)
    arange_n = np.arange(n)
    span = np.inf
    for iteration in range(1, max_iters + 1):
        q = masked_rewards + transition.dot(values).reshape(n_actions, n)
        if forced_actions is None:
            bellman = q.max(axis=0)
        else:
            bellman = q[forced_actions, arange_n]
        residual = bellman - values
        low, high = residual.min(), residual.max()
        span = high - low
        if span <= eps:
            gain = 0.5 * (low + high)
            if forced_actions is None:
                greedy = np.argmax(q, axis=0).astype(np.int8)
            else:
                greedy = np.asarray(forced_actions, dtype=np.int8)
            return RviResult(
                actions=greedy,
                gain=float(gain),
                iterations=iteration,
                span=float(span),
                values=values,
            )
        values = (1.0 - DAMPING) * bellman + DAMPING * values
        values -= values[reference]
    raise SolverError(
        f"no convergence after {max_iters} iterations (span {span:.3e} > {eps:.3e});"
        " periodicity or tolerance problem",
        span=float(span),
        iterations=max_iters,
    )


def solve_average_reward(
    scalar: ScalarModel,
    eps_solver: float,
    max_iters: int = 1_000_000,
    initial_values: np.ndarray | None = None,
    forced_policy: Policy | None = None,
) -> SolveResult:
    """Run relative value iteration on a scalarized mining model, anchored at
    the reference state (1,0,irrelevant)."""
    model = scalar.model
    forced = forced_policy.actions if forced_policy is not None else None
    raw = relative_value_iteration(
        model.feasible,
        model.transition,
        scalar.rewards,
        reference=model.reference_index,
        eps=eps_solver,
        max_iters=max_iters,
        initial_values=initial_values,
        forced_actions=forced,
    )
    policy = Policy(
        T=model.T,
        actions=raw.actions,
        alpha=model.params.alpha,
        gamma=model.params.gamma,
        variant=model.params.variant,
    )
    return SolveResult(
        policy=policy,
        gain=raw.gain,
        iterations=raw.iterations,
        span=raw.span,
        values=raw.values,
    )


def _selected_rows(model: MiningModel, policy: Policy | None) -> sparse.csr_matrix:
    """(n, n) sum, per state, of the operator rows the policy takes there, or
    of every feasible row when ``policy`` is None: an (n, num_actions * n)
    0/1 selector times the stacked operator."""
    if policy is None:
        flat = np.flatnonzero(model.feasible)
    else:
        flat = policy.actions.astype(np.int64) * model.n + np.arange(model.n)
    selector = sparse.csr_matrix(
        (np.ones(len(flat)), (flat % model.n, flat)),
        shape=(model.n, model.transition.shape[0]),
    )
    return selector @ model.transition


def reachable_mask(model: MiningModel, policy: Policy | None = None) -> np.ndarray:
    """Forward closure from the initial states, following either the policy's
    actions or every feasible action."""
    graph = _selected_rows(model, policy)
    seen = np.zeros(model.n, dtype=bool)
    for start in np.flatnonzero(model.initial > 0.0):
        seen[csgraph.breadth_first_order(graph, start, return_predecessors=False)] = True
    return seen


def reachable_feasible(model: MiningModel, policy: Policy) -> np.ndarray:
    """Indices of the states the policy reaches, in order; raises
    ``ValueError`` if it assigns an infeasible action at one of them."""
    if policy.T != model.T:
        raise ValueError(
            f"policy truncation {policy.T} does not match model truncation {model.T}"
        )
    idxs = np.flatnonzero(reachable_mask(model, policy))
    bad = idxs[~model.feasible[policy.actions[idxs], idxs]]
    if len(bad):
        raise ValueError(
            f"policy assigns infeasible action"
            f" {Action(policy.actions[bad[0]]).name.lower()}"
            f" at reachable state {state_at(int(bad[0]), model.T)}"
        )
    return idxs


def stationary_distribution(P: sparse.csr_matrix) -> np.ndarray:
    """Stationary distribution of an irreducible chain.

    One direct sparse solve, with one state's probability grounded to remove
    the rank deficiency, keeping the system fully sparse.  Raises
    :class:`SolverError` when the solution has a non-finite entry, an entry
    below ``-STATIONARY_NEGATIVE_TOL`` or a residual ``max|pi P - pi|`` above
    ``STATIONARY_RESIDUAL_TOL``, as a reducible chain gives; what is left
    below zero is round-off, and is clipped.
    """
    n = P.shape[0]
    if n == 1:
        return np.ones(1)
    Q = (P.T - sparse.identity(n, format="csr")).tocsc()
    keep = np.arange(1, n)
    rhs = -np.asarray(Q[keep, 0].todense()).ravel()
    reduced = Q[keep][:, keep].tocsr()
    tail = sparse_linalg.spsolve(reduced, rhs)
    pi = np.empty(n)
    pi[0] = 1.0
    pi[1:] = tail
    normalized = pi / pi.sum()
    lowest = normalized.min()
    residual = np.abs(P.T.dot(normalized) - normalized).max()
    # NaN fails both comparisons: a singular system comes back as NaN
    if not (lowest >= -STATIONARY_NEGATIVE_TOL and residual <= STATIONARY_RESIDUAL_TOL):
        raise SolverError(
            f"stationary solve gave no distribution (smallest entry {lowest:.3e},"
            f" residual {residual:.3e}); is the chain irreducible?",
            span=np.nan,
            iterations=0,
        )
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


@dataclass(frozen=True)
class PolicyValue:
    """Long-run accepted-block rates and the attacker's revenue share."""

    attacker_rate: float
    honest_rate: float
    rev: float
    reachable_count: int


def evaluate_policy_exact(model: MiningModel, policy: Policy) -> PolicyValue:
    """Exact relative revenue of a policy via the stationary distribution of
    the chain it induces.

    Only defined on models whose rewards are block pairs (base and
    under-paying truncations); over-paying compensation has no block
    decomposition and cannot be evaluated this way.  The policy must assign a
    feasible action to every reachable state.
    """
    idxs = reachable_feasible(model, policy)
    chosen = policy.actions[idxs]
    P = _selected_rows(model, policy)[idxs][:, idxs].sorted_indices()
    pi = stationary_distribution(P)

    attacker = float(np.dot(pi, model.exp_attacker[chosen, idxs]))
    honest = float(np.dot(pi, model.exp_honest[chosen, idxs]))
    total = attacker + honest
    if total <= 0.0:
        raise ValueError("degenerate policy: zero long-run block rate")
    return PolicyValue(
        attacker_rate=attacker,
        honest_rate=honest,
        rev=attacker / total,
        reachable_count=int(len(idxs)),
    )


@dataclass(frozen=True)
class ModelCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ModelDiagnostics:
    checks: tuple[ModelCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def validate_model(model: MiningModel) -> ModelDiagnostics:
    """Machine-readable consistency report for a built model: row
    normalization, reward-sign rules, boundary restriction, reachability."""
    checks: list[ModelCheck] = []

    sums = np.asarray(model.transition.sum(axis=1)).reshape(model.feasible.shape)
    act, idx = np.nonzero(model.feasible & (np.abs(sums - 1.0) > 1e-12))
    bad_rows = [
        (state_at(int(i), model.T), Action(x).name.lower())
        for x, i in zip(act[:3], idx[:3])
    ]
    checks.append(
        ModelCheck(
            "row-normalization",
            not bad_rows,
            "all feasible rows sum to 1" if not bad_rows else f"bad rows: {bad_rows}",
        )
    )

    # Rewards may only be paid as an override's h+1 attacker blocks, a won
    # race's h attacker blocks or an adopt's h honest blocks.
    table = transition_table(model.params, model.T)
    h = grid_coordinates(model.T)[1][None, :, None]
    next_h = table.next_state // 3 % (model.T + 1)
    action = np.arange(len(Action))[:, None, None]
    race_win = (action >= Action.MATCH) & (table.attacker == h) & (next_h == 1)
    attacker_ok = (table.attacker == 0) | race_win | (
        (action == Action.OVERRIDE) & (table.attacker == h + 1)
    )
    honest_ok = (table.honest == 0) | ((action == Action.ADOPT) & (table.honest == h))
    live = model.feasible[:, :, None] & (table.probability > 0)
    act, idx, _branch = np.nonzero(live & ~(attacker_ok & honest_ok))
    sign_bad = [
        f"misplaced reward at {state_at(int(i), model.T)} {Action(x).name}"
        for x, i in zip(act[:3], idx[:3])
    ]
    checks.append(
        ModelCheck(
            "reward-signs",
            not sign_bad,
            "reward placement consistent" if not sign_bad else "; ".join(sign_bad),
        )
    )

    only_adopt = model.feasible[Action.ADOPT] & (model.feasible.sum(axis=0) == 1)
    boundary_bad = [
        state_at(int(idx), model.T)
        for idx in np.flatnonzero(model.boundary & ~only_adopt)[:3]
    ]
    checks.append(
        ModelCheck(
            "boundary-restriction",
            not boundary_bad,
            "boundary states are terminal-adopt only"
            if not boundary_bad
            else f"non-terminal boundary states: {boundary_bad}",
        )
    )

    reachable = reachable_mask(model)
    count = int(reachable.sum())
    checks.append(
        ModelCheck(
            "reachability",
            count >= 2,
            f"{count} states reachable from the initial distribution",
        )
    )

    in_grid = model.transition.shape == (len(Action) * model.n, model.n)
    checks.append(
        ModelCheck(
            "grid-closure",
            in_grid,
            "all transitions stay on the grid" if in_grid else "matrix shape mismatch",
        )
    )

    return ModelDiagnostics(checks=tuple(checks))
