"""Average-reward MDP machinery: a relative value iteration that hands long
solves to Howard policy iteration, and exact policy evaluation through the
stationary distribution of the induced chain.  The solvers are generic in
the state count: a built model solves on its fork-label classes, and an
exact evaluation scores a grid policy on the classes too where it acts
alike within every class, and on the grid where it acts apart.  One
grounded sparse LU, ``I - P`` with the reference column replaced by ones,
serves both: a solve gives a policy's gain and bias, a transposed solve its
stationary distribution.

:func:`solve_average_reward` first runs a plain synchronous relative value
iteration with a damping step ``V <- (1-tau)*Bellman(V) + tau*V`` (tau =
0.01) guarding against periodic chains; damping changes neither the gain
estimate nor the greedy policy.  Solves that converge quickly, such as the
threshold search's decision solves, finish in value iteration.  A solve
still open hands its greedy policy to Howard policy iteration (Puterman
1994, ch. 8) once that policy has held for ``HANDOFF_HOLD`` sweeps, read
every ``HOLD_STRIDE`` sweeps, or after ``RVI_SWEEP_BUDGET`` sweeps at the
latest.  A held policy is where further sweeps stop paying: 64 sweeps cost
about one LU factorization on grids with T=75 to 250.  A solve given a
policy to start from skips value iteration and resumes policy iteration
there, as each Dinkelbach step after one that ended in policy iteration
does.  Each policy-iteration step evaluates the policy's gain and bias
exactly with one grounded sparse LU factorization, applies the Bellman
operator once, and improves the policy greedily, keeping the current action
unless another is strictly better; it needs no step cap, since it never
evaluates a policy twice and there are finitely many.  Either way the gain
is bracketed by the extremes of the Bellman residual ``Bellman(V) - V``,
which hold for any value vector, so the reported span is a certified bound
on the gain error.  Both stages return one :class:`SolveResult`: greedy
actions, values and that bracket, whose midpoint is the gain.  The same
bracket lets :func:`gain_below` decide whether a gain lies below a bound at
the first sweep whose bracket excludes it, often long before the span is
small.
Identical inputs produce bit-identical results: iteration order is fixed,
value iteration breaks argmax ties toward the lowest action ordinal, and
policy iteration keeps the current action on ties.  Both stages share one
sweep, :func:`_bellman`, which writes into value, update and residual
buffers that each solve allocates once, so that a sweep allocates only its
sparse product; the in-place steps are bit-identical to the same arithmetic
on fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as sparse_linalg

from .chain import MiningModel, ScalarModel, check_feasible, policy_closure
from .model import Policy

DAMPING = 0.01
RVI_SWEEP_BUDGET = 256
# Sweeps a greedy policy must hold before the hand-off, about one LU's cost;
# it is read every HOLD_STRIDE sweeps, since a read costs a quarter sweep.
HANDOFF_HOLD = 64
HOLD_STRIDE = 8
EVALUATION_RESIDUAL_TOL = 1e-9
STATIONARY_NEGATIVE_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    """Raised when policy iteration stalls above the requested span, when a
    policy evaluation is singular or inaccurate, or when a stationary solve
    returns no valid distribution."""


@dataclass(frozen=True, eq=False)
class SolveResult:
    """One average-reward solve on a state grid."""

    actions: np.ndarray  # greedy action ordinal per state (int8)
    values: np.ndarray  # final relative values (reference state pinned to 0)
    bracket: tuple[float, float]  # final residual (min, max); holds the gain
    iterations: int  # Bellman applications
    evaluations: int = 0  # exact policy evaluations

    @property
    def gain(self) -> float:
        """Midpoint of the bracket."""
        low, high = self.bracket
        return 0.5 * (low + high)

    @property
    def span(self) -> float:
        """Width of the bracket; bounds the gain error."""
        low, high = self.bracket
        return high - low


def _excludes(low: float, high: float, bound: float) -> bool:
    """Whether the bracket ``[low, high]`` lies wholly on one side of
    ``bound``; never, for a NaN bound."""
    return high < bound or low > bound


def _bellman(masked_rewards, transition, values, bellman, residual):
    """One Bellman application into buffers the solve owns: writes the
    update ``max_a q`` into ``bellman`` and the residual ``max_a q - values``
    into ``residual``, and returns the action values ``q`` (the sparse
    product, the only array a sweep allocates) with the residual bracket
    ``(low, high)``.  Bit-identical to ``q = masked_rewards + P @ values``,
    ``bellman = q.max(axis=0)``: IEEE addition is commutative and the
    operations run in the same order."""
    q = transition.dot(values).reshape(masked_rewards.shape)
    np.add(q, masked_rewards, out=q)
    np.max(q, axis=0, out=bellman)
    np.subtract(bellman, values, out=residual)
    return q, residual.min(), residual.max()


def _greedy(q: np.ndarray, bellman: np.ndarray) -> np.ndarray:
    """The lowest action ordinal whose action value attains ``bellman`` in
    each column of ``q``: ``np.argmax(q, axis=0)`` for finite values,
    without its strided pass over the columns."""
    actions = np.zeros(len(bellman), dtype=np.int8)
    for action in range(len(q) - 1, -1, -1):
        np.copyto(actions, action, where=q[action] == bellman)
    return actions


def relative_value_iteration(
    feasible: np.ndarray,
    transition: sparse.csr_matrix,
    rewards: np.ndarray,
    reference: int,
    eps: float,
    max_sweeps: float = np.inf,
    initial_values: np.ndarray | None = None,
    bound: float = np.nan,
    hold: float = np.inf,
) -> SolveResult:
    """Damped relative value iteration on a finite average-reward MDP given
    its stacked operator.

    ``feasible`` and ``rewards`` are (num_actions, n); ``transition`` is the
    (num_actions * n, n) operator whose row ``action*n + state`` is that
    pair's next-state distribution (rows of infeasible pairs are ignored), so
    a sweep is one sparse matrix-vector product.  Each sweep from ``V`` steps
    to ``(1-DAMPING)*Bellman(V) + DAMPING*V`` pinned at ``reference``.  Stops
    at the first sweep whose span is at most ``eps`` or whose residual
    bracket lies wholly on one side of ``bound`` (never, for the default
    NaN), after ``max_sweeps`` sweeps (none, by default), or once the greedy
    policy, read every ``HOLD_STRIDE`` sweeps, has read the same for
    ``hold`` sweeps (never, by default), with that sweep's greedy policy,
    starting values and bracket.  A stop on ``hold`` returns what a stop on
    ``max_sweeps`` at the same sweep returns.

    The values, Bellman update and residual live in buffers allocated once
    per solve, ``initial_values`` copied into the first, and the damping
    step runs in place; the results are bit-identical to stepping with
    fresh arrays.  The returned values are the solve's own buffer, which no
    later sweep writes.
    """
    if not eps > 0:
        raise ValueError(f"solver tolerance must be positive (got {eps})")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be positive (got {max_sweeps})")
    n = rewards.shape[1]
    start = np.zeros(n) if initial_values is None else initial_values
    values = np.array(start, dtype=float)
    bellman, residual = np.empty(n), np.empty(n)
    # Infeasible (action, state) pairs carry -inf reward so they never win
    # the max; every state keeps at least one feasible action.
    masked_rewards = np.where(feasible, rewards, -np.inf)
    greedy, since = None, 0
    for sweep in count(1):
        q, low, high = _bellman(masked_rewards, transition, values, bellman, residual)
        held = False
        if hold < np.inf and sweep % HOLD_STRIDE == 0:
            actions = _greedy(q, bellman)
            if not np.array_equal(actions, greedy):
                since = sweep
            greedy, held = actions, sweep - since >= hold
        if (
            high - low <= eps
            or _excludes(low, high, bound)
            or sweep == max_sweeps
            or held
        ):
            actions = _greedy(q, bellman)
            return SolveResult(actions, values, (float(low), float(high)), sweep)
        # values <- (1-DAMPING)*bellman + DAMPING*values, pinned at reference
        np.multiply(bellman, 1.0 - DAMPING, out=bellman)
        np.multiply(values, DAMPING, out=values)
        np.add(bellman, values, out=values)
        values -= values[reference]


def _grounded_system(P: sparse.csr_matrix, reference: int) -> sparse.csc_matrix:
    """``I - P`` for a square chain matrix ``P``, with the reference state's
    column replaced by ones.  For a chain with one recurrent class this
    system is nonsingular: it gives gain and bias as ``A x = r`` and the
    stationary distribution as ``pi A = e_reference``.  Built in CSC, where
    the reference column is one slice of the arrays."""
    n = P.shape[0]
    system = (sparse.identity(n, format="csr") - P).tocsc()
    start, end = system.indptr[reference : reference + 2]
    indptr = system.indptr.copy()
    indptr[reference + 1 :] += n - (end - start)
    rows = np.arange(n, dtype=system.indices.dtype)
    return sparse.csc_matrix(
        (
            np.concatenate([system.data[:start], np.ones(n), system.data[end:]]),
            np.concatenate([system.indices[:start], rows, system.indices[end:]]),
            indptr,
        ),
        shape=(n, n),
    )


def _factorized(system: sparse.csc_matrix, solve: str, question: str):
    """Sparse LU of a grounded system; the lean ``relax=1, panel_size=1``
    options factor these grids faster and in less memory than the defaults.
    A singular system raises :class:`SolverError` naming ``solve``."""
    try:
        return sparse_linalg.splu(system, relax=1, panel_size=1)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverError(f"{solve} failed ({exc}); {question}") from exc


def evaluate_gain(
    feasible: np.ndarray,
    transition: sparse.csr_matrix,
    rewards: np.ndarray,
    reference: int,
    actions: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Exact gain and bias of a fixed policy on a stacked operator.

    Solves ``(I - P) h + g = r`` with ``h[reference] = 0`` by one sparse LU
    factorization, the reference state's column of ``I - P`` replaced by the
    gain's column of ones.  Returns the gain and the bias.  Raises
    ``ValueError`` if the policy takes an infeasible action, and
    :class:`SolverError` when the system is singular (as for a policy with
    more than one recurrent class), the solution is not finite, or its
    residual exceeds ``EVALUATION_RESIDUAL_TOL`` relative to the sizes of
    ``r`` and ``h``.
    """
    n = rewards.shape[1]
    states = np.arange(n)
    actions = np.asarray(actions, dtype=np.int64)
    if actions.shape != (n,):
        raise ValueError("policy length does not match the state count")
    bad = np.flatnonzero(~feasible[actions, states])
    if len(bad):
        raise ValueError(f"policy assigns an infeasible action at state index {bad[0]}")
    system = _grounded_system(transition[actions * n + states], reference)
    r = rewards[actions, states]
    x = _factorized(
        system,
        "policy evaluation",
        "does the policy have more than one recurrent class?",
    ).solve(r)
    residual = np.abs(system.dot(x) - r).max()
    scale = 1.0 + np.abs(r).max() + np.abs(x).max()
    # NaN fails the comparison: a non-finite solution is rejected too
    if not residual <= EVALUATION_RESIDUAL_TOL * scale:
        raise SolverError(
            f"policy evaluation is inaccurate (residual {residual:.3e}); does the"
            " policy have more than one recurrent class?"
        )
    gain = float(x[reference])
    x[reference] = 0.0
    return gain, x


def policy_iteration(
    feasible: np.ndarray,
    transition: sparse.csr_matrix,
    rewards: np.ndarray,
    reference: int,
    eps: float,
    actions: np.ndarray,
) -> SolveResult:
    """Howard policy iteration from ``actions`` until the Bellman-residual
    span of the evaluated bias is at most ``eps``.

    Each step is one :func:`evaluate_gain` and one Bellman application; the
    improved policy keeps the current action unless another is strictly
    better, and is the policy returned at the end.  Raises
    :class:`SolverError` when the improved policy was already evaluated
    (nothing improved, or actions tied up to round-off alternate) while the
    span is still above ``eps``.
    """
    if not eps > 0:
        raise ValueError(f"solver tolerance must be positive (got {eps})")
    masked_rewards = np.where(feasible, rewards, -np.inf)
    n = rewards.shape[1]
    states = np.arange(n)
    bellman, residual = np.empty(n), np.empty(n)
    evaluated: set[bytes] = set()
    for step in count(1):
        _, values = evaluate_gain(feasible, transition, rewards, reference, actions)
        q, low, high = _bellman(masked_rewards, transition, values, bellman, residual)
        better = bellman > q[actions, states]
        improved = np.where(better, _greedy(q, bellman), actions).astype(np.int8)
        if high - low <= eps:
            return SolveResult(improved, values, (float(low), float(high)), step, step)
        evaluated.add(actions.astype(np.int8).tobytes())
        if improved.tobytes() in evaluated:
            raise SolverError(
                f"policy iteration stalled at span {high - low:.3e} > {eps:.3e}:"
                " no action is strictly better beyond round-off"
            )
        actions = improved


def solve_average_reward(
    scalar: ScalarModel,
    eps_solver: float,
    initial_values: np.ndarray | None = None,
    bound: float = np.nan,
    initial_actions: np.ndarray | None = None,
) -> SolveResult:
    """Solve a scalarized mining model to a Bellman-residual span of at most
    ``eps_solver``, anchored at the reference state (1,0,irrelevant).

    Relative value iteration from ``initial_values`` runs until its greedy
    policy has held for ``HANDOFF_HOLD`` sweeps, or for at most
    ``RVI_SWEEP_BUDGET`` sweeps, and stops early once its residual bracket
    lies wholly on one side of ``bound`` (never, for the default NaN); a
    solve still open then continues as Howard policy iteration from the
    last greedy policy.  Given ``initial_actions``, the solve is Howard
    policy iteration from them alone, and ``initial_values`` and ``bound``
    go unused.  ``iterations`` counts Bellman applications of both stages
    and ``evaluations`` the exact policy evaluations.
    """
    model = scalar.model
    system = (model.feasible, model.transition, scalar.rewards, model.reference_index)
    if initial_actions is not None:
        return policy_iteration(*system, eps_solver, initial_actions)
    result = relative_value_iteration(
        *system, eps_solver, RVI_SWEEP_BUDGET, initial_values, bound, HANDOFF_HOLD
    )
    if result.span <= eps_solver or _excludes(*result.bracket, bound):
        return result
    finish = policy_iteration(*system, eps_solver, result.actions)
    return replace(finish, iterations=result.iterations + finish.iterations)


class GainVerdict(NamedTuple):
    """Whether a model's optimal gain is at most a bound, the figure that
    decided it, and the solve that gave both."""

    below: bool
    evidence: float
    result: SolveResult


def gain_below(
    scalar: ScalarModel,
    bound: float,
    eps: float,
    initial_values: np.ndarray | None = None,
) -> GainVerdict:
    """Decide whether the optimal gain of a scalarized model is at most
    ``bound``: one :func:`solve_average_reward` to ``eps`` from
    ``initial_values`` that stops at the first sweep whose residual bracket
    excludes ``bound``.

    The gain lies in the residual bracket of every value vector (Odoni
    1969; Puterman 1994, sec. 8.5).  So a bracket max below ``bound``
    proves the gain below it, and that max is the evidence; a bracket min
    above ``bound`` proves it above, with that min as evidence.  Both are
    certified bounds on the gain.  A solve whose span reaches ``eps`` with
    ``bound`` inside its bracket, or that ends in policy iteration, decides
    by its midpoint gain, which is then the evidence.  The midpoint lies in
    the bracket, so either way the verdict is ``gain <= bound``.
    """
    result = solve_average_reward(
        scalar, eps, initial_values=initial_values, bound=bound
    )
    below = result.gain <= bound
    low, high = result.bracket
    if result.evaluations or not _excludes(low, high, bound):
        return GainVerdict(below, result.gain, result)
    return GainVerdict(below, high if below else low, result)


def reachable_mask(model: MiningModel, policy: Policy) -> np.ndarray:
    """The states a policy reaches on a built model: its closure on the
    transition table the model was weighed from."""
    return policy_closure(model.table, policy.actions)


def _closed_classes(P: sparse.csr_matrix) -> int:
    """Number of closed classes of a chain: strongly connected components of
    its positive transitions that no positive transition leaves."""
    rows, cols = P.nonzero()
    graph = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=P.shape)
    count, labels = csgraph.connected_components(
        graph, directed=True, connection="strong"
    )
    leaving = labels[rows] != labels[cols]
    return count - len(np.unique(labels[rows[leaving]]))


def stationary_distribution(P: sparse.csr_matrix) -> np.ndarray:
    """Stationary distribution of a chain with one recurrent class.

    The grounded LU that :func:`evaluate_gain` factors for gain and bias
    also yields the distribution: with ``A`` the matrix ``I - P`` whose
    first column is replaced by ones, ``pi A = e_0`` (Puterman 1994, ch. 8),
    one transposed solve.  Transient states get probability zero.  Raises
    :class:`SolverError` when the chain has more than one closed class
    (round-off can keep such a system from being exactly singular, and the
    solve then returns one class's distribution), when the system is
    singular, or when the solution has a non-finite entry, an entry below
    ``-STATIONARY_NEGATIVE_TOL`` or a residual ``max|pi P - pi|`` above
    ``STATIONARY_RESIDUAL_TOL``; what is left below zero is round-off, and
    is clipped.
    """
    closed = _closed_classes(P)
    if closed != 1:
        raise SolverError(
            f"stationary solve refused: the chain has {closed} closed classes;"
            " is the chain irreducible?"
        )
    lu = _factorized(
        _grounded_system(P, 0), "stationary solve", "is the chain irreducible?"
    )
    pi = lu.solve(np.eye(1, P.shape[0])[0], trans="T")  # pi A = e_0
    lowest = pi.min()
    residual = np.abs(P.T.dot(pi) - pi).max()
    # NaN fails both comparisons: a non-finite solution is rejected too
    if not (lowest >= -STATIONARY_NEGATIVE_TOL and residual <= STATIONARY_RESIDUAL_TOL):
        raise SolverError(
            f"stationary solve gave no distribution (smallest entry {lowest:.3e},"
            f" residual {residual:.3e}); is the chain irreducible?"
        )
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


@dataclass(frozen=True)
class PolicyValue:
    """Long-run accepted-block rates and the attacker's revenue share."""

    attacker_rate: float
    honest_rate: float
    rev: float


def evaluate_policy_exact(model: MiningModel, policy: Policy) -> PolicyValue:
    """Exact relative revenue of a grid policy via the stationary
    distribution of the chain it induces on what it reaches, from the
    grounded LU that also gives gain and bias, and that chain's expected
    blocks, all at the model's alpha.

    A policy that acts alike within every fork-label class, as every lifted
    class policy does, is scored on the classes: the chain of its class
    actions on the classes reached from the start states' classes, read
    from the class operator's rows (:meth:`~MiningModel.class_chain`).
    That chain is the grid chain lumped onto its classes, so it gives the
    same rates, up to round-off, on about half the states at gamma = 0.  A
    policy that acts apart within a class, or whose action some reached
    class cannot take at every member, is scored on the grid: on the states
    it reaches, read from the rows of the table the model was weighed from
    (:meth:`~MiningModel.policy_chain`), so that it is scored as it acts
    and refused at the first reached state whose action is infeasible.

    Only defined on models whose rewards are block pairs (base and
    under-paying truncations); over-paying compensation has no block
    decomposition and cannot be evaluated this way.  The policy must assign a
    feasible action to every reachable state.
    """
    if policy.T != model.T:
        raise ValueError(
            f"policy truncation {policy.T} does not match model truncation {model.T}"
        )
    actions = policy.actions
    chosen = actions.take(model.table.classes[1])
    if np.array_equal(model.lift(chosen), actions):
        classes = np.flatnonzero(model.class_closure(chosen))
        if model.feasible[chosen[classes], classes].all():
            return _revenue(*model.class_chain(chosen, classes))
    reached = reachable_mask(model, policy)
    check_feasible(model.table.feasible, actions, reached, model.T)
    return _revenue(*model.policy_chain(actions, np.flatnonzero(reached)))


def _revenue(
    P: sparse.csr_matrix, attacker: np.ndarray, honest: np.ndarray
) -> PolicyValue:
    """Long-run block rates and revenue share of a chain with per-state
    expected blocks."""
    pi = stationary_distribution(P)
    attacker_rate, honest_rate = float(np.dot(pi, attacker)), float(np.dot(pi, honest))
    total = attacker_rate + honest_rate
    if total <= 0.0:
        raise ValueError("degenerate policy: zero long-run block rate")
    return PolicyValue(attacker_rate, honest_rate, rev=attacker_rate / total)
