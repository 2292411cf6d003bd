import random

import numpy as np
import pytest
from scipy import sparse

from selfish_mining.chain import (
    BoundaryMode,
    build_base_model,
    build_truncated,
    forward_closure,
    transition_table,
)
from selfish_mining.mdp import (
    RVI_SWEEP_BUDGET,
    SolverError,
    evaluate_gain,
    evaluate_policy_exact,
    gain_below,
    policy_iteration,
    reachable_mask,
    relative_value_iteration,
    solve_average_reward,
    stationary_distribution,
)
from selfish_mining.model import (
    Action,
    ChainState,
    Fork,
    MiningParams,
    Policy,
    builtin_policy,
    initial_states,
    state_at,
    state_index,
)

from helpers import (
    branch_probability,
    feasible_actions,
    forward_closure_all_actions,
    sm1_reference_revenue,
)


def toy_mdp(rewards_by_action, transition_rows):
    """Dense toy layers, stacked into one operator: transition_rows[action][i]
    is a probability row."""
    n_actions = len(rewards_by_action)
    n = len(rewards_by_action[0])
    feasible = np.ones((n_actions, n), dtype=bool)
    rewards = np.array(rewards_by_action, dtype=float)
    operator = sparse.vstack(
        [sparse.csr_matrix(np.array(rows, dtype=float)) for rows in transition_rows],
        format="csr",
    )
    return feasible, operator, rewards


def scalar_gain(scalar, policy):
    """Exact gain of a fixed grid policy on a scalarized class model: the
    gain of its actions at the class representatives, which is the grid
    policy's own where it acts alike on every class."""
    model = scalar.model
    return evaluate_gain(
        model.feasible,
        model.transition,
        scalar.rewards,
        model.reference_index,
        policy.actions[model.table.classes[1]],
    )[0]


class TestRelativeValueIteration:
    def test_constant_reward_two_state_chain(self):
        r = 0.7
        feasible, operator, rewards = toy_mdp(
            [[r, r]], [[[0.0, 1.0], [1.0, 0.0]]]
        )
        result = relative_value_iteration(feasible, operator, rewards, 0, eps=1e-10)
        assert result.gain == pytest.approx(r, abs=1e-9)

    def test_period_two_chain_converges_via_damping(self):
        feasible, operator, rewards = toy_mdp(
            [[1.0, 0.0]], [[[0.0, 1.0], [1.0, 0.0]]]
        )
        result = relative_value_iteration(feasible, operator, rewards, 0, eps=1e-9)
        assert result.gain == pytest.approx(0.5, abs=1e-8)

    def test_greedy_prefers_better_action_and_low_ordinal_ties(self):
        identity = [[1.0, 0.0], [0.0, 1.0]]
        feasible, operator, rewards = toy_mdp(
            [[1.0, 1.0], [1.0, 0.5]], [identity, identity]
        )
        result = relative_value_iteration(feasible, operator, rewards, 0, eps=1e-9)
        # state 0: tie between actions -> ordinal 0; state 1: action 0 wins
        assert list(result.actions) == [0, 0]

    def test_forced_infeasible_policy_rejected(self):
        model = build_base_model(MiningParams(0.4, 0.5), 6)
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, 0.3)
        bad = builtin_policy("honest", 6, model.params)
        actions = bad.actions.copy()
        actions[state_index(ChainState(0, 1, Fork.IRRELEVANT), 6)] = Action.OVERRIDE
        with pytest.raises(ValueError, match="infeasible"):
            scalar_gain(scalar, Policy(T=6, actions=actions))

    @pytest.mark.parametrize("alpha,gamma", [(0.25, 0.0), (0.4, 0.5), (0.45, 1.0)])
    def test_forced_honest_gain_is_alpha_minus_rho(self, alpha, gamma):
        params = MiningParams(alpha, gamma)
        model = build_base_model(params, 10)
        honest = builtin_policy("honest", 10, params)
        for rho in (0.0, alpha, 0.8):
            scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, rho)
            assert scalar_gain(scalar, honest) == pytest.approx(alpha - rho, abs=1e-12)

    def test_deterministic_bit_identical(self):
        model = build_base_model(MiningParams(0.4, 0.5), 12)
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, 0.45)
        first = solve_average_reward(scalar, 1e-8)
        second = solve_average_reward(scalar, 1e-8)
        assert first.gain == second.gain
        assert first.iterations == second.iterations
        assert (first.actions == second.actions).all()
        assert (first.values == second.values).all()


    def test_warm_solve_leaves_initial_values(self):
        """A solve copies its warm start into a buffer of its own: the
        caller's array is unchanged and the result does not alias it."""
        model = build_base_model(MiningParams(0.4, 0.5), 12)
        start = solve_average_reward(
            build_truncated(model, BoundaryMode.UNDER_PAYING, 0.4), 1e-8
        ).values
        before = start.copy()
        scalar = build_truncated(model, BoundaryMode.OVER_PAYING, 0.45)
        result = solve_average_reward(scalar, 1e-8, initial_values=start)
        assert result.iterations > 1
        assert start.tobytes() == before.tobytes()
        assert not np.shares_memory(result.values, start)

    @pytest.mark.parametrize("solve", [relative_value_iteration, policy_iteration])
    def test_nan_tolerance_rejected(self, solve):
        """A NaN tolerance never ends a span test, so both stages refuse it."""
        feasible, operator, rewards = toy_mdp([[1.0, 0.0]], [[[0.0, 1.0], [1.0, 0.0]]])
        start = np.zeros(2, dtype=np.int8)
        args = (start,) if solve is policy_iteration else ()
        with pytest.raises(ValueError, match="solver tolerance must be positive"):
            solve(feasible, operator, rewards, 0, np.nan, *args)


class TestPolicyIteration:
    def test_two_absorbing_states_rejected(self):
        """Two recurrent classes leave the grounded system singular."""
        feasible, operator, rewards = toy_mdp(
            [[1.0, 0.0]], [[[1.0, 0.0], [0.0, 1.0]]]
        )
        with pytest.raises(SolverError, match="recurrent class"):
            evaluate_gain(feasible, operator, rewards, 0, np.zeros(2, dtype=np.int8))

    def test_exact_gain_and_bias(self):
        feasible, operator, rewards = toy_mdp(
            [[1.0, 0.0]], [[[0.5, 0.5], [1.0, 0.0]]]
        )
        gain, bias = evaluate_gain(feasible, operator, rewards, 0, np.zeros(2))
        # stationary (2/3, 1/3); h(0) = 0 and h(1) = 0 + 0 - g
        assert gain == pytest.approx(2 / 3, abs=1e-15)
        assert bias == pytest.approx([0.0, -2 / 3], abs=1e-15)

    def test_improves_to_optimal_policy(self):
        stay, move = [[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]
        feasible, operator, rewards = toy_mdp([[0.0, 1.0], [0.0, 0.5]], [stay, move])
        start = np.array([0, 1], dtype=np.int8)  # stuck at the reward-0 state
        result = policy_iteration(feasible, operator, rewards, 0, 1e-12, start)
        assert list(result.actions) == [1, 0]
        assert result.gain == pytest.approx(1.0, abs=1e-12)
        assert result.span <= 1e-12
        assert result.iterations == result.evaluations == 2

    def test_stall_raises(self):
        """With one action per state nothing can improve, so a span left
        above a tolerance below round-off is a numeric failure."""
        feasible, operator, rewards = toy_mdp(
            [[0.1, 0.2, 0.7]],
            [[[0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3], [0.6, 0.1, 0.3]]],
        )
        with pytest.raises(SolverError, match="no action is strictly better"):
            policy_iteration(
                feasible, operator, rewards, 0, 1e-300, np.zeros(3, dtype=np.int8)
            )


class TestGainBelow:
    """The decision pass stops at the first sweep whose residual bracket
    excludes the bound, with that bracket end, a certified bound on the
    gain, as evidence; otherwise the midpoint of a span narrowed to eps, by
    value or policy iteration, decides."""

    @staticmethod
    def scalar(alpha, T):
        model = build_base_model(MiningParams(alpha, 0.5), T)
        return build_truncated(model, BoundaryMode.UNDER_PAYING, rho=alpha)

    @pytest.mark.parametrize("offset", [0.01, -0.01])
    def test_bracket_decides(self, offset):
        scalar = self.scalar(0.3, 16)
        gain = solve_average_reward(scalar, 1e-12).gain
        verdict = gain_below(scalar, gain + offset, 1e-12)
        low, high = verdict.result.bracket
        assert verdict.below == (offset > 0)
        assert verdict.evidence == (high if offset > 0 else low)
        assert low <= gain <= high and high - low > 1e-3
        assert verdict.result.evaluations == 0
        assert verdict.result.iterations < RVI_SWEEP_BUDGET

    @pytest.mark.parametrize("alpha,T,evaluations", [(0.3, 8, 0), (0.45, 16, 2)])
    def test_midpoint_decides_inside_the_bracket(self, alpha, T, evaluations):
        """With the bound at the gain itself no bracket excludes it; at T=8
        value iteration narrows the span to eps, at T=16 and alpha=0.45 its
        greedy policy holds and it hands over to two policy-iteration steps."""
        scalar = self.scalar(alpha, T)
        gain = solve_average_reward(scalar, 1e-12).gain
        verdict = gain_below(scalar, gain, 1e-12)
        assert verdict.result.evaluations == evaluations
        assert verdict.result.span <= 1e-12
        assert verdict.evidence == verdict.result.gain
        assert verdict.below == (verdict.result.gain <= gain)


    def test_chained_verdicts_keep_their_values(self):
        """Each decision warm-starts from the last one's values; the later
        solve neither writes into them nor returns memory they share."""
        first = gain_below(self.scalar(0.3, 16), 0.0, 1e-8)
        kept = first.result.values.copy()
        second = gain_below(self.scalar(0.35, 16), 0.0, 1e-8, first.result.values)
        assert second.result.iterations > 1
        assert not np.shares_memory(first.result.values, second.result.values)
        assert first.result.values.tobytes() == kept.tobytes()


class TestStationary:
    def test_three_state_chain(self):
        P = sparse.csr_matrix(
            np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        )
        pi = stationary_distribution(P)
        assert pi == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    @pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
    def test_reducible_chain_rejected(self):
        two_classes = sparse.block_diag(
            [[[0.5, 0.5], [0.5, 0.5]], [[0.3, 0.7], [0.6, 0.4]]], format="csr"
        )
        # round-off keeps this one's grounded system from being exactly
        # singular: a solve alone returns (0.529, 0.471, 0, 0)
        hidden = sparse.block_diag(
            [[[0.2, 0.8], [0.9, 0.1]], [[0.35, 0.65], [0.15, 0.85]]], format="csr"
        )
        for P in (sparse.identity(3, format="csr"), two_classes, hidden):
            with pytest.raises(SolverError, match="irreducible"):
                stationary_distribution(P)


class TestExactEvaluation:
    def test_honest_revenue_equals_alpha(self):
        rng = random.Random(5)
        for _ in range(8):
            alpha = rng.uniform(0.05, 0.49)
            gamma = rng.uniform(0.0, 1.0)
            params = MiningParams(alpha, gamma)
            model = build_base_model(params, 9)
            value = evaluate_policy_exact(model, builtin_policy("honest", 9, params))
            assert value.rev == pytest.approx(alpha, abs=1e-10)

    @pytest.mark.parametrize(
        "alpha,gamma,T,tol",
        [
            (1 / 3, 0.0, 95, 1e-5),
            (0.35, 0.0, 95, 1e-5),
            (0.3, 0.0, 60, 1e-5),
            (0.25, 0.5, 40, 1e-6),
            (0.3, 0.8, 50, 1e-5),
        ],
    )
    def test_sm1_revenue_matches_renewal_form(self, alpha, gamma, T, tol):
        params = MiningParams(alpha, gamma)
        model = build_base_model(params, T)
        value = evaluate_policy_exact(model, builtin_policy("sm1", T, params))
        assert value.rev == pytest.approx(sm1_reference_revenue(alpha, gamma), abs=tol)

    def test_sm1_truncation_bias_vanishes_with_grid_size(self):
        """The closed form is the untruncated limit.  The truncated chain
        pays for forced boundary adopts with probability falling like
        (2*sqrt(alpha*(1-alpha)))**(2T), so the bias shrinks as T grows --
        slowly for alpha near 1/2."""
        alpha, gamma = 0.4, 1.0
        ref = sm1_reference_revenue(alpha, gamma)
        errors = []
        for T in (30, 60, 140):
            params = MiningParams(alpha, gamma)
            model = build_base_model(params, T)
            value = evaluate_policy_exact(model, builtin_policy("sm1", T, params))
            errors.append(abs(value.rev - ref))
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] < 5e-4

    def test_infeasible_assignment_rejected_with_state(self):
        params = MiningParams(0.3, 0.0)
        model = build_base_model(params, 6)
        policy = builtin_policy("honest", 6, params)
        actions = policy.actions.copy()
        actions[state_index(ChainState(0, 1, Fork.IRRELEVANT), 6)] = Action.MATCH
        with pytest.raises(ValueError, match=r"match at reachable state"):
            evaluate_policy_exact(model, Policy(T=6, actions=actions))

    def test_zero_at_own_revenue(self):
        """Scalarizing at a policy's own revenue zeroes its gain: the
        ratio-to-root duality the optimizer relies on."""
        params = MiningParams(0.4, 0.5)
        model = build_base_model(params, 8)
        sm1 = builtin_policy("sm1", 8, params)
        rev = evaluate_policy_exact(model, sm1).rev
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, rho=rev)
        assert abs(scalar_gain(scalar, sm1)) <= 1e-12

    def test_greedy_policy_rescoring_matches_gain(self):
        params = MiningParams(0.42, 0.3)
        model = build_base_model(params, 10)
        eps = 1e-7
        rho = 0.45
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, rho)
        result = solve_average_reward(scalar, eps)
        value = evaluate_policy_exact(model, Policy(model.T, model.lift(result.actions)))
        scalar_gain = value.attacker_rate - rho * (
            value.attacker_rate + value.honest_rate
        )
        assert scalar_gain == pytest.approx(result.gain, abs=2 * eps)


class TestReachability:
    def test_honest_reachable_set(self):
        params = MiningParams(0.3, 0.0)
        model = build_base_model(params, 7)
        mask = reachable_mask(model, builtin_policy("honest", 7, params).actions)
        states = {state_at(int(i), 7) for i in np.flatnonzero(mask)}
        assert states == {
            ChainState(1, 0, Fork.IRRELEVANT),
            ChainState(0, 1, Fork.IRRELEVANT),
            ChainState(0, 1, Fork.RELEVANT),
        }

    def test_all_actions_closure_matches_oracle(self):
        """At T=1 every nonzero state is a boundary state, so the only
        states ever visited are the two start states."""
        for gamma, T, size in [(0.5, 6, 88), (0.0, 1, 2)]:
            params = MiningParams(0.3, gamma)
            table = transition_table(params, T)
            act, state, branch = np.nonzero(branch_probability(table) > 0)
            n = table.feasible.shape[1]
            edges = (np.ones(len(state)), (state, table.next_state[act, state, branch]))
            mask = forward_closure(sparse.csr_matrix(edges, (n, n)), initial_states(T))
            got = {state_at(int(i), T) for i in np.flatnonzero(mask)}
            want = forward_closure_all_actions(
                params, T, lambda s, p: sorted(feasible_actions(s, p))
            )
            assert got == want and len(got) == size
