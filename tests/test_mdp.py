import random

import numpy as np
import pytest
from scipy import sparse

from selfish_mining.chain import (
    BoundaryMode,
    build_base_model,
    build_truncated,
)
from selfish_mining.mdp import (
    SolverError,
    evaluate_policy_exact,
    reachable_mask,
    relative_value_iteration,
    solve_average_reward,
    stationary_distribution,
    validate_model,
)
from selfish_mining.model import (
    Action,
    ChainState,
    Fork,
    MiningParams,
    builtin_policy,
    state_at,
    state_index,
)

from helpers import action_rows, forward_closure_all_actions, sm1_reference_revenue
from selfish_mining.model import feasible_actions


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

    def test_nonconvergence_reports_span(self):
        model = build_base_model(MiningParams(0.4, 0.5), 8)
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, 0.2)
        with pytest.raises(SolverError) as err:
            solve_average_reward(scalar, 1e-12, max_iters=3)
        assert err.value.span > 0

    def test_forced_infeasible_policy_rejected(self):
        model = build_base_model(MiningParams(0.4, 0.5), 6)
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, 0.3)
        bad = builtin_policy("honest", 6, model.params)
        actions = bad.actions.copy()
        actions[state_index(ChainState(0, 1, Fork.IRRELEVANT), 6)] = Action.OVERRIDE
        from selfish_mining.model import Policy

        with pytest.raises(ValueError, match="infeasible"):
            solve_average_reward(
                scalar, 1e-6, forced_policy=Policy(T=6, actions=actions)
            )

    @pytest.mark.parametrize("alpha,gamma", [(0.25, 0.0), (0.4, 0.5), (0.45, 1.0)])
    def test_forced_honest_gain_is_alpha_minus_rho(self, alpha, gamma):
        params = MiningParams(alpha, gamma)
        model = build_base_model(params, 10)
        honest = builtin_policy("honest", 10, params)
        for rho in (0.0, alpha, 0.8):
            scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, rho)
            result = solve_average_reward(scalar, 1e-9, forced_policy=honest)
            assert result.gain == pytest.approx(alpha - rho, abs=1e-8)

    def test_deterministic_bit_identical(self):
        model = build_base_model(MiningParams(0.4, 0.5), 12)
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, 0.45)
        first = solve_average_reward(scalar, 1e-8)
        second = solve_average_reward(scalar, 1e-8)
        assert first.gain == second.gain
        assert first.iterations == second.iterations
        assert (first.policy.actions == second.policy.actions).all()
        assert (first.values == second.values).all()


class TestStationary:
    def test_three_state_chain(self):
        P = sparse.csr_matrix(
            np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        )
        pi = stationary_distribution(P)
        assert pi == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    @pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
    def test_reducible_chain_rejected(self):
        with pytest.raises(SolverError, match="irreducible"):
            stationary_distribution(sparse.identity(3, format="csr"))


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
            assert value.reachable_count == 3

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
        from selfish_mining.model import Policy

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
        result = solve_average_reward(scalar, 1e-11, forced_policy=sm1)
        assert abs(result.gain) <= 1e-9

    def test_greedy_policy_rescoring_matches_gain(self):
        params = MiningParams(0.42, 0.3)
        model = build_base_model(params, 10)
        eps = 1e-7
        rho = 0.45
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, rho)
        result = solve_average_reward(scalar, eps)
        value = evaluate_policy_exact(model, result.policy)
        scalar_gain = value.attacker_rate - rho * (
            value.attacker_rate + value.honest_rate
        )
        assert scalar_gain == pytest.approx(result.gain, abs=2 * eps)


class TestReachability:
    def test_honest_reachable_set(self):
        params = MiningParams(0.3, 0.0)
        model = build_base_model(params, 7)
        mask = reachable_mask(model, builtin_policy("honest", 7, params))
        states = {state_at(int(i), 7) for i in np.flatnonzero(mask)}
        assert states == {
            ChainState(1, 0, Fork.IRRELEVANT),
            ChainState(0, 1, Fork.IRRELEVANT),
            ChainState(0, 1, Fork.RELEVANT),
        }

    def test_all_actions_closure_matches_oracle(self):
        params = MiningParams(0.3, 0.5)
        model = build_base_model(params, 6)
        mask = reachable_mask(model)
        got = {state_at(int(i), 6) for i in np.flatnonzero(mask)}
        want = forward_closure_all_actions(
            params, 6, lambda s, p: sorted(feasible_actions(s, p))
        )
        assert got == want


class TestValidation:
    def test_clean_model_passes(self):
        model = build_base_model(MiningParams(0.4, 0.5), 75)
        report = validate_model(model)
        assert report.ok, report.to_json_dict()
        # independent per-row summation on a sample
        rng = random.Random(1)
        for _ in range(50):
            idx = rng.randrange(model.n)
            for action in model.feasible_at(idx):
                row = action_rows(model, action)
                total = row.data[row.indptr[idx] : row.indptr[idx + 1]].sum()
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_corrupted_probability_is_named(self):
        model = build_base_model(MiningParams(0.4, 0.5), 5)
        operator = model.transition
        operator.data[operator.indptr[Action.WAIT * model.n] + 4] += 0.05
        report = validate_model(model)
        failed = {c.name: c for c in report.checks if not c.passed}
        assert "row-normalization" in failed
        assert "wait" in failed["row-normalization"].detail

    def test_minimal_truncation_reachable_set(self):
        """At T=1 every nonzero state is a boundary state, so the only states
        ever visited are the two start states (brute-force closure agrees)."""
        params = MiningParams(0.3, 0.0)
        model = build_base_model(params, 1)
        report = validate_model(model)
        assert report.ok
        oracle = forward_closure_all_actions(
            params, 1, lambda s, p: sorted(feasible_actions(s, p))
        )
        assert len(oracle) == 2
        reach_check = [c for c in report.checks if c.name == "reachability"][0]
        assert reach_check.detail.startswith("2 ")
