import warnings

import numpy as np
import pytest

from selfish_mining.chain import build_base_model
from selfish_mining.mdp import evaluate_policy_exact
from selfish_mining.model import (
    Action,
    ChainState,
    Fork,
    MiningParams,
    Policy,
    builtin_policy,
    state_index,
)
from selfish_mining.optimize import OptimizeConfig, find_optimal
from selfish_mining.simulate import (
    SimConfig,
    compile_step_tables,
    simulate_batch,
)

from helpers import action_rows, sm1_reference_revenue


def simulate_one(config: SimConfig):
    """One seeded replica."""
    return simulate_batch(config, replicas=1).results[0]


class TestDeterminism:
    def test_fixed_seed_reproduces_counts(self):
        params = MiningParams(0.35, 0.5)
        cfg = SimConfig(params, builtin_policy("sm1", 15, params), rounds=20_000, seed=99)
        first = simulate_one(cfg)
        second = simulate_one(cfg)
        assert first.attacker_blocks == second.attacker_blocks
        assert first.honest_blocks == second.honest_blocks
        assert first.rev == second.rev and first.stderr == second.stderr

    def test_zero_stride_clones_replicas(self):
        params = MiningParams(0.3, 0.0)
        cfg = SimConfig(params, builtin_policy("honest", 10, params), rounds=5_000, seed=3)
        batch = simulate_batch(cfg, replicas=4, seed_stride=0)
        revs = {r.rev for r in batch.results}
        counts = {(r.attacker_blocks, r.honest_blocks) for r in batch.results}
        assert len(revs) == 1 and len(counts) == 1
        assert batch.std_rev == 0.0

    def test_different_seeds_differ(self):
        params = MiningParams(0.3, 0.0)
        cfg = SimConfig(params, builtin_policy("honest", 10, params), rounds=5_000, seed=3)
        batch = simulate_batch(cfg, replicas=4, seed_stride=1)
        assert len({r.rev for r in batch.results}) > 1
        assert [r.seed for r in batch.results] == [3, 4, 5, 6]

    def test_one_replica_is_first_of_batch(self):
        params = MiningParams(0.35, 0.5)
        cfg = SimConfig(params, builtin_policy("sm1", 12, params), rounds=5_000, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = simulate_batch(cfg, replicas=1)
        first = simulate_batch(cfg, replicas=3).results[0]
        assert np.isnan(single.std_rev) and single.mean_rev == single.results[0].rev
        assert single.results[0] == first


class TestStatistics:
    def test_honest_revenue_within_ci(self):
        params = MiningParams(0.3, 0.7)
        cfg = SimConfig(params, builtin_policy("honest", 12, params), rounds=200_000, seed=11)
        result = simulate_one(cfg)
        assert abs(result.rev - 0.3) <= 4 * result.stderr
        assert abs(result.rev - 0.3) <= 0.01

    def test_sm1_revenue_against_renewal_form(self):
        params = MiningParams(0.35, 0.0)
        cfg = SimConfig(params, builtin_policy("sm1", 40, params), rounds=300_000, seed=5)
        result = simulate_one(cfg)
        assert abs(result.rev - sm1_reference_revenue(0.35, 0.0)) <= 4 * result.stderr

    def test_solver_policy_matches_exact_evaluation(self):
        config = OptimizeConfig(MiningParams(0.4, 0.5), T=16, eps=1e-4)
        model = build_base_model(config.params, config.T)
        report = find_optimal(config, model=model)
        exact = evaluate_policy_exact(model, report.policy).rev
        cfg = SimConfig(config.params, report.policy, rounds=400_000, seed=21)
        result = simulate_one(cfg)
        assert abs(result.rev - exact) <= 4 * result.stderr

    def test_stderr_shrinks_like_sqrt_rounds(self):
        params = MiningParams(0.3, 0.0)
        policy = builtin_policy("honest", 10, params)
        small = simulate_one(SimConfig(params, policy, rounds=10_000, seed=1))
        large = simulate_one(SimConfig(params, policy, rounds=1_000_000, seed=1))
        ratio = small.stderr / large.stderr
        assert 3.0 <= ratio <= 30.0

    def test_batch_aggregates(self):
        params = MiningParams(0.25, 0.0)
        cfg = SimConfig(params, builtin_policy("honest", 10, params), rounds=20_000, seed=2)
        batch = simulate_batch(cfg, replicas=10)
        revs = np.array([r.rev for r in batch.results])
        assert batch.mean_rev == pytest.approx(revs.mean())
        assert batch.std_rev == pytest.approx(revs.std(ddof=1))
        assert abs(batch.mean_rev - 0.25) <= 3 * batch.std_rev / np.sqrt(10) + 1e-3


class TestAccounting:
    def test_totals_equal_counter_sums(self):
        params = MiningParams(0.4, 0.5)
        cfg = SimConfig(params, builtin_policy("sm1", 12, params), rounds=50_000, seed=8)
        result = simulate_one(cfg)
        assert result.attacker_blocks >= 0 and result.honest_blocks >= 0
        assert result.rev == result.attacker_blocks / (
            result.attacker_blocks + result.honest_blocks
        )

    def test_step_tables_agree_with_model_expectations(self):
        """Simulator tables and model matrices come from one transition
        source; their per-state expected rewards and branch probabilities
        must coincide."""
        params = MiningParams(0.4, 0.6)
        T = 8
        model = build_base_model(params, T)
        policy = builtin_policy("sm1", T, params)
        tables = compile_step_tables(policy, model)
        alpha = params.alpha
        forced = policy.actions.copy()
        for idx in range(model.n):
            if model.boundary[idx]:
                forced[idx] = Action.ADOPT
        for idx in range(model.n):
            action = forced[idx]
            win_p = tables.race_win_prob[idx]
            # branches: attacker block, race won, any other honest block
            probs = (alpha, win_p * (1 - alpha), (1 - win_p) * (1 - alpha))
            exp_att = sum(p * r for p, r in zip(probs, tables.attacker[idx]))
            assert exp_att == pytest.approx(model.exp_attacker[action, idx])
            assert tables.honest[idx] == pytest.approx(model.exp_honest[action, idx])
            row = action_rows(model, action)
            targets = {}
            for t, p in zip(
                row.indices[row.indptr[idx] : row.indptr[idx + 1]],
                row.data[row.indptr[idx] : row.indptr[idx + 1]],
            ):
                targets[int(t)] = targets.get(int(t), 0.0) + p
            got = {}
            for target, p in zip(tables.next_state[idx], probs):
                got[int(target)] = got.get(int(target), 0.0) + p
            got = {k: v for k, v in got.items() if v > 0}
            assert got == pytest.approx(targets)


class TestValidationErrors:
    def test_single_replica_batch_rejected(self):
        params = MiningParams(0.3, 0.0)
        cfg = SimConfig(params, builtin_policy("honest", 8, params), rounds=100, seed=0)
        with pytest.raises(ValueError, match="replicas"):
            simulate_batch(cfg, replicas=0)

    def test_zero_rounds_rejected(self):
        params = MiningParams(0.3, 0.0)
        with pytest.raises(ValueError, match="rounds"):
            SimConfig(params, builtin_policy("honest", 8, params), rounds=0, seed=0)

    def test_policy_gap_rejected_with_state(self):
        params = MiningParams(0.3, 0.0)
        policy = builtin_policy("honest", 8, params)
        actions = policy.actions.copy()
        idx = state_index(ChainState(0, 1, Fork.IRRELEVANT), 8)
        actions[idx] = Action.OVERRIDE
        bad = Policy(T=8, actions=actions)
        with pytest.raises(ValueError, match="override"):
            simulate_one(SimConfig(params, bad, rounds=100, seed=0))
