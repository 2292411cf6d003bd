import json
import random
import resource

import numpy as np
import pytest

from selfish_mining import model
from selfish_mining.model import (
    BYTES_PER_STATE,
    Action,
    ChainState,
    Fork,
    MiningParams,
    Policy,
    Variant,
    _check_truncation,
    builtin_policy,
    max_truncation,
    num_states,
    physical_memory,
    state_at,
    state_index,
    upper_bound_revenue,
)

from helpers import (
    action_at,
    feasible_actions,
    forward_closure,
    grid_states,
    honest_policy,
    sm1_policy,
)

STANDARD = MiningParams(0.35, 0.5)
UNIFORM = MiningParams(0.35, 0.5, Variant.UNIFORM_TIE_BREAK)


class TestParams:
    def test_alpha_half_rejected(self):
        with pytest.raises(ValueError, match="alpha must be < 0.5"):
            MiningParams(0.5, 0.0)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError, match="alpha must be > 0"):
            MiningParams(0.0, 0.0)

    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            MiningParams(0.3, 1.5)

    def test_uniform_race_probability_is_half(self):
        assert MiningParams(0.3, 0.9, Variant.UNIFORM_TIE_BREAK).race_win_prob == 0.5
        assert MiningParams(0.3, 0.9).race_win_prob == 0.9


UNLIMITED = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)


class TestEnumeration:
    def test_grid_sizes(self):
        assert len(grid_states(2)) == 27
        assert num_states(75) == 17_328

    def test_first_state(self):
        assert grid_states(2)[0] == ChainState(0, 0, Fork.IRRELEVANT)

    def test_zero_truncation_rejected(self, monkeypatch):
        """T=10001 is refused by the memory estimate of an 8 GiB machine,
        patched in so that no machine tries to build the grid."""
        monkeypatch.setattr(model, "physical_memory", lambda: 8 * 2**30)
        with pytest.raises(ValueError):
            grid_states(0)
        with pytest.raises(ValueError):
            grid_states(10_001)

    def test_truncation_limited_by_memory(self, monkeypatch):
        """The ceiling is the largest grid whose states fit in physical
        memory at BYTES_PER_STATE each; T=10000 is refused by arithmetic,
        without allocating anything."""
        memory = physical_memory()
        assert memory is None or memory > 0
        monkeypatch.setattr(model, "physical_memory", lambda: 8 * 2**30)
        monkeypatch.setattr(resource, "getrlimit", lambda _which: UNLIMITED)
        limit = max_truncation()
        assert 3 * (limit + 1) ** 2 * BYTES_PER_STATE <= 8 * 2**30
        assert 3 * (limit + 2) ** 2 * BYTES_PER_STATE > 8 * 2**30
        _check_truncation(limit)
        with pytest.raises(ValueError, match=rf"<= {limit} \(got 10000\)"):
            _check_truncation(10_000)
        with pytest.raises(ValueError, match="GiB of physical memory"):
            _check_truncation(limit + 1)
        monkeypatch.setattr(model, "physical_memory", lambda: None)
        _check_truncation(10_000)  # no memory figure, no ceiling

    @pytest.mark.parametrize("soft,ceiling", [(2**30, 2**30), (16 * 2**30, 8 * 2**30)])
    def test_truncation_limited_by_address_space(self, monkeypatch, soft, ceiling):
        """The ceiling is the smaller of physical memory and the soft
        RLIMIT_AS; with no memory figure, the limit alone."""
        def fits(memory, limit):
            need = 3 * BYTES_PER_STATE
            return need * (limit + 1) ** 2 <= memory < need * (limit + 2) ** 2

        monkeypatch.setattr(model, "physical_memory", lambda: 8 * 2**30)
        monkeypatch.setattr(resource, "getrlimit", lambda _which: (soft, soft))
        limit = max_truncation()
        assert fits(ceiling, limit)
        with pytest.raises(ValueError, match=rf"<= {limit} \(got {limit + 1}\)"):
            _check_truncation(limit + 1)
        monkeypatch.setattr(model, "physical_memory", lambda: None)
        assert fits(soft, max_truncation())

    def test_index_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            T = rng.randint(1, 40)
            state = ChainState(
                rng.randint(0, T), rng.randint(0, T), Fork(rng.randint(0, 2))
            )
            assert state_at(state_index(state, T), T) == state

    def test_enumeration_matches_indexing(self):
        states = grid_states(3)
        for idx, state in enumerate(states):
            assert state_index(state, 3) == idx


class TestFeasibility:
    def test_lead_without_race(self):
        actions = feasible_actions(ChainState(2, 1, Fork.IRRELEVANT), STANDARD)
        assert actions == {Action.ADOPT, Action.OVERRIDE, Action.WAIT}

    def test_tie_with_relevant_fork(self):
        actions = feasible_actions(ChainState(1, 1, Fork.RELEVANT), STANDARD)
        assert actions == {Action.ADOPT, Action.MATCH, Action.WAIT}

    def test_uniform_tie_breaking_allows_late_match(self):
        actions = feasible_actions(ChainState(2, 2, Fork.IRRELEVANT), UNIFORM)
        assert actions == {Action.ADOPT, Action.MATCH, Action.WAIT}
        # but never from an already-active race
        active = feasible_actions(ChainState(2, 2, Fork.ACTIVE), UNIFORM)
        assert Action.MATCH not in active

    def test_adopt_and_wait_always_present(self):
        rng = random.Random(11)
        for _ in range(100):
            state = ChainState(rng.randint(0, 6), rng.randint(0, 6), Fork(rng.randint(0, 2)))
            for params in (STANDARD, UNIFORM):
                assert {Action.ADOPT, Action.WAIT} <= feasible_actions(state, params)


class TestReferencePolicies:
    def test_honest(self):
        assert honest_policy(ChainState(0, 1, Fork.IRRELEVANT)) is Action.ADOPT
        assert honest_policy(ChainState(1, 0, Fork.IRRELEVANT)) is Action.OVERRIDE
        assert honest_policy(ChainState(1, 1, Fork.RELEVANT)) is Action.WAIT

    def test_sm1(self):
        assert sm1_policy(ChainState(1, 1, Fork.RELEVANT)) is Action.MATCH
        assert sm1_policy(ChainState(3, 2, Fork.IRRELEVANT)) is Action.OVERRIDE
        assert sm1_policy(ChainState(2, 3, Fork.RELEVANT)) is Action.ADOPT
        # ties away from a relevant fork cannot race, so the policy waits
        assert sm1_policy(ChainState(1, 1, Fork.IRRELEVANT)) is Action.WAIT

    @pytest.mark.parametrize("rule", [honest_policy, sm1_policy])
    @pytest.mark.parametrize("params", [MiningParams(0.3, 0.0), STANDARD, UNIFORM])
    def test_feasible_on_own_reachable_states(self, rule, params):
        T = 12
        for state in forward_closure(rule, params, T):
            if max(state.a, state.h) == T:
                continue
            assert rule(state) in feasible_actions(state, params), state

    def test_sm1_never_reaches_irrelevant_tie_under_standard(self):
        reachable = forward_closure(sm1_policy, MiningParams(0.4, 0.3), 12)
        assert ChainState(1, 1, Fork.IRRELEVANT) not in reachable


class TestRevenueCeiling:
    def test_values(self):
        assert upper_bound_revenue(1 / 3) == pytest.approx(0.5, abs=1e-12)
        assert upper_bound_revenue(0.475) == pytest.approx(0.90476, abs=5e-6)
        assert upper_bound_revenue(0.0) == 0.0

    def test_rejects_half(self):
        with pytest.raises(ValueError):
            upper_bound_revenue(0.5)

    def test_strictly_increasing(self):
        grid = [i / 1000 for i in range(0, 500, 7)]
        values = [upper_bound_revenue(a) for a in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestJsonEncodings:
    def test_policy_round_trip(self):
        policy = builtin_policy("sm1", 6, STANDARD)
        data = json.loads(json.dumps(policy.to_json_dict()))
        loaded = Policy.from_json_dict(data)
        assert loaded.T == policy.T
        assert loaded.alpha == policy.alpha
        assert loaded.variant == policy.variant
        assert (loaded.actions == policy.actions).all()
        assert set(data["actions"]) <= {"adopt", "override", "match", "wait"}

    def test_policy_round_trip_all_action_names(self):
        names = ["adopt", "override", "match", "wait"]
        policy = Policy(T=1, actions=np.arange(12) % 4, label="cycle")
        data = json.loads(json.dumps(policy.to_json_dict()))
        assert data["actions"] == names * 3
        loaded = Policy.from_json_dict(data)
        assert loaded.actions.tobytes() == policy.actions.tobytes()
        assert loaded.label == "cycle"

    def test_unknown_action_name_is_named(self):
        data = {"T": 1, "actions": ["adopt"] * 11 + ["defect"]}
        with pytest.raises(ValueError, match="unknown action 'defect'"):
            Policy.from_json_dict(data)

    def test_tabulate_forces_adopt_at_boundary(self):
        policy = builtin_policy("sm1", 5, STANDARD)
        assert action_at(policy, ChainState(5, 4, Fork.IRRELEVANT)) is Action.ADOPT
        assert action_at(policy, ChainState(2, 5, Fork.RELEVANT)) is Action.ADOPT

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown policy"):
            builtin_policy("nope", 5, STANDARD)
