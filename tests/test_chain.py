import random
from fractions import Fraction

import numpy as np
import pytest

from selfish_mining.chain import (
    BoundaryMode,
    ThresholdVariant,
    build_base_model,
    build_honest_disabled,
    build_truncated,
    dump_model,
    overpaying_terminal_reward,
    transitions,
)
from selfish_mining.model import (
    Action,
    ChainState,
    Fork,
    MiningParams,
    Variant,
    state_index,
)

from helpers import action_rows, overpaying_reward_exact


def entries_as_dict(entries):
    return {
        (e.next_state.a, e.next_state.h, e.next_state.fork): (e.probability, e.reward)
        for e in entries
        if e.probability > 0
    }


class TestTransitionRules:
    def test_adopt_resets_and_pays_honest(self):
        got = entries_as_dict(
            transitions(ChainState(2, 3, Fork.RELEVANT), Action.ADOPT, MiningParams(0.4, 0.0))
        )
        assert got == {
            (1, 0, Fork.IRRELEVANT): (pytest.approx(0.4), (0, 3)),
            (0, 1, Fork.IRRELEVANT): (pytest.approx(0.6), (0, 3)),
        }

    def test_match_race_split(self):
        got = entries_as_dict(
            transitions(ChainState(3, 2, Fork.RELEVANT), Action.MATCH, MiningParams(0.4, 0.5))
        )
        assert got == {
            (4, 2, Fork.ACTIVE): (pytest.approx(0.4), (0, 0)),
            (1, 1, Fork.RELEVANT): (pytest.approx(0.3), (2, 0)),
            (3, 3, Fork.RELEVANT): (pytest.approx(0.3), (0, 0)),
        }

    def test_uniform_tie_break_caps_race_at_half(self):
        params = MiningParams(0.4, 0.9, Variant.UNIFORM_TIE_BREAK)
        got = entries_as_dict(
            transitions(ChainState(3, 2, Fork.RELEVANT), Action.MATCH, params)
        )
        assert got[(1, 1, Fork.RELEVANT)][0] == pytest.approx(0.3)
        assert got[(3, 3, Fork.RELEVANT)][0] == pytest.approx(0.3)

    def test_override_publishes_lead(self):
        got = entries_as_dict(
            transitions(ChainState(4, 1, Fork.IRRELEVANT), Action.OVERRIDE, MiningParams(0.3, 0.0))
        )
        assert got == {
            (3, 0, Fork.IRRELEVANT): (pytest.approx(0.3), (2, 0)),
            (2, 1, Fork.RELEVANT): (pytest.approx(0.7), (2, 0)),
        }

    def test_wait_keeps_race_going_from_active(self):
        got = entries_as_dict(
            transitions(ChainState(3, 1, Fork.ACTIVE), Action.WAIT, MiningParams(0.3, 0.5))
        )
        assert (4, 1, Fork.ACTIVE) in got
        assert got[(2, 1, Fork.RELEVANT)][1] == (1, 0)

    def test_infeasible_actions_raise(self):
        with pytest.raises(ValueError):
            transitions(ChainState(1, 2, Fork.RELEVANT), Action.OVERRIDE, MiningParams(0.3, 0.0))
        with pytest.raises(ValueError):
            transitions(ChainState(1, 2, Fork.RELEVANT), Action.MATCH, MiningParams(0.3, 0.0))


class TestModelBuild:
    def test_rows_normalized_and_zero_entries_dropped(self):
        model = build_base_model(MiningParams(0.35, 0.0), 10)
        for action in Action:
            P = action_rows(model, action)
            sums = np.asarray(P.sum(axis=1)).ravel()
            feasible = model.feasible[action]
            assert np.allclose(sums[feasible], 1.0, atol=1e-12)
            assert (P.data > 0).all()  # gamma=0 race branches dropped

    def test_match_row_has_two_entries_at_gamma_zero(self):
        model = build_base_model(MiningParams(0.35, 0.0), 10)
        idx = state_index(ChainState(2, 1, Fork.RELEVANT), 10)
        row = action_rows(model, Action.MATCH)
        assert row.indptr[idx + 1] - row.indptr[idx] == 2

    def test_boundary_states_are_adopt_only(self):
        model = build_base_model(MiningParams(0.35, 0.5), 6)
        idx = state_index(ChainState(6, 3, Fork.IRRELEVANT), 6)
        assert model.feasible_at(idx) == [Action.ADOPT]

    def test_initial_distribution(self):
        model = build_base_model(MiningParams(0.4, 0.0), 6)
        assert model.initial.sum() == pytest.approx(1.0)
        assert model.initial[state_index(ChainState(1, 0, Fork.IRRELEVANT), 6)] == 0.4

    def test_expected_rewards(self):
        params = MiningParams(0.4, 0.5)
        model = build_base_model(params, 8)
        idx = state_index(ChainState(3, 2, Fork.RELEVANT), 8)
        # match: attacker wins h=2 blocks with probability 0.5 * 0.6
        assert model.exp_attacker[Action.MATCH, idx] == pytest.approx(0.3 * 2)
        assert model.exp_honest[Action.ADOPT, idx] == pytest.approx(2.0)


class TestCompensation:
    def test_attacker_side_example(self):
        # alpha=0.4: peak = 0.24/0.04 = 6; drift = (6/0.2 + 14)/2 = 22;
        # both weighted by 1 - rho = 0.5
        got = overpaying_terminal_reward(10, 4, 0.5, 0.4)
        assert got == pytest.approx(14.0)
        want = float(overpaying_reward_exact(10, 4, Fraction(1, 2), Fraction(2, 5)))
        assert got == pytest.approx(want, abs=1e-12)

    def test_honest_side_example(self):
        expected = float(
            overpaying_reward_exact(4, 6, Fraction(2, 5), Fraction(3, 10))
        )
        got = overpaying_terminal_reward(4, 6, 0.4, 0.3)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-1.2635204, abs=1e-7)

    def test_diagonal_collapse(self):
        # h = a: the lead term of the drift vanishes, leaving (a+h)/2 = a
        # blocks beside the peak; alpha=0.35 gives peak = 0.2275/0.09
        alpha, rho = 0.35, 0.6
        got = overpaying_terminal_reward(7, 7, rho, alpha)
        assert got == pytest.approx(0.4 * (0.2275 / 0.09 + 7.0))
        assert got == pytest.approx(3.8111111, abs=1e-7)
        h_side = overpaying_terminal_reward(6, 6, rho, alpha)
        assert h_side == pytest.approx(3.4111111, abs=1e-7)
        for a in (6, 7):
            want = overpaying_reward_exact(a, a, Fraction(3, 5), Fraction(7, 20))
            assert overpaying_terminal_reward(a, a, rho, alpha) == pytest.approx(
                float(want), abs=1e-12
            )

    def test_random_rationals_match_exact_oracle(self):
        rng = random.Random(3)
        for _ in range(50):
            alpha = Fraction(rng.randint(1, 48), 100)
            rho = Fraction(rng.randint(0, 100), 100)
            a, h = rng.randint(0, 12), rng.randint(0, 12)
            want = overpaying_reward_exact(a, h, rho, alpha)
            got = overpaying_terminal_reward(a, h, float(rho), float(alpha))
            assert got == pytest.approx(float(want), rel=1e-12, abs=1e-12)
            if a < h:
                superseded = overpaying_reward_exact(
                    a, h, rho, alpha, drift_at_full_weight=True
                )
                assert superseded == want

    def test_full_scope_differs_only_on_attacker_side(self):
        """Against the superseded formula, which credited the attacker-side
        drift at full weight: the attacker side drops from 0.5*6 + 22 = 25
        to 0.5*(6 + 22) = 14, the honest side is unchanged."""
        superseded = overpaying_reward_exact(
            10, 4, Fraction(1, 2), Fraction(2, 5), drift_at_full_weight=True
        )
        assert superseded == 25
        assert overpaying_terminal_reward(10, 4, 0.5, 0.4) == pytest.approx(
            0.5 * (6 + 22)
        )
        superseded = overpaying_reward_exact(
            4, 6, Fraction(2, 5), Fraction(3, 10), drift_at_full_weight=True
        )
        assert overpaying_terminal_reward(4, 6, 0.4, 0.3) == pytest.approx(
            float(superseded), abs=1e-12
        )

    def test_alpha_half_rejected(self):
        with pytest.raises(ValueError):
            overpaying_terminal_reward(5, 2, 0.3, 0.5)


class TestScalarization:
    def test_underpaying_boundary_reward(self):
        model = build_base_model(MiningParams(0.3, 0.0), 5)
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, rho=0.4)
        idx = state_index(ChainState(3, 5, Fork.IRRELEVANT), 5)
        assert scalar.rewards[Action.ADOPT, idx] == pytest.approx(-0.4 * 5)

    def test_overpaying_boundary_reward(self):
        model = build_base_model(MiningParams(0.4, 0.0), 5)
        scalar = build_truncated(model, BoundaryMode.OVER_PAYING, rho=0.5)
        idx = state_index(ChainState(5, 3, Fork.RELEVANT), 5)
        # peak = 6, drift = (2/0.2 + 8)/2 = 9, both weighted by 1 - rho = 0.5
        assert scalar.rewards[Action.ADOPT, idx] == pytest.approx(7.5)

    def test_override_is_free_at_rho_one(self):
        model = build_base_model(MiningParams(0.3, 0.0), 6)
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, rho=1.0)
        idx = state_index(ChainState(4, 2, Fork.IRRELEVANT), 6)
        assert scalar.rewards[Action.OVERRIDE, idx] == pytest.approx(0.0)

    def test_interior_scalar_reward_bounds(self):
        T, rho = 9, 0.37
        model = build_base_model(MiningParams(0.45, 1.0), T)
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, rho)
        interior = ~model.boundary
        feasible = model.feasible & interior
        rewards = scalar.rewards[feasible]
        assert rewards.min() >= -rho * (2 * T + 1)
        assert rewards.max() <= (1 - rho) * (2 * T + 1)

    def test_rho_out_of_range(self):
        model = build_base_model(MiningParams(0.3, 0.0), 4)
        with pytest.raises(ValueError):
            build_truncated(model, BoundaryMode.UNDER_PAYING, rho=1.5)


class TestHonestDisabled:
    def test_override_removed_at_lead_one(self):
        model = build_honest_disabled(
            build_base_model(MiningParams(0.3, 0.0), 8),
            ThresholdVariant.OVERRIDE_DISABLED_AT_1_0,
        )
        idx = state_index(ChainState(1, 0, Fork.IRRELEVANT), 8)
        assert model.feasible_at(idx) == [Action.ADOPT, Action.WAIT]

    def test_adopt_removed_at_deficit_one(self):
        model = build_honest_disabled(
            build_base_model(MiningParams(0.3, 0.0), 8),
            ThresholdVariant.ADOPT_DISABLED_AT_0_1,
        )
        idx = state_index(ChainState(0, 1, Fork.IRRELEVANT), 8)
        assert model.feasible_at(idx) == [Action.WAIT]

    def test_all_other_states_unchanged(self):
        params = MiningParams(0.3, 0.0)
        base = build_base_model(params, 8)
        disabled = build_honest_disabled(base, ThresholdVariant.ADOPT_DISABLED_AT_0_1)
        touched = {
            state_index(ChainState(0, 1, fork), 8) for fork in Fork
        }
        for action in Action:
            assert (action_rows(base, action) != action_rows(disabled, action)).nnz == 0
            same = base.feasible[action] == disabled.feasible[action]
            assert all(same[i] for i in range(base.n) if i not in touched)


class TestVariantEquivalence:
    def test_uniform_at_gamma_half_matches_standard(self):
        """With gamma = 0.5 the uniform variant's race split equals the
        standard one; restricted to the standard-feasible actions the
        transition lists must agree exactly."""
        standard = build_base_model(MiningParams(0.35, 0.5), 8)
        uniform = build_base_model(
            MiningParams(0.35, 0.5, Variant.UNIFORM_TIE_BREAK), 8
        )
        for action in Action:
            std_feasible = standard.feasible[action]
            # uniform only ever adds feasibility (late match), never removes
            assert (std_feasible & ~uniform.feasible[action]).sum() == 0
            delta = action_rows(standard, action) - action_rows(uniform, action)
            rows = np.unique(delta.tocoo().row)
            assert not any(std_feasible[r] for r in rows)


class TestDump:
    def test_dump_lines(self):
        model = build_base_model(MiningParams(0.25, 0.0), 2)
        text = dump_model(model)
        assert "1,0,irrelevant | override -> " in text
        assert "0.75:(0,1,relevant):1,0" in text
        lines = [line for line in text.strip().split("\n")]
        # boundary rows carry exactly one action
        boundary_lines = [l for l in lines if l.startswith("2,2,")]
        assert all("| adopt ->" in l for l in boundary_lines)
