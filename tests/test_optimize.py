import random

import pytest

from selfish_mining.chain import (
    BoundaryMode,
    ThresholdVariant,
    build_base_model,
    build_honest_disabled,
    build_truncated,
)
from selfish_mining.mdp import evaluate_policy_exact, solve_average_reward
from selfish_mining.model import MiningParams, Variant, builtin_policy
from selfish_mining.optimize import (
    SWEEP_HEADER,
    OptimizeConfig,
    find_optimal,
    format_sweep_csv,
    profit_threshold,
    sweep,
)
from selfish_mining.optimize import _certify_honest


class TestConfig:
    def test_eps_must_be_below_eight_alpha(self):
        with pytest.raises(ValueError, match="8\\*alpha"):
            OptimizeConfig(MiningParams(0.35, 0.0), eps=3.0)

    def test_eps_prime_range(self):
        with pytest.raises(ValueError, match="eps_prime"):
            OptimizeConfig(MiningParams(0.35, 0.0), eps_prime=1.0)

    def test_minimal_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            OptimizeConfig(MiningParams(0.35, 0.0), T=1)


class TestFindOptimal:
    def test_small_attacker_gets_honest_revenue(self):
        """Below the profit threshold the revenue root sits at alpha itself;
        the honest-disabled certification agrees."""
        eps = 1e-4
        report = find_optimal(OptimizeConfig(MiningParams(0.1, 0.0), T=20, eps=eps))
        assert report.lower_bound == pytest.approx(0.1, abs=1.3 * eps)
        assert report.lower_bound <= 0.1
        certified, worst = _certify_honest(0.1, 0.0, Variant.STANDARD, 20, eps)
        assert certified and worst <= -eps

    def test_probe_bracket_invariant(self):
        eps = 1e-4
        report = find_optimal(OptimizeConfig(MiningParams(0.4, 0.0), T=20, eps=eps))
        for probe in report.probes:
            assert probe.went_low == (probe.gain > 0.0)
            assert probe.span <= eps / 8
        # binary search narrows onto the revenue root
        assert abs(report.probes[-1].gain) < eps / 4

    def test_bound_sandwich_and_honest_floor(self):
        eps = 1e-4
        for alpha, gamma in [(0.3, 0.0), (0.4, 0.5), (0.45, 1.0)]:
            report = find_optimal(OptimizeConfig(MiningParams(alpha, gamma), T=16, eps=eps))
            assert report.lower_bound <= report.upper_bound + 1e-12
            assert report.lower_bound >= alpha - eps - eps / 4
            assert report.upper_bound <= report.ceiling + 1e-12

    def test_policy_revenue_matches_root(self):
        """The emitted policy, re-scored exactly, earns within eps of the
        final root estimate."""
        eps = 1e-5
        config = OptimizeConfig(MiningParams(0.4, 0.0), T=30, eps=eps)
        model = build_base_model(config.params, config.T)
        report = find_optimal(config, model=model)
        value = evaluate_policy_exact(model, report.policy)
        assert abs(value.rev - report.rho_final) < eps

    def test_lower_bound_monotone_in_alpha(self):
        eps = 1e-4
        bounds = [
            find_optimal(OptimizeConfig(MiningParams(a, 0.5), T=16, eps=eps)).lower_bound
            for a in (0.3, 0.36, 0.42, 0.48)
        ]
        for small, large in zip(bounds, bounds[1:]):
            assert small <= large + 2 * eps

    def test_nested_truncations_bracket_each_other(self):
        """A doubled truncation can only help the attacker, and its lower
        bound stays below the coarse run's upper bound."""
        eps = 1e-4
        coarse = find_optimal(OptimizeConfig(MiningParams(0.4, 0.0), T=15, eps=eps))
        fine = find_optimal(OptimizeConfig(MiningParams(0.4, 0.0), T=30, eps=eps))
        assert coarse.lower_bound <= fine.lower_bound + 2 * eps
        assert fine.lower_bound <= coarse.upper_bound + 2 * eps

    def test_mismatched_model_rejected(self):
        config = OptimizeConfig(MiningParams(0.4, 0.0), T=16)
        other = build_base_model(MiningParams(0.3, 0.0), 16)
        with pytest.raises(ValueError, match="does not match"):
            find_optimal(config, model=other)

    def test_gain_root_matches_reference_optimum(self):
        """At the published optimum for alpha=1/3, gamma=0 the scalarized
        under-paying model is at its zero crossing."""
        model = build_base_model(MiningParams(1 / 3, 0.0), 95)
        scalar = build_truncated(model, BoundaryMode.UNDER_PAYING, 0.33705)
        result = solve_average_reward(scalar, 1.25e-6)
        assert abs(result.gain) <= 1e-4


class TestOrderingProperties:
    def test_overpaying_dominates_underpaying_and_rho_monotonicity(self):
        rng = random.Random(17)
        tol = 1e-6
        for _ in range(6):
            alpha = rng.uniform(0.15, 0.45)
            gamma = rng.choice([0.0, 0.5, 1.0])
            rho = rng.uniform(0.0, alpha)  # keeps the under-paying gain >= 0
            model = build_base_model(MiningParams(alpha, gamma), 15)
            under = solve_average_reward(
                build_truncated(model, BoundaryMode.UNDER_PAYING, rho), tol
            )
            over = solve_average_reward(
                build_truncated(model, BoundaryMode.OVER_PAYING, rho), tol
            )
            assert under.gain >= 0 - 2 * tol
            assert over.gain >= under.gain - 2 * tol
            rho2 = min(1.0, rho + rng.uniform(0.05, 0.3))
            under2 = solve_average_reward(
                build_truncated(model, BoundaryMode.UNDER_PAYING, rho2), tol
            )
            assert under.gain >= under2.gain - 2 * tol

    def test_bound_gap_shrinks_as_truncation_doubles(self):
        gaps = []
        rho, tol = 0.45, 1e-6
        for T in (25, 50, 100):
            model = build_base_model(MiningParams(0.4, 0.0), T)
            under = solve_average_reward(
                build_truncated(model, BoundaryMode.UNDER_PAYING, rho), tol
            )
            over = solve_average_reward(
                build_truncated(model, BoundaryMode.OVER_PAYING, rho), tol
            )
            gaps.append(abs(over.gain - under.gain))
        assert gaps[0] >= gaps[1] - 2 * tol
        assert gaps[1] >= gaps[2] - 2 * tol


class TestThreshold:
    def test_fully_connected_attacker_has_no_threshold(self):
        report = profit_threshold(
            gamma=1.0, variant=Variant.STANDARD, T=16, eps=1e-4, alpha_tol=0.02
        )
        assert report.alpha_lower <= 0.02
        assert report.exhibited
        assert report.alpha_upper <= 0.1
        assert report.alpha_lower <= report.alpha_upper

    def test_isolated_attacker_threshold_bracket(self):
        report = profit_threshold(
            gamma=0.0, variant=Variant.STANDARD, T=24, eps=1e-4, alpha_tol=0.02
        )
        # the known value sits near 0.31; a coarse truncation certifies a
        # slightly smaller region and exhibits profit slightly above
        assert 0.26 <= report.alpha_lower <= 0.34
        assert report.exhibited
        assert report.alpha_lower <= report.alpha_upper <= 0.36
        kinds = {p.kind for p in report.probes}
        assert "certified" in kinds

    def test_certification_is_two_sided(self):
        """Both honest-disabled variants must be losing before a probe is
        declared certified."""
        certified, worst = _certify_honest(0.2, 0.5, Variant.STANDARD, 16, 1e-4)
        assert certified
        base = build_base_model(MiningParams(0.2, 0.5), 16)
        for tv in ThresholdVariant:
            model = build_honest_disabled(base, tv)
            scalar = build_truncated(model, BoundaryMode.OVER_PAYING, rho=0.2)
            assert solve_average_reward(scalar, 1e-4).gain <= -1e-4

    def test_alpha_tol_validated(self):
        with pytest.raises(ValueError, match="alpha_tol"):
            profit_threshold(0.5, alpha_tol=1e-6)


class TestSweep:
    def test_rows_and_csv_format(self):
        rows = sweep([0.3], [0.0, 0.5], T=12, eps=1e-4, eps_prime=1e-4)
        assert len(rows) == 2
        assert [r.gamma for r in rows] == [0.0, 0.5]
        for row in rows:
            assert row.error is None
            assert row.honest_rev == row.alpha
            assert row.lower_bound <= row.upper_bound
            assert row.ceiling == pytest.approx(0.3 / 0.7)
        text = format_sweep_csv(rows)
        lines = text.split("\n")
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 4 and lines[-1] == ""
        first = lines[1].split(",")
        assert first[0] == "0.300000"
        assert first[2] == "standard"
        assert all("," not in cell or True for cell in first)

    def test_sweep_is_deterministic(self):
        once = format_sweep_csv(sweep([0.35], [0.5], T=10, eps=1e-4))
        twice = format_sweep_csv(sweep([0.35], [0.5], T=10, eps=1e-4))
        assert once == twice
