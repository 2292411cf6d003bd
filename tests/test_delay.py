import math

import pytest

from selfish_mining.delay import (
    DelayParams,
    catchup_probability,
    deviation_gain,
    min_profitable_k,
)

from helpers import catchup_probability_quadrature, deviation_gain_full


def scan_min_k(q: float, rho: float, k_cap: int = 10_000) -> int | None:
    """Brute-force reference for the smallest profitable catch-up depth."""
    for k in range(1, k_cap + 1):
        if (k + 1) * q - rho > 0:
            return k
    return None


class TestCatchupProbability:
    def test_zero_delay_squares_hashrate(self):
        assert catchup_probability(DelayParams(0.3, 2.5, 0.0, 0.0)) == pytest.approx(
            0.09, abs=1e-12
        )

    def test_zero_hashrate(self):
        assert catchup_probability(DelayParams(0.0, 1.0, 1.0, 1.0)) == 0.0

    def test_large_delay_vanishes(self):
        small = catchup_probability(DelayParams(0.3, 1.0, 50.0, 50.0))
        assert small < 1e-10

    def test_quadrature_cross_validation_sample(self):
        for alpha in (0.1, 0.3, 0.45):
            for scaled_delay in (0.0, 0.5, 2.0):
                params = DelayParams(alpha, 1.0, scaled_delay, 0.0)
                closed = catchup_probability(params)
                numeric = catchup_probability_quadrature(params)
                assert abs(closed - numeric) <= 1e-8

    def test_monotone_in_delay_and_alpha(self):
        qs = [
            catchup_probability(DelayParams(0.3, 1.0, d, 0.0))
            for d in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(a >= b for a, b in zip(qs, qs[1:]))
        qs = [
            catchup_probability(DelayParams(a, 1.0, 1.0, 0.0))
            for a in (0.1, 0.2, 0.3, 0.4)
        ]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            DelayParams(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            DelayParams(0.3, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            DelayParams(0.3, 1.0, -1.0, 0.0)


class TestDeviationGain:
    def test_examples(self):
        assert deviation_gain(3, 0.09, 0.3) == pytest.approx(0.06)
        assert deviation_gain(2, 0.09, 0.3) == pytest.approx(-0.03)
        assert deviation_gain(1, 0.5, 0.3) == pytest.approx(0.7)

    def test_full_expression_never_below_bound(self):
        for k in (1, 2, 5, 20):
            for q in (0.0, 0.05, 0.3, 1.0):
                for rho in (0.0, 0.2, 0.9, 1.0):
                    bound = deviation_gain(k, q, rho)
                    assert deviation_gain_full(k, q, rho) >= bound - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            deviation_gain(0, 0.1, 0.1)
        with pytest.raises(ValueError):
            deviation_gain(1, 1.1, 0.1)
        with pytest.raises(ValueError):
            deviation_gain(1, 0.1, -0.1)


class TestMinProfitableK:
    def test_zero_delay_example(self):
        params = DelayParams(0.3, 1.0, 0.0, 0.0)
        assert min_profitable_k(params, rho=0.3) == 3 == scan_min_k(0.09, 0.3)

    def test_delayed_example(self):
        # one unit of honest-silence exposure: (1-alpha)*lambda*d = 1
        params = DelayParams(0.1, 1.0, 1.0 / 0.9, 0.0)
        q = catchup_probability(params)
        assert q == pytest.approx(0.01 * math.exp(-1.0), abs=1e-12)
        assert min_profitable_k(params, rho=0.1) == 27 == scan_min_k(q, 0.1)

    def test_agrees_with_scan_on_grid(self):
        for alpha in (0.05, 0.15, 0.3, 0.45):
            for delay in (0.0, 0.7, 3.0):
                params = DelayParams(alpha, 1.0, delay, 0.2)
                q = catchup_probability(params)
                for rho in (alpha, 0.4):
                    assert min_profitable_k(params, rho, k_cap=10**6) == scan_min_k(
                        q, rho, k_cap=10**6
                    )

    def test_no_hashrate_never_profits(self):
        assert min_profitable_k(DelayParams(0.0, 1.0, 0.0, 0.0), rho=0.3) is None

    @pytest.mark.parametrize("alpha", [0.3, 0.0])  # q > 0 and q = 0
    @pytest.mark.parametrize("rho", [math.inf, math.nan, -0.1, 1.5])
    def test_rho_outside_unit_interval_refused(self, alpha, rho):
        with pytest.raises(ValueError, match=r"rho must be in \[0, 1\]"):
            min_profitable_k(DelayParams(alpha, 1.0, 0.0, 0.0), rho)

    def test_cap_respected(self):
        params = DelayParams(0.01, 1.0, 40.0, 40.0)  # q astronomically small
        assert min_profitable_k(params, rho=0.9, k_cap=100) is None

    def test_subnormal_catchup_exceeds_cap(self):
        """A q so small that rho/q overflows to infinity needs a k beyond
        any cap: no k, not an overflow."""
        params = DelayParams(1e-160, 1.0, 0.0, 0.0)
        assert 0.0 < catchup_probability(params) < 1e-300
        assert min_profitable_k(params, rho=0.5) is None

    def test_finite_k_for_every_positive_hashrate(self):
        """Any attacker with positive hashrate and finite delay eventually
        profits from gambling on a catch-up."""
        for alpha in [x / 100 for x in range(5, 50, 5)]:
            params = DelayParams(alpha, 1.0, 1.0, 1.0)
            k = min_profitable_k(params, rho=alpha)
            assert k is not None
            assert deviation_gain(k, catchup_probability(params), alpha) > 0
