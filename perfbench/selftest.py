"""Fast tests of the benchmark's own checks and span arithmetic.

    python3 perfbench/selftest.py

Each output check must reject a deliberately wrong output.  The file is not
named ``test_*.py`` so that the package's test suite does not collect it.
"""

from __future__ import annotations

import json
import tempfile
import unittest
from pathlib import Path

import checks
import spans

BOUNDS_AT_04 = {"lower_bound": 0.488654, "upper_bound": 0.488777, "eps": 1e-5}


class BoundsChecks(unittest.TestCase):
    def test_accepts_certified_bounds(self):
        sm1 = checks.sm1_truncated_revenue(0.4, 95)
        checks.check_bounds(0.4, BOUNDS_AT_04, sm1)
        checks.check_policy_revenue(0.488663, BOUNDS_AT_04)

    def test_rejects_lower_bound_above_exact_revenue(self):
        wrong = dict(BOUNDS_AT_04, lower_bound=0.488670)
        with self.assertRaises(checks.CheckFailed):
            checks.check_policy_revenue(0.488663, wrong)

    def test_rejects_revenue_above_upper_bound(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_policy_revenue(0.4888, BOUNDS_AT_04)

    def test_rejects_lower_bound_far_from_published(self):
        sm1 = checks.sm1_truncated_revenue(0.4, 95)
        wrong = dict(BOUNDS_AT_04, lower_bound=0.4860)
        with self.assertRaises(checks.CheckFailed):
            checks.check_bounds(0.4, wrong, sm1)

    def test_rejects_upper_bound_above_published(self):
        sm1 = checks.sm1_truncated_revenue(0.4, 95)
        wrong = dict(BOUNDS_AT_04, upper_bound=0.4912)
        with self.assertRaises(checks.CheckFailed):
            checks.check_bounds(0.4, wrong, sm1)

    def test_rejects_lower_bound_below_sm1(self):
        wrong = dict(BOUNDS_AT_04, lower_bound=0.4870)
        with self.assertRaises(checks.CheckFailed):
            checks.check_bounds(0.4, wrong, sm1_revenue=0.4880)


class ThresholdChecks(unittest.TestCase):
    REPORT = {"alpha_lower": 0.2495, "alpha_upper": 0.2505, "exhibited": True}

    def test_accepts_bracket_around_published(self):
        checks.check_threshold("standard", self.REPORT)
        uniform = {"alpha_lower": 0.2314, "alpha_upper": 0.2329, "exhibited": True}
        checks.check_threshold("uniform", uniform)

    def test_rejects_bracket_missing_published(self):
        wrong = {"alpha_lower": 0.2400, "alpha_upper": 0.2480, "exhibited": True}
        with self.assertRaises(checks.CheckFailed):
            checks.check_threshold("standard", wrong)

    def test_rejects_missing_deviation(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_threshold("standard", dict(self.REPORT, exhibited=False))

    def test_rejects_uniform_deviation_at_conjecture(self):
        wrong = {"alpha_lower": 0.2314, "alpha_upper": 0.2500, "exhibited": True}
        with self.assertRaises(checks.CheckFailed):
            checks.check_threshold("uniform", wrong)


class SimulationChecks(unittest.TestCase):
    def test_accepts_three_standard_errors(self):
        checks.check_simulated(0.5 + 3 * 0.002, 0.002, 0.5)

    def test_rejects_five_standard_errors(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_simulated(0.5 - 5 * 0.002, 0.002, 0.5)

    def test_rejects_missing_standard_error(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_simulated(0.5, float("nan"), 0.5)

    def test_exact_evaluation(self):
        checks.check_exact(0.575074892588, 0.575074892588 + 5e-10)
        with self.assertRaises(checks.CheckFailed):
            checks.check_exact(0.575074892588, 0.575074892588 + 5e-9)


class References(unittest.TestCase):
    def test_recursion_approaches_closed_form(self):
        # far from the grid edge the truncation loss vanishes
        self.assertAlmostEqual(
            checks.sm1_truncated_revenue(0.3, 120), checks.sm1_closed_form(0.3, 0.0), 9
        )

    def test_recursion_loses_revenue_to_truncation(self):
        self.assertLess(
            checks.sm1_truncated_revenue(0.45, 75), checks.sm1_closed_form(0.45, 0.0)
        )


def _span(id, parent, start, end, name="x"):
    return spans.Span(id, parent, name, start, end)


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        tree = [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 3.0),
            _span(2, 0, 4.0, 8.0),
            _span(3, 2, 5.0, 6.0),
        ]
        own = spans.self_times(tree)
        self.assertAlmostEqual(own[0], 4.0)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[3], 1.0)

    def test_overlapping_children_count_once(self):
        tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 6.0), _span(2, 0, 4.0, 7.0)]
        self.assertAlmostEqual(spans.self_times(tree)[0], 5.0)

    def test_children_clipped_to_parent(self):
        tree = [_span(0, None, 2.0, 6.0), _span(1, 0, 1.0, 3.0), _span(2, 0, 5.0, 9.0)]
        self.assertAlmostEqual(spans.self_times(tree)[0], 2.0)

    def test_tracer_records_parents(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap(lambda: 7, "inner", lambda _a, r: {"value": r})
        outer = tracer.wrap(lambda: inner() + inner(), "outer", None)
        self.assertEqual(outer(), 14)
        names = [(s.name, s.parent) for s in tracer.spans]
        self.assertEqual(names, [("outer", None), ("inner", 0), ("inner", 0)])
        self.assertEqual(tracer.spans[1].attrs, {"value": 7})
        # outer runs 0..5, its children 1..2 and 3..4
        self.assertAlmostEqual(spans.self_times(tracer.spans)[0], 3.0)


class Tallying(unittest.TestCase):
    def test_failures_and_changed_outputs(self):
        import run

        op = run.Operation(["simulate"], Path("p"), (".sim.json",), lambda _d: None)
        tally = run.Tally()
        tally.record(0, op, run.Outcome(1.0, True, "a"))
        tally.record(0, op, run.Outcome(1.0, False, error="exit 2"))
        tally.record(0, op, run.Outcome(1.0, True, "a"))
        self.assertEqual((tally.attempted, tally.failed, tally.changed), (3, 1, 0))
        tally.record(0, op, run.Outcome(1.0, True, "b"))
        self.assertEqual(tally.changed, 1)


class Operations(unittest.TestCase):
    """run_operation with a stand-in for the CLI that writes ``rev`` to
    ``<prefix>.sim.json`` (or nothing, when ``rev`` is None) and returns
    ``status``, or raises."""

    def outcome(self, status=0, rev=None, crash=False):
        import run

        run.OUT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            prefix = Path(tmp) / "out"

            def main(argv):
                if crash:
                    return {}["actions"]
                if rev is not None:
                    prefix.with_name("out.sim.json").write_text(json.dumps({"rev": rev}))
                return status

            cli = type("FakeCli", (), {"main": staticmethod(main)})
            op = run.Operation(["simulate"], prefix, (".sim.json",), self.check)
            return run.run_operation(cli, op)

    @staticmethod
    def check(data):
        checks.check_simulated(data[".sim.json"]["rev"], 0.01, 0.5)

    def test_passing_output(self):
        self.assertTrue(self.outcome(rev=0.52).ok)

    def test_failed_check(self):
        outcome = self.outcome(rev=0.56)
        self.assertFalse(outcome.ok)
        self.assertIn("CheckFailed", outcome.error)

    def test_nonzero_status(self):
        outcome = self.outcome(status=2, rev=0.5)
        self.assertFalse(outcome.ok)
        self.assertIn("exit 2", outcome.error)

    def test_crash_keeps_traceback(self):
        outcome = self.outcome(crash=True)
        self.assertFalse(outcome.ok)
        self.assertIn("KeyError: 'actions'", outcome.error)

    def test_missing_output(self):
        self.assertFalse(self.outcome().ok)


class Installed(unittest.TestCase):
    def test_wraps_where_called_and_restores(self):
        import run  # puts the checkout's src/ on the path

        run.import_cli()
        from selfish_mining import chain, mdp, model, optimize

        original = chain.build_base_model
        tracer = spans.Tracer()
        with tracer.installed(run.PACKAGE):
            self.assertIsNot(optimize.build_base_model, original)
            params = model.MiningParams(0.3, 0.0)
            built = chain.build_base_model(params, 4)
            mdp.evaluate_policy_exact(built, model.builtin_policy("sm1", 4, params))
        self.assertIs(chain.build_base_model, original)
        self.assertIs(optimize.build_base_model, original)
        self.assertIsInstance(model.Policy.__dict__["tabulate"], classmethod)
        by_name = {s.name: s for s in tracer.spans}
        self.assertEqual(by_name["chain.build_base_model"].attrs, {"states": built.n})
        evaluate = by_name["mdp.evaluate_policy_exact"]
        self.assertEqual(by_name["mdp.reachable_mask"].parent, evaluate.id)
        self.assertEqual(by_name["mdp.stationary_distribution"].parent, evaluate.id)


    def test_skips_what_the_package_lacks(self):
        import run

        run.import_cli()
        saved = spans.TRACED
        spans.TRACED = saved + (
            ("chain", "no_such_function", None),
            ("no_such_module", "main", None),
            ("model", "NoSuchClass.load", None),
        )
        try:
            with spans.Tracer().installed(run.PACKAGE):
                pass
        finally:
            spans.TRACED = saved


class Declared(unittest.TestCase):
    def test_layer_metrics_match_benchmark_json(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        declared = {m["name"] for m in json.loads(path.read_text())["per_layer"]}
        produced = set(spans.layer_metrics([], rounds=1))
        produced |= {"cli.bytes_written", "trace.overhead_pct"}
        self.assertEqual(declared, produced)


if __name__ == "__main__":
    unittest.main()
