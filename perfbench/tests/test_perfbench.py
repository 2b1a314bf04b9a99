"""Fast tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def cli_output(argv):
    """Run the posetlie CLI in this process and return its stdout."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from posetlie import cli
    finally:
        sys.path.pop(0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--format", "json"]) == 0
    return out.getvalue()


def family_op(argv, selector):
    return {"argv": argv + ["--family", selector], "source": {"family": selector}}


class SmokeTest(unittest.TestCase):
    def test_every_workload_on_tiny_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result, errors = run.measure(name, 1, 0.1, 0, tiny=True)
                self.assertEqual(errors, [])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_run_reports_every_layer_metric(self):
        result, errors = run.measure("decide-flat", 1, 0.1, 1, tiny=True)
        self.assertEqual(errors, [])
        self.assertEqual(set(result["metrics"]), set(run.per_layer_units()))
        self.assertGreater(result["metrics"]["bijections.candidates_tested"]["value"], 0)

    def test_same_seed_same_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            first = workloads.build("decide-flat", 7, os.path.join(tmp, "a"))
            second = workloads.build("decide-flat", 7, os.path.join(tmp, "b"))
            other = workloads.build("decide-flat", 8, os.path.join(tmp, "c"))
        sources = [[op["source"].get("relations") for op in spec["ops"]]
                   for spec in (first, second, other)]
        self.assertEqual(sources[0], sources[1])
        self.assertNotEqual(sources[0], sources[2])

    def test_benchmark_json_names_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.per_layer_units())


class CalibrationTest(unittest.TestCase):
    def test_sampler_brackets_and_samples_the_timed_interval(self):
        with calibrate.Sampler() as sampler:
            time.sleep(5 * calibrate.PERIOD_S)
        self.assertFalse(sampler.thread.is_alive())
        self.assertGreater(len(sampler.speeds), 2 * calibrate.BRACKET)
        self.assertTrue(all(speed > 0 for speed in sampler.speeds))

    def test_untraced_reports_carry_the_speed_and_traced_ones_do_not(self):
        runner = run.Runner("groups", 1, tiny=True)
        untraced, traced = runner.run_pass(False, 0), runner.run_pass(True, 1)
        self.assertGreater(untraced["speed"], 0)
        self.assertGreaterEqual(untraced["speed_samples"], 2 * calibrate.BRACKET)
        self.assertNotIn("speed", traced)
        setup = runner.setup()
        self.assertGreater(setup["setup_s"], 0)
        self.assertGreater(setup["speed"], 0)


class NoCacheAcrossPassesTest(unittest.TestCase):
    def test_example20_enumerates_its_crowns_in_every_pass(self):
        runner = run.Runner("decide-deep", 1, tiny=True)
        runner.spec["ops"] = [
            op for op in workloads.build("decide-deep", 1, runner.dir)["ops"]
            if "example:20" in op["argv"]
        ]
        with open(runner.spec_path, "w", encoding="utf-8") as handle:
            json.dump(runner.spec, handle)
        for number in range(2):
            report = runner.run_pass(True, number)
            layers = report["layers"]["0"]
            self.assertGreater(layers["self"]["poset.weak_crowns"][0], 0.0)
            self.assertEqual(layers["counts"]["poset.weak_crowns_found"], 4067)


class IndependentChecksTest(unittest.TestCase):
    def test_brute_force_counts_match_the_closed_forms(self):
        for selector in ("crown:3", "crown:4", "kmn:2x3", "kmn:3x3"):
            order = checks.family(selector)
            am, p = checks.closed_form_orders(selector)
            self.assertEqual(checks.count_am(order, checks.fundamental_cycles(order)), am)
            self.assertEqual(len(checks.proper_group(order)), p)

    def test_brute_force_counts_at_length_two_and_more(self):
        order = checks.family("example:20")
        self.assertEqual(len(checks.monotone_bijections(order)), 512)
        self.assertEqual(checks.count_am(order, checks.fundamental_cycles(order)), 256)
        self.assertEqual(len(checks.proper_group(order)), 64)

    def test_rejects_a_non_admissible_witness(self):
        order = checks.family("crown:4")
        cycles = checks.fundamental_cycles(order)
        size = len(order.pairs)
        bad = None
        for a in range(size):
            for b in range(a + 1, size):
                theta = list(range(size))
                theta[a], theta[b] = b, a
                if not checks.is_admissible(order, theta, cycles):
                    bad = theta
                    break
            if bad:
                break
        self.assertIsNotNone(bad)
        op = family_op(["decide"], "crown:4")
        data = json.loads(cli_output(op["argv"]))
        self.assertEqual(checks.Checker().check(op, json.dumps(data)), [])
        data["counterexample"] = [[list(order.pairs[k]), list(order.pairs[bad[k]])]
                                  for k in range(size)]
        errors = checks.Checker().check(op, json.dumps(data))
        self.assertIn("witness is not admissible", errors)

    def test_rejects_a_proper_witness(self):
        op = family_op(["decide"], "crown:4")
        data = json.loads(cli_output(op["argv"]))
        order = checks.family("crown:4")
        data["counterexample"] = [[list(p), list(p)] for p in order.pairs]
        self.assertIn("witness is proper", checks.Checker().check(op, json.dumps(data)))

    def test_rejects_a_wrong_group_order(self):
        op = family_op(["decide"], "kmn:3x3")
        data = json.loads(cli_output(op["argv"]))
        data["am_order"] *= 2
        errors = checks.Checker().check(op, json.dumps(data))
        self.assertTrue(any("expected 72" in e for e in errors), errors)
        op = family_op(["enumerate", "am"], "crown:3")
        data = json.loads(cli_output(op["argv"]))
        self.assertEqual(checks.Checker().check(op, json.dumps(data)), [])
        data["elements"].pop()
        self.assertNotEqual(checks.Checker().check(op, json.dumps(data)), [])

    def test_rejects_generators_that_do_not_close(self):
        op = family_op(["enumerate", "am"], "crown:3")
        data = json.loads(cli_output(op["argv"]))
        data["structure"]["witness_generators"] = data["structure"]["witness_generators"][:1]
        errors = checks.Checker().check(op, json.dumps(data))
        self.assertIn("witness generators do not close to the listed elements", errors)

    def test_rejects_a_failed_or_missing_verify_block(self):
        op = {"argv": ["verify", "example6"], "source": None}
        data = json.loads(cli_output(op["argv"]))
        self.assertEqual(checks.Checker().check(op, json.dumps(data)), [])
        data["checks"][0]["ok"] = False
        self.assertNotEqual(checks.Checker().check(op, json.dumps(data)), [])
        op = {"argv": ["verify", "all"], "source": None}
        self.assertNotEqual(checks.Checker().check(op, cli_output(["verify", "example6"])), [])


if __name__ == "__main__":
    unittest.main()
