"""Time to verdict for posetlie, end to end and layer by layer.

    python3 perfbench/run.py --workload decide-deep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every pass runs the workload's CLI
operations in a fresh interpreter, so no Poset and no cache crosses passes.
Passes repeat until the next one would end after ``--seconds``.  With
``--trace 0`` the run reports the end-to-end metrics, with its times scaled
to a reference host speed sampled during each timed interval
(calibrate.py); with ``--trace 1`` it alternates untraced and traced passes
and reports per-layer self times and counts, and the tracing overhead, all
unscaled.  Every output is checked independently
(see checks.py).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Inputs, spans and a full
report go to ``perfbench/out/<workload>-seed<seed>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from checks import Checker
from workloads import WORKLOADS, build

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 15
HARD_LIMIT_S = 170  # a run must end well inside three minutes

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SUITE_BLOCKS = (
    "crown-orders", "crown-dichotomy", "bipartite", "crownless", "example20",
    "example6", "oracle", "sigma", "supports", "algebra", "properties",
)
LAYER_SPANS = (
    "poset.build", "poset.weak_crowns", "poset.order_isomorphisms",
    "poset.closed_semiwalks",
    "bijections.enumerate_M", "bijections.enumerate_AM", "bijections.enumerate_P",
    "bijections.count_stats", "bijections.is_admissible_oracle",
    "chains.decide_all_proper", "chains.chain_classes", "chains.support_maps",
    "groups.verify_group", "groups.to_json", "groups.dihedral_witness",
    "algebra.commutator_subspace", "algebra.center", "algebra.is_lie_automorphism",
    "algebra.check_proper_decomposition",
) + tuple("suites." + block for block in SUITE_BLOCKS) + ("cli.main",)
LAYER_COUNTS = (
    "poset.weak_crowns_found", "poset.closed_semiwalks_found", "bijections.M_order",
    "bijections.candidates_tested", "bijections.count_stats_calls",
    "groups.products_checked",
)
TRACE_TIMES = ("trace.traced_wall_s", "trace.untraced_wall_s", "trace.overhead_s",
               "trace.unattributed_s")


def per_layer_units():
    """Every per-layer metric with its unit, in report order."""
    units = {name + "_s": "s" for name in LAYER_SPANS}
    units.update({name: "count" for name in LAYER_COUNTS})
    units["bijections.am_yield"] = "ratio"
    units.update({name: "s" for name in TRACE_TIMES})
    return units


class BenchError(Exception):
    """A run that cannot produce a result."""


class Runner:
    """Spawns the fresh interpreters of one run."""

    def __init__(self, workload, seed, tiny=False):
        self.dir = os.path.join(OUT, "%s-seed%d%s" % (workload, seed, "-tiny" if tiny else ""))
        os.makedirs(self.dir, exist_ok=True)
        self.spec = build(workload, seed, os.path.join(self.dir, "inputs"), tiny)
        self.spec_path = os.path.join(self.dir, "spec.json")
        with open(self.spec_path, "w", encoding="utf-8") as handle:
            json.dump(self.spec, handle)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.stop_at = time.monotonic() + HARD_LIMIT_S

    def child(self, mode, *extra):
        cmd = [sys.executable, os.path.join(HERE, "child.py"), self.spec_path, mode, *extra]
        left = self.stop_at - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before a %s child" % mode)
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("a %s child ran past the time limit" % mode) from None
        if proc.returncode != 0:
            raise BenchError("%s child exited %d: %s"
                             % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
        return proc.stdout

    def setup(self):
        return json.loads(self.child("setup").splitlines()[-1])

    def run_pass(self, traced, number):
        if traced:
            spans = os.path.join(self.dir, "spans-pass%d.json" % number)
            out = self.child("traced", spans)
        else:
            out = self.child("pass")
        return json.loads(out.splitlines()[-1])


def run_passes(runner, seconds, trace):
    """Passes until the next would end after `seconds`; with `trace`, they
    alternate untraced and traced, starting untraced."""
    passes = []
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        began = time.monotonic()
        report = runner.run_pass(traced, len(passes))
        report["traced"] = traced
        passes.append(report)
        now = time.monotonic()
        if len(passes) >= (2 if trace else 1) and now - start + (now - began) > seconds:
            return passes


def check_passes(spec, passes):
    """(attempted, failures, errors): an op fails when the CLI exits non-zero;
    errors are checks that the output of an op that did not fail failed."""
    checker = Checker()
    verdicts = {}
    attempted = 0
    failures, errors = [], []
    for report in passes:
        for k, (op, result) in enumerate(zip(spec["ops"], report["ops"])):
            attempted += 1
            if result["rc"] != 0:
                failures.append("op failed: %s: exit %r: %s" % (
                    " ".join(op["argv"]), result["rc"], result["err"].strip()))
                continue
            key = (k, result["out"])
            if key not in verdicts:
                verdicts[key] = checker.check(op, result["out"])
                errors += ["check failed: %s: %s" % (" ".join(op["argv"]), e)
                           for e in verdicts[key]]
    return attempted, failures, errors


def layer_metrics(passes):
    """Per-layer metrics from the traced passes, as medians over passes."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    rows = []
    for report in traced:
        totals = {name + "_s": 0.0 for name in LAYER_SPANS}
        totals.update({name: 0 for name in LAYER_COUNTS + ("bijections.am_found",)})
        for entry in report["layers"].values():
            for name, (own, _) in entry["self"].items():
                totals[name + "_s"] += own
            for name, value in entry["counts"].items():
                totals[name] += value
        tested = totals["bijections.candidates_tested"]
        totals["bijections.am_yield"] = totals.pop("bijections.am_found") / tested if tested else 0.0
        totals["trace.unattributed_s"] = report["wall_s"] - sum(
            totals[name + "_s"] for name in LAYER_SPANS)
        rows.append(totals)
    # counts repeat exactly from pass to pass: median_low keeps them whole
    values = {name: (statistics.median_low if name in LAYER_COUNTS else statistics.median)(
        [row[name] for row in rows]) for name in rows[0]}
    values["trace.traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
    values["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    return values


def measure(workload, seed, seconds, trace, tiny=False):
    """One run: returns the result object and the failed ops and checks, and
    writes the full report."""
    runner = Runner(workload, seed, tiny)
    setups = [] if trace else [runner.setup() for _ in range(SETUP_SAMPLES)]
    passes = run_passes(runner, seconds, trace)
    attempted, failures, errors = check_passes(runner.spec, passes)
    if trace:
        units = per_layer_units()
        values = layer_metrics(passes)
    else:
        units = END_TO_END
        values = {
            "wall_s": statistics.median(p["wall_s"] * p["speed"] for p in passes),
            "setup_s": statistics.median(s["setup_s"] * s["speed"] for s in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "result": result, "errors": errors, "failures": failures, "setup_samples": setups,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "speed": p.get("speed"),
                    "speed_samples": p.get("speed_samples"),
                    "peak_rss_mb": p["peak_rss_mb"], "layers": p.get("layers"),
                    "rc": [r["rc"] for r in p["ops"]]} for p in passes],
        "argv": [op["argv"] for op in runner.spec["ops"]],
    }
    with open(os.path.join(runner.dir, "report-trace%d.json" % trace), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return result, failures + errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "posetlie", "cli.py")):
        print("error: no posetlie sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        result, problems = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    for line in problems:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
