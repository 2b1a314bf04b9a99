"""One pass of a workload in a fresh interpreter.

    python3 child.py <spec.json> setup|pass|traced [<spans.json>]

``setup`` imports posetlie and builds every input poset, and prints the
wall time that took.  ``pass`` runs every op through ``posetlie.cli.main``
in this process and prints, as one JSON line, each op's exit code and
output, the pass's wall time from after import to the end of the last op,
and the process's peak resident memory.  Both also print the host speed
sampled around and during the timed interval (calibrate.py).  ``traced``
runs a pass with spans around posetlie's public functions and no speed
samples, writes the spans to the given file and adds the per-op self times
and counts.  ``src`` must be on PYTHONPATH.
"""

import contextlib
import io
import json
import resource
import sys
import time

import calibrate


def setup(spec):
    speeds = []
    calibrate.chunk()
    calibrate.bracket(speeds)
    start = time.perf_counter()
    import posetlie.cli  # noqa: F401  (the import a CLI call pays)
    from posetlie import families, poset

    for source in spec["inputs"]:
        if "family" in source:
            families.from_selector(source["family"])
        else:
            with open(source["file"], "r", encoding="utf-8") as handle:
                poset.parse_poset(handle.read())
    setup_s = time.perf_counter() - start
    calibrate.bracket(speeds)
    return {"setup_s": setup_s, "speed": calibrate.mean_speed(speeds)}


def run_pass(spec, tracer):
    from posetlie import cli

    if tracer is not None:
        tracer.install()
        sampler = contextlib.nullcontext()
    else:
        sampler = calibrate.Sampler()
    results = []
    with sampler:
        start = time.perf_counter()
        for k, op in enumerate(spec["ops"]):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op = k
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(op["argv"])
                except SystemExit as stop:  # argparse usage errors
                    rc = stop.code
            results.append({"rc": rc, "out": out.getvalue(), "err": err.getvalue()})
        wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    report = {"wall_s": wall, "peak_rss_mb": peak_kb / 1024.0, "ops": results}
    if tracer is None:
        report["speed"] = calibrate.mean_speed(sampler.speeds)
        report["speed_samples"] = len(sampler.speeds)
    return report


def main(argv):
    with open(argv[1], "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    mode = argv[2]
    if mode == "setup":
        print(json.dumps(setup(spec)))
        return 0
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
    report = run_pass(spec, tracer)
    if tracer is not None:
        with open(argv[3], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle, separators=(",", ":"))
        report["layers"] = tracer.summary()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
