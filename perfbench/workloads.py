"""The four workloads: the CLI operations of one pass, built from a seed.

An operation is one ``posetlie`` CLI call with ``--format json``.  Each op
carries the source of its input poset, so the checker can rebuild it without
posetlie.  Random posets are written as ``poset v1`` files and passed with
``--file``; ``--bound`` is passed only where |B| exceeds the default cap of 9.
With ``tiny``, a workload keeps a few small ops of the same kinds, for the
smoke tests.
"""

from __future__ import annotations

import os
import random

from checks import Order

DEFAULT_BOUND = 9


def three_level(rng, width=3, fan=2):
    """A random connected poset of length 2: three levels of `width` elements,
    each element above the bottom level covering `fan` elements of the level
    below."""
    names = ["%s%d" % (level, i) for level in "abc" for i in range(1, width + 1)]
    while True:
        rel = [
            (x, width * level + i)
            for level in (1, 2)
            for i in range(width)
            for x in rng.sample(range(width * (level - 1), width * level), fan)
        ]
        order = Order(names, rel)
        if order.connected() and order.length == 2:
            return order


def bipartite(rng, lows, highs, edges):
    """A random connected length-one poset with exactly `edges` strict pairs."""
    names = ["x%d" % i for i in range(1, lows + 1)] + ["y%d" % i for i in range(1, highs + 1)]
    every = [(i, lows + j) for i in range(lows) for j in range(highs)]
    while True:
        order = Order(names, rng.sample(every, edges))
        if order.connected():
            return order


def _family(command, selector, bound=None):
    argv = command + ["--family", selector] + (["--bound", str(bound)] if bound else [])
    return {"argv": argv, "source": {"family": selector}}


def decide_deep(rng, tiny):
    if tiny:
        return [_family(["decide"], "example:6")], [three_level(rng)]
    fixed = [_family(["decide"], "example:20", bound=60), _family(["decide"], "example:6")]
    return fixed, [three_level(rng) for _ in range(10)]


def decide_flat(rng, tiny):
    randoms = [
        bipartite(rng, 3, 4, 8),
        bipartite(rng, 4, 3, 8),
        bipartite(rng, 4, 5, 8),  # 9 elements and 8 pairs: a tree, so crownless
    ]
    if tiny:
        return [_family(["decide"], "crown:3")], randoms[:1]
    fixed = [
        _family(["decide"], "crown:4"),
        _family(["decide"], "kmn:3x3"),
        _family(["decide"], "kmn:2x5", bound=10),
        _family(["decide"], "fence:10"),
    ]
    return fixed, randoms


def groups(rng, tiny):
    am = ("crown:3",) if tiny else ("crown:3", "crown:4", "kmn:3x3")
    p = ("kmn:3x3",) if tiny else ("crown:5", "kmn:3x3")
    ops = [_family(["enumerate", "am"], s) for s in am]
    return ops + [_family(["enumerate", "p"], s) for s in p], []


# the posets the verify harness quantifies over, built for its set-up time
VERIFY_INPUTS = (
    "chain:2", "chain:3", "chain:4", "star:3", "star:4", "star:5",
    "fence:4", "fence:5", "fence:6", "crown:2", "crown:3", "crown:4", "crown:5",
    "kmn:2x3", "kmn:3x3", "example:6", "example:20",
)


def verify_all(rng, tiny):
    return [{"argv": ["verify", "example6" if tiny else "all"], "source": None}], []


WORKLOADS = {
    "decide-deep": decide_deep,
    "decide-flat": decide_flat,
    "groups": groups,
    "verify-all": verify_all,
}


def build(name, seed, input_dir, tiny=False):
    """The spec of one pass: its ops, and the inputs that set-up builds.

    The same name and seed give the same ops; random posets are written
    under `input_dir`.
    """
    rng = random.Random("%s:%d" % (name, seed))
    ops, randoms = WORKLOADS[name](rng, tiny)
    command = ops[0]["argv"][:1]
    os.makedirs(input_dir, exist_ok=True)
    for k, order in enumerate(randoms):
        path = os.path.join(input_dir, "%s-%d.poset" % (name, k))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(order.file_text())
        bound = ["--bound", str(len(order.pairs))] if len(order.pairs) > DEFAULT_BOUND else []
        ops.append({
            "argv": command + ["--file", path] + bound,
            "source": {"file": path, "names": list(order.names),
                       "relations": [list(p) for p in order.pairs]},
        })
    for op in ops:
        op["argv"] = op["argv"] + ["--format", "json"]
    if name == "verify-all":
        inputs = [{"family": s} for s in VERIFY_INPUTS]
    else:
        inputs = [op["source"] for op in ops]
    return {"ops": ops, "inputs": inputs}
