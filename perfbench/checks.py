"""Independent checks of posetlie's CLI outputs.

Everything here is written from the paper's definitions and closed forms and
imports nothing from posetlie:

- admissibility as a cycle-space potential test: a BFS spanning tree of the
  comparability graph and one balance check per non-tree edge;
- properness by rebuilding the element map from the pair images, in the ISO
  and in the ANTI reading, and checking that it preserves or reverses order;
- chain classes by union-find over maximal chains sharing an interior element;
- |P| by backtracking over poset (anti-)automorphisms;
- group orders from closed forms, and closure of reported generators by BFS.

A bijection theta is a list over the canonical strict-pair order (pairs
(x, y) with x < y, sorted): theta[k] is the index of the image of pair k.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import permutations
from math import factorial


class Order:
    """A finite poset from element names and strict relations (closure taken)."""

    def __init__(self, names, relations):
        n = len(names)
        lt = [[False] * n for _ in range(n)]
        for a, b in relations:
            lt[a][b] = True
        for k in range(n):
            for i in range(n):
                if lt[i][k]:
                    row_i, row_k = lt[i], lt[k]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        if any(lt[i][i] for i in range(n)):
            raise ValueError("relations contain a cycle")
        self.names = tuple(names)
        self.n = n
        self.lt = lt
        self.pairs = [(i, j) for i in range(n) for j in range(n) if lt[i][j]]
        self.pair_index = {p: k for k, p in enumerate(self.pairs)}
        self.neighbors = [
            [j for j in range(n) if lt[i][j] or lt[j][i]] for i in range(n)
        ]
        self.minimal = [i for i in range(n) if not any(lt[j][i] for j in range(n))]
        self.maximal = {i for i in range(n) if not any(lt[i])}
        covers = [
            [j for j in range(n)
             if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n))]
            for i in range(n)
        ]
        chains = []
        stack = [(i,) for i in self.minimal]
        while stack:
            c = stack.pop()
            if c[-1] in self.maximal:
                chains.append(c)
            else:
                stack.extend(c + (j,) for j in covers[c[-1]])
        self.chains = sorted(chains)
        self.chain_set = set(self.chains)
        self.length = max(len(c) for c in self.chains) - 1

    def connected(self):
        seen = {0}
        queue = deque([0])
        while queue:
            for j in self.neighbors[queue.popleft()]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        return len(seen) == self.n

    def crownless_length_one(self):
        """Length one and acyclic: in a bipartite order every cycle is a crown."""
        return self.length == 1 and len(self.pairs) == self.n - 1

    def file_text(self):
        rel = " ".join("%s<%s" % (self.names[a], self.names[b]) for a, b in self.pairs)
        return "poset v1\nelements: %s\nrelations: %s\n" % (" ".join(self.names), rel)


# -- the named families, in posetlie's element order ---------------------------

_EXAMPLE6 = ["1<2", "1<3", "2<4", "2<5", "3<5", "3<6"]
_EXAMPLE20 = [
    "1<5", "2<5", "3<6", "4<6", "5<7", "6<7", "5<8", "6<8", "8<9", "8<10",
    "1'<5'", "2'<5'", "3'<6'", "4'<6'",
    "5'<7''", "6'<7'", "5'<8'", "6'<8'", "8'<9'", "8'<10",
]


def _from_covers(names, covers):
    index = {name: i for i, name in enumerate(names)}
    return Order(names, [tuple(index[v] for v in c.split("<")) for c in covers])


def family(selector):
    """The Order a posetlie family selector such as ``crown:4`` names."""
    kind, arg = selector.split(":")
    if kind == "crown":
        n = int(arg)
        names = ["x%d" % i for i in range(1, n + 1)] + ["y%d" % i for i in range(1, n + 1)]
        rel = [(i, n + i) for i in range(n)] + [((i + 1) % n, n + i) for i in range(n)]
        return Order(names, rel)
    if kind in ("kmn", "star"):
        m, n = (int(v) for v in arg.split("x")) if kind == "kmn" else (1, int(arg))
        names = ["x%d" % i for i in range(1, m + 1)] + ["y%d" % j for j in range(1, n + 1)]
        return Order(names, [(i, m + j) for i in range(m) for j in range(n)])
    if kind == "fence":
        n = int(arg)
        rel = [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(n - 1)]
        return Order(["v%d" % i for i in range(1, n + 1)], rel)
    if kind == "chain":
        n = int(arg)
        return Order([str(i) for i in range(1, n + 1)], [(i, i + 1) for i in range(n - 1)])
    if selector == "example:6":
        return _from_covers([str(i) for i in range(1, 7)], _EXAMPLE6)
    if selector == "example:20":
        names = [str(i) for i in range(1, 11)] + ["%d'" % i for i in range(1, 10)] + ["7''"]
        return _from_covers(names, _EXAMPLE20)
    raise ValueError("no checker for selector %r" % selector)


def closed_form_orders(selector):
    """(|AM|, |P|) from the paper's answers for crowns and ordinal sums of
    two antichains, or None where no closed form applies."""
    kind, arg = selector.split(":")
    if kind == "crown" and int(arg) >= 3:
        n = int(arg)
        return 2 * factorial(n) ** 2, 4 * n
    if kind == "kmn":
        m, n = (int(v) for v in arg.split("x"))
        if m >= 2 and n >= 2:
            order = factorial(m) * factorial(n) * (2 if m == n else 1)
            return order, order
    return None


# -- admissibility, monotonicity, properness --------------------------------------


def fundamental_cycles(order):
    """One closed semiwalk per non-tree edge of a BFS tree of the comparability
    graph, as signed pair-index steps (+1 up, -1 down).  They span the cycle
    space, so a balance that holds on them holds on every closed semiwalk."""
    parent = {0: None}
    queue = deque([0])
    tree = set()
    while queue:
        u = queue.popleft()
        for v in order.neighbors[u]:
            if v not in parent:
                parent[v] = u
                tree.add(frozenset((u, v)))
                queue.append(v)

    def to_root(x):
        path = [x]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    def step(a, b):
        if order.lt[a][b]:
            return order.pair_index[(a, b)], 1
        return order.pair_index[(b, a)], -1

    cycles = []
    for u, v in order.pairs:
        if frozenset((u, v)) in tree:
            continue
        pu, pv = to_root(u), to_root(v)
        while len(pu) > 1 and len(pv) > 1 and pu[-2] == pv[-2]:
            pu.pop()
            pv.pop()
        walk = [u] + pv + pu[-2::-1]  # u -> v -> lca -> u
        cycles.append(tuple(step(walk[i], walk[i + 1]) for i in range(len(walk) - 1)))
    return cycles


def inverse(theta):
    inv = [0] * len(theta)
    for k, image in enumerate(theta):
        inv[image] = k
    return inv


def balanced(order, cycles, inv):
    """The counting identity on every cycle: for a step over pair b with sign s,
    the preimage (p, q) of b adds s at p to s+ - s- and s at q to t+ - t-."""
    pairs = order.pairs
    for steps in cycles:
        acc = {}
        for b, s in steps:
            p, q = pairs[inv[b]]
            acc[p] = acc.get(p, 0) + s
            acc[q] = acc.get(q, 0) - s
        if any(acc.values()):
            return False
    return True


def is_admissible(order, theta, cycles):
    """The counting identity for theta on `fundamental_cycles(order)`."""
    return balanced(order, cycles, inverse(theta))


def is_monotone(order, theta):
    """Increasing or decreasing on every maximal chain, onto a maximal chain."""
    pairs, index = order.pairs, order.pair_index

    def th(a, b):
        return pairs[theta[index[(a, b)]]]

    for c in order.chains:
        k = len(c) - 1
        if k == 0:
            continue
        up = [th(c[i], c[k])[0] for i in range(k)] + [th(c[0], c[k])[1]]
        down = [th(c[0], c[j])[0] for j in range(k, 0, -1)] + [th(c[0], c[1])[1]]
        inc = tuple(up) in order.chain_set and all(
            th(c[i], c[j]) == (up[i], up[j]) for i in range(k + 1) for j in range(i + 1, k + 1)
        )
        dec = tuple(down) in order.chain_set and all(
            th(c[i], c[j]) == (down[k - j], down[k - i])
            for i in range(k + 1) for j in range(i + 1, k + 1)
        )
        if not (inc or dec):
            return False
    return True


def is_proper(order, theta):
    """Whether a poset automorphism or anti-automorphism induces theta."""
    n, lt = order.n, order.lt
    for anti in (False, True):
        f = {}
        ok = True
        for k, (x, y) in enumerate(order.pairs):
            a, b = order.pairs[theta[k]]
            if anti:
                a, b = b, a
            if f.setdefault(x, a) != a or f.setdefault(y, b) != b:
                ok = False
                break
        if not ok or len(f) != n or len(set(f.values())) != n:
            continue
        if all(
            lt[x][y] == (lt[f[y]][f[x]] if anti else lt[f[x]][f[y]])
            for x in range(n) for y in range(n)
        ):
            return True
    return False


def proper_group(order):
    """The edge maps induced by all poset automorphisms and anti-automorphisms."""
    n, lt = order.n, order.lt
    up = [sum(row) for row in lt]
    down = [sum(lt[j][i] for j in range(n)) for i in range(n)]
    seq = []  # BFS order over comparability, so constraints bite early
    for start in range(n):
        if start not in seq:
            seq.append(start)
            for x in seq:
                seq.extend(j for j in order.neighbors[x] if j not in seq)
    found = set()
    for anti in (False, True):
        image = {}

        def extend(depth):
            if depth == n:
                found.add(tuple(
                    order.pair_index[(image[y], image[x]) if anti else (image[x], image[y])]
                    for x, y in order.pairs
                ))
                return
            x = seq[depth]
            want = (down[x], up[x]) if anti else (up[x], down[x])
            used = set(image.values())
            for t in range(n):
                if t in used or (up[t], down[t]) != want:
                    continue
                if all(
                    (lt[x][y] == lt[image[y]][t] and lt[y][x] == lt[t][image[y]])
                    if anti else
                    (lt[x][y] == lt[t][image[y]] and lt[y][x] == lt[image[y]][t])
                    for y in image
                ):
                    image[x] = t
                    extend(depth + 1)
                    del image[x]

        extend(0)
    return found


def class_count(order):
    """Classes of maximal chains under sharing an interior element (union-find)."""
    parent = list(range(len(order.chains)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first_with = {}
    for k, c in enumerate(order.chains):
        for x in c[1:-1]:
            if x in first_with:
                parent[find(k)] = find(first_with[x])
            else:
                first_with[x] = k
    return len({find(k) for k in range(len(order.chains))})


def monotone_bijections(order):
    """All of M: every maximal chain is sent, increasingly or decreasingly, onto
    a maximal chain.  Chains are given images in turn; each choice fixes the
    images of the chain's pairs, which must agree with earlier choices and
    stay injective.  Every pair lies on a maximal chain, so a complete
    assignment is a bijection.  At length one every chain is a single pair,
    so M is all of S(B), listed directly."""
    index = order.pair_index
    by_size = {}
    for c in order.chains:
        by_size.setdefault(len(c), []).append(c)
    image = [None] * len(order.pairs)
    used = [False] * len(order.pairs)
    found = []

    def pair_images(c, d, down):
        k = len(c) - 1
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                target = (d[k - j], d[k - i]) if down else (d[i], d[j])
                yield index[(c[i], c[j])], index[target]

    def assign(t):
        if t == len(order.chains):
            found.append(tuple(image))
            return
        c = order.chains[t]
        for d in by_size[len(c)]:
            for down in (False,) if len(c) == 2 else (False, True):
                placed = []
                for src, dst in pair_images(c, d, down):
                    if image[src] is None and not used[dst]:
                        image[src] = dst
                        used[dst] = True
                        placed.append(src)
                    elif image[src] != dst:
                        break
                else:
                    assign(t + 1)
                for src in placed:
                    used[image[src]] = False
                    image[src] = None

    if order.length == 1:
        return permutations(range(len(order.pairs)))
    assign(0)
    return found


def count_am(order, cycles):
    """|AM| by brute force: the monotone bijections whose inverse balances
    every fundamental cycle."""
    return sum(balanced(order, cycles, inverse(theta)) for theta in monotone_bijections(order))


# -- groups ---------------------------------------------------------------------


def compose(g, h):
    return tuple(g[k] for k in h)


def closure(generators, degree):
    """The group generated by the given permutations, by BFS."""
    start = tuple(range(degree))
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for a in frontier:
            for g in generators:
                c = compose(a, g)
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
        frontier = fresh
    return seen


def element_order(g):
    identity = tuple(range(len(g)))
    power, k = g, 1
    while power != identity:
        power, k = compose(power, g), k + 1
    return k


# -- checking CLI outputs ---------------------------------------------------------


def theta_from_json(order, data):
    """A bijection from posetlie's [[pair, image], ...] JSON form."""
    theta = [None] * len(order.pairs)
    for src, dst in data:
        theta[order.pair_index[tuple(src)]] = order.pair_index[tuple(dst)]
    if None in theta or len(set(theta)) != len(theta):
        raise ValueError("not a bijection of the strict pairs")
    return theta


class Checker:
    """Checks each operation's output; facts about an input are computed once."""

    def __init__(self):
        self._facts = {}

    def facts(self, source):
        key = json.dumps(source, sort_keys=True)
        if key not in self._facts:
            if "family" in source:
                order = family(source["family"])
                closed = closed_form_orders(source["family"])
            else:
                order = Order(source["names"], [tuple(r) for r in source["relations"]])
                closed = None
            if closed is None and order.crownless_length_one():
                closed = factorial(len(order.pairs)), None
            self._facts[key] = {
                "order": order,
                "closed": closed,
                "cycles": fundamental_cycles(order),
                "p": proper_group(order),
                "classes": class_count(order),
                "am": None,
            }
        return self._facts[key]

    def am_count(self, facts):
        """|AM| for an input with no closed form, by brute force over M."""
        if facts["am"] is None:
            facts["am"] = count_am(facts["order"], facts["cycles"])
        return facts["am"]

    def check(self, op, out):
        """Error messages for the stdout of an op that exited 0; [] if right."""
        argv = op["argv"]
        try:
            data = json.loads(out)
        except ValueError:
            return ["output is not JSON"]
        try:
            if argv[0] == "decide":
                return self._check_decide(self.facts(op["source"]), data)
            if argv[0] == "enumerate":
                return self._check_group(self.facts(op["source"]), argv[1], data)
            if argv[0] == "verify":
                return check_verify(data, argv[1])
        except (KeyError, TypeError, ValueError, IndexError) as err:
            return ["malformed output: %r" % (err,)]
        return ["no check for command %r" % argv[0]]

    def _check_decide(self, facts, data):
        order = facts["order"]
        errors = []
        am, p = data["am_order"], data["p_order"]
        if data["all_proper"] != (am == p):
            errors.append("verdict %r but |AM| = %d, |P| = %d" % (data["all_proper"], am, p))
        errors += self._check_p_order(facts, p)
        if p == 0 or am % p:
            errors.append("|P| = %d does not divide |AM| = %d" % (p, am))
        if data["class_count"] != facts["classes"]:
            errors.append("%d chain classes, independent count %d"
                          % (data["class_count"], facts["classes"]))
        if data["single_class_sufficient"] != (data["class_count"] == 1):
            errors.append("single_class_sufficient disagrees with class_count")
        errors += self._check_am_order(facts, am)
        witness = data["counterexample"]
        if data["all_proper"]:
            if witness is not None:
                errors.append("all proper, yet a counterexample is given")
        elif witness is None:
            errors.append("not all proper, yet no counterexample")
        else:
            theta = theta_from_json(order, witness)
            if not is_monotone(order, theta):
                errors.append("witness is not monotone")
            elif not is_admissible(order, theta, facts["cycles"]):
                errors.append("witness is not admissible")
            if is_proper(order, theta):
                errors.append("witness is proper")
        return errors

    def _check_p_order(self, facts, p):
        errors = []
        if p != len(facts["p"]):
            errors.append("|P| = %d, independent count %d" % (p, len(facts["p"])))
        closed = facts["closed"]
        if closed is not None and closed[1] is not None and p != closed[1]:
            errors.append("|P| = %d, expected %d" % (p, closed[1]))
        return errors

    def _check_am_order(self, facts, am):
        closed = facts["closed"]
        expected = closed[0] if closed is not None else self.am_count(facts)
        if am != expected:
            return ["|AM| = %d, expected %d" % (am, expected)]
        return []

    def _check_group(self, facts, group, data):
        order = facts["order"]
        errors = []
        elements = [tuple(theta_from_json(order, e)) for e in data["elements"]]
        structure = data["structure"]
        if len(set(elements)) != len(elements) or structure["order"] != len(elements):
            errors.append("order %r for %d elements" % (structure["order"], len(elements)))
        if group == "am":
            errors += self._check_am_order(facts, len(elements))
            bad = [g for g in elements
                   if not (is_monotone(order, g) and is_admissible(order, g, facts["cycles"]))]
        else:
            errors += self._check_p_order(facts, len(elements))
            if set(elements) != facts["p"]:
                errors.append("P differs from the independent automorphism search")
            bad = [g for g in elements if not is_proper(order, g)]
        if bad:
            errors.append("%d elements fail the %s test" % (len(bad), group.upper()))
        generators = [tuple(g) for g in structure["witness_generators"]]
        if closure(generators, len(order.pairs)) != set(elements):
            errors.append("witness generators do not close to the listed elements")
        histogram = {}
        for g in elements:
            k = str(element_order(g))
            histogram[k] = histogram.get(k, 0) + 1
        if structure["element_order_histogram"] != histogram:
            errors.append("element order histogram differs")
        return errors


# every block of the verify harness, by the name prefixes of its checks
VERIFY_BLOCKS = {
    "crown-orders": ("am_order_crown_", "p_order_crown_", "dihedral_crown_"),
    "crown-dichotomy": ("all_proper_crown_", "improper_witness_crown_"),
    "bipartite": ("all_proper_kmn_",),
    "crownless": ("star_", "fence_"),
    "example20": ("example20_",),
    "example6": ("example6_",),
    "oracle": ("oracle_agreement_",),
    "sigma": ("sigma_compatible_",),
    "supports": ("supports_extract_",),
    "algebra": ("commutator_is_radical_", "center_is_delta_",
                "induced_maps_are_lie_", "self_decomposition_"),
    "properties": ("incdec_", "identity_shift_", "run_collapse_", "crown3_parity_"),
}


def check_verify(data, suite):
    """No failed check, and checks from every block the suite runs."""
    errors = []
    checks = data["checks"]
    failed = [c["name"] for c in checks if not c["ok"]]
    if failed or data["failed"] != 0 or data["passed"] != len(checks):
        errors.append("failed checks: %s" % (failed or data["failed"]))
    names = [c["name"] for c in checks]
    for block, prefixes in VERIFY_BLOCKS.items():
        if suite not in ("all", block):
            continue
        for prefix in prefixes:
            if not any(name.startswith(prefix) for name in names):
                errors.append("no %s* check from block %s" % (prefix, block))
    return errors
