"""Finite connected posets: relations, chains, crowns, semiwalks,
symmetries.

Elements are indexed ``0..n-1`` in input order; every derived sequence is
sorted by index so results are reproducible across runs.  All structures are
immutable after construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CycleError,
    DisconnectedError,
    ParseError,
    PreconditionError,
)


class MapKind(enum.Enum):
    ISO = "iso"
    ANTI = "anti"

    def pair(self, f, x, y):
        """The image of the pair (x, y) under the element map f, a tuple or
        a dict: (f(x), f(y)) for an isomorphism, (f(y), f(x)) for an anti one."""
        return (f[x], f[y]) if self is MapKind.ISO else (f[y], f[x])


@dataclass(frozen=True)
class PosetMap:
    """An element bijection tagged as order-isomorphism or anti-isomorphism."""

    perm: tuple[int, ...]
    kind: MapKind

    def __call__(self, x):
        return self.perm[x]

    def inverse(self):
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return PosetMap(tuple(inv), self.kind)

    def compose(self, other):
        """self after other; two anti maps compose to an isomorphism."""
        perm = tuple(self.perm[j] for j in other.perm)
        kind = MapKind.ISO if self.kind == other.kind else MapKind.ANTI
        return PosetMap(perm, kind)


@dataclass(frozen=True)
class WeakCrown:
    """An alternating cycle x1 < y1 > x2 < y2 > ... > x1 of distinct elements.

    Stored in canonical form: lexicographically minimal (mins, maxs) pair
    over all rotations and both orientations.
    """

    mins: tuple[int, ...]
    maxs: tuple[int, ...]

    @property
    def size(self):
        return len(self.mins)

    def cycle(self):
        """The crown as a closed semiwalk x1, y1, x2, ..., yk, x1."""
        walk = []
        for x, y in zip(self.mins, self.maxs):
            walk.append(x)
            walk.append(y)
        walk.append(self.mins[0])
        return tuple(walk)


class Poset:
    """A finite connected partial order on indexed elements."""

    def __init__(self, names, leq):
        names = tuple(names)
        n = len(names)
        if n == 0:
            raise ParseError("a poset needs at least one element")
        if len(set(names)) != n:
            raise ParseError("duplicate element labels")
        leq = tuple(tuple(bool(v) for v in row) for row in leq)
        if len(leq) != n or any(len(row) != n for row in leq):
            raise ParseError("relation matrix must be %dx%d" % (n, n))
        for i in range(n):
            if not leq[i][i]:
                raise ParseError("relation must be reflexive")
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    raise CycleError(
                        "antisymmetry violated at %r, %r" % (names[i], names[j])
                    )
                for k in range(n):
                    if leq[i][j] and leq[j][k] and not leq[i][k]:
                        raise ParseError("relation must be transitive")
        self.names = names
        self.n = n
        self.leq_matrix = leq
        self._check_connected()

    @classmethod
    def from_relations(cls, names, pairs):
        """Build from arbitrary strict pairs; the transitive closure is taken."""
        names = tuple(names)
        n = len(names)
        below = [set() for _ in range(n)]  # below[j] = {i : i < j}
        for a, b in pairs:
            if a == b:
                raise CycleError("self-relation at %r" % (names[a],))
            below[b].add(a)
        changed = True
        while changed:
            changed = False
            for j in range(n):
                extra = set()
                for i in below[j]:
                    extra |= below[i]
                if not extra <= below[j]:
                    below[j] |= extra
                    changed = True
        for j in range(n):
            if j in below[j]:
                raise CycleError("cycle through %r" % (names[j],))
        leq = [[i == j or i in below[j] for j in range(n)] for i in range(n)]
        return cls(names, leq)

    def _check_connected(self):
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(self.n):
                if j not in seen and (self.leq_matrix[i][j] or self.leq_matrix[j][i]):
                    seen.add(j)
                    frontier.append(j)
        if len(seen) != self.n:
            missing = min(set(range(self.n)) - seen)
            raise DisconnectedError(
                "element %r is not reachable from %r"
                % (self.names[missing], self.names[0])
            )

    # -- basic relation queries ------------------------------------------

    def leq(self, i, j):
        return self.leq_matrix[i][j]

    def lt(self, i, j):
        return i != j and self.leq_matrix[i][j]

    def index(self, label):
        try:
            return self.names.index(label)
        except ValueError:
            raise KeyError("no element labeled %r" % (label,)) from None

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Poset)
            and self.names == other.names
            and self.leq_matrix == other.leq_matrix
        )

    def __hash__(self):
        return hash((self.names, self.leq_matrix))

    def __repr__(self):
        return "Poset(%d elements, %d strict pairs)" % (self.n, len(self.strict_pairs))

    # -- derived structure -----------------------------------------------

    @cached_property
    def strict_pairs(self):
        """The basis index set: all (x, y) with x < y, sorted."""
        return tuple(
            (i, j) for i in range(self.n) for j in range(self.n) if self.lt(i, j)
        )

    @cached_property
    def pair_index(self):
        return {p: k for k, p in enumerate(self.strict_pairs)}

    @cached_property
    def all_pairs(self):
        """All (x, y) with x <= y, sorted; the incidence-algebra basis."""
        return tuple(
            (i, j) for i in range(self.n) for j in range(self.n) if self.leq_matrix[i][j]
        )

    @cached_property
    def all_pair_index(self):
        return {p: k for k, p in enumerate(self.all_pairs)}

    @cached_property
    def above(self):
        return tuple(
            tuple(j for j in range(self.n) if self.lt(i, j)) for i in range(self.n)
        )

    @cached_property
    def below(self):
        return tuple(
            tuple(j for j in range(self.n) if self.lt(j, i)) for i in range(self.n)
        )

    @cached_property
    def covers(self):
        """Hasse edges: (i, j) with i < j and nothing strictly between."""
        out = []
        for i, j in self.strict_pairs:
            if not any(self.lt(i, k) and self.lt(k, j) for k in range(self.n)):
                out.append((i, j))
        return tuple(out)

    @cached_property
    def upper_covers(self):
        out = [[] for _ in range(self.n)]
        for i, j in self.covers:
            out[i].append(j)
        return tuple(tuple(v) for v in out)

    @cached_property
    def min_set(self):
        return tuple(i for i in range(self.n) if not self.below[i])

    @cached_property
    def max_set(self):
        return tuple(i for i in range(self.n) if not self.above[i])

    @cached_property
    def length(self):
        """Maximum chain length, |C| - 1."""
        return max(len(c) for c in self.maximal_chains) - 1

    @cached_property
    def maximal_chains(self):
        """All maximal chains, as index tuples, in lexicographic order."""
        out = []
        max_set = set(self.max_set)
        stack = [(i,) for i in self.min_set]
        while stack:
            chain = stack.pop()
            if chain[-1] in max_set:
                out.append(chain)
            else:
                stack.extend(chain + (j,) for j in self.upper_covers[chain[-1]])
        out.sort()
        return tuple(out)

    @cached_property
    def maximal_chain_set(self):
        return frozenset(self.maximal_chains)

    @cached_property
    def _memo(self):
        return {}

    def memo(self, key, build, *args):
        """build(self, *args), computed once per key and kept on this
        instance, so the structures other modules derive from the poset live
        and die with it.  Callers pass a module-level build, so a hit makes
        no closure."""
        memo = self._memo
        try:
            return memo[key]
        except KeyError:
            pass
        memo[key] = value = build(self, *args)
        return value

    def dual(self):
        """The opposite order on the same elements: the transposed relation."""
        return Poset(self.names, zip(*self.leq_matrix))

    def label_chain(self, chain):
        return tuple(self.names[i] for i in chain)


# -- parsing ---------------------------------------------------------------


def parse_poset(text):
    """Parse the line-based ``poset v1`` file format into a Poset.

    Comments start with ``#``; blank lines are ignored.  Relations are
    arbitrary strict pairs ``a<b``; their transitive closure is computed.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if len(lines) != 3:
        raise ParseError("expected exactly 3 content lines, found %d" % len(lines))
    if lines[0] != "poset v1":
        raise ParseError("bad header %r (expected 'poset v1')" % lines[0])
    if not lines[1].startswith("elements:"):
        raise ParseError("second line must start with 'elements:'")
    if not lines[2].startswith("relations:"):
        raise ParseError("third line must start with 'relations:'")
    names = lines[1][len("elements:"):].split()
    if not names:
        raise ParseError("no elements listed")
    if len(set(names)) != len(names):
        raise ParseError("duplicate element labels")
    index = {name: i for i, name in enumerate(names)}
    pairs = []
    for token in lines[2][len("relations:"):].split():
        if token.count("<") != 1:
            raise ParseError("bad relation token %r" % token)
        a, b = token.split("<")
        if a not in index or b not in index:
            raise ParseError("unknown element in relation %r" % token)
        pairs.append((index[a], index[b]))
    return Poset.from_relations(names, pairs)


# -- chains, crowns, semiwalks ----------------------------------------------


def weak_crowns(poset):
    """Every weak crown of the poset, canonicalized, of every size k >= 2.

    A weak crown is recorded as its alternating-cycle labeling; the same
    2k-element subset can carry several inequivalent labelings and each is
    returned once.

    The search generates each cycle once: from its least low x1, in the
    orientation whose first high is below its last (y1 < yk by index).
    Up-sets and used elements are integer bitsets.  After each chosen low
    it computes, once, the highs that can still close the cycle: the free
    highs above x1 past y1, and every free high sharing a free low (past
    x1) with one of those, to a fixpoint.  Only those are tried next.
    """
    above, below = poset.above, poset.below
    up = [sum(1 << j for j in row) for row in above]
    lows = [[x for x in range(a + 1, poset.n) if up[x]] for a in range(poset.n)]
    found = []

    def closable(anchor, first, used):
        free = ~used
        reach = up[anchor] & free & -(2 << first)
        while reach:
            grown = reach
            for x in lows[anchor]:
                if up[x] & grown and free >> x & 1:
                    grown |= up[x] & free
            if grown == reach:
                break
            reach = grown
        return reach

    def extend(mins, maxs, used):
        anchor, first, last = mins[0], maxs[0], maxs[-1]
        if len(maxs) >= 2 and last > first and up[anchor] >> last & 1:
            found.append((mins, maxs))
        for x in below[last]:
            if x > anchor and not used >> x & 1:
                reach = closable(anchor, first, used | 1 << x)
                for y in above[x]:
                    if reach >> y & 1:
                        extend(mins + (x,), maxs + (y,), used | 1 << x | 1 << y)

    for x1 in range(poset.n):
        for y1 in above[x1]:
            extend((x1,), (y1,), 1 << x1 | 1 << y1)
    del extend  # a self-recursive closure is a cycle: free it now
    crowns = []
    for mins, maxs in found:
        # x1 leads either way; the reversal, (x1, xk, ..., x2) over
        # (yk, ..., y1), is least when xk < x2, and at k = 2, where the lows
        # tie, y1 < yk already makes the found orientation least
        if mins[1] > mins[-1]:
            mins, maxs = mins[:1] + mins[:0:-1], maxs[::-1]
        crowns.append(WeakCrown(mins, maxs))
    return tuple(sorted(crowns, key=lambda c: (c.size, c.mins, c.maxs)))


def check_semiwalk_bound(max_length):
    """Reject a semiwalk length bound that is not an int of at least 2."""
    if not isinstance(max_length, int):
        raise PreconditionError("semiwalk length bound must be an int")
    if max_length < 2:
        raise PreconditionError("semiwalk length bound must be at least 2")


def closed_semiwalks(poset, max_length):
    """All closed semiwalks of length 2..max_length, raw (no identification)."""
    check_semiwalk_bound(max_length)
    neighbors = tuple(
        tuple(sorted(poset.above[i] + poset.below[i])) for i in range(poset.n)
    )
    out = []

    def walk(path):
        u = path[-1]
        depth = len(path) - 1
        if depth >= 2 and u == path[0]:
            out.append(tuple(path))
        if depth == max_length:
            return
        for v in neighbors[u]:
            path.append(v)
            walk(path)
            path.pop()

    for start in range(poset.n):
        walk([start])
    del walk  # a self-recursive closure is a cycle: free it now
    return tuple(out)


# -- poset symmetries --------------------------------------------------------


def _signatures(poset):
    # (|below|, |above|) is invariant under isomorphism
    return tuple(zip(map(len, poset.below), map(len, poset.above)))


def _connected_order(poset, counts):
    """The elements in search order, for counts[i] candidates of element i:
    the fewest first, then always the fewest among those comparable to a
    placed one, ties to the lower index (McKay's refinement by adjacency)."""
    rank = list(zip(counts, range(poset.n)))
    order, reached = [], {min(rank)}
    while reached:  # the poset is connected, so this places every element
        order.append(min(reached)[1])
        reached.update(rank[j] for j in poset.below[order[-1]] + poset.above[order[-1]])
        reached.difference_update(rank[j] for j in order)
    return tuple(order)


def isomorphisms(source, target, fixed=()):
    """Each bijection f with x <= y iff f(x) <= f(y) and f(i) = j for each (i, j)
    in fixed, as a permutation tuple, as the search finds it.  An element's
    candidates are those of its signature, each (i, j) narrowing i's to j, or
    to none where j is not among them; elements go in _connected_order."""
    if source.n != target.n or len(source.strict_pairs) != len(target.strict_pairs):
        return
    cells = {}  # signature -> the target elements that have it
    for j, sig in enumerate(target.memo("signatures", _signatures)):
        cells.setdefault(sig, []).append(j)
    candidates = [cells.get(sig, ()) for sig in source.memo("signatures", _signatures)]
    for i, j in fixed:
        candidates[i] = (j,) if j in candidates[i] else ()
    if not all(candidates):
        return
    counts = tuple(map(len, candidates))
    order = source.memo(("order", counts), _connected_order, counts)
    leq_s = source.leq_matrix
    leq_t = target.leq_matrix
    image = [-1] * source.n
    tries = [iter(candidates[order[0]])]  # per placed level, its untried candidates
    while tries:
        k = len(tries) - 1
        i = order[k]
        image[i] = -1
        for j in tries[k]:
            if j in image:
                continue
            for i2 in order[:k]:
                j2 = image[i2]
                if leq_s[i][i2] != leq_t[j][j2] or leq_s[i2][i] != leq_t[j2][j]:
                    break
            else:
                break  # j fits every placed element: place it
        else:
            tries.pop()
            continue
        image[i] = j
        if k + 1 < source.n:
            tries.append(iter(candidates[order[k + 1]]))
        else:
            yield tuple(image)


def order_isomorphisms(source, target):
    """All bijections f with x <= y iff f(x) <= f(y), as permutation tuples."""
    return sorted(isomorphisms(source, target))


def poset_maps(poset):
    """All automorphisms and anti-automorphisms, sorted (Iso first)."""
    isos = [PosetMap(p, MapKind.ISO) for p in order_isomorphisms(poset, poset)]
    if poset.n == 1:
        return tuple(isos)
    dual = poset.memo("dual", Poset.dual)
    antis = [PosetMap(p, MapKind.ANTI) for p in order_isomorphisms(poset, dual)]
    return tuple(isos + antis)
