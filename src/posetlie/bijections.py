"""Edge bijections of the strict-pair basis: monotonicity, admissibility,
properness, and the exhaustive enumerators for the three bijection groups.
M, AM and P come from one stabilizer tower builder, sized without listing:
M and AM are the monotone bijections that keep an integer form on the
strict pairs, the chain form C and the exact cut form Q of the comparability
graph, and P's tower is built on Q from the edge maps of poset symmetries.

An EdgeBijection permutes the canonical index set of B = {(x, y) : x < y}.
The three groups satisfy proper <= admissible-monotone <= monotone.  Each
enumerator returns a Tower, which lists its group in canonical (sorted)
order so runs are reproducible.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from collections.abc import Sequence
from typing import NamedTuple

from .errors import PreconditionError, WellDefinednessError
from .fields import RATIONALS
from .poset import MapKind, Poset, PosetMap, check_semiwalk_bound, isomorphisms, weak_crowns


class Direction(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    BOTH = "both"  # two-element chains, where both conditions coincide
    NONE = "none"


class CountStats(NamedTuple):
    """The four signed step counts of a bijection along a closed semiwalk."""

    s_plus: int
    s_minus: int
    t_plus: int
    t_minus: int

    def balanced(self):
        return self.s_plus - self.s_minus == self.t_plus - self.t_minus


class EdgeBijection(NamedTuple):
    """A permutation of the canonical strict-pair basis."""

    perm: tuple[int, ...]

    @classmethod
    def identity(cls, size):
        return cls(tuple(range(size)))

    def compose(self, other):
        """self after other."""
        if len(self.perm) != len(other.perm):
            raise PreconditionError(
                "cannot compose bijections of degrees %d and %d"
                % (len(self.perm), len(other.perm))
            )
        return EdgeBijection(tuple(self.perm[k] for k in other.perm))

    def inverse(self):
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return EdgeBijection(tuple(inv))

    def apply_pair(self, poset, pair):
        return poset.strict_pairs[self.perm[poset.pair_index[pair]]]

    def to_json(self, poset):
        return [
            [list(pair), list(poset.strict_pairs[self.perm[k]])]
            for k, pair in enumerate(poset.strict_pairs)
        ]

    @classmethod
    def from_json(cls, poset, data):
        """The inverse of to_json: every strict pair must appear exactly once
        as a source and exactly once as an image."""
        index = poset.pair_index
        every = set(range(len(index)))
        try:
            pairs = [(index.get(tuple(src)), index.get(tuple(dst))) for src, dst in data]
            images = dict(pairs)
            if len(pairs) != len(index) or images.keys() != every or set(images.values()) != every:
                raise ValueError
        except (TypeError, ValueError):  # not a bijection, or an entry not a pair of pairs
            raise PreconditionError("data is not a bijection of the strict pairs") from None
        return cls(tuple(images[b] for b in range(len(index))))


# -- monotonicity -------------------------------------------------------------


def _build_chain_images(poset):
    """Per maximal chain c: its pair indices, and a dict from every monotone
    image of them (a pair-index tuple) to (direction, image chain).

    Increasing onto a target t of c's size sends (c_i, c_j) to (t_i, t_j),
    decreasing sends it to (t_{m-1-j}, t_{m-1-i}); on chains of one or two
    elements the two coincide as BOTH.  Chains of one size share one dict.
    """
    index = poset.pair_index
    sources = {}
    images = {}  # chain size -> {image pair indices: (direction, target)}
    for t in poset.maximal_chains:
        m = len(t)
        spots = list(itertools.combinations(range(m), 2))
        up = tuple(index[(t[i], t[j])] for i, j in spots)
        down = tuple(index[(t[m - 1 - j], t[m - 1 - i])] for i, j in spots)
        sources[t] = up
        table = images.setdefault(m, {})
        if up == down:
            table[up] = (Direction.BOTH, t)
        else:
            table[up] = (Direction.INCREASING, t)
            table[down] = (Direction.DECREASING, t)
    return {c: (up, images[len(c)]) for c, up in sources.items()}


def _chain_images(poset):
    return poset.memo("chain_images", _build_chain_images)


def _check_permutation(poset, theta):
    if sorted(theta.perm) != list(range(len(poset.strict_pairs))):
        raise PreconditionError("bijection is not a permutation of the strict pairs")


def _chain_table(poset, theta):
    """_chain_images(poset), once theta is checked to permute the strict pairs."""
    _check_permutation(poset, theta)
    return _chain_images(poset)


def image_chain(poset, theta, chain):
    """Direction of theta on a maximal chain, any sequence of element
    indices, and the chain it maps onto, or (NONE, None) when theta is
    monotone in neither direction there."""
    if not isinstance(chain, Sequence) or not all(isinstance(x, int) for x in chain):
        raise PreconditionError("chain %r is not a sequence of element indices" % (chain,))
    try:
        sources, images = _chain_table(poset, theta)[tuple(chain)]
    except KeyError:
        raise PreconditionError("chain %r is not maximal" % (chain,)) from None
    return images.get(tuple(theta.perm[b] for b in sources), (Direction.NONE, None))


def chain_action(poset, theta):
    """Theta's (direction, image chain) on every maximal chain, keyed by
    chain; raises PreconditionError when theta is not in M."""
    perm = theta.perm
    action = {}
    for chain, (sources, images) in _chain_table(poset, theta).items():
        hit = images.get(tuple(perm[b] for b in sources))
        if hit is None:
            raise PreconditionError("bijection is not monotone on maximal chains")
        action[chain] = hit
    return action


def in_M(poset, theta):
    """Whether theta is increasing or decreasing on every maximal chain."""
    try:
        return bool(chain_action(poset, theta))  # one entry per maximal chain
    except PreconditionError:
        return False


# -- the counting identity ----------------------------------------------------


def _build_step_table(poset):
    """The signed step table: each step (u, v) between comparable elements
    maps to (pair index, +1 for an up-step or -1 for a down-step)."""
    steps = {}
    for b, (x, y) in enumerate(poset.strict_pairs):
        steps[x, y] = (b, 1)
        steps[y, x] = (b, -1)
    return steps


def _step_table(poset):
    return poset.memo("step_table", _build_step_table)


def count_stats_row(poset, theta, walk):
    """The four step counts at every element, in one pass over the walk: a
    step counts toward s at z when its pair is theta(z, w) for some w > z,
    toward t at z when it is theta(w, z) for some w < z, with + for an
    up-step and - for a down-step.  The pair theta^-1(c) = (p, q) of a
    step on c names its one such z each way: p for s and q for t."""
    _check_permutation(poset, theta)
    if len(walk) < 2 or walk[0] != walk[-1]:
        raise PreconditionError("walk must be closed")
    steps, pairs, inverse = _step_table(poset), poset.strict_pairs, theta.inverse().perm
    counts = [[0, 0, 0, 0] for _ in range(poset.n)]
    for step in zip(walk, walk[1:]):
        hit = steps.get(step)
        if hit is None:
            raise PreconditionError("walk steps must join comparable elements")
        b, sign = hit
        p, q = pairs[inverse[b]]
        down = sign < 0
        counts[p][down] += 1
        counts[q][2 + down] += 1
    return tuple(map(CountStats._make, counts))


def count_stats(poset, theta, walk, z):
    """The four step counts at z: count_stats_row's entry for z."""
    if not isinstance(z, int) or z not in range(poset.n):
        raise PreconditionError("z must be an element index in range(n)")
    return count_stats_row(poset, theta, walk)[z]


def _build_crown_steps(poset):
    """The net step vector of each weak crown x1 < y1 > x2 < ... > x1, in
    step order: +1 on (x_i, y_i), -1 on (x_{i+1}, y_i).  The crowns are
    distinct simple cycles, so their vectors are distinct up to sign."""
    index = poset.pair_index
    return tuple(
        tuple(
            step
            for x, y, z in zip(c.mins, c.maxs, c.mins[1:] + c.mins[:1])
            for step in ((index[x, y], 1), (index[z, y], -1))
        )
        for c in weak_crowns(poset)
    )


def _crown_steps(poset):
    return poset.memo("weak_crowns", _build_crown_steps)


def _sweep_semiwalks(poset, max_length):
    """The net step vectors of the closed semiwalks of length 2..max_length,
    nonzero and once each up to sign, as _balanced_on_steps needs them, found
    without listing a walk.  Rotations share a vector, so each walk starts at
    its least element s and keeps to elements >= s.  States (end element, net
    vector) advance a step per round; walks reaching one state share its
    extensions, so it is extended once, at its first round, and dropped where
    its element is farther from s than the steps left.  A vector is one int,
    a digit of `width` bits per pair, each offset by half: `zero` is the zero
    vector and 2 * zero - net its negation."""
    size, width = len(poset.strict_pairs), max_length.bit_length() + 1
    half, mask = 1 << width - 1, (1 << width) - 1
    zero = sum(half << width * b for b in range(size))
    moves = [[] for _ in range(poset.n)]
    for (u, v), (b, sign) in _step_table(poset).items():
        moves[u].append((v, sign << width * b))
    found = set()
    for s in range(poset.n):
        dist, todo = {s: 0}, [s]  # from s, through elements >= s
        for u in todo:
            for v, _ in moves[u]:
                if v > s and v not in dist:
                    dist[v] = dist[u] + 1
                    todo.append(v)
        frontier = seen = {(s, zero)}
        for left in reversed(range(max_length)):
            frontier = {
                (v, net + step)
                for u, net in frontier
                for v, step in moves[u]
                if dist.get(v, max_length) <= left
            } - seen
            seen |= frontier
            found.update(min(net, 2 * zero - net) for v, net in frontier if v == s and net != zero)
    return tuple(
        tuple((b, c) for b in range(size) if (c := (net >> width * b & mask) - half))
        for net in sorted(found)
    )


def _semiwalk_steps(poset, max_length):
    check_semiwalk_bound(max_length)
    return poset.memo(("semiwalk_steps", max_length), _sweep_semiwalks, max_length)


def _balanced_on_steps(poset, inverse_perm, steps_lists):
    """Check s+ - s- = t+ - t- at every element, for each net step vector.

    A pair b taken with net count c, whose preimage under theta is (p, q),
    contributes c to (s+ - s-) at p and c to (t+ - t-) at q, so the
    identity holds iff the counted difference (delta_p - delta_q) sums to
    zero over the vector.
    """
    pairs = poset.strict_pairs
    for steps in steps_lists:
        acc = [0] * poset.n
        for b, count in steps:
            p, q = pairs[inverse_perm[b]]
            acc[p] += count
            acc[q] -= count
        if any(acc):
            return False
    return True


def is_admissible(poset, theta):
    """Whether the counting identity holds on every closed semiwalk.

    The identity is linear in a walk's signed step counts, and on a closed
    semiwalk it says that theta^-1 maps the walk's net step vector to a
    vector with no boundary, a cycle.  So it holds on every closed semiwalk
    iff theta keeps the cycle space of the comparability graph, and, theta
    being orthogonal, iff it keeps the cut form Q, the projection onto the
    cut space, the cycle space's complement: Q[theta(a), theta(b)] = Q[a, b]
    for all strict pairs a, b.
    """
    chain_action(poset, theta)
    form, perm = _cut_form(poset), theta.perm
    return all(tuple(map(form[t].__getitem__, perm)) == row for t, row in zip(perm, form))


def satisfies_crown_criterion(poset, theta):
    """The paper's criterion: the counting identity on every weak crown.

    A cross-check of is_admissible; it lists every weak crown, so it is only
    used by the tests and the verification harness.  Canonical crown
    representatives suffice: the identity is invariant under cyclic shifts
    and orientation reversal of the cycle.
    """
    chain_action(poset, theta)
    return _balanced_on_steps(poset, theta.inverse().perm, _crown_steps(poset))


def is_admissible_oracle(poset, theta, max_length):
    """Independent cross-check over every closed semiwalk up to max_length.

    Checks the identity at every element on every such walk, not just on
    the basis or the crowns.
    """
    chain_action(poset, theta)
    return _balanced_on_steps(
        poset, theta.inverse().perm, _semiwalk_steps(poset, max_length)
    )


# -- properness ----------------------------------------------------------------


def edge_map_of(poset, poset_map):
    """Restrict the induced basis permutation of a poset map to strict pairs."""
    kind, f = poset_map.kind, poset_map.perm
    index = poset.pair_index
    return EdgeBijection(
        tuple(index[kind.pair(f, x, y)] for x, y in poset.strict_pairs)
    )


def _inducing_maps(poset, fixed):
    """The poset maps whose edge maps send b to fixed[b] for b in fixed, ISO
    first: the isomorphism search extends the element images MapKind.pair
    reads off the fixed pairs onto the poset, or onto its dual for ANTI.  At
    n = 1 ISO always extends, so the first map is never ANTI, as in poset_maps."""
    pairs = poset.strict_pairs
    for kind in MapKind:
        images = [
            xj for b, t in fixed.items() for xj in zip(kind.pair(pairs[b], 0, 1), pairs[t])
        ]
        target = poset if kind is MapKind.ISO else poset.memo("dual", Poset.dual)
        yield from (PosetMap(f, kind) for f in isomorphisms(poset, target, images))


def proper_witness(poset, theta):
    """The first poset map, in poset_maps order, inducing theta, or None: at
    n >= 2 every element lies on a strict pair, so theta fixes all of a map."""
    if sorted(theta.perm) != list(range(len(poset.strict_pairs))):
        return None  # not a permutation of this poset's pairs
    return next(_inducing_maps(poset, dict(enumerate(theta.perm))), None)


def is_separating(poset, theta):
    """Whether some non-disjoint pair of maximal chains has disjoint images."""
    action = chain_action(poset, theta)
    chains = poset.maximal_chains
    images = [set(action[c][1]) for c in chains]
    sets = [set(c) for c in chains]
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            if sets[i] & sets[j] and not images[i] & images[j]:
                return True
    return False


# -- the invariant forms and the stabilizer tower of M and AM ---------------------


def _levels(poset):
    """Per maximal chain, in search order with two-element chains last: its
    pairs, the positions of those that earlier chains place and of the rest,
    and the images of its size.  These are every monotone image of a chain
    of that size, in the chain-image table's order, and an index from
    (position, pair) to the images putting that pair there, in the same
    order: linear in the table."""
    table = _chain_images(poset)
    levels, placed, sizes = [], set(), {}
    for c in sorted(poset.maximal_chains, key=lambda c: len(c) == 2):
        sources, options = table[c]
        if len(c) not in sizes:
            index = {}
            for dsts in options:
                for key in enumerate(dsts):
                    index.setdefault(key, []).append(dsts)
            sizes[len(c)] = options, index
        old = [k for k, b in enumerate(sources) if b in placed]
        new = [k for k, b in enumerate(sources) if b not in placed]
        placed.update(sources)
        levels.append((sources, old, new, sizes[len(c)]))
    return levels


def _build_cut_form(poset):
    """det(L0)·Q as integer rows on the strict pairs.

    Q, the projection onto the cut space of the comparability graph, has
    Q[e, f] = (d_p - d_q)^T L0^-1 (d_r - d_s) for e = (p, q), f = (r, s), with
    L0 the Laplacian grounded at element 0 and d_0 = 0.  Fraction-free
    Gauss-Jordan elimination (Bareiss) inverts L0 in place: after pivoting
    column k, the other rows store minus their old entry there and the pivot
    row the previous determinant, so column k then holds column k of
    Y = adj(L0) = det(L0)·L0^-1.  With row and column 0 of Y zero,
    det(L0)·Q[e, f] = Y[p, r] - Y[p, s] - Y[q, r] + Y[q, s]: x[u] lists
    Y[u, r] - Y[u, s] over the pairs, and row e is x[p] - x[q].
    is_admissible asks whether theta keeps Q: AM = M ∩ Aut(Q).
    """
    n, pairs = poset.n, poset.strict_pairs
    rows = []  # L0 with a zero column 0, so that Y is indexed by element
    for u in range(1, n):
        near = set(poset.above[u] + poset.below[u])
        rows.append([0] + [len(near) if v == u else -(v in near) for v in range(1, n)])
    det = 1  # L0 is positive definite, so no pivot is zero
    for k, pivot in enumerate(rows, 1):
        lead = pivot[k]
        for row in rows:
            if row is not pivot:
                old = row[k]
                row[:] = [(lead * a - old * c) // det for a, c in zip(row, pivot)]
                row[k] = -old
        det, pivot[k] = lead, det
    x = [[a[r] - a[s] for r, s in pairs] for a in [[0] * n] + rows]
    return tuple(tuple(a - b for a, b in zip(x[p], x[q])) for p, q in pairs)


def _cut_form(poset):
    return poset.memo("cut_form", _build_cut_form)


def _build_chain_form(poset):
    """C as integer rows on the strict pairs: C[b, c] is the number of
    maximal chains through both b and c.  Theta in M maps each maximal
    chain's pairs onto another's, so it permutes the maximal chains and
    keeps C: M = M ∩ Aut(C)."""
    rows = [[0] * len(poset.strict_pairs) for _ in poset.strict_pairs]
    for sources, _ in _chain_images(poset).values():
        for b in sources:
            for c in sources:
                rows[b][c] += 1
    return tuple(map(tuple, rows))


def _chain_form(poset):
    return poset.memo("chain_form", _build_chain_form)


def _fixed_leaf(poset, form, fixed):
    """One theta in M ∩ Aut(form) with theta(b) = fixed[b] for b in fixed,
    as a perm tuple, or None.  Each maximal chain picks one of its monotone
    images, the fixed pairs placed first, and each new image must keep the
    form with every pair placed so far.  That also keeps images distinct:
    pairs e and f with one image would have equal rows in the form.  In Q,
    e - f would then be a cycle of two edges, which a simple graph has
    none of; in C, e and f would share a chain, whose image maps them
    apart.  A chain with a pair placed or fixed takes as candidates the
    images that agree with it, from the index; the search keeps one
    generator per chain entered on a stack, so it has no depth limit."""
    levels = poset.memo("levels", _levels)
    image, placed = [-1] * len(form), []
    for b, t in fixed.items():
        image[b] = t
        placed.append(b)
        if any(form[t][image[c]] != form[b][c] for c in placed):
            return None

    def fitting(sources, old, new, images):
        """Place each candidate image of the chain that fits, in turn."""
        candidates, index = images
        known = old or [k for k in new if sources[k] in fixed]
        if known:
            candidates = index.get((known[0], image[sources[known[0]]]), ())
        depth, want = len(placed), [image[sources[k]] for k in old]
        for dsts in candidates:
            del placed[depth:]
            if [dsts[k] for k in old] != want:
                continue
            for k in new:
                src, dst = sources[k], dsts[k]
                if fixed.get(src, dst) != dst:
                    break
                if src not in fixed:
                    image[src] = dst
                    placed.append(src)
                    row, to = form[src], form[dst]
                    if any(to[image[b]] != row[b] for b in placed):
                        break
            else:
                yield True

    stack = []
    while len(stack) < len(levels):
        stack.append(fitting(*levels[len(stack)]))
        while not next(stack[-1], False):
            stack.pop()
            if not stack:
                return None
    return tuple(image)


def _close(orbit, gens):
    """Extend a transversal {point: perm taking the base point there} to
    the orbit of the group that gens generate."""
    todo = list(orbit)
    for s in todo:
        for g in gens:
            if g[s] not in orbit:
                orbit[g[s]] = tuple(map(g.__getitem__, orbit[s]))
                todo.append(g[s])
    return orbit


_MERGED = 32  # at most this many elements of the last levels are multiplied out


class Tower:
    """A group as a pointwise-stabilizer tower on the base 0, 1, ... (Sims):
    per level i, a transversal {t: u} with u(i) = t of G_i, the elements
    fixing every point before i; G_i is trivial past the last level.  Each
    element is one product u_0 u_1 ..., listed in ascending order."""

    def __init__(self, size, transversals):
        self._size, self._transversals = size, transversals

    @property
    def order(self):
        """The group's order, exact where len() stops at sys.maxsize."""
        return math.prod(map(len, self._transversals))

    def __len__(self):
        return self.order

    def __contains__(self, theta):
        """Sift theta down the levels: it is u_0 g' with u_0(0) = theta(0)
        and g' in G_1, and so on; it lies in the group iff each step finds
        its u and what is left at the end is the identity.  Where g fixes
        the base point, u is the identity and the step changes nothing.  A
        bijection of another degree is in no group of this one."""
        g = theta.perm
        if len(g) != self._size:
            return False
        for i, level in enumerate(self._transversals):
            if g[i] == i:
                continue
            u = level.get(g[i])
            if u is None:
                return False
            inverse = [0] * self._size
            for b, t in enumerate(u):
                inverse[t] = b
            g = tuple(map(inverse.__getitem__, g))
        return g == tuple(range(self._size))

    def transversal_elements(self):
        """The distinct elements of the transversals, which generate the
        group."""
        return map(EdgeBijection, {u for level in self._transversals for u in level.values()})

    def __iter__(self):
        identity = tuple(range(self._size))
        # a level holding only the identity composes to nothing; at |B| < 2
        # every level does, where itemgetter of one point gives no tuple
        levels = [level for level in self._transversals if [*level.values()] != [identity]]
        if not levels:
            return iter((EdgeBijection(identity),))
        # the last levels are multiplied out while their group G_j has at
        # most _MERGED elements; the walk sorts the g h, h in G_j, at once
        j = len(levels) - 1
        while j and len(levels[j - 1]) * math.prod(map(len, levels[j:])) <= _MERGED:
            j -= 1
        below = [identity]
        for level in reversed(levels[j:]):
            below = [tuple(map(u.__getitem__, h)) for u in level.values() for h in below]
        head = [
            ([*level], [operator.itemgetter(*u) for u in level.values()])
            for level in levels[:j]
        ]
        tail = [operator.itemgetter(*h) for h in below]
        return map(EdgeBijection, _tower_walk(head, tail, 0, identity))


def _tower_walk(head, tail, i, g):
    """The perms g u_i u_{i+1} ... h, ascending, for u_k in head level k,
    given as its points t and composers c_t(g) = g u_t, and c_h(g) = g h in
    tail.  The elements below u_t agree before level i's base point and map
    it to g(t), so each head level runs in the order of g(t); the tail is
    sorted whole."""
    if i == len(head):
        return sorted([compose(g) for compose in tail])
    points, composers = head[i]
    ranked = sorted(zip(map(g.__getitem__, points), composers))
    return itertools.chain.from_iterable(
        _tower_walk(head, tail, i + 1, compose(g)) for _, compose in ranked
    )


def _proper_leaf(poset, form, fixed):
    """The edge map of a poset map extending fixed, as a perm tuple, or None;
    P <= Aut(Q), so the form needs no check."""
    return next((edge_map_of(poset, f).perm for f in _inducing_maps(poset, fixed)), None)


def _refinement(poset, form):
    """Per base point i, the targets t >= i matching i in the form's diagonal,
    sorted row and entries on earlier pairs, until every pair left has its
    own such invariant, so an element of Aut(form) fixing the base fixes all."""
    size = len(form)
    ids = {}  # one id per invariant, shared by every refinement below
    cell = [ids.setdefault((row[b], tuple(sorted(row))), len(ids)) for b, row in enumerate(form)]
    candidates = []
    while len(set(cell[len(candidates):])) < size - len(candidates):
        i = len(candidates)
        candidates.append([t for t in range(i, size) if cell[t] == cell[i]])
        cell = [ids.setdefault((c, row[i]), len(ids)) for c, row in zip(cell, form)]
    return candidates


def _tower(poset, form, leaf):
    """The group in Aut(form) that leaf(poset, form, fixed) searches for an
    element extending fixed, as a Tower.  Levels are built from the last up,
    so every leaf found so far lies in G_i and closes the orbit of i
    (McKay's individualization); a candidate of the form's refinement
    outside the closure costs one leaf search."""
    candidates = poset.memo(("refinement", form), _refinement, form)
    identity, gens, transversals = tuple(range(len(form))), [], []
    for i in reversed(range(len(candidates))):
        orbit = _close({i: identity}, gens)
        for t in candidates[i]:
            if t not in orbit:
                found = leaf(poset, form, dict(enumerate(identity[:i] + (t,))))
                if found is not None:
                    gens.append(found)
                    _close(orbit, gens)
        transversals.insert(0, orbit)
    return Tower(len(form), transversals)


def enumerate_M(poset):
    """All monotone bijections, M = M ∩ Aut(C), as a Tower in canonical
    order."""
    return _tower(poset, _chain_form(poset), _fixed_leaf)


def enumerate_AM(poset):
    """All admissible monotone bijections, AM = M ∩ Aut(Q), as a Tower in
    canonical order."""
    return _tower(poset, _cut_form(poset), _fixed_leaf)


def enumerate_P(poset):
    """All proper bijections as a Tower in canonical order, built on Q as AM
    is: P <= AM, so Q's refinement holds P's orbits."""
    return _tower(poset, _cut_form(poset), _proper_leaf)


# -- compatible sign maps --------------------------------------------------------


def build_compatible_sigma(poset, theta, field=RATIONALS):
    """A sign map compatible with a monotone bijection, as a dict from each
    strict pair to a field scalar.

    Pairs starting at a minimal element get 1; any other pair lies only on
    increasing chains (1) or only on decreasing chains (-1).
    """
    table = _chain_images(poset)
    directions = [set() for _ in poset.strict_pairs]
    for chain, (direction, _) in chain_action(poset, theta).items():
        for b in table[chain][0]:
            directions[b].add(direction)
    min_set = set(poset.min_set)
    one = field.one
    values = {}
    for (x, y), seen in zip(poset.strict_pairs, directions):
        if x in min_set:
            values[(x, y)] = one
            continue
        # Unreachable for theta in M.  BOTH marks only two-element chains,
        # whose one pair starts at a minimal element.  An increasing and a
        # decreasing chain of theta share a pair only when it spans both
        # chains (the lemma `verify properties` checks as
        # incdec_shared_pair_is_span), so x is minimal again.  Every pair
        # lies on some maximal chain, so seen is never empty either.
        if len(seen) != 1:
            raise WellDefinednessError(
                "pair (%s, %s) lies on chains of mixed direction"
                % (poset.names[x], poset.names[y])
            )
        values[(x, y)] = one if seen.pop() == Direction.INCREASING else -one
    return values


def is_compatible(poset, sigma, theta):
    """Whether sigma matches theta's product behaviour on all triples x<y<z."""
    for x in range(poset.n):
        for y in poset.above[x]:
            for z in poset.above[y]:
                left = theta.apply_pair(poset, (x, y))
                right = theta.apply_pair(poset, (y, z))
                whole = theta.apply_pair(poset, (x, z))
                if left[1] == right[0] and (left[0], right[1]) == whole:
                    if sigma[(x, z)] != sigma[(x, y)] * sigma[(y, z)]:
                        return False
                elif right[1] == left[0] and (right[0], left[1]) == whole:
                    if sigma[(x, z)] != -(sigma[(x, y)] * sigma[(y, z)]):
                        return False
    return True
