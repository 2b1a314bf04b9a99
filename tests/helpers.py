"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results from first principles (exhaustive
enumeration, literal definitions) without touching the library's own search
or elimination code paths.
"""

from functools import lru_cache
from itertools import combinations, permutations


@lru_cache(maxsize=None)
def brute_maximal_chains(poset):
    """All maximal chains via subset enumeration."""
    elements = range(poset.n)
    chains = []
    for r in range(1, poset.n + 1):
        for subset in combinations(elements, r):
            ordered = sorted(subset, key=lambda i: sum(poset.lt(j, i) for j in subset))
            if all(
                poset.lt(ordered[i], ordered[i + 1]) for i in range(len(ordered) - 1)
            ):
                chains.append(tuple(ordered))
    maximal = []
    for c in chains:
        extendable = any(
            set(c) < set(d) for d in chains if len(d) == len(c) + 1
        )
        if not extendable:
            maximal.append(c)
    return sorted(maximal)


def brute_poset_maps(poset):
    """All (kind, permutation) pairs by scanning every element bijection."""
    out = []
    for perm in permutations(range(poset.n)):
        iso = all(
            poset.leq(x, y) == poset.leq(perm[x], perm[y])
            for x in range(poset.n)
            for y in range(poset.n)
        )
        if iso:
            out.append(("iso", perm))
        if poset.n > 1:
            anti = all(
                poset.leq(x, y) == poset.leq(perm[y], perm[x])
                for x in range(poset.n)
                for y in range(poset.n)
            )
            if anti:
                out.append(("anti", perm))
    return sorted(out)


def brute_isomorphisms(source, target):
    """Every element bijection f with x <= y iff f(x) <= f(y), in ascending
    order, by filtering all n! permutations."""
    if source.n != target.n:
        return []
    everything = range(source.n)
    return [
        f
        for f in permutations(everything)
        if all(
            source.leq(x, y) == target.leq(f[x], f[y])
            for x in everything
            for y in everything
        )
    ]


def literal_edge_map(poset, poset_map):
    """The strict-pair permutation a poset map induces, from the definition:
    an isomorphism f sends e_xy to e_f(x)f(y), an anti-isomorphism to
    e_f(y)f(x)."""
    from posetlie import MapKind

    f = poset_map.perm
    perm = []
    for x, y in poset.strict_pairs:
        if poset_map.kind == MapKind.ISO:
            perm.append(poset.pair_index[(f[x], f[y])])
        else:
            perm.append(poset.pair_index[(f[y], f[x])])
    return tuple(perm)


def brute_weak_crowns(poset):
    """Canonical alternating cycles by scanning every interleaved tuple."""
    found = set()
    n = poset.n
    for k in range(2, n // 2 + 1):
        for chosen in permutations(range(n), 2 * k):
            mins = chosen[0::2]
            maxs = chosen[1::2]
            ok = all(poset.lt(mins[i], maxs[i]) for i in range(k)) and all(
                poset.lt(mins[(i + 1) % k], maxs[i]) for i in range(k)
            )
            if ok:
                found.add(canonical_crown(mins, maxs))
    return sorted(found)


def canonical_crown(mins, maxs):
    """The lexicographically least (mins, maxs) over every rotation and
    both orientations of an alternating cycle."""
    k = len(mins)
    rev_mins = (mins[0],) + tuple(reversed(mins[1:]))
    rev_maxs = tuple(reversed(maxs))
    best = None
    for xs, ys in ((tuple(mins), tuple(maxs)), (rev_mins, rev_maxs)):
        for r in range(k):
            cand = (xs[r:] + xs[:r], ys[r:] + ys[:r])
            if best is None or cand < best:
                best = cand
    return best


def literal_convolution(f, g):
    """(fg)(x, y) = sum over all z with x <= z <= y, from the raw definition."""
    from posetlie.algebra import IncidenceElement

    poset = f.poset
    coeffs = {}
    for x, y in poset.all_pairs:
        total = f.field.zero
        for z in range(poset.n):
            if poset.leq(x, z) and poset.leq(z, y):
                total = total + f(x, z) * g(z, y)
        if total:
            coeffs[(x, y)] = total
    return IncidenceElement(poset, coeffs, f.field)


def convolution_products(poset, field):
    """(i, j, coefficients of e_i e_j) for every pair of basis indices, each
    product formed by convolving the two basis elements."""
    from posetlie.algebra import IncidenceElement

    elements = [IncidenceElement.basis(poset, x, y, field) for x, y in poset.all_pairs]
    return tuple(
        (i, j, (a * b).coeffs) for i, a in enumerate(elements) for j, b in enumerate(elements)
    )


def convolution_brackets(poset, field):
    """(i, j, coefficients of [e_i, e_j]) for every i < j, each bracket
    formed as e_i e_j - e_j e_i by convolution."""
    from posetlie.algebra import IncidenceElement, bracket

    elements = [IncidenceElement.basis(poset, x, y, field) for x, y in poset.all_pairs]
    return tuple(
        (i, j, bracket(a, elements[j]).coeffs)
        for i, a in enumerate(elements)
        for j in range(i + 1, len(elements))
    )


def convolution_center(poset, field):
    """A basis of the center, as coefficient dicts: the null space of the
    rows [z, e_j] = 0, with every bracket of basis elements formed by
    convolution as a dense vector, and solved by dense_nullspace."""
    from posetlie.algebra import IncidenceElement, bracket

    elements = [IncidenceElement.basis(poset, x, y, field) for x, y in poset.all_pairs]
    dim = len(elements)
    rows = []
    for gen in elements:
        images = [bracket(b, gen).to_vector() for b in elements]
        for coord in range(dim):
            row = [images[i][coord] for i in range(dim)]
            if any(row):
                rows.append(row)
    return tuple(
        {pair: v for pair, v in zip(poset.all_pairs, vector) if v}
        for vector in dense_nullspace(rows, dim, field.one)
    )


@lru_cache(maxsize=None)
def _brute_chain_images(poset):
    """Per maximal chain: the chain, its pairs, and every image of them that
    is literally monotone, increasing or decreasing onto a chain of its size,
    mapped to (direction, target); BOTH where the two images coincide."""
    from posetlie import Direction

    chains = brute_maximal_chains(poset)
    out = []
    for chain in chains:
        m = len(chain)
        spots = [(i, j) for i in range(m) for j in range(i + 1, m)]
        images = {}
        for target in chains:
            if len(target) == m:
                up = tuple((target[i], target[j]) for i, j in spots)
                down = tuple((target[m - 1 - j], target[m - 1 - i]) for i, j in spots)
                images[up] = (Direction.INCREASING, target)
                images[down] = (Direction.DECREASING, target)
                if up == down:
                    images[up] = (Direction.BOTH, target)
        out.append((chain, [(chain[i], chain[j]) for i, j in spots], images))
    return out


def brute_image_chains(poset, theta):
    """Per maximal chain, the (direction, target) whose literal image theta's
    images of the chain's pairs equal, or (NONE, None)."""
    from posetlie import Direction

    def th(pair):
        return poset.strict_pairs[theta.perm[poset.pair_index[pair]]]

    return {
        chain: images.get(tuple(th(pair) for pair in pairs), (Direction.NONE, None))
        for chain, pairs, images in _brute_chain_images(poset)
    }


def brute_monotone(poset, theta):
    """Literal monotonicity: each chain's pairs map onto one candidate image."""

    def th(pair):
        return poset.strict_pairs[theta.perm[poset.pair_index[pair]]]

    return all(
        tuple(th(pair) for pair in pairs) in images
        for _, pairs, images in _brute_chain_images(poset)
    )


def brute_is_group(elements):
    """Literal group test: the identity, every inverse, and all |G|^2 products."""
    perms = {t.perm for t in elements}
    size = len(next(iter(perms)))
    if tuple(range(size)) not in perms:
        return False
    for a in elements:
        if a.inverse().perm not in perms:
            return False
        for b in elements:
            if a.compose(b).perm not in perms:
                return False
    return True


def _brute_span(generators, size):
    """The subgroup the generators span, breadth-first from the identity."""
    seen = {tuple(range(size))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for a in frontier:
            for g in generators:
                c = tuple(a[k] for k in g.perm)
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
        frontier = fresh
    return seen


def brute_generating_set(group):
    """Greedy generators in canonical order, recomputing the span of all the
    generators so far from scratch after each new one."""
    elements = sorted(set(group))
    generators = []
    span = {tuple(range(len(elements[0].perm)))}
    for g in elements:
        if g.perm not in span:
            generators.append(g)
            span = _brute_span(generators, len(g.perm))
            if len(span) == len(elements):
                break
    return generators


def random_element(poset, rng, density=0.5):
    """A random sparse incidence element over the rationals."""
    from fractions import Fraction

    from posetlie.algebra import IncidenceElement

    coeffs = {}
    for pair in poset.all_pairs:
        if rng.random() < density:
            coeffs[pair] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return IncidenceElement(poset, coeffs)


def mixed_length_posets():
    """Small posets of length >= 2 whose maximal chains differ in size."""
    from posetlie import parse_poset

    sources = {
        # a 3-chain next to a pendant maximum
        "branch": "poset v1\nelements: a b c d\nrelations: a<b b<c a<d\n",
        # an N: a 3-chain and a 2-chain meeting at the top
        "meet": "poset v1\nelements: a b c d\nrelations: a<b b<c d<c\n",
        # two 3-chains and a pendant, sharing the bottom
        "trident": "poset v1\nelements: a b c d e\nrelations: a<b b<c a<d d<c a<e\n",
        # a 2-crown whose first maximum grew a tail
        "crown_tail": (
            "poset v1\nelements: x1 x2 y1 y2 z\n"
            "relations: x1<y1 x1<y2 x2<y1 x2<y2 y1<z\n"
        ),
    }
    return {name: parse_poset(text) for name, text in sources.items()}


def random_connected_poset(rng, n, density=0.4):
    """A connected poset on n elements from random upward cover pairs."""
    from posetlie import DisconnectedError, Poset

    while True:
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        names = ["e%d" % i for i in range(n)]
        try:
            return Poset.from_relations(names, pairs)
        except DisconnectedError:
            continue


def random_bipartite_poset(rng, lows, highs, pairs):
    """A random connected length-one poset with exactly `pairs` strict pairs."""
    from posetlie import DisconnectedError, Poset

    if pairs < lows + highs - 1:
        raise ValueError(
            "%d pairs cannot connect %d elements" % (pairs, lows + highs)
        )
    names = ["x%d" % i for i in range(lows)] + ["y%d" % i for i in range(highs)]
    every = [(i, lows + j) for i in range(lows) for j in range(highs)]
    while True:
        try:
            return Poset.from_relations(names, rng.sample(every, pairs))
        except DisconnectedError:
            continue


def non_monotone_cases():
    """Name -> (poset, theta) with theta outside M: on chain:3 it swaps e_12
    and e_13; on example:6 it swaps e_16 and e_36, which breaks only the
    last maximal chain, 1<3<6."""
    from posetlie import EdgeBijection
    from posetlie.families import chain, example6

    out = {}
    for name, poset, a, b in (
        ("chain:3", chain(3), ("1", "2"), ("1", "3")),
        ("example:6", example6(), ("1", "6"), ("3", "6")),
    ):
        i = poset.pair_index[tuple(map(poset.index, a))]
        j = poset.pair_index[tuple(map(poset.index, b))]
        perm = list(range(len(poset.strict_pairs)))
        perm[i], perm[j] = j, i
        out[name] = (poset, EdgeBijection(tuple(perm)))
    return out


def brute_chain_components(poset):
    """The classes of maximal chains under the closure of the linked
    relation: start from singletons and merge any two groups holding a pair
    of chains that share an element outside Min and Max, until none do.
    Each class is a sorted tuple of chains; classes are sorted."""
    everything = range(poset.n)
    extremal = {
        x
        for x in everything
        if not any(poset.lt(y, x) for y in everything)
        or not any(poset.lt(x, y) for y in everything)
    }
    groups = [[c] for c in poset.maximal_chains]
    merged = True
    while merged:
        merged = False
        for i, j in combinations(range(len(groups)), 2):
            if any(
                (set(a) & set(b)) - extremal for a in groups[i] for b in groups[j]
            ):
                groups[i] += groups.pop(j)
                merged = True
                break
    return sorted(tuple(sorted(g)) for g in groups)


def literal_count_stats(poset, theta, walk, z):
    """The four step counts of count_stats, searching every witness w > z
    and w < z for a preimage of each step's pair."""
    from posetlie import CountStats, PreconditionError

    if len(walk) < 2 or walk[0] != walk[-1]:
        raise PreconditionError("walk must be closed")
    pairs = poset.strict_pairs
    index = poset.pair_index
    perm = theta.perm

    def th(a, b):
        return pairs[perm[index[(a, b)]]]

    s_plus = s_minus = t_plus = t_minus = 0
    for i in range(len(walk) - 1):
        u, v = walk[i], walk[i + 1]
        if poset.lt(u, v):
            edge = (u, v)
            if any(th(z, w) == edge for w in poset.above[z]):
                s_plus += 1
            if any(th(w, z) == edge for w in poset.below[z]):
                t_plus += 1
        elif poset.lt(v, u):
            edge = (v, u)
            if any(th(z, w) == edge for w in poset.above[z]):
                s_minus += 1
            if any(th(w, z) == edge for w in poset.below[z]):
                t_minus += 1
        else:
            raise PreconditionError("walk steps must join comparable elements")
    return CountStats(s_plus, s_minus, t_plus, t_minus)


def literal_net_steps(poset, walk):
    """The net signed count of each strict pair along a walk, in order of
    first step and zeros dropped, from poset.lt and the pair index."""
    net = {}
    for u, v in zip(walk, walk[1:]):
        if poset.lt(u, v):
            b, sign = poset.pair_index[(u, v)], 1
        else:
            b, sign = poset.pair_index[(v, u)], -1
        net[b] = net.get(b, 0) + sign
    return tuple((b, count) for b, count in net.items() if count)


def brute_semiwalk_admissible(poset, theta, max_length):
    """The counting identity at every element on every raw closed semiwalk
    up to max_length, each walk counted by count_stats."""
    from posetlie import closed_semiwalks, count_stats

    return all(
        count_stats(poset, theta, walk, z).balanced()
        for walk in closed_semiwalks(poset, max_length)
        for z in range(poset.n)
    )


def fundamental_cycles(poset):
    """One closed walk per strict pair (x, y) outside a BFS spanning tree of
    the comparability graph: the tree path from x to the common ancestor, on
    to y, and back to x.  They span the integer cycle space (Kirchhoff)."""
    parent = {0: None}
    order = [0]
    for u in order:
        for v in range(poset.n):
            if v not in parent and (poset.lt(u, v) or poset.lt(v, u)):
                parent[v] = u
                order.append(v)

    def to_root(x):
        path = [x]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    cycles = []
    for x, y in poset.strict_pairs:
        if parent[x] == y or parent[y] == x:
            continue
        up, down = to_root(x), to_root(y)
        while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
            up.pop()
            down.pop()
        cycles.append(tuple(up + down[-2::-1] + [x]))
    return cycles


def keeps_cycle_space(poset, theta, cycles=None):
    """Whether theta^-1 maps the net step vector of every fundamental cycle
    (or of every walk in cycles) to a cycle: a vector whose boundary,
    +count at the lower end and -count at the upper end of each pair, is
    zero.  Then theta keeps the cycle space, which is the counting identity
    on every closed semiwalk."""
    pairs = poset.strict_pairs
    inverse = {t: b for b, t in enumerate(theta.perm)}
    for walk in fundamental_cycles(poset) if cycles is None else cycles:
        boundary = [0] * poset.n
        for b, count in literal_net_steps(poset, walk):
            p, q = pairs[inverse[b]]
            boundary[p] += count
            boundary[q] -= count
        if any(boundary):
            return False
    return True


def filtered_AM(poset):
    """AM without Q: the listing of M, in canonical order, filtered by the
    literal cycle-space test."""
    from posetlie import enumerate_M

    cycles = fundamental_cycles(poset)
    return [
        t for t in enumerate_M(poset)
        if keeps_cycle_space(poset, t, cycles)
    ]


def listing_decision(poset):
    """decide's JSON from listings: AM by filtered_AM, P from the proper
    table, the counterexample as the least listed element outside P, and the
    chain classes by brute_chain_components."""
    from posetlie import enumerate_P

    admissible = filtered_AM(poset)
    proper = {t.perm for t in enumerate_P(poset)}
    outside = [t for t in admissible if t.perm not in proper]
    classes = len(brute_chain_components(poset))
    return {
        "all_proper": not outside,
        "am_order": len(admissible),
        "p_order": len(proper),
        "class_count": classes,
        "single_class_sufficient": classes == 1,
        "counterexample": outside[0].to_json(poset) if outside else None,
    }


def ordinal_sum(*sizes):
    """The ordinal sum of antichains of the given sizes, bottom first: every
    element of a level lies below every element of the next."""
    from posetlie import Poset

    names, pairs, start = [], [], 0
    for level, size in enumerate(sizes):
        names += ["a%d_%d" % (level, i) for i in range(size)]
        if level:
            below = range(start - sizes[level - 1], start)
            pairs += [(x, y) for x in below for y in range(start, start + size)]
        start += size
    return Poset.from_relations(names, pairs)


def _recursive_levels(poset):
    """Per maximal chain, in search order with two-element chains last: its
    pairs placed by earlier chains, its new pairs, and their images under
    each of the chain's monotone images."""
    from posetlie.bijections import _chain_images

    table = _chain_images(poset)
    levels = []
    placed = set()
    for c in sorted(poset.maximal_chains, key=lambda c: len(c) == 2):
        sources, options = table[c]
        old = [k for k, b in enumerate(sources) if b in placed]
        new = [k for k, b in enumerate(sources) if b not in placed]
        placed.update(sources)
        levels.append((
            tuple(sources[k] for k in old),
            [sources[k] for k in new],
            [(tuple(dsts[k] for k in old), [dsts[k] for k in new]) for dsts in options],
        ))
    return levels


def recursive_fixed_leaf(poset, form, fixed):
    """The chain-assignment leaf search as one recursion per maximal chain
    over every same-size image of each chain: one theta in M ∩ Aut(form)
    with theta(b) = fixed[b] for b in fixed, as a perm tuple, or None."""
    levels = poset.memo("recursive_levels", _recursive_levels)
    image, placed = [-1] * len(form), []
    for b, t in fixed.items():
        image[b] = t
        placed.append(b)
        if any(form[t][image[c]] != form[b][c] for c in placed):
            return None

    def place(k):
        if k == len(levels):
            return tuple(image)
        old, new, options = levels[k]
        for old_images, new_images in options:
            if tuple(map(image.__getitem__, old)) != old_images:
                continue
            depth = len(placed)
            for src, dst in zip(new, new_images):
                if fixed.get(src, dst) != dst:
                    break
                if src not in fixed:
                    image[src] = dst
                    placed.append(src)
                    row, to = form[src], form[dst]
                    if any(to[image[b]] != row[b] for b in placed):
                        break
            else:
                leaf = place(k + 1)
                if leaf is not None:
                    return leaf
            del placed[depth:]
        return None

    leaf = place(0)
    del place  # a self-recursive closure is a cycle: free it now
    return leaf


def literal_cut_form(poset):
    """det(L0)·D0^T·L0^-1·D0 as integer rows on the strict pairs, from the
    definition: L0 is the Laplacian of the comparability graph without
    element 0's row and column, D0 its incidence matrix (+1 at a pair's lower
    end, -1 at its upper end) without row 0.  L0 is inverted by Gauss-Jordan
    elimination over Fraction, and det(L0) is the product of its pivots."""
    from fractions import Fraction

    pairs, others = poset.strict_pairs, range(1, poset.n)
    m = len(others)

    def adjacent(u, v):
        return poset.lt(u, v) or poset.lt(v, u)

    rows = [
        [Fraction(sum(adjacent(u, w) for w in range(poset.n)) if u == v else -adjacent(u, v))
         for v in others]
        + [Fraction(u == v) for v in others]
        for u in others
    ]
    det = Fraction(1)
    for k in range(m):
        pivot = next(i for i in range(k, m) if rows[i][k])
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        rows[k] = [a / rows[k][k] for a in rows[k]]
        for i in range(m):
            if i != k and rows[i][k]:
                rows[i] = [a - rows[i][k] * b for a, b in zip(rows[i], rows[k])]
    inverse = [row[m:] for row in rows]
    incidence = [[(p == u) - (q == u) for p, q in pairs] for u in others]
    left = [
        [sum(incidence[u][e] * inverse[u][v] for u in range(m)) for v in range(m)]
        for e in range(len(pairs))
    ]
    form = []
    for row in left:
        scaled = [det * sum(row[v] * incidence[v][f] for v in range(m)) for f in range(len(pairs))]
        assert all(a.denominator == 1 for a in scaled)
        form.append(tuple(int(a) for a in scaled))
    return tuple(form)


def dense_row_reduce(rows):
    """Reduced row-echelon (basis, pivots) of the span of rows, by Gauss-Jordan
    elimination that updates every entry of a row, zero or not."""
    basis, pivots = [], []
    for row in rows:
        row = list(row)
        for b, p in zip(basis, pivots):
            factor = row[p]
            row = [rv - factor * bv for rv, bv in zip(row, b)]
        pivot = next((i for i, v in enumerate(row) if v), None)
        if pivot is None:
            continue
        inv = row[pivot]
        row = [v / inv for v in row]
        for k, b in enumerate(basis):
            factor = b[pivot]
            basis[k] = [bv - factor * rv for bv, rv in zip(b, row)]
        basis.append(row)
        pivots.append(pivot)
    order = sorted(range(len(basis)), key=lambda k: pivots[k])
    return [basis[k] for k in order], [pivots[k] for k in order]


def dense_nullspace(rows, ncols, one):
    """A basis of {x : A x = 0} for the dense matrix with the given rows, one
    vector per free column in column order: x is one at its free column,
    zero at the others, and minus that column's entry of the pivot's row
    of dense_row_reduce at each pivot."""
    basis, pivots = dense_row_reduce(rows)
    zero = one - one
    out = []
    for free in range(ncols):
        if free not in pivots:
            x = [one if c == free else zero for c in range(ncols)]
            for b, p in zip(basis, pivots):
                x[p] = -b[free]
            out.append(x)
    return out


def _literal_image(columns, element):
    """The sum of element(x, y) times the column of e_xy."""
    from posetlie.algebra import IncidenceElement

    poset = element.poset
    out = IncidenceElement(poset, {}, element.field)
    for pair, value in element.coeffs.items():
        out = out + columns[poset.all_pairs.index(pair)].scale(value)
    return out


def literal_recognizers(mapping):
    """(Lie, automorphism, negated anti-automorphism) for a linear map f on
    the incidence algebra, from the definitions: f is invertible, and for
    every ordered pair (a, b) of basis elements, convolved as
    IncidenceElements, f([a, b]) = [f(a), f(b)], f(ab) = f(a) f(b) and
    -f(ab) = f(b) f(a) respectively."""
    from posetlie.algebra import IncidenceElement

    poset, field = mapping.poset, mapping.field
    basis = [IncidenceElement.basis(poset, x, y, field) for x, y in poset.all_pairs]
    if len(dense_row_reduce([c.to_vector() for c in mapping.columns])[0]) < len(basis):
        return False, False, False
    lie = auto = anti = True
    for a in basis:
        for b in basis:
            fa, fb = _literal_image(mapping.columns, a), _literal_image(mapping.columns, b)
            fab = _literal_image(mapping.columns, a * b)
            lie = lie and _literal_image(mapping.columns, a * b - b * a) == fa * fb - fb * fa
            auto = auto and fab == fa * fb
            anti = anti and -fab == fb * fa
    return lie, auto, anti


def literal_decomposition_error(tau, phi):
    """The error class check_proper_decomposition(tau, phi) must raise, or
    None: NotLieAutomorphism unless tau is Lie, PreconditionError unless phi
    is an automorphism or a negated anti-automorphism, NotProperWitness
    unless every image of nu = tau - phi commutes with every basis element
    and nu kills every bracket of two basis elements."""
    from posetlie import NotLieAutomorphism, NotProperWitness, PreconditionError
    from posetlie.algebra import IncidenceElement

    if not literal_recognizers(tau)[0]:
        return NotLieAutomorphism
    if not any(literal_recognizers(phi)[1:]):
        return PreconditionError
    poset, field = tau.poset, tau.field
    basis = [IncidenceElement.basis(poset, x, y, field) for x, y in poset.all_pairs]
    nu = [t - p for t, p in zip(tau.columns, phi.columns)]
    central = all((z * b - b * z).is_zero() for z in nu for b in basis)
    kills = all(_literal_image(nu, a * b - b * a).is_zero() for a in basis for b in basis)
    return None if central and kills else NotProperWitness
