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
                found.add(_canonical(mins, maxs))
    return sorted(found)


def _canonical(mins, maxs):
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


@lru_cache(maxsize=None)
def _brute_chain_images(poset):
    """Per maximal chain: its pairs, and every image of them that is
    literally monotone, increasing or decreasing onto a chain of its size."""
    chains = brute_maximal_chains(poset)
    out = []
    for chain in chains:
        m = len(chain)
        spots = [(i, j) for i in range(m) for j in range(i + 1, m)]
        images = set()
        for target in chains:
            if len(target) == m:
                images.add(tuple((target[i], target[j]) for i, j in spots))
                images.add(
                    tuple((target[m - 1 - j], target[m - 1 - i]) for i, j in spots)
                )
        out.append(([(chain[i], chain[j]) for i, j in spots], images))
    return out


def brute_monotone(poset, theta):
    """Literal monotonicity: each chain's pairs map onto one candidate image."""

    def th(pair):
        return poset.strict_pairs[theta.perm[poset.pair_index[pair]]]

    return all(
        tuple(th(pair) for pair in pairs) in images
        for pairs, images in _brute_chain_images(poset)
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
