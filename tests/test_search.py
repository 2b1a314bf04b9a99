"""enumerate_M's and enumerate_AM's stabilizer towers: both against a
literal filter of all of S(B), each tower's size and membership test
against the elements it lists, AM against M filtered by the cycle-basis
test, and on sizes the old |B|! scan could not reach."""

import itertools
import random
import time
from math import factorial

import pytest

from helpers import (
    brute_monotone,
    filtered_AM,
    mixed_length_posets,
    random_bipartite_poset,
    random_connected_poset,
)
from posetlie import (
    EdgeBijection,
    decide_all_proper,
    enumerate_AM,
    enumerate_M,
    enumerate_P,
    parse_poset,
    satisfies_crown_criterion,
)
from posetlie.families import fence, from_selector

# Length one, with cycle pairs and a pendant pair: the pendant pair is a
# bridge, so Q tells it apart from the pairs on cycles.
PENDANTS = {
    "crown2_pendant": (
        "poset v1\nelements: x1 x2 y1 y2 z\n"
        "relations: x1<y1 x1<y2 x2<y1 x2<y2 x1<z\n"
    ),
    "kmn2x3_pendant": (
        "poset v1\nelements: x1 x2 y1 y2 y3 z\n"
        "relations: x1<y1 x1<y2 x1<y3 x2<y1 x2<y2 x2<y3 x1<z\n"
    ),
}

CASES = {
    selector: from_selector(selector)
    for selector in ("crown:2", "crown:3", "kmn:2x3", "example:6", "fence:5", "star:4")
}
CASES.update(mixed_length_posets())
CASES.update({name: parse_poset(text) for name, text in PENDANTS.items()})


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_matches_a_literal_filter_of_all_of_SB(name):
    poset = CASES[name]
    size = len(poset.strict_pairs)
    monotone = [
        theta
        for theta in map(EdgeBijection, itertools.permutations(range(size)))
        if brute_monotone(poset, theta)
    ]
    assert [t.perm for t in enumerate_M(poset)] == [
        t.perm for t in monotone
    ]
    assert [t.perm for t in enumerate_AM(poset)] == [
        t.perm for t in monotone if satisfies_crown_criterion(poset, t)
    ]


@pytest.mark.parametrize("m, n", [(2, 5), (3, 4), (4, 4)])
def test_complete_bipartite_posets_are_all_proper(m, n):
    # Aut(K_{m,n}) permutes each side; the order reversal adds a factor 2
    # when the two sides have the same size
    poset = from_selector("kmn:%dx%d" % (m, n))
    verdict = decide_all_proper(poset)
    expected = factorial(m) * factorial(n) * (2 if m == n else 1)
    assert verdict.all_proper
    assert verdict.am_order == verdict.p_order == expected


def _seeded_posets():
    rng = random.Random(11)
    out = {"random%02d" % k: random_connected_poset(rng, rng.randint(4, 6)) for k in range(20)}
    out.update(
        ("bipartite%02d" % k, random_bipartite_poset(rng, 3, 3, rng.randint(5, 6)))
        for k in range(20)
    )
    return out


LISTING_CASES = dict(CASES, **_seeded_posets())


@pytest.mark.parametrize("name", sorted(LISTING_CASES))
def test_listing_sizes_tests_and_searches_its_leaves(name):
    poset = LISTING_CASES[name]
    size = len(poset.strict_pairs)
    rng = random.Random(name)
    listing = enumerate_M(poset)
    monotone = list(listing)
    assert len(listing) == len(monotone)
    perms = {t.perm for t in monotone}
    randoms = [EdgeBijection(tuple(rng.sample(range(size), size))) for _ in range(100)]
    for theta in monotone + randoms:
        assert (theta in listing) == (theta.perm in perms), theta.perm
    # the tower lists AM in the order of M's listing filtered by the
    # cycle-basis test, and decide's witness, its first element outside P,
    # is the least element of AM outside P
    tower = enumerate_AM(poset)
    admissible = filtered_AM(poset)
    assert len(tower) == len(admissible)
    assert list(tower) == admissible
    perms = {t.perm for t in admissible}
    for theta in monotone + randoms:
        assert (theta in tower) == (theta.perm in perms), theta.perm
    witness = decide_all_proper(poset).counterexample
    proper = {t.perm for t in enumerate_P(poset)}
    expected = min({t.perm for t in admissible} - proper, default=None)
    assert (None if witness is None else witness.perm) == expected


@pytest.mark.parametrize("name", sorted(LISTING_CASES))
def test_listing_merges_its_blocks_in_ascending_order(name):
    # the tower walk orders each level by the image of its base point and
    # sorts the multiplied-out last levels: M must come out strictly
    # ascending, every element once
    poset = LISTING_CASES[name]
    listing = enumerate_M(poset)
    perms = [t.perm for t in listing]
    assert perms == sorted(set(perms))
    assert len(perms) == len(listing)


@pytest.mark.parametrize("n", [12, 14])
def test_decide_counts_fences_it_could_not_list(n):
    # a fence is a tree of two-element chains, so AM is all of S(B)
    poset = fence(n)
    start = time.perf_counter()
    verdict = decide_all_proper(poset)
    elapsed = time.perf_counter() - start
    assert (verdict.am_order, verdict.p_order) == (factorial(n - 1), 2)
    proper = {t.perm for t in enumerate_P(poset)}
    first = next(p for p in itertools.permutations(range(n - 1)) if p not in proper)
    assert verdict.counterexample.perm == first
    assert elapsed < 1.0
