"""The one pruned search behind enumerate_M and enumerate_AM: against a
literal filter of all of S(B), and on sizes the old |B|! scan could not
reach."""

import itertools
from math import factorial

import pytest

from helpers import brute_monotone, mixed_length_posets
from posetlie import (
    EdgeBijection,
    decide_all_proper,
    enumerate_AM,
    enumerate_M,
    parse_poset,
    satisfies_crown_criterion,
)
from posetlie.families import from_selector

# Length one, with walk pairs and pendant pairs: the pendant chains lie on no
# walk, so they are swept after the rest.  In kmn:2x3 two walks are checked,
# so the sweep starts partway through the search.
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
    assert [t.perm for t in enumerate_M(poset, bound=size)] == [
        t.perm for t in monotone
    ]
    assert [t.perm for t in enumerate_AM(poset, bound=size)] == [
        t.perm for t in monotone if satisfies_crown_criterion(poset, t)
    ]


@pytest.mark.parametrize("m, n", [(2, 5), (3, 4), (4, 4)])
def test_complete_bipartite_posets_are_all_proper(m, n):
    # Aut(K_{m,n}) permutes each side; the order reversal adds a factor 2
    # when the two sides have the same size
    poset = from_selector("kmn:%dx%d" % (m, n))
    verdict = decide_all_proper(poset, bound=m * n)
    expected = factorial(m) * factorial(n) * (2 if m == n else 1)
    assert verdict.all_proper
    assert verdict.am_order == verdict.p_order == expected
