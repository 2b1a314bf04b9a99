"""Admissibility by the cut form, against the paper's crown criterion, the
fundamental cycles of the literal reference, and the lifetime of the
per-poset caches; the cut form itself against its literal definition."""

import gc
import itertools
import operator
import random
import weakref

import pytest

from posetlie import (
    EdgeBijection,
    Poset,
    center,
    commutator_subspace,
    decide_all_proper,
    enumerate_AM,
    enumerate_M,
    is_admissible,
    is_admissible_oracle,
    satisfies_crown_criterion,
)
from posetlie.bijections import _cut_form
from posetlie.errors import DisconnectedError
from posetlie.families import from_selector

from helpers import (
    fundamental_cycles,
    literal_cut_form,
    literal_net_steps,
    random_bipartite_poset,
    random_connected_poset,
)

FAMILIES = [
    "crown:2", "crown:3", "crown:4", "kmn:2x3", "kmn:2x4", "example:6",
    "fence:5", "fence:6", "chain:4", "star:4",
]


def three_level(rng, width=3, fan=2):
    """A random connected poset of length 2: three levels of `width`
    elements, each element above the bottom level covering `fan` elements of
    the level below."""
    names = ["%s%d" % (level, i) for level in "abc" for i in range(width)]
    while True:
        covers = [
            (x, width * level + i)
            for level in (1, 2)
            for i in range(width)
            for x in rng.sample(range(width * (level - 1), width * level), fan)
        ]
        try:
            poset = Poset.from_relations(names, covers)
        except DisconnectedError:
            continue
        if poset.length == 2:
            return poset


def boolean_lattice(k):
    """The subsets of a k-set under inclusion, as covers i < i | 1 << j."""
    return Poset.from_relations(
        ["s%d" % i for i in range(2**k)],
        [(i, i | 1 << j) for i in range(2**k) for j in range(k) if not i >> j & 1],
    )


def assert_basis_matches_crowns(poset, thetas):
    for theta in thetas:
        assert is_admissible(poset, theta) == satisfies_crown_criterion(
            poset, theta
        ), theta.perm


class TestBasisShape:
    """The fundamental cycles that tests/helpers.py builds as the literal
    reference for is_admissible, and the cut form Q that is_admissible
    reads: each cycle's net step vector lies in Q's kernel."""

    @pytest.mark.parametrize("selector", FAMILIES + ["example:20", "kmn:3x3"])
    def test_one_closed_walk_per_pair_outside_the_tree(self, selector):
        poset = from_selector(selector)
        basis = fundamental_cycles(poset)
        assert len(basis) == len(poset.strict_pairs) - poset.n + 1
        form = _cut_form(poset)
        for walk in basis:
            assert walk[0] == walk[-1] and len(walk) >= 4
            assert len(set(walk[:-1])) == len(walk) - 1
            for u, v in zip(walk, walk[1:]):
                assert poset.lt(u, v) or poset.lt(v, u)
            steps = literal_net_steps(poset, walk)
            assert all(sum(row[b] * count for b, count in steps) == 0 for row in form)

    def test_trees_have_an_empty_basis(self):
        for selector in ("fence:6", "star:5", "chain:2", "kmn:1x4"):
            assert fundamental_cycles(from_selector(selector)) == []


class TestBasisAgreesWithCrownCriterion:
    @pytest.mark.parametrize("selector", FAMILIES)
    def test_every_monotone_bijection_of_the_families(self, selector):
        poset = from_selector(selector)
        assert_basis_matches_crowns(
            poset, enumerate_M(poset)
        )

    def test_example20_admissible_group_order(self):
        assert len(enumerate_AM(from_selector("example:20"))) == 256

    def test_seeded_three_level_posets(self):
        rng = random.Random(2024)
        for _ in range(40):
            poset = three_level(rng)
            assert_basis_matches_crowns(
                poset, enumerate_M(poset)
            )

    def test_all_of_the_symmetric_group_on_bipartite_posets(self):
        rng = random.Random(7)
        for _ in range(3):
            poset = random_bipartite_poset(rng, 3, 4, 7)
            thetas = [
                EdgeBijection(perm) for perm in itertools.permutations(range(7))
            ]
            assert_basis_matches_crowns(poset, thetas)
            scanned = {t.perm for t in enumerate_AM(poset)}
            assert scanned == {
                t.perm for t in thetas if satisfies_crown_criterion(poset, t)
            }


def cut_form_cases():
    named = [(s, from_selector(s)) for s in FAMILIES + ["example:20", "kmn:3x3"]]
    rng = random.Random(2025)
    connected = [
        ("connected-%d" % i, random_connected_poset(rng, rng.randint(2, 12)))
        for i in range(40)
    ]
    bipartite = []
    for i in range(10):
        lows, highs = rng.randint(2, 4), rng.randint(2, 5)
        pairs = rng.randint(lows + highs - 1, lows * highs)
        bipartite.append(("bipartite-%d" % i, random_bipartite_poset(rng, lows, highs, pairs)))
    cases = named + [("2^4", boolean_lattice(4))] + connected + bipartite
    return [pytest.param(poset, id=name) for name, poset in cases]


CUT_FORM_CASES = cut_form_cases()


def trace_scale(form, n):
    """d = trace(F) / (n - 1): Q is a projection of rank n - 1, so a form
    F = d·Q has trace d·(n - 1)."""
    d, rest = divmod(sum(row[e] for e, row in enumerate(form)), n - 1)
    assert rest == 0
    return d


class TestCutForm:
    """_cut_form is F = det(L0)·Q, against D0^T·L0^-1·D0 over Fraction: a
    symmetric form with F·F = d·F, d the number of spanning trees."""

    @pytest.mark.parametrize("poset", CUT_FORM_CASES)
    def test_matches_the_literal_form(self, poset):
        assert _cut_form(poset) == literal_cut_form(poset)

    @pytest.mark.parametrize("poset", CUT_FORM_CASES)
    def test_symmetric_and_d_times_a_projection(self, poset):
        form = _cut_form(poset)
        columns = list(zip(*form))
        assert form == tuple(columns)
        d = trace_scale(form, poset.n)
        assert d > 0
        for row in form:
            assert [sum(map(operator.mul, row, column)) for column in columns] == [
                d * a for a in row
            ]

    @pytest.mark.parametrize(
        "selector,trees",
        [("crown:%d" % n, 2 * n) for n in (2, 3, 4, 7)]
        + [("kmn:%dx%d" % (a, b), a ** (b - 1) * b ** (a - 1)) for a, b in ((1, 4), (2, 3), (3, 3), (3, 4))]
        + [("fence:6", 1), ("star:5", 1)],
    )
    def test_scale_is_the_number_of_spanning_trees(self, selector, trees):
        poset = from_selector(selector)
        assert trace_scale(_cut_form(poset), poset.n) == trees


def random_posets(rng, count, n=6, max_pairs=7):
    """`count` distinct connected posets on n elements with few strict pairs."""
    found = []
    while len(found) < count:
        pairs = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
        ]
        try:
            poset = Poset.from_relations(["e%d" % i for i in range(n)], pairs)
        except DisconnectedError:
            continue
        if len(poset.strict_pairs) <= max_pairs and poset not in found:
            found.append(poset)
    return found


def test_step_caches_die_with_their_posets():
    posets = random_posets(random.Random(99), 40)
    for poset in posets:
        decide_all_proper(poset)
        identity = EdgeBijection.identity(len(poset.strict_pairs))
        assert satisfies_crown_criterion(poset, identity)
        assert is_admissible_oracle(poset, identity, 4)
        assert len(center(poset)) == 1
        assert len(commutator_subspace(poset)) == len(poset.strict_pairs)
    refs = [weakref.ref(poset) for poset in posets]
    del poset, posets
    gc.collect()
    assert [r for r in refs if r() is not None] == []
