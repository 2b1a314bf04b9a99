"""Poset construction, parsing, chains, crowns, semiwalks and symmetries."""

import random

import pytest

from posetlie import (
    CycleError,
    DisconnectedError,
    MapKind,
    ParseError,
    Poset,
    PreconditionError,
    closed_semiwalks,
    parse_poset,
    poset_maps,
    weak_crowns,
)
from posetlie.families import (
    chain,
    crown,
    example6,
    example20,
    fence,
    kmn,
    star,
)
from posetlie.poset import isomorphisms

from helpers import (
    brute_maximal_chains,
    brute_isomorphisms,
    brute_poset_maps,
    brute_weak_crowns,
    canonical_crown,
    random_bipartite_poset,
    random_connected_poset,
)

EXAMPLE6_FILE = """\
poset v1
# the six-element poset with two chain classes
elements: 1 2 3 4 5 6
relations: 1<2 2<4 2<5 1<3 3<5 3<6
"""


class TestParse:
    def test_example6_file(self):
        poset = parse_poset(EXAMPLE6_FILE)
        assert poset.n == 6
        assert [poset.names[i] for i in poset.min_set] == ["1"]
        assert sorted(poset.names[i] for i in poset.max_set) == ["4", "5", "6"]
        assert poset == example6()

    def test_cycle_rejected(self):
        text = "poset v1\nelements: a b\nrelations: a<b b<a\n"
        with pytest.raises(CycleError):
            parse_poset(text)

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            parse_poset("poset v1\nelements: a\nrelations: a<a\n")

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            parse_poset("poset v1\nelements: a b\nrelations:\n")

    def test_transitive_closure_of_covers(self):
        poset = parse_poset("poset v1\nelements: a b c\nrelations: a<b b<c\n")
        assert poset.lt(0, 2)

    def test_full_relations_equal_covers(self):
        by_covers = parse_poset("poset v1\nelements: a b c\nrelations: a<b b<c\n")
        by_all = parse_poset("poset v1\nelements: a b c\nrelations: a<b b<c a<c\n")
        assert by_covers == by_all

    @pytest.mark.parametrize(
        "text",
        [
            "elements: a\nrelations:\n",
            "poset v2\nelements: a\nrelations:\n",
            "poset v1\nelements: a a\nrelations:\n",
            "poset v1\nelements: a b\nrelations: a<c\n",
            "poset v1\nelements: a b\nrelations: a<b<c\n",
            "poset v1\nelements:\nrelations:\n",
            "poset v1\nelements: a b\nrelations: a<b\nextra line\n",
        ],
    )
    def test_bad_files(self, text):
        with pytest.raises(ParseError):
            parse_poset(text)

    def test_min_max_disjoint_when_connected(self):
        for poset in (example6(), crown(3), fence(5), example20()):
            assert not set(poset.min_set) & set(poset.max_set)


class TestMaximalChains:
    def test_crown3_has_2n_two_element_chains(self):
        poset = crown(3)
        chains = poset.maximal_chains
        assert len(chains) == 6
        assert all(len(c) == 2 for c in chains)
        # each element on exactly one odd and one even chain: membership = 2
        for x in range(poset.n):
            assert sum(x in c for c in chains) == 2

    def test_chain_poset_has_single_chain(self):
        poset = chain(4)
        assert poset.maximal_chains == (tuple(range(4)),)

    def test_example6_chains_match_brute_force(self):
        poset = example6()
        assert list(poset.maximal_chains) == brute_maximal_chains(poset)
        labeled = [poset.label_chain(c) for c in poset.maximal_chains]
        assert labeled == [
            ("1", "2", "4"),
            ("1", "2", "5"),
            ("1", "3", "5"),
            ("1", "3", "6"),
        ]

    @pytest.mark.parametrize(
        "poset",
        [chain(3), star(3), fence(5), crown(2), kmn(2, 3), example6()],
        ids=["chain3", "star3", "fence5", "crown2", "kmn23", "example6"],
    )
    def test_agrees_with_brute_force(self, poset):
        assert list(poset.maximal_chains) == brute_maximal_chains(poset)

    def test_chains_cover_every_element(self):
        for poset in (example6(), example20(), crown(3), fence(6)):
            covered = {x for c in poset.maximal_chains for x in c}
            assert covered == set(range(poset.n))


class TestPosetMaps:
    def test_kmn23_twelve_isomorphisms(self):
        poset = kmn(2, 3)
        maps = poset_maps(poset)
        assert len(maps) == 12
        assert all(m.kind == MapKind.ISO for m in maps)
        oracle = brute_poset_maps(poset)
        assert sorted((m.kind.value, m.perm) for m in maps) == oracle

    def test_crown3_order_4n(self):
        assert len(poset_maps(crown(3))) == 12

    def test_chain2_identity_and_flip(self):
        maps = poset_maps(chain(2))
        assert [(m.perm, m.kind) for m in maps] == [
            ((0, 1), MapKind.ISO),
            ((1, 0), MapKind.ANTI),
        ]

    @pytest.mark.parametrize(
        "poset",
        [chain(3), star(3), fence(4), fence(5), crown(2), crown(3), example6()],
        ids=["chain3", "star3", "fence4", "fence5", "crown2", "crown3", "example6"],
    )
    def test_agrees_with_brute_force(self, poset):
        ours = sorted((m.kind.value, m.perm) for m in poset_maps(poset))
        assert ours == brute_poset_maps(poset)

    def test_maps_preserve_or_reverse_relation(self):
        for poset in (example6(), crown(3), fence(4)):
            for m in poset_maps(poset):
                for x in range(poset.n):
                    for y in range(poset.n):
                        if m.kind == MapKind.ISO:
                            assert poset.leq(x, y) == poset.leq(m(x), m(y))
                        else:
                            assert poset.leq(x, y) == poset.leq(m(y), m(x))

    def test_compose_and_inverse(self):
        poset = crown(3)
        maps = poset_maps(poset)
        perms = {(m.perm, m.kind) for m in maps}
        for a in maps:
            assert (a.inverse().perm, a.inverse().kind) in perms
            for b in maps:
                c = a.compose(b)
                assert (c.perm, c.kind) in perms


def relabelled(poset, rng):
    """The poset with its elements moved to random new indices."""
    to = rng.sample(range(poset.n), poset.n)
    leq = [[False] * poset.n for _ in range(poset.n)]
    for x, y in poset.all_pairs:
        leq[to[x]][to[y]] = True
    return Poset(poset.names, leq)


def non_isomorphic_twin(poset, rng):
    """A random connected poset with the same n and |B| that is not
    isomorphic to poset, or None where none turns up in 200 draws."""
    for _ in range(200):
        other = random_connected_poset(rng, poset.n)
        same_size = len(other.strict_pairs) == len(poset.strict_pairs)
        if same_size and not brute_isomorphisms(poset, other):
            return other
    return None


def pin_sets(source, target, isos, rng):
    """Pins to test the search with: none, part of a map that exists, random
    ones, a conflicting pair (i, j), (i, j'), and a pin to an element of
    another (|below|, |above|)."""
    n = source.n
    out = [()]
    if isos:
        f = rng.choice(isos)
        out.append(tuple((i, f[i]) for i in rng.sample(range(n), rng.randint(1, n))))
    out.append(tuple((i, rng.randrange(n)) for i in rng.sample(range(n), rng.randint(1, n))))
    i, j, k = rng.randrange(n), *rng.sample(range(n), 2)
    out.append(((i, j), (i, k)))

    def signature(poset, x):
        return len(poset.below[x]), len(poset.above[x])

    i = rng.randrange(n)
    others = [j for j in range(n) if signature(target, j) != signature(source, i)]
    if others:
        out.append(((i, rng.choice(others)),))
    return out


@pytest.mark.parametrize("seed", range(24))
def test_isomorphisms_match_brute_filter_with_pins(seed):
    # isomorphisms(source, target, fixed) is every bijection of the n! that
    # keeps the order and the pins, each once, onto the poset itself, its
    # dual, a relabelling and a poset with the same n and |B| that is not
    # isomorphic to it
    rng = random.Random(seed)
    source = random_connected_poset(rng, 2 + seed % 6)
    targets = [source, source.dual(), relabelled(source, rng), non_isomorphic_twin(source, rng)]
    for target in filter(None, targets):
        isos = brute_isomorphisms(source, target)
        for fixed in pin_sets(source, target, isos, rng):
            expected = [f for f in isos if all(f[i] == j for i, j in fixed)]
            assert sorted(isomorphisms(source, target, fixed)) == expected


def seeded_bipartite(seed):
    """A random length-one poset of 2-4 lows and 3-4 highs, with a pair
    count drawn from the feasible range."""
    rng = random.Random(seed)
    lows, highs = 2 + seed % 3, 3 + seed % 2
    return random_bipartite_poset(rng, lows, highs, rng.randint(lows + highs - 1, lows * highs))


class TestWeakCrowns:
    def test_short_chains_have_none(self):
        for n in (1, 2, 3):
            assert weak_crowns(chain(n)) == ()

    def test_long_chains_have_degenerate_crowns(self):
        # two low elements under two high ones satisfy the alternating
        # relations even when comparable among themselves
        crowns = weak_crowns(chain(4))
        assert [(c.mins, c.maxs) for c in crowns] == [((0, 1), (2, 3))]
        assert sorted((c.mins, c.maxs) for c in weak_crowns(chain(5))) == \
            brute_weak_crowns(chain(5))

    def test_crown2_exactly_one(self):
        crowns = weak_crowns(crown(2))
        assert len(crowns) == 1
        assert crowns[0].size == 2

    def test_kmn23_three_two_crowns(self):
        crowns = weak_crowns(kmn(2, 3))
        assert [c.size for c in crowns] == [2, 2, 2]

    @pytest.mark.parametrize(
        "poset",
        [crown(2), crown(3), kmn(2, 3), fence(5), star(4), chain(4), example6()]
        + [random_connected_poset(random.Random(seed), 5 + seed % 4) for seed in range(16)]
        + [seeded_bipartite(seed) for seed in range(12)],
        ids=["crown2", "crown3", "kmn23", "fence5", "star4", "chain4", "example6"]
        + ["connected%d" % seed for seed in range(16)]
        + ["bipartite%d" % seed for seed in range(12)],
    )
    def test_agrees_with_brute_force(self, poset):
        ours = sorted((c.mins, c.maxs) for c in weak_crowns(poset))
        assert ours == brute_weak_crowns(poset)

    def test_example20_crowns_sorted_and_canonical(self):
        crowns = weak_crowns(example20())
        assert len(crowns) == 4067
        keys = [(c.size, c.mins, c.maxs) for c in crowns]
        assert keys == sorted(set(keys))
        for c in crowns:
            assert (c.mins, c.maxs) == canonical_crown(c.mins, c.maxs)

    def test_crowns_are_closed_semiwalks(self):
        for poset in (crown(3), kmn(2, 3), example6(), example20()):
            for c in weak_crowns(poset):
                cycle = c.cycle()
                assert cycle[0] == cycle[-1]
                for i in range(len(cycle) - 1):
                    a, b = cycle[i], cycle[i + 1]
                    assert poset.lt(a, b) or poset.lt(b, a)

    def test_fences_and_stars_are_crownless(self):
        for n in (3, 4, 5, 6):
            assert weak_crowns(fence(n)) == ()
        for n in (2, 3, 4):
            assert weak_crowns(star(n)) == ()


class TestClosedSemiwalks:
    def test_chain2_length2(self):
        assert closed_semiwalks(chain(2), 2) == ((0, 1, 0), (1, 0, 1))

    def test_crown2_contains_full_cycle(self):
        poset = crown(2)
        walks = closed_semiwalks(poset, 4)
        cycle = weak_crowns(poset)[0].cycle()
        assert cycle in walks

    def test_length_one_rejected(self):
        with pytest.raises(PreconditionError, match="^semiwalk length bound must be at least 2$"):
            closed_semiwalks(chain(2), 1)

    @pytest.mark.parametrize("bound", [2.5, 4.0, "4", None])
    def test_non_int_bound_rejected(self, bound):
        # the listing stops where its depth equals the bound, which a
        # float such as 2.5 never does
        with pytest.raises(PreconditionError, match="^semiwalk length bound must be an int$"):
            closed_semiwalks(chain(2), bound)

    def test_steps_join_comparable_distinct(self):
        for walk in closed_semiwalks(example6(), 4):
            poset = example6()
            for i in range(len(walk) - 1):
                a, b = walk[i], walk[i + 1]
                assert a != b and (poset.lt(a, b) or poset.lt(b, a))


class TestDisjointChains:
    def test_length_one_posets_with_two_extremes(self):
        # connected, length 1, several minima and maxima: disjoint chains exist
        for poset in (fence(4), fence(6), crown(2), crown(3), kmn(2, 3), kmn(3, 3)):
            if len(poset.min_set) > 1 and len(poset.max_set) > 1:
                chains = poset.maximal_chains
                assert any(
                    not set(c) & set(d)
                    for c in chains
                    for d in chains
                    if c != d
                )


def test_crown2_isomorphic_to_kmn22():
    assert next(isomorphisms(crown(2), kmn(2, 2)), None) is not None


def test_anti_half_matches_iso_half_when_present():
    # when any anti-automorphism exists the two halves have equal size
    for poset in (chain(3), crown(2), crown(3), fence(4), kmn(3, 3)):
        maps = poset_maps(poset)
        isos = [m for m in maps if m.kind == MapKind.ISO]
        antis = [m for m in maps if m.kind == MapKind.ANTI]
        if antis:
            assert len(isos) == len(antis)


def test_dual_involution():
    for poset in (example6(), crown(3), fence(5)):
        assert poset.dual().dual() == poset
