"""Edge bijections: monotonicity, counting, admissibility, properness,
enumerators, and compatible sign maps."""

from fractions import Fraction
from math import factorial

import pytest

from posetlie import (
    BoundExceeded,
    CountStats,
    Direction,
    EdgeBijection,
    MapKind,
    PreconditionError,
    SignMap,
    build_compatible_sigma,
    count_stats,
    edge_map_of,
    enumerate_AM,
    enumerate_M,
    enumerate_P,
    image_chain,
    in_M,
    is_admissible,
    is_admissible_oracle,
    is_compatible,
    is_separating,
    monotone_direction,
    poset_maps,
    proper_witness,
)
from posetlie.families import (
    chain,
    crown,
    example6,
    example20,
    example20_bijection,
    fence,
    kmn,
    star,
    suite,
)

from helpers import brute_is_group, brute_monotone, mixed_length_posets


def identity_on(poset):
    return EdgeBijection.identity(len(poset.strict_pairs))


MIXED_LENGTH_NAMES = sorted(mixed_length_posets())
MIXED_LENGTH_POSETS = [mixed_length_posets()[n] for n in MIXED_LENGTH_NAMES]


def anti_edge_map(poset):
    anti = [m for m in poset_maps(poset) if m.kind == MapKind.ANTI][0]
    return edge_map_of(poset, anti)


def crown_parity_swap(n):
    """The order-two admissible bijection of an n-crown swapping each odd
    chain with the even chain under the same maximum."""
    poset = crown(n)
    perm = list(range(len(poset.strict_pairs)))
    for i in range(n):
        odd = poset.pair_index[(i, n + i)]
        even = poset.pair_index[((i + 1) % n, n + i)]
        perm[odd], perm[even] = even, odd
    return poset, EdgeBijection(tuple(perm))


class TestMonotoneDirection:
    def test_identity_on_chain3_increasing(self):
        p = chain(3)
        assert monotone_direction(p, identity_on(p), (0, 1, 2)) == Direction.INCREASING

    def test_flip_on_chain3_decreasing(self):
        p = chain(3)
        assert monotone_direction(p, anti_edge_map(p), (0, 1, 2)) == Direction.DECREASING

    def test_length_one_posets_are_both(self):
        import itertools

        p = crown(2)
        for perm in itertools.permutations(range(4)):
            theta = EdgeBijection(perm)
            for c in p.maximal_chains:
                assert monotone_direction(p, theta, c) == Direction.BOTH

    def test_non_maximal_chain_rejected(self):
        p = chain(3)
        with pytest.raises(PreconditionError):
            monotone_direction(p, identity_on(p), (0, 1))

    def test_image_chain_reconstruction(self):
        p = example6()
        theta = identity_on(p)
        for c in p.maximal_chains:
            direction, image = image_chain(p, theta, c)
            assert direction == Direction.INCREASING and image == c


class TestInM:
    def test_identity(self):
        for _, poset in suite():
            assert in_M(poset, identity_on(poset))

    def test_example20_bijection(self):
        p = example20()
        assert in_M(p, example20_bijection(p))

    def test_swap_breaking_chain3(self):
        p = chain(3)
        # swap e_{12} and e_{13}, fix e_{23}: no image chain reconstructs
        i12 = p.pair_index[(0, 1)]
        i13 = p.pair_index[(0, 2)]
        perm = list(range(3))
        perm[i12], perm[i13] = i13, i12
        assert not in_M(p, EdgeBijection(tuple(perm)))

    @pytest.mark.parametrize(
        "poset", [chain(3), chain(4), example6()], ids=["chain3", "chain4", "example6"]
    )
    def test_matches_literal_search_on_higher_length(self, poset):
        import itertools
        import random

        rng = random.Random(43)
        size = len(poset.strict_pairs)
        perms = [tuple(rng.sample(range(size), size)) for _ in range(200)]
        perms += [tuple(range(size))]
        for perm in perms:
            theta = EdgeBijection(perm)
            assert in_M(poset, theta) == brute_monotone(poset, theta)


class TestCountStats:
    def test_identity_on_chain2(self):
        p = chain(2)
        stats = count_stats(p, identity_on(p), (0, 1, 0), 0)
        assert stats == CountStats(1, 1, 0, 0)
        assert stats.balanced()

    def test_untouched_element_is_zero(self):
        p = example6()
        # z = 4 (a maximum): walk around the other branch never maps near it
        stats = count_stats(p, identity_on(p), (0, 2, 0), 3)
        assert stats == CountStats(0, 0, 0, 0)

    def test_example20_unbalanced_point(self):
        p = example20()
        theta = example20_bijection(p)
        walk = tuple(p.index(v) for v in ("5", "7", "6", "8", "5"))
        assert count_stats(p, theta, walk, p.index("7'")) == CountStats(0, 0, 0, 1)

    def test_open_walk_rejected(self):
        p = chain(3)
        with pytest.raises(PreconditionError):
            count_stats(p, identity_on(p), (0, 1, 2), 0)


class TestAdmissibility:
    def test_identity_everywhere(self):
        for _, poset in suite():
            assert is_admissible(poset, identity_on(poset))
            assert is_admissible_oracle(poset, identity_on(poset), 6)

    def test_example20_bijection_inadmissible(self):
        p = example20()
        theta = example20_bijection(p)
        assert not is_admissible(p, theta)
        assert not is_admissible_oracle(p, theta, 4)

    def test_trees_accept_every_bijection(self):
        import itertools

        for poset in (star(3), fence(4), fence(5)):
            size = len(poset.strict_pairs)
            for perm in itertools.permutations(range(size)):
                assert is_admissible(poset, EdgeBijection(perm))

    def test_monotonicity_required(self):
        p = chain(3)
        i12 = p.pair_index[(0, 1)]
        i13 = p.pair_index[(0, 2)]
        perm = list(range(3))
        perm[i12], perm[i13] = i13, i12
        with pytest.raises(PreconditionError):
            is_admissible(p, EdgeBijection(tuple(perm)))
        with pytest.raises(PreconditionError):
            is_admissible_oracle(p, EdgeBijection(tuple(perm)), 4)

    def test_crown_swap_admissible(self):
        poset, theta = crown_parity_swap(3)
        assert is_admissible(poset, theta)


class TestProperWitness:
    def test_identity_witness(self):
        p = example6()
        witness = proper_witness(p, identity_on(p))
        assert witness is not None
        assert witness.perm == tuple(range(p.n)) and witness.kind == MapKind.ISO

    def test_round_trip_on_kmn23(self):
        p = kmn(2, 3)
        for lam in poset_maps(p):
            theta = edge_map_of(p, lam)
            recovered = proper_witness(p, theta)
            assert recovered is not None
            assert edge_map_of(p, recovered).perm == theta.perm

    def test_crown3_parity_swap_has_no_witness(self):
        poset, theta = crown_parity_swap(3)
        assert proper_witness(poset, theta) is None

    def test_chain2_identity_collapse(self):
        # both poset symmetries restrict to the identity edge bijection
        p = chain(2)
        assert len(enumerate_P(p)) == 1
        assert len(poset_maps(p)) == 2


class TestSeparating:
    def test_identity_not_separating(self):
        for poset in (fence(4), crown(3), example6()):
            assert not is_separating(poset, identity_on(poset))

    def test_fence_swap_is_separating(self):
        # swap the image of two chains sharing a maximum so the images are
        # disjoint: v1<v2 stays, v3<v2 goes to v3<v4
        p = fence(4)
        a = p.pair_index[(2, 1)]
        b = p.pair_index[(2, 3)]
        perm = list(range(3))
        perm[a], perm[b] = b, a
        theta = EdgeBijection(tuple(perm))
        assert is_separating(p, theta)
        assert proper_witness(p, theta) is None

    def test_proper_bijections_never_separate(self):
        for _, poset in suite():
            for theta in enumerate_P(poset):
                assert not is_separating(poset, theta)


class TestEnumerators:
    def test_proper_group_sizes(self):
        assert len(enumerate_P(chain(2))) == 1
        assert len(enumerate_P(crown(2))) == 8
        assert len(enumerate_P(crown(3))) == 12
        assert len(enumerate_P(kmn(2, 3))) == 12

    def test_proper_size_matches_symmetries_beyond_two_elements(self):
        for _, poset in suite():
            if poset.n > 2:
                assert len(enumerate_P(poset)) == len(poset_maps(poset))

    def test_monotone_on_length_one_is_full_symmetric_group(self):
        p = crown(2)
        assert sum(1 for _ in enumerate_M(p)) == factorial(4)

    def test_chain_assignment_matches_raw_filter(self):
        # higher-length posets: compare against filtering all of S(B)
        import itertools

        for poset in (chain(3), chain(4)):
            size = len(poset.strict_pairs)
            expected = sorted(
                perm
                for perm in itertools.permutations(range(size))
                if brute_monotone(poset, EdgeBijection(perm))
            )
            ours = sorted(t.perm for t in enumerate_M(poset))
            assert ours == expected

    @pytest.mark.parametrize("poset", MIXED_LENGTH_POSETS, ids=MIXED_LENGTH_NAMES)
    def test_chain_assignment_on_mixed_chain_sizes(self, poset):
        # posets whose maximal chains have different sizes are the hard case
        # for the assignment backtracking; sweep all of S(B) to compare
        import itertools

        size = len(poset.strict_pairs)
        expected = sorted(
            perm
            for perm in itertools.permutations(range(size))
            if brute_monotone(poset, EdgeBijection(perm))
        )
        ours = sorted(t.perm for t in enumerate_M(poset))
        assert ours == expected

    @pytest.mark.parametrize("poset", MIXED_LENGTH_POSETS, ids=MIXED_LENGTH_NAMES)
    def test_oracle_agreement_on_mixed_chain_sizes(self, poset):
        for theta in enumerate_M(poset):
            assert is_admissible(poset, theta) == is_admissible_oracle(
                poset, theta, 8
            )

    def test_example6_monotone_group(self):
        ours = sorted(t.perm for t in enumerate_M(example6()))
        assert len(ours) == 2

    def test_admissible_group_orders(self):
        assert len(enumerate_AM(crown(2))) == 8
        assert len(enumerate_AM(crown(3))) == 72
        assert len(enumerate_AM(kmn(2, 3))) == 12

    def test_admissible_matches_direct_filter(self):
        for poset in (crown(2), kmn(2, 3), example6()):
            scanned = {t.perm for t in enumerate_AM(poset)}
            filtered = {
                t.perm for t in enumerate_M(poset) if is_admissible(poset, t)
            }
            assert scanned == filtered

    def test_bound_enforced(self):
        with pytest.raises(BoundExceeded):
            list(enumerate_M(crown(5)))
        with pytest.raises(BoundExceeded):
            enumerate_AM(crown(3), bound=5)
        # raising the bound unlocks the sweep
        assert len(enumerate_AM(crown(4), bound=8)) == 2 * factorial(4) ** 2

    def test_containments(self):
        for _, poset in suite():
            if len(poset.strict_pairs) > 6:
                continue
            monotone = {t.perm for t in enumerate_M(poset)}
            admissible = {t.perm for t in enumerate_AM(poset)}
            proper = {t.perm for t in enumerate_P(poset)}
            assert proper <= admissible <= monotone

    def test_group_laws(self):
        for poset in (crown(2), star(3), fence(4), chain(3)):
            for group in (
                [t for t in enumerate_M(poset)],
                enumerate_AM(poset),
                enumerate_P(poset),
            ):
                assert brute_is_group(group)


class TestSigma:
    def test_identity_gives_all_ones(self):
        p = example6()
        sigma = build_compatible_sigma(p, identity_on(p))
        assert all(v == Fraction(1) for v in sigma.values.values())

    def test_decreasing_chain3(self):
        p = chain(3)
        theta = anti_edge_map(p)
        sigma = build_compatible_sigma(p, theta)
        assert sigma(0, 1) == Fraction(1)
        assert sigma(0, 2) == Fraction(1)
        assert sigma(1, 2) == Fraction(-1)
        # the decreasing product rule forces sigma(1,3) = -sigma(1,2)sigma(2,3)
        assert sigma(0, 2) == -sigma(0, 1) * sigma(1, 2)
        assert is_compatible(p, sigma, theta)

    def test_all_ones_incompatible_with_decreasing(self):
        p = chain(3)
        theta = anti_edge_map(p)
        ones = SignMap({pair: Fraction(1) for pair in p.strict_pairs})
        assert not is_compatible(p, ones, theta)

    def test_all_ones_compatible_with_identity(self):
        p = chain(3)
        assert is_compatible(
            p, SignMap({pair: Fraction(1) for pair in p.strict_pairs}), identity_on(p)
        )

    def test_construction_compatible_across_suite(self):
        for _, poset in suite():
            if len(poset.strict_pairs) > 6:
                continue
            for theta in enumerate_M(poset):
                sigma = build_compatible_sigma(poset, theta)
                assert is_compatible(poset, sigma, theta)

    def test_requires_monotone(self):
        p = chain(3)
        i12 = p.pair_index[(0, 1)]
        i13 = p.pair_index[(0, 2)]
        perm = list(range(3))
        perm[i12], perm[i13] = i13, i12
        with pytest.raises(PreconditionError):
            build_compatible_sigma(p, EdgeBijection(tuple(perm)))


class TestSerialization:
    def test_round_trip(self):
        p = crown(3)
        for theta in enumerate_P(p):
            data = theta.to_json(p)
            assert EdgeBijection.from_json(p, data) == theta


def test_crown_balance_agrees_with_literal_counting():
    # the accumulator behind is_admissible must match evaluating the four
    # count functions literally on each crown cycle
    import random

    from posetlie import weak_crowns

    rng = random.Random(47)
    for poset in (crown(2), crown(3), kmn(2, 3), example6()):
        size = len(poset.strict_pairs)
        thetas = [t for t in enumerate_M(poset)][:50]
        sample = [
            EdgeBijection(tuple(rng.sample(range(size), size))) for _ in range(30)
        ]
        for theta in thetas + sample:
            literal = all(
                count_stats(poset, theta, c.cycle(), z).balanced()
                for c in weak_crowns(poset)
                for z in range(poset.n)
            )
            from posetlie.bijections import _balanced_on_steps, _crown_steps

            fast = _balanced_on_steps(
                poset, theta.inverse().perm, _crown_steps(poset)
            )
            assert fast == literal
