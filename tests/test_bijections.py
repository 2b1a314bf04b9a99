"""Edge bijections: monotonicity, counting, admissibility, properness,
enumerators, and compatible sign maps."""

import gc
import itertools
import random
import weakref
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
    build_compatible_sigma,
    chain_action,
    closed_semiwalks,
    count_stats,
    count_stats_row,
    count_stats_rows,
    decide_all_proper,
    edge_map_of,
    enumerate_AM,
    enumerate_M,
    enumerate_P,
    image_chain,
    in_M,
    induced_class_map,
    is_admissible,
    is_admissible_oracle,
    is_compatible,
    is_separating,
    poset_maps,
    proper_witness,
    satisfies_crown_criterion,
    support_maps,
    weak_crowns,
)
from posetlie.bijections import _crown_steps, _pack_steps, _semiwalk_steps
from posetlie.cli import _check_bound
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
from posetlie.suites import _small_suite

from helpers import (
    brute_image_chains,
    brute_is_group,
    brute_monotone,
    brute_semiwalk_admissible,
    fundamental_cycles,
    literal_balanced,
    literal_count_stats,
    literal_edge_map,
    literal_net_steps,
    mixed_length_posets,
    non_monotone_cases,
    random_connected_poset,
    unpack_steps,
)


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
        assert image_chain(p, identity_on(p), (0, 1, 2))[0] == Direction.INCREASING

    def test_flip_on_chain3_decreasing(self):
        p = chain(3)
        assert image_chain(p, anti_edge_map(p), (0, 1, 2))[0] == Direction.DECREASING

    def test_length_one_posets_are_both(self):
        import itertools

        p = crown(2)
        for perm in itertools.permutations(range(4)):
            theta = EdgeBijection(perm)
            for c in p.maximal_chains:
                assert image_chain(p, theta, c)[0] == Direction.BOTH

    def test_non_maximal_chain_rejected(self):
        p = chain(3)
        with pytest.raises(PreconditionError):
            image_chain(p, identity_on(p), (0, 1))

    def test_list_chain_accepted(self):
        p = crown(2)
        theta = identity_on(p)
        assert image_chain(p, theta, [0, 2]) == image_chain(p, theta, (0, 2))
        assert image_chain(p, theta, range(0, 3, 2)) == (Direction.BOTH, (0, 2))

    @pytest.mark.parametrize("chain", [5, None, {0, 2}, iter((0, 2)), "ab", [[0], [2]]])
    def test_non_sequence_chain_rejected(self, chain):
        p = crown(2)
        with pytest.raises(PreconditionError, match="not a sequence of element indices"):
            image_chain(p, identity_on(p), chain)

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
        "poset",
        [chain(1), chain(3), chain(4), example6(), crown(3)] + MIXED_LENGTH_POSETS,
        ids=["chain1", "chain3", "chain4", "example6", "crown3"] + MIXED_LENGTH_NAMES,
    )
    def test_matches_literal_search_on_higher_length(self, poset):
        # random permutations are almost never monotone, so every element of
        # M is checked too, with its direction and image on every chain
        import random

        rng = random.Random(43)
        size = len(poset.strict_pairs)
        thetas = [
            EdgeBijection(tuple(rng.sample(range(size), size))) for _ in range(200)
        ]
        thetas += [identity_on(poset)] + list(enumerate_M(poset))
        for theta in thetas:
            expected = brute_image_chains(poset, theta)
            assert {
                c: image_chain(poset, theta, c) for c in poset.maximal_chains
            } == expected
            assert in_M(poset, theta) == brute_monotone(poset, theta)
            if brute_monotone(poset, theta):
                assert chain_action(poset, theta) == expected
            else:
                with pytest.raises(PreconditionError):
                    chain_action(poset, theta)


@pytest.mark.parametrize(
    "poset",
    [chain(1), chain(2), crown(2), crown(3), crown(4), fence(4), fence(5), fence(6)],
    ids=["chain1", "chain2", "crown2", "crown3", "crown4", "fence4", "fence5", "fence6"],
)
def test_chain_action_matches_literal_search_on_short_chains(poset):
    # chain:1 has one chain and no pair, chain:2 one chain of one pair, and
    # the crowns and fences only two-element chains, so every permutation is
    # in M; each is gathered as a tuple of one image, or of none
    rng = random.Random(47)
    size = len(poset.strict_pairs)
    if size <= 6:
        thetas = [EdgeBijection(perm) for perm in itertools.permutations(range(size))]
    else:
        thetas = [EdgeBijection(tuple(rng.sample(range(size), size))) for _ in range(200)]
    for theta in thetas:
        assert brute_monotone(poset, theta)
        assert in_M(poset, theta)
        assert chain_action(poset, theta) == brute_image_chains(poset, theta)
    for perm in ((0,) * (size + 1), tuple(range(size + 1))):
        assert not in_M(poset, EdgeBijection(perm))
        with pytest.raises(PreconditionError, match="not a permutation of the strict pairs"):
            chain_action(poset, EdgeBijection(perm))


def test_compose_rejects_a_degree_mismatch():
    # unchecked, one order returned a perm of the shorter degree and the
    # other raised a bare IndexError
    long, short = EdgeBijection((0, 1, 2)), EdgeBijection((1, 0))
    for a, b in ((long, short), (short, long)):
        with pytest.raises(PreconditionError, match="^cannot compose bijections of degrees"):
            a.compose(b)
    assert long.compose(EdgeBijection((1, 2, 0))) == EdgeBijection((1, 2, 0))


@pytest.mark.parametrize("perm", [(0, 0, 0, 0), (0, 1, 2, 3, 4), (0, 1, 2), (0.0, 1, 2, 3)])
def test_operations_on_M_reject_non_permutations(perm):
    # crown:2 has |B| = 4: a repeated image, a bijection of degree 5, one of
    # degree 3 and one holding a float equal to an index are none of them in
    # M, and no operation defined on M answers for them or fails with
    # another error
    poset = crown(2)
    theta = EdgeBijection(perm)
    assert not in_M(poset, theta)
    for operation in (
        chain_action,
        satisfies_crown_criterion,
        is_separating,
        build_compatible_sigma,
        support_maps,
        induced_class_map,
        is_admissible,
        lambda p, t: is_admissible_oracle(p, t, 4),
        lambda p, t: image_chain(p, t, p.maximal_chains[0]),
    ):
        with pytest.raises(PreconditionError, match="not a permutation of the strict pairs"):
            operation(poset, theta)


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

    def test_element_out_of_range_rejected(self):
        # -1 would index element n-1's pairs from the end; neither is an element
        p = chain(3)
        for z in (-1, p.n):
            with pytest.raises(PreconditionError, match="^z must be an element index in range"):
                count_stats(p, identity_on(p), (0, 1, 0), z)

    def test_non_int_element_rejected(self):
        # 0.0 == 0 would pass a range check and then fail as a list index
        p = chain(3)
        for z in (0.0, 2.0):
            with pytest.raises(PreconditionError, match="^z must be an element index in range"):
                count_stats(p, identity_on(p), (0, 1, 0), z)

    def test_non_permutation_rejected(self):
        # a short perm, one that repeats a pair or one holding a float is
        # not a bijection of B
        p = chain(3)
        for perm in ((0, 1), (0, 0, 0), (0, 1, 3), (0.0, 1, 2)):
            for stats in (
                lambda theta: count_stats(p, theta, (0, 1, 0), 0),
                lambda theta: count_stats_row(p, theta, (0, 1, 0)),
            ):
                with pytest.raises(
                    PreconditionError, match="^bijection is not a permutation of the strict pairs$"
                ):
                    stats(EdgeBijection(perm))

    def test_open_walk_rejected(self):
        p = chain(3)
        for stats in (count_stats, literal_count_stats):
            # the empty walk has no first element to compare
            for walk in ((0, 1, 2), ()):
                with pytest.raises(PreconditionError, match="^walk must be closed$"):
                    stats(p, identity_on(p), walk, 0)

    def test_incomparable_step_rejected(self):
        p = crown(2)
        x1, x2, y1 = p.index("x1"), p.index("x2"), p.index("y1")
        for stats in (count_stats, literal_count_stats):
            with pytest.raises(
                PreconditionError, match="^walk steps must join comparable elements$"
            ):
                stats(p, identity_on(p), (x1, x2, x1), x1)
            # a step (u, u) joins no strict pair in either direction
            for walk in ((x1, x1), (x1, y1, y1, x1)):
                with pytest.raises(
                    PreconditionError, match="^walk steps must join comparable elements$"
                ):
                    stats(p, identity_on(p), walk, x1)
            # closedness is checked before the steps
            with pytest.raises(PreconditionError, match="walk must be closed"):
                stats(p, identity_on(p), (x1, x2, y1), x1)

    def test_matches_literal_witness_search(self):
        for poset in (crown(2), chain(4), kmn(2, 3), example6()):
            walks = closed_semiwalks(poset, 5)
            for theta in list(enumerate_M(poset))[:24]:
                for walk in walks:
                    for z in range(poset.n):
                        assert count_stats(poset, theta, walk, z) == (
                            literal_count_stats(poset, theta, walk, z)
                        )
        p = example20()
        theta = example20_bijection(p)
        walk = tuple(p.index(v) for v in ("5", "7", "6", "8", "5"))
        z = p.index("7'")
        assert literal_count_stats(p, theta, walk, z) == CountStats(0, 0, 0, 1)
        assert count_stats(p, theta, walk, z) == CountStats(0, 0, 0, 1)
        # count_stats does not ask for theta in M: on seeded random posets,
        # random permutations of the pairs exercise every step sign and hit set
        for seed in range(12):
            rng = random.Random(seed)
            poset = random_connected_poset(rng, 5 + seed % 3)
            size = len(poset.strict_pairs)
            thetas = [identity_on(poset)]
            for _ in range(4):
                perm = list(range(size))
                rng.shuffle(perm)
                thetas.append(EdgeBijection(tuple(perm)))
            walks = closed_semiwalks(poset, 4) + tuple(fundamental_cycles(poset)) + tuple(
                c.cycle() for c in weak_crowns(poset)
            )
            for theta in thetas:
                for walk in walks:
                    for z in range(poset.n):
                        assert count_stats(poset, theta, walk, z) == (
                            literal_count_stats(poset, theta, walk, z)
                        )

    def test_row_matches_literal_at_every_element(self):
        # one pass over the walk against the literal witness search at each
        # z, on closed semiwalks of length at most 5: every walk of the named
        # families, every 32nd of example:20's 19,400, and 80 drawn from each
        # of 32 seeded random posets, each with the identity and random
        # permutations
        cases = [(poset, closed_semiwalks(poset, 5)) for _, poset in suite()]
        p = example20()
        cases.append((p, closed_semiwalks(p, 5)[::32]))
        rng = random.Random(24)
        for _ in range(32):
            p = random_connected_poset(rng, rng.randint(4, 6))
            walks = closed_semiwalks(p, 5)
            cases.append((p, rng.sample(walks, min(80, len(walks)))))
        for poset, walks in cases:
            size = len(poset.strict_pairs)
            thetas = [identity_on(poset)] + [
                EdgeBijection(tuple(rng.sample(range(size), size))) for _ in range(2)
            ]
            for theta in thetas:
                for walk in walks:
                    assert count_stats_row(poset, theta, walk) == tuple(
                        literal_count_stats(poset, theta, walk, z) for z in range(poset.n)
                    )


class TestCountStatsRows:
    """count_stats_rows against count_stats_row, one walk at a time, and the
    literal witness search at every element."""

    @staticmethod
    def _cases():
        # every named family and 12 seeded random posets, each with the
        # identity and two random permutations; up to 40 closed semiwalks of
        # mixed lengths 2..5, with the first repeated at the end
        rng = random.Random(29)
        posets = [poset for _, poset in suite()]
        posets += [random_connected_poset(rng, rng.randint(4, 6)) for _ in range(12)]
        for poset in posets:
            walks = closed_semiwalks(poset, 5)
            walks = rng.sample(walks, min(40, len(walks)))
            walks.append(walks[0])
            size = len(poset.strict_pairs)
            thetas = [identity_on(poset)] + [
                EdgeBijection(tuple(rng.sample(range(size), size))) for _ in range(2)
            ]
            for theta in thetas:
                yield poset, theta, walks

    def test_rows_match_one_walk_at_a_time_and_literal(self):
        for poset, theta, walks in self._cases():
            assert len({len(w) for w in walks}) > 1  # every poset has 2- and 4-step walks
            rows = count_stats_rows(poset, theta, walks)
            assert len(rows) == len(walks)
            assert rows[-1] == rows[0]
            for walk, row in zip(walks, rows):
                assert row == count_stats_row(poset, theta, walk)
                assert row == tuple(
                    literal_count_stats(poset, theta, walk, z) for z in range(poset.n)
                )

    def test_empty_batch(self):
        for _, poset in suite():
            assert count_stats_rows(poset, identity_on(poset), []) == []
            assert count_stats_rows(poset, identity_on(poset), iter(())) == []

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_bad_walk_raises_wherever_it_sits(self, where):
        p = crown(2)
        x1, x2, y1 = p.index("x1"), p.index("x2"), p.index("y1")
        good = list(closed_semiwalks(p, 4)[:4])
        for bad, message in (
            ((x1, y1, x2), "^walk must be closed$"),
            ((), "^walk must be closed$"),
            ((x1, x2, x1), "^walk steps must join comparable elements$"),
            ((x1, y1, y1, x1), "^walk steps must join comparable elements$"),
        ):
            walks = good[:where] + [bad] + good[where:]
            with pytest.raises(PreconditionError, match=message):
                count_stats_rows(p, identity_on(p), walks)

    def test_non_permutation_raises_before_any_walk_is_read(self):
        def unread():
            raise AssertionError("a walk was read")
            yield

        p = chain(3)
        for perm in ((0, 1), (0, 0, 0), (0, 1, 3), (0.0, 1, 2)):
            with pytest.raises(
                PreconditionError, match="^bijection is not a permutation of the strict pairs$"
            ):
                count_stats_rows(p, EdgeBijection(perm), unread())


def _up_to_sign(vectors):
    """Each net step vector as the lesser of its sorted steps and theirs negated."""
    return [
        min(tuple(sorted(v)), tuple(sorted((b, -count) for b, count in v)))
        for v in vectors
    ]


def _net_step_posets():
    """The named families, example:20, and 40 seeded random posets, with the
    semiwalk length bounds each is compared at."""
    cases = [(poset, range(2, 7)) for _, poset in suite()]
    cases.append((example20(), range(2, 6)))
    rng = random.Random(23)
    for _ in range(40):
        cases.append((random_connected_poset(rng, rng.randint(4, 7)), range(2, 7)))
    return cases


class TestNetSteps:
    def test_cycle_basis_and_crown_vectors_match_literal(self):
        # each crown's vector is read off its lows and highs; it must be the
        # literal vector of its cycle, and no two crowns may share one
        for poset, _ in _net_step_posets():
            literal = [literal_net_steps(poset, c.cycle()) for c in weak_crowns(poset)]
            unpacked = unpack_steps(_crown_steps(poset))
            # the columns hold the crowns in search order, each in its
            # canonical orientation, and its steps by pair
            assert sorted(unpacked) == sorted(tuple(sorted(v)) for v in literal)
            canon = _up_to_sign(unpacked)
            assert len(set(canon)) == len(canon)

    def test_semiwalk_sweep_matches_raw_listing(self):
        # the sweep lists no walk; its vectors must be those of every raw
        # closed semiwalk, zero vectors dropped, once each up to sign
        for poset, bounds in _net_step_posets():
            for bound in bounds:
                vectors = [literal_net_steps(poset, w) for w in closed_semiwalks(poset, bound)]
                raw = set(_up_to_sign(v for v in vectors if v))
                swept = _up_to_sign(unpack_steps(_semiwalk_steps(poset, bound)))
                assert len(set(swept)) == len(swept)
                assert set(swept) == raw

    def test_sweep_grows_with_its_bound(self):
        # chain:5 has over 22 million closed semiwalks of length at most
        # 12; the sweep keeps states, not walks, and a longer bound keeps
        # every vector of a shorter one
        poset = chain(5)
        assert set(_up_to_sign(unpack_steps(_semiwalk_steps(poset, 6)))) <= set(
            _up_to_sign(unpack_steps(_semiwalk_steps(poset, 12)))
        )
        assert is_admissible_oracle(poset, identity_on(poset), 12)


class TestPackedCrownCriterion:
    def test_matches_a_literal_check_per_crown(self):
        # every crown checked at once on packed columns, against each
        # crown's literal vector checked on its own
        rng = random.Random(61)
        poset20 = example20()
        for poset, _ in _net_step_posets():
            vectors = [literal_net_steps(poset, c.cycle()) for c in weak_crowns(poset)]
            monotone = list(enumerate_M(poset))
            thetas = [identity_on(poset)]
            thetas += monotone if len(monotone) <= 200 else rng.sample(monotone, 200)
            if poset == poset20:
                thetas.append(example20_bijection(poset))
            verdicts = set()
            for theta in thetas:
                verdict = satisfies_crown_criterion(poset, theta)
                assert verdict == literal_balanced(poset, theta, vectors)
                verdicts.add(verdict)
            if poset == poset20:
                assert verdicts == {True, False}

    def test_checks_every_weak_crown(self):
        assert _crown_steps(example20()).count == len(weak_crowns(example20())) == 4067
        total = 0
        for _, poset in _small_suite(6):
            assert _crown_steps(poset).count == len(weak_crowns(poset))
            total += len(weak_crowns(poset))
        # the posets verify checks the criterion on
        assert total + 4067 == 4073

    def test_digits_widen_past_a_byte(self):
        # a vector may step over one pair up to `bound` times; its digit
        # keeps its sign and leaves the next vector's alone
        ups, downs = [[0] * 150 + [1], []], [[], [0] * 3 + [1] * 150]
        assert _pack_steps(2, 127, [[0], []], [[], [1]]).width == 1
        packed = _pack_steps(2, 153, ups, downs)
        assert packed.width == 2
        assert unpack_steps(packed) == [((0, 150), (1, -3)), ((0, 1), (1, -150))]

    def test_kmn_6x6_frontier(self):
        # 113,865 crowns, streamed into 36 packed columns
        poset = kmn(6, 6)
        swap = list(range(len(poset.strict_pairs)))
        swap[0], swap[1] = swap[1], swap[0]
        assert satisfies_crown_criterion(poset, identity_on(poset))
        assert not satisfies_crown_criterion(poset, EdgeBijection(tuple(swap)))
        assert _crown_steps(poset).count == 113865


class TestAdmissibility:
    def test_identity_everywhere(self):
        for _, poset in suite():
            assert is_admissible(poset, identity_on(poset))
            assert is_admissible_oracle(poset, identity_on(poset), 6)

    def test_oracle_bound_checked(self):
        p = chain(3)
        with pytest.raises(PreconditionError, match="^semiwalk length bound must be an int$"):
            is_admissible_oracle(p, identity_on(p), 2.5)
        with pytest.raises(PreconditionError, match="^semiwalk length bound must be at least 2$"):
            is_admissible_oracle(p, identity_on(p), 1)

    def test_example20_bijection_inadmissible(self):
        p = example20()
        theta = example20_bijection(p)
        assert not is_admissible(p, theta)
        assert not is_admissible_oracle(p, theta, 4)

    def test_oracle_matches_counts_on_raw_walks(self):
        import random

        from posetlie.bijections import _semiwalk_steps
        from posetlie.suites import _small_suite

        for _, poset in _small_suite(6):
            for theta in enumerate_M(poset):
                assert is_admissible_oracle(poset, theta, 6) == (
                    brute_semiwalk_admissible(poset, theta, 6)
                )
        rng = random.Random(83)
        for _ in range(20):
            poset = random_connected_poset(rng, rng.randint(4, 6))
            for theta in enumerate_M(poset):
                assert is_admissible_oracle(poset, theta, 5) == (
                    brute_semiwalk_admissible(poset, theta, 5)
                )
        p = example20()
        theta = example20_bijection(p)
        assert not is_admissible_oracle(p, theta, 4)
        assert not brute_semiwalk_admissible(p, theta, 4)
        # a reduction that dropped every walk would pass any bijection
        assert _semiwalk_steps(chain(3), 8).count

    def test_trees_accept_every_bijection(self):
        import itertools

        for poset in (star(3), fence(4), fence(5)):
            size = len(poset.strict_pairs)
            for perm in itertools.permutations(range(size)):
                assert is_admissible(poset, EdgeBijection(perm))

    def test_monotonicity_required(self):
        for poset, theta in non_monotone_cases().values():
            # on example:6 only the last chain, 1<3<6, is broken
            directions = [d for d, _ in brute_image_chains(poset, theta).values()]
            assert directions.index(Direction.NONE) == len(directions) - 1
            with pytest.raises(PreconditionError):
                is_admissible(poset, theta)
            with pytest.raises(PreconditionError):
                is_admissible_oracle(poset, theta, 4)
            with pytest.raises(PreconditionError):
                satisfies_crown_criterion(poset, theta)
            with pytest.raises(PreconditionError):
                is_separating(poset, theta)
            with pytest.raises(PreconditionError):
                support_maps(poset, theta)

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

    def test_a_non_permutation_of_the_pairs_has_no_witness(self):
        # crown:3 has six pairs: too few, too many, a repeat, one out of
        # range, a float equal to an index
        p = crown(3)
        for perm in [
            (0, 1, 2, 3, 4), tuple(range(7)), (0, 0, 2, 3, 4, 5), (0, 1, 2, 3, 4, 9),
            (0.0, 1, 2, 3, 4, 5),
        ]:
            assert proper_witness(p, EdgeBijection(perm)) is None

    def test_witness_is_first_inducing_map(self):
        # on every theta of M: the first map in poset_maps order whose
        # literal edge map is theta, or None; P is the set of those edge maps
        import random

        rng = random.Random(61)
        posets = [p for _, p in suite() if len(p.strict_pairs) <= 6]
        posets += [random_connected_poset(rng, rng.randint(3, 6)) for _ in range(20)]
        for poset in posets:
            maps = poset_maps(poset)
            literal = [literal_edge_map(poset, m) for m in maps]
            for theta in enumerate_M(poset):
                first = next(
                    (m for m, perm in zip(maps, literal) if perm == theta.perm), None
                )
                assert proper_witness(poset, theta) == first
            assert {t.perm for t in enumerate_P(poset)} == set(literal)

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
        # for the tower's leaf search; filter all of S(B) to compare
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
        # the |B| bound is the input check made before enumerate_M/AM run
        with pytest.raises(BoundExceeded):
            _check_bound(crown(5), None)
        with pytest.raises(BoundExceeded):
            _check_bound(crown(3), 5)
        # raising the bound lets the tower be built
        _check_bound(crown(4), 8)
        assert len(enumerate_AM(crown(4))) == 2 * factorial(4) ** 2

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
        assert all(v == Fraction(1) for v in sigma.values())

    def test_decreasing_chain3(self):
        p = chain(3)
        theta = anti_edge_map(p)
        sigma = build_compatible_sigma(p, theta)
        assert sigma[(0, 1)] == Fraction(1)
        assert sigma[(0, 2)] == Fraction(1)
        assert sigma[(1, 2)] == Fraction(-1)
        # the decreasing product rule forces sigma(1,3) = -sigma(1,2)sigma(2,3)
        assert sigma[(0, 2)] == -sigma[(0, 1)] * sigma[(1, 2)]
        assert is_compatible(p, sigma, theta)

    def test_all_ones_incompatible_with_decreasing(self):
        p = chain(3)
        theta = anti_edge_map(p)
        ones = {pair: Fraction(1) for pair in p.strict_pairs}
        assert not is_compatible(p, ones, theta)

    def test_all_ones_compatible_with_identity(self):
        p = chain(3)
        assert is_compatible(
            p, {pair: Fraction(1) for pair in p.strict_pairs}, identity_on(p)
        )

    def test_construction_compatible_across_suite(self):
        for _, poset in suite():
            if len(poset.strict_pairs) > 6:
                continue
            for theta in enumerate_M(poset):
                sigma = build_compatible_sigma(poset, theta)
                assert is_compatible(poset, sigma, theta)

    def test_requires_monotone(self):
        for poset, theta in non_monotone_cases().values():
            with pytest.raises(PreconditionError):
                build_compatible_sigma(poset, theta)


class TestSerialization:
    def test_round_trip(self):
        p = crown(3)
        for theta in enumerate_P(p):
            data = theta.to_json(p)
            assert EdgeBijection.from_json(p, data) == theta

    def test_from_json_requires_a_bijection(self):
        p = crown(3)
        data = identity_on(p).to_json(p)
        swapped = [data[0], [data[1][0], data[0][1]]] + data[2:]  # a repeated image
        cases = {
            "empty": [],
            "missing": data[1:],
            "repeated-source": data + data[:1],
            "repeated-image": swapped,
            "unknown": [[[1, 0], data[0][1]]] + data[1:],
            "not-a-pair": [5],
            "one-pair": [[[0, 3]]],
            "flat-triple": [[0, 3, 1]],
        }
        for bad in cases.values():
            with pytest.raises(PreconditionError, match="^data is not a bijection"):
                EdgeBijection.from_json(p, bad)


def test_crown_balance_agrees_with_literal_counting():
    # the accumulator behind is_admissible must match evaluating the four
    # count functions literally on each crown cycle
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

            fast = _balanced_on_steps(poset, theta.perm, _crown_steps(poset))
            assert fast == literal


def test_searches_leave_no_reference_cycles():
    # a cycle, such as a self-recursive closure, keeps the poset and the
    # search's tables alive until the cycle collector runs, long after the
    # search is done
    gc.collect()
    gc.disable()
    try:
        for make, size in ((example6, None), (crown, 3), (chain, 3)):
            poset = make() if size is None else make(size)
            ref = weakref.ref(poset)
            results = (
                decide_all_proper(poset),
                list(enumerate_AM(poset)),
                list(enumerate_M(poset)),
                poset_maps(poset),
                closed_semiwalks(poset, 4),
                weak_crowns(poset),
                satisfies_crown_criterion(poset, identity_on(poset)),
            )
            del poset, results
            assert ref() is None
            assert gc.collect() == 0
    finally:
        gc.enable()
