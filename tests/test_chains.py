"""The linked relation, chain classes, support maps, and the properness
decision."""

import random

import pytest

from posetlie import (
    EdgeBijection,
    ExtractionError,
    MapKind,
    Poset,
    PreconditionError,
    WellDefinednessError,
    chain_classes,
    decide_all_proper,
    edge_map_of,
    enumerate_AM,
    enumerate_P,
    in_M,
    induced_class_map,
    is_admissible,
    is_separating,
    linked,
    poset_maps,
    proper_witness,
    satisfies_crown_criterion,
    support_maps,
)
from posetlie.bijections import Tower
from posetlie.chains import classes_to_json
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

from helpers import (
    brute_chain_components,
    mixed_length_posets,
    non_monotone_cases,
    random_connected_poset,
)


def chain_of(poset, labels):
    return tuple(poset.index(l) for l in labels)


class TestLinked:
    def test_sharing_an_interior_element(self):
        p = example6()
        assert linked(p, chain_of(p, "124"), chain_of(p, "125"))

    def test_sharing_only_extremes(self):
        p = example6()
        assert not linked(p, chain_of(p, "125"), chain_of(p, "135"))

    def test_self_linked_iff_interior(self):
        p6 = example6()
        assert linked(p6, chain_of(p6, "124"), chain_of(p6, "124"))
        cr = crown(2)
        c = cr.maximal_chains[0]
        assert not linked(cr, c, c)

    def test_requires_maximal_chains(self):
        p = example6()
        with pytest.raises(PreconditionError):
            linked(p, (0, 1), chain_of(p, "124"))


class TestChainClasses:
    def test_example6_two_classes(self):
        p = example6()
        classes = chain_classes(p)
        assert [tuple(p.names[i] for i in c.support) for c in classes] == [
            ("1", "2", "4", "5"),
            ("1", "3", "5", "6"),
        ]

    def test_example20_two_classes(self):
        p = example20()
        classes = chain_classes(p)
        supports = [set(p.names[i] for i in c.support) for c in classes]
        assert supports[0] == {str(i) for i in range(1, 11)}
        assert supports[1] == {"%d'" % i for i in range(1, 10)} | {"10", "7''"}

    def test_chain_poset_single_class(self):
        for n in (2, 3, 5):
            assert len(chain_classes(chain(n))) == 1

    def test_length_one_posets_have_singleton_classes(self):
        for poset in (crown(3), kmn(2, 3), star(4)):
            classes = chain_classes(poset)
            assert len(classes) == len(poset.maximal_chains)
            assert all(len(c.chains) == 1 for c in classes)

    def test_partition_properties(self):
        rng = random.Random(71)
        posets = [example6(), example20(), chain(4), crown(3)]
        posets += list(mixed_length_posets().values())
        posets += [random_connected_poset(rng, rng.randint(5, 8)) for _ in range(40)]
        for poset in posets:
            classes = chain_classes(poset)
            assert [c.chains for c in classes] == brute_chain_components(poset)
            all_chains = [c for cls in classes for c in cls.chains]
            assert sorted(all_chains) == list(poset.maximal_chains)
            covered = {x for cls in classes for x in cls.support}
            assert covered == set(range(poset.n))
            extremal = set(poset.min_set) | set(poset.max_set)
            for i, a in enumerate(classes):
                for b in classes[i + 1:]:
                    assert set(a.support) & set(b.support) <= extremal

    def test_json_report(self):
        p = example6()
        report = classes_to_json(p, chain_classes(p))
        assert report["classes"][0]["support"] == ["1", "2", "4", "5"]
        assert report["classes"][1]["chains"] == [["1", "3", "5"], ["1", "3", "6"]]


class TestInducedClassMap:
    def test_identity(self):
        p = example6()
        ident = EdgeBijection.identity(len(p.strict_pairs))
        assert induced_class_map(p, ident) == {0: 0, 1: 1}

    def test_example6_mirror_swaps(self):
        p = example6()
        mirror = next(
            m for m in poset_maps(p) if m.perm != tuple(range(p.n))
        )
        theta = edge_map_of(p, mirror)
        assert induced_class_map(p, theta) == {0: 1, 1: 0}

    def test_example20_swap(self):
        p = example20()
        theta = example20_bijection(p)
        assert induced_class_map(p, theta) == {0: 1, 1: 0}

    def test_requires_monotone(self):
        for poset, theta in non_monotone_cases().values():
            with pytest.raises(PreconditionError):
                induced_class_map(poset, theta)
            with pytest.raises(PreconditionError):
                satisfies_crown_criterion(poset, theta)
            with pytest.raises(PreconditionError):
                is_separating(poset, theta)
            with pytest.raises(PreconditionError):
                support_maps(poset, theta)

    def test_total_and_bijective_for_admissible(self):
        for _, poset in suite():
            if len(poset.strict_pairs) > 6:
                continue
            k = len(chain_classes(poset))
            for theta in enumerate_AM(poset):
                mapping = induced_class_map(poset, theta)
                assert sorted(mapping) == list(range(k))
                assert sorted(mapping.values()) == list(range(k))

    def test_class_map_rejects_ill_defined_actions(self):
        # no theta in M acts like these (see the raise sites); the chain
        # actions are written by hand to reach each check
        from posetlie import Direction
        from posetlie.chains import _class_map

        p = example6()
        classes = chain_classes(p)
        a, b = classes[0].chains
        c, d = classes[1].chains
        up, down = Direction.INCREASING, Direction.DECREASING
        cases = (
            ({a: (up, a), b: (down, b), c: (up, c), d: (up, d)},
             "direction is not constant on a chain class"),
            ({a: (up, a), b: (up, c), c: (up, c), d: (up, d)},
             "chains of one class map into 2 classes"),
            ({a: (up, a), b: (up, b), c: (up, a), d: (up, b)},
             "induced class map is not a bijection"),
        )
        for action, message in cases:
            with pytest.raises(WellDefinednessError, match=message):
                _class_map(classes, action)


class TestSupportMaps:
    def test_identity_gives_identity_on_supports(self):
        p = example6()
        ident = EdgeBijection.identity(len(p.strict_pairs))
        for sm in support_maps(p, ident):
            assert sm.source == sm.target
            assert all(x == y for x, y in sm.mapping)

    def test_example6_mirror(self):
        p = example6()
        mirror = next(m for m in poset_maps(p) if m.perm != tuple(range(p.n)))
        theta = edge_map_of(p, mirror)
        maps = support_maps(p, theta)
        assert [ (sm.source, sm.target) for sm in maps ] == [(0, 1), (1, 0)]
        first, second = maps
        # the two extracted maps invert each other
        assert {(b, a) for a, b in first.mapping} == set(second.mapping)
        # and each is the restriction of the mirror automorphism
        for sm in maps:
            for x, y in sm.mapping:
                assert mirror.perm[x] == y

    def test_example20_extraction_impossible(self):
        p = example20()
        # 7 is maximal; chains meeting only there map onto chains ending at
        # 7' and at 7''
        with pytest.raises(ExtractionError, match="'7' gets two images"):
            support_maps(p, example20_bijection(p))

    @pytest.mark.parametrize(
        "relations, perm, message",
        [
            # the lone chains e2<e5 and e2<e6 swap, while the class of
            # e0<e1<e6 and e2<e3<e4, whose support holds e2 and e6, is fixed
            (
                [(0, 1), (0, 3), (0, 4), (0, 6), (1, 3), (1, 4), (1, 6), (2, 3),
                 (2, 4), (2, 5), (2, 6), (3, 4)],
                (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 9, 11),
                r"disagrees with the extracted map on \(e2, e6\)",
            ),
            # e1<e2<e5 and e1<e2<e6 swap, so e5 and e6 do; the lone chain
            # e0<e5 stays, and e0 < e5 while e0 and e6 are incomparable
            (
                [(0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                 (2, 3), (2, 4), (2, 5), (2, 6), (3, 4)],
                (0, 1, 2, 3, 4, 5, 7, 6, 8, 9, 11, 10, 12),
                "not order-preserving",
            ),
            (
                [(0, 1), (0, 3), (0, 5), (0, 6), (0, 7), (1, 3), (1, 5), (1, 6),
                 (1, 7), (2, 5), (2, 7), (4, 5), (4, 6), (4, 7), (5, 7)],
                (14, 10, 8, 13, 4, 9, 6, 11, 2, 7, 3, 5, 12, 1, 0),
                "not order-reversing",
            ),
        ],
        ids=["disagrees", "not-preserving", "not-reversing"],
    )
    def test_monotone_outside_am_reaches_the_order_checks(self, relations, perm, message):
        # a pair of the support on no chain of the class is not tied to the
        # map read off the class's chains
        n = 1 + max(map(max, relations))
        poset = Poset.from_relations(["e%d" % i for i in range(n)], relations)
        theta = EdgeBijection(perm)
        assert in_M(poset, theta) and not is_admissible(poset, theta)
        with pytest.raises(ExtractionError, match=message):
            support_maps(poset, theta)

    def test_admissible_always_extracts_off_family(self):
        for poset in mixed_length_posets().values():
            classes = chain_classes(poset)
            for theta in enumerate_AM(poset):
                maps = support_maps(poset, theta)
                assert len(maps) == len(classes)

    def test_admissible_always_extracts(self):
        for _, poset in suite():
            if len(poset.strict_pairs) > 6:
                continue
            classes = chain_classes(poset)
            for theta in enumerate_AM(poset):
                maps = support_maps(poset, theta)
                assert len(maps) == len(classes)
                for sm in maps:
                    lam = dict(sm.mapping)
                    support = classes[sm.source].support
                    assert sorted(lam) == list(support)
                    for x in support:
                        for y in support:
                            if poset.lt(x, y):
                                expected = (
                                    (lam[y], lam[x])
                                    if sm.kind == MapKind.ANTI
                                    else (lam[x], lam[y])
                                )
                                assert theta.apply_pair(poset, (x, y)) == expected


class TestDecideAllProper:
    def test_crown2_true(self):
        verdict = decide_all_proper(crown(2))
        assert verdict.all_proper and verdict.counterexample is None
        assert verdict.am_order == verdict.p_order == 8

    def test_crown3_false_with_witness(self):
        poset = crown(3)
        verdict = decide_all_proper(poset)
        assert not verdict.all_proper
        assert verdict.am_order == 72 and verdict.p_order == 12
        witness = verdict.counterexample
        assert witness is not None
        assert proper_witness(poset, witness) is None

    def test_kmn23_true(self):
        verdict = decide_all_proper(kmn(2, 3))
        assert verdict.all_proper and verdict.am_order == 12

    def test_kmn24_true(self):
        # m < n leaves no anti-automorphisms: both groups have order m!n!
        verdict = decide_all_proper(kmn(2, 4))
        assert verdict.all_proper and verdict.am_order == verdict.p_order == 48

    def test_decides_past_the_cli_bound(self):
        # the library takes only the poset: |B| = 60 and 12 are past the
        # CLI's default bound of 9
        verdict = decide_all_proper(example20())
        assert (verdict.am_order, verdict.p_order) == (256, 64)
        assert not verdict.all_proper
        verdict = decide_all_proper(crown(6))
        assert (verdict.am_order, verdict.p_order) == (2 * 720**2, 24)
        assert not verdict.all_proper

    def test_single_class_reported_and_sufficient(self):
        for poset in (chain(3), chain(4)):
            verdict = decide_all_proper(poset)
            assert verdict.class_count == 1
            assert verdict.single_class_sufficient
            assert verdict.all_proper

    def test_example6_two_classes_yet_proper(self):
        verdict = decide_all_proper(example6())
        assert verdict.class_count == 2
        assert not verdict.single_class_sufficient
        assert verdict.all_proper

    @pytest.mark.parametrize(
        "poset",
        [crown(3), crown(4), fence(6), fence(8), kmn(2, 5), example20()],
        ids=["crown3", "crown4", "fence6", "fence8", "kmn2x5", "example20"],
    )
    def test_witness_is_least_admissible_non_proper(self, poset):
        admissible = {t.perm for t in enumerate_AM(poset)}
        proper = {t.perm for t in enumerate_P(poset)}
        verdict = decide_all_proper(poset)
        witness = verdict.counterexample
        # kmn:2x5 is all proper: no witness
        assert (None if witness is None else witness.perm) == min(
            admissible - proper, default=None
        )
        assert (verdict.am_order, verdict.p_order) == (len(admissible), len(proper))

    def test_proper_outside_admissible_is_an_error(self, monkeypatch):
        from posetlie import chains

        # a P whose transversal holds a bijection of M outside AM
        poset = example20()
        theta = example20_bijection(poset).perm
        i = next(b for b, t in enumerate(theta) if b != t)
        identity = tuple(range(len(theta)))
        levels = [{k: identity} for k in range(i)] + [{i: identity, theta[i]: theta}]
        monkeypatch.setattr(chains, "enumerate_P", lambda p: Tower(len(theta), levels))
        with pytest.raises(WellDefinednessError, match="escaped the admissible group"):
            decide_all_proper(poset)

    def test_json_shape(self):
        poset = crown(3)
        data = decide_all_proper(poset).to_json(poset)
        assert data["all_proper"] is False
        assert data["am_order"] == 72
        assert isinstance(data["counterexample"], list)
