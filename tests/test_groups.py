"""Group verification and the structural witnesses for crown groups."""

import random
from math import factorial

import pytest

from helpers import brute_generating_set, brute_is_group
from posetlie import (
    EdgeBijection,
    NotClosed,
    StructureMismatch,
    crown_parity_witness,
    dihedral_witness,
    enumerate_AM,
    enumerate_M,
    enumerate_P,
    verify_group,
)
from posetlie.families import crown, from_selector, kmn

DIFFERENTIAL = (
    "crown:2", "crown:3", "crown:4", "kmn:2x3", "kmn:3x3", "star:4", "fence:5",
    "example:6",
)
# brute_is_group forms |G|^2 products: 1.3 M at the order of AM(crown:4)
LITERAL_LIMIT = 1152


@pytest.fixture(scope="module")
def known_groups():
    """M, AM and P of each DIFFERENTIAL poset, but not M(kmn:3x3): that is
    all 9! permutations of B, seconds to list and to verify."""
    out = {}
    for selector in DIFFERENTIAL:
        poset = from_selector(selector)
        if selector != "kmn:3x3":
            out[selector, "M"] = list(enumerate_M(poset))
        out[selector, "AM"] = enumerate_AM(poset)
        out[selector, "P"] = enumerate_P(poset)
    return out


def _check_verdict(elements):
    """verify_group agrees with brute_is_group, and a failure's witness
    (a, t) lies in the set while a.compose(t) does not."""
    perms = {t.perm for t in elements}
    try:
        verify_group(elements)
    except NotClosed as failure:
        assert not brute_is_group(elements)
        a, t = failure.witness
        assert a.perm in perms and t.perm in perms
        assert a.compose(t).perm not in perms
    else:
        assert brute_is_group(elements)


class TestVerifyGroup:
    def test_admissible_crown2_is_group_of_order_8(self):
        group = verify_group(enumerate_AM(crown(2)))
        assert group.order == 8

    def test_proper_kmn23_order_12(self):
        group = verify_group(enumerate_P(kmn(2, 3)))
        assert group.order == 12

    def test_trivial_group(self):
        group = verify_group([EdgeBijection.identity(4)])
        assert group.order == 1
        assert group.order_histogram() == {1: 1}

    def test_not_closed_detected(self):
        ident = EdgeBijection.identity(3)
        rogue = EdgeBijection((1, 2, 0))
        with pytest.raises(NotClosed) as info:
            verify_group([ident, rogue])
        assert info.value.witness is not None

    def test_missing_identity_detected(self):
        with pytest.raises(NotClosed):
            verify_group([EdgeBijection((1, 0, 2))] )

    def test_membership(self):
        group = verify_group(enumerate_P(crown(3)))
        assert EdgeBijection(group.elements[5].perm) in group
        outside = [t for t in enumerate_AM(crown(3)) if t not in group]
        assert len(outside) == 72 - 12

    def test_element_orders_divide_group_order(self):
        for poset in (crown(2), crown(3)):
            group = verify_group(enumerate_P(poset))
            for order, count in group.order_histogram().items():
                assert group.order % order == 0
                assert count > 0


class TestDifferential:
    def test_groups_match_both_oracles(self, known_groups):
        for key, elements in known_groups.items():
            group = verify_group(elements)
            assert group.elements == tuple(sorted(set(elements))), key
            assert group.generating_set() == brute_generating_set(elements), key
            if group.order <= LITERAL_LIMIT:
                assert brute_is_group(elements), key
            else:
                # M(crown:4): |B|! distinct permutations are all of S(B)
                assert group.order == factorial(group.degree), key

    def test_group_minus_one_element(self, known_groups):
        rng = random.Random(5)
        for elements in known_groups.values():
            if 1 < len(elements) <= LITERAL_LIMIT:
                identity = EdgeBijection.identity(len(elements[0].perm))
                others = [t for t in elements if t != identity]
                for gone in rng.sample(others, min(3, len(others))):
                    _check_verdict([t for t in elements if t != gone])

    def test_group_plus_a_rogue_element(self, known_groups):
        rng = random.Random(6)
        for elements in known_groups.values():
            degree = len(elements[0].perm)
            if len(elements) > LITERAL_LIMIT or len(elements) == factorial(degree):
                continue
            perms = {t.perm for t in elements}
            rogue = tuple(rng.sample(range(degree), degree))
            while rogue in perms:
                rogue = tuple(rng.sample(range(degree), degree))
            _check_verdict(list(elements) + [EdgeBijection(rogue)])

    def test_random_subsets_with_the_identity(self, known_groups):
        rng = random.Random(7)
        for elements in known_groups.values():
            if not 2 < len(elements) <= LITERAL_LIMIT:
                continue
            identity = EdgeBijection.identity(len(elements[0].perm))
            others = [t for t in elements if t != identity]
            for _ in range(4):
                k = rng.randrange(1, len(others))
                _check_verdict([identity] + rng.sample(others, k))


class TestDihedralWitness:
    def test_proper_crowns_are_dihedral(self):
        for n in (2, 3, 4, 5):
            group = verify_group(enumerate_P(crown(n)))
            assert group.order == 4 * n
            assert dihedral_witness(group, n)

    def test_admissible_crown3_is_not(self):
        group = verify_group(enumerate_AM(crown(3)))
        assert group.order == 72
        assert not dihedral_witness(group, 3)

    def test_trivial_group_fails(self):
        assert not dihedral_witness(verify_group([EdgeBijection.identity(4)]), 1)


class TestCrownParityWitness:
    def test_crown3(self):
        group = verify_group(enumerate_AM(crown(3)))
        report = crown_parity_witness(group, 3)
        assert report["order"] == 72
        assert report["preserving_order"] == 36
        assert report["index"] == 2
        assert report["odd_orbit_actions"] == 6
        assert report["even_orbit_actions"] == 6

    def test_crown4(self):
        group = verify_group(enumerate_AM(crown(4)))
        assert crown_parity_witness(group, 4) == {
            "order": 1152,
            "preserving_order": 576,
            "index": 2,
            "odd_orbit_actions": 24,
            "even_orbit_actions": 24,
        }

    def test_crown2(self):
        group = verify_group(enumerate_AM(crown(2)))
        report = crown_parity_witness(group, 2)
        assert report["order"] == 8 and report["preserving_order"] == 4

    def test_proper_crown3_mismatch(self):
        group = verify_group(enumerate_P(crown(3)))
        with pytest.raises(StructureMismatch):
            crown_parity_witness(group, 3)

    def test_json_report(self):
        group = verify_group(enumerate_P(crown(2)))
        data = group.to_json()
        assert data["order"] == 8
        assert sum(data["element_order_histogram"].values()) == 8
