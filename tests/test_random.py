"""Seeded random-poset sweeps: the named-family tests again, off-family."""

import random

import pytest

from posetlie import (
    EdgeBijection,
    build_compatible_sigma,
    center,
    commutator_subspace,
    enumerate_M,
    is_admissible,
    is_admissible_oracle,
    is_compatible,
    poset_maps,
)
from posetlie import linalg
from posetlie.algebra import IncidenceElement

from helpers import (
    brute_monotone,
    brute_poset_maps,
    random_bipartite_poset,
    random_connected_poset,
)


def sample(seed, count, n):
    rng = random.Random(seed)
    return [random_connected_poset(rng, n) for _ in range(count)]


POSETS = sample(101, 8, 4) + sample(202, 8, 5) + sample(303, 4, 6)


@pytest.mark.parametrize("poset", POSETS, ids=range(len(POSETS)))
def test_symmetries_match_brute_force(poset):
    ours = sorted((m.kind.value, m.perm) for m in poset_maps(poset))
    assert ours == brute_poset_maps(poset)


@pytest.mark.parametrize("poset", POSETS, ids=range(len(POSETS)))
def test_algebra_subspaces(poset):
    assert len(commutator_subspace(poset)) == len(poset.strict_pairs)
    centre = center(poset)
    assert len(centre) == 1
    delta = IncidenceElement.delta(poset)
    assert linalg.rank([centre[0].coeffs, delta.coeffs]) == 1


@pytest.mark.parametrize(
    "poset",
    [p for p in POSETS if len(p.strict_pairs) <= 6],
    ids=range(len([p for p in POSETS if len(p.strict_pairs) <= 6])),
)
def test_monotone_enumeration_matches_raw_filter(poset):
    import itertools

    size = len(poset.strict_pairs)
    expected = sorted(
        perm
        for perm in itertools.permutations(range(size))
        if brute_monotone(poset, EdgeBijection(perm))
    )
    assert sorted(t.perm for t in enumerate_M(poset)) == expected


@pytest.mark.parametrize(
    "poset",
    [p for p in POSETS if len(p.strict_pairs) <= 6],
    ids=range(len([p for p in POSETS if len(p.strict_pairs) <= 6])),
)
def test_admissibility_oracle_and_sigma(poset):
    for theta in enumerate_M(poset):
        assert is_admissible(poset, theta) == is_admissible_oracle(poset, theta, 6)
        sigma = build_compatible_sigma(poset, theta)
        assert is_compatible(poset, sigma, theta)


@pytest.mark.parametrize(
    "poset",
    [p for p in POSETS if len(p.strict_pairs) <= 6],
    ids=range(len([p for p in POSETS if len(p.strict_pairs) <= 6])),
)
def test_support_maps_extract_for_admissible(poset):
    from posetlie import chain_classes, enumerate_AM, support_maps

    classes = chain_classes(poset)
    for theta in enumerate_AM(poset):
        assert len(support_maps(poset, theta)) == len(classes)


def test_random_bipartite_poset_rejects_pairs_too_few_to_connect():
    # 3 + 4 elements need 6 pairs to be connected, so no sample of 5 is
    with pytest.raises(ValueError):
        random_bipartite_poset(random.Random(0), 3, 4, 5)
