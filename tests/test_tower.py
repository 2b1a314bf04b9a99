"""The stabilizer tower of M, AM and P against references that use no
form: Q-preservation against a literal cycle-space test on all of M, the chain
form against a literal count of maximal chains kept by every element of a
literal filter of S(B), the AM and P towers and the leaf searches of both
forms and of P against listings made without them, proper_witness against
the literal edge maps of poset_maps, and decide's verdict against a
listing-based one; then sizes that no listing reaches."""

import itertools
import json
import random
import time
from math import factorial

import pytest

from helpers import (
    brute_monotone,
    filtered_AM,
    fundamental_cycles,
    keeps_cycle_space,
    listing_decision,
    literal_edge_map,
    mixed_length_posets,
    ordinal_sum,
    random_bipartite_poset,
    random_connected_poset,
    recursive_fixed_leaf,
)
from posetlie import (
    EdgeBijection,
    decide_all_proper,
    enumerate_AM,
    enumerate_M,
    enumerate_P,
    is_admissible,
    parse_poset,
    poset_maps,
    proper_witness,
)
from posetlie import bijections
from posetlie.bijections import _chain_form, _cut_form, _fixed_leaf, _proper_leaf
from posetlie.cli import main
from posetlie.families import from_selector, suite


def _cases():
    out = dict(suite())
    out.update(mixed_length_posets())
    for selector in ("chain:1", "chain:2", "crown:4", "example:20", "fence:6", "star:4"):
        out[selector] = from_selector(selector)
    # a length-one tree that is neither a fence nor a star
    out["spider"] = parse_poset(
        "poset v1\nelements: a b c d e f\nrelations: a<d a<e a<f b<d c<e\n"
    )
    rng = random.Random(23)
    for k in range(20):
        out["random%02d" % k] = random_connected_poset(rng, rng.randint(4, 7))
    for k in range(20):
        highs = rng.randint(3, 4)  # connected needs at least 2 + highs pairs
        out["bipartite%02d" % k] = random_bipartite_poset(rng, 3, highs, rng.randint(2 + highs, 7))
    return out


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_preserving_q_is_admissibility_on_M(name):
    # is_admissible asks whether theta keeps Q; the reference asks whether
    # theta^-1 maps each fundamental cycle to a cycle
    poset = CASES[name]
    cycles = fundamental_cycles(poset)
    for theta in enumerate_M(poset):
        assert is_admissible(poset, theta) == keeps_cycle_space(poset, theta, cycles), theta.perm


def _brute_M(poset):
    """M as the literal filter of all of S(B), in ascending order."""
    size = len(poset.strict_pairs)
    return [
        theta.perm
        for theta in map(EdgeBijection, itertools.permutations(range(size)))
        if brute_monotone(poset, theta)
    ]


def _small_posets():
    out = dict(mixed_length_posets())
    rng = random.Random(29)
    while len(out) < 24:
        poset = random_connected_poset(rng, rng.randint(4, 6))
        if len(poset.strict_pairs) <= 7:
            out["random%02d" % len(out)] = poset
    return out


SMALL = _small_posets()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_monotone_bijection_keeps_the_chain_form(name):
    # C[b, c] counts the maximal chains holding both pairs, read literally
    # off the chains' elements, and every element of M keeps it
    poset = SMALL[name]
    pairs = poset.strict_pairs
    holds = [
        {(x, y) for x in chain for y in chain if poset.lt(x, y)}
        for chain in poset.maximal_chains
    ]
    form = _chain_form(poset)
    assert form == tuple(
        tuple(sum(b in held and c in held for held in holds) for c in pairs) for b in pairs
    )
    monotone = _brute_M(poset)
    assert monotone
    for perm in monotone:
        assert all(
            form[perm[b]][perm[c]] == form[b][c]
            for b in range(len(pairs))
            for c in range(len(pairs))
        ), perm


@pytest.mark.parametrize("name", sorted(CASES))
def test_tower_lists_the_sweep_listing(name):
    # the tower lists M's own listing filtered by the cycle-space test
    poset = CASES[name]
    tower = enumerate_AM(poset)
    listing = filtered_AM(poset)
    assert len(tower) == len(listing)
    assert list(tower) == listing


@pytest.mark.parametrize("name", sorted(CASES))
def test_tower_listing_does_not_depend_on_the_levels_multiplied_out(name, monkeypatch):
    # from no level but the last multiplied out to the whole group
    poset = CASES[name]
    tower = enumerate_AM(poset)
    listings = []
    for merged in (1, 4, 32, 10**9):
        monkeypatch.setattr(bijections, "_MERGED", merged)
        listings.append(list(tower))
    assert all(listing == listings[0] for listing in listings)
    assert listings[0] == sorted(set(listings[0])) and len(listings[0]) == len(tower)


def _literal_P(poset):
    """P as the sorted distinct edge maps of every poset map, each read
    literally off the map's definition."""
    return sorted({literal_edge_map(poset, f) for f in poset_maps(poset)})


@pytest.mark.parametrize("name", sorted(CASES))
def test_p_tower_is_the_set_of_induced_perms(name):
    # P's tower lists the poset maps' edge maps, sorted and deduplicated,
    # and sifting through it is properness on every element of M
    poset = CASES[name]
    proper = enumerate_P(poset)
    induced = _literal_P(poset)
    assert [theta.perm for theta in proper] == induced
    assert proper.order == len(induced)
    for theta in enumerate_M(poset):
        assert (theta in proper) == (proper_witness(poset, theta) is not None), theta.perm


@pytest.mark.parametrize(
    "name", [name for name in sorted(CASES) if enumerate_M(CASES[name]).order <= 5040]
)
def test_proper_witness_is_the_first_inducing_map(name):
    # on every theta of M: the first map in poset_maps order whose literal
    # edge map is theta, or None
    poset = CASES[name]
    maps = poset_maps(poset)
    literal = [literal_edge_map(poset, f) for f in maps]
    for theta in enumerate_M(poset):
        first = next((f for f, perm in zip(maps, literal) if perm == theta.perm), None)
        assert proper_witness(poset, theta) == first, theta.perm


@pytest.mark.parametrize("selector", ["chain:2", "crown:3", "example:6", "fence:6"])
def test_a_bijection_of_another_degree_is_in_no_group(selector):
    poset = from_selector(selector)
    size = len(poset.strict_pairs)
    longer = EdgeBijection(tuple(range(size + 1)))
    for group in (enumerate_M(poset), enumerate_AM(poset), enumerate_P(poset)):
        assert EdgeBijection.identity(size) in group
        for other in (EdgeBijection.identity(0), EdgeBijection.identity(size - 1), longer):
            assert other not in group


def test_tower_of_a_tree_lists_M():
    # fence:8 is a tree, so AM = M = S(B): the towers of Q and of C list
    # the same 7! elements in the same order
    poset = from_selector("fence:8")
    tower, listing = list(enumerate_AM(poset)), list(enumerate_M(poset))
    assert len(tower) == factorial(7)
    assert tower == listing


# Q against AM as filtered_AM lists it, and P's leaf against the literal
# edge maps of poset_maps, on every case, and C against the literal filter
# of S(B), where |B| <= 7 keeps that filter small; the Q cases keep their
# plain ids
LEAF_CASES = (
    [pytest.param(name, "Q", id=name) for name in sorted(CASES)]
    + [
        pytest.param(name, "C", id=name + "-C")
        for name in sorted(CASES)
        if len(CASES[name].strict_pairs) <= 7
    ]
    + [pytest.param(name, "P", id=name + "-P") for name in sorted(CASES)]
)


@pytest.mark.parametrize("name, form", LEAF_CASES)
def test_a_leaf_exists_for_every_prefix_the_listing_has(name, form):
    # fix the first i pairs and send pair i to t: the leaf search of the
    # form finds an element of its group doing so exactly when the
    # reference listing holds one, and returns None where no element does
    poset = CASES[name]
    size = len(poset.strict_pairs)
    leaf_search = _fixed_leaf
    if form == "Q":
        matrix, listed = _cut_form(poset), [t.perm for t in filtered_AM(poset)]
    elif form == "C":
        matrix, listed = _chain_form(poset), _brute_M(poset)
    else:
        matrix, listed, leaf_search = _cut_form(poset), _literal_P(poset), _proper_leaf
    for i in range(min(size, 4)):
        for t in range(i, size):
            prefix = tuple(range(i)) + (t,)
            leaf = leaf_search(poset, matrix, dict(enumerate(prefix)))
            assert (leaf is not None) == any(p[: i + 1] == prefix for p in listed)
            if leaf is not None:
                assert leaf[: i + 1] == prefix and leaf in listed


def _differential_cases():
    out = dict(suite())
    out.update(mixed_length_posets())
    out["example:20"] = from_selector("example:20")
    rng = random.Random(31)
    for k in range(100):
        out["random%03d" % k] = random_connected_poset(rng, rng.randint(4, 9))
    return out


DIFFERENTIAL = _differential_cases()


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_indexed_leaf_matches_the_recursive_leaf(name):
    # every (base prefix, candidate) the tower of C or of Q asks for gets
    # the same leaf from the indexed search as from the recursive one over
    # every same-size image, and the tower built on the recursive leaves is
    # the one enumerate_M or enumerate_AM builds
    poset = DIFFERENTIAL[name]

    def both(poset, form, fixed):
        leaf = recursive_fixed_leaf(poset, form, fixed)
        assert _fixed_leaf(poset, form, fixed) == leaf, fixed
        return leaf

    for form, group in ((_chain_form(poset), enumerate_M), (_cut_form(poset), enumerate_AM)):
        reference, tower = bijections._tower(poset, form, both), group(poset)
        assert [[*level.items()] for level in reference._transversals] == [
            [*level.items()] for level in tower._transversals
        ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_decide_matches_a_listing_based_decision(name):
    poset = CASES[name]
    verdict = decide_all_proper(poset)
    assert verdict.to_json(poset) == listing_decision(poset)


@pytest.mark.parametrize("n, bound", [(6, 30), (7, 42)])
def test_decide_sizes_crowns_no_listing_reaches(n, bound, capsys):
    start = time.perf_counter()
    code = main(["decide", "--family", "crown:%d" % n, "--bound", str(bound), "--format", "json"])
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (data["am_order"], data["p_order"]) == (2 * factorial(n) ** 2, 4 * n)
    assert data["all_proper"] is False
    assert elapsed < 5.0


@pytest.mark.parametrize(
    "sizes, order",
    [((10, 10, 10), 2 * factorial(10) ** 3), ((4, 4, 4, 4, 4), 2 * factorial(4) ** 5)],
)
def test_decide_runs_past_a_thousand_maximal_chains(sizes, order):
    # the leaf search walks one maximal chain after another on a stack, so
    # 1,000 and 1,024 chains meet no recursion limit
    poset = ordinal_sum(*sizes)
    assert len(poset.maximal_chains) >= 1000
    verdict = decide_all_proper(poset)
    assert verdict.all_proper
    assert verdict.am_order == verdict.p_order == order
