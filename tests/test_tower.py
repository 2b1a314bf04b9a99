"""enumerate_AM's stabilizer tower against references that use no Q:
Q-preservation against the cycle-basis test on all of M, the tower and its
leaf search against M filtered by that test, and decide's verdict against a
listing-based one; then sizes that no listing reaches."""

import json
import random
import time
from math import factorial

import pytest

from helpers import (
    filtered_AM,
    listing_decision,
    mixed_length_posets,
    random_bipartite_poset,
    random_connected_poset,
)
from posetlie import (
    decide_all_proper,
    enumerate_AM,
    enumerate_M,
    is_admissible,
    parse_poset,
    preserves_cut_form,
)
from posetlie import bijections
from posetlie.bijections import _fixed_leaf
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
    poset = CASES[name]
    for theta in enumerate_M(poset, bound=len(poset.strict_pairs)):
        assert preserves_cut_form(poset, theta) == is_admissible(poset, theta), theta.perm


@pytest.mark.parametrize("name", sorted(CASES))
def test_tower_lists_the_sweep_listing(name):
    # the listing is M's, filtered by the cycle-basis test
    poset = CASES[name]
    tower = enumerate_AM(poset, bound=len(poset.strict_pairs))
    listing = filtered_AM(poset)
    assert len(tower) == len(listing)
    assert list(tower) == listing


@pytest.mark.parametrize("name", sorted(CASES))
def test_tower_listing_does_not_depend_on_the_levels_multiplied_out(name, monkeypatch):
    # from no level but the last multiplied out to the whole group
    poset = CASES[name]
    tower = enumerate_AM(poset, bound=len(poset.strict_pairs))
    listings = []
    for merged in (1, 4, 32, 10**9):
        monkeypatch.setattr(bijections, "_MERGED", merged)
        listings.append(list(tower))
    assert all(listing == listings[0] for listing in listings)
    assert listings[0] == sorted(set(listings[0])) and len(listings[0]) == len(tower)


def test_tower_of_a_tree_lists_M():
    # fence:8 is a tree, so AM = M = S(B): the tower and the sweep list
    # the same 7! elements in the same order
    poset = from_selector("fence:8")
    tower, listing = list(enumerate_AM(poset)), list(enumerate_M(poset))
    assert len(tower) == factorial(7)
    assert tower == listing


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_leaf_exists_for_every_prefix_the_listing_has(name):
    # fix the first i pairs and send pair i to t: the leaf search finds an
    # element of AM doing so exactly when filtered_AM's listing holds one
    poset = CASES[name]
    size = len(poset.strict_pairs)
    listed = [t.perm for t in filtered_AM(poset)]
    for i in range(min(size, 4)):
        for t in range(i, size):
            prefix = tuple(range(i)) + (t,)
            leaf = _fixed_leaf(poset, dict(enumerate(prefix)))
            assert (leaf is not None) == any(p[: i + 1] == prefix for p in listed)
            if leaf is not None:
                assert leaf[: i + 1] == prefix and leaf in listed


@pytest.mark.parametrize("name", sorted(CASES))
def test_decide_matches_a_listing_based_decision(name):
    poset = CASES[name]
    verdict = decide_all_proper(poset, bound=len(poset.strict_pairs))
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
