"""Quantified structural checks: each is verified exhaustively, over every
bijection of posets small enough to list, rather than by sampling."""

import random

from posetlie import (
    CountStats,
    Direction,
    closed_semiwalks,
    count_stats,
    edge_map_of,
    enumerate_AM,
    enumerate_M,
    enumerate_P,
    image_chain,
    in_M,
    is_admissible,
    poset_maps,
)
from posetlie import bijections, suites
from posetlie.bijections import EdgeBijection
from posetlie.families import chain, crown, example6, fence, kmn, suite


def small_suite(max_basis=6):
    return [(n, p) for n, p in suite() if len(p.strict_pairs) <= max_basis]


def test_shared_pair_of_opposite_chains_spans_both():
    # two comparable elements shared by an increasing and a decreasing chain
    # must be the common minimum and the common maximum of both chains
    for _, poset in small_suite():
        for theta in enumerate_M(poset):
            dirs = {c: image_chain(poset, theta, c)[0] for c in poset.maximal_chains}
            increasing = [
                c for c, d in dirs.items()
                if d in (Direction.INCREASING, Direction.BOTH)
            ]
            decreasing = [
                c for c, d in dirs.items()
                if d in (Direction.DECREASING, Direction.BOTH)
            ]
            for c1 in increasing:
                for c2 in decreasing:
                    shared = set(c1) & set(c2)
                    for x in shared:
                        for y in shared:
                            if poset.lt(x, y):
                                assert x == c1[0] == c2[0]
                                assert y == c1[-1] == c2[-1]


def test_shared_element_of_opposite_chains_is_extremal():
    for _, poset in small_suite():
        extremal = set(poset.min_set) | set(poset.max_set)
        for theta in enumerate_M(poset):
            dirs = {c: image_chain(poset, theta, c)[0] for c in poset.maximal_chains}
            increasing = [
                c for c, d in dirs.items()
                if d in (Direction.INCREASING, Direction.BOTH)
            ]
            decreasing = [
                c for c, d in dirs.items()
                if d in (Direction.DECREASING, Direction.BOTH)
            ]
            for c1 in increasing:
                for c2 in decreasing:
                    assert set(c1) & set(c2) <= extremal


def test_counting_identity_shift_and_reversal():
    rng = random.Random(5)
    for poset in (crown(2), chain(3), kmn(2, 3)):
        size = len(poset.strict_pairs)
        thetas = [EdgeBijection(tuple(rng.sample(range(size), size))) for _ in range(10)]
        thetas.append(EdgeBijection.identity(size))
        walks = closed_semiwalks(poset, 5)
        for theta in thetas:
            for walk in walks:
                body = walk[:-1]
                shifted = body[1:] + (body[0], body[1])
                reverse = walk[::-1]
                for z in range(poset.n):
                    base = count_stats(poset, theta, walk, z)
                    assert count_stats(poset, theta, shifted, z) == base
                    assert count_stats(poset, theta, reverse, z) == CountStats(
                        base.s_minus, base.s_plus, base.t_minus, base.t_plus
                    )


def test_monotone_run_collapse_preserves_differences():
    for poset in (chain(3), chain(4), example6()):
        walks = closed_semiwalks(poset, 6)
        for theta in enumerate_M(poset):
            for walk in walks:
                for k in range(len(walk) - 2):
                    a, b, c = walk[k], walk[k + 1], walk[k + 2]
                    monotone_run = (poset.lt(a, b) and poset.lt(b, c)) or (
                        poset.lt(c, b) and poset.lt(b, a)
                    )
                    if not monotone_run:
                        continue
                    collapsed = walk[: k + 1] + walk[k + 2:]
                    for z in range(poset.n):
                        full = count_stats(poset, theta, walk, z)
                        short = count_stats(poset, theta, collapsed, z)
                        assert full.s_plus - full.t_plus == short.s_plus - short.t_plus
                        assert (
                            full.s_minus - full.t_minus
                            == short.s_minus - short.t_minus
                        )


def test_minimal_start_repeats_on_semiwalks_for_admissible():
    # preimage pairs along a closed semiwalk: a minimal start index that
    # appears once would unbalance the counting identity
    for _, poset in small_suite(5):
        walks = closed_semiwalks(poset, 6)
        min_set = set(poset.min_set)
        for theta in enumerate_AM(poset):
            inv = theta.inverse()
            for walk in walks:
                starts = []
                for i in range(len(walk) - 1):
                    u, v = walk[i], walk[i + 1]
                    edge = (u, v) if poset.lt(u, v) else (v, u)
                    starts.append(inv.apply_pair(poset, edge)[0])
                for i, x in enumerate(starts):
                    if x in min_set:
                        assert any(x == y for j, y in enumerate(starts) if j != i)


def test_crown_admissibility_is_the_parity_criterion():
    poset = crown(3)
    chains = poset.maximal_chains

    def parity(edge):
        x, y = edge
        return "odd" if y - 3 == x else "even"

    for theta in enumerate_M(poset):
        opposite = True
        for i in range(len(chains)):
            for j in range(i + 1, len(chains)):
                if set(chains[i]) & set(chains[j]):
                    pi = parity(image_chain(poset, theta, chains[i])[1])
                    pj = parity(image_chain(poset, theta, chains[j])[1])
                    if pi == pj:
                        opposite = False
        assert is_admissible(poset, theta) == opposite


def test_proper_group_size_matches_symmetry_group():
    for _, poset in suite():
        proper = enumerate_P(poset)
        if poset.n > 2:
            assert len(proper) == len(poset_maps(poset))
    # the two-element chain is the documented exception: both symmetries
    # restrict to the identity on the single basis pair
    two = chain(2)
    assert len(enumerate_P(two)) == 1
    assert len(poset_maps(two)) == 2


def test_induced_bijections_of_symmetries_are_monotone_and_admissible():
    for _, poset in small_suite():
        for lam in poset_maps(poset):
            theta = edge_map_of(poset, lam)
            assert in_M(poset, theta)
            assert is_admissible(poset, theta)


def test_fence_monotone_group_is_symmetric_group():
    # length-one posets: every edge bijection is monotone
    poset = fence(5)
    count = sum(1 for _ in enumerate_M(poset))
    assert count == 24


# -- the properties block and its count_stats_rows oracle ------------------------


def _monotone_runs(poset, walk):
    for k in range(len(walk) - 2):
        a, b, c = walk[k], walk[k + 1], walk[k + 2]
        if (poset.lt(a, b) and poset.lt(b, c)) or (poset.lt(c, b) and poset.lt(b, a)):
            yield k


def _literal_block_inputs():
    """The (poset number, perm, walk, z) inputs that the literal shift,
    reversal and run-collapse loops of the properties block hand to
    count_stats, numbering the distinct posets in the order the block first
    builds them: chain:3, which both loops use, is one poset."""
    inputs = set()
    numbers = {}
    for poset in (crown(2), chain(3), kmn(2, 3)):
        number = numbers.setdefault(poset, len(numbers))
        walks = closed_semiwalks(poset, 5)
        for theta in list(enumerate_M(poset))[:24]:
            for walk in walks:
                body = walk[:-1]
                for w in (walk, body[1:] + body[:1] + (body[1],), walk[::-1]):
                    inputs.update((number, theta.perm, w, z) for z in range(poset.n))
    for poset in (chain(3), chain(4), example6()):
        number = numbers.setdefault(poset, len(numbers))
        walks = closed_semiwalks(poset, 6)
        for theta in enumerate_M(poset):
            for walk in walks:
                for k in _monotone_runs(poset, walk):
                    for w in (walk, walk[: k + 1] + walk[k + 2:]):
                        inputs.update((number, theta.perm, w, z) for z in range(poset.n))
    return inputs


def _properties_with(monkeypatch, fake):
    """Run the properties block with bijections.count_stats_rows replaced by
    one answering each walk of a batch with fake(real, poset, theta, walk),
    where real(poset, theta, walk) is the true row; returns its checks by
    name."""
    real_rows = bijections.count_stats_rows

    def real(poset, theta, walk):
        return real_rows(poset, theta, (walk,))[0]

    monkeypatch.setattr(
        bijections, "count_stats_rows",
        lambda poset, theta, walks: [fake(real, poset, theta, walk) for walk in walks],
    )
    return {c.name: c.ok for c in suites.properties_block()}


def test_properties_block_asks_the_oracle_each_input_once(monkeypatch):
    posets = {}  # id -> (number, poset); holding the poset keeps its id unique
    calls = []
    batches = []
    real_rows = bijections.count_stats_rows

    def record(poset, theta, walks):
        number = posets.setdefault(id(poset), (len(posets), poset))[0]
        batches.append((number, theta.perm))
        calls.extend((number, theta.perm, walk) for walk in walks)
        return real_rows(poset, theta, walks)

    monkeypatch.setattr(bijections, "count_stats_rows", record)
    checks = {c.name: c.ok for c in suites.properties_block()}
    assert all(checks.values())
    literal = _literal_block_inputs()
    assert len(literal) == 32172
    # one row per (poset, theta, walk) covers every z the literal loops ask,
    # and each (poset, theta) asks for its rows in one batch
    expected = {(number, perm, walk) for number, perm, walk, _ in literal}
    assert len(expected) == 6656
    assert set(calls) == expected
    assert len(calls) == len(expected)
    assert set(batches) == {(number, perm) for number, perm, _ in expected}
    assert len(batches) == len(set(batches))


def test_properties_block_sees_a_start_dependent_oracle(monkeypatch):
    def by_start(real, poset, theta, walk):
        return tuple(
            stats._replace(s_plus=stats.s_plus + walk[0]) for stats in real(poset, theta, walk)
        )

    checks = _properties_with(monkeypatch, by_start)
    assert {name for name, ok in checks.items() if not ok} == {
        "identity_shift_reversal_invariance"
    }


def test_properties_block_sees_an_oracle_that_skips_a_run_step(monkeypatch):
    def skip_middle(real, poset, theta, walk):
        # the literal counts at every z with the step leaving the middle of
        # the walk's first monotone run left out
        skipped = next(_monotone_runs(poset, walk), None)
        if skipped is None:
            return real(poset, theta, walk)
        row = []
        for z in range(poset.n):
            s_hits = {theta.perm[poset.pair_index[z, w]] for w in poset.above[z]}
            t_hits = {theta.perm[poset.pair_index[w, z]] for w in poset.below[z]}
            counts = {"s_plus": 0, "s_minus": 0, "t_plus": 0, "t_minus": 0}
            for k, (u, v) in enumerate(zip(walk, walk[1:])):
                if k == skipped + 1:
                    continue
                up = poset.lt(u, v)
                sign = "plus" if up else "minus"
                pair = poset.pair_index[(u, v) if up else (v, u)]
                counts["s_" + sign] += pair in s_hits
                counts["t_" + sign] += pair in t_hits
            row.append(CountStats(**counts))
        return tuple(row)

    checks = _properties_with(monkeypatch, skip_middle)
    # which step is skipped depends on where the walk starts, so the shift
    # check sees the fake too; the checks that read no counts do not
    assert {name for name, ok in checks.items() if not ok} == {
        "identity_shift_reversal_invariance",
        "run_collapse_invariance",
    }


def test_incdec_section_reads_each_thetas_directions(monkeypatch):
    # a chain_action reporting BOTH everywhere makes every chain both an
    # increasing and a decreasing one, and a chain of three or more elements
    # shares a non-spanning pair and a middle element with itself
    real = bijections.chain_action
    monkeypatch.setattr(
        bijections, "chain_action",
        lambda poset, theta: {
            c: (Direction.BOTH, image) for c, (_, image) in real(poset, theta).items()
        },
    )
    checks = {c.name: c.ok for c in suites.properties_block()}
    assert not checks["incdec_shared_pair_is_span"]
    assert not checks["incdec_shared_element_extremal"]
