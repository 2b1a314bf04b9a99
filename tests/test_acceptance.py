"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test runs its harness block, prints one PASS/FAIL line per named check,
and fails if any check fails.  All equalities are exact (integers and
rationals); there are no numeric tolerances to tune.
"""

import time

import pytest

from posetlie import suites


def _run_block(criterion, block, *args):
    started = time.time()
    results = block(*args) if args else block()
    elapsed = time.time() - started
    failed = [c for c in results if not c.ok]
    for c in results:
        line = "%s %s %s" % ("PASS" if c.ok else "FAIL", criterion, c.name)
        if c.detail:
            line += " (%s)" % c.detail
        print(line)
    print("%s: %d checks, %d failed, %.1fs" % (criterion, len(results), len(failed), elapsed))
    assert not failed, "failed checks: %s" % [c.name for c in failed]


def test_c01_crown_group_orders():
    """|AM(Cr2)| = 8 and |AM(Cr3)| = 72 = 2*(n!)^2; |P(Cr_n)| = 4n for
    n = 2..5 with a dihedral generator witness for each."""
    _run_block("criterion-1", suites.crown_orders)


def test_c02_crown_properness_dichotomy():
    """The 2-crown has only proper bijections; for n = 3, 4 a concrete
    admissible non-proper witness exists."""
    _run_block("criterion-2", suites.crown_dichotomy)


def test_c03_bipartite_all_proper():
    """K_{2,3} and K_{3,3}: every admissible bijection is proper, group
    orders 12 and 72, the latter sized by the stabilizer tower rather than
    a scan of all 9! candidates."""
    _run_block("criterion-3", suites.bipartite)


def test_c04_crownless_length_one():
    """Stars have only proper monotone bijections (order n!); fences with
    two minima and maxima yield separating, non-proper witnesses."""
    _run_block("criterion-4", suites.crownless)


def test_c05_twenty_element_example():
    """The shipped 20-element bijection is monotone, not admissible, and
    its counts at 7' along 5<7>6<8>5 are exactly (0, 0, 0, 1)."""
    _run_block("criterion-5", suites.example20_block)


def test_c06_six_element_example():
    """Two chain classes with supports {1,2,4,5} and {1,3,5,6}; the
    admissible group has exactly 2 elements, both proper."""
    _run_block("criterion-6", suites.example6_block)


def test_c07_oracle_equivalence():
    """Crown-based admissibility agrees with the length-8 semiwalk oracle
    for every monotone bijection of every suite poset with |B| <= 6."""
    _run_block("criterion-7", suites.oracle_equivalence)


def test_c08_sign_map_construction():
    """The constructed sign map is compatible for every monotone bijection
    of every suite poset with |B| <= 6."""
    _run_block("criterion-8", suites.sigma_block)


def test_c09_support_isomorphisms():
    """Support maps extract and reproduce theta for every admissible
    bijection of every suite poset with |B| <= 6."""
    _run_block("criterion-9", suites.supports_block)


def test_c10_algebra_layer():
    """Commutator subspace equals the strict-pair span, the center is the
    span of the identity, induced maps are Lie automorphisms, and the
    self-decomposition has zero remainder, on every suite poset."""
    _run_block("criterion-10", suites.algebra_block)


def test_c11_property_suites():
    """The quantified invariant suites run with zero violations."""
    _run_block("criterion-11", suites.properties_block)


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_harness_blocks_individually_green(name):
    """Every named harness block is runnable on its own and green."""
    results = suites.run_suite(name)
    assert all(c.ok for c in results)


# checks per block, in run order: a rewrite of a block's loops that drops or
# renames a check changes these
BLOCK_SIZES = {
    "crown-orders": 10,
    "crown-dichotomy": 3,
    "bipartite": 2,
    "crownless": 5,
    "example20": 6,
    "example6": 4,
    "oracle": 11,
    "sigma": 11,
    "supports": 11,
    "algebra": 48,
    "properties": 5,
}


def test_verify_all_has_a_fixed_shape():
    """`verify all` runs 116 uniquely named checks, block by block."""
    everything = suites.run_suite("all")
    assert len(everything) == sum(BLOCK_SIZES.values()) == 116
    assert len({c.name for c in everything}) == 116
    blocks = {name: suites.run_suite(name) for name in suites.SUITES}
    assert {name: len(checks) for name, checks in blocks.items()} == BLOCK_SIZES
    assert [c.name for c in everything] == [c.name for name in suites.SUITES for c in blocks[name]]
