"""The exact incidence algebra: convolution, brackets, subspaces, and the
classical map constructors, checked against literal-definition oracles."""

import gc
import random
from fractions import Fraction

import pytest

from posetlie import (
    CocycleError,
    IncidenceElement,
    LinearMapOnIA,
    InvalidParameter,
    MapKind,
    NotInvertible,
    NotLieAutomorphism,
    NotProperWitness,
    PreconditionError,
    bracket,
    center,
    check_proper_decomposition,
    commutator_subspace,
    edge_map_of,
    induced_map,
    inner_map,
    invert_element,
    is_lie_automorphism,
    multiplicative_map,
    poset_maps,
)
from posetlie.algebra import is_algebra_automorphism, is_negated_anti_automorphism
from posetlie.fields import RATIONALS, PrimeField
from posetlie import linalg
from posetlie.families import chain, crown, example6, kmn, suite

from helpers import (
    convolution_brackets,
    convolution_center,
    convolution_products,
    literal_convolution,
    random_element,
)


def e(poset, x, y):
    return IncidenceElement.basis(poset, x, y)


def delta(poset):
    return IncidenceElement.delta(poset)


class TestMultiply:
    def test_single_term_convolution(self):
        p = chain(3)
        assert e(p, 0, 1) * e(p, 1, 2) == e(p, 0, 2)

    def test_mismatched_middle_gives_zero(self):
        p = chain(3)
        assert (e(p, 0, 0) * e(p, 1, 2)).is_zero()

    def test_delta_is_identity(self):
        rng = random.Random(7)
        for poset in (chain(3), example6(), crown(2)):
            d = delta(poset)
            for _ in range(5):
                f = random_element(poset, rng)
                assert d * f == f
                assert f * d == f

    def test_matches_literal_convolution(self):
        rng = random.Random(11)
        for poset in (chain(4), example6(), kmn(2, 3)):
            for _ in range(8):
                f = random_element(poset, rng)
                g = random_element(poset, rng)
                assert f * g == literal_convolution(f, g)

    def test_associativity_on_random_triples(self):
        rng = random.Random(13)
        for poset in (chain(4), example6(), crown(3)):
            for _ in range(6):
                f = random_element(poset, rng)
                g = random_element(poset, rng)
                h = random_element(poset, rng)
                assert (f * g) * h == f * (g * h)

    def test_mixed_posets_rejected(self):
        with pytest.raises(InvalidParameter):
            e(chain(2), 0, 1) * e(chain(3), 0, 1)

    def test_prime_field_arithmetic(self):
        gf5 = PrimeField(5)
        p = chain(3)
        f = IncidenceElement(p, {(0, 1): gf5.one * 3}, gf5)
        g = IncidenceElement(p, {(1, 2): gf5.one * 4}, gf5)
        product = f * g
        assert product(0, 2) == gf5.one * 2  # 12 mod 5

    def test_diagonal_radical_split_unique(self):
        rng = random.Random(17)
        for poset in (example6(), crown(2)):
            for _ in range(4):
                f = random_element(poset, rng)
                d, j = f.diagonal_part(), f.radical_part()
                assert d + j == f
                assert all(x == y for (x, y) in d.coeffs)
                assert all(x != y for (x, y) in j.coeffs)


def _random_over(poset, rng, field):
    """A random element with values in {-2, ..., 2}; over GF(3) some cancel."""
    coeffs = {
        pair: field.one * rng.randint(-2, 2)
        for pair in poset.all_pairs
        if rng.random() < 0.6
    }
    return IncidenceElement(poset, coeffs, field)


class TestOperationResults:
    """The ring operations and apply build their results without the checks
    of IncidenceElement.__init__; each result must be what the validated
    constructor makes of its coefficients, with no zero stored, and must
    have the values of the literal definitions."""

    @staticmethod
    def assert_validated(result):
        assert all(result.coeffs.values())
        assert IncidenceElement(result.poset, result.coeffs, result.field) == result

    @pytest.mark.parametrize("field", [RATIONALS, PrimeField(3)], ids=["q", "fp3"])
    def test_results_match_validated_constructor(self, field):
        rng = random.Random(29)
        posets = [p for _, p in suite() if p.n <= 5]
        assert len(posets) >= 8
        for poset in posets:
            maps = [
                induced_map(poset, m, field) for m in poset_maps(poset)[:3]
            ] + [
                LinearMapOnIA.from_images(
                    poset, [_random_over(poset, rng, field) for _ in poset.all_pairs], field
                )
            ]
            for _ in range(6):
                f = _random_over(poset, rng, field)
                g = _random_over(poset, rng, field)
                pointwise = (
                    (f + g, lambda p: f(*p) + g(*p)),
                    (f - g, lambda p: f(*p) - g(*p)),
                    (-f, lambda p: -f(*p)),
                    (f + (-f), lambda p: field.zero),
                    (f - f, lambda p: field.zero),
                )
                for result, value in pointwise:
                    self.assert_validated(result)
                    assert all(result(*p) == value(p) for p in poset.all_pairs)
                for result, literal in (
                    (f * g, literal_convolution(f, g)),
                    (bracket(f, g), literal_convolution(f, g) - literal_convolution(g, f)),
                ):
                    self.assert_validated(result)
                    assert result == literal
                for mapping in maps:
                    result = mapping.apply(f)
                    self.assert_validated(result)
                    for x, y in poset.all_pairs:
                        literal = field.zero
                        for pair, column in zip(poset.all_pairs, mapping.columns):
                            literal = literal + f(*pair) * column(x, y)
                        assert result(x, y) == literal


class TestBracket:
    def test_self_bracket_vanishes(self):
        rng = random.Random(19)
        for _ in range(5):
            f = random_element(example6(), rng)
            assert bracket(f, f).is_zero()

    def test_diagonal_with_edge(self):
        # [e_x, e_xy] = e_x e_xy - e_xy e_x = e_xy for x < y
        p = chain(2)
        assert bracket(e(p, 0, 0), e(p, 0, 1)) == e(p, 0, 1)

    def test_jacobi_identity(self):
        rng = random.Random(23)
        for poset in (chain(3), crown(2)):
            for _ in range(4):
                f = random_element(poset, rng)
                g = random_element(poset, rng)
                h = random_element(poset, rng)
                total = (
                    bracket(f, bracket(g, h))
                    + bracket(g, bracket(h, f))
                    + bracket(h, bracket(f, g))
                )
                assert total.is_zero()


class TestSubspaces:
    def test_commutator_dimensions(self):
        assert len(commutator_subspace(chain(3))) == 3
        assert len(commutator_subspace(example6())) == 9
        assert len(commutator_subspace(chain(1))) == 0

    def test_commutator_equals_radical_span(self):
        for _, poset in suite():
            if poset.n > 6:
                continue
            basis = commutator_subspace(poset)
            strict = [
                e(poset, x, y).to_vector() for x, y in poset.strict_pairs
            ]
            rows, pivots = linalg.row_reduce([b.to_vector() for b in basis])
            srows, spivots = linalg.row_reduce(strict)
            assert len(basis) == len(poset.strict_pairs)
            assert all(linalg.in_span(srows, spivots, b.to_vector()) for b in basis)
            assert all(linalg.in_span(rows, pivots, v) for v in strict)

    def test_center_is_delta_span(self):
        for poset in (chain(2), crown(2), example6(), kmn(2, 3)):
            basis = center(poset)
            assert len(basis) == 1
            assert linalg.rank([basis[0].to_vector(), delta(poset).to_vector()]) == 1

    def test_center_elements_commute(self):
        rng = random.Random(29)
        for poset in (chain(3), crown(2)):
            z = center(poset)[0]
            for _ in range(5):
                f = random_element(poset, rng)
                assert bracket(z, f).is_zero()


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(3)], ids=["q", "fp3"])
def test_structure_constants_match_convolution(field):
    # the closed-form tables, e_xy e_zw = [y = z] e_xw and the brackets read
    # off it, and the center taken from those brackets, against the tables
    # built by convolving basis elements, on the suite (example:6 included)
    from posetlie import algebra

    assert "example:6" in dict(suite())
    for name, poset in suite():
        assert algebra._basis_products(poset, field) == convolution_products(poset, field), name
        assert algebra._basis_brackets(poset, field) == convolution_brackets(poset, field), name
        assert algebra._center_cached(poset, field) == convolution_center(poset, field), name


class TestInducedMap:
    def test_identity(self):
        p = example6()
        ident = [m for m in poset_maps(p) if m.perm == tuple(range(p.n))][0]
        mapped = induced_map(p, ident)
        assert mapped.columns == LinearMapOnIA.identity(p).columns

    def test_chain2_flip(self):
        p = chain(2)
        flip = [m for m in poset_maps(p) if m.kind == MapKind.ANTI][0]
        mapped = induced_map(p, flip)
        assert mapped.apply(e(p, 0, 0)) == e(p, 1, 1)
        assert mapped.apply(e(p, 1, 1)) == e(p, 0, 0)
        assert mapped.apply(e(p, 0, 1)) == e(p, 0, 1)

    def test_crown2_rotation_has_order_four(self):
        p = crown(2)
        rotation = next(
            m
            for m in poset_maps(p)
            if m.kind == MapKind.ANTI and m.perm[0] != 0 and len(set(m.perm)) == 4
            and m.compose(m).perm != tuple(range(4))
        )
        mapped = induced_map(p, rotation)
        power = mapped
        for _ in range(3):
            power = power.compose(mapped)
        assert power.columns == LinearMapOnIA.identity(p).columns
        assert mapped.compose(mapped).columns != LinearMapOnIA.identity(p).columns

    def test_functoriality_with_kind_composition(self):
        for poset in (chain(3), crown(2), example6()):
            maps = poset_maps(poset)
            for a in maps:
                for b in maps:
                    c = a.compose(b)
                    assert c.kind == (
                        MapKind.ISO if a.kind == b.kind else MapKind.ANTI
                    )
                    lhs = induced_map(poset, a).compose(induced_map(poset, b))
                    assert lhs.columns == induced_map(poset, c).columns

    def test_restriction_matches_edge_map(self):
        poset = crown(3)
        for m in poset_maps(poset):
            mapped = induced_map(poset, m)
            edges = edge_map_of(poset, m)
            for k, pair in enumerate(poset.strict_pairs):
                image = mapped.apply(e(poset, *pair))
                expected = poset.strict_pairs[edges.perm[k]]
                assert image == e(poset, *expected)


class TestMultiplicativeMap:
    def test_all_ones_is_identity(self):
        p = example6()
        sigma = {pair: Fraction(1) for pair in p.all_pairs}
        assert multiplicative_map(p, sigma).columns == LinearMapOnIA.identity(p).columns

    def test_chain2_scale(self):
        p = chain(2)
        sigma = {(0, 0): Fraction(1), (1, 1): Fraction(1), (0, 1): Fraction(2)}
        m = multiplicative_map(p, sigma)
        assert m.apply(e(p, 0, 1)) == e(p, 0, 1).scale(Fraction(2))
        assert is_algebra_automorphism(m)

    def test_cocycle_violation(self):
        p = chain(3)
        sigma = {pair: Fraction(1) for pair in p.all_pairs}
        sigma[(0, 1)] = Fraction(2)
        sigma[(1, 2)] = Fraction(3)
        sigma[(0, 2)] = Fraction(5)
        with pytest.raises(CocycleError):
            multiplicative_map(p, sigma)

    def test_bad_diagonal(self):
        p = chain(2)
        sigma = {(0, 0): Fraction(2), (1, 1): Fraction(1), (0, 1): Fraction(2)}
        with pytest.raises(CocycleError):
            multiplicative_map(p, sigma)

    def test_zero_value(self):
        p = chain(2)
        sigma = {(0, 0): Fraction(1), (1, 1): Fraction(1), (0, 1): Fraction(0)}
        with pytest.raises(CocycleError):
            multiplicative_map(p, sigma)


class TestInnerMap:
    def test_delta_conjugation_is_identity(self):
        p = example6()
        assert inner_map(p, delta(p)).columns == LinearMapOnIA.identity(p).columns

    def test_inverse_formula(self):
        rng = random.Random(31)
        for poset in (chain(4), example6()):
            for _ in range(5):
                f = random_element(poset, rng)
                # force an invertible diagonal
                coeffs = dict(f.coeffs)
                for x in range(poset.n):
                    coeffs[(x, x)] = Fraction(rng.randint(1, 5))
                f = IncidenceElement(poset, coeffs)
                g = invert_element(f)
                assert f * g == delta(poset)
                assert g * f == delta(poset)

    def test_not_invertible(self):
        p = chain(2)
        with pytest.raises(NotInvertible):
            invert_element(e(p, 0, 0))

    def test_chain2_unipotent_conjugation(self):
        # f = delta + e_xy: conjugation fixes e_xy, moves the diagonal
        # idempotents by a multiple of e_xy (hand-expanded oracle)
        p = chain(2)
        f = delta(p) + e(p, 0, 1)
        xi = inner_map(p, f)
        assert xi.apply(e(p, 0, 0)) == e(p, 0, 0) - e(p, 0, 1)
        assert xi.apply(e(p, 1, 1)) == e(p, 1, 1) + e(p, 0, 1)
        assert xi.apply(e(p, 0, 1)) == e(p, 0, 1)

    def test_basis_conjugate_stays_on_its_pair(self):
        rng = random.Random(37)
        for poset in (chain(3), example6()):
            for _ in range(6):
                coeffs = {
                    pair: Fraction(rng.randint(-3, 3))
                    for pair in poset.all_pairs
                    if rng.random() < 0.4
                }
                for x in range(poset.n):
                    coeffs[(x, x)] = Fraction(rng.randint(1, 4))
                h = IncidenceElement(poset, coeffs)
                xi = inner_map(poset, h)
                for x, y in poset.strict_pairs:
                    image = xi.apply(e(poset, x, y))
                    if len(image.coeffs) == 1:
                        ((u, v),) = image.coeffs
                        assert (u, v) == (x, y)


class TestLieAutomorphism:
    def test_induced_maps_are_lie(self):
        for poset in (chain(3), crown(2)):
            for m in poset_maps(poset):
                candidate = induced_map(poset, m)
                if m.kind == MapKind.ANTI:
                    candidate = -candidate
                assert is_lie_automorphism(candidate)

    def test_plain_anti_map_is_not_algebra_automorphism(self):
        p = chain(3)
        anti = [m for m in poset_maps(p) if m.kind == MapKind.ANTI][0]
        mapped = induced_map(p, anti)
        assert not is_algebra_automorphism(mapped)
        assert is_negated_anti_automorphism(-mapped)

    def test_zero_map_rejected(self):
        assert not is_lie_automorphism(LinearMapOnIA.zero(chain(2)))

    @pytest.mark.parametrize("field", [RATIONALS, PrimeField(3)], ids=["q", "fp3"])
    def test_invertible_non_lie_maps_rejected(self, field):
        # both maps are invertible, so they reach the bracket comparison
        p = chain(3)
        anti = [m for m in poset_maps(p) if m.kind == MapKind.ANTI][0]
        plain_anti = induced_map(p, anti, field)
        assert plain_anti.is_invertible()
        assert not is_lie_automorphism(plain_anti)
        # e00 <-> e01 on chain:2: [e00, e01] = e01 goes to e00, but
        # [e01, e00] = -e01
        q = chain(2)
        images = {(0, 0): (0, 1), (0, 1): (0, 0), (1, 1): (1, 1)}
        swap = LinearMapOnIA.from_images(
            q,
            [IncidenceElement.basis(q, *images[pair], field) for pair in q.all_pairs],
            field,
        )
        assert swap.is_invertible()
        assert not is_lie_automorphism(swap)


class TestProperDecomposition:
    def test_trivial_decomposition(self):
        p = example6()
        for m in poset_maps(p):
            candidate = induced_map(p, m)
            if m.kind == MapKind.ANTI:
                candidate = -candidate
            nu = check_proper_decomposition(candidate, candidate)
            assert all(col.is_zero() for col in nu.columns)

    def test_central_shift_is_accepted(self):
        # tau = induced map + (each diagonal unit to delta, radical to zero)
        p = chain(3)
        iso = [m for m in poset_maps(p) if m.kind == MapKind.ISO][0]
        base = induced_map(p, iso)
        shift_cols = []
        for x, y in p.all_pairs:
            if x == y:
                shift_cols.append(delta(p))
            else:
                shift_cols.append(IncidenceElement(p, {}))
        shift = LinearMapOnIA.from_images(p, shift_cols)
        tau = base + shift
        nu = check_proper_decomposition(tau, base)
        assert nu.columns == shift.columns
        for col in nu.columns:
            assert col.is_zero() or col == delta(p)
        # tau is invertible, yet it keeps products neither way round: no phi
        with pytest.raises(PreconditionError, match="^phi is neither an automorphism"):
            check_proper_decomposition(tau, tau)

    def test_iso_vs_negated_anti_fails(self):
        p = chain(3)
        iso = [m for m in poset_maps(p) if m.kind == MapKind.ISO][0]
        anti = [m for m in poset_maps(p) if m.kind == MapKind.ANTI][0]
        tau = induced_map(p, iso)
        phi = -induced_map(p, anti)
        with pytest.raises(NotProperWitness):
            check_proper_decomposition(tau, phi)

    def test_preconditions_checked(self):
        p = chain(2)
        ident = LinearMapOnIA.identity(p)
        # a tau that is not Lie gets its own PreconditionError subtype
        with pytest.raises(NotLieAutomorphism, match="^tau is not a Lie automorphism$"):
            check_proper_decomposition(LinearMapOnIA.zero(p), ident)
        with pytest.raises(PreconditionError) as bad_phi:
            check_proper_decomposition(ident, LinearMapOnIA.zero(p))
        assert not isinstance(bad_phi.value, NotLieAutomorphism)


class TestSerialization:
    def test_element_round_trip(self):
        rng = random.Random(41)
        p = example6()
        for _ in range(5):
            f = random_element(p, rng)
            assert IncidenceElement.from_json(p, f.to_json()) == f

    def test_pair_strings_are_num_den(self):
        p = chain(2)
        f = IncidenceElement(p, {(0, 1): Fraction(-3, 7)})
        assert f.to_json() == {"pairs": [[0, 1, "-3/7"]]}

    def test_linear_map_round_trip(self):
        p = chain(3)
        iso = [m for m in poset_maps(p) if m.kind == MapKind.ISO][0]
        mapped = induced_map(p, iso)
        again = LinearMapOnIA.from_json(p, mapped.to_json())
        assert again.columns == mapped.columns


class TestLinearMapInputs:
    """A map is built from one column per basis element, each over the map's
    poset and field, and applies only to elements over them."""

    def test_from_images_rejects_a_missing_column(self):
        # unchecked, the three recognizers below met it as a bare IndexError
        p = chain(3)
        columns = LinearMapOnIA.identity(p).columns[:-1]
        with pytest.raises(InvalidParameter, match="^5 images for 6 basis elements$"):
            LinearMapOnIA.from_images(p, columns)

    def test_from_images_rejects_a_column_over_another_poset(self):
        p = chain(3)
        columns = list(LinearMapOnIA.identity(p).columns)
        columns[0] = e(chain(2), 0, 1)
        with pytest.raises(InvalidParameter, match="different posets or fields"):
            LinearMapOnIA.from_images(p, columns)

    def test_from_images_rejects_columns_over_another_field(self):
        p = chain(3)
        columns = LinearMapOnIA.identity(p, PrimeField(2)).columns
        with pytest.raises(InvalidParameter, match="different posets or fields"):
            LinearMapOnIA.from_images(p, columns)

    def test_from_json_rejects_a_missing_column(self):
        p = chain(3)
        data = LinearMapOnIA.identity(p).to_json()
        data["columns"].pop()
        with pytest.raises(InvalidParameter, match="^5 images for 6 basis elements$"):
            LinearMapOnIA.from_json(p, data)

    def test_apply_rejects_an_element_of_another_poset(self):
        # (0, 1) of chain:2 has the index of (1, 2) in chain:3's basis
        # order, where it used to land unchecked
        ident = LinearMapOnIA.identity(chain(3))
        with pytest.raises(InvalidParameter, match="different posets or fields"):
            ident.apply(e(chain(2), 0, 1))
        assert ident.apply(e(chain(3), 0, 1)) == e(chain(3), 0, 1)


def test_algebra_block_reports_a_candidate_that_is_not_lie(monkeypatch):
    # twice an induced map breaks every nonzero bracket; the block reads
    # that off check_proper_decomposition's NotLieAutomorphism and fails
    # both checks
    from posetlie import suites

    induced = suites.alg.induced_map
    monkeypatch.setattr(suites.alg, "induced_map", lambda *args: induced(*args) + induced(*args))
    results = {c.name: c.ok for c in suites.algebra_block()}
    assert results["commutator_is_radical_crown_2"]
    assert not results["induced_maps_are_lie_crown_2"]
    assert not results["self_decomposition_crown_2"]


def test_algebra_tables_leave_no_posets_in_reference_cycles(capsys):
    # the tables kept on poset.memo hold coefficient dicts, not elements
    # that point back at the poset, so no poset whose algebra was worked
    # waits in a cycle (poset -> memo -> element -> poset) for the collector
    from posetlie import Poset
    from posetlie.cli import main

    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(["verify", "algebra"]) == 0
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, (Poset, IncidenceElement))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert cyclic == []
