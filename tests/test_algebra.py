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
from posetlie.families import chain, crown, example6, example20, kmn, suite

from helpers import (
    convolution_brackets,
    convolution_center,
    convolution_products,
    dense_row_reduce,
    literal_convolution,
    literal_decomposition_error,
    literal_recognizers,
    random_element,
    to_vector,
)

FIELDS = pytest.mark.parametrize(
    "field", [RATIONALS, PrimeField(3), PrimeField(2)], ids=["q", "fp3", "fp2"]
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
            strict = [e(poset, x, y).coeffs for x, y in poset.strict_pairs]
            rows, pivots = linalg.row_reduce([b.coeffs for b in basis])
            srows, spivots = linalg.row_reduce(strict)
            assert len(basis) == len(poset.strict_pairs)
            assert all(linalg.in_span(srows, spivots, b.coeffs) for b in basis)
            assert all(linalg.in_span(rows, pivots, v) for v in strict)

    def test_center_is_delta_span(self):
        for poset in (chain(2), crown(2), example6(), kmn(2, 3)):
            basis = center(poset)
            assert len(basis) == 1
            assert linalg.rank([basis[0].coeffs, delta(poset).coeffs]) == 1

    def test_center_elements_commute(self):
        rng = random.Random(29)
        for poset in (chain(3), crown(2)):
            z = center(poset)[0]
            for _ in range(5):
                f = random_element(poset, rng)
                assert bracket(z, f).is_zero()


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(3)], ids=["q", "fp3"])
def test_structure_constants_match_convolution(field):
    # the closed-form tables, e_xy e_yw = e_xw and the brackets read off it,
    # are the nonzero entries of the tables built by convolving basis
    # elements, in the same (i, j) order, so every (i, j) they omit is zero
    # there; the center taken from those brackets is the convolved one. On
    # the suite (example:6 included)
    from posetlie import algebra

    assert "example:6" in dict(suite())
    for name, poset in suite():
        for sparse, dense in (
            (algebra._basis_products(poset, field), convolution_products(poset, field)),
            (algebra._basis_brackets(poset, field), convolution_brackets(poset, field)),
        ):
            assert sparse == tuple(entry for entry in dense if entry[2]), name
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


def _seeded_maps(poset, field, rng):
    """Per sampled poset map: (base, -base, base + a central shift, base with
    one column perturbed, base with its columns shuffled, base after an inner
    automorphism), where base is the induced map, negated for an
    anti-isomorphism.  The inner automorphism's column products cancel."""
    out = []
    one = IncidenceElement.delta(poset, field)
    for lam in rng.sample(poset_maps(poset), min(3, len(poset_maps(poset)))):
        base = induced_map(poset, lam, field)
        base = base if lam.kind == MapKind.ISO else -base
        unipotent = one + IncidenceElement(
            poset, {pair: field.parse(str(rng.randint(-2, 2))) for pair in poset.strict_pairs}, field
        )
        shift = [
            one.scale(field.parse(str(rng.randint(0, 2)) if x == y else "0"))
            for x, y in poset.all_pairs
        ]
        perturbed = list(base.columns)
        k = rng.randrange(len(perturbed))
        perturbed[k] = perturbed[k] + IncidenceElement(
            poset, {rng.choice(poset.all_pairs): field.parse(str(rng.randint(1, 3)))}, field
        )
        shuffled = rng.sample(base.columns, len(base.columns))
        out.append(
            (base, -base, base + LinearMapOnIA.from_images(poset, shift, field))
            + tuple(LinearMapOnIA.from_images(poset, c, field) for c in (perturbed, shuffled))
            + (base.compose(inner_map(poset, unipotent)),)
        )
    return out


def _singular_maps(base):
    """base with its first column zero, with its last column equal to its
    first, and with its last column the sum of its first two: none is
    invertible, given at least three columns."""
    poset, field, cols = base.poset, base.field, list(base.columns)
    variants = (
        [IncidenceElement(poset, {}, field)] + cols[1:],
        cols[:-1] + cols[:1],
        cols[:-1] + [cols[0] + cols[1]],
    )
    return tuple(LinearMapOnIA.from_images(poset, c, field) for c in variants)


def _dense_rank(mapping):
    return len(dense_row_reduce([to_vector(c) for c in mapping.columns])[0])


@FIELDS
def test_recognizers_match_the_literal_definitions(field):
    # the sparse product tables against convolving every ordered pair of
    # basis elements, on seeded maps of the suite posets and on singular
    # variants of them; each verdict pattern below occurs, and invertibility
    # is the dense rank's verdict
    rng = random.Random(27)
    seen = set()
    for name, poset in suite():
        for maps in _seeded_maps(poset, field, rng):
            singular = _singular_maps(maps[0])
            for mapping in maps + singular:
                verdict = (
                    is_lie_automorphism(mapping),
                    is_algebra_automorphism(mapping),
                    is_negated_anti_automorphism(mapping),
                )
                assert verdict == literal_recognizers(mapping), name
                assert mapping.is_invertible() == (_dense_rank(mapping) == mapping.dimension)
                seen.add(verdict)
            for mapping in singular:
                # singular by the dense rank, so no verdict holds
                assert _dense_rank(mapping) < mapping.dimension, name
                assert not any(literal_recognizers(mapping)), name
    assert {(True, True, False), (True, False, True), (False, False, False)} <= seen


@FIELDS
def test_decomposition_matches_the_literal_definitions(field):
    # a central shift of phi (nu is the shift), two different proper maps
    # (nu is not central), a shuffled tau (not Lie), a perturbed phi (no
    # automorphism either way), a singular tau or phi, and phi = tau
    rng = random.Random(28)
    seen = set()
    for name, poset in suite():
        maps = _seeded_maps(poset, field, rng)
        # (tau, phi) as (shifted, base), (shuffled, base), (base, perturbed)
        # and (base, the next poset map's base)
        pairs = [(m[2], m[0]) for m in maps] + [(m[4], m[0]) for m in maps]
        pairs += [(m[0], m[3]) for m in maps] + [(a[0], b[0]) for a, b in zip(maps, maps[1:])]
        # and phi = tau, which leaves the zero remainder
        pairs += [(m[0], m[0]) for m in maps]
        # and (singular, base), (base, singular)
        singular = [(s, m[0]) for m in maps for s in _singular_maps(m[0])]
        for tau, phi in pairs + singular + [(phi, tau) for tau, phi in singular]:
            want = literal_decomposition_error(tau, phi)
            if (tau, phi) in singular:
                assert want is NotLieAutomorphism, name
            elif (phi, tau) in singular:
                assert want is PreconditionError, name
            seen.add(want)
            if want is None:
                assert check_proper_decomposition(tau, phi) == tau - phi, name
                continue
            with pytest.raises(want) as caught:
                check_proper_decomposition(tau, phi)
            assert type(caught.value) is want, name
    assert seen == {None, NotLieAutomorphism, PreconditionError, NotProperWitness}


@FIELDS
def test_example20_induced_maps_decompose_with_no_remainder(field):
    # the frontier: dimension 80, each of the 64 (anti-)automorphisms
    poset = example20()
    maps = poset_maps(poset)
    assert (len(maps), len(poset.all_pairs)) == (64, 80)
    for lam in maps:
        candidate = induced_map(poset, lam, field)
        candidate = candidate if lam.kind == MapKind.ISO else -candidate
        nu = check_proper_decomposition(candidate, candidate)
        assert all(col.is_zero() for col in nu.columns)


@FIELDS
def test_row_reduce_matches_dense_elimination(field):
    # sparse rows over int or pair column keys, ordered as their dense
    # columns, some with explicit zeros: densified, the basis, the pivots,
    # every span verdict and the rank are those of the dense elimination,
    # and the null space is ncols - rank independent vectors x with A x = 0
    rng = random.Random(30)
    zero = field.zero
    explicit_zeros = 0
    for key in (int, lambda c: divmod(c, 3)):
        for _ in range(80):
            ncols = rng.randint(1, 8)
            columns = [key(c) for c in range(ncols)]

            def vector():
                return [field.parse(str(rng.choice((0, 0, 0, 1, -1, 2)))) for _ in range(ncols)]

            def sparse(dense):
                return {c: v for c, v in zip(columns, dense) if v or rng.random() < 0.3}

            def densify(row):
                return [row.get(c, zero) for c in columns]

            rows = [vector() for _ in range(rng.randint(1, 8))]
            sparse_rows = [sparse(row) for row in rows]
            explicit_zeros += sum(not v for row in sparse_rows for v in row.values())
            copies = [dict(row) for row in sparse_rows]
            basis, pivots = linalg.row_reduce(sparse_rows)
            assert sparse_rows == copies
            want, want_pivots = dense_row_reduce(rows)
            assert [densify(b) for b in basis] == want
            assert pivots == [columns[p] for p in want_pivots]
            assert all(all(b.values()) for b in basis)
            assert linalg.rank(sparse_rows) == len(want)
            for v in rows + [vector() for _ in range(4)]:
                inside = len(dense_row_reduce(want + [v])[0]) == len(want)
                assert linalg.in_span(basis, pivots, sparse(v)) == inside
            kernel = [densify(x) for x in linalg.nullspace(sparse_rows, columns, field.one)]
            assert len(kernel) == ncols - len(want)
            assert len(dense_row_reduce(kernel)[0]) == len(kernel)
            for row in rows:
                for x in kernel:
                    assert sum((a * b for a, b in zip(row, x)), zero) == zero
    assert explicit_zeros


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

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"pairs": [[0, 7, "1/1"]]},
            {"pairs": [[0, 1]]},
            {"pairs": [[0, 1, "x"]]},
            {"pairs": [[0, -1, "1/1"]]},
            {"pairs": [[1.0, 2, "1/1"]]},
        ],
        ids=[
            "no-pairs", "element-out-of-range", "two-fields", "value-not-a-scalar",
            "negative-element", "float-element",
        ],
    )
    def test_from_json_rejects_malformed_data(self, data):
        # these used to escape as bare KeyError, IndexError, ValueError and
        # TypeError, except element -1, which was read as element 2 and kept
        # as a pair (0, -1)
        p = chain(3)
        with pytest.raises(PreconditionError, match="^data is not an incidence element"):
            IncidenceElement.from_json(p, data)
        mapped = LinearMapOnIA.identity(p).to_json()
        mapped["columns"][0] = data
        with pytest.raises(PreconditionError, match="^data is not an incidence element"):
            LinearMapOnIA.from_json(p, mapped)

    def test_from_json_keeps_invalid_parameter_for_a_pair_not_comparable(self):
        with pytest.raises(InvalidParameter, match="not comparable"):
            IncidenceElement.from_json(chain(3), {"pairs": [[2, 0, "1/1"]]})

    def test_map_from_json_rejects_data_without_columns(self):
        with pytest.raises(PreconditionError, match="^data is not a linear map's columns$"):
            LinearMapOnIA.from_json(chain(3), {})

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
