"""Exact-arithmetic incidence algebra of a finite connected poset.

Elements are sparse coefficient maps over the basis {e_xy : x <= y}; linear
maps on the algebra are stored column-wise (the image of each basis
element).  Everything is a pure value: operations return fresh objects.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple

from . import linalg
from .errors import (
    CocycleError,
    InvalidParameter,
    NotInvertible,
    NotLieAutomorphism,
    NotProperWitness,
    PreconditionError,
)
from .fields import RATIONALS


class IncidenceElement:
    """A function on comparable pairs, stored sparsely (absent = zero)."""

    __slots__ = ("poset", "field", "coeffs")

    def __init__(self, poset, coeffs=None, field=RATIONALS):
        self.poset = poset
        self.field = field
        clean = {}
        if coeffs:
            for (x, y), value in coeffs.items():
                if not poset.leq(x, y):
                    raise InvalidParameter(
                        "pair (%r, %r) is not comparable" % (poset.names[x], poset.names[y])
                    )
                if value:
                    clean[(x, y)] = value
        self.coeffs = clean

    @classmethod
    def _of(cls, poset, coeffs, field):
        """An element from nonzero coefficients on comparable pairs, taken
        as they are: results of the ring operations skip __init__'s checks."""
        out = object.__new__(cls)
        out.poset, out.field, out.coeffs = poset, field, coeffs
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def basis(cls, poset, x, y, field=RATIONALS):
        return cls(poset, {(x, y): field.one}, field)

    @classmethod
    def delta(cls, poset, field=RATIONALS):
        """The identity element: 1 on every (x, x)."""
        return cls(poset, {(x, x): field.one for x in range(poset.n)}, field)

    # -- ring structure ----------------------------------------------------

    def _check_mate(self, other):
        if (
            self.poset is not other.poset and self.poset != other.poset
        ) or self.field != other.field:
            raise InvalidParameter("operands live over different posets or fields")

    def _combine(self, other, op):
        """self op other, pair by pair, for op + or -."""
        self._check_mate(other)
        coeffs = dict(self.coeffs)
        zero = self.field.zero
        for key, value in other.coeffs.items():
            total = op(coeffs.get(key, zero), value)
            if total:
                coeffs[key] = total
            else:
                del coeffs[key]  # other has no zeros, so key came from self
        return IncidenceElement._of(self.poset, coeffs, self.field)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return IncidenceElement._of(
            self.poset, {k: -v for k, v in self.coeffs.items()}, self.field
        )

    def scale(self, scalar):
        return IncidenceElement(
            self.poset, {k: scalar * v for k, v in self.coeffs.items()}, self.field
        )

    def __mul__(self, other):
        """Convolution: (fg)(x, y) = sum over x <= z <= y of f(x,z) g(z,y).

        x <= z <= y gives x <= y, so every (x, y) formed is comparable."""
        self._check_mate(other)
        by_first = {}
        for (z, y), value in other.coeffs.items():
            by_first.setdefault(z, []).append((y, value))
        coeffs = {}
        zero = self.field.zero
        for (x, z), a in self.coeffs.items():
            for y, b in by_first.get(z, ()):
                key = (x, y)
                coeffs[key] = coeffs.get(key, zero) + a * b
        return IncidenceElement._of(
            self.poset, {k: v for k, v in coeffs.items() if v}, self.field
        )

    def __eq__(self, other):
        return (
            isinstance(other, IncidenceElement)
            and self.poset == other.poset
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.poset, frozenset(self.coeffs.items())))

    def is_zero(self):
        return not self.coeffs

    def __call__(self, x, y):
        return self.coeffs.get((x, y), self.field.zero)

    def diagonal_part(self):
        return IncidenceElement(
            self.poset,
            {(x, y): v for (x, y), v in self.coeffs.items() if x == y},
            self.field,
        )

    def radical_part(self):
        return IncidenceElement(
            self.poset,
            {(x, y): v for (x, y), v in self.coeffs.items() if x != y},
            self.field,
        )

    def to_vector(self):
        return _vector(self.poset, self.coeffs, self.field)

    def to_json(self):
        return {
            "pairs": [
                [x, y, self.field.to_str(v)]
                for (x, y), v in sorted(self.coeffs.items())
            ]
        }

    @classmethod
    def from_json(cls, poset, data, field=RATIONALS):
        coeffs = {(x, y): field.parse(s) for x, y, s in data["pairs"]}
        return cls(poset, coeffs, field)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        names = self.poset.names
        terms = [
            "%s*e[%s,%s]" % (v, names[x], names[y])
            for (x, y), v in sorted(self.coeffs.items())
        ]
        return " + ".join(terms)


def bracket(f, g):
    """The commutator fg - gf."""
    return f * g - g * f


class LinearMapOnIA(NamedTuple):
    """A linear map on the incidence algebra, stored as basis-image columns."""

    poset: object
    field: object
    columns: tuple

    @classmethod
    def from_images(cls, poset, images, field=RATIONALS):
        """The map sending the k-th basis element of poset.all_pairs to
        images[k]; raises InvalidParameter unless there is one image per
        basis element, each over this poset and field."""
        out = cls(poset, field, tuple(images))
        if len(out.columns) != len(poset.all_pairs):
            raise InvalidParameter(
                "%d images for %d basis elements" % (len(out.columns), len(poset.all_pairs))
            )
        for col in out.columns:
            col._check_mate(out)
        return out

    @classmethod
    def identity(cls, poset, field=RATIONALS):
        cols = tuple(
            IncidenceElement.basis(poset, x, y, field) for (x, y) in poset.all_pairs
        )
        return cls(poset, field, cols)

    @classmethod
    def zero(cls, poset, field=RATIONALS):
        cols = tuple(IncidenceElement(poset, {}, field) for _ in poset.all_pairs)
        return cls(poset, field, cols)

    @property
    def dimension(self):
        return len(self.columns)

    def apply(self, element):
        element._check_mate(self)
        return IncidenceElement._of(self.poset, self._image(element.coeffs), self.field)

    def _image(self, coeffs):
        """The nonzero coefficients of the image of the element with these."""
        index = self.poset.all_pair_index
        zero = self.field.zero
        out = {}
        for pair, value in coeffs.items():
            for key, c in self.columns[index[pair]].coeffs.items():
                out[key] = out.get(key, zero) + value * c
        return {k: v for k, v in out.items() if v}

    def compose(self, other):
        """self after other."""
        return LinearMapOnIA(
            self.poset, self.field, tuple(self.apply(col) for col in other.columns)
        )

    def __add__(self, other):
        return LinearMapOnIA(
            self.poset,
            self.field,
            tuple(a + b for a, b in zip(self.columns, other.columns)),
        )

    def __sub__(self, other):
        return LinearMapOnIA(
            self.poset,
            self.field,
            tuple(a - b for a, b in zip(self.columns, other.columns)),
        )

    def __neg__(self):
        return LinearMapOnIA(self.poset, self.field, tuple(-c for c in self.columns))

    def is_invertible(self):
        return linalg.rank([c.to_vector() for c in self.columns]) == self.dimension

    def to_json(self):
        return {
            "basis": [[x, y] for (x, y) in self.poset.all_pairs],
            "columns": [c.to_json() for c in self.columns],
        }

    @classmethod
    def from_json(cls, poset, data, field=RATIONALS):
        columns = (IncidenceElement.from_json(poset, col, field) for col in data["columns"])
        return cls.from_images(poset, columns, field)


# -- subspaces ---------------------------------------------------------------


def _per_poset(build):
    """Cache build(poset, field) on the poset instance, keyed by (name, field).

    The tables hold coefficient dicts, not IncidenceElements: an element
    points back at its poset, which would keep the poset in a reference
    cycle through its own memo."""
    name = build.__name__

    @functools.wraps(build)
    def cached(poset, field):
        return poset.memo((name, field), build, field)

    return cached


def _vector(poset, coeffs, field):
    """Dense coefficients over the sorted basis of comparable pairs."""
    zero = field.zero
    return [coeffs.get(pair, zero) for pair in poset.all_pairs]


def _coeffs(poset, vector):
    return {pair: v for pair, v in zip(poset.all_pairs, vector) if v}


@_per_poset
def _basis_products(poset, field):
    """(i, j, coefficients of e_i e_j) for every pair of basis indices:
    e_xy e_zw is e_xw when y = z and 0 otherwise."""
    one = field.one
    pairs = poset.all_pairs
    return tuple(
        (i, j, {(x, w): one} if y == z else {})
        for i, (x, y) in enumerate(pairs)
        for j, (z, w) in enumerate(pairs)
    )


@_per_poset
def _basis_brackets(poset, field):
    """(i, j, coefficients of [e_i, e_j]) for every pair i < j of basis
    indices.  At most one of e_i e_j and e_j e_i is nonzero: both would
    need e_i = e_xy and e_j = e_yx, so x = y and i = j."""
    dim = len(poset.all_pairs)
    product = [coeffs for _, _, coeffs in _basis_products(poset, field)]

    def lie(i, j):
        return product[i * dim + j] or {k: -v for k, v in product[j * dim + i].items()}

    return tuple((i, j, lie(i, j)) for i in range(dim) for j in range(i + 1, dim))


@_per_poset
def _commutator_subspace_cached(poset, field):
    rows = [_vector(poset, lie, field) for _, _, lie in _basis_brackets(poset, field) if lie]
    basis, _ = linalg.row_reduce(rows)
    return tuple(_coeffs(poset, row) for row in basis)


def commutator_subspace(poset, field=RATIONALS):
    """Row-reduced basis of the span of all brackets of basis elements."""
    return [
        IncidenceElement._of(poset, dict(c), field)
        for c in _commutator_subspace_cached(poset, field)
    ]


@_per_poset
def _center_cached(poset, field):
    # unknown z = sum z_i e_i; constraints: [z, e_j] = 0 for every j, one row
    # per (j, pair) that some [e_i, e_j] reaches
    dim = len(poset.all_pairs)
    index = poset.all_pair_index
    zero = field.zero
    rows = {}
    for i, j, lie in _basis_brackets(poset, field):
        for pair, value in lie.items():  # and [e_j, e_i] = -[e_i, e_j]
            rows.setdefault((j, index[pair]), [zero] * dim)[i] = value
            rows.setdefault((i, index[pair]), [zero] * dim)[j] = -value
    sols = linalg.nullspace(list(rows.values()), dim, field.one)
    return tuple(_coeffs(poset, v) for v in sols)


def center(poset, field=RATIONALS):
    """Basis of {z : [z, f] = 0 for all f}; the span of delta when connected."""
    return [IncidenceElement._of(poset, dict(c), field) for c in _center_cached(poset, field)]


# -- the classical map constructors -------------------------------------------


def induced_map(poset, poset_map, field=RATIONALS):
    """The algebra (anti-)isomorphism induced by a poset (anti-)isomorphism.

    Sends e_xy to e_{f(x) f(y)} for isomorphisms and to e_{f(y) f(x)} for
    anti-isomorphisms; a permutation of the basis either way.
    """
    kind, f = poset_map.kind, poset_map.perm
    images = [
        IncidenceElement.basis(poset, *kind.pair(f, x, y), field)
        for x, y in poset.all_pairs
    ]
    return LinearMapOnIA.from_images(poset, images, field)


def multiplicative_map(poset, sigma, field=RATIONALS):
    """The diagonal automorphism scaling e_xy by sigma(x, y).

    sigma must assign a nonzero scalar to every comparable pair, with
    sigma(x, x) = 1 and sigma(x, y) sigma(y, z) = sigma(x, z).
    """
    for pair in poset.all_pairs:
        if pair not in sigma or not sigma[pair]:
            raise CocycleError("sigma must be nonzero on all comparable pairs")
    one = field.one
    for x in range(poset.n):
        if sigma[(x, x)] != one:
            raise CocycleError(
                "sigma(%s, %s) must be 1" % (poset.names[x], poset.names[x])
            )
    for x, y in poset.all_pairs:
        for z in range(poset.n):
            if poset.leq(y, z):
                if sigma[(x, y)] * sigma[(y, z)] != sigma[(x, z)]:
                    raise CocycleError(
                        "sigma(%s,%s) * sigma(%s,%s) != sigma(%s,%s)"
                        % (
                            poset.names[x], poset.names[y],
                            poset.names[y], poset.names[z],
                            poset.names[x], poset.names[z],
                        )
                    )
    images = [
        IncidenceElement(poset, {(x, y): sigma[(x, y)]}, field)
        for (x, y) in poset.all_pairs
    ]
    out = LinearMapOnIA.from_images(poset, images, field)
    if not is_algebra_automorphism(out):
        raise CocycleError("scaling map failed the automorphism check")
    return out


def invert_element(f):
    """Inverse in the incidence algebra; exists iff all f(x, x) are nonzero.

    Uses the triangular structure along a linear extension: the inverse at
    (x, y) only needs values at pairs (z, y) with z strictly above x.
    """
    poset = f.poset
    field = f.field
    for x in range(poset.n):
        if not f(x, x):
            raise NotInvertible("zero diagonal at %r" % (poset.names[x],))
    inv = {(x, x): field.one / f(x, x) for x in range(poset.n)}
    for x in sorted(range(poset.n), key=lambda x: (len(poset.below[x]), x), reverse=True):
        for y in poset.above[x]:
            acc = field.zero
            for z in range(poset.n):
                if poset.lt(x, z) and poset.leq(z, y):
                    acc = acc + f(x, z) * inv.get((z, y), field.zero)
            value = -(field.one / f(x, x)) * acc
            if value:
                inv[(x, y)] = value
    return IncidenceElement(poset, inv, field)


def inner_map(poset, f):
    """Conjugation g -> f g f^{-1} by an invertible element."""
    f_inv = invert_element(f)
    images = [
        f * IncidenceElement.basis(poset, x, y, f.field) * f_inv
        for (x, y) in poset.all_pairs
    ]
    return LinearMapOnIA.from_images(poset, images, f.field)


# -- recognizers ---------------------------------------------------------------


def _preserves_products(mapping, flip):
    columns = mapping.columns
    for i, j, product in _basis_products(mapping.poset, mapping.field):
        fa, fb = columns[i], columns[j]
        if mapping._image(product) != (fb * fa if flip else fa * fb).coeffs:
            return False
    return True


def is_algebra_automorphism(mapping):
    return mapping.is_invertible() and _preserves_products(mapping, flip=False)


def is_negated_anti_automorphism(mapping):
    """Whether -mapping is an anti-automorphism of the algebra."""
    return mapping.is_invertible() and _preserves_products(-mapping, flip=True)


def is_lie_automorphism(mapping):
    """Invertible and bracket-preserving on all pairs of basis elements."""
    if not mapping.is_invertible():
        return False
    columns = mapping.columns
    return all(
        mapping._image(lie) == bracket(columns[i], columns[j]).coeffs
        for i, j, lie in _basis_brackets(mapping.poset, mapping.field)
    )


def check_proper_decomposition(tau, phi):
    """Split tau as phi + nu and validate the central remainder.

    tau must be a Lie automorphism (NotLieAutomorphism otherwise) and phi an automorphism or the negative
    of an anti-automorphism.  Succeeds iff nu = tau - phi takes values in
    the center and kills the commutator subspace; returns nu.
    """
    if tau.poset != phi.poset or tau.field != phi.field:
        raise InvalidParameter("maps live over different posets or fields")
    if not is_lie_automorphism(tau):
        raise NotLieAutomorphism("tau is not a Lie automorphism")
    # one rank for phi, then its products kept with and without the flip
    if not phi.is_invertible() or not (
        _preserves_products(phi, flip=False) or _preserves_products(-phi, flip=True)
    ):
        raise PreconditionError(
            "phi is neither an automorphism nor the negative of an anti-automorphism"
        )
    poset, field = tau.poset, tau.field
    nu = tau - phi
    center_basis, center_pivots = _center_span(poset, field)
    for pair, col in zip(poset.all_pairs, nu.columns):
        if not linalg.in_span(center_basis, center_pivots, col.to_vector()):
            raise NotProperWitness(
                "remainder image at e[%s,%s] is not central"
                % (poset.names[pair[0]], poset.names[pair[1]])
            )
    for elem in commutator_subspace(poset, field):
        if not nu.apply(elem).is_zero():
            raise NotProperWitness("remainder does not kill the commutator subspace")
    return nu


@_per_poset
def _center_span(poset, field):
    vectors = [_vector(poset, z, field) for z in _center_cached(poset, field)]
    basis, pivots = linalg.row_reduce(vectors)
    return basis, pivots
