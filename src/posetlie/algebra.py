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
        """Dense coefficients over the sorted basis of comparable pairs."""
        zero = self.field.zero
        return [self.coeffs.get(pair, zero) for pair in self.poset.all_pairs]

    def to_json(self):
        return {
            "pairs": [
                [x, y, self.field.to_str(v)]
                for (x, y), v in sorted(self.coeffs.items())
            ]
        }

    @classmethod
    def from_json(cls, poset, data, field=RATIONALS):
        """The inverse of to_json: PreconditionError on malformed data,
        InvalidParameter for a pair that is not comparable."""
        elements = range(poset.n)
        try:
            coeffs = {(x, y): field.parse(text) for x, y, text in data["pairs"]}
            if not all(x in elements and y in elements for x, y in coeffs):
                raise ValueError
            return cls(poset, coeffs, field)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            raise PreconditionError("data is not an incidence element of this poset") from None

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
    """A linear map on the incidence algebra, stored as basis-image columns.

    len() is the record's field count, which NamedTuple's _make and _replace
    rely on; the map's size is `dimension`.  map * x raises TypeError."""

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
        index = self.poset.all_pair_index
        zero = self.field.zero
        out = {}
        for pair, value in element.coeffs.items():
            for key, c in self.columns[index[pair]].coeffs.items():
                out[key] = out.get(key, zero) + value * c
        return IncidenceElement._of(self.poset, {k: v for k, v in out.items() if v}, self.field)

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

    def __mul__(self, other):
        return NotImplemented

    __rmul__ = __mul__

    def is_invertible(self):
        return linalg.rank([c.coeffs for c in self.columns]) == self.dimension

    def to_json(self):
        return {
            "basis": [[x, y] for (x, y) in self.poset.all_pairs],
            "columns": [c.to_json() for c in self.columns],
        }

    @classmethod
    def from_json(cls, poset, data, field=RATIONALS):
        try:
            columns = iter(data["columns"])
        except (KeyError, TypeError):
            raise PreconditionError("data is not a linear map's columns") from None
        return cls.from_images(
            poset, (IncidenceElement.from_json(poset, col, field) for col in columns), field
        )


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


@_per_poset
def _basis_products(poset, field):
    """(i, j, coefficients of e_i e_j) for every pair of basis indices whose
    product is nonzero, in (i, j) order: e_xy e_zw is e_xw when y = z and 0
    otherwise."""
    one = field.one
    index = poset.all_pair_index
    return tuple(
        (i, index[(y, w)], {(x, w): one})
        for i, (x, y) in enumerate(poset.all_pairs)
        for w in range(poset.n)
        if poset.leq(y, w)
    )


@_per_poset
def _basis_brackets(poset, field):
    """(i, j, coefficients of [e_i, e_j]) for every pair i < j of basis
    indices whose bracket is nonzero, in (i, j) order.  At most one of
    e_i e_j and e_j e_i is nonzero: both would need e_i = e_xy and
    e_j = e_yx, so x = y and i = j."""
    return tuple(
        sorted(
            (i, j, lie) if i < j else (j, i, {k: -v for k, v in lie.items()})
            for i, j, lie in _basis_products(poset, field)
            if i != j
        )
    )


@_per_poset
def _commutator_subspace_cached(poset, field):
    basis, _ = linalg.row_reduce(lie for _, _, lie in _basis_brackets(poset, field))
    return tuple(basis)


def commutator_subspace(poset, field=RATIONALS):
    """Row-reduced basis of the span of all brackets of basis elements."""
    return [
        IncidenceElement._of(poset, dict(c), field)
        for c in _commutator_subspace_cached(poset, field)
    ]


@_per_poset
def _center_cached(poset, field):
    # unknown z = sum z_i e_i; constraints: [z, e_j] = 0 for every j, one row
    # per (j, pair) that some [e_i, e_j] reaches, over the columns z_i
    pairs = poset.all_pairs
    rows = {}
    for i, j, lie in _basis_brackets(poset, field):
        for pair, value in lie.items():  # and [e_j, e_i] = -[e_i, e_j]
            rows.setdefault((j, pair), {})[pairs[i]] = value
            rows.setdefault((i, pair), {})[pairs[j]] = -value
    return tuple(linalg.nullspace(rows.values(), pairs, field.one))


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


def _products(mapping):
    """(P, F) for the map f with columns f(e_i), keyed by (i, j) + (x, y)
    and holding nonzero coefficients only: P[i, j, x, y] is the coefficient
    of e_xy in f(e_i) f(e_j), and F[i, j, x, y] that in f(e_i e_j).

    P joins each column's entries ending at z with every column's entries
    starting at z, so no zero product is formed."""
    zero = mapping.field.zero
    starting = {}
    for j, col in enumerate(mapping.columns):
        for (z, w), b in col.coeffs.items():
            starting.setdefault(z, []).append((j, w, b))
    sums = {}
    for i, col in enumerate(mapping.columns):
        for (x, z), a in col.coeffs.items():
            for j, w, b in starting.get(z, ()):
                key = (i, j, x, w)
                sums[key] = sums.get(key, zero) + a * b
    # e_i e_j = 1 * e_k, so f(e_i e_j) is column k
    index = mapping.poset.all_pair_index
    F = {
        (i, j) + pair: value
        for i, j, product in _basis_products(mapping.poset, mapping.field)
        for k in product
        for pair, value in mapping.columns[index[k]].coeffs.items()
    }
    return {k: v for k, v in sums.items() if v}, F


def _reverses_negated(P, F):
    """Whether -F[i, j] = P[j, i], that is -f(e_i e_j) = f(e_j) f(e_i):
    -f reverses products."""
    return P == {(j, i, x, y): -v for (i, j, x, y), v in F.items()}


def _keeps_brackets(P, F, zero):
    """Whether P - F is symmetric in (i, j), that is P[i, j] - P[j, i] =
    F[i, j] - F[j, i]: [f(e_i), f(e_j)] = f([e_i, e_j])."""
    difference = dict(P)
    for key, value in F.items():
        difference[key] = difference.get(key, zero) - value
    return all(difference.get((j, i, x, y), zero) == v for (i, j, x, y), v in difference.items())


def is_algebra_automorphism(mapping):
    return mapping.is_invertible() and operator.eq(*_products(mapping))


def is_negated_anti_automorphism(mapping):
    """Whether -mapping is an anti-automorphism of the algebra."""
    return mapping.is_invertible() and _reverses_negated(*_products(mapping))


def is_lie_automorphism(mapping):
    """Invertible and bracket-preserving on all pairs of basis elements."""
    return mapping.is_invertible() and _keeps_brackets(
        *_products(mapping), mapping.field.zero
    )


def check_proper_decomposition(tau, phi):
    """Split tau as phi + nu and validate the central remainder.

    tau must be a Lie automorphism (NotLieAutomorphism otherwise) and phi an automorphism or the negative
    of an anti-automorphism.  Succeeds iff nu = tau - phi takes values in
    the center and kills the commutator subspace; returns nu.
    """
    if tau.poset != phi.poset or tau.field != phi.field:
        raise InvalidParameter("maps live over different posets or fields")
    invertible = tau.is_invertible()
    P, F = _products(tau)
    proper = invertible and (P == F or _reverses_negated(P, F))
    # an automorphism, or the negative of an anti-automorphism, keeps brackets
    if not (proper or invertible and _keeps_brackets(P, F, tau.field.zero)):
        raise NotLieAutomorphism("tau is not a Lie automorphism")
    # a phi with tau's columns shares tau's rank and table
    if phi.columns != tau.columns:
        P, F = _products(phi)
        proper = phi.is_invertible() and (P == F or _reverses_negated(P, F))
    if not proper:
        raise PreconditionError(
            "phi is neither an automorphism nor the negative of an anti-automorphism"
        )
    poset, field = tau.poset, tau.field
    nu = tau - phi
    center_basis, center_pivots = _center_span(poset, field)
    for pair, col in zip(poset.all_pairs, nu.columns):
        if not linalg.in_span(center_basis, center_pivots, col.coeffs):
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
    return linalg.row_reduce(_center_cached(poset, field))
