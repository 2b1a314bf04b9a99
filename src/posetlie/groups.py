"""Structure verification for the enumerated edge-bijection groups."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial
from operator import attrgetter, itemgetter

from .bijections import EdgeBijection
from .errors import NotClosed, StructureMismatch


@dataclass(frozen=True)
class FiniteGroupOnEdges:
    """A verified group: sorted elements, greedy generators, perm tuples."""

    elements: tuple
    generators: tuple
    perms: frozenset

    @property
    def order(self):
        return len(self.elements)

    @property
    def degree(self):
        return len(self.elements[0].perm)

    def __contains__(self, theta):
        return theta.perm in self.perms

    def element_order(self, theta):
        identity = EdgeBijection.identity(self.degree)
        power = theta
        k = 1
        while power != identity:
            power = power.compose(theta)
            k += 1
        return k

    def order_histogram(self):
        hist = Counter(self.element_order(g) for g in self.elements)
        return dict(sorted(hist.items()))

    def generating_set(self):
        """A small generating set, grown greedily in canonical order."""
        return [EdgeBijection(t) for t in self.generators]

    def to_json(self):
        return {
            "order": self.order,
            "element_order_histogram": {
                str(k): v for k, v in self.order_histogram().items()
            },
            "witness_generators": [list(g.perm) for g in self.generating_set()],
        }


def verify_group(bijections):
    """Check that the set contains the identity and is closed under composition.

    Then it is a group: g^k is the identity for some k >= 1, so g^(k-1) is the
    inverse of g.  Elements outside the span of the earlier ones, in canonical
    order, become generators, and _close forms about |G|*|T| products, not
    |G|^2.  Raises NotClosed; an escaping product carries its pair (a, t).
    """
    elements = sorted(set(bijections), key=attrgetter("perm"))
    if not elements:
        raise NotClosed("empty set is not a group")
    degree = len(elements[0].perm)
    if any(len(g.perm) != degree for g in elements):
        raise NotClosed("mixed permutation degrees")
    perms = frozenset(g.perm for g in elements)
    identity = tuple(range(degree))
    if identity not in perms:
        raise NotClosed("identity missing")
    span = {identity}
    generators = []
    for g in elements:
        if g.perm not in span:
            generators.append(g.perm)
            _close(span, generators, generators[-1:], perms)
    return FiniteGroupOnEdges(tuple(elements), tuple(generators), perms)


def _close(span, generators, first, within):
    """Close the perm tuples in span under right multiplication by generators.

    span is closed under those not in first already, so only span times first,
    then each new element times every generator, can leave it.  A product
    a.compose(t) outside within raises NotClosed with the pair (a, t).
    """
    # a generator moves two points or more, so itemgetter(*t) gives a tuple
    step = [(t, itemgetter(*t)) for t in first]
    every = [(t, itemgetter(*t)) for t in generators]
    frontier = list(span)
    while frontier:
        fresh = []
        for a in frontier:
            for t, compose in step:
                c = compose(a)
                if c not in span:
                    if c not in within:
                        witness = (EdgeBijection(a), EdgeBijection(t))
                        raise NotClosed("product escapes the set", witness=witness)
                    span.add(c)
                    fresh.append(c)
        frontier, step = fresh, every
    return span


def dihedral_witness(group, n):
    """Whether the group is dihedral of order 4n, by explicit generators.

    Searches for r of order 2n and s of order 2 with s r s = r^(-1)
    generating the whole group.
    """
    if group.order != 4 * n:
        return False
    rotations = [g for g in group.elements if group.element_order(g) == 2 * n]
    flips = [g for g in group.elements if group.element_order(g) == 2]
    for r in rotations:
        r_inv = r.inverse()
        for s in flips:
            if s.compose(r).compose(s) != r_inv:
                continue
            gens = (r.perm, s.perm)
            span = _close({tuple(range(group.degree))}, gens, gens, group.perms)
            if len(span) == group.order:
                return True
    return False


def crown_parity_witness(group, n):
    """Verify the parity shape of the admissible group of an n-crown.

    The group must be exactly the bijections preserving or swapping the odd
    and even chain families, with the odd-preserving half acting as the full
    symmetric group on each family independently.  Returns a report dict;
    raises StructureMismatch when the shape fails.
    """
    from .families import crown

    poset = crown(n)
    odd = frozenset(
        poset.pair_index[(i, n + i)] for i in range(n)
    )
    even = frozenset(
        poset.pair_index[((i + 1) % n, n + i)] for i in range(n)
    )
    expected = 2 * factorial(n) ** 2
    if group.order != expected:
        raise StructureMismatch(
            "order %d, expected 2*(n!)^2 = %d" % (group.order, expected)
        )
    preserving = []
    for g in group.elements:
        image = frozenset(g.perm[b] for b in odd)
        if image == odd:
            preserving.append(g)
        elif image != even:
            raise StructureMismatch("an element neither preserves nor swaps parity")
    if 2 * len(preserving) != group.order:
        raise StructureMismatch(
            "parity-preserving half has order %d of %d"
            % (len(preserving), group.order)
        )
    actions = {
        (
            tuple(g.perm[b] for b in sorted(odd)),
            tuple(g.perm[b] for b in sorted(even)),
        )
        for g in preserving
    }
    if len(actions) != factorial(n) ** 2:
        raise StructureMismatch("parity-preserving half is not S_n x S_n")
    odd_actions = {a for a, _ in actions}
    even_actions = {b for _, b in actions}
    if len(odd_actions) != factorial(n) or len(even_actions) != factorial(n):
        raise StructureMismatch("action on one parity family is not full")
    return {
        "order": group.order,
        "preserving_order": len(preserving),
        "index": group.order // len(preserving),
        "odd_orbit_actions": len(odd_actions),
        "even_orbit_actions": len(even_actions),
    }
