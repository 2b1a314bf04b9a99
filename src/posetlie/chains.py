"""The linked relation on maximal chains, its equivalence classes and
supports, support isomorphism extraction, and the top-level properness
decision for a poset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bijections import (
    DEFAULT_BOUND,
    Direction,
    EdgeBijection,
    enumerate_AM,
    enumerate_P,
    image_chain,
    in_M,
)
from .errors import ExtractionError, PreconditionError, WellDefinednessError
from .poset import MapKind


@dataclass(frozen=True)
class ChainClass:
    """A class of maximal chains under the linked relation, with its support."""

    chains: tuple
    support: tuple


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, i):
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def linked(poset, chain_a, chain_b):
    """Whether two maximal chains share an element outside Min and Max."""
    for c in (chain_a, chain_b):
        if c not in poset.maximal_chain_set:
            raise PreconditionError("chain %r is not maximal" % (c,))
    extremal = set(poset.min_set) | set(poset.max_set)
    return bool((set(chain_a) & set(chain_b)) - extremal)


def chain_classes(poset):
    """Partition of the maximal chains by the closure of the linked relation.

    Classes are sorted by their least chain; supports are unions of member
    chains.  Distinct supports meet only in extremal elements.
    """
    chains = poset.maximal_chains
    uf = _UnionFind(len(chains))
    extremal = set(poset.min_set) | set(poset.max_set)
    interiors = [set(c) - extremal for c in chains]
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            if interiors[i] & interiors[j]:
                uf.union(i, j)
    groups = {}
    for i in range(len(chains)):
        groups.setdefault(uf.find(i), []).append(i)
    classes = []
    for members in groups.values():
        member_chains = tuple(sorted(chains[i] for i in members))
        support = tuple(sorted({x for c in member_chains for x in c}))
        classes.append(ChainClass(member_chains, support))
    classes.sort(key=lambda c: c.chains[0])
    return tuple(classes)


def classes_to_json(poset, classes):
    return {
        "classes": [
            {
                "chains": [list(poset.label_chain(c)) for c in cls.chains],
                "support": [poset.names[x] for x in cls.support],
            }
            for cls in classes
        ]
    }


def _class_lookup(classes):
    table = {}
    for k, cls in enumerate(classes):
        for chain in cls.chains:
            table[chain] = k
    return table


def _class_direction(poset, theta, cls):
    """The common direction of theta on a class (BOTH for a lone 2-chain)."""
    seen = set()
    for chain in cls.chains:
        direction, _ = image_chain(poset, theta, chain)
        seen.add(direction)
    definite = seen - {Direction.BOTH}
    if len(definite) > 1:
        raise WellDefinednessError("direction is not constant on a chain class")
    return definite.pop() if definite else Direction.BOTH


def induced_class_map(poset, theta):
    """The bijection on chain classes induced by a monotone bijection.

    Also checks the direction is constant on each class.  Returns a mapping
    from class index to class index.
    """
    if not in_M(poset, theta):
        raise PreconditionError("bijection is not monotone on maximal chains")
    classes = chain_classes(poset)
    lookup = _class_lookup(classes)
    out = {}
    for k, cls in enumerate(classes):
        _class_direction(poset, theta, cls)
        targets = {
            lookup[image_chain(poset, theta, chain)[1]] for chain in cls.chains
        }
        if len(targets) != 1:
            raise WellDefinednessError(
                "chains of one class map into %d classes" % len(targets)
            )
        out[k] = targets.pop()
    if sorted(out.values()) != sorted(out):
        raise WellDefinednessError("induced class map is not a bijection")
    return out


@dataclass(frozen=True)
class SupportMap:
    """An (anti-)isomorphism between the supports of two chain classes."""

    source: int
    target: int
    kind: MapKind
    mapping: tuple  # pairs (element, image), sorted by element


def support_maps(poset, theta):
    """Extract, per chain class, the poset map the bijection acts by.

    Reads the element map off matching chain positions, then verifies it is
    an (anti-)isomorphism of the supports agreeing with the bijection on
    every strict pair of the source support.  Raises ExtractionError when no
    such map exists; for admissible bijections extraction always succeeds.
    """
    if not in_M(poset, theta):
        raise PreconditionError("bijection is not monotone on maximal chains")
    classes = chain_classes(poset)
    class_map = induced_class_map(poset, theta)
    pairs = poset.strict_pairs
    index = poset.pair_index
    results = []
    for k, cls in enumerate(classes):
        target_cls = classes[class_map[k]]
        direction = _class_direction(poset, theta, cls)
        decreasing = direction == Direction.DECREASING
        mapping = {}
        for chain in cls.chains:
            _, img = image_chain(poset, theta, chain)
            m = len(chain)
            for pos, x in enumerate(chain):
                y = img[m - 1 - pos] if decreasing else img[pos]
                if mapping.setdefault(x, y) != y:
                    raise ExtractionError(
                        "element %r gets two images" % (poset.names[x],)
                    )
        if sorted(mapping) != list(cls.support):
            raise ExtractionError("support not covered")
        if tuple(sorted(set(mapping.values()))) != target_cls.support:
            raise ExtractionError(
                "images do not fill the target support (%d vs %d elements)"
                % (len(set(mapping.values())), len(target_cls.support))
            )
        kind = MapKind.ANTI if decreasing else MapKind.ISO
        for x in cls.support:
            for y in cls.support:
                if kind == MapKind.ISO:
                    if poset.leq(x, y) != poset.leq(mapping[x], mapping[y]):
                        raise ExtractionError("image map is not order-preserving")
                else:
                    if poset.leq(x, y) != poset.leq(mapping[y], mapping[x]):
                        raise ExtractionError("image map is not order-reversing")
        for x in cls.support:
            for y in cls.support:
                if poset.lt(x, y):
                    expected = (
                        (mapping[y], mapping[x])
                        if kind == MapKind.ANTI
                        else (mapping[x], mapping[y])
                    )
                    if pairs[theta.perm[index[(x, y)]]] != expected:
                        raise ExtractionError(
                            "bijection disagrees with the extracted map on (%s, %s)"
                            % (poset.names[x], poset.names[y])
                        )
        results.append(
            SupportMap(k, class_map[k], kind, tuple(sorted(mapping.items())))
        )
    return results


@dataclass(frozen=True)
class ProperVerdict:
    """Outcome of comparing the admissible-monotone and proper groups."""

    all_proper: bool
    counterexample: EdgeBijection | None
    am_order: int
    p_order: int
    class_count: int

    @property
    def single_class_sufficient(self):
        return self.class_count == 1

    def to_json(self, poset):
        return {
            "all_proper": self.all_proper,
            "am_order": self.am_order,
            "p_order": self.p_order,
            "class_count": self.class_count,
            "single_class_sufficient": self.single_class_sufficient,
            "counterexample": (
                None
                if self.counterexample is None
                else self.counterexample.to_json(poset)
            ),
        }


def decide_all_proper(poset, bound=DEFAULT_BOUND):
    """Whether every admissible monotone bijection is proper.

    Equality of the two groups decides whether every Lie automorphism of the
    incidence algebra is proper; a single chain class is reported as the
    sufficient condition it is.
    """
    # enumerate_AM is sorted, so its first element outside P is min(AM \ P)
    admissible = enumerate_AM(poset, bound)
    proper = {t.perm for t in enumerate_P(poset)}
    if sum(t.perm in proper for t in admissible) != len(proper):
        raise WellDefinednessError("proper bijections escaped the admissible group")
    counterexample = next((t for t in admissible if t.perm not in proper), None)
    return ProperVerdict(
        all_proper=counterexample is None,
        counterexample=counterexample,
        am_order=len(admissible),
        p_order=len(proper),
        class_count=len(chain_classes(poset)),
    )
