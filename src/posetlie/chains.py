"""The linked relation on maximal chains, its equivalence classes and
supports, support isomorphism extraction, and the top-level properness
decision for a poset.
"""

from __future__ import annotations

from typing import NamedTuple

from .bijections import (
    Direction,
    EdgeBijection,
    chain_action,
    enumerate_AM,
    enumerate_P,
)
from .errors import ExtractionError, PreconditionError, WellDefinednessError
from .poset import MapKind


class ChainClass(NamedTuple):
    """A class of maximal chains under the linked relation, with its support."""

    chains: tuple
    support: tuple


def linked(poset, chain_a, chain_b):
    """Whether two maximal chains share an element outside Min and Max."""
    for c in (chain_a, chain_b):
        if c not in poset.maximal_chain_set:
            raise PreconditionError("chain %r is not maximal" % (c,))
    extremal = set(poset.min_set) | set(poset.max_set)
    return bool((set(chain_a) & set(chain_b)) - extremal)


def chain_classes(poset):
    """Partition of the maximal chains by the closure of the linked relation.

    Each class is found by walking from its least chain to every chain that
    shares an interior element with one already reached, so classes come out
    sorted by their least chain; supports are unions of member chains.
    Distinct supports meet only in extremal elements.
    """
    chains = poset.maximal_chains
    extremal = set(poset.min_set) | set(poset.max_set)
    through = {}  # interior element -> indices of the chains through it
    for i, c in enumerate(chains):
        for x in c:
            if x not in extremal:
                through.setdefault(x, []).append(i)
    reached = [False] * len(chains)
    classes = []
    for start in range(len(chains)):
        if reached[start]:
            continue
        reached[start] = True
        members = [start]
        for i in members:  # grows as the walk reaches new chains
            for x in chains[i]:
                for j in through.pop(x, ()):
                    if not reached[j]:
                        reached[j] = True
                        members.append(j)
        member_chains = tuple(chains[i] for i in sorted(members))
        support = tuple(sorted({x for c in member_chains for x in c}))
        classes.append(ChainClass(member_chains, support))
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


def _class_map(classes, action):
    """Per class, theta's common direction on it (BOTH for a lone 2-chain)
    and the index of the class its chains map into, from theta's chain
    action; checks that both are well defined and the map is a bijection."""
    lookup = {chain: k for k, cls in enumerate(classes) for chain in cls.chains}
    out = []
    for cls in classes:
        definite = {action[c][0] for c in cls.chains} - {Direction.BOTH}
        # Unreachable for theta in M: linked chains share an element outside
        # Min and Max, which an increasing and a decreasing chain of theta
        # never do (the lemma `verify properties` checks as
        # incdec_shared_element_extremal), and a BOTH chain, x < y with x
        # minimal and y maximal, is linked to no chain.
        if len(definite) > 1:
            raise WellDefinednessError("direction is not constant on a chain class")
        targets = {lookup[action[c][1]] for c in cls.chains}
        # Unreachable for theta in M: if c and c' share an interior element
        # e, then c up to e followed by c' after e is a maximal chain c'' of
        # the same class, so of the same direction.  It shares with c the
        # pair ending at e, so theta(c) and theta(c'') share that pair's
        # image, and that image pair holds an element at e's position, or
        # its mirror, which is interior to both image chains; likewise for
        # c'' and c'.  Images of linked chains are linked.
        if len(targets) != 1:
            raise WellDefinednessError(
                "chains of one class map into %d classes" % len(targets)
            )
        out.append((definite.pop() if definite else Direction.BOTH, targets.pop()))
    # Unreachable for theta in M: theta permutes the strict pairs and a
    # chain is fixed by its pairs, so theta permutes the maximal chains;
    # every class then holds the image of some chain and is hit.
    if sorted(target for _, target in out) != list(range(len(out))):
        raise WellDefinednessError("induced class map is not a bijection")
    return out


def induced_class_map(poset, theta):
    """The bijection on chain classes induced by a monotone bijection.

    Also checks the direction is constant on each class.  Returns a mapping
    from class index to class index.
    """
    action = chain_action(poset, theta)
    return {
        k: target
        for k, (_, target) in enumerate(_class_map(chain_classes(poset), action))
    }


class SupportMap(NamedTuple):
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
    action = chain_action(poset, theta)
    classes = chain_classes(poset)
    results = []
    for k, (direction, target) in enumerate(_class_map(classes, action)):
        cls = classes[k]
        target_cls = classes[target]
        decreasing = direction == Direction.DECREASING
        mapping = {}
        for chain in cls.chains:
            img = action[chain][1]
            m = len(chain)
            for pos, x in enumerate(chain):
                y = img[m - 1 - pos] if decreasing else img[pos]
                # Reached for theta in M outside AM (example20_bijection sends
                # 7 to 7' and 7''), but only at extremal elements: chains c
                # and c' through an interior x splice, c up to x and c' after
                # it, to a chain of the class that shares with c the pair
                # ending at x and with c' the pair starting at x.
                if mapping.setdefault(x, y) != y:
                    raise ExtractionError(
                        "element %r gets two images" % (poset.names[x],)
                    )
        # Unreachable: mapping has every element of every chain of the
        # class, and chain_classes makes the support exactly that union.
        if sorted(mapping) != list(cls.support):
            raise ExtractionError("support not covered")
        # Unreachable for theta in M: theta permutes the maximal chains, and
        # by _class_map the classes too, so the images of this class's chains
        # are all the chains of the target class, whose union is its support.
        if tuple(sorted(set(mapping.values()))) != target_cls.support:
            raise ExtractionError(
                "images do not fill the target support (%d vs %d elements)"
                % (len(set(mapping.values())), len(target_cls.support))
            )
        kind = MapKind.ANTI if decreasing else MapKind.ISO
        # These two are reached for theta in M outside AM: a pair (x, y) of
        # the support on no chain of the class, such as a lone two-element
        # chain, does not follow the map read off the class's chains.
        for x in cls.support:
            for y in cls.support:
                if poset.leq(x, y) != poset.leq(*kind.pair(mapping, x, y)):
                    raise ExtractionError(
                        "image map is not order-reversing"
                        if decreasing
                        else "image map is not order-preserving"
                    )
        for x in cls.support:
            for y in cls.support:
                if poset.lt(x, y) and (
                    theta.apply_pair(poset, (x, y)) != kind.pair(mapping, x, y)
                ):
                    raise ExtractionError(
                        "bijection disagrees with the extracted map on (%s, %s)"
                        % (poset.names[x], poset.names[y])
                    )
        results.append(
            SupportMap(k, target, kind, tuple(sorted(mapping.items())))
        )
    return results


class ProperVerdict(NamedTuple):
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


def decide_all_proper(poset):
    """Whether every admissible monotone bijection is proper.

    Equality of the two groups decides whether every Lie automorphism of the
    incidence algebra is proper; a single chain class is reported as the
    sufficient condition it is.  AM is sized by its stabilizer tower, never
    listed.  P <= AM, so they are equal iff |AM| = |P|; otherwise the
    counterexample is the first tower element, in ascending order, outside
    P: min(AM \\ P).
    """
    admissible = enumerate_AM(poset)
    proper = enumerate_P(poset)
    # P is a group, so it lies in AM once the elements of its transversals,
    # which generate it, sift through AM's tower
    if not all(t in admissible for t in proper.transversal_elements()):
        raise WellDefinednessError("proper bijections escaped the admissible group")
    counterexample = None
    if admissible.order != proper.order:
        counterexample = next(t for t in admissible if t not in proper)
    return ProperVerdict(
        all_proper=counterexample is None,
        counterexample=counterexample,
        am_order=admissible.order,
        p_order=proper.order,
        class_count=len(chain_classes(poset)),
    )
