"""The verification harness: named blocks of exact checks over the built-in
poset families, one block per acceptance area.  Each block returns a list of
Check results; the CLI and the test suite both run these.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import NamedTuple

from . import algebra as alg
from . import bijections as bij
from . import chains as chn
from . import families as fam
from . import groups as grp
from . import linalg
from . import poset as pst
from .errors import ExtractionError, NotLieAutomorphism, PreconditionError
from .fields import RATIONALS


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _check(name, ok, detail=""):
    return Check(name, bool(ok), detail)


def _small_suite(max_basis):
    return [
        (name, p) for name, p in fam.suite() if len(p.strict_pairs) <= max_basis
    ]


# -- criterion blocks ----------------------------------------------------------


def crown_orders():
    """Group orders on crowns and the dihedral shape of the proper group."""
    out = []
    for n, expected in ((2, 8), (3, 72)):
        am = bij.enumerate_AM(fam.crown(n))
        out.append(
            _check(
                "am_order_crown_%d" % n,
                am.order == expected == 2 * factorial(n) ** 2,
                "|AM| = %d, expected %d" % (am.order, expected),
            )
        )
    for n in range(2, 6):
        proper = bij.enumerate_P(fam.crown(n))
        group = grp.verify_group(proper)
        out.append(
            _check(
                "p_order_crown_%d" % n,
                group.order == 4 * n,
                "|P| = %d, expected %d" % (group.order, 4 * n),
            )
        )
        out.append(
            _check(
                "dihedral_crown_%d" % n,
                grp.dihedral_witness(group, n),
                "generators r, s with s r s = r^-1 found",
            )
        )
    return out


def crown_dichotomy():
    """All-proper holds on the 2-crown and fails with witness for n = 3, 4."""
    out = []
    verdict = chn.decide_all_proper(fam.crown(2))
    out.append(
        _check(
            "all_proper_crown_2",
            verdict.all_proper and verdict.counterexample is None,
            "AM = P of order %d" % verdict.am_order,
        )
    )
    for n in (3, 4):
        poset = fam.crown(n)
        verdict = chn.decide_all_proper(poset)
        witness = verdict.counterexample
        good = (
            not verdict.all_proper
            and witness is not None
            and bij.is_admissible(poset, witness)
            and bij.proper_witness(poset, witness) is None
        )
        out.append(
            _check(
                "improper_witness_crown_%d" % n,
                good,
                "|AM| = %d > |P| = %d, witness verified admissible and not proper"
                % (verdict.am_order, verdict.p_order),
            )
        )
    return out


def bipartite():
    """Complete bipartite posets: every admissible bijection is proper."""
    out = []
    for m, n, expected in ((2, 3, 12), (3, 3, 72)):
        verdict = chn.decide_all_proper(fam.kmn(m, n))
        out.append(
            _check(
                "all_proper_kmn_%dx%d" % (m, n),
                verdict.all_proper
                and verdict.am_order == expected
                and verdict.p_order == expected,
                "|AM| = |P| = %d (expected %d)" % (verdict.am_order, expected),
            )
        )
    return out


def crownless():
    """Length-one crownless posets: the single-extreme criterion."""
    out = []
    for n in (3, 4, 5):
        poset = fam.star(n)
        monotone = {t.perm for t in bij.enumerate_M(poset)}
        proper = {t.perm for t in bij.enumerate_P(poset)}
        aut = len(pst.poset_maps(poset))
        out.append(
            _check(
                "star_%d_all_proper" % n,
                monotone == proper and len(proper) == factorial(n) == aut,
                "M = P of order %d, |Aut+-| = %d" % (len(proper), aut),
            )
        )
    for n in (4, 6):
        poset = fam.fence(n)
        monotone = list(bij.enumerate_M(poset))
        proper = {t.perm for t in bij.enumerate_P(poset)}
        separating = next(
            (t for t in monotone if bij.is_separating(poset, t)), None
        )
        good = (
            len(monotone) > len(proper)
            and separating is not None
            and bij.proper_witness(poset, separating) is None
        )
        out.append(
            _check(
                "fence_%d_separating" % n,
                good,
                "|M| = %d > |P| = %d, separating witness found"
                % (len(monotone), len(proper)),
            )
        )
    return out


def example20_block():
    """The 20-element poset: monotone but inadmissible class swap, and an
    admissible bijection that is not proper."""
    poset = fam.example20()
    theta = fam.example20_bijection(poset)
    out = [
        _check("example20_monotone", bij.in_M(poset, theta)),
        _check("example20_not_admissible", not bij.is_admissible(poset, theta)),
    ]
    walk = tuple(poset.index(v) for v in ("5", "7", "6", "8", "5"))
    stats = bij.count_stats(poset, theta, walk, poset.index("7'"))
    out.append(
        _check(
            "example20_counts",
            stats == bij.CountStats(0, 0, 0, 1),
            "counts at 7' on 5<7>6<8>5: %s" % (tuple(stats),),
        )
    )
    supports = sorted(
        tuple(poset.names[i] for i in cls.support)
        for cls in chn.chain_classes(poset)
    )
    expected = sorted(
        [
            tuple(str(i) for i in range(1, 11)),
            ("10",) + tuple("%d'" % i for i in range(1, 10)) + ("7''",),
        ]
    )
    out.append(_check("example20_supports", supports == expected))
    try:
        chn.support_maps(poset, theta)
        extraction_failed = False
    except ExtractionError:
        extraction_failed = True
    out.append(_check("example20_extraction_fails", extraction_failed))
    verdict = chn.decide_all_proper(poset)
    witness = verdict.counterexample
    out.append(
        _check(
            "example20_not_all_proper",
            not verdict.all_proper
            and verdict.am_order == 256
            and verdict.p_order == 64
            and witness is not None
            and bij.satisfies_crown_criterion(poset, witness)
            and bij.proper_witness(poset, witness) is None,
            "|AM| = %d > |P| = %d, witness satisfies the crown criterion and "
            "is not proper" % (verdict.am_order, verdict.p_order),
        )
    )
    return out


def example6_block():
    """The 6-element poset: two classes, yet every bijection proper."""
    poset = fam.example6()
    classes = chn.chain_classes(poset)
    supports = sorted(
        tuple(poset.names[i] for i in cls.support) for cls in classes
    )
    out = [
        _check(
            "example6_supports",
            supports == [("1", "2", "4", "5"), ("1", "3", "5", "6")],
            "supports: %s" % (supports,),
        )
    ]
    admissible = bij.enumerate_AM(poset)
    identity = bij.EdgeBijection.identity(len(poset.strict_pairs))
    out.append(
        _check(
            "example6_am_order",
            admissible.order == 2 and identity in admissible,
            "|AM| = %d" % admissible.order,
        )
    )
    out.append(
        _check(
            "example6_all_proper",
            all(bij.proper_witness(poset, t) is not None for t in admissible)
            and chn.decide_all_proper(poset).all_proper
            and len(classes) == 2,
            "both elements proper despite 2 chain classes",
        )
    )
    mirror = next((t for t in admissible if t != identity), None)
    swaps = mirror is not None and chn.induced_class_map(poset, mirror) == {0: 1, 1: 0}
    out.append(_check("example6_mirror_swaps_classes", swaps))
    return out


def oracle_equivalence():
    """The cut-form check, the crown criterion and the semiwalk oracle at
    length 8 agree on every monotone bijection."""
    out = []
    for name, poset in _small_suite(6):
        mismatches = sum(
            1
            for theta in bij.enumerate_M(poset)
            if len(
                {
                    bij.is_admissible(poset, theta),
                    bij.satisfies_crown_criterion(poset, theta),
                    bij.is_admissible_oracle(poset, theta, 8),
                }
            )
            != 1
        )
        out.append(
            _check("oracle_agreement_%s" % name.replace(":", "_"), mismatches == 0)
        )
    return out


def sigma_block():
    """Every monotone bijection admits the constructed compatible sign map."""
    out = []
    for name, poset in _small_suite(6):
        bad = sum(
            1
            for theta in bij.enumerate_M(poset)
            if not bij.is_compatible(
                poset, bij.build_compatible_sigma(poset, theta), theta
            )
        )
        out.append(
            _check("sigma_compatible_%s" % name.replace(":", "_"), bad == 0)
        )
    return out


def supports_block():
    """Support maps extract and agree with theta for every admissible theta."""
    out = []
    for name, poset in _small_suite(6):
        ok = True
        classes = chn.chain_classes(poset)
        for theta in bij.enumerate_AM(poset):
            try:
                maps = chn.support_maps(poset, theta)
            except ExtractionError:
                ok = False
                break
            for sm in maps:
                lam = dict(sm.mapping)
                for x, y in poset.strict_pairs:
                    if x in lam and y in lam and x in classes[sm.source].support \
                            and y in classes[sm.source].support:
                        if theta.apply_pair(poset, (x, y)) != sm.kind.pair(lam, x, y):
                            ok = False
        out.append(_check("supports_extract_%s" % name.replace(":", "_"), ok))
    return out


def algebra_block(field=RATIONALS):
    """Radical, center and the decomposition checker over every small poset."""
    out = []
    for name, poset in fam.suite():
        if poset.n > 6:
            continue
        tag = name.replace(":", "_")
        commutator = alg.commutator_subspace(poset, field)
        strict = [
            alg.IncidenceElement.basis(poset, x, y, field).to_vector()
            for x, y in poset.strict_pairs
        ]
        basis_rows, pivots = linalg.row_reduce([c.to_vector() for c in commutator])
        radical_rows, radical_pivots = linalg.row_reduce(strict)
        both_ways = (
            len(commutator) == len(poset.strict_pairs)
            and all(linalg.in_span(radical_rows, radical_pivots, r) for r in basis_rows)
            and all(linalg.in_span(basis_rows, pivots, r) for r in strict)
        )
        out.append(_check("commutator_is_radical_%s" % tag, both_ways))
        centre = alg.center(poset, field)
        delta = alg.IncidenceElement.delta(poset, field)
        ok_center = (
            len(centre) == 1
            and linalg.rank([centre[0].to_vector(), delta.to_vector()]) == 1
        )
        out.append(_check("center_is_delta_%s" % tag, ok_center))
        lie_ok = True
        decomposition_ok = True
        for lam in pst.poset_maps(poset):
            induced = alg.induced_map(poset, lam, field)
            candidate = induced if lam.kind == pst.MapKind.ISO else -induced
            # the decomposition asks first whether tau is a Lie automorphism:
            # its answer is the Lie check, so the question is asked once
            try:
                nu = alg.check_proper_decomposition(candidate, candidate)
            except NotLieAutomorphism:
                lie_ok = decomposition_ok = False
                continue
            except PreconditionError:
                decomposition_ok = False
                continue
            if not all(c.is_zero() for c in nu.columns):
                decomposition_ok = False
        out.append(_check("induced_maps_are_lie_%s" % tag, lie_ok))
        out.append(_check("self_decomposition_%s" % tag, decomposition_ok))
    return out


def _parity_of_chain(poset, n, chain):
    # odd chains are (x_i, y_i); even are (x_{i+1}, y_i) cyclically
    x, y = chain
    return "odd" if y - n == x else "even"


def _stats_row(stats, poset, theta, walk):
    """count_stats_row of theta on walk, kept in stats (one dict per theta)
    so that each (theta, walk) reaches the oracle once."""
    row = stats.get(walk)
    if row is None:
        row = stats[walk] = bij.count_stats_row(poset, theta, walk)
    return row


def properties_block():
    """The quantified invariants: chain intersections, identity invariances,
    run collapsing, and the crown parity criterion."""
    out = []

    # shared-pair and shared-element facts for inc/dec chain pairs; what a
    # pair of chains shares does not depend on theta, so it is counted once
    # per poset and each theta sums it over its inc x dec chain pairs
    violations_pair = 0
    violations_elem = 0
    for name, poset in _small_suite(6):
        chains = poset.maximal_chains
        extremal = set(poset.min_set) | set(poset.max_set)
        pair_bad = {}
        elem_bad = {}
        for c1 in chains:
            for c2 in chains:
                shared = set(c1) & set(c2)
                pair_bad[c1, c2] = sum(
                    1
                    for x in shared
                    for y in shared
                    if poset.lt(x, y)
                    and not (x == c1[0] == c2[0] and y == c1[-1] == c2[-1])
                )
                elem_bad[c1, c2] = bool(shared - extremal)
        for theta in bij.enumerate_M(poset):
            action = bij.chain_action(poset, theta)
            inc = [c for c in chains if action[c][0] in (bij.Direction.INCREASING, bij.Direction.BOTH)]
            dec = [c for c in chains if action[c][0] in (bij.Direction.DECREASING, bij.Direction.BOTH)]
            for c1 in inc:
                for c2 in dec:
                    violations_pair += pair_bad[c1, c2]
                    violations_elem += elem_bad[c1, c2]
    out.append(_check("incdec_shared_pair_is_span", violations_pair == 0))
    out.append(_check("incdec_shared_element_extremal", violations_elem == 0))

    # cyclic shift and reversal invariance of the counting identity. chain:3
    # serves both loops, with its thetas' stats tables; other tables go with
    # their theta, and each walk's partners are formed once per poset
    chain3 = fam.chain(3)
    shared = {chain3: {}}
    shift_bad = 0
    for poset in (fam.crown(2), chain3, fam.kmn(2, 3)):
        partners = [
            (walk, walk[1:-1] + walk[:2], walk[::-1])
            for walk in pst.closed_semiwalks(poset, 5)
        ]
        for theta in list(bij.enumerate_M(poset))[:24]:
            stats = shared.get(poset, {}).setdefault(theta, {})
            for walk, shifted, reverse in partners:
                base = _stats_row(stats, poset, theta, walk)
                shift_bad += base != _stats_row(stats, poset, theta, shifted)
                # reversal swaps each + count with its - count
                shift_bad += _stats_row(stats, poset, theta, reverse) != tuple(
                    (sm, sp, tm, tp) for sp, sm, tp, tm in base
                )
    out.append(_check("identity_shift_reversal_invariance", shift_bad == 0))

    # collapsing a monotone run preserves both signed differences
    collapse_bad = 0
    for poset in (chain3, fam.chain(4), fam.example6()):
        collapses = [
            (walk, walk[: k + 1] + walk[k + 2:])
            for walk in pst.closed_semiwalks(poset, 6)
            for k, (a, b, c) in enumerate(zip(walk, walk[1:], walk[2:]))
            if (poset.lt(a, b) and poset.lt(b, c)) or (poset.lt(c, b) and poset.lt(b, a))
        ]
        for theta in bij.enumerate_M(poset):
            stats = shared.get(poset, {}).setdefault(theta, {})
            for walk, collapsed in collapses:
                full, short = (
                    [(sp - tp, sm - tm) for sp, sm, tp, tm in _stats_row(stats, poset, theta, w)]
                    for w in (walk, collapsed)
                )
                collapse_bad += full != short
    out.append(_check("run_collapse_invariance", collapse_bad == 0))

    # parity criterion on the 3-crown; which chains meet does not depend on theta
    poset = fam.crown(3)
    meeting = [(c1, c2) for c1, c2 in combinations(poset.maximal_chains, 2) if set(c1) & set(c2)]
    parity_bad = 0
    for theta in bij.enumerate_M(poset):
        action = bij.chain_action(poset, theta)
        by_parity = all(
            _parity_of_chain(poset, 3, action[c1][1]) != _parity_of_chain(poset, 3, action[c2][1])
            for c1, c2 in meeting
        )
        parity_bad += bij.is_admissible(poset, theta) != by_parity
    out.append(_check("crown3_parity_criterion", parity_bad == 0))
    return out


SUITES = {
    "crown-orders": crown_orders,
    "crown-dichotomy": crown_dichotomy,
    "bipartite": bipartite,
    "crownless": crownless,
    "example20": example20_block,
    "example6": example6_block,
    "oracle": oracle_equivalence,
    "sigma": sigma_block,
    "supports": supports_block,
    "algebra": algebra_block,
    "properties": properties_block,
}


def _call_block(name, field):
    if name == "algebra":
        return algebra_block(field)
    return SUITES[name]()


def run_suite(name, field=RATIONALS):
    """Run one named block, or all of them; returns the Check list."""
    if name == "all":
        return [c for k in SUITES for c in _call_block(k, field)]
    if name not in SUITES:
        from .errors import InvalidParameter

        raise InvalidParameter(
            "unknown suite %r (have %s)" % (name, ", ".join(sorted(SUITES)) + ", all")
        )
    return _call_block(name, field)
