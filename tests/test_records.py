"""The package's records are immutable values: each compares and hashes by
its fields, refuses attribute assignment and prints as Name(field=value, ...).
EdgeBijections also order as their perms, which canonical listings rely on."""

import random

import pytest

from posetlie import (
    ChainClass,
    EdgeBijection,
    FiniteGroupOnEdges,
    LinearMapOnIA,
    MapKind,
    PosetMap,
    ProperVerdict,
    SupportMap,
    WeakCrown,
    verify_group,
)
from posetlie.families import chain
from posetlie.suites import Check


def _group(*perms):
    return verify_group(EdgeBijection(p) for p in perms)


# name -> (fields, make, other): make() builds a new record on every call,
# equal to the last but not the same object; other differs from it
RECORDS = {
    "EdgeBijection": (
        ("perm",),
        lambda: EdgeBijection((1, 0, 2)),
        EdgeBijection((0, 1, 2)),
    ),
    "PosetMap": (
        ("perm", "kind"),
        lambda: PosetMap((1, 0), MapKind.ANTI),
        PosetMap((1, 0), MapKind.ISO),
    ),
    "WeakCrown": (
        ("mins", "maxs"),
        lambda: WeakCrown((0, 1), (2, 3)),
        WeakCrown((0, 1), (3, 2)),
    ),
    "ChainClass": (
        ("chains", "support"),
        lambda: ChainClass(((0, 2), (1, 2)), (0, 1, 2)),
        ChainClass(((0, 2),), (0, 2)),
    ),
    "SupportMap": (
        ("source", "target", "kind", "mapping"),
        lambda: SupportMap(0, 1, MapKind.ISO, ((0, 1), (1, 0))),
        SupportMap(0, 1, MapKind.ANTI, ((0, 1), (1, 0))),
    ),
    "ProperVerdict": (
        ("all_proper", "counterexample", "am_order", "p_order", "class_count"),
        lambda: ProperVerdict(False, EdgeBijection((1, 0)), 2, 1, 1),
        ProperVerdict(True, None, 1, 1, 1),
    ),
    "LinearMapOnIA": (
        ("poset", "field", "columns"),
        lambda: LinearMapOnIA.identity(chain(2)),
        LinearMapOnIA.zero(chain(2)),
    ),
    "FiniteGroupOnEdges": (
        ("elements", "generators", "perms"),
        lambda: _group((0, 1), (1, 0)),
        _group((0, 1)),
    ),
    "Check": (
        ("name", "ok", "detail"),
        lambda: Check("order", True, "|P| = 8"),
        Check("order", True),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_equal_and_hash_by_value(name):
    _, make, other = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_refuse_attribute_assignment(name):
    fields, make, other = RECORDS[name]
    record = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(other, field))
    assert record == make()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_print_as_name_and_fields(name):
    fields, make, _ = RECORDS[name]
    record = make()
    shown = ", ".join("%s=%r" % (field, getattr(record, field)) for field in fields)
    assert repr(record) == "%s(%s)" % (name, shown)


def test_check_detail_defaults_to_empty():
    assert Check("order", False) == Check("order", False, "")
    assert Check("order", False).detail == ""


def test_edge_bijections_sort_as_their_perms():
    rng = random.Random(26)
    perms = [tuple(rng.sample(range(5), 5)) for _ in range(60)]
    perms += perms[:10]  # repeats keep their places among equals
    assert sorted(map(EdgeBijection, perms)) == list(map(EdgeBijection, sorted(perms)))
    assert min(map(EdgeBijection, perms)).perm == min(perms)
    assert max(map(EdgeBijection, perms)).perm == max(perms)
