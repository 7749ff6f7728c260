import re

import pytest

from so3alg import burnside as b
from so3alg.errors import SchemaError


def idem(group, which, n=None):
    return b.idempotent(group, which, n)


def test_idempotents_are_idempotent():
    for which in ("T", "D", "SO3", "Sigma4", "A4", "A5", "D4"):
        e = idem("SO3", which)
        assert e.is_idempotent()
    assert idem("SO3", "D2n", 5).is_idempotent()
    for which in ("T", "D"):
        assert idem("O2", which).is_idempotent()
    assert idem("O2", "D2n", 1).is_idempotent()


def test_idempotents_are_orthogonal_and_sum_to_one():
    parts = [idem("SO3", w) for w in ("T", "D", "SO3", "Sigma4", "A4", "A5", "D4")]
    total = b.zero("SO3")
    for i, p in enumerate(parts):
        total = total + p
        for q in parts[i + 1:]:
            assert p * q == b.zero("SO3")
    assert total == b.unit("SO3")


def test_no_idempotent_at_limit_point():
    with pytest.raises(SchemaError):
        b.idempotent("SO3", "O2limit")


def test_restriction_is_a_ring_map():
    x = b.BurnsideElement.make(
        "SO3", exceptional={"A4": "1/2"}, toral=2, dihedral={4: 3}, tail="1/3"
    )
    y = b.BurnsideElement.make("SO3", exceptional={"D4": 1}, toral=1, tail=2)
    assert b.restrict_to_O2(x * y) == b.restrict_to_O2(x) * b.restrict_to_O2(y)
    assert b.restrict_to_O2(x + y) == b.restrict_to_O2(x) + b.restrict_to_O2(y)
    assert b.restrict_to_O2(b.unit("SO3")) == b.unit("O2")


def test_toral_idempotent_restriction_identity():
    # the restriction of the toral idempotent dominates the toral idempotent
    # downstairs but is strictly larger: a reflection subgroup of the plane
    # rotations is conjugate inside the ambient group to a rotation.
    eT = idem("SO3", "T")
    eTt = idem("O2", "T")
    r = b.restrict_to_O2(eT)
    assert eTt * r == eTt
    assert r != eTt
    # the extra support is exactly the order-2 dihedral point
    assert r == eTt + idem("O2", "D2n", 1)


def test_dihedral_idempotent_restriction_identity():
    eD = idem("SO3", "D")
    eDt = idem("O2", "D")
    r = b.restrict_to_O2(eD)
    assert r * eDt == r
    assert r != eDt
    # missing from the restriction: the order-2 and order-4 dihedral points
    assert eDt - r == idem("O2", "D2n", 1) + idem("O2", "D2n", 2)


def test_restriction_sends_klein_four_to_order_four_dihedral():
    e = idem("SO3", "D4")
    assert b.restrict_to_O2(e) == idem("O2", "D2n", 2)


def test_split_exceptional_reassembles():
    x = b.BurnsideElement.make(
        "SO3",
        exceptional={"SO3": 1, "Sigma4": "2/7", "A4": -1, "A5": 0, "D4": 5},
        toral="-3/2",
        dihedral={3: 1, 9: "4/5"},
        tail=7,
    )
    parts = b.split_exceptional(x)
    total = b.zero("SO3")
    for p in parts.values():
        total = total + p
    assert total == x
    for name in b.EXCEPTIONAL_SO3:
        assert parts[name] == idem("SO3", name).scale(x.value_at(
            b.SubgroupClass("SO3", "exceptional", name=name)))


def test_locally_constant_normalization():
    # explicit dihedral values equal to the tail are absorbed
    x = b.BurnsideElement.make("SO3", dihedral={5: 2, 6: 3}, tail=2)
    assert dict(x.dihedral) == {6: b.Q(3)}


def test_json_roundtrip():
    x = b.BurnsideElement.make(
        "SO3", exceptional={"A5": "1/3"}, toral=1, dihedral={7: "2/9"}, tail="-4"
    )
    assert b.from_json(b.to_json(x)) == x


def test_value_at_classes():
    x = b.BurnsideElement.make("O2", toral=5, dihedral={2: 1}, tail=9)
    assert x.value_at(b.SubgroupClass("O2", "toral")) == 5
    assert x.value_at(b.SubgroupClass("O2", "dihedral", n=2)) == 1
    assert x.value_at(b.SubgroupClass("O2", "dihedral", n=3)) == 9
    assert x.value_at(b.SubgroupClass("O2", "limit")) == 9


def test_bad_inputs_raise_schema_errors():
    with pytest.raises(SchemaError):
        b.BurnsideElement.make("SU2")
    with pytest.raises(SchemaError):
        b.BurnsideElement.make("O2", exceptional={"A4": 1})
    with pytest.raises(SchemaError):
        b.BurnsideElement.make("SO3", dihedral={2: 1})
    with pytest.raises(SchemaError):
        b.from_json({"group": "SO3", "toral": "1/0"})


@pytest.mark.parametrize("value", [True, False, 0.5, 1.0, None, [1], {"p": 1}])
def test_from_json_refuses_a_value_that_is_not_an_int_or_a_literal(value):
    # "tail": true used to read as 1, and 0.5 as a Fraction of the float
    for field in ("toral", "tail"):
        with pytest.raises(SchemaError, match="bad rational literal"):
            b.from_json({"group": "SO3", field: value})
    with pytest.raises(SchemaError, match="bad rational literal"):
        b.from_json({"group": "SO3", "dihedral": {"5": value}})
    with pytest.raises(SchemaError, match="bad rational literal"):
        b.from_json({"group": "SO3", "exceptional": {"A4": value}})
    assert b.from_json({"group": "SO3", "toral": 2, "tail": "-1/2"}) == b.BurnsideElement.make(
        "SO3", toral=2, tail=b.Q(-1, 2)
    )


@pytest.mark.parametrize("key", ["05", " 5", "5 ", "+5", "5_0", "x"])
def test_from_json_refuses_a_dihedral_key_that_is_not_its_integers_decimal(key):
    # {"5": "1", "05": "2"} used to read as one entry at 5, the last winning
    with pytest.raises(SchemaError, match=re.escape(f"bad dihedral key '{key}'")):
        b.from_json({"group": "SO3", "dihedral": {"5": "1", key: "2"}})
    assert dict(b.from_json({"group": "SO3", "dihedral": {"5": "1", "6": "2"}}).dihedral) == {
        5: 1, 6: 2,
    }
