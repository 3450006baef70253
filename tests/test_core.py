import json
import random
from fractions import Fraction

import pytest

from pickseq.core import (
    Allocation,
    Instance,
    ParseError,
    bundle_utility,
    format_rational,
    parse_allocation,
    parse_instance,
    parse_rational,
    parse_sequence,
    serialize_allocation,
    serialize_instance,
    serialize_sequence,
)

# five items, three agents; the flip table used across the repro catalog
FLIP_TABLE = (
    (10, 9, 8, 7, 0),
    (7, 10, 8, 9, 0),
    (0, 7, 10, 8, 9),
)


def flip_instance() -> Instance:
    return Instance((Fraction(9, 18), Fraction(5, 18), Fraction(4, 18)), FLIP_TABLE)


def test_parse_rational_accepts_ints_and_ratio_strings():
    assert parse_rational(3) == 3
    assert parse_rational("9/18") == Fraction(1, 2)
    assert parse_rational("-2") == -2


@pytest.mark.parametrize("bad", [1.5, "1.5", "a/b", True, None, "1/0"])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_format_rational():
    assert format_rational(Fraction(25)) == "25"
    assert format_rational(Fraction(11, 10)) == "11/10"
    assert format_rational(Fraction(2, 4)) == "1/2"


def test_bundle_utility_flip_table_values():
    inst = flip_instance()
    assert bundle_utility(inst, 0, {0, 2, 3}) == 25
    assert bundle_utility(inst, 0, set()) == 0
    assert bundle_utility(inst, 2, {2, 4}) == 19


def test_bundle_utility_index_errors():
    inst = flip_instance()
    with pytest.raises(ValueError):
        bundle_utility(inst, 3, {0})
    with pytest.raises(ValueError):
        bundle_utility(inst, 0, {5})


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance((), ())
    with pytest.raises(ValueError):
        Instance((0,), ((1,),))
    with pytest.raises(ValueError):
        Instance((1, 1), ((1, 2),))
    with pytest.raises(ValueError):
        Instance((1,), ((Fraction(-1, 2),),))
    with pytest.raises(TypeError):
        Instance((1.5,), ((1,),))


def test_instance_perturbation_helpers():
    inst = flip_instance()
    grown = inst.add_item((1, 2, 3))
    assert grown.m == 6 and grown.utilities[2][5] == 3
    taller = inst.add_agent(Fraction(1, 3), (0, 0, 0, 0, 1))
    assert taller.n == 4 and taller.weights[3] == Fraction(1, 3)
    boosted = inst.replace_weight(0, Fraction(11, 18))
    assert boosted.weights[0] == Fraction(11, 18)
    assert inst.weights[0] == Fraction(9, 18)  # original untouched


def test_allocation_partition_invariants():
    with pytest.raises(ValueError):
        Allocation((frozenset({0, 1}), frozenset({1})))
    alloc = Allocation((frozenset({0, 2}), frozenset({1}), frozenset()))
    small = Instance((1, 1, 1), ((1, 2, 3), (3, 2, 1), (1, 1, 1)))
    alloc.validate_for(small)  # empty bundles are legal
    with pytest.raises(ValueError):
        alloc.validate_for(flip_instance())  # five items, only three covered
    with pytest.raises(ValueError):
        Allocation((frozenset({0}),)).validate_for(small)


def test_parse_instance_round_trip():
    doc = {
        "agents": [{"name": "a", "weight": "1/2"}, {"name": "b", "weight": 1}],
        "items": ["x", "y", "z"],
        "utilities": [[1, "1/2", 0], [2, 3, 4]],
    }
    inst = parse_instance(json.dumps(doc))
    assert inst.n == 2 and inst.m == 3
    assert inst.utilities[0][1] == Fraction(1, 2)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text  # canonical fixed point


def test_parse_instance_unnamed_items_count():
    inst = parse_instance({"agents": [2, 1], "items": 2, "utilities": [[1, 0], [0, 1]]})
    assert inst.m == 2 and inst.item_names is None
    assert parse_instance(serialize_instance(inst)) == inst


def test_parse_instance_rejects_bad_weight():
    doc = {"agents": [{"weight": "0"}], "items": 1, "utilities": [[1]]}
    with pytest.raises(ParseError, match="weight must be positive"):
        parse_instance(doc)


def test_parse_instance_rejects_negative_utility():
    doc = {"agents": [1, 1], "items": 1, "utilities": [["-1/2"], [1]]}
    with pytest.raises(ParseError, match="utility must be non-negative"):
        parse_instance(doc)


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"agents": [], "items": 1, "utilities": []}, "agents"),
        ({"agents": [1], "items": None, "utilities": [[1]]}, "items"),
        ({"agents": [1], "items": 2, "utilities": [[1]]}, "utilities"),
        ({"agents": [1], "items": 1, "utilities": [[1], [2]]}, "utilities"),
    ],
)
def test_parse_instance_names_offending_field(doc, field):
    with pytest.raises(ParseError) as err:
        parse_instance(doc)
    assert field in str(err.value)


def test_allocation_and_sequence_documents_one_indexed():
    alloc = parse_allocation('{"bundles": [[1, 3], [2]]}')
    assert alloc.bundles == (frozenset({0, 2}), frozenset({1}))
    assert json.loads(serialize_allocation(alloc)) == {"bundles": [[1, 3], [2]]}
    seq = parse_sequence('{"turns": [1, 2, 1]}')
    assert seq.turns == (0, 1, 0)
    assert parse_sequence("[1, 2, 1]") == seq
    assert json.loads(serialize_sequence(seq)) == {"turns": [1, 2, 1]}
    with pytest.raises(ParseError):
        parse_sequence("[0, 1]")
    with pytest.raises(ParseError):
        parse_allocation('{"bundles": [[0]]}')


def test_rational_order_matches_cross_multiplication():
    rng = random.Random(4821)
    for _ in range(2000):
        p1, p2 = rng.randint(-50, 50), rng.randint(-50, 50)
        q1, q2 = rng.randint(1, 50), rng.randint(1, 50)
        assert (Fraction(p1, q1) < Fraction(p2, q2)) == (p1 * q2 < p2 * q1)
        assert (Fraction(p1, q1) == Fraction(p2, q2)) == (p1 * q2 == p2 * q1)
