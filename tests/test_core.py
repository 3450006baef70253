import copy
import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from pickseq.core import (
    Allocation,
    Instance,
    ParseError,
    PickingSequence,
    agents_in_range,
    bundle_utility,
    format_rational,
    integer_weights,
    parse_allocation,
    parse_instance,
    parse_rational,
    parse_sequence,
    serialize_allocation,
    serialize_instance,
    serialize_sequence,
    turns_of,
)
from pickseq.baselines import adjusted_winner, envy_cycle_eliminate, round_robin_sequence
from pickseq.executor import execute
from pickseq.fairness import check_allocation, check_quota_bounds, check_sequence, zero_one_instance
from pickseq.harness import PERTURBATIONS, random_instance
from pickseq.methods import (
    ADAMS,
    DEAN,
    HILL,
    WEBSTER,
    compare_scores,
    divisor_rule,
    divisor_sequence,
    quota_sequence,
    stationary,
)
from pickseq.mwnw import solve

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


def test_scaled_utilities_keeps_integer_rows():
    scales, rows = Instance((1, 2, 3), FLIP_TABLE).scaled_utilities
    assert scales == (1, 1, 1)
    assert rows == FLIP_TABLE
    assert all(type(u) is int for row in rows for u in row)


def test_scaled_utilities_smallest_integer_multiple():
    inst = Instance(
        (1, 1, 1),
        (
            (Fraction(1, 2), Fraction(1, 3), Fraction(5, 6), 2),
            (Fraction(2, 3), Fraction(4, 3), 0, Fraction(2, 9)),
            (Fraction(3, 4), 1, Fraction(1, 4), Fraction(1, 4)),
        ),
    )
    scales, rows = inst.scaled_utilities
    assert scales == (6, 9, 4)
    assert rows == ((3, 2, 5, 12), (6, 12, 0, 2), (3, 4, 1, 1))
    for scale, row, original in zip(scales, rows, inst.utilities):
        assert all(u * scale == v for u, v in zip(original, row))
        # no smaller positive multiple of the row is integral
        assert all(any((u * k).denominator != 1 for u in original) for k in range(1, scale))


def test_scaled_utilities_zero_row_and_no_items():
    scales, rows = Instance((1, 2), ((0, 0, 0), (Fraction(1, 5), 0, 1))).scaled_utilities
    assert scales == (1, 5)
    assert rows == ((0, 0, 0), (1, 0, 5))
    assert Instance((1, Fraction(1, 2)), ((), ())).scaled_utilities == ((1, 1), ((), ()))


def fresh_view(inst: Instance):
    """The integer view computed from scratch: the common weight scale and
    each row's smallest integral multiple."""
    weight_scale = math.lcm(*(w.denominator for w in inst.weights))
    scales = tuple(math.lcm(*(u.denominator for u in row)) for row in inst.utilities)
    rows = tuple(tuple(int(u * s) for u in row) for s, row in zip(scales, inst.utilities))
    return tuple(int(w * weight_scale) for w in inst.weights), (scales, rows)


def fresh_orders(inst: Instance):
    """Each agent's items by Fraction value descending, ties to the lower index."""
    return tuple(
        tuple(sorted(range(inst.m), key=lambda g: (-row[g], g))) for row in inst.utilities
    )


def mixed_instance() -> Instance:
    return Instance(
        (Fraction(3, 4), 2, Fraction(5, 6)),
        ((Fraction(1, 2), 3, 0), (1, Fraction(2, 3), Fraction(7, 9)), (0, 0, 0)),
        agent_names=("a", "b", "c"),
    )


def test_integer_view_is_memoized_and_matches_fresh_computation():
    inst = mixed_instance()
    view = inst.scaled_utilities
    assert inst.scaled_utilities is view
    assert inst.scaled_weights is inst.scaled_weights
    assert (inst.scaled_weights, view) == fresh_view(inst)
    assert fresh_view(inst) == ((9, 24, 10), ((2, 9, 1), ((1, 6, 0), (9, 6, 7), (0, 0, 0))))
    assert inst.preference_orders is inst.preference_orders
    assert inst.preference_orders == fresh_orders(inst) == ((1, 0, 2), (0, 2, 1), (0, 1, 2))


def test_filled_integer_view_leaves_equality_hash_repr_and_pickle_unchanged():
    cold, warm = mixed_instance(), mixed_instance()
    before = (repr(warm), hash(warm), pickle.dumps(warm), copy.copy(warm), copy.deepcopy(warm))
    warm.scaled_utilities
    warm.scaled_weights, warm.preference_orders
    # check_allocation's table for one allocation, filled for every notion
    allocation = Allocation((frozenset({1}), frozenset({0}), frozenset({2})))
    for notion in ("wef1", "wwef1", "wprop1"):
        check_allocation(notion, warm, allocation)
    assert vars(warm)["_allocation_table"].allocation is allocation
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert (repr(warm), hash(warm), pickle.dumps(warm), copy.copy(warm), copy.deepcopy(warm)) == before
    assert pickle.dumps(warm) == pickle.dumps(cold)
    for clone in (pickle.loads(pickle.dumps(warm)), copy.copy(warm), copy.deepcopy(warm)):
        assert clone == warm and "scaled_utilities" not in vars(clone)
        assert "preference_orders" not in vars(clone) and "_allocation_table" not in vars(clone)
        assert (clone.scaled_weights, clone.scaled_utilities) == fresh_view(warm)
        assert clone.preference_orders == fresh_orders(warm)


def assert_built_with_fresh_view(inst: Instance):
    """The instance's views equal a fresh computation, and it compares,
    hashes, prints, pickles and copies as the same fields built afresh."""
    assert (inst.scaled_weights, inst.scaled_utilities) == fresh_view(inst)
    assert inst.preference_orders == fresh_orders(inst)
    fresh = Instance(inst.weights, inst.utilities, inst.agent_names, inst.item_names)
    assert inst == fresh and hash(inst) == hash(fresh) and repr(inst) == repr(fresh)
    assert inst.__getstate__() == fresh.__getstate__()
    for clone in (pickle.loads(pickle.dumps(inst)), copy.copy(inst), copy.deepcopy(inst)):
        assert clone == inst and "scaled_utilities" not in vars(clone)
        assert clone.preference_orders == fresh_orders(inst)


def test_derived_instances_get_their_own_integer_view():
    inst = mixed_instance()
    # fill the parent's view before deriving
    inst.scaled_utilities, inst.scaled_weights, inst.preference_orders
    derived = [
        inst.replace_weight(1, Fraction(7, 10)),
        inst.add_item((Fraction(1, 5), 4, Fraction(3, 8))),
        inst.add_agent(Fraction(1, 7), (Fraction(5, 11), 0, 2)),
    ]
    for other in derived:
        assert_built_with_fresh_view(other)
    assert derived[0].scaled_weights == (45, 42, 50)
    assert derived[1].preference_orders[0] == (1, 0, 3, 2)
    assert_built_with_fresh_view(inst)
    # a cold parent gets its view on the way
    assert_built_with_fresh_view(mixed_instance().add_item((1, 2, 3)))

    # 4 does not divide the first row's scale 6, so that row moves to 12;
    # 2 divides the second row's scale 4, which stays
    inst = Instance((1, 2), ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), 1)))
    assert inst.scaled_utilities == ((6, 4), ((3, 2), (1, 4)))
    grown = inst.add_item((Fraction(1, 4), Fraction(3, 2)))
    assert grown.scaled_utilities == ((12, 4), ((6, 4, 3), (1, 4, 6)))
    assert grown.preference_orders == ((0, 1, 2), (2, 1, 0))
    assert_built_with_fresh_view(grown)

    # a new item follows every item it ties
    inst = Instance((1, 1), ((3, 5, 3, 0), (Fraction(1, 2), 0, Fraction(1, 2), 2)))
    tie, top = inst.add_item((3, Fraction(1, 2))), inst.add_item((5, 2))
    assert tie.preference_orders == ((1, 0, 2, 4, 3), (3, 0, 2, 4, 1))
    assert top.preference_orders == ((1, 4, 0, 2, 3), (3, 4, 0, 2, 1))
    assert_built_with_fresh_view(tie)
    assert_built_with_fresh_view(top)

    # a parent without items
    empty = Instance((Fraction(1, 2), 3), ((), ()))
    one = empty.add_item((Fraction(2, 3), 0))
    assert one.scaled_utilities == ((3, 1), ((2,), (0,)))
    for other in (one, empty.add_agent(Fraction(5, 3), ()), empty.replace_weight(0, 4)):
        assert_built_with_fresh_view(other)

    # a chain of derived instances, each derived from the last
    inst = mixed_instance()
    for step in range(12):
        if step % 3 == 0:
            inst = inst.add_item([Fraction(step + 1, k + 2) for k in range(inst.n)])
        elif step % 3 == 1:
            inst = inst.add_agent(Fraction(step, 5), [Fraction(g % 4, 3) for g in range(inst.m)])
        else:
            inst = inst.replace_weight(step % inst.n, Fraction(7, step))
        assert_built_with_fresh_view(inst)
    assert (inst.n, inst.m) == (7, 7)

    # random instances are built with their drawn ints as their view
    for seed in range(100):
        inst = random_instance(random.Random(seed), max_n=5, max_m=8)
        assert_built_with_fresh_view(inst)
        assert all(type(w) is int for w in inst.scaled_weights)


# Each perturbation's error, with two faults at once where there are two:
# the fault that the instance constructor checks first is reported.
PERTURBATION_ERRORS = {
    "add_agent zero weight, negative utility": (
        lambda inst: inst.add_agent(0, (-1, 2)), "weights must be strictly positive"),
    "add_agent negative utility": (
        lambda inst: inst.add_agent(1, (1, Fraction(-1, 3))), "utilities must be non-negative"),
    "add_agent short row, zero weight": (
        lambda inst: inst.add_agent(0, (1,)), "extra agent needs one utility per item"),
    "add_item negative": (
        lambda inst: inst.add_item((1, -1)), "utilities must be non-negative"),
    "add_item short, negative": (
        lambda inst: inst.add_item((-1,)), "extra item needs one utility per agent"),
    "replace_weight zero": (
        lambda inst: inst.replace_weight(0, 0), "weights must be strictly positive"),
    "replace_weight out of range, zero": (
        lambda inst: inst.replace_weight(2, 0), "agent index 2 out of range"),
}


@pytest.mark.parametrize("case", sorted(PERTURBATION_ERRORS))
def test_perturbation_errors(case):
    perturb, message = PERTURBATION_ERRORS[case]
    inst = Instance((Fraction(3, 4), 2), ((Fraction(1, 2), 3), (1, 0)))
    with pytest.raises(ValueError) as info:
        perturb(inst)
    assert type(info.value) is ValueError and str(info.value) == message


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


FLOAT_ENTRY_POINTS = {
    "Instance": lambda: Instance((1, 2), ((1,), (0.5,))),
    "add_item": lambda: flip_instance().add_item((1, 0.5, 2)),
    "add_agent": lambda: flip_instance().add_agent(0.5, (0, 0, 0, 0, 1)),
    "replace_weight": lambda: flip_instance().replace_weight(0, 0.5),
    "integer_weights": lambda: integer_weights([0.1, 1]),
    "divisor_sequence": lambda: divisor_sequence(WEBSTER, 2, 4, [0.5, 1.0]),
    "quota_sequence": lambda: quota_sequence(2, 4, [1, 0.5]),
    "check_sequence": lambda: check_sequence("wef1", [0, 1, 0], [1, 0.5]),
    "check_quota_bounds": lambda: check_quota_bounds([0, 1, 0], [1, 0.5]),
    "compare_scores": lambda: compare_scores(WEBSTER, 0, 0.5, 1, 1),
    "zero_one_instance": lambda: zero_one_instance([1, 0.5], 3, 2),
    "PERTURBATIONS.weight.compare": lambda: PERTURBATIONS["weight"].compare(
        divisor_rule(WEBSTER), flip_instance(), 0, 2.5
    ),
    "stationary": lambda: stationary(0.5),
}


@pytest.mark.parametrize("call", FLOAT_ENTRY_POINTS.values(), ids=list(FLOAT_ENTRY_POINTS))
def test_floats_raise_type_error_at_every_entry_point(call):
    # 0.1 is the binary 3602879701896397/2^55, not 1/10: it never enters silently
    with pytest.raises(TypeError, match="floats are banned"):
        call()


DECIMAL_STRING_ENTRY_POINTS = {
    "Instance": lambda: Instance(("0.5", 1), ((1,), (1,))),
    "divisor_sequence": lambda: divisor_sequence(ADAMS, 2, 3, ("0.5", 1)),
    "check_sequence": lambda: check_sequence("wef1", [0, 1, 0], ("1e1", 1)),
    "stationary": lambda: stationary("0.5"),
}


@pytest.mark.parametrize("call", DECIMAL_STRING_ENTRY_POINTS.values(),
                         ids=list(DECIMAL_STRING_ENTRY_POINTS))
def test_strings_enter_as_p_over_q_only(call):
    # the library reads a string by the grammar of the documents and the CLI
    with pytest.raises(ParseError, match="not a valid rational literal"):
        call()


def test_p_over_q_strings_enter_as_rationals():
    assert Instance(("1/2", "3"), (("0",), ("2/4",))) == Instance(
        (Fraction(1, 2), 3), ((0,), (Fraction(1, 2),)))
    assert divisor_sequence(ADAMS, 2, 3, ("1/2", 1)) == divisor_sequence(ADAMS, 2, 3, (1, 2))
    assert stationary("1/3").c == Fraction(1, 3)


def test_fractions_enter_as_they_are():
    w, u = Fraction(3, 4), Fraction(5, 6)
    inst = Instance((w, 2), ((u,), (0,)))
    assert inst.weights[0] is w and inst.utilities[0][0] is u
    assert inst.add_item((u, 1)).utilities[0][1] is u
    assert inst.replace_weight(1, w).weights[1] is w
    assert integer_weights([w, Fraction(1, 2), 3]) == (3, 2, 12)


def test_integer_weights_keep_an_int_tuple_as_it_is():
    weights = (3, 5)
    assert integer_weights(weights) is weights
    for bad in ((0, 1), (3, -5)):
        with pytest.raises(ValueError, match="strictly positive"):
            integer_weights(bad)
    with pytest.raises(TypeError, match="floats are banned"):
        integer_weights((3, 0.5))
    # bools and Fractions take the converting path
    assert integer_weights((True, 2)) == (1, 2)
    assert integer_weights((Fraction(4), Fraction(6))) == (4, 6)


def test_integer_weights_remember_each_tuple_by_identity():
    # equal tuples are distinct keys: each int tuple comes back as itself
    ints, equal_ints = (3, 5), tuple([3, 5])
    halves, thirds = (Fraction(1, 2), Fraction(1, 3)), ("1/3", "1/2")
    for _ in range(2):
        assert integer_weights(ints) is ints
        assert integer_weights(equal_ints) is equal_ints
        assert integer_weights(halves) == (3, 2)
        assert integer_weights(thirds) == (2, 3)
    scaled = integer_weights(halves)
    assert integer_weights(halves) is scaled


def test_integer_weights_read_a_changed_list_again():
    weights = [Fraction(1, 2), 1]
    assert integer_weights(weights) == (1, 2)
    weights[1] = Fraction(1, 3)
    assert integer_weights(weights) == (3, 2)
    weights.append(3)
    assert integer_weights(weights) == (3, 2, 18)


@pytest.mark.parametrize("bad, error", [
    ((0, 1), ValueError), ((3, -5), ValueError), ((Fraction(0), 1), ValueError),
    ((Fraction(-1, 2), 1), ValueError), ((3, 0.5), TypeError), ((Fraction(1), 0.5), TypeError),
    ((1.0, 2.0), TypeError),
])
def test_integer_weights_remember_no_failing_tuple(bad, error):
    for good in ((Fraction(1, 2), Fraction(1, 3)), (1, 2)):
        scaled = integer_weights(good)
        for _ in range(2):
            with pytest.raises(error):
                integer_weights(bad)
        # the entry is still the good tuple's: its scaling comes back as it was
        assert integer_weights(good) is scaled


def test_agents_in_range():
    assert agents_in_range((), 0)
    assert agents_in_range((0, 2, 1), 3)
    assert not agents_in_range((0, 3), 3)
    assert not agents_in_range((-1, 0), 3)


def test_instance_perturbation_helpers():
    inst = flip_instance()
    grown = inst.add_item((1, 2, 3))
    assert grown.m == 6 and grown.utilities[2][5] == 3
    taller = inst.add_agent(Fraction(1, 3), (0, 0, 0, 0, 1))
    assert taller.n == 4 and taller.weights[3] == Fraction(1, 3)
    boosted = inst.replace_weight(0, Fraction(11, 18))
    assert boosted.weights[0] == Fraction(11, 18)
    assert inst.weights[0] == Fraction(9, 18)  # original untouched


NON_INTEGER_INDICES = {
    "float": 1.9,
    "integral float": 1.0,
    "string": "1",
    "Fraction": Fraction(1),
}


@pytest.mark.parametrize("bad", NON_INTEGER_INDICES.values(), ids=list(NON_INTEGER_INDICES))
def test_non_integer_indices_raise_type_error(bad):
    # int() would truncate 1.9 to agent 1 and read "1" as agent 1
    with pytest.raises(TypeError):
        PickingSequence((bad, 0))
    with pytest.raises(TypeError):
        Allocation(([0, bad], [2]))
    with pytest.raises(TypeError):
        turns_of([0, bad, 0])
    with pytest.raises(TypeError):
        check_sequence("wef1", [0, bad, 0], (1, 1))
    with pytest.raises(TypeError):
        execute(Instance((1, 1), ((1, 2, 3), (3, 2, 1))), [0, bad, 0])
    # ints and anything else with __index__ stay accepted
    assert PickingSequence((True, 0)).turns == (1, 0)
    assert Allocation(([0, True], [2])).bundles == (frozenset({0, 1}), frozenset({2}))


def assert_same_as_validated(result):
    """A generator's or solver's result compares, hashes, prints and
    pickles as the same value built by the public constructor."""
    if isinstance(result, PickingSequence):
        assert type(result.turns) is tuple and all(type(a) is int for a in result.turns)
        fresh = PickingSequence(list(result.turns))
    else:
        assert type(result.bundles) is tuple
        assert all(type(b) is frozenset and all(type(g) is int for g in b) for b in result.bundles)
        fresh = Allocation([set(b) for b in result.bundles])
    assert result == fresh and hash(result) == hash(fresh) and repr(result) == repr(fresh)
    assert vars(result) == vars(fresh) and pickle.dumps(result) == pickle.dumps(fresh)
    for clone in (pickle.loads(pickle.dumps(result)), copy.copy(result), copy.deepcopy(result)):
        assert clone == fresh and hash(clone) == hash(fresh) and vars(clone) == vars(fresh)


TRUSTED_RESULTS = {
    "divisor_sequence": lambda: [
        divisor_sequence(f, n, m, weights)
        for f in (WEBSTER, ADAMS, HILL, DEAN)
        for n, m, weights in ((3, 7, (3, 1, 2)), (3, 2, (1, 1, 1)), (1, 4, (2,)), (2, 0, (1, 2)))
    ],
    "quota_sequence": lambda: [quota_sequence(3, m, (Fraction(1, 2), 2, 3)) for m in (0, 1, 8)],
    "round_robin_sequence": lambda: [round_robin_sequence(3, m) for m in (0, 2, 7)],
    "execute": lambda: [execute(flip_instance(), divisor_sequence(WEBSTER, 3, 5, flip_instance().weights)),
                        execute(Instance((1, 2), ((), ())), ())],
    "mwnw.solve": lambda: [solve(flip_instance()), solve(mixed_instance()), solve(Instance((1,), ((),)))],
    "envy_cycle_eliminate": lambda: [envy_cycle_eliminate(flip_instance()),
                                     envy_cycle_eliminate(mixed_instance())],
    "adjusted_winner": lambda: [adjusted_winner(Instance((1, 1), row)) for row in
                                (((3, 1, 0, 2), (1, 1, 2, 0)), ((), ()))],
}


@pytest.mark.parametrize("results", TRUSTED_RESULTS.values(), ids=list(TRUSTED_RESULTS))
def test_results_equal_their_validated_constructions(results):
    for result in results():
        assert_same_as_validated(result)


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
        # the field with its whole message
        ("[1, 2]", "document: top level must be a JSON object"),
        ({"agents": [1], "items": -1, "utilities": [[]]}, "items: item count must be non-negative"),
        ({"agents": [1], "items": "3", "utilities": [[1, 1, 1]]},
         "items: must be an integer count or a list of names"),
        ({"agents": [1], "items": True, "utilities": [[1]]},
         "items: must be an integer count or a list of names"),
    ],
)
def test_parse_instance_names_offending_field(doc, field):
    with pytest.raises(ParseError) as err:
        parse_instance(doc)
    assert field in str(err.value)


@pytest.mark.parametrize(
    "parse, doc, message",
    [
        (parse_allocation, '{"bundles": {"1": [1]}}', "bundles: must be a list of item lists"),
        (parse_allocation, '{"bundles": [[1], 2]}', "bundles[1]: must be a list of 1-indexed items"),
        (parse_sequence, '{"turns": "1 2 1"}', "turns: must be a list of 1-indexed agents"),
        (parse_sequence, {"turns": None}, "turns: must be a list of 1-indexed agents"),
    ],
)
def test_parse_allocation_and_sequence_name_offending_field(parse, doc, message):
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert str(err.value) == message


# Each constructor refusal, with its message.
CONSTRUCTOR_ERRORS = {
    "Instance rows of unequal length": (
        lambda: Instance((1, 1), ((1, 2), (1,))), "utility rows must all have the same length"),
    "agent_names of the wrong length": (
        lambda: Instance((1, 1), ((1,), (1,)), agent_names=("a",)),
        "agent_names length must equal the agent count"),
    "item_names of the wrong length": (
        lambda: Instance((1,), ((1, 2),), item_names=("x", "y", "z")),
        "item_names length must equal the item count"),
    "Allocation negative item": (
        lambda: Allocation((frozenset({0}), frozenset({-1}))), "item indices must be non-negative"),
    "PickingSequence negative agent": (
        lambda: PickingSequence((0, -1, 0)), "agent indices must be non-negative"),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTOR_ERRORS))
def test_constructor_errors(case):
    build, message = CONSTRUCTOR_ERRORS[case]
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message


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
