import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from pickseq.core import Allocation, Instance
from pickseq.executor import execute
from pickseq.fairness import (
    FairnessVerdict,
    Witness,
    check_allocation,
    check_quota_bounds,
    check_sequence,
    divisor_wwef1_condition,
    zero_one_instance,
)
from pickseq.methods import (
    ADAMS,
    DEAN,
    HILL,
    JEFFERSON,
    TRADITIONAL,
    WEBSTER,
    custom,
    divisor_sequence,
    power_mean,
    quota_sequence,
)

NOTIONS = ("wef1", "wwef1", "wprop1")


def random_profile(rng, n, m, top=10):
    return Instance(
        tuple(Fraction(rng.randint(1, 9)) for _ in range(n)),
        tuple(tuple(Fraction(rng.randint(0, top)) for _ in range(m)) for _ in range(n)),
    )


# --- allocation-level ----------------------------------------------------------


def test_all_to_one_agent_fails_wef1():
    inst = Instance((1, 1), ((1, 1), (1, 1)))
    alloc = Allocation((frozenset({0, 1}), frozenset()))
    verdict = check_allocation("wef1", inst, alloc)
    assert not verdict.holds
    assert verdict.witness.agent == 1 and verdict.witness.against == 0


def test_one_item_each_fails_wprop1_for_heavy_agent():
    inst = Instance((Fraction(8, 10), Fraction(1, 10), Fraction(1, 10)), ((1, 1, 1),) * 3)
    alloc = Allocation((frozenset({0}), frozenset({1}), frozenset({2})))
    verdict = check_allocation("wprop1", inst, alloc)
    assert not verdict.holds
    assert verdict.witness.agent == 0
    assert verdict.witness.lhs == 1 and verdict.witness.rhs == Fraction(7, 5)


def test_wef1_implies_wwef1_on_random_allocations():
    rng = random.Random(321)
    for _ in range(300):
        n, m = rng.randint(2, 4), rng.randint(1, 7)
        inst = random_profile(rng, n, m)
        bundles = [set() for _ in range(n)]
        for g in range(m):
            bundles[rng.randrange(n)].add(g)
        alloc = Allocation(tuple(frozenset(b) for b in bundles))
        if check_allocation("wef1", inst, alloc).holds:
            assert check_allocation("wwef1", inst, alloc).holds


def test_witness_inequality_reevaluates():
    rng = random.Random(20)
    for _ in range(200):
        n, m = rng.randint(2, 4), rng.randint(1, 6)
        inst = random_profile(rng, n, m)
        bundles = [set() for _ in range(n)]
        for g in range(m):
            bundles[rng.randrange(n)].add(g)
        alloc = Allocation(tuple(frozenset(b) for b in bundles))
        for notion in NOTIONS:
            verdict = check_allocation(notion, inst, alloc)
            if not verdict.holds:
                assert verdict.witness.lhs < verdict.witness.rhs


# --- sequence-level -------------------------------------------------------------


def test_unbalanced_two_agent_sequence_wef1_vs_wwef1():
    weights = (Fraction(1), Fraction(2))
    wef1 = check_sequence("wef1", [0, 1, 1, 1, 1], weights)
    assert not wef1.holds
    assert wef1.witness.prefix == 5
    assert (wef1.witness.lhs, wef1.witness.rhs) == (Fraction(1, 3), Fraction(1, 2))
    assert check_sequence("wwef1", [0, 1, 1, 1, 1], weights).holds


def test_round_robin_equal_weights_satisfies_all_notions():
    weights = (1, 1, 1)
    seq = [0, 1, 2, 0, 1, 2, 0]
    for notion in NOTIONS:
        assert check_sequence(notion, seq, weights).holds


def test_sequence_wef1_implies_wwef1_random():
    rng = random.Random(77)
    for _ in range(400):
        n = rng.randint(2, 5)
        m = rng.randint(1, 12)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        seq = [rng.randrange(n) for _ in range(m)]
        if check_sequence("wef1", seq, weights).holds:
            assert check_sequence("wwef1", seq, weights).holds


def test_soundness_bridge_zero_one_instance():
    # any sequence-level failure converts into a concrete allocation failure
    rng = random.Random(1003)
    converted = 0
    for _ in range(400):
        n = rng.randint(2, 5)
        m = rng.randint(1, 10)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        seq = [rng.randrange(n) for _ in range(m)]
        for notion in NOTIONS:
            verdict = check_sequence(notion, seq, weights)
            if verdict.holds:
                continue
            bridge = zero_one_instance(weights, m, verdict.witness.prefix)
            alloc = execute(bridge, seq)
            assert not check_allocation(notion, bridge, alloc).holds
            converted += 1
    assert converted > 100


def test_completeness_bridge_random_profiles():
    rng = random.Random(1004)
    checked = 0
    for _ in range(150):
        n = rng.randint(2, 4)
        m = rng.randint(1, 8)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        seq = [rng.randrange(n) for _ in range(m)]
        for notion in NOTIONS:
            if not check_sequence(notion, seq, weights).holds:
                continue
            for _ in range(5):
                inst = Instance(
                    weights,
                    tuple(tuple(Fraction(rng.randint(0, 10)) for _ in range(m)) for _ in range(n)),
                )
                assert check_allocation(notion, inst, execute(inst, seq)).holds
                checked += 1
    assert checked > 200


# --- divisor wwef1 condition ----------------------------------------------------


def test_traditional_methods_satisfy_single_variable_condition():
    for f in (ADAMS, JEFFERSON, WEBSTER, HILL, DEAN):
        assert divisor_wwef1_condition(f, 1000).holds


def test_jump_table_fails_condition_at_t1():
    f = custom([Fraction(0), Fraction(1)], tail_offset=1)
    verdict = divisor_wwef1_condition(f, 2)
    assert not verdict.holds
    assert verdict.witness.t == 1


def test_shifted_half_table_satisfies_condition():
    f = custom([Fraction(1, 2), Fraction(3, 2)], tail_offset=1)
    assert divisor_wwef1_condition(f, 100).holds


def test_power_mean_grid_satisfies_condition_small():
    for p in range(-3, 4):
        for w in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
            assert divisor_wwef1_condition(power_mean(p, w), 200).holds


# --- quota bounds ----------------------------------------------------------------


def test_jefferson_prefixes_satisfy_lower_quota_random():
    rng = random.Random(88)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = rng.randint(1, 12)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        seq = divisor_sequence(JEFFERSON, n, m, weights)
        assert check_quota_bounds(seq, weights, mode="every-prefix", bound="lower").holds


def test_quota_sequences_within_both_bounds_random():
    rng = random.Random(89)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = rng.randint(1, 12)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        seq = quota_sequence(n, m, weights)
        assert check_quota_bounds(seq, weights, mode="full", bound="both").holds


def test_lower_quota_floor_violation():
    verdict = check_quota_bounds([0, 0], (1, 3), mode="full", bound="lower")
    assert not verdict.holds
    assert verdict.witness.agent == 1


@pytest.mark.parametrize("mode", ["full", "every-prefix"])
@pytest.mark.parametrize("turns", [[0, 4], [-1, 0]])
def test_quota_bounds_reject_an_agent_with_no_weight(turns, mode):
    # the same refusal as check_sequence, not an IndexError or a count
    # silently moved to the last agent
    checks = [lambda: check_quota_bounds(turns, (1, 1), mode=mode)]
    checks += [lambda notion=notion: check_sequence(notion, turns, (1, 1)) for notion in NOTIONS]
    for check in checks:
        with pytest.raises(ValueError, match="sequence references an agent with no weight"):
            check()


def test_every_prefix_lower_quota_implies_wprop1():
    rng = random.Random(90)
    tested = 0
    for _ in range(400):
        n = rng.randint(2, 4)
        m = rng.randint(1, 10)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        seq = [rng.randrange(n) for _ in range(m)]
        if check_quota_bounds(seq, weights, mode="every-prefix", bound="lower").holds:
            assert check_sequence("wprop1", seq, weights).holds
            tested += 1
    assert tested > 20


# --- method-level fairness (randomized, small) -----------------------------------


def test_adams_sequences_wef1_random():
    rng = random.Random(91)
    for _ in range(150):
        n = rng.randint(2, 6)
        m = rng.randint(1, 14)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        assert check_sequence("wef1", divisor_sequence(ADAMS, n, m, weights), weights).holds


def test_jefferson_and_quota_sequences_wprop1_random():
    rng = random.Random(92)
    for _ in range(150):
        n = rng.randint(2, 6)
        m = rng.randint(1, 14)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        assert check_sequence("wprop1", divisor_sequence(JEFFERSON, n, m, weights), weights).holds
        assert check_sequence("wprop1", quota_sequence(n, m, weights), weights).holds


def test_all_methods_wwef1_random():
    rng = random.Random(93)
    for _ in range(100):
        n = rng.randint(2, 6)
        m = rng.randint(1, 14)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        for f in TRADITIONAL.values():
            assert check_sequence("wwef1", divisor_sequence(f, n, m, weights), weights).holds
        assert check_sequence("wwef1", quota_sequence(n, m, weights), weights).holds


def test_notion_validation():
    with pytest.raises(ValueError):
        check_sequence("ef2", [0], (1,))
    with pytest.raises(ValueError):
        check_quota_bounds([0], (1,), mode="sometimes")
    with pytest.raises(ValueError):
        divisor_wwef1_condition(ADAMS, 0)


def test_verdict_and_bound_refusals():
    witness = Witness(Fraction(0), Fraction(1), agent=0)
    with pytest.raises(ValueError) as info:
        FairnessVerdict("wef1", True, witness)
    assert str(info.value) == "a passing verdict carries no witness"
    with pytest.raises(ValueError) as info:
        FairnessVerdict("wef1", False)
    assert str(info.value) == "a failing verdict must carry a witness"
    with pytest.raises(ValueError) as info:
        check_quota_bounds([0, 1], (1, 1), bound="upper")
    assert str(info.value) == "bound must be 'lower' or 'both'"


def test_webster_wprop1_certificate_up_to_three_agents():
    # Exhaustive over every descending weight vector (one per multiset) with
    # gcd 1 and entries in 1..40 for n = 2, 3.  Sequences are scale-invariant,
    # so the gcd-1 vectors stand for all their multiples; divisor sequences
    # are resource-consistent and check_sequence tests every prefix, so
    # length 10 covers every m <= 10.
    vectors = [
        weights
        for n in (2, 3)
        for weights in combinations_with_replacement(range(40, 0, -1), n)
        if math.gcd(*weights) == 1
    ]
    assert len(vectors) == 9879
    violations = [
        weights
        for weights in vectors
        if not check_sequence("wprop1", divisor_sequence(WEBSTER, len(weights), 10, weights), weights).holds
    ]
    assert violations == []
