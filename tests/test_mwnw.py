import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import reference
from pickseq.core import Allocation, Instance
from pickseq.fairness import check_allocation
from pickseq import mwnw
from pickseq.mwnw import (
    BudgetExceededError,
    score,
    solve,
    weight_exponents,
)


def test_resource_flip_three_items():
    inst = Instance((1, 1), ((3, 2, 2), (2, 2, 1)))
    alloc = solve(inst)
    assert alloc.bundles == (frozenset({0, 2}), frozenset({1}))


def test_resource_flip_four_items():
    inst = Instance((1, 1), ((3, 2, 2, 2), (2, 2, 1, 1)))
    alloc = solve(inst)
    assert alloc.bundles == (frozenset({2, 3}), frozenset({0, 1}))


def test_uniform_heavy_agent_gets_one_item_each():
    inst = Instance((Fraction(8, 10), Fraction(1, 10), Fraction(1, 10)), ((1, 1, 1),) * 3)
    alloc = solve(inst)
    assert sorted(len(b) for b in alloc.bundles) == [1, 1, 1]


def test_score_all_empty_is_zero_class():
    inst = Instance((1, 2), ((1, 1), (1, 1)))
    empty = Allocation((frozenset(), frozenset({0, 1})))
    s = score(inst, empty)
    assert not s.is_positive
    assert s.support == frozenset({1})
    all_empty = score(Instance((1,), ((),)), Allocation((frozenset(),)))
    assert all_empty.support == frozenset()


def test_scores_of_different_instances_do_not_compare():
    two = score(Instance((1, 1), ((1,), (1,))), Allocation((frozenset({0}), frozenset())))
    one = score(Instance((1,), ((1,),)), Allocation((frozenset({0}),)))
    with pytest.raises(ValueError) as info:
        two.compare(one)
    assert str(info.value) == "scores of different instances are not comparable"


def test_score_unit_exponents():
    inst = Instance((1, 1, 1), ((2, 3, 3, 2), (1, 2, 1, 3), (2, 1, 1, 3)))
    alloc = Allocation((frozenset({1, 2}), frozenset({3}), frozenset({0})))
    s = score(inst, alloc)
    assert s.exponents == (1, 1, 1)
    assert s.utilities == (6, 3, 2)
    assert s.product == 36


def test_weight_exponents_common_denominator():
    assert weight_exponents((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert weight_exponents((Fraction(2), Fraction(4))) == (1, 2)
    assert weight_exponents((Fraction(1),)) == (1,)


def test_score_ordering_matches_log_comparison():
    weights = (Fraction(1, 2), Fraction(1, 3))
    inst = Instance(weights, ((4, 4, 8), (8, 4, 4)))
    rng = random.Random(55)
    allocations = []
    for _ in range(40):
        bundles = [set(), set()]
        for g in range(3):
            bundles[rng.randrange(2)].add(g)
        allocations.append(Allocation(tuple(frozenset(b) for b in bundles)))
    for a in allocations:
        for b in allocations:
            sa, sb = score(inst, a), score(inst, b)
            if not (sa.is_positive and sb.is_positive):
                continue
            la = sum(float(w) * math.log(float(u)) for w, u in zip(weights, sa.utilities))
            lb = sum(float(w) * math.log(float(u)) for w, u in zip(weights, sb.utilities))
            if abs(la - lb) > 1e-9:
                assert sa.compare(sb) == (1 if la > lb else -1)


def test_score_comparison_strict_weak_order():
    rng = random.Random(56)
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 5)
        inst = Instance(
            tuple(Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)),
            tuple(tuple(Fraction(rng.randint(0, 6)) for _ in range(m)) for _ in range(n)),
        )
        scores = []
        for _ in range(3):
            bundles = [set() for _ in range(n)]
            for g in range(m):
                bundles[rng.randrange(n)].add(g)
            scores.append(score(inst, Allocation(tuple(frozenset(b) for b in bundles))))
        a, b, c = scores
        assert a.compare(b) == -b.compare(a)
        if a.compare(b) >= 0 and b.compare(c) >= 0:
            assert a.compare(c) >= 0


def test_score_order_matches_reference_rank():
    # the referee's own rank orders allocations as WelfareScore.compare does,
    # support ties included: many draws leave some agent at zero utility
    rng = random.Random(57)
    partial = 0
    for _ in range(200):
        n, m = rng.randint(2, 4), rng.randint(1, 5)
        inst = Instance(
            tuple(Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)),
            tuple(tuple(Fraction(rng.choice((0, 0, 1, 2, 5))) for _ in range(m)) for _ in range(n)),
        )
        exponents = weight_exponents(inst.weights)
        scores = []
        for _ in range(2):
            owners = [rng.randrange(n) for _ in range(m)]
            allocation = Allocation(
                tuple(frozenset(g for g in range(m) if owners[g] == i) for i in range(n))
            )
            s = score(inst, allocation)
            scores.append((s, reference.welfare_rank(n, s.utilities, exponents)))
        (a, rank_a), (b, rank_b) = scores
        assert a.compare(b) == (rank_a > rank_b) - (rank_a < rank_b), (inst, a, b)
        partial += not (a.is_positive and b.is_positive)
    assert partial >= 100


def test_zero_welfare_support_preference():
    # two agents want only the same single item: support {1} beats {2}
    inst = Instance((1, 5), ((3,), (2,)))
    alloc = solve(inst)
    assert alloc.bundles == (frozenset({0}), frozenset())
    # larger support always beats smaller
    inst2 = Instance((1, 1, 1), ((1, 0), (0, 1), (0, 1)))
    alloc2 = solve(inst2)
    s = score(inst2, alloc2)
    assert len(s.support) == 2 and s.support == frozenset({0, 1})


def test_pruned_and_unpruned_identical_random():
    rng = random.Random(57)
    for _ in range(120):
        n, m = rng.randint(1, 3), rng.randint(1, 6)
        inst = Instance(
            tuple(Fraction(rng.randint(1, 9)) for _ in range(n)),
            tuple(tuple(Fraction(rng.randint(0, 9)) for _ in range(m)) for _ in range(n)),
        )
        assert solve(inst, prune=True) == solve(inst, prune=False)


def test_pruned_and_unpruned_identical_on_tie_heavy_rows():
    # values from {0, 1, 2} make many partial assignments reach equal
    # utility vectors, the states the pruned search enters only once
    rng = random.Random(58)
    for _ in range(150):
        n, m = rng.randint(2, 3), rng.randint(2, 7)
        inst = Instance(
            tuple(Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) for _ in range(n)),
            tuple(tuple(rng.randint(0, 2) for _ in range(m)) for _ in range(n)),
        )
        assert solve(inst, prune=True) == solve(inst, prune=False)


def test_pruned_and_unpruned_match_reference_on_zero_heavy_rows():
    # half the values are 0, so items valued 0 by later agents (the
    # branches the pruned search skips) and zero-welfare optima are common
    rng = random.Random(60)
    partial_supports = 0
    for _ in range(150):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        while n**m > 1024:
            n, m = rng.randint(1, 5), rng.randint(1, 6)
        inst = Instance(
            tuple(Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 7))) for _ in range(n)),
            tuple(tuple(rng.choice((0, 0, 0, 1, 2, 5)) for _ in range(m)) for _ in range(n)),
        )
        expected = reference.mwnw_solve(inst)
        assert solve(inst, prune=True) == expected, inst
        assert solve(inst, prune=False) == expected, inst
        partial_supports += not score(inst, expected).is_positive
    assert partial_supports >= 50


# instances whose optimum ties exactly across several assignments and whose
# items' total values are not in index order, so the pruned search, most
# valuable items and top valuers first, meets the tied optima in another
# order than the lexicographic enumeration
TIED_OPTIMA = [
    # equal weights and equal rows: exchanging two agents' bundles ties
    ((1, 1), ((1, 0, 2, 0, 0, 1), (1, 0, 2, 0, 0, 1))),
    ((1, 1), ((1, 3, 0, 0), (1, 3, 0, 0))),
    ((1, 1, 1), ((1, 2, 1),) * 3),
    # duplicated item columns: exchanging two equal items ties
    ((3, 3, 2), ((0, 0, 1, 1, 0), (0, 0, 3, 3, 0), (2, 2, 3, 3, 2))),
    ((2, 3), ((1, 0, 1, 0), (3, 1, 3, 1))),
    ((3, 1, 3), ((1, 1, 1, 0, 1), (3, 0, 3, 1, 0), (2, 2, 2, 1, 2))),
    # rational weights
    ((1, Fraction(3, 2)), ((0, 1, 0, 1, 0), (1, 2, 2, 2, 0))),
    ((Fraction(4, 3), Fraction(4, 3)), ((1, 0, 1), (0, 2, 2))),
    ((3, Fraction(2, 3), Fraction(1, 3)), ((0, 1, 2, 1, 1), (1, 2, 1, 2, 0), (1, 1, 0, 1, 1))),
]


@pytest.mark.parametrize("weights, rows", TIED_OPTIMA)
def test_pruned_search_breaks_exact_ties_as_the_enumeration(weights, rows):
    inst = Instance(weights, rows)
    totals = [sum(col) for col in zip(*inst.scaled_utilities[1])]
    assert sorted(range(inst.m), key=totals.__getitem__, reverse=True) != list(range(inst.m))
    expected = solve(inst, prune=False)
    best = score(inst, expected)
    ties = 0
    for owners in itertools.product(range(inst.n), repeat=inst.m):
        bundles = tuple(frozenset(g for g, a in enumerate(owners) if a == i) for i in range(inst.n))
        ties += score(inst, Allocation(bundles)).compare(best) == 0
    assert ties >= 2
    assert solve(inst) == expected == reference.mwnw_solve(inst)


def test_state_skip_keeps_the_lexicographically_smaller_path():
    # two paths of the pruned search enter one state, the one with the
    # larger item-order code first; a revisit that reads no key off the
    # state drops the other path's completions, the tie-break winner among
    # them, and returns its tie ({0, 3, 5}, {1, 2, 4})
    inst = Instance((1, 1), ((1, 1, 2, 3, 1, 0),) * 2)
    alloc = solve(inst)
    assert alloc.bundles == (frozenset({0, 1, 2, 5}), frozenset({3, 4}))
    assert alloc == solve(inst, prune=False)


def test_support_ranked_tie_goes_to_the_smaller_assignment():
    # three agents and two items: no allocation is positive.  Agent 1 values
    # item 0 most and agent 0 item 1, so the pruned search first meets
    # (item 0 to agent 1, item 1 to agent 0), at 2^3 * 8 = 64 on the support
    # {0, 1}, and then its tie (item 0 to agent 0, item 1 to agent 1), at
    # 4^3 * 1 = 64, whose assignment is lexicographically smaller
    inst = Instance((3, 1, 1), ((4, 2), (8, 1), (0, 0)))
    alloc = solve(inst)
    assert alloc.bundles == (frozenset({0}), frozenset({1}), frozenset())
    assert alloc == solve(inst, prune=False) == reference.mwnw_solve(inst)


# the unpruned enumeration's allocation of the 4 x 10 instance below with
# its all-zero row at each position (prune=False takes about 3.5 s each)
ZERO_ROW_OPTIMA = [
    ((), (0, 4, 7), (3, 5, 6, 8), (1, 2, 9)),
    ((0, 1, 4, 7), (), (3, 5, 6, 8), (2, 9)),
    ((0, 1, 3, 4, 7, 8), (6,), (), (2, 5, 9)),
    ((0, 3, 4, 7, 8), (6,), (1, 2, 5, 9), ()),
]


@pytest.mark.parametrize("zero_row", range(4))
def test_zero_row_instance_solves_quickly(zero_row):
    # the agent of the zero row values nothing: every branch handing it an
    # item someone values is strictly beaten by handing the item to them,
    # at agent 0 as at any other
    rng = random.Random(5)
    rows = [tuple(rng.randint(0, 10) for _ in range(10)) for _ in range(3)]
    rows.insert(zero_row, (0,) * 10)
    inst = Instance((3, 1, 4, 2), tuple(rows))
    start = time.perf_counter()
    alloc = solve(inst)
    assert time.perf_counter() - start < 0.5
    assert alloc.bundles == tuple(map(frozenset, ZERO_ROW_OPTIMA[zero_row]))
    # the full unpruned enumeration is too slow for every run: compare it
    # live on the first eight items
    short = Instance(inst.weights, tuple(row[:8] for row in rows))
    assert solve(short) == solve(short, prune=False)


def test_pruned_and_unpruned_identical_with_many_agents():
    # 300 agents and 2 items: no allocation is positive, so every leaf is
    # ranked by its support, read from its two picks
    rng = random.Random(61)
    inst = Instance(
        tuple(rng.randint(1, 9) for _ in range(300)),
        tuple(tuple(rng.randint(0, 10) for _ in range(2)) for _ in range(300)),
    )
    alloc = solve(inst, prune=True)
    assert alloc == solve(inst, prune=False)
    assert sum(map(bool, alloc.bundles)) == 2


def test_tied_large_exponent_instance_solves_quickly():
    # exponents 30003 and 30001 on all-ones rows: every split of the items
    # is reached by many assignments, and each product has ~10^5 bits
    inst = Instance((Fraction(1, 30001), Fraction(1, 30003)), ((1,) * 16, (1,) * 16))
    start = time.perf_counter()
    alloc = solve(inst)
    assert time.perf_counter() - start < 1.0
    assert alloc == Allocation((frozenset(range(8)), frozenset(range(8, 16))))


@pytest.mark.parametrize(
    "weights, m, limit",
    [
        ((1, 1), 20, 0.5),
        ((Fraction(1, 30001), Fraction(1, 30003)), 14, 1.0),
        ((Fraction(1, 30001), Fraction(1, 30003)), 16, 1.0),
    ],
)
def test_tied_instance_with_the_top_valuer_last_in_index_solves_quickly(weights, m, limit):
    # agent 1 values every item twice as much as agent 0, so the pruned
    # search gives each item to agent 1 first and meets the paths into a
    # state in decreasing item-order code; each state is still searched
    # once, and its revisits read their tied leaves off it
    inst = Instance(weights, ((1,) * m, (2,) * m))
    start = time.perf_counter()
    alloc = solve(inst)
    assert time.perf_counter() - start < limit
    assert alloc == Allocation((frozenset(range(m // 2)), frozenset(range(m // 2, m))))


def test_weight_monotonicity_random():
    rng = random.Random(58)
    for _ in range(150):
        n, m = rng.randint(2, 3), rng.randint(1, 6)
        inst = Instance(
            tuple(Fraction(rng.randint(1, 9)) for _ in range(n)),
            tuple(tuple(Fraction(rng.randint(0, 9)) for _ in range(m)) for _ in range(n)),
        )
        agent = rng.randrange(n)
        before = solve(inst)
        boosted = inst.replace_weight(agent, inst.weights[agent] + rng.randint(1, 9))
        after = solve(boosted)
        u_before = sum((inst.utilities[agent][g] for g in before.bundles[agent]), Fraction(0))
        u_after = sum((inst.utilities[agent][g] for g in after.bundles[agent]), Fraction(0))
        assert u_after >= u_before


def test_unweighted_output_satisfies_ef1():
    rng = random.Random(59)
    for _ in range(80):
        n, m = rng.randint(2, 3), rng.randint(1, 6)
        inst = Instance(
            (Fraction(1),) * n,
            tuple(tuple(Fraction(rng.randint(0, 9)) for _ in range(m)) for _ in range(n)),
        )
        assert check_allocation("wwef1", inst, solve(inst)).holds


def test_budget_guard():
    inst = Instance(
        (1, 1, 1),
        tuple(tuple(Fraction(1) for _ in range(12)) for _ in range(3)),
    )
    with pytest.raises(BudgetExceededError):
        solve(inst, budget=1000)


def test_product_size_guard(monkeypatch):
    # exponents (3, 2) and scaled totals 7 and 10 (rows scaled by 2 and 1):
    # 3 * (7).bit_length() + 2 * (10).bit_length() = 17 bits
    inst = Instance((Fraction(1, 2), Fraction(1, 3)), ((1, Fraction(3, 2), 1), (4, 3, 3)))
    monkeypatch.setattr(mwnw, "MAX_PRODUCT_BITS", 17)
    assert solve(inst) == solve(inst, prune=False)
    monkeypatch.setattr(mwnw, "MAX_PRODUCT_BITS", 16)
    with pytest.raises(BudgetExceededError, match="need up to 17 bits"):
        solve(inst)
