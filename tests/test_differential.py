"""The order-key generators, the incremental integer verifiers, the
integer-scaled allocation layer and the merged monotonicity comparison
against the direct reference forms in ``reference.py``, on seeded draws.

Sequences and allocations must be equal, verdicts equal as whole values
(holds, and the witness's lhs, rhs, agent, against, prefix, removed set
and t), and monotonicity reports equal field for field.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import reference
from pickseq import harness
from pickseq.baselines import _envy_edges
from pickseq.core import Allocation, Instance, allocation_utilities, bundle_utility
from pickseq.executor import execute
from pickseq.fairness import (
    check_allocation,
    check_quota_bounds,
    check_sequence,
    divisor_wwef1_condition,
)
from pickseq.methods import (
    RULES,
    TRADITIONAL,
    PrecisionError,
    compare_scores,
    custom,
    divisor_rule,
    divisor_sequence,
    power_mean,
    quota_sequence,
    stationary,
)
from pickseq.mwnw import solve

NOTIONS = ("wef1", "wwef1", "wprop1")
MEAN_WEIGHTS = (0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), 1)

FAMILIES = (
    list(TRADITIONAL.values())
    + [stationary(c) for c in (0, Fraction(1, 3), Fraction(1, 2), 1)]
    + [power_mean(p, w) for p in (-2, -1, 0, 1, 2, 3) for w in MEAN_WEIGHTS]
    + [custom([0, Fraction(3, 2), Fraction(5, 2)], tail_offset=Fraction(1, 2))]
)


def draw_weights(rng, n):
    """Tie-heavy small integers, or rationals p/q, on alternate draws."""
    if rng.random() < 0.5:
        return tuple(Fraction(rng.randint(1, 6)) for _ in range(n))
    return tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))


def family_id(f):
    return f.name if f.kind != "custom" else "custom"


def assert_verdicts_match(turns, weights):
    for notion in NOTIONS:
        assert check_sequence(notion, turns, weights) == reference.check_sequence(
            notion, turns, weights
        ), (notion, turns, weights)
    for mode in ("full", "every-prefix"):
        for bound in ("lower", "both"):
            assert check_quota_bounds(
                turns, weights, mode=mode, bound=bound
            ) == reference.check_quota_bounds(turns, weights, mode, bound), (mode, bound, turns, weights)


@pytest.mark.parametrize("f", FAMILIES, ids=family_id)
def test_compare_scores_matches_reference(f):
    rng = random.Random(5101)
    for _ in range(150):
        t_a, t_b = rng.randint(0, 12), rng.randint(0, 12)
        w_a, w_b = draw_weights(rng, 2)
        assert compare_scores(f, t_a, w_a, t_b, w_b) == reference.compare_scores(
            f, t_a, w_a, t_b, w_b
        ), (t_a, w_a, t_b, w_b)


IRRATIONAL_MEANS = [power_mean(p, Fraction(1, 3)) for p in (Fraction(1, 2), Fraction(-1, 2), Fraction(5, 3))]


@pytest.mark.parametrize("f", FAMILIES + IRRATIONAL_MEANS, ids=family_id)
def test_family_table_matches_reference_forms(f):
    for t in range(61):
        assert f.rational_value(t) == reference.rational_value(f, t), t
        form, expected = f.order_form(t), reference.order_form(f, t)
        assert (form is None) == (expected is None), t
        if form is not None:
            assert (Fraction(form[0], form[1]), form[2]) == (
                Fraction(expected[0], expected[1]),
                expected[2],
            ), t


@pytest.mark.parametrize("f", FAMILIES, ids=family_id)
def test_sequences_and_verdicts_match_reference(f):
    rng = random.Random(5103)
    for _ in range(25):
        n, m = rng.randint(1, 6), rng.randint(0, 20)
        weights = draw_weights(rng, n)
        seq = divisor_sequence(f, n, m, weights)
        assert seq == reference.divisor_sequence(f, n, m, weights), (n, m, weights)
        assert_verdicts_match(seq.turns, weights)


def test_quota_sequences_and_random_sequences_match_reference():
    rng = random.Random(5104)
    for _ in range(400):
        n, m = rng.randint(1, 6), rng.randint(0, 20)
        weights = draw_weights(rng, n)
        seq = quota_sequence(n, m, weights)
        assert seq == reference.quota_sequence(n, m, weights), (n, m, weights)
        assert_verdicts_match(seq.turns, weights)
        # random sequences fail early and at every kind of pair
        assert_verdicts_match(tuple(rng.randrange(n) for _ in range(m)), weights)


def test_remembered_weights_give_the_results_of_a_fresh_tuple():
    # every call after the first on one tuple reads the entry that
    # core.integer_weights remembered; equal copies, run in the other order
    # after a different vector each, and the referee must agree with it
    rng = random.Random(5123)
    webster = TRADITIONAL["webster"]
    draws = [(draw_weights(rng, 3), [rng.randrange(3) for _ in range(rng.randint(1, 12))])
             for _ in range(60)]

    def results(weights, turns):
        return (divisor_sequence(webster, 3, 12, weights),
                [check_sequence(notion, turns, weights) for notion in NOTIONS],
                check_quota_bounds(turns, weights, mode="every-prefix", bound="both"))

    remembered = [results(weights, turns) for weights, turns in draws]
    fresh = [results(tuple(list(weights)), turns) for weights, turns in reversed(draws)][::-1]
    expected = [(reference.divisor_sequence(webster, 3, 12, weights),
                 [reference.check_sequence(notion, turns, weights) for notion in NOTIONS],
                 reference.check_quota_bounds(turns, weights, "every-prefix", "both"))
                for weights, turns in draws]
    assert remembered == fresh == expected


@pytest.mark.parametrize(
    "f",
    FAMILIES
    + [
        custom([0, 1], tail_offset=1),  # fails the left inequality at t = 1
        custom([Fraction(1, 2), Fraction(19, 10)], tail_offset=Fraction(1, 10)),
        custom([Fraction(1, 10), Fraction(11, 10), Fraction(21, 10)], tail_offset=Fraction(9, 10)),
    ],
    ids=family_id,
)
def test_wwef1_condition_matches_reference(f):
    assert divisor_wwef1_condition(f, 60) == reference.divisor_wwef1_condition(f, 60)


def test_evaluation_failures_match_reference():
    # f is evaluated at the counts the reference evaluates: a table without
    # a tail fails at the same length, and one agent evaluates nothing
    short = custom([0, 1])
    weights = (Fraction(2), Fraction(1))
    assert divisor_sequence(short, 2, 3, weights) == reference.divisor_sequence(short, 2, 3, weights)
    strict = power_mean(Fraction(-1, 2), Fraction(1, 2))
    for impl in (divisor_sequence, reference.divisor_sequence):
        with pytest.raises(ValueError):
            impl(short, 2, 5, weights)
        assert impl(short, 1, 9, (1,)).turns == (0,) * 9
        assert impl(strict, 1, 9, (1,)).turns == (0,) * 9
        assert impl(strict, 3, 1, (1, 2, 3)).turns == (0,)
        with pytest.raises(PrecisionError):
            impl(strict, 3, 3, (1, 2, 3))


def draw_values(rng, count):
    """One item column or agent row: all zeros, or integer or p/q values
    with zero entries common."""
    if rng.random() < 0.15:
        return (0,) * count
    rational = rng.random() < 0.5
    return tuple(
        0 if rng.random() < 0.3 else Fraction(rng.randint(1, 9), rng.randint(1, 9) if rational else 1)
        for _ in range(count)
    )


def draw_instance(rng, max_n, max_m):
    """Integer or p/q weights and utilities, with all-zero rows and zero
    entries common, so that many optima have a support smaller than n."""
    n, m = rng.randint(1, max_n), rng.randint(0, max_m)
    return Instance(draw_weights(rng, n), tuple(draw_values(rng, m) for _ in range(n)))


def random_allocation(rng, n, m):
    owner = [rng.randrange(n) for _ in range(m)]
    return Allocation(tuple(frozenset(g for g in range(m) if owner[g] == i) for i in range(n)))


def test_solve_matches_reference():
    rng = random.Random(5105)
    partial_supports = 0
    for _ in range(300):
        inst = draw_instance(rng, 4, 6)
        while inst.n ** inst.m > 1024:
            inst = draw_instance(rng, 4, 6)
        for prune in (True, False):
            got = solve(inst, prune=prune)
            assert got == reference.mwnw_solve(inst, prune=prune), (inst, prune)
        partial_supports += any(
            not any(inst.utilities[i][g] for g in got.bundles[i]) for i in range(inst.n)
        )
    # optima that leave some agent at zero utility are a good share of the draws
    assert partial_supports >= 100


def test_allocation_verdicts_match_reference():
    rng = random.Random(5106)
    for _ in range(400):
        inst = draw_instance(rng, 5, 9)
        allocations = [random_allocation(rng, inst.n, inst.m)]
        allocations.append(execute(inst, [rng.randrange(inst.n) for _ in range(inst.m)]))
        for allocation in allocations:
            for notion in NOTIONS:
                assert check_allocation(notion, inst, allocation) == reference.check_allocation(
                    notion, inst, allocation
                ), (notion, inst, allocation)


def shared_table_cases(rng, count):
    """Instances of 2..5 agents with one random and one picked allocation
    each, many of which fail at an early agent and so leave the envy rows of
    the instance's table partly built."""
    for _ in range(count):
        inst = draw_instance(rng, 5, 9)
        while inst.n < 2:
            inst = draw_instance(rng, 5, 9)
        yield inst, random_allocation(rng, inst.n, inst.m)
        yield inst, execute(inst, [rng.randrange(inst.n) for _ in range(inst.m)])


@pytest.mark.parametrize("order", list(itertools.permutations(NOTIONS)), ids="-".join)
def test_shared_allocation_table_matches_reference_in_every_notion_order(order):
    # each notion twice in a row, on the table the previous notions left
    failed = Counter()
    for inst, allocation in shared_table_cases(random.Random(5114), 150):
        for notion in order:
            expected = reference.check_allocation(notion, inst, allocation)
            failed[notion] += not expected.holds
            for _ in range(2):
                assert check_allocation(notion, inst, allocation) == expected, (notion, inst, allocation)
    assert min(failed.values()) >= 30


def test_shared_allocation_table_with_one_allocation_on_two_instances():
    # one allocation object checked on two instances in turn: each instance
    # keeps its own table
    rng = random.Random(5115)
    for first, allocation in shared_table_cases(rng, 150):
        second = Instance(draw_weights(rng, first.n), tuple(draw_values(rng, first.m) for _ in range(first.n)))
        for notion in NOTIONS * 2:
            for inst in (first, second):
                assert check_allocation(notion, inst, allocation) == reference.check_allocation(
                    notion, inst, allocation
                ), (notion, inst, allocation)


def test_shared_allocation_table_with_an_equal_but_distinct_allocation():
    rng = random.Random(5116)
    for inst, allocation in shared_table_cases(rng, 150):
        twin = Allocation(allocation.bundles)
        assert twin == allocation and twin is not allocation
        for notion in NOTIONS:
            expected = reference.check_allocation(notion, inst, allocation)
            assert check_allocation(notion, inst, allocation) == expected
            assert check_allocation(notion, inst, twin) == expected
            assert check_allocation(notion, inst, allocation) == expected


def test_invalid_allocation_raises_on_every_call():
    inst = Instance((1, 2, Fraction(1, 3)), ((1, 2, 3, 4), (4, 3, 2, 1), (0, 5, 0, 5)))
    valid = Allocation((frozenset({0}), frozenset({1, 2}), frozenset({3})))
    invalid = [
        Allocation((frozenset({0}), frozenset({1, 2}), frozenset())),          # item 3 missing
        Allocation((frozenset({0}), frozenset({1, 2}), frozenset({3, 4}))),    # no item 4
        Allocation((frozenset({0, 1, 2, 3}), frozenset())),                    # two bundles
    ]
    for warm in (False, True):
        if warm:
            # a valid allocation's table is cached on the instance first
            for notion in NOTIONS:
                check_allocation(notion, inst, valid)
        for allocation in invalid:
            for notion in NOTIONS * 2:
                with pytest.raises(ValueError):
                    check_allocation(notion, inst, allocation)
        for notion in NOTIONS:
            assert check_allocation(notion, inst, valid) == reference.check_allocation(notion, inst, valid)


def test_allocation_utilities_match_bundle_utility_sums():
    # the integer view, divided once per agent, against Fraction additions
    rng = random.Random(5109)
    for _ in range(400):
        inst = draw_instance(rng, 5, 9)
        allocation = random_allocation(rng, inst.n, inst.m)
        expected = tuple(bundle_utility(inst, i, b) for i, b in enumerate(allocation.bundles))
        got = allocation_utilities(inst, allocation)
        assert got == expected and all(type(u) is Fraction for u in got), (inst, allocation)


def test_execute_and_envy_edges_match_reference():
    rng = random.Random(5107)
    for _ in range(400):
        inst = draw_instance(rng, 5, 12)
        turns = [rng.randrange(inst.n) for _ in range(inst.m)]
        assert execute(inst, turns) == reference.execute(inst, turns), (inst, turns)
        bundles = [set(b) for b in random_allocation(rng, inst.n, inst.m).bundles]
        _, rows = inst.scaled_utilities
        assert _envy_edges(rows, bundles) == reference.envy_edges(inst, bundles), (inst, bundles)


def benchmark_scale_weights(rng, n, rational):
    """Vote-count integers in [10^4, 5*10^6], or p/q weights whose
    denominators have an lcm above 10^6.  Rational weights need n >= 3: two
    denominators of at most 999 have an lcm of at most 997,002."""
    if not rational:
        return tuple(Fraction(rng.randint(10_000, 5_000_000)) for _ in range(n))
    if n < 3:
        raise ValueError("rational benchmark-scale weights need at least 3 agents")
    while True:
        weights = tuple(Fraction(rng.randint(1, 10_000), rng.randint(100, 999)) for _ in range(n))
        if math.lcm(*(w.denominator for w in weights)) > 10**6:
            return weights


@pytest.mark.parametrize("n", [1, 2])
def test_rational_benchmark_scale_weights_refuse_fewer_than_three_agents(n):
    with pytest.raises(ValueError, match="at least 3 agents"):
        benchmark_scale_weights(random.Random(0), n, rational=True)
    assert len(benchmark_scale_weights(random.Random(0), n, rational=False)) == n


@pytest.mark.parametrize("f", FAMILIES, ids=family_id)
def test_sequences_and_comparisons_match_reference_at_benchmark_scale(f):
    rng = random.Random(5108)
    n, m = 10, 100
    for rational in (False, True, False, True):
        weights = benchmark_scale_weights(rng, n, rational)
        assert divisor_sequence(f, n, m, weights) == reference.divisor_sequence(f, n, m, weights), weights
        for _ in range(40):
            t_a, t_b = rng.randint(0, m), rng.randint(0, m)
            w_a, w_b = rng.choice(weights), rng.choice(weights)
            assert compare_scores(f, t_a, w_a, t_b, w_b) == reference.compare_scores(
                f, t_a, w_a, t_b, w_b
            ), (t_a, w_a, t_b, w_b)


# Tables whose denominators change along the table, so that the key scale
# of divisor_sequence widens in the middle of a run: 3^t (f(0) = 0), 2 and
# 10^(3t) in turn, and 10^30 before small ones
CHANGING_TABLES = [
    custom([0] + [t + Fraction(1, 3**t) for t in range(1, 40)], tail_offset=Fraction(1, 7)),
    custom([t + (Fraction(1, 2) if t % 2 == 0 else Fraction(1, 10 ** (3 * t))) for t in range(40)],
           tail_offset=Fraction(2, 3)),
    custom([Fraction(1, 10**30), Fraction(3, 2), Fraction(7, 3)], tail_offset=Fraction(1, 2)),
]


@pytest.mark.parametrize("f", CHANGING_TABLES, ids=["3^t", "alternating", "wide-first"])
def test_sequences_match_reference_on_changing_denominators(f):
    rng = random.Random(5109)
    n, m = 10, 100
    for rational in (False, True, False, True):
        weights = benchmark_scale_weights(rng, n, rational)
        assert divisor_sequence(f, n, m, weights) == reference.divisor_sequence(f, n, m, weights), weights
    # two agents far apart in weight reach counts deep into the table
    for weights in ((1, 40), (Fraction(5_000_000), Fraction(10_000))):
        assert divisor_sequence(f, 2, 40, weights) == reference.divisor_sequence(f, 2, 40, weights)


def test_near_tie_after_the_key_scale_widens():
    # f(1)/2 and f(0)/1, then f(2)/2 and f(1)/1, differ by 10^-20 / 2: the
    # keys separate them only at the scale of f(1)'s denominator
    f = custom([Fraction(1, 2), 1 + Fraction(1, 10**20), 2 + Fraction(3, 10**20)], tail_offset=1)
    seq = divisor_sequence(f, 2, 6, (2, 1))
    assert seq.turns == (0, 1, 0, 1, 0, 0)
    assert seq == reference.divisor_sequence(f, 2, 6, (2, 1))


ZERO_AT_ZERO = [f for f in FAMILIES + CHANGING_TABLES[:1] if f.order_form(0)[0] == 0]


@pytest.mark.parametrize("f", ZERO_AT_ZERO, ids=family_id)
def test_zero_opening_matches_reference(f):
    # f(0) = 0: each agent picks once, in index order, before any picks twice
    rng = random.Random(5110)
    # two p/q denominators below 10^3 cannot reach an lcm above 10^6
    for n, rational in ((2, False), (3, False), (3, True), (10, False), (10, True)):
        weights = benchmark_scale_weights(rng, n, rational)
        for m in (n - 1, n, n + 1):
            seq = divisor_sequence(f, n, m, weights)
            assert seq.turns[:n] == tuple(range(min(n, m)))
            assert seq == reference.divisor_sequence(f, n, m, weights), (n, m, weights)


def test_zero_at_zero_covers_negative_exponents():
    # power means with p = -1 and -2 and a weight strictly inside (0, 1)
    # have forms with e < 0, the side-swapped cross-multiplication
    negative = {f.p for f in ZERO_AT_ZERO if f.kind == "powermean" and f.order_form(1)[2] < 0}
    assert negative == {-1, -2}


@pytest.mark.parametrize("f", ZERO_AT_ZERO, ids=family_id)
def test_zero_scores_tie_and_sit_below_positive_scores(f):
    # f(0)/w ties f(0)/w' whatever the weights, and stays below f(1)/w' even
    # where w' is a million times w
    for w_a, w_b in ((1, 1), (1, 2), (7, 3), (Fraction(1, 3), Fraction(5, 7)), (1, 10**6)):
        assert compare_scores(f, 0, w_a, 0, w_b) == 0, (w_a, w_b)
        assert compare_scores(f, 0, w_b, 0, w_a) == 0, (w_b, w_a)
    for w_a, w_b in ((1, 10**6), (10**6, 1)):
        assert compare_scores(f, 0, w_a, 1, w_b) == -1, (w_a, w_b)
        assert compare_scores(f, 1, w_b, 0, w_a) == 1, (w_b, w_a)


COMPARED_RULES = [divisor_rule(f) for f in TRADITIONAL.values()] + list(RULES.values())

FLIP_TABLE = ((10, 9, 8, 7, 0), (7, 10, 8, 9, 0), (0, 7, 10, 8, 9))

# Stored violations of each kind, since random draws seldom violate: the
# Webster and quota weight flips, quota and MWNW population, MWNW and
# envy-cycle resource.
STORED_COMPARISONS = [
    (divisor_rule(TRADITIONAL["webster"]), Instance((Fraction(33, 10), Fraction(6, 5), 1), FLIP_TABLE),
     "weight", (0, 4)),
    (RULES["quota"], Instance((Fraction(9, 18), Fraction(5, 18), Fraction(4, 18)), FLIP_TABLE),
     "weight", (0, Fraction(11, 18))),
    (RULES["quota"], Instance((Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
                             ((2, 1, 0), (0, 1, 0), (0, 1, 0), (0, 1, 0))),
     "population", (Fraction(1, 3), (0, 0, 1))),
    (RULES["mwnw"], Instance((1, 1), ((2, 3, 3, 2), (1, 2, 1, 3))), "population", (1, (2, 1, 1, 3))),
    (RULES["mwnw"], Instance((1, 1), ((3, 2, 2), (2, 2, 1))), "resource", ((2, 1),)),
    (RULES["ecycle"], Instance((1, 1, 1), ((10, 5, 1), (6, 1, 2), (0, 4, 1))),
     "resource", ((11, 1, 0),)),
]

# Resource violations on integer rows whose extra item has denominator 3,
# so add_item rescales the rows from 1 to 3: the violator's sum after, taken
# without the scales, is not below its sum before (7 against 4, 20 against 9
# and 11 against 5).  The last case has rational weights.
RESCALED_COMPARISONS = [
    (RULES["mwnw"], Instance((1, 1), ((5, 1), (4, 0))), "resource", ((1, Fraction(7, 3)),)),
    (RULES["ecycle"], Instance((1, 1, 1), ((5, 4), (0, 1), (0, 3))),
     "resource", ((Fraction(20, 3), 4, Fraction(10, 3)),)),
    (RULES["mwnw"], Instance((Fraction(1, 2), Fraction(1, 3)), ((5, 2), (5, 0))),
     "resource", ((Fraction(2, 3), Fraction(11, 3)),)),
]


def draw_comparison(rng, rule):
    """A base instance of up to 3 agents and 5 items, a monotonicity kind
    the rule admits, and that kind's perturbation arguments."""
    fixed_n = rule.agents
    base = draw_instance(rng, 3, 5)
    while fixed_n is not None and base.n != fixed_n:
        base = draw_instance(rng, 3, 5)
    # a rule on a fixed number of agents admits no arriving agent
    kind = rng.choice(("resource", "weight") if fixed_n else harness.MONOTONICITY_KINDS)
    if kind == "resource":
        return base, kind, (draw_values(rng, base.n),)
    if kind == "population":
        return base, kind, (draw_weights(rng, 1)[0], draw_values(rng, base.m))
    agent = rng.randrange(base.n)
    return base, kind, (agent, base.weights[agent] + draw_weights(rng, 1)[0])


def test_merged_comparison_matches_reference_bodies():
    rng = random.Random(5111)
    drawn = [
        (rule, *draw_comparison(rng, rule)) for _ in range(75) for rule in COMPARED_RULES
    ]
    covered, violated = Counter(), Counter()
    for rule, base, kind, args in STORED_COMPARISONS + RESCALED_COMPARISONS + drawn:
        entry = harness.PERTURBATIONS[kind]
        got = entry.compare(rule, base, *args)
        expected = getattr(reference, f"compare_{kind}")(rule, base, *args)
        assert got == expected and repr(got) == repr(expected), (rule, kind, base, args)
        # the integer decision that scan makes on every trial, before any report
        assert entry.decide(rule, base, *args)[0] == expected.violators
        covered[rule.name, kind] += 1
        violated[kind] += got.violated
    # every rule under every perturbation it admits, and violations of each
    assert len(covered) == 3 * len(COMPARED_RULES) - 1
    assert all(violated[kind] >= 2 for kind in harness.MONOTONICITY_KINDS), violated


@pytest.mark.parametrize("case", RESCALED_COMPARISONS, ids=["mwnw", "ecycle", "mwnw-rational-weights"])
def test_rescaled_violation_is_decided_across_the_row_scales(case):
    rule, base, kind, args = case
    violators, (b, s), (a, t) = harness.PERTURBATIONS[kind].decide(rule, base, *args)
    assert violators == reference.compare_resource(rule, base, *args).violators != ()
    # the rows were rescaled, and the bare sums would clear the violator
    assert all(t[i] == 3 * s[i] and a[i] >= b[i] for i in violators)


BENCH_N, BENCH_M = 10, 100


def benchmark_scale_sequences(rng):
    """(turns, weights) at 10 agents and 100 turns: each traditional divisor
    sequence and the quota sequence on benchmark-scale weights, and each
    again with one turn of its second half handed to another agent, so that
    verdicts fail late."""
    for rational in (False, True, False, True):
        weights = benchmark_scale_weights(rng, BENCH_N, rational)
        sequences = [divisor_sequence(f, BENCH_N, BENCH_M, weights).turns for f in TRADITIONAL.values()]
        sequences.append(quota_sequence(BENCH_N, BENCH_M, weights).turns)
        for turns in sequences:
            yield turns, weights
            swapped = list(turns)
            k = rng.randrange(BENCH_M // 2, BENCH_M)
            swapped[k] = rng.choice([a for a in range(BENCH_N) if a != turns[k]])
            yield tuple(swapped), weights


def test_prefix_verdicts_match_reference_at_benchmark_scale():
    rng = random.Random(5112)
    late, upper_first = 0, 0
    for turns, weights in benchmark_scale_sequences(rng):
        verdict = check_sequence("wprop1", turns, weights)
        assert verdict == reference.check_sequence("wprop1", turns, weights), (turns, weights)
        late += not verdict.holds and verdict.witness.prefix > BENCH_M // 2
        quota = {}
        for mode in ("full", "every-prefix"):
            for bound in ("lower", "both"):
                quota[mode, bound] = check_quota_bounds(turns, weights, mode=mode, bound=bound)
                assert quota[mode, bound] == reference.check_quota_bounds(
                    turns, weights, mode, bound
                ), (mode, bound, turns, weights)
        # the upper bound decides when adding it changes the verdict
        upper_first += quota["every-prefix", "both"] != quota["every-prefix", "lower"]
    assert late >= 5 and upper_first >= 5, (late, upper_first)


@pytest.mark.parametrize(
    "turns, weights",
    [((0,) * BENCH_M, (7,)), ((0,) * 3, (Fraction(2, 3),)), ((), (1,)), ((), (3, Fraction(1, 2), 5))],
)
def test_prefix_verdicts_match_reference_on_one_agent_and_no_turns(turns, weights):
    assert_verdicts_match(turns, weights)


def benchmark_scale_instance(rng, weights):
    """Utilities 0..100 at 10 agents and 100 items, some rows p/q and some
    drawn from three values, so that the most valued item of a bundle ties."""
    rows = []
    for _ in range(BENCH_N):
        pool = range(101) if rng.random() < 0.7 else (0, 50, 100)
        den = rng.randint(2, 9) if rng.random() < 0.3 else 1
        rows.append(tuple(Fraction(rng.choice(pool), den) for _ in range(BENCH_M)))
    return Instance(weights, tuple(rows))


def test_allocation_verdicts_match_reference_at_benchmark_scale():
    rng = random.Random(5113)
    failed, tied = Counter(), 0
    for case in range(24):
        inst = benchmark_scale_instance(rng, benchmark_scale_weights(rng, BENCH_N, case % 2 == 1))
        # a partition among some of the agents, so that bundles are empty
        holders = rng.sample(range(BENCH_N), rng.randint(1, BENCH_N))
        owner = [rng.choice(holders) for _ in range(BENCH_M)]
        partition = Allocation(tuple(
            frozenset(g for g in range(BENCH_M) if owner[g] == i) for i in range(BENCH_N)
        ))
        f = rng.choice(list(TRADITIONAL.values()))
        picked = execute(inst, divisor_sequence(f, BENCH_N, BENCH_M, inst.weights))
        for allocation in (partition, picked):
            for notion in NOTIONS:
                got = check_allocation(notion, inst, allocation)
                assert got == reference.check_allocation(notion, inst, allocation), (notion, inst, allocation)
                failed[notion] += not got.holds
                if not got.holds and got.witness.removed:
                    row, (best,) = inst.utilities[got.witness.agent], got.witness.removed
                    tied += sum(row[g] == row[best] for g in allocation.bundles[got.witness.against]) > 1
    assert all(failed[notion] >= 5 for notion in NOTIONS) and tied >= 3, (failed, tied)
