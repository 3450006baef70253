import random
from fractions import Fraction
from itertools import product

import pytest

from pickseq.core import Instance, PickingSequence
from pickseq.harness import (
    check_population_consistency_pair,
    check_resource_consistency,
    check_weight_consistency_pair,
    compare_population,
    compare_resource,
    compare_weight,
    random_instance,
    scan,
)
from pickseq.methods import (
    ADAMS,
    JEFFERSON,
    TRADITIONAL,
    WEBSTER,
    Rule,
    divisor_rule,
    divisor_sequence,
    quota_sequence,
)

from seq_oracles import population_closure, weight_closure

QUOTA = Rule("quota")
MWNW = Rule("mwnw")


# --- monotonicity comparisons ---------------------------------------------------


def test_mnw_resource_violation():
    base = Instance((1, 1), ((3, 2, 2), (2, 2, 1)))
    report = compare_resource(MWNW, base, (2, 1))
    assert report.violated and report.violators == (0,)
    assert (report.before[0], report.after[0]) == (5, 4)


def test_divisor_resource_monotone_random():
    rng = random.Random(2001)
    for _ in range(60):
        base = random_instance(rng, max_n=4, max_m=7, min_n=2)
        column = [Fraction(rng.randint(0, 10)) for _ in range(base.n)]
        report = compare_resource(divisor_rule(JEFFERSON), base, column)
        assert not report.violated


def test_ecycle_resource_violation():
    base = Instance((1, 1, 1), ((10, 5, 1), (6, 1, 2), (0, 4, 1)))
    report = compare_resource(Rule("envy_cycle"), base, (11, 1, 0))
    assert report.violated
    assert (report.before[2], report.after[2]) == (4, 0)


def test_quota_population_violation():
    base = Instance(
        (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
        ((2, 1, 0), (0, 1, 0), (0, 1, 0), (0, 1, 0)),
    )
    report = compare_population(QUOTA, base, Fraction(1, 3), (0, 0, 1))
    assert report.violated and report.violators == (0,)
    assert (report.before[0], report.after[0]) == (2, 3)


def test_mnw_population_violation():
    base = Instance((1, 1), ((2, 3, 3, 2), (1, 2, 1, 3)))
    report = compare_population(MWNW, base, 1, (2, 1, 1, 3))
    assert report.violated
    assert (report.before[0], report.after[0]) == (5, 6)


def test_adams_population_monotone_random():
    rng = random.Random(2002)
    for _ in range(60):
        base = random_instance(rng, max_n=4, max_m=7, min_n=2)
        row = [Fraction(rng.randint(0, 10)) for _ in range(base.m)]
        report = compare_population(divisor_rule(ADAMS), base, Fraction(rng.randint(1, 10)), row)
        assert not report.violated


def test_quota_weight_violation_flip_table():
    base = Instance(
        (Fraction(9, 18), Fraction(5, 18), Fraction(4, 18)),
        ((10, 9, 8, 7, 0), (7, 10, 8, 9, 0), (0, 7, 10, 8, 9)),
    )
    report = compare_weight(QUOTA, base, 0, Fraction(11, 18))
    assert report.violated and report.boosted_agent == 0
    assert (report.before[0], report.after[0]) == (25, 19)


def test_quota_weight_violation_nine_agents():
    utilities = (
        (3, 0, 0, 2, 0, 0, 1),
        (0, 3, 2, 0, 1, 0, 0),
        (0, 0, 2, 0, 0, 0, 1),
    ) + ((0, 0, 0, 0, 0, 1, 0),) * 6
    weights = (Fraction(8, 24), Fraction(7, 24), Fraction(3, 24)) + (Fraction(1, 24),) * 6
    report = compare_weight(QUOTA, Instance(weights, utilities), 0, Fraction(9, 24))
    assert report.violated
    assert (report.before[0], report.after[0]) == (6, 5)


def test_mwnw_weight_monotone_random():
    rng = random.Random(2003)
    for _ in range(60):
        base = random_instance(rng, max_n=3, max_m=6, min_n=2)
        agent = rng.randrange(base.n)
        report = compare_weight(MWNW, base, agent, base.weights[agent] + rng.randint(1, 10))
        assert not report.violated


def test_compare_weight_requires_increase():
    base = Instance((2, 1), ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        compare_weight(QUOTA, base, 0, 2)


def test_adjusted_winner_rule_needs_two_agents():
    base = Instance((1, 1, 1), ((1, 1), (1, 1), (1, 1)))
    with pytest.raises(ValueError):
        compare_resource(Rule("adjusted_winner"), base, (1, 1, 1))


# --- consistency ------------------------------------------------------------------


def test_divisor_and_quota_resource_consistent():
    rng = random.Random(2004)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(0, 9)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        for f in TRADITIONAL.values():
            family = lambda n_, m_, w_: divisor_sequence(f, n_, m_, w_)
            assert check_resource_consistency(family, n, m, weights)
        assert check_resource_consistency(lambda n_, m_, w_: quota_sequence(n_, m_, w_), n, m, weights)


def test_resource_consistency_constructed_negative():
    def flaky(n, m, weights):
        if m % 2 == 0:
            return PickingSequence(tuple(0 for _ in range(m)))
        return PickingSequence(tuple((j + 1) % n for j in range(m)))

    assert not check_resource_consistency(flaky, 2, 3, (1, 1))


def test_population_pair_examples():
    # deleting agent 3 from (1,3,1) gives (1,1), not a prefix of (1,2,1)
    assert not check_population_consistency_pair([0, 1, 0], [0, 2, 0], new_agent=2)
    # appending the new agent and trimming nothing extra
    assert check_population_consistency_pair([0, 1, 0], [0, 1, 2], new_agent=2)


def test_population_pair_divisor_generated_random():
    rng = random.Random(2005)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 9)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        new_weight = Fraction(rng.randint(1, 10))
        for f in TRADITIONAL.values():
            base = divisor_sequence(f, n, m, weights)
            grown = divisor_sequence(f, n + 1, m, weights + (new_weight,))
            assert check_population_consistency_pair(base, grown, new_agent=n)


def test_weight_pair_examples():
    assert check_weight_consistency_pair([1, 0], [0, 1], agent=0)
    assert not check_weight_consistency_pair([0, 1], [1, 0], agent=0)
    # the nine-agent quota flip is not reachable by weight-consistent edits
    pi1 = [0, 1, 2, 0, 1, 3, 0]
    pi2 = [0, 1, 0, 1, 2, 0, 3]
    assert not check_weight_consistency_pair(pi1, pi2, agent=0)


def test_weight_pair_divisor_generated_random():
    rng = random.Random(2006)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = rng.randint(1, 9)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        agent = rng.randrange(n)
        boosted = tuple(
            w + rng.randint(1, 10) if i == agent else w for i, w in enumerate(weights)
        )
        for f in TRADITIONAL.values():
            base = divisor_sequence(f, n, m, weights)
            moved = divisor_sequence(f, n, m, boosted)
            assert check_weight_consistency_pair(base, moved, agent)


def test_weight_pair_agrees_with_closure_small():
    # spot check at n=2, m<=4; the acceptance suite runs the full grid
    for m in range(1, 5):
        for pi in product(range(2), repeat=m):
            images = weight_closure(pi, 0)
            for candidate in product(range(2), repeat=m):
                assert check_weight_consistency_pair(pi, candidate, 0) == (candidate in images)


def test_population_pair_agrees_with_closure_small():
    for m in range(1, 5):
        for pi in product(range(2), repeat=m):
            images = population_closure(pi, 2)
            for candidate in product(range(3), repeat=m):
                assert check_population_consistency_pair(pi, candidate, 2) == (
                    candidate in images
                )


def test_consistency_implies_monotonicity_random():
    # resource- and population-consistent families stay monotone in trials
    rng = random.Random(2007)
    for _ in range(40):
        base = random_instance(rng, max_n=4, max_m=6, min_n=2)
        for f in (ADAMS, WEBSTER):
            rule = divisor_rule(f)
            col = [Fraction(rng.randint(0, 10)) for _ in range(base.n)]
            assert not compare_resource(rule, base, col).violated
            row = [Fraction(rng.randint(0, 10)) for _ in range(base.m)]
            assert not compare_population(rule, base, Fraction(rng.randint(1, 10)), row).violated
    # two-agent weight-consistency implies weight-monotonicity
    for _ in range(40):
        base = random_instance(rng, max_n=2, max_m=6, min_n=2)
        for f in (ADAMS, WEBSTER):
            assert not compare_weight(
                divisor_rule(f), base, 0, base.weights[0] + rng.randint(1, 10)
            ).violated


# --- scan -------------------------------------------------------------------------


def test_scan_webster_wef1_finds_violation():
    report = scan(divisor_rule(WEBSTER), "wef1", max_n=3, max_m=8, trials=2000, seed=914)
    assert report is not None
    assert not report.verdict.holds
    # the bridge instance realizes the violation at allocation level
    from pickseq.executor import execute
    from pickseq.fairness import check_allocation

    alloc = execute(report.instance, report.sequence)
    assert not check_allocation("wef1", report.instance, alloc).holds


def test_scan_adams_wef1_finds_nothing():
    assert scan(divisor_rule(ADAMS), "wef1", max_n=3, max_m=8, trials=2000, seed=914) is None


def test_scan_adams_wprop1_finds_violation():
    report = scan(divisor_rule(ADAMS), "wprop1", max_n=3, max_m=8, trials=2000, seed=914)
    assert report is not None


def test_scan_replay_is_deterministic():
    first = scan(divisor_rule(WEBSTER), "wef1", max_n=3, max_m=8, trials=2000, seed=914)
    second = scan(divisor_rule(WEBSTER), "wef1", max_n=3, max_m=8, trials=2000, seed=914)
    assert first == second


def test_scan_monotonicity_property():
    report = scan(MWNW, "resource", max_n=3, max_m=5, trials=400, seed=2)
    assert report is not None and report.report.violated
    assert report.perturbation["kind"] == "resource"


def test_scan_rejects_unknown_property():
    with pytest.raises(ValueError):
        scan(MWNW, "pareto", trials=10, seed=0)


@pytest.mark.parametrize(
    "bounds, name",
    [
        ({"trials": 0}, "trials"),
        ({"trials": -5}, "trials"),
        ({"max_n": 0}, "max_n"),
        ({"max_m": 0}, "max_m"),
    ],
)
def test_scan_rejects_empty_bounds(bounds, name):
    with pytest.raises(ValueError, match=f"{name} >= 1"):
        scan(divisor_rule(WEBSTER), "wef1", **bounds)
    with pytest.raises(ValueError, match=f"{name} >= 1"):
        scan(MWNW, "weight", **bounds)
