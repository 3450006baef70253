import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from pickseq import harness
from pickseq.core import Instance, PickingSequence
from pickseq.fairness import NOTIONS
from pickseq.harness import (
    MONOTONICITY_KINDS,
    PERTURBATIONS,
    check_population_consistency_pair,
    check_resource_consistency,
    check_weight_consistency_pair,
    random_instance,
    scan,
)
from pickseq.methods import (
    ADAMS,
    JEFFERSON,
    RULES,
    TRADITIONAL,
    WEBSTER,
    divisor_rule,
    divisor_sequence,
    quota_sequence,
    rule_from_name,
)

from seq_oracles import population_closure, weight_closure

QUOTA = RULES["quota"]
MWNW = RULES["mwnw"]


# --- monotonicity comparisons ---------------------------------------------------


def test_mnw_resource_violation():
    base = Instance((1, 1), ((3, 2, 2), (2, 2, 1)))
    report = PERTURBATIONS["resource"].compare(MWNW, base, (2, 1))
    assert report.violated and report.violators == (0,)
    assert (report.before[0], report.after[0]) == (5, 4)


def test_divisor_resource_monotone_random():
    rng = random.Random(2001)
    for _ in range(60):
        base = random_instance(rng, max_n=4, max_m=7, min_n=2)
        column = [Fraction(rng.randint(0, 10)) for _ in range(base.n)]
        report = PERTURBATIONS["resource"].compare(divisor_rule(JEFFERSON), base, column)
        assert not report.violated


def test_ecycle_resource_violation():
    base = Instance((1, 1, 1), ((10, 5, 1), (6, 1, 2), (0, 4, 1)))
    report = PERTURBATIONS["resource"].compare(RULES["ecycle"], base, (11, 1, 0))
    assert report.violated
    assert (report.before[2], report.after[2]) == (4, 0)


def test_quota_population_violation():
    base = Instance(
        (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
        ((2, 1, 0), (0, 1, 0), (0, 1, 0), (0, 1, 0)),
    )
    report = PERTURBATIONS["population"].compare(QUOTA, base, Fraction(1, 3), (0, 0, 1))
    assert report.violated and report.violators == (0,)
    assert (report.before[0], report.after[0]) == (2, 3)


def test_mnw_population_violation():
    base = Instance((1, 1), ((2, 3, 3, 2), (1, 2, 1, 3)))
    report = PERTURBATIONS["population"].compare(MWNW, base, 1, (2, 1, 1, 3))
    assert report.violated
    assert (report.before[0], report.after[0]) == (5, 6)


def test_adams_population_monotone_random():
    rng = random.Random(2002)
    for _ in range(60):
        base = random_instance(rng, max_n=4, max_m=7, min_n=2)
        row = [Fraction(rng.randint(0, 10)) for _ in range(base.m)]
        report = PERTURBATIONS["population"].compare(
            divisor_rule(ADAMS), base, Fraction(rng.randint(1, 10)), row
        )
        assert not report.violated


def test_quota_weight_violation_flip_table():
    base = Instance(
        (Fraction(9, 18), Fraction(5, 18), Fraction(4, 18)),
        ((10, 9, 8, 7, 0), (7, 10, 8, 9, 0), (0, 7, 10, 8, 9)),
    )
    report = PERTURBATIONS["weight"].compare(QUOTA, base, 0, Fraction(11, 18))
    assert report.violated and report.boosted_agent == 0
    assert (report.before[0], report.after[0]) == (25, 19)


def test_quota_weight_violation_nine_agents():
    utilities = (
        (3, 0, 0, 2, 0, 0, 1),
        (0, 3, 2, 0, 1, 0, 0),
        (0, 0, 2, 0, 0, 0, 1),
    ) + ((0, 0, 0, 0, 0, 1, 0),) * 6
    weights = (Fraction(8, 24), Fraction(7, 24), Fraction(3, 24)) + (Fraction(1, 24),) * 6
    report = PERTURBATIONS["weight"].compare(
        QUOTA, Instance(weights, utilities), 0, Fraction(9, 24)
    )
    assert report.violated
    assert (report.before[0], report.after[0]) == (6, 5)


def test_mwnw_weight_monotone_random():
    rng = random.Random(2003)
    for _ in range(60):
        base = random_instance(rng, max_n=3, max_m=6, min_n=2)
        agent = rng.randrange(base.n)
        report = PERTURBATIONS["weight"].compare(
            MWNW, base, agent, base.weights[agent] + rng.randint(1, 10)
        )
        assert not report.violated


def test_compare_weight_requires_increase():
    base = Instance((2, 1), ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="weight-monotonicity perturbations must increase the weight"):
        PERTURBATIONS["weight"].compare(QUOTA, base, 0, 2)


def test_weight_perturbation_agent_out_of_range():
    base = Instance((2, 1), ((1, 0), (0, 1)))
    for agent in (2, -1):
        with pytest.raises(ValueError) as info:
            PERTURBATIONS["weight"].perturb(base, agent, 3)
        assert str(info.value) == f"agent index {agent} out of range"


def test_adjusted_winner_rule_needs_two_agents():
    base = Instance((1, 1, 1), ((1, 1), (1, 1), (1, 1)))
    with pytest.raises(ValueError):
        PERTURBATIONS["resource"].compare(RULES["aw"], base, (1, 1, 1))


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


@pytest.mark.parametrize("check, message", [
    (check_population_consistency_pair, "population consistency compares sequences of equal length"),
    (check_weight_consistency_pair, "weight consistency compares sequences of equal length"),
])
def test_consistency_pairs_need_equal_lengths(check, message):
    with pytest.raises(ValueError) as info:
        check([0, 1, 0], [0, 1], 2)
    assert str(info.value) == message


@pytest.mark.parametrize("pi_n, pi_n1, new_agent", [([0, 1, 0], [0, 1, 0], 1),
                                                     ([0, 2, 1], [0, 1, 2], 2)])
def test_population_pair_refuses_a_new_agent_with_a_base_turn(pi_n, pi_n1, new_agent):
    # a new agent has no turn in pi_n, so the pair has no verdict
    with pytest.raises(ValueError) as info:
        check_population_consistency_pair(pi_n, pi_n1, new_agent)
    assert str(info.value) == ("population consistency needs a new agent with no turn "
                               "in the base sequence")


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
            assert not PERTURBATIONS["resource"].compare(rule, base, col).violated
            row = [Fraction(rng.randint(0, 10)) for _ in range(base.m)]
            assert not PERTURBATIONS["population"].compare(
                rule, base, Fraction(rng.randint(1, 10)), row
            ).violated
    # two-agent weight-consistency implies weight-monotonicity
    for _ in range(40):
        base = random_instance(rng, max_n=2, max_m=6, min_n=2)
        for f in (ADAMS, WEBSTER):
            assert not PERTURBATIONS["weight"].compare(
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


@pytest.mark.parametrize(
    "rule, prop, bounds",
    [
        (MWNW, "resource", dict(max_n=3, max_m=5, trials=400, seed=2)),
        (QUOTA, "population", dict(max_n=4, seed=1)),
        (QUOTA, "weight", dict(max_n=4, seed=5)),
    ],
)
def test_scan_perturbation_replays_through_its_table_entry(rule, prop, bounds):
    # the perturbation names its kind, then the entry's arguments in call order
    found = scan(rule, prop, **bounds)
    kind, *args = found.perturbation.values()
    entry = PERTURBATIONS[prop]
    assert kind == prop and tuple(found.perturbation)[1:] == entry.names
    assert entry.compare(rule, found.instance, *args) == found.report
    assert MONOTONICITY_KINDS == ("resource", "population", "weight")


def count_reports(monkeypatch) -> list:
    """Every MonotonicityReport the harness builds from here on, in order."""
    built, report = [], harness.MonotonicityReport

    def counting_report(*args, **kwargs):
        built.append(report(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "MonotonicityReport", counting_report)
    return built


@pytest.mark.parametrize(
    "rule, prop",
    [(divisor_rule(WEBSTER), "resource"), (divisor_rule(ADAMS), "population"), (MWNW, "weight")],
    ids=["webster-resource", "adams-population", "mwnw-weight"],
)
def test_scan_of_a_monotone_cell_builds_no_report(monkeypatch, rule, prop):
    # cells the paper proves positive: every trial is decided on integers
    built = count_reports(monkeypatch)
    assert scan(rule, prop, max_n=4, max_m=6, trials=60, seed=26) is None
    assert built == []


@pytest.mark.parametrize(
    "rule, prop, bounds, trial, expected",
    [
        (MWNW, "resource", dict(max_n=3, max_m=5, trials=400, seed=2), 1,
         "MonotonicityReport(kind='resource', rule='mwnw', before=(Fraction(10, 1), "
         "Fraction(29, 1)), after=(Fraction(4, 1), Fraction(36, 1)), violated=True, "
         "violators=(0,), boosted_agent=None)"),
        (QUOTA, "population", dict(max_n=4, seed=1), 23,
         "MonotonicityReport(kind='population', rule='quota', before=(Fraction(22, 1), "
         "Fraction(1, 1), Fraction(18, 1)), after=(Fraction(19, 1), Fraction(10, 1), "
         "Fraction(16, 1)), violated=True, violators=(1,), boosted_agent=None)"),
    ],
    ids=["mwnw-resource", "quota-population"],
)
def test_scan_builds_one_report_for_the_violating_trial(monkeypatch, rule, prop, bounds, trial, expected):
    built = count_reports(monkeypatch)
    found = scan(rule, prop, **bounds)
    assert found.trial == trial and built == [found.report]
    assert built[0] is found.report and repr(found.report) == expected


@pytest.mark.parametrize(
    "rule, prop",
    [
        (divisor_rule(WEBSTER), "wef1"),  # fails, so the 0/1 bridge instance is built too
        (divisor_rule(ADAMS), "wwef1"),
        (divisor_rule(WEBSTER), "resource"),
        (divisor_rule(ADAMS), "population"),
        (QUOTA, "weight"),
    ],
)
def test_scan_never_wraps_a_fraction_in_a_fraction(monkeypatch, rule, prop):
    # every value is converted once where it enters: Fraction(q) for a
    # Fraction q takes the slow numbers.Rational path and is never needed
    rewrapped = []
    new = Fraction.__new__

    def counting_new(cls, numerator=0, denominator=None, **kwargs):
        if type(numerator) is Fraction and denominator is None:
            rewrapped.append(numerator)
        return new(cls, numerator, denominator, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    report = scan(rule, prop, max_n=4, max_m=8, trials=200, seed=914)
    monkeypatch.undo()
    assert (report is not None) == (prop == "wef1")
    assert rewrapped == []


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


@pytest.mark.parametrize("prop, max_n", [("population", 3), ("resource", 1), ("wef1", 1)])
def test_scan_rejects_fixed_agent_count_mismatch(prop, max_n):
    # adjusted winner runs on exactly two agents: an added agent or max_n
    # below two would otherwise fail mid-scan or be silently overridden
    with pytest.raises(ValueError, match="exactly 2 agents"):
        scan(RULES["aw"], prop, max_n=max_n, trials=10, seed=0)


# sha256 of the reprs of 236 seeded scans, 80 of which find a violation
SCAN_REPORTS_DIGEST = "7645c401dca010ca5e5f48225db5d7889df7f7f7530ee51d1506bb00846e92bd"
SCANNED_RULES = ("adams", "jefferson", "webster", "hill", "dean", "quota", "rr", "mwnw", "ecycle", "aw")


def test_scan_reports_are_unchanged():
    # every report field, witness and perturbation of every rule and
    # property, so that a change to a generator, verifier, rule or draw that
    # alters one report shows here
    digest, found = hashlib.sha256(), 0
    for name in SCANNED_RULES:
        for prop in NOTIONS + MONOTONICITY_KINDS:
            if (name, prop) == ("aw", "population"):
                continue  # adjusted winner runs on exactly two agents
            for seed in range(4):
                report = scan(rule_from_name(name), prop, max_n=3, max_m=6, trials=40, seed=seed)
                found += report is not None
                digest.update(repr(report).encode())
    assert (found, digest.hexdigest()) == (80, SCAN_REPORTS_DIGEST)
