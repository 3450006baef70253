"""Machine-readable catalog of the regression counterexamples.

Each named case pins one documented failure (or the full rule-by-property
summary matrix) to exact expected values: sequences, bundles, utilities,
verdicts.  Running a case recomputes everything through the public modules
and diffs against the frozen expectation, so any behavioral drift in the
generators, the executor, the solver, or the verifiers shows up here.

The matrix certifies each cell one way: a negative cell with a stored
counterexample replays it (``REFUTED``), and every other cell is one seeded
``harness.scan``, which must find nothing on a positive cell and a
violation on a negative one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import Instance, format_rational
from .executor import execute
from .fairness import check_allocation, check_sequence
from .harness import (
    check_weight_consistency_pair,
    compare_population,
    compare_resource,
    compare_weight,
    scan,
)
from .methods import (
    TRADITIONAL,
    WEBSTER,
    Rule,
    divisor_rule,
    divisor_sequence,
    quota_sequence,
    rule_from_name,
)
from .mwnw import solve

# Fixed seed for every randomized certification in this module.
SCAN_SEED = 914
SCAN_TRIALS = 5000

# Five items, three agents; raising agent 1's weight flips the picking
# order from (1,2,1,3,1) to (1,1,2,3,1) and costs her 6 utility.
WEIGHTMON_TABLE = (
    (10, 9, 8, 7, 0),
    (7, 10, 8, 9, 0),
    (0, 7, 10, 8, 9),
)

# Methods whose f(0) = 0 need three prepended items (valued identically by
# everyone) so that the first round of picks is (1,2,3) and the remaining
# five turns replay the flip above with pick counts shifted by one.
EXTRA_ITEM_VALUES = (100, 99, 98)

# Weight tuples (w1, w2, w3) and the boosted w1'.  Each tuple sits strictly
# inside the open intervals that force the two sequences, with s = 0 for
# methods with f(0) > 0 and s = 1 for the prepended-items variant:
#   1 < w2 < f(s+2)/f(s+1)
#   max(w2 * f(s+2)/f(s+1), f(s+1)/f(s)) < w1 < w2 * f(s+1)/f(s)
#   w2 * f(s+1)/f(s) < w1' < f(s+2)/f(s)
WEIGHTMON_WEIGHTS = {
    "adams": ((Fraction(9, 4), Fraction(5, 4), Fraction(1)), Fraction(11, 4), True),
    "jefferson": ((Fraction(9, 4), Fraction(5, 4), Fraction(1)), Fraction(11, 4), False),
    "webster": ((Fraction(33, 10), Fraction(6, 5), Fraction(1)), Fraction(4), False),
    "hill": ((Fraction(2), Fraction(5, 4), Fraction(1)), Fraction(9, 4), True),
    "dean": ((Fraction(2), Fraction(5, 4), Fraction(1)), Fraction(5, 2), True),
}

# The same flip under quota, whose sequence also fails WEF1.
QUOTA_FLIP_WEIGHTS = (Fraction(9, 18), Fraction(5, 18), Fraction(4, 18))

# The smallest webster WPROP1 counterexample needs four agents: one agent
# whose weight ratio sits in (9/2, 5) against three equal rivals is a full
# pick short of its share by round 5.
WEBSTER_WPROP1_WEIGHTS = (Fraction(19), Fraction(4), Fraction(4), Fraction(4))


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    passed: bool
    expected: dict
    actual: dict

    @property
    def diff(self) -> list[str]:
        keys = sorted(set(self.expected) | set(self.actual))
        return [k for k in keys if self.expected.get(k) != self.actual.get(k)]


@dataclass(frozen=True)
class NamedCase:
    id: str
    description: str
    expected: dict
    runner: Callable[[], dict]

    def run(self) -> CaseResult:
        actual = self.runner()
        return CaseResult(self.id, actual == self.expected, self.expected, actual)


def _q(x) -> str:
    return format_rational(Fraction(x))


def _seq1(sequence) -> list[int]:
    return [a + 1 for a in sequence]


def _bundles1(allocation) -> list[list[int]]:
    return [sorted(g + 1 for g in b) for b in allocation.bundles]


def _weightmon_instance(extended: bool, weights) -> Instance:
    if extended:
        rows = tuple(
            tuple(Fraction(v) for v in EXTRA_ITEM_VALUES + row) for row in WEIGHTMON_TABLE
        )
    else:
        rows = tuple(tuple(Fraction(v) for v in row) for row in WEIGHTMON_TABLE)
    return Instance(tuple(weights), rows)


def _run_weightmon_divisor(method: str) -> dict:
    f = TRADITIONAL[method]
    weights, boosted_w1, extended = WEIGHTMON_WEIGHTS[method]
    base = _weightmon_instance(extended, weights)
    m = base.m
    seq_base = divisor_sequence(f, 3, m, weights)
    seq_boost = divisor_sequence(f, 3, m, (boosted_w1,) + weights[1:])
    report = compare_weight(divisor_rule(f), base, 0, boosted_w1)
    core_from = m - 5  # utility restricted to the five flip items
    alloc_base = execute(base, seq_base)
    alloc_boost = execute(base.replace_weight(0, boosted_w1), seq_boost)
    core_base = sum(
        (base.utilities[0][g] for g in alloc_base.bundles[0] if g >= core_from), Fraction(0)
    )
    core_boost = sum(
        (base.utilities[0][g] for g in alloc_boost.bundles[0] if g >= core_from), Fraction(0)
    )
    return {
        "sequence_base": _seq1(seq_base),
        "sequence_boosted": _seq1(seq_boost),
        "utility_base": _q(report.before[0]),
        "utility_boosted": _q(report.after[0]),
        "core_utility_base": _q(core_base),
        "core_utility_boosted": _q(core_boost),
        "violated": report.violated,
    }


def _weightmon_expected(method: str) -> dict:
    extended = WEIGHTMON_WEIGHTS[method][2]
    prefix = [1, 2, 3] if extended else []
    total_base, total_boost = ("125", "119") if extended else ("25", "19")
    return {
        "sequence_base": prefix + [1, 2, 1, 3, 1],
        "sequence_boosted": prefix + [1, 1, 2, 3, 1],
        "utility_base": total_base,
        "utility_boosted": total_boost,
        "core_utility_base": "25",
        "core_utility_boosted": "19",
        "violated": True,
    }


def _run_quota_weightmon() -> dict:
    weights = QUOTA_FLIP_WEIGHTS
    base = _weightmon_instance(False, weights)
    seq_base = quota_sequence(3, 5, weights)
    seq_boost = quota_sequence(3, 5, (Fraction(11, 18),) + weights[1:])
    report = compare_weight(Rule("quota"), base, 0, Fraction(11, 18))
    return {
        "sequence_base": _seq1(seq_base),
        "sequence_boosted": _seq1(seq_boost),
        "utility_base": _q(report.before[0]),
        "utility_boosted": _q(report.after[0]),
        "violated": report.violated,
    }


def _run_quota_popmon() -> dict:
    base = Instance(
        (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
        ((2, 1, 0), (0, 1, 0), (0, 1, 0), (0, 1, 0)),
    )
    seq_base = quota_sequence(4, 3, base.weights)
    modified = base.add_agent(Fraction(1, 3), (0, 0, 1))
    seq_mod = quota_sequence(5, 3, modified.weights)
    report = compare_population(Rule("quota"), base, Fraction(1, 3), (0, 0, 1))
    return {
        "sequence_base": _seq1(seq_base),
        "sequence_modified": _seq1(seq_mod),
        "utility_base": _q(report.before[0]),
        "utility_modified": _q(report.after[0]),
        "violated": report.violated,
    }


def _mnw_resmon_base() -> Instance:
    return Instance((1, 1), ((3, 2, 2), (2, 2, 1)))


def _run_mnw_resmon() -> dict:
    base = _mnw_resmon_base()
    report = compare_resource(Rule("mwnw"), base, (2, 1))
    return {
        "bundles_base": _bundles1(solve(base)),
        "bundles_modified": _bundles1(solve(base.add_item((2, 1)))),
        "utility_base": _q(report.before[0]),
        "utility_modified": _q(report.after[0]),
        "violated": report.violated,
    }


def _mnw_popmon_base() -> Instance:
    return Instance((1, 1), ((2, 3, 3, 2), (1, 2, 1, 3)))


def _run_mnw_popmon() -> dict:
    base = _mnw_popmon_base()
    report = compare_population(Rule("mwnw"), base, 1, (2, 1, 1, 3))
    return {
        "bundles_base": _bundles1(solve(base)),
        "bundles_modified": _bundles1(solve(base.add_agent(1, (2, 1, 1, 3)))),
        "utility_base": _q(report.before[0]),
        "utility_modified": _q(report.after[0]),
        "violated": report.violated,
    }


def _run_mwnw_wprop1() -> dict:
    # a heavy agent with uniform utilities: positive welfare forces one
    # item per agent, far below the heavy agent's proportional share
    inst = Instance(
        (Fraction(8, 10), Fraction(1, 10), Fraction(1, 10)),
        ((1, 1, 1), (1, 1, 1), (1, 1, 1)),
    )
    alloc = solve(inst)
    verdict = check_allocation("wprop1", inst, alloc)
    return {
        "bundle_sizes": [len(b) for b in alloc.bundles],
        "wprop1_holds": verdict.holds,
        "lhs": _q(verdict.witness.lhs) if verdict.witness else None,
        "rhs": _q(verdict.witness.rhs) if verdict.witness else None,
    }


def _run_mwnw_wef1() -> dict:
    # identical items, weight ratio 4: the welfare-maximal split is 1 vs 6,
    # which the lighter agent envies by more than one item
    inst = Instance((1, 4), ((1,) * 7, (1,) * 7))
    alloc = solve(inst)
    wef1 = check_allocation("wef1", inst, alloc)
    wwef1 = check_allocation("wwef1", inst, alloc)
    return {
        "bundle_sizes": [len(b) for b in alloc.bundles],
        "wef1_holds": wef1.holds,
        "wwef1_holds": wwef1.holds,
        "lhs": _q(wef1.witness.lhs) if wef1.witness else None,
        "rhs": _q(wef1.witness.rhs) if wef1.witness else None,
    }


def _run_ecycle_resmon() -> dict:
    base = Instance((1, 1, 1), ((10, 5, 1), (6, 1, 2), (0, 4, 1)))
    report = compare_resource(Rule("envy_cycle"), base, (11, 1, 0))
    return {
        "agent3_utility_base": _q(report.before[2]),
        "agent3_utility_modified": _q(report.after[2]),
        "violated": report.violated,
    }


def _run_aw_resmon() -> dict:
    eps = Fraction(1, 10)
    base = Instance(
        (1, 1),
        (
            (1 - eps, 2 * eps, 1),
            (Fraction(3, 2) * (1 - eps), 4 * eps, 3),
        ),
    )
    report = compare_resource(Rule("adjusted_winner"), base, (eps, eps))
    return {
        "agent1_utility_base": _q(report.before[0]),
        "agent1_utility_modified": _q(report.after[0]),
        "violated": report.violated,
    }


def _run_quota_weight_consistency() -> dict:
    utilities = (
        (3, 0, 0, 2, 0, 0, 1),
        (0, 3, 2, 0, 1, 0, 0),
        (0, 0, 2, 0, 0, 0, 1),
    ) + ((0, 0, 0, 0, 0, 1, 0),) * 6
    weights = (Fraction(8, 24), Fraction(7, 24), Fraction(3, 24)) + (Fraction(1, 24),) * 6
    base = Instance(weights, utilities)
    boosted = Fraction(9, 24)
    seq_base = quota_sequence(9, 7, weights)
    seq_boost = quota_sequence(9, 7, (boosted,) + weights[1:])
    report = compare_weight(Rule("quota"), base, 0, boosted)
    return {
        "sequence_base": _seq1(seq_base),
        "sequence_boosted": _seq1(seq_boost),
        "weight_consistent_pair": check_weight_consistency_pair(seq_base, seq_boost, 0),
        "utility_base": _q(report.before[0]),
        "utility_boosted": _q(report.after[0]),
        "violated": report.violated,
    }


# --- summary matrix ----------------------------------------------------------

TABLE_RULES = ("adams", "jefferson", "webster", "hill", "dean", "quota", "mwnw")
TABLE_PROPERTIES = (
    "resource_monotone",
    "population_monotone",
    "weight_monotone",
    "wef1",
    "wwef1",
    "wprop1",
)

TABLE_EXPECTED = {
    "adams": dict(zip(TABLE_PROPERTIES, (True, True, False, True, True, False))),
    "jefferson": dict(zip(TABLE_PROPERTIES, (True, True, False, False, True, True))),
    "webster": dict(zip(TABLE_PROPERTIES, (True, True, False, False, True, False))),
    "hill": dict(zip(TABLE_PROPERTIES, (True, True, False, False, True, False))),
    "dean": dict(zip(TABLE_PROPERTIES, (True, True, False, False, True, False))),
    "quota": dict(zip(TABLE_PROPERTIES, (True, False, False, False, True, True))),
    "mwnw": dict(zip(TABLE_PROPERTIES, (False, False, True, False, True, False))),
}

# The thirteen negative cells refuted by a stored or hand-built
# counterexample; each entry returns whether the property held on it.
REFUTED: dict[tuple[str, str], Callable[[], bool]] = {
    **{
        (method, "weight_monotone"): (lambda m=method: not _run_weightmon_divisor(m)["violated"])
        for method in WEIGHTMON_WEIGHTS
    },
    ("quota", "population_monotone"): lambda: not _run_quota_popmon()["violated"],
    ("quota", "weight_monotone"): lambda: not _run_quota_weightmon()["violated"],
    ("mwnw", "resource_monotone"): lambda: not _run_mnw_resmon()["violated"],
    ("mwnw", "population_monotone"): lambda: not _run_mnw_popmon()["violated"],
    ("mwnw", "wef1"): lambda: _run_mwnw_wef1()["wef1_holds"],
    ("mwnw", "wprop1"): lambda: _run_mwnw_wprop1()["wprop1_holds"],
    ("quota", "wef1"): lambda: check_sequence(
        "wef1", quota_sequence(3, 5, QUOTA_FLIP_WEIGHTS), QUOTA_FLIP_WEIGHTS
    ).holds,
    ("webster", "wprop1"): lambda: check_sequence(
        "wprop1", divisor_sequence(WEBSTER, 4, 5, WEBSTER_WPROP1_WEIGHTS), WEBSTER_WPROP1_WEIGHTS
    ).holds,
}


def _scan_bounds(name: str, prop: str, seed: int) -> tuple[int, int, int, int]:
    """(max_n, max_m, trials, seed) of the scan that certifies a cell.

    A positive cell gets its own seed; the dedicated acceptance suites rerun
    these properties at larger scale.  A negative cell must be refuted by
    the shared seeded scan that acceptance criterion 6 also runs.
    """
    if not TABLE_EXPECTED[name][prop]:
        return 3, 8, SCAN_TRIALS, SCAN_SEED
    if name == "mwnw":
        return 3, 6, 120, seed
    if prop.endswith("_monotone"):
        return 4, 8, 150, seed
    return 6, 14, 300, seed


def _run_table_matrix() -> dict:
    # every rule's monotonicity cells, then every rule's fairness cells; each
    # cell takes the next seed, whether or not it scans
    order = [
        (name, prop)
        for props in (TABLE_PROPERTIES[:3], TABLE_PROPERTIES[3:])
        for name in TABLE_RULES
        for prop in props
    ]
    cells: dict[str, dict[str, bool]] = {name: {} for name in TABLE_RULES}
    for seed, (name, prop) in enumerate(order, start=7001):
        if (name, prop) in REFUTED:
            cells[name][prop] = REFUTED[name, prop]()
        else:
            bounds = _scan_bounds(name, prop, seed)
            rule = rule_from_name(name)
            cells[name][prop] = scan(rule, prop.removesuffix("_monotone"), *bounds) is None
    return cells


def catalog() -> tuple[NamedCase, ...]:
    cases = []
    for method in ("adams", "jefferson", "webster", "hill", "dean"):
        cases.append(
            NamedCase(
                id=f"p42-weightmon-{method}",
                description=(
                    f"{method}: raising the largest weight flips the picking order "
                    "and drops that agent's utility by 6"
                ),
                expected=_weightmon_expected(method),
                runner=(lambda m=method: _run_weightmon_divisor(m)),
            )
        )
    cases.extend(
        [
            NamedCase(
                "p52-quota-popmon",
                "quota: an arriving agent raises an incumbent's utility 2 to 3",
                {
                    "sequence_base": [1, 2, 1],
                    "sequence_modified": [1, 5, 1],
                    "utility_base": "2",
                    "utility_modified": "3",
                    "violated": True,
                },
                _run_quota_popmon,
            ),
            NamedCase(
                "p52-quota-weightmon",
                "quota: raising the largest weight drops that agent's utility 25 to 19",
                {
                    "sequence_base": [1, 2, 1, 3, 1],
                    "sequence_boosted": [1, 1, 2, 3, 1],
                    "utility_base": "25",
                    "utility_boosted": "19",
                    "violated": True,
                },
                _run_quota_weightmon,
            ),
            NamedCase(
                "p61-mnw-resmon",
                "unweighted max Nash welfare: an extra item drops an agent 5 to 4",
                {
                    "bundles_base": [[1, 3], [2]],
                    "bundles_modified": [[3, 4], [1, 2]],
                    "utility_base": "5",
                    "utility_modified": "4",
                    "violated": True,
                },
                _run_mnw_resmon,
            ),
            NamedCase(
                "p61-mnw-popmon",
                "unweighted max Nash welfare: an arriving agent raises an incumbent 5 to 6",
                {
                    "bundles_base": [[1, 3], [2, 4]],
                    "bundles_modified": [[2, 3], [4], [1]],
                    "utility_base": "5",
                    "utility_modified": "6",
                    "violated": True,
                },
                _run_mnw_popmon,
            ),
            NamedCase(
                "p63-mwnw-wprop1",
                "weighted max Nash welfare: uniform utilities force one item each, "
                "failing the heavy agent's proportional share",
                {
                    "bundle_sizes": [1, 1, 1],
                    "wprop1_holds": False,
                    "lhs": "1",
                    "rhs": "7/5",
                },
                _run_mwnw_wprop1,
            ),
            NamedCase(
                "pa1-ecycle-resmon",
                "envy-cycle elimination: an extra item drops an agent 4 to 0",
                {
                    "agent3_utility_base": "4",
                    "agent3_utility_modified": "0",
                    "violated": True,
                },
                _run_ecycle_resmon,
            ),
            NamedCase(
                "pa2-aw-resmon",
                "adjusted winner: an extra item drops an agent 11/10 to 1",
                {
                    "agent1_utility_base": "11/10",
                    "agent1_utility_modified": "1",
                    "violated": True,
                },
                _run_aw_resmon,
            ),
            NamedCase(
                "pb1-quota-weightconsistency",
                "quota: the boosted sequence is unreachable by move-earlier edits "
                "and costs the boosted agent 6 to 5",
                {
                    "sequence_base": [1, 2, 3, 1, 2, 4, 1],
                    "sequence_boosted": [1, 2, 1, 2, 3, 1, 4],
                    "weight_consistent_pair": False,
                    "utility_base": "6",
                    "utility_boosted": "5",
                    "violated": True,
                },
                _run_quota_weight_consistency,
            ),
            NamedCase(
                "mwnw-wef1",
                "weighted max Nash welfare: identical items at weight ratio 4 "
                "leave the light agent envious beyond one item",
                {
                    "bundle_sizes": [1, 6],
                    "wef1_holds": False,
                    "wwef1_holds": True,
                    "lhs": "1",
                    "rhs": "5/4",
                },
                _run_mwnw_wef1,
            ),
            NamedCase(
                "table1-matrix",
                "the full rule-by-property summary: positives by randomized "
                "suites, negatives by stored or scan-found counterexamples",
                TABLE_EXPECTED,
                _run_table_matrix,
            ),
        ]
    )
    return tuple(cases)


def case(case_id: str) -> NamedCase:
    for entry in catalog():
        if entry.id == case_id:
            return entry
    raise ValueError(f"unknown case id {case_id!r}")


def run_case(case_id: str) -> CaseResult:
    return case(case_id).run()


COUNTEREXAMPLE_IDS = tuple(c.id for c in catalog() if c.id != "table1-matrix")
