"""Machine-readable catalog of the regression counterexamples.

Each named case pins one documented failure (or the full rule-by-property
summary matrix) to exact expected values: sequences, bundles, utilities,
verdicts.  Running a case recomputes everything through the public modules
and diffs against the frozen expectation, so any behavioral drift in the
generators, the executor, the solver, or the verifiers shows up here.
A monotonicity case is one harness comparison; the sequences or bundles it
shows come from the rule's own ``Rule.sequence_for`` and ``Rule.run``.

The matrix certifies each cell one way.  A negative cell that a catalog
case names in its ``refutes`` field replays that case and reads its claim;
the two negative cells that no case names replay a stored sequence
(``STORED_SEQUENCES``).  Every other cell is one seeded ``harness.scan``,
which must find nothing on a positive cell and a violation on a negative
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from .core import Instance, format_rational
from .fairness import check_allocation, check_sequence
from .harness import PERTURBATIONS, check_weight_consistency_pair, scan
from .methods import RULES, TRADITIONAL, Rule, divisor_rule, rule_from_name

# Fixed seed for every randomized certification in this module.
SCAN_SEED = 914
SCAN_TRIALS = 5000

QUOTA, MWNW = RULES["quota"], RULES["mwnw"]

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
    """A catalog case: its run, the values it must give, and the (rule,
    property) cell of the summary table its counterexample refutes, if any."""

    id: str
    description: str
    expected: dict
    runner: Callable[[], dict]
    refutes: tuple[str, str] | None = None

    def run(self) -> CaseResult:
        actual = self.runner()
        return CaseResult(self.id, actual == self.expected, self.expected, actual)

    def property_holds(self) -> bool:
        """Run the case and read whether the property of the cell it refutes
        held: no monotonicity violation, or the fairness notion's verdict."""
        prop = self.refutes[1]
        actual = self.runner()
        return not actual["violated"] if prop.endswith("_monotone") else actual[f"{prop}_holds"]


# What a case may show of the rule's run on each instance, 1-indexed.
_SHOW = {
    "sequence": lambda rule, inst: [
        a + 1 for a in rule.sequence_for(inst.n, inst.m, inst.weights).turns
    ],
    "bundles": lambda rule, inst: [sorted(g + 1 for g in b) for b in rule.run(inst).bundles],
}


def _monotonicity_case(
    rule: Rule, base: Instance, kind: str, *args, show=None, agent: int = 0, label="utility"
) -> dict:
    """Run the harness comparison of ``kind`` once, perturbing ``base`` by
    ``args``: the tracked agent's utility before and after, the verdict,
    and with ``show`` the rule's sequences or bundles on both instances."""
    entry = PERTURBATIONS[kind]
    report = entry.compare(rule, base, *args)
    after = "boosted" if kind == "weight" else "modified"
    out = {
        f"{label}_base": format_rational(report.before[agent]),
        f"{label}_{after}": format_rational(report.after[agent]),
        "violated": report.violated,
    }
    if show is not None:
        out[f"{show}_base"] = _SHOW[show](rule, base)
        out[f"{show}_{after}"] = _SHOW[show](rule, entry.perturb(base, *args))
    return out


def _weightmon_instance(extended: bool, weights) -> Instance:
    rows = tuple(EXTRA_ITEM_VALUES + row if extended else row for row in WEIGHTMON_TABLE)
    return Instance(tuple(weights), rows)


def _run_weightmon_divisor(method: str) -> dict:
    weights, boosted_w1, extended = WEIGHTMON_WEIGHTS[method]
    base = _weightmon_instance(extended, weights)
    rule = divisor_rule(TRADITIONAL[method])
    out = _monotonicity_case(rule, base, "weight", 0, boosted_w1, show="sequence")
    # agent 1's utility restricted to the five flip items
    for suffix, inst in (("base", base), ("boosted", base.replace_weight(0, boosted_w1))):
        bundle = rule.run(inst).bundles[0]
        core = sum(base.utilities[0][g] for g in bundle if g >= base.m - 5)
        out[f"core_utility_{suffix}"] = format_rational(core)
    return out


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


def _mwnw_fairness_case(weights, utilities, *notions: str) -> dict:
    """The MWNW allocation's bundle sizes, whether it satisfies each notion,
    and the first notion's witness."""
    inst = Instance(weights, utilities)
    alloc = MWNW.run(inst)
    verdicts = [check_allocation(notion, inst, alloc) for notion in notions]
    witness = verdicts[0].witness
    return {
        "bundle_sizes": [len(b) for b in alloc.bundles],
        **{f"{notion}_holds": v.holds for notion, v in zip(notions, verdicts)},
        "lhs": format_rational(witness.lhs) if witness else None,
        "rhs": format_rational(witness.rhs) if witness else None,
    }


def _run_quota_weight_consistency() -> dict:
    utilities = (
        (3, 0, 0, 2, 0, 0, 1),
        (0, 3, 2, 0, 1, 0, 0),
        (0, 0, 2, 0, 0, 0, 1),
    ) + ((0, 0, 0, 0, 0, 1, 0),) * 6
    weights = (Fraction(8, 24), Fraction(7, 24), Fraction(3, 24)) + (Fraction(1, 24),) * 6
    out = _monotonicity_case(
        QUOTA, Instance(weights, utilities), "weight", 0, Fraction(9, 24), show="sequence"
    )
    # the predicate is structural, so the 1-indexed sequences name agent 1 as 1
    out["weight_consistent_pair"] = check_weight_consistency_pair(
        out["sequence_base"], out["sequence_boosted"], 1
    )
    return out


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

# The two negative cells that no catalog case refutes: the rule's sequence
# of m turns on these weights, (m, weights), fails the notion.
STORED_SEQUENCES = {
    ("quota", "wef1"): (5, QUOTA_FLIP_WEIGHTS),
    ("webster", "wprop1"): (5, WEBSTER_WPROP1_WEIGHTS),
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
    refuting = {c.refutes: c for c in _CATALOG if c.refutes is not None}
    cells: dict[str, dict[str, bool]] = {name: {} for name in TABLE_RULES}
    for seed, (name, prop) in enumerate(order, start=7001):
        rule = rule_from_name(name)
        if (name, prop) in refuting:
            cells[name][prop] = refuting[name, prop].property_holds()
        elif (name, prop) in STORED_SEQUENCES:
            m, weights = STORED_SEQUENCES[name, prop]
            sequence = rule.sequence_for(len(weights), m, weights)
            cells[name][prop] = check_sequence(prop, sequence, weights).holds
        else:
            bounds = _scan_bounds(name, prop, seed)
            cells[name][prop] = scan(rule, prop.removesuffix("_monotone"), *bounds) is None
    return cells


_CATALOG = (
    *(
        NamedCase(
            f"p42-weightmon-{method}",
            f"{method}: raising the largest weight flips the picking order "
            "and drops that agent's utility by 6",
            _weightmon_expected(method),
            partial(_run_weightmon_divisor, method),
            (method, "weight_monotone"),
        )
        for method in WEIGHTMON_WEIGHTS
    ),
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
        lambda: _monotonicity_case(
            QUOTA,
            Instance(
                (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
                ((2, 1, 0), (0, 1, 0), (0, 1, 0), (0, 1, 0)),
            ),
            "population", Fraction(1, 3), (0, 0, 1), show="sequence",
        ),
        ("quota", "population_monotone"),
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
        lambda: _monotonicity_case(
            QUOTA, _weightmon_instance(False, QUOTA_FLIP_WEIGHTS), "weight", 0, Fraction(11, 18),
            show="sequence",
        ),
        ("quota", "weight_monotone"),
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
        lambda: _monotonicity_case(
            MWNW, Instance((1, 1), ((3, 2, 2), (2, 2, 1))), "resource", (2, 1), show="bundles"
        ),
        ("mwnw", "resource_monotone"),
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
        lambda: _monotonicity_case(
            MWNW, Instance((1, 1), ((2, 3, 3, 2), (1, 2, 1, 3))), "population", 1, (2, 1, 1, 3),
            show="bundles",
        ),
        ("mwnw", "population_monotone"),
    ),
    # a heavy agent with uniform utilities: positive welfare forces one
    # item per agent, far below the heavy agent's proportional share
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
        partial(
            _mwnw_fairness_case,
            (Fraction(8, 10), Fraction(1, 10), Fraction(1, 10)), ((1, 1, 1),) * 3, "wprop1",
        ),
        ("mwnw", "wprop1"),
    ),
    NamedCase(
        "pa1-ecycle-resmon",
        "envy-cycle elimination: an extra item drops an agent 4 to 0",
        {
            "agent3_utility_base": "4",
            "agent3_utility_modified": "0",
            "violated": True,
        },
        lambda: _monotonicity_case(
            RULES["ecycle"], Instance((1, 1, 1), ((10, 5, 1), (6, 1, 2), (0, 4, 1))),
            "resource", (11, 1, 0), agent=2, label="agent3_utility",
        ),
    ),
    NamedCase(
        "pa2-aw-resmon",
        "adjusted winner: an extra item drops an agent 11/10 to 1",
        {
            "agent1_utility_base": "11/10",
            "agent1_utility_modified": "1",
            "violated": True,
        },
        lambda eps=Fraction(1, 10): _monotonicity_case(
            RULES["aw"],
            Instance((1, 1), ((1 - eps, 2 * eps, 1), (Fraction(3, 2) * (1 - eps), 4 * eps, 3))),
            "resource", (eps, eps), label="agent1_utility",
        ),
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
    # identical items, weight ratio 4: the welfare-maximal split is 1 vs 6,
    # which the lighter agent envies by more than one item
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
        partial(_mwnw_fairness_case, (1, 4), ((1,) * 7,) * 2, "wef1", "wwef1"),
        ("mwnw", "wef1"),
    ),
    NamedCase(
        "table1-matrix",
        "the full rule-by-property summary: positives by randomized "
        "suites, negatives by stored or scan-found counterexamples",
        TABLE_EXPECTED,
        _run_table_matrix,
    ),
)
_BY_ID = {entry.id: entry for entry in _CATALOG}


def catalog() -> tuple[NamedCase, ...]:
    return _CATALOG


def run_case(case_id: str) -> CaseResult:
    if case_id not in _BY_ID:
        raise ValueError(f"unknown case id {case_id!r}")
    return _BY_ID[case_id].run()


COUNTEREXAMPLE_IDS = tuple(c.id for c in _CATALOG if c.id != "table1-matrix")
