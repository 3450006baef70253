"""Monotonicity comparisons, consistency decision procedures, and seeded
counterexample search over any rule.

Monotonicity follows the textbook perturbations exactly: an extra item is
appended as item m+1, an extra agent as agent n+1, and a weight change is
always an increase.  A rule is resource-monotone when no agent loses from
the extra item, population-monotone when no incumbent gains from the extra
agent, and weight-monotone when the boosted agent never loses.

The consistency predicates relate picking sequences of neighboring problem
sizes structurally (prefix, insert-and-trim, move-earlier-insert-and-trim)
without running any utilities through them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import baselines, mwnw
from .core import Allocation, Instance, PickingSequence, allocation_utilities, turns_of
from .executor import execute
from .fairness import FairnessVerdict, check_allocation, check_sequence, zero_one_instance
from .methods import Rule, divisor_sequence, quota_sequence

MONOTONICITY_KINDS = ("resource", "population", "weight")


def sequence_for_rule(rule: Rule, n: int, m: int, weights: Sequence) -> PickingSequence:
    """The picking sequence a sequence-based rule uses at this size."""
    if rule.kind == "divisor":
        return divisor_sequence(rule.divisor, n, m, weights)
    if rule.kind == "quota":
        return quota_sequence(n, m, weights)
    if rule.kind == "round_robin":
        return baselines.round_robin_sequence(n, m)
    raise ValueError(f"rule {rule.name!r} is not sequence-based")


def apply_rule(rule: Rule, instance: Instance, budget: int = mwnw.DEFAULT_BUDGET) -> Allocation:
    """Run any rule on an instance and return its allocation."""
    if rule.is_sequence_based:
        seq = sequence_for_rule(rule, instance.n, instance.m, instance.weights)
        return execute(instance, seq)
    if rule.kind == "mwnw":
        return mwnw.solve(instance, budget=budget)
    if rule.kind == "envy_cycle":
        return baselines.envy_cycle_eliminate(instance)
    if rule.kind == "adjusted_winner":
        return baselines.adjusted_winner(instance)
    raise ValueError(f"unknown rule kind {rule.kind!r}")


@dataclass(frozen=True)
class MonotonicityReport:
    """Per-agent utilities before and after one perturbation of an instance.

    ``violated`` is true when some tracked agent's utility moved in the
    forbidden direction: a decrease for resource, an increase for an
    incumbent under population, a decrease for the boosted agent under
    weight.  Only the first n (original) agents are tracked.
    """

    kind: str
    rule: str
    before: tuple[Fraction, ...]
    after: tuple[Fraction, ...]
    violated: bool
    violators: tuple[int, ...]
    boosted_agent: int | None = None


def compare_resource(
    rule: Rule, base: Instance, extra_item_utilities: Sequence
) -> MonotonicityReport:
    """Run the rule with and without one appended item."""
    modified = base.add_item(extra_item_utilities)
    before = allocation_utilities(base, apply_rule(rule, base))
    after_all = allocation_utilities(modified, apply_rule(rule, modified))
    after = after_all[: base.n]
    violators = tuple(i for i in range(base.n) if after[i] < before[i])
    return MonotonicityReport("resource", rule.name, before, after, bool(violators), violators)


def compare_population(
    rule: Rule, base: Instance, new_weight, new_utilities: Sequence
) -> MonotonicityReport:
    """Run the rule with and without one appended agent; track incumbents."""
    modified = base.add_agent(new_weight, new_utilities)
    before = allocation_utilities(base, apply_rule(rule, base))
    after = allocation_utilities(modified, apply_rule(rule, modified))[: base.n]
    violators = tuple(i for i in range(base.n) if after[i] > before[i])
    return MonotonicityReport("population", rule.name, before, after, bool(violators), violators)


def compare_weight(rule: Rule, base: Instance, agent: int, new_weight) -> MonotonicityReport:
    """Run the rule before and after raising one agent's weight."""
    new_weight = Fraction(new_weight)
    if not 0 <= agent < base.n:
        raise ValueError(f"agent index {agent} out of range")
    if new_weight <= base.weights[agent]:
        raise ValueError("weight-monotonicity perturbations must increase the weight")
    modified = base.replace_weight(agent, new_weight)
    before = allocation_utilities(base, apply_rule(rule, base))
    after = allocation_utilities(modified, apply_rule(rule, modified))
    violated = after[agent] < before[agent]
    violators = (agent,) if violated else ()
    return MonotonicityReport(
        "weight", rule.name, before, after, violated, violators, boosted_agent=agent
    )


# --- consistency ------------------------------------------------------------


def check_resource_consistency(
    family: Callable[[int, int, Sequence], PickingSequence],
    n: int,
    m: int,
    weights: Sequence,
) -> bool:
    """True iff the m-item sequence prefixes the (m+1)-item sequence."""
    small = turns_of(family(n, m, weights))
    large = turns_of(family(n, m + 1, weights))
    return large[: len(small)] == small


def check_population_consistency_pair(
    pi_n: PickingSequence | Iterable[int],
    pi_n1: PickingSequence | Iterable[int],
    new_agent: int,
) -> bool:
    """True iff deleting the new agent's picks from pi_n1 leaves a prefix of pi_n.

    That is exactly the reachable set of "insert the new agent in some
    positions, then trim back to length m".
    """
    base = turns_of(pi_n)
    grown = turns_of(pi_n1)
    if len(base) != len(grown):
        raise ValueError("population consistency compares sequences of equal length")
    kept = tuple(a for a in grown if a != new_agent)
    return base[: len(kept)] == kept


def check_weight_consistency_pair(
    pi: PickingSequence | Iterable[int],
    pi_prime: PickingSequence | Iterable[int],
    agent: int,
) -> bool:
    """Decide whether pi_prime is reachable from pi by weight-consistent moves.

    Reachable means: move some of the agent's picks earlier, insert extra
    picks for the agent anywhere, and trim the suffix back to length m.
    Equivalent characterization, validated against brute-force enumeration
    of that transformation closure in the test suite:

    (a) the other agents' picks in pi_prime form a prefix of the other
        agents' picks in pi, in order, and
    (b) in every prefix, pi_prime gives the agent at least as many picks
        as pi does.
    """
    base = turns_of(pi)
    moved = turns_of(pi_prime)
    if len(base) != len(moved):
        raise ValueError("weight consistency compares sequences of equal length")
    others_base = tuple(a for a in base if a != agent)
    others_moved = tuple(a for a in moved if a != agent)
    if others_base[: len(others_moved)] != others_moved:
        return False
    count_base = 0
    count_moved = 0
    for k in range(len(base)):
        count_base += base[k] == agent
        count_moved += moved[k] == agent
        if count_moved < count_base:
            return False
    return True


# --- randomized counterexample search ---------------------------------------


@dataclass(frozen=True)
class ScanReport:
    """A replayable counterexample: rerunning the scan with the same seed
    and bounds reproduces it bit for bit."""

    rule: str
    property: str
    seed: int
    trials: int
    max_n: int
    max_m: int
    trial: int
    instance: Instance
    sequence: PickingSequence | None = None
    verdict: FairnessVerdict | None = None
    report: MonotonicityReport | None = None
    perturbation: dict | None = None


def random_instance(
    rng: random.Random,
    max_n: int,
    max_m: int,
    min_n: int = 1,
    max_util: int = 10,
    max_weight: int = 10,
    n: int | None = None,
) -> Instance:
    """Small random instance with integer weights and utilities.

    Integer-valued randomness keeps ties frequent, which is what stresses
    the tie-breaking rules.
    """
    if n is None:
        n = rng.randint(min_n, max_n)
    m = rng.randint(1, max_m)
    weights = tuple(Fraction(rng.randint(1, max_weight)) for _ in range(n))
    utilities = tuple(
        tuple(Fraction(rng.randint(0, max_util)) for _ in range(m)) for _ in range(n)
    )
    return Instance(weights, utilities)


def random_weights(rng: random.Random, n: int, max_weight: int = 10) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(1, max_weight)) for _ in range(n))


def scan(
    rule: Rule,
    property: str,
    max_n: int = 3,
    max_m: int = 8,
    trials: int = 2000,
    seed: int = 0,
    max_util: int = 10,
    max_weight: int = 10,
) -> ScanReport | None:
    """Search seeded random instances for a violation of the property.

    Fairness properties of sequence-based rules are tested on the sequence
    itself (a utility-profile-independent certificate); a failure is
    reported together with the 0/1 instance that realizes it as a concrete
    allocation.  Allocation rules and monotonicity properties run the rule
    directly.  Returns the first violation, or None.
    """
    rng = random.Random(seed)
    is_fairness = property in ("wef1", "wwef1", "wprop1")
    if not is_fairness and property not in MONOTONICITY_KINDS:
        raise ValueError(f"unknown scan property {property!r}")
    for name, value in (("trials", trials), ("max_n", max_n), ("max_m", max_m)):
        if value < 1:
            raise ValueError(f"scan needs {name} >= 1, got {value}")
    min_n = 2 if max_n >= 2 else 1

    for trial in range(trials):
        if is_fairness and rule.is_sequence_based:
            n = rng.randint(min_n, max_n)
            m = rng.randint(1, max_m)
            weights = random_weights(rng, n, max_weight)
            seq = sequence_for_rule(rule, n, m, weights)
            verdict = check_sequence(property, seq, weights)
            if not verdict.holds:
                bridge = zero_one_instance(weights, m, verdict.witness.prefix)
                return ScanReport(
                    rule.name, property, seed, trials, max_n, max_m,
                    trial, bridge, sequence=seq, verdict=verdict,
                )
            continue

        forced_n = 2 if rule.kind == "adjusted_winner" else None
        base = random_instance(
            rng, max_n, max_m, min_n=min_n, max_util=max_util,
            max_weight=max_weight, n=forced_n,
        )
        if is_fairness:
            verdict = check_allocation(property, base, apply_rule(rule, base))
            if not verdict.holds:
                return ScanReport(
                    rule.name, property, seed, trials, max_n, max_m,
                    trial, base, verdict=verdict,
                )
            continue

        if property == "resource":
            column = [Fraction(rng.randint(0, max_util)) for _ in range(base.n)]
            report = compare_resource(rule, base, column)
            perturbation = {"kind": "resource", "utilities": column}
        elif property == "population":
            new_weight = Fraction(rng.randint(1, max_weight))
            row = [Fraction(rng.randint(0, max_util)) for _ in range(base.m)]
            report = compare_population(rule, base, new_weight, row)
            perturbation = {"kind": "population", "weight": new_weight, "utilities": row}
        else:
            agent = rng.randrange(base.n)
            new_weight = base.weights[agent] + rng.randint(1, max_weight)
            report = compare_weight(rule, base, agent, new_weight)
            perturbation = {"kind": "weight", "agent": agent, "weight": new_weight}
        if report.violated:
            return ScanReport(
                rule.name, property, seed, trials, max_n, max_m,
                trial, base, report=report, perturbation=perturbation,
            )
    return None
