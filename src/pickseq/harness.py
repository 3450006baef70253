"""Monotonicity comparisons, consistency decision procedures, and seeded
counterexample search over any rule.

Monotonicity follows the textbook perturbations exactly: an extra item is
appended as item m+1, an extra agent as agent n+1, and a weight change is
always an increase.  A rule is resource-monotone when no agent loses from
the extra item, population-monotone when no incumbent gains from the extra
agent, and weight-monotone when the boosted agent never loses.  Each kind
is one ``Perturbation`` record in ``PERTURBATIONS``, and its
``decide(rule, base, *args)`` is the one monotonicity decision: it runs the
rule on both instances and decides each tracked agent on the integer
bundle sums of ``Instance.scaled_utilities``, cross-multiplied by the two
row scales, with no Fraction.  ``compare``, which the CLI and the repro
catalog run, builds the ``MonotonicityReport`` of that decision; ``scan``
makes the decision on every trial and builds the report, and the
Fractions in it, only for the trial that violates.

The consistency predicates relate picking sequences of neighboring problem
sizes structurally (prefix, insert-and-trim, move-earlier-insert-and-trim)
without running any utilities through them.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import Allocation, Instance, PickingSequence, _as_rational, turns_of
from .fairness import NOTIONS, FairnessVerdict, check_allocation, check_sequence, zero_one_instance
from .methods import Rule

# Largest weight and utility that `random_instance` and `scan` draw; `_DRAWN` builds each once.
MAX_DRAW = 10
_DRAWN = tuple(map(Fraction, range(MAX_DRAW + 1)))


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


def _raise_weight(base: Instance, agent: int, weight) -> Instance:
    """The weight perturbation: ``replace_weight``, refusing anything but an increase."""
    weight = _as_rational(weight)
    if not 0 <= agent < base.n:
        raise ValueError(f"agent index {agent} out of range")
    if weight <= base.weights[agent]:
        raise ValueError("weight-monotonicity perturbations must increase the weight")
    return base.replace_weight(agent, weight)


def _bundle_sums(instance: Instance, allocation: Allocation) -> tuple[list[int], tuple[int, ...]]:
    """Each agent's scaled row summed over the agent's bundle, and the row
    scales: an agent's utility is the sum divided by the scale.  Raises
    unless the allocation partitions the instance's items."""
    allocation.validate_for(instance)
    scales, rows = instance.scaled_utilities
    return [sum(map(row.__getitem__, b)) for row, b in zip(rows, allocation.bundles)], scales


class Perturbation(NamedTuple):
    """One monotonicity kind: its name, the perturbation of the base
    instance, that perturbation's argument names in call order, ``scan``'s
    seeded draw of those arguments for a base instance, and ``worse``, the
    forbidden move of a tracked agent's utility (``worse(after, before)``).
    Every original agent is tracked, unless ``boosts_first``: then the
    first argument is the boosted agent, the only one tracked.

    ``decide`` is the one monotonicity decision, made on integers: ``scan``
    makes it on every trial and builds a ``report`` of it only for the
    trial that violates, and ``compare`` is the two in one call."""

    kind: str
    perturb: Callable[..., Instance]
    names: tuple[str, ...]
    draw: Callable[[random.Random, Instance], tuple]
    worse: Callable[[int, int], bool]
    boosts_first: bool = False

    def decide(self, rule: Rule, base: Instance, *args) -> tuple:
        """Perturb ``base`` by ``args``, run the rule on the base and then on
        the modified instance, validating each allocation as it comes, and
        return the tracked agents whose utility after is ``worse`` than
        before, with each side's ``_bundle_sums``.  Agent i's utilities are
        a/t after and b/s before, for scaled sums a, b and positive row
        scales t, s, so ``worse(a * s, b * t)`` decides the agent exactly,
        even where ``add_item`` rescaled the row, without a Fraction."""
        modified = self.perturb(base, *args)
        before = _bundle_sums(base, rule.run(base))
        after = _bundle_sums(modified, rule.run(modified))
        (b, s), (a, t), worse = before, after, self.worse
        tracked = (args[0],) if self.boosts_first else range(base.n)
        return tuple(i for i in tracked if worse(a[i] * s[i], b[i] * t[i])), before, after

    def report(self, rule: Rule, base: Instance, args: tuple, decision: tuple) -> MonotonicityReport:
        """The ``MonotonicityReport`` of ``decide(rule, base, *args)``'s
        result: every agent's utility before, and every original agent's after."""
        violators, (b, s), (a, t) = decision
        n = base.n
        return MonotonicityReport(
            self.kind, rule.name, tuple(map(Fraction, b, s)), tuple(map(Fraction, a[:n], t[:n])),
            bool(violators), violators, args[0] if self.boosts_first else None,
        )

    def compare(self, rule: Rule, base: Instance, *args) -> MonotonicityReport:
        """Run the rule before and after perturbing ``base`` by ``args``; a
        tracked agent whose utility after is ``worse`` than before is a violator."""
        return self.report(rule, base, args, self.decide(rule, base, *args))


def _draws(rng: random.Random, count: int) -> list[Fraction]:
    return [_DRAWN[rng.randint(0, MAX_DRAW)] for _ in range(count)]


def _draw_weight(rng: random.Random, base: Instance) -> tuple[int, Fraction]:
    agent = rng.randrange(base.n)
    return agent, base.weights[agent] + rng.randint(1, MAX_DRAW)


PERTURBATIONS = {p.kind: p for p in (
    Perturbation(
        "resource", Instance.add_item, ("utilities",),
        lambda rng, base: (_draws(rng, base.n),), operator.lt,
    ),
    Perturbation(
        "population", Instance.add_agent, ("weight", "utilities"),
        lambda rng, base: (_DRAWN[rng.randint(1, MAX_DRAW)], _draws(rng, base.m)), operator.gt,
    ),
    Perturbation(
        "weight", _raise_weight, ("agent", "weight"), _draw_weight, operator.lt, boosts_first=True
    ),
)}
MONOTONICITY_KINDS = tuple(PERTURBATIONS)


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
    positions, then trim back to length m".  A new agent has no turn in
    pi_n, so one that has is refused.
    """
    base = turns_of(pi_n)
    grown = turns_of(pi_n1)
    if len(base) != len(grown):
        raise ValueError("population consistency compares sequences of equal length")
    if new_agent in base:
        raise ValueError("population consistency needs a new agent with no turn in the base sequence")
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
    n: int | None = None,
) -> Instance:
    """Small random instance with integer weights and utilities.

    Integer-valued randomness keeps ties frequent, which is what stresses
    the tie-breaking rules.  The drawn ints are the instance's integer view.
    """
    if n is None:
        n = rng.randint(min_n, max_n)
    m = rng.randint(1, max_m)
    weights = random_weights(rng, n)
    rows = tuple(tuple(rng.randint(0, MAX_DRAW) for _ in range(m)) for _ in range(n))
    return Instance._derived(
        tuple(map(_DRAWN.__getitem__, weights)),
        tuple(tuple(map(_DRAWN.__getitem__, row)) for row in rows),
        scaled_weights=weights, scaled_utilities=((1,) * n, rows),
    )


def random_weights(rng: random.Random, n: int) -> tuple[int, ...]:
    """Integer weights: a tuple of ints is its own ``core.integer_weights``
    scaling, so the generators and the sequence checks take it as it is."""
    return tuple(rng.randint(1, MAX_DRAW) for _ in range(n))


def scan(
    rule: Rule,
    property: str,
    max_n: int = 3,
    max_m: int = 8,
    trials: int = 2000,
    seed: int = 0,
) -> ScanReport | None:
    """Search seeded random instances for a violation of the property.

    Fairness properties of sequence-based rules are tested on the sequence
    itself (a utility-profile-independent certificate); a failure is
    reported together with the 0/1 instance that realizes it as a concrete
    allocation.  Allocation rules and monotonicity properties run the rule
    directly.  Returns the first violation, or None.
    """
    rng = random.Random(seed)
    is_fairness = property in NOTIONS
    entry = PERTURBATIONS.get(property)
    if not is_fairness and entry is None:
        raise ValueError(f"unknown scan property {property!r}")
    for name, value in (("trials", trials), ("max_n", max_n), ("max_m", max_m)):
        if value < 1:
            raise ValueError(f"scan needs {name} >= 1, got {value}")
    fixed_n = rule.agents
    if fixed_n is not None and (property == "population" or max_n < fixed_n):
        raise ValueError(f"rule {rule.name} runs on exactly {fixed_n} agents: scan it with "
                         f"max_n >= {fixed_n} on a property other than population")
    min_n = 2 if max_n >= 2 else 1
    found = partial(ScanReport, rule.name, property, seed, trials, max_n, max_m)

    for trial in range(trials):
        if is_fairness and rule.sequence is not None:
            n = rng.randint(min_n, max_n)
            m = rng.randint(1, max_m)
            weights = random_weights(rng, n)
            seq = rule.sequence(n, m, weights)
            verdict = check_sequence(property, seq, weights)
            if not verdict.holds:
                bridge = zero_one_instance(weights, m, verdict.witness.prefix)
                return found(trial, bridge, sequence=seq, verdict=verdict)
            continue

        base = random_instance(rng, max_n, max_m, min_n=min_n, n=fixed_n)
        if is_fairness:
            verdict = check_allocation(property, base, rule.run(base))
            if not verdict.holds:
                return found(trial, base, verdict=verdict)
            continue

        args = entry.draw(rng, base)
        decision = entry.decide(rule, base, *args)
        if decision[0]:
            perturbation = {"kind": property, **dict(zip(entry.names, args))}
            report = entry.report(rule, base, args, decision)
            return found(trial, base, report=report, perturbation=perturbation)
    return None
