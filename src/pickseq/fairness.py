"""Fairness verifiers.

Allocation-level checks test the weighted envy/proportionality relaxations
directly on a concrete allocation.  Sequence-level checks decide whether a
picking sequence guarantees the notion for *every* additive utility
profile, via prefix pick-count conditions.  A false verdict always carries
a witness with both sides of the violated inequality as exact rationals.

Notions:

* wef1   -- weighted envy-freeness up to one item,
* wwef1  -- its weak variant (removal from the envied bundle or a
            hypothetical copy added to one's own),
* wprop1 -- weighted proportionality up to one item.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import Allocation, Instance, PickingSequence, bundle_utility, integer_weights, turns_of
from .methods import DivisorFunction

NOTIONS = ("wef1", "wwef1", "wprop1")


@dataclass(frozen=True)
class Witness:
    """The decisive violation: lhs < rhs re-evaluates to a strict failure."""

    lhs: Fraction
    rhs: Fraction
    agent: int | None = None       # envying / short-changed agent i
    against: int | None = None     # envied agent j, when the notion is pairwise
    prefix: int | None = None      # prefix length k for sequence-level checks
    removed: frozenset[int] | None = None  # the removal set B, allocation-level
    t: int | None = None           # failing t for divisor-condition checks


@dataclass(frozen=True)
class FairnessVerdict:
    notion: str
    holds: bool
    witness: Witness | None = None

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a passing verdict carries no witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")


def _check_notion(notion: str) -> str:
    if notion not in NOTIONS:
        raise ValueError(f"unknown fairness notion {notion!r}; pick one of {NOTIONS}")
    return notion


def check_allocation(
    notion: str, instance: Instance, allocation: Allocation
) -> FairnessVerdict:
    """Decide the notion for one concrete allocation.  Exact throughout.

    For the envy notions the removal set B is the single item of the
    envied bundle that the envier values most; under additive utilities
    removing (or hypothetically adding) that item is optimal, so no subset
    enumeration is needed.
    """
    _check_notion(notion)
    allocation.validate_for(instance)
    n = instance.n
    own = [bundle_utility(instance, i, allocation.bundles[i]) for i in range(n)]

    if notion == "wprop1":
        everything = frozenset(range(instance.m))
        for i in range(n):
            share = instance.weights[i] / instance.total_weight
            outside = everything - allocation.bundles[i]
            best_outside = max(
                (instance.utilities[i][g] for g in outside), default=Fraction(0)
            )
            rhs = share * bundle_utility(instance, i, everything) - best_outside
            if own[i] < rhs:
                return FairnessVerdict(
                    notion, False, Witness(lhs=own[i], rhs=rhs, agent=i)
                )
        return FairnessVerdict(notion, True)

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bundle_j = allocation.bundles[j]
            their = bundle_utility(instance, i, bundle_j)
            best = max(
                (g for g in bundle_j),
                key=lambda g: (instance.utilities[i][g], -g),
                default=None,
            )
            removed = frozenset() if best is None else frozenset({best})
            drop = instance.utilities[i][best] if best is not None else Fraction(0)
            lhs = own[i] / instance.weights[i]
            rhs = (their - drop) / instance.weights[j]
            if lhs >= rhs:
                continue
            if notion == "wwef1":
                # hypothetically add the same item to i's own bundle instead
                if (own[i] + drop) / instance.weights[i] >= their / instance.weights[j]:
                    continue
                rhs = their / instance.weights[j]
                lhs = (own[i] + drop) / instance.weights[i]
            return FairnessVerdict(
                notion,
                False,
                Witness(lhs=lhs, rhs=rhs, agent=i, against=j, removed=removed),
            )
    return FairnessVerdict(notion, True)


def check_sequence(
    notion: str, sequence: PickingSequence | Iterable[int], weights: Sequence
) -> FairnessVerdict:
    """Decide whether the sequence guarantees the notion for every profile.

    wef1:    every prefix, every pair with t_j >= 2:  t_i/(t_j-1) >= w_i/w_j.
    wwef1:   same prefixes/pairs, both gated conditions:
             t_i/(t_j-1) >= w_i/w_j when w_i >= w_j, and
             (t_i+1)/t_j >= w_i/w_j when w_i <= w_j.
    wprop1:  every prefix of length k, every agent:  t_i >= k*w_i/sum(w) - 1.

    The witness is the lowest failing prefix, then lowest i, then lowest j.
    Each prefix costs O(n) integer cross-multiplications: a pick by j can
    newly fail only the envy pairs (i, j), since it raises t_j alone.
    """
    _check_notion(notion)
    turns = turns_of(sequence)
    scaled = integer_weights(weights)
    n, total = len(scaled), sum(scaled)
    if any(not 0 <= a < n for a in turns):
        raise ValueError("sequence references an agent with no weight")

    counts = [0] * n
    for k, j in enumerate(turns, start=1):
        counts[j] += 1
        if notion == "wprop1":
            for i in range(n):
                if (counts[i] + 1) * total < k * scaled[i]:
                    rhs = Fraction(k * scaled[i], total) - 1
                    return FairnessVerdict(
                        notion, False, Witness(lhs=Fraction(counts[i]), rhs=rhs, agent=i, prefix=k)
                    )
            continue
        t_j, w_j = counts[j], scaled[j]
        if t_j < 2:
            continue
        for i in range(n):
            if i == j:
                continue
            t_i, w_i = counts[i], scaled[i]
            if (notion == "wef1" or w_i >= w_j) and t_i * w_j < w_i * (t_j - 1):
                lhs = Fraction(t_i, t_j - 1)
            elif notion == "wwef1" and w_i <= w_j and (t_i + 1) * w_j < w_i * t_j:
                lhs = Fraction(t_i + 1, t_j)
            else:
                continue
            return FairnessVerdict(
                notion,
                False,
                Witness(lhs=lhs, rhs=Fraction(w_i, w_j), agent=i, against=j, prefix=k),
            )
    return FairnessVerdict(notion, True)


def divisor_wwef1_condition(f: DivisorFunction, t_max: int) -> FairnessVerdict:
    """Check  t/(t+1) <= f(t)/f(t+1) <= (t+1)/(t+2)  exactly for t = 0..t_max.

    This single-variable condition characterizes the divisor functions
    whose picking sequences guarantee wwef1.  Both inequalities are decided
    in integers on f's order form, or on its keys when it has none.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")

    def ratio(t: int) -> Fraction:
        # f(t)/f(t+1); every function family that can fail here is rational
        num, den = f.rational_value(t), f.rational_value(t + 1)
        assert num is not None and den is not None and den > 0
        return num / den

    def exceeds(c1: int, s1: int, form1, c2: int, s2: int, form2) -> bool:
        """c1*f(s1) > c2*f(s2) for positive integers c1, c2."""
        if form1 is None or form2 is None:
            return f.key(s1, Fraction(1, c1)) > f.key(s2, Fraction(1, c2))
        (n1, d1, e), (n2, d2, _) = form1, form2
        if n1 == 0 or n2 == 0:
            return n2 == 0 and n1 != 0
        if e > 0:
            return n1 * d2 * c1**e > n2 * d1 * c2**e
        return n1 * d2 * c2**-e < n2 * d1 * c1**-e

    current = f.order_form(0)
    for t in range(t_max + 1):
        following = f.order_form(t + 1)
        # left:  t * f(t+1) <= (t+1) * f(t), which holds trivially at t = 0
        if t > 0 and exceeds(t, t + 1, following, t + 1, t, current):
            return FairnessVerdict(
                "wwef1",
                False,
                Witness(lhs=ratio(t), rhs=Fraction(t, t + 1), t=t),
            )
        # right: (t+2) * f(t) <= (t+1) * f(t+1)
        if exceeds(t + 2, t, current, t + 1, t + 1, following):
            return FairnessVerdict(
                "wwef1",
                False,
                Witness(lhs=Fraction(t + 1, t + 2), rhs=ratio(t), t=t),
            )
        current = following
    return FairnessVerdict("wwef1", True)


def check_quota_bounds(
    sequence: PickingSequence | Iterable[int],
    weights: Sequence,
    mode: str = "full",
    bound: str = "both",
) -> FairnessVerdict:
    """Check the floor/ceiling pick-count bounds of the quota axiom.

    bound='lower' tests t_i >= floor(w_i*m / sum(w)); bound='both' adds
    t_i <= ceil(w_i*m / sum(w)).  mode='every-prefix' applies the test to
    all prefixes, mode='full' only to the whole sequence.
    """
    if mode not in ("full", "every-prefix"):
        raise ValueError("mode must be 'full' or 'every-prefix'")
    if bound not in ("lower", "both"):
        raise ValueError("bound must be 'lower' or 'both'")
    turns = turns_of(sequence)
    scaled = integer_weights(weights)
    n, total, m = len(scaled), sum(scaled), len(turns)

    prefixes = range(1, m + 1) if mode == "every-prefix" else (m,)
    counts = [0] * n
    done = 0
    for k in prefixes:
        while done < k:
            counts[turns[done]] += 1
            done += 1
        for i in range(n):
            floor_q, remainder = divmod(k * scaled[i], total)
            if counts[i] < floor_q:
                return FairnessVerdict(
                    "quota",
                    False,
                    Witness(lhs=Fraction(counts[i]), rhs=Fraction(floor_q), agent=i, prefix=k),
                )
            if bound == "both":
                ceil_q = floor_q + (remainder > 0)
                if counts[i] > ceil_q:
                    return FairnessVerdict(
                        "quota",
                        False,
                        Witness(lhs=Fraction(ceil_q), rhs=Fraction(counts[i]), agent=i, prefix=k),
                    )
    return FairnessVerdict("quota", True)


def zero_one_instance(weights: Sequence, m: int, k: int) -> Instance:
    """All agents value the first k of m items at 1 and the rest at 0.

    This is the profile that converts a sequence-level failure at prefix k
    into a concrete allocation-level violation.
    """
    ws = tuple(Fraction(w) for w in weights)
    row = tuple(Fraction(1) if j < k else Fraction(0) for j in range(m))
    return Instance(ws, tuple(row for _ in ws))
