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

from .core import (
    Allocation,
    Instance,
    PickingSequence,
    _as_rational,
    integer_weights,
    turns_of,
)
from .methods import DivisorFunction, PrecisionError, form_key

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

    Every inequality weighs agent i's values against agent i's values, so
    it is decided in integers: on the rows of ``scaled_utilities`` (agent
    i's scaled by s_i) and the instance's ``scaled_weights``, through one
    n x n table value[i][j] of agent i's scaled value for bundle j.  The
    witness divides back by s_i and the weights.
    """
    _check_notion(notion)
    allocation.validate_for(instance)
    scales, rows = instance.scaled_utilities
    weights = instance.scaled_weights
    bundles = [sorted(b) for b in allocation.bundles]
    value = [[sum(row[g] for g in b) for b in bundles] for row in rows]

    if notion == "wprop1":
        total_weight = sum(weights)
        for i, row in enumerate(rows):
            own, everything = value[i][i], sum(value[i])
            mine = allocation.bundles[i]
            best_outside = max((u for g, u in enumerate(row) if g not in mine), default=0)
            # own < w_i/W * everything - best_outside, times s_i * W
            rhs = weights[i] * everything - best_outside * total_weight
            if own * total_weight < rhs:
                return FairnessVerdict(
                    notion,
                    False,
                    Witness(
                        lhs=Fraction(own, scales[i]),
                        rhs=Fraction(rhs, scales[i] * total_weight),
                        agent=i,
                    ),
                )
        return FairnessVerdict(notion, True)

    for i, row in enumerate(rows):
        own, w_i = value[i][i], weights[i]
        for j, bundle_j in enumerate(bundles):
            if i == j:
                continue
            their, w_j = value[i][j], weights[j]
            # the item of bundle j agent i values most, ties to the lowest index
            best = max(bundle_j, key=row.__getitem__, default=None)
            removed = frozenset() if best is None else frozenset({best})
            drop = 0 if best is None else row[best]
            # own/w_i >= (their - drop)/w_j, times s_i and the weights' scale
            if own * w_j >= (their - drop) * w_i:
                continue
            lhs_num, rhs_num = own, their - drop
            if notion == "wwef1":
                # hypothetically add the same item to i's own bundle instead
                if (own + drop) * w_j >= their * w_i:
                    continue
                lhs_num, rhs_num = own + drop, their
            return FairnessVerdict(
                notion,
                False,
                Witness(
                    lhs=Fraction(lhs_num, scales[i]) / instance.weights[i],
                    rhs=Fraction(rhs_num, scales[i]) / instance.weights[j],
                    agent=i,
                    against=j,
                    removed=removed,
                ),
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
    in integers, by the order keys (``methods.form_key``) that the sequence
    generator compares; a family without an order form raises
    ``PrecisionError``.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")

    def ratio(t: int) -> Fraction:
        # f(t)/f(t+1); every function family that can fail here is rational
        num, den = f.rational_value(t), f.rational_value(t + 1)
        assert num is not None and den is not None and den > 0
        return num / den

    def exceeds(c1: int, form1, c2: int, form2) -> bool:
        """c1*x1 > c2*x2 for positive integers c1, c2, where form1 and form2
        are the order forms of the values x1 and x2 of f: x1/c2 > x2/c1."""
        if form1 is None or form2 is None:
            raise PrecisionError(f.name)
        return form_key(form2, c1) < form_key(form1, c2)

    current = f.order_form(0)
    for t in range(t_max + 1):
        following = f.order_form(t + 1)
        # left:  t * f(t+1) <= (t+1) * f(t), which holds trivially at t = 0
        if t > 0 and exceeds(t, following, t + 1, current):
            return FairnessVerdict(
                "wwef1",
                False,
                Witness(lhs=ratio(t), rhs=Fraction(t, t + 1), t=t),
            )
        # right: (t+2) * f(t) <= (t+1) * f(t+1)
        if exceeds(t + 2, current, t + 1, following):
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
    if any(not 0 <= a < n for a in turns):
        raise ValueError("sequence references an agent with no weight")

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
    ws = tuple(_as_rational(w) for w in weights)
    row = tuple(Fraction(1) if j < k else Fraction(0) for j in range(m))
    return Instance(ws, tuple(row for _ in ws))
