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
    agents_in_range,
    bundle_values,
    integer_weights,
    turns_of,
)
from .methods import DivisorFunction, compare_forms, exact_form

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


class _BundleValues:
    """What the allocation checks read of one allocation on one instance.

    ``owns`` lists each agent's scaled value for her own bundle: all that
    WPROP1 reads of the bundles.  ``envy[i]`` lists the bundles agent i
    envies outright, in index order, as (j, value of bundle j, value of its
    most valued item), all on row i: what WEF1 and WWEF1 read.  The table
    is built whole when it is made, from ``core.bundle_values``, which sums
    each bundle for every agent at once; the most valued item is read off
    row i only for a bundle that agent i envies.
    """

    __slots__ = ("allocation", "owns", "envy")

    def __init__(self, instance: Instance, allocation: Allocation):
        allocation.validate_for(instance)
        self.allocation = allocation
        bundles = allocation.bundles
        rows, weights = instance.scaled_utilities[1], instance.scaled_weights
        self.owns: list[int] = []
        self.envy: list[list[tuple[int, int, int]]] = []
        for i, (values, row, w_i) in enumerate(zip(bundle_values(instance, bundles), rows, weights)):
            own = values[i]
            self.owns.append(own)
            # outright envy: never so for j == i or an empty bundle j
            self.envy.append([(j, their, max(map(row.__getitem__, bundles[j])))
                              for j, their in enumerate(values) if own * weights[j] < their * w_i])


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
    i's scaled by s_i) and the instance's ``scaled_weights``.  Every agent's
    value of every bundle comes from one ``core.bundle_values`` call, which
    sums each bundle's columns of ``Instance.scaled_columns``.  The
    instance keeps these bundle values for the allocation object it was
    last checked with, so checking several notions on one allocation
    validates it and reads its bundles once: WPROP1 reads each agent's own
    value, and WEF1 and WWEF1 walk only the pairs (i, j) where i envies j
    outright, with the value of the item of bundle j that i values most.
    That item's index is looked for only for the witness.  WPROP1's best
    item outside agent i's bundle is the first of her ``preference_orders``
    not in it.  The witness divides back by s_i and the weights.
    """
    _check_notion(notion)
    table = instance._allocation_table
    if table is None or table.allocation is not allocation:
        # the allocation is validated once per table
        table = instance.__dict__["_allocation_table"] = _BundleValues(instance, allocation)
    scales, rows = instance.scaled_utilities
    weights = instance.scaled_weights
    bundles = allocation.bundles

    if notion == "wprop1":
        total_weight = sum(weights)
        for i, (row, order, own) in enumerate(zip(rows, instance.preference_orders, table.owns)):
            mine = bundles[i]
            best_outside = next((row[g] for g in order if g not in mine), 0)
            # own < w_i/W * everything - best_outside, times s_i * W
            rhs = weights[i] * sum(row) - best_outside * total_weight
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

    for i, (row, w_i, own) in enumerate(zip(rows, weights, table.owns)):
        for j, their, drop in table.envy[i]:
            w_j = weights[j]
            # own/w_i >= (their - drop)/w_j, times s_i and the weights' scale
            if own * w_j >= (their - drop) * w_i:
                continue
            lhs_num, rhs_num = own, their - drop
            if notion == "wwef1":
                # hypothetically add the same item to i's own bundle instead
                if (own + drop) * w_j >= their * w_i:
                    continue
                lhs_num, rhs_num = own + drop, their
            # the item of bundle j agent i values most, ties to the lowest index
            best = max(sorted(bundles[j]), key=row.__getitem__)
            return FairnessVerdict(
                notion,
                False,
                Witness(
                    lhs=Fraction(lhs_num, scales[i]) / instance.weights[i],
                    rhs=Fraction(rhs_num, scales[i]) / instance.weights[j],
                    agent=i,
                    against=j,
                    removed=frozenset({best}),
                ),
            )
    return FairnessVerdict(notion, True)


def _first_due_prefix(
    turns: Sequence[int], scaled: Sequence[int], strict: bool, upper: bool = False
) -> tuple[int, list[int]] | None:
    """The first prefix length k at which some agent is due, with the pick
    counts there, or None when no agent ever is.

    Agent i holding t_i picks is due at the least k with
    k*w_i > (t_i+1)*sum(w), or k*w_i >= (t_i+1)*sum(w) when not ``strict``.
    That deadline moves only when agent i picks, and only later, so each
    prefix costs one update, and a ``min`` only once k reaches the soonest
    deadline last seen.  With ``upper``, the agent j who just picked is also
    due once (t_j-1)*sum(w) >= k*w_j.
    """
    total, shift = sum(scaled), 0 if strict else 1
    counts = [0] * len(scaled)
    deadline = [(total - shift) // w + 1 for w in scaled]
    soonest = 0  # a lower bound on every deadline
    for k, j in enumerate(turns, start=1):
        t = counts[j] = counts[j] + 1
        deadline[j] = ((t + 1) * total - shift) // scaled[j] + 1
        if k >= soonest:
            soonest = min(deadline)
        if k >= soonest or upper and (t - 1) * total >= k * scaled[j]:
            return k, counts
    return None


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
    For wef1 and wwef1 each prefix costs O(n) integer cross-multiplications:
    a pick by j can newly fail only the envy pairs (i, j).  The weight gates
    are applied once per agent j, at its second pick, which lists the
    agents tested on each condition; each later pick by j loops over its
    lists with no gate test, and the scan of every pair in index order runs
    only at the first failing prefix, for the witness.  For wprop1 the
    agents are scanned only at the first prefix that reaches a deadline,
    floor((t_i+1)*sum(w)/w_i) + 1 for agent i holding t_i picks.
    """
    _check_notion(notion)
    turns = turns_of(sequence)
    scaled = integer_weights(weights)
    n, total = len(scaled), sum(scaled)
    if not agents_in_range(turns, n):
        raise ValueError("sequence references an agent with no weight")

    if notion == "wprop1":
        found = _first_due_prefix(turns, scaled, strict=True)
        if found is not None:
            k, counts = found
            for i in range(n):
                if (counts[i] + 1) * total < k * scaled[i]:
                    rhs = Fraction(k * scaled[i], total) - 1
                    return FairnessVerdict(
                        notion, False, Witness(lhs=Fraction(counts[i]), rhs=rhs, agent=i, prefix=k)
                    )
        return FairnessVerdict(notion, True)

    counts = [0] * n
    everyone = list(enumerate(scaled))
    # gates[j]: the agents (i, w_i) tested against j on t_i*w_j >= w_i*(t_j-1),
    # and those tested on (t_i+1)*w_j >= w_i*t_j, made at j's second pick.
    # wef1 tests everyone on the first: j itself passes both conditions
    gates: list = [None] * n
    for k, j in enumerate(turns, start=1):
        counts[j] += 1
        t_j = counts[j]
        if t_j < 2:
            continue
        w_j, t = scaled[j], t_j - 1
        gated = gates[j]
        if gated is None:
            gated = gates[j] = (everyone, ()) if notion == "wef1" else (
                [(i, w_i) for i, w_i in everyone if w_i >= w_j and i != j],
                [(i, w_i) for i, w_i in everyone if w_i <= w_j and i != j],
            )
        below, upper = gated
        for i, w_i in below:
            if counts[i] * w_j < w_i * t:
                return _envy_witness(notion, counts, scaled, j, k)
        for i, w_i in upper:
            if (counts[i] + 1) * w_j < w_i * t_j:
                return _envy_witness(notion, counts, scaled, j, k)
    return FairnessVerdict(notion, True)


def _envy_witness(
    notion: str, counts: list[int], scaled: Sequence[int], j: int, k: int
) -> FairnessVerdict:
    """The failing verdict of the first prefix k, at which j just picked and
    some pair (i, j) fails: the lowest such i, with the first condition
    before the second."""
    t_j, w_j = counts[j], scaled[j]
    for i, (t_i, w_i) in enumerate(zip(counts, scaled)):
        if i == j:
            continue
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
    raise AssertionError("a failing pair was found but not its witness")


def divisor_wwef1_condition(f: DivisorFunction, t_max: int) -> FairnessVerdict:
    """Check  t/(t+1) <= f(t)/f(t+1) <= (t+1)/(t+2)  exactly for t = 0..t_max.

    This single-variable condition characterizes the divisor functions
    whose picking sequences guarantee wwef1.  Both inequalities are decided
    in integers: c1*x1 > c2*x2 is x1/c2 > x2/c1, the comparison of two
    order forms (``methods.compare_forms``) that ``compare_scores`` makes;
    a family without an order form raises ``PrecisionError``.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")

    def ratio(t: int) -> Fraction:
        # f(t)/f(t+1); every function family that can fail here is rational
        num, den = f.rational_value(t), f.rational_value(t + 1)
        assert num is not None and den is not None and den > 0
        return num / den

    current = exact_form(f, 0)
    for t in range(t_max + 1):
        following = exact_form(f, t + 1)
        # left:  t * f(t+1) <= (t+1) * f(t), which holds trivially at t = 0
        if t > 0 and compare_forms(following, t + 1, current, t) > 0:
            return FairnessVerdict(
                "wwef1",
                False,
                Witness(lhs=ratio(t), rhs=Fraction(t, t + 1), t=t),
            )
        # right: (t+2) * f(t) <= (t+1) * f(t+1)
        if compare_forms(current, t + 1, following, t + 2) > 0:
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

    The witness is the lowest failing prefix, then the lowest agent, the
    lower bound before the upper.  Every prefix is checked without a scan
    of the agents: agent i holding t_i picks first breaks the lower bound at
    prefix ceil((t_i+1)*sum(w)/w_i), and only the agent j who just picked
    can newly break the upper one, when (t_j-1)*sum(w) >= k*w_j.
    """
    if mode not in ("full", "every-prefix"):
        raise ValueError("mode must be 'full' or 'every-prefix'")
    if bound not in ("lower", "both"):
        raise ValueError("bound must be 'lower' or 'both'")
    turns = turns_of(sequence)
    scaled = integer_weights(weights)
    n, total, m = len(scaled), sum(scaled), len(turns)
    if not agents_in_range(turns, n):
        raise ValueError("sequence references an agent with no weight")

    if mode == "full":
        k, counts = m, [0] * n
        for a in turns:
            counts[a] += 1
    else:
        found = _first_due_prefix(turns, scaled, strict=False, upper=bound == "both")
        if found is None:
            return FairnessVerdict("quota", True)
        k, counts = found
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
