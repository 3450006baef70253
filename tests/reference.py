"""Reference generators, verifiers and solvers: the direct, unoptimized forms.

These are the per-kind divisor values and order forms that the family
table replaced, the per-kind score comparison, the O(n) argmin per turn, and
the O(n^2) Fraction scan per prefix that the library replaced with order
keys, a heap and incremental integer checks; and the Fraction forms of
truthful picking, the allocation verifiers, the envy graph and the MWNW
search that the library replaced with integer-scaled utility rows (the
search ranks its leaves by its own order, not by ``mwnw.WelfareScore``,
and scales the weights to its exponents itself, not by
``core.integer_weights``);
and the three separate Fraction bodies of the monotonicity comparisons
that ``harness.Perturbation`` merged into its one integer ``decide``.  The
differential tests require the library to agree with them exactly,
witnesses and reports included.
"""

from __future__ import annotations

import math
from fractions import Fraction

from pickseq.core import (
    Allocation, Instance, PickingSequence, _as_rational, allocation_utilities, bundle_utility,
)
from pickseq.fairness import FairnessVerdict, Witness
from pickseq.harness import MonotonicityReport
from pickseq.methods import DivisorFunction, PrecisionError, Rule


def _sign(q) -> int:
    return (q > 0) - (q < 0)


def rational_value(f: DivisorFunction, t: int) -> Fraction | None:
    """f(t) as an exact rational, or None when f(t) is irrational: the
    per-kind form that ``DIVISOR_FAMILIES`` replaced."""
    if t < 0:
        raise ValueError("divisor functions are defined for t >= 0")
    if f.kind == "adams":
        return Fraction(t)
    if f.kind == "jefferson":
        return Fraction(t + 1)
    if f.kind == "webster":
        return Fraction(2 * t + 1, 2)
    if f.kind == "dean":
        return Fraction(2 * t * (t + 1), 2 * t + 1)
    if f.kind == "stationary":
        return t + f.c
    if f.kind == "custom":
        if t < len(f.table):
            value = f.table[t]
        elif f.tail_offset is not None:
            value = t + f.tail_offset
        else:
            raise ValueError(f"custom divisor table covers t < {len(f.table)}; got t={t}")
        if not t <= value <= t + 1:
            raise ValueError(f"custom divisor violates t <= f(t) <= t+1 at t={t}")
        return value
    if f.kind == "hill":
        return Fraction(0) if t == 0 else None
    if f.kind == "powermean":
        if t == 0 and f.p <= 0:
            return Fraction(0)
        if f.p == 1 or f.w in (0, 1):
            return t + 1 - f.w
        return None
    raise AssertionError(f.kind)


def order_form(f: DivisorFunction, t: int) -> tuple[int, int, int] | None:
    """(num, den, e) with num/den = f(t)^e, per kind, as before the table."""
    if f.kind == "hill":
        return t * (t + 1), 1, 2
    if f.kind == "powermean" and 0 < f.w < 1 and f.p != 1:
        a, q = f.w.numerator, f.w.denominator
        if f.p == 0:
            return t**a * (t + 1) ** (q - a), 1, q
        if f.p.denominator == 1:
            k = f.p.numerator
            if k > 0:
                return a * t**k + (q - a) * (t + 1) ** k, q, k
            if t == 0:
                return 0, 1, k
            return a * (t + 1) ** -k + (q - a) * t**-k, q * (t * (t + 1)) ** -k, k
    value = rational_value(f, t)
    if value is None:
        return None
    return value.numerator, value.denominator, 1


def _is_zero_at(f: DivisorFunction, t: int) -> bool:
    value = rational_value(f, t)
    return value is not None and value == 0


def compare_products(f: DivisorFunction, c1: Fraction, t1: int, c2: Fraction, t2: int) -> int:
    """Sign of c1*f(t1) - c2*f(t2) for non-negative rational c1, c2."""
    left_zero = c1 == 0 or _is_zero_at(f, t1)
    right_zero = c2 == 0 or _is_zero_at(f, t2)
    if left_zero or right_zero:
        if left_zero and right_zero:
            return 0
        return -1 if left_zero else 1
    v1, v2 = rational_value(f, t1), rational_value(f, t2)
    if v1 is not None and v2 is not None:
        return _sign(c1 * v1 - c2 * v2)
    if f.kind == "hill":
        return _sign(c1 * c1 * t1 * (t1 + 1) - c2 * c2 * t2 * (t2 + 1))
    p, w = f.p, f.w
    if p != 0 and p.denominator == 1:
        k = p.numerator
        g1 = w * Fraction(t1) ** k + (1 - w) * Fraction(t1 + 1) ** k
        g2 = w * Fraction(t2) ** k + (1 - w) * Fraction(t2 + 1) ** k
        sign = _sign(c1**k * g1 - c2**k * g2)
        return sign if k > 0 else -sign
    if p == 0:
        a, q = w.numerator, w.denominator
        lhs = c1**q * Fraction(t1) ** a * Fraction(t1 + 1) ** (q - a)
        rhs = c2**q * Fraction(t2) ** a * Fraction(t2 + 1) ** (q - a)
        return _sign(lhs - rhs)
    raise PrecisionError(f.name)


def compare_scores(f: DivisorFunction, t_a: int, w_a, t_b: int, w_b) -> int:
    return compare_products(f, 1 / Fraction(w_a), t_a, 1 / Fraction(w_b), t_b)


def divisor_sequence(f: DivisorFunction, n: int, m: int, weights) -> PickingSequence:
    ws = tuple(Fraction(w) for w in weights)
    counts = [0] * n
    turns = []
    for _ in range(m):
        best = 0
        for i in range(1, n):
            if compare_scores(f, counts[i], ws[i], counts[best], ws[best]) < 0:
                best = i
        turns.append(best)
        counts[best] += 1
    return PickingSequence(tuple(turns))


def quota_sequence(n: int, m: int, weights) -> PickingSequence:
    ws = tuple(Fraction(w) for w in weights)
    total = sum(ws, Fraction(0))
    counts = [0] * n
    turns = []
    for k in range(1, m + 1):
        eligible = [i for i in range(n) if counts[i] < Fraction(k) * ws[i] / total]
        best = eligible[0]
        for i in eligible[1:]:
            if Fraction(counts[i] + 1) / ws[i] < Fraction(counts[best] + 1) / ws[best]:
                best = i
        turns.append(best)
        counts[best] += 1
    return PickingSequence(tuple(turns))


def check_sequence(notion: str, turns, weights) -> FairnessVerdict:
    ws = tuple(Fraction(w) for w in weights)
    n = len(ws)
    total = sum(ws, Fraction(0))
    counts = [0] * n
    for k, picker in enumerate(turns, start=1):
        counts[picker] += 1
        if notion == "wprop1":
            for i in range(n):
                bound = Fraction(k) * ws[i] / total - 1
                if counts[i] < bound:
                    return FairnessVerdict(
                        notion, False,
                        Witness(lhs=Fraction(counts[i]), rhs=bound, agent=i, prefix=k),
                    )
            continue
        for i in range(n):
            for j in range(n):
                if i == j or counts[j] < 2:
                    continue
                ratio = ws[i] / ws[j]
                if notion == "wef1" or ws[i] >= ws[j]:
                    lhs = Fraction(counts[i], counts[j] - 1)
                    if lhs < ratio:
                        return FairnessVerdict(
                            notion, False,
                            Witness(lhs=lhs, rhs=ratio, agent=i, against=j, prefix=k),
                        )
                if notion == "wwef1" and ws[i] <= ws[j]:
                    lhs = Fraction(counts[i] + 1, counts[j])
                    if lhs < ratio:
                        return FairnessVerdict(
                            notion, False,
                            Witness(lhs=lhs, rhs=ratio, agent=i, against=j, prefix=k),
                        )
    return FairnessVerdict(notion, True)


def check_quota_bounds(turns, weights, mode: str, bound: str) -> FairnessVerdict:
    ws = tuple(Fraction(w) for w in weights)
    n = len(ws)
    total = sum(ws, Fraction(0))
    m = len(turns)
    prefixes = range(1, m + 1) if mode == "every-prefix" else (m,)
    for k in prefixes:
        counts = [0] * n
        for a in turns[:k]:
            counts[a] += 1
        for i in range(n):
            quota = Fraction(k) * ws[i] / total
            if counts[i] < math.floor(quota):
                return FairnessVerdict(
                    "quota", False,
                    Witness(lhs=Fraction(counts[i]), rhs=Fraction(math.floor(quota)), agent=i, prefix=k),
                )
            if bound == "both" and counts[i] > math.ceil(quota):
                return FairnessVerdict(
                    "quota", False,
                    Witness(lhs=Fraction(math.ceil(quota)), rhs=Fraction(counts[i]), agent=i, prefix=k),
                )
    return FairnessVerdict("quota", True)


def divisor_wwef1_condition(f: DivisorFunction, t_max: int) -> FairnessVerdict:
    def ratio(t):
        return rational_value(f, t) / rational_value(f, t + 1)

    for t in range(t_max + 1):
        if compare_products(f, Fraction(t), t + 1, Fraction(t + 1), t) > 0:
            return FairnessVerdict("wwef1", False, Witness(lhs=ratio(t), rhs=Fraction(t, t + 1), t=t))
        if compare_products(f, Fraction(t + 2), t, Fraction(t + 1), t + 1) > 0:
            return FairnessVerdict("wwef1", False, Witness(lhs=Fraction(t + 1, t + 2), rhs=ratio(t), t=t))
    return FairnessVerdict("wwef1", True)


def execute(instance: Instance, turns) -> Allocation:
    remaining = list(range(instance.m))
    bundles = [set() for _ in range(instance.n)]
    for agent in turns:
        row = instance.utilities[agent]
        pick = remaining[0]
        for g in remaining[1:]:
            if row[g] > row[pick]:
                pick = g
        bundles[agent].add(pick)
        remaining.remove(pick)
    return Allocation(tuple(frozenset(b) for b in bundles))


def envy_edges(instance: Instance, bundles) -> list[list[bool]]:
    n = instance.n
    own = [bundle_utility(instance, i, bundles[i]) for i in range(n)]
    edges = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and bundle_utility(instance, i, bundles[j]) > own[i]:
                edges[i][j] = True
    return edges


def check_allocation(notion: str, instance: Instance, allocation: Allocation) -> FairnessVerdict:
    n = instance.n
    own = [bundle_utility(instance, i, allocation.bundles[i]) for i in range(n)]
    if notion == "wprop1":
        everything = frozenset(range(instance.m))
        for i in range(n):
            share = instance.weights[i] / sum(instance.weights, Fraction(0))
            outside = everything - allocation.bundles[i]
            best_outside = max((instance.utilities[i][g] for g in outside), default=Fraction(0))
            rhs = share * bundle_utility(instance, i, everything) - best_outside
            if own[i] < rhs:
                return FairnessVerdict(notion, False, Witness(lhs=own[i], rhs=rhs, agent=i))
        return FairnessVerdict(notion, True)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bundle_j = allocation.bundles[j]
            their = bundle_utility(instance, i, bundle_j)
            best = max(bundle_j, key=lambda g: (instance.utilities[i][g], -g), default=None)
            removed = frozenset() if best is None else frozenset({best})
            drop = instance.utilities[i][best] if best is not None else Fraction(0)
            lhs = own[i] / instance.weights[i]
            rhs = (their - drop) / instance.weights[j]
            if lhs >= rhs:
                continue
            if notion == "wwef1":
                if (own[i] + drop) / instance.weights[i] >= their / instance.weights[j]:
                    continue
                rhs = their / instance.weights[j]
                lhs = (own[i] + drop) / instance.weights[i]
            return FairnessVerdict(
                notion, False, Witness(lhs=lhs, rhs=rhs, agent=i, against=j, removed=removed)
            )
    return FairnessVerdict(notion, True)


def welfare_rank(n: int, utilities, exponents) -> tuple:
    """The rank of one allocation's utilities, larger is better: the size of
    the positive-utility support, then at equal size the lexicographically
    smaller sorted support (each index negated, so that smaller ranks
    higher), then the Fraction product over the support."""
    support = tuple(i for i in range(n) if utilities[i] > 0)
    product = Fraction(1)
    for i in support:
        product *= utilities[i] ** exponents[i]
    return len(support), tuple(-i for i in support), product


def weight_exponents(weights) -> tuple[int, ...]:
    """The Fraction weights as the smallest proportional integers: times
    the lcm of their denominators, then divided by the gcd of the products."""
    scale = math.lcm(*(w.denominator for w in weights))
    scaled = [int(w * scale) for w in weights]
    shrink = math.gcd(*scaled)
    return tuple(e // shrink for e in scaled)


def mwnw_solve(instance: Instance, prune: bool = True) -> Allocation:
    """Lexicographic DFS over Fraction utilities, one ``welfare_rank`` per leaf."""
    n, m = instance.n, instance.m
    exponents = weight_exponents(instance.weights)
    utilities = instance.utilities
    rest = [[Fraction(0)] * n for _ in range(m + 1)]
    for j in range(m - 1, -1, -1):
        for i in range(n):
            rest[j][i] = rest[j + 1][i] + utilities[i][j]
    best_assign = None
    best_rank = None
    current = [Fraction(0)] * n
    assign = [0] * m

    def recurse(j: int) -> None:
        nonlocal best_assign, best_rank
        if j == m:
            cand = welfare_rank(n, current, exponents)
            if best_rank is None or cand > best_rank:
                best_rank = cand
                best_assign = assign.copy()
            return
        if prune and best_rank is not None and best_rank[0] == n:
            bound = Fraction(1)
            for i in range(n):
                reach = current[i] + rest[j][i]
                if reach == 0:
                    bound = Fraction(0)
                    break
                bound *= reach ** exponents[i]
            if bound <= best_rank[2]:
                return
        for a in range(n):
            assign[j] = a
            current[a] += utilities[a][j]
            recurse(j + 1)
            current[a] -= utilities[a][j]

    recurse(0)
    bundles = [set() for _ in range(n)]
    for j, a in enumerate(best_assign):
        bundles[a].add(j)
    return Allocation(tuple(frozenset(b) for b in bundles))


def compare_resource(rule: Rule, base: Instance, extra_item_utilities) -> MonotonicityReport:
    modified = base.add_item(extra_item_utilities)
    before = allocation_utilities(base, rule.run(base))
    after_all = allocation_utilities(modified, rule.run(modified))
    after = after_all[: base.n]
    violators = tuple(i for i in range(base.n) if after[i] < before[i])
    return MonotonicityReport("resource", rule.name, before, after, bool(violators), violators)


def compare_population(rule: Rule, base: Instance, new_weight, new_utilities) -> MonotonicityReport:
    modified = base.add_agent(new_weight, new_utilities)
    before = allocation_utilities(base, rule.run(base))
    after = allocation_utilities(modified, rule.run(modified))[: base.n]
    violators = tuple(i for i in range(base.n) if after[i] > before[i])
    return MonotonicityReport("population", rule.name, before, after, bool(violators), violators)


def compare_weight(rule: Rule, base: Instance, agent: int, new_weight) -> MonotonicityReport:
    new_weight = _as_rational(new_weight)
    if not 0 <= agent < base.n:
        raise ValueError(f"agent index {agent} out of range")
    if new_weight <= base.weights[agent]:
        raise ValueError("weight-monotonicity perturbations must increase the weight")
    modified = base.replace_weight(agent, new_weight)
    before = allocation_utilities(base, rule.run(base))
    after = allocation_utilities(modified, rule.run(modified))
    violated = after[agent] < before[agent]
    violators = (agent,) if violated else ()
    return MonotonicityReport(
        "weight", rule.name, before, after, violated, violators, boosted_agent=agent
    )
