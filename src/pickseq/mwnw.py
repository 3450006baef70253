"""Exact maximum weighted Nash welfare by exhaustive enumeration.

The objective is the weighted product of bundle utilities.  Rational
weights are scaled to a common-denominator integer exponent vector e, and
the solver works on the integer rows of ``Instance.scaled_utilities``,
agent i's scaled by s_i.  Within one support S that scale multiplies every
product by the same constant, the product of s_i^e_i over S, so two
allocations with equal supports compare through exact big-integer products
of the scaled utilities; no logarithm and no Fraction enters the decision
path.  ``score`` and ``WelfareScore`` give the same order on the unscaled
Fraction values.

The products can be too large to form: weights 1/1000003 and 1/1000005
give exponents near 10^6.  Before the search, the solver bounds the size
of the largest product by the sum of e_i times the bit length of agent i's
total scaled utility, and refuses instances above ``MAX_PRODUCT_BITS``.

When no allocation can give every agent positive utility, the rule falls
back to the zero-welfare tie-breaking convention: prefer allocations whose
positive-utility support is largest, break support ties toward the
lexicographically smallest agent-index set, then maximize the product
restricted to that support.  Among exact score ties the solver returns the
allocation whose item-to-agent assignment vector is lexicographically
smallest, which makes every reported trace reproducible.  The pruned search
meets the leaves in another order than the lexicographic one, so it breaks
each tie by comparing the assignments themselves, read as base-n numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from operator import add, getitem, itemgetter
from typing import Sequence

from .core import Allocation, Instance, allocation_utilities, integer_weights

DEFAULT_BUDGET = 4_000_000
# One multiplication of two 10^6-bit integers takes about 0.1 s (CPython
# 3.11, 2-core x86-64 VM).  The largest size bound among the tests, the
# catalog and the benchmark is about 2 * 10^4 bits, and four-digit vote
# shares p/10000 at 4 agents x 7 items reach about 2 * 10^5.
MAX_PRODUCT_BITS = 1_000_000


class BudgetExceededError(RuntimeError):
    """The assignment space or the welfare products are too large to work
    through; use a smaller instance."""


def weight_exponents(weights: Sequence) -> tuple[int, ...]:
    """Scale rational weights to the smallest proportional integer vector:
    ``core.integer_weights`` divided by its gcd."""
    scaled = integer_weights(weights)
    shrink = gcd(*scaled)
    return tuple(e // shrink for e in scaled)


@dataclass(frozen=True)
class WelfareScore:
    """Comparable welfare of one allocation.

    ``support`` is the set of agents with positive utility; the score is
    positive iff the support covers all ``n`` agents.  ``product`` is the
    exact value of the weighted product restricted to the support, using
    the integer exponent vector.
    """

    n: int
    support: frozenset[int]
    utilities: tuple[Fraction, ...]
    exponents: tuple[int, ...]
    product: Fraction

    @property
    def is_positive(self) -> bool:
        return len(self.support) == self.n

    def compare(self, other: "WelfareScore") -> int:
        """-1, 0, or 1; the order maximized by the solver."""
        if self.n != other.n:
            raise ValueError("scores of different instances are not comparable")
        if len(self.support) != len(other.support):
            return 1 if len(self.support) > len(other.support) else -1
        if self.support != other.support:
            # equal size: the lexicographically smaller index set is preferred
            return 1 if sorted(self.support) < sorted(other.support) else -1
        if self.product != other.product:
            return 1 if self.product > other.product else -1
        return 0


def score(instance: Instance, allocation: Allocation) -> WelfareScore:
    """The comparable welfare score of an allocation."""
    utilities = allocation_utilities(instance, allocation)
    exponents = weight_exponents(instance.scaled_weights)
    support = frozenset(i for i in range(instance.n) if utilities[i] > 0)
    product = Fraction(1)
    for i in support:
        product *= utilities[i] ** exponents[i]
    return WelfareScore(instance.n, support, utilities, exponents, product)


class _Memo(dict):
    """A dict that fills a missing key with ``compute(key)``: once filled,
    ``map(operator.getitem, memos, keys)`` reads it without a Python call."""

    __slots__ = ("compute",)

    def __init__(self, compute) -> None:
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def solve(
    instance: Instance, budget: int = DEFAULT_BUDGET, prune: bool = True
) -> Allocation:
    """Return the maximum weighted Nash welfare allocation.

    Without ``prune``, enumerates all n^m item-to-agent assignments
    depth-first in lexicographic order, the referee of the pruned search.
    With ``prune``, the search takes the items in descending order of total
    scaled value and each item's valuers in descending order of value, ties
    to the lower index, so that good incumbents come early and bounds fail
    first; the order is a heuristic only, and the result is the unpruned
    one: the optimum whose assignment, kept in item order, is
    lexicographically smallest.  Each leaf that ties or beats the incumbent
    gets a key that grows with its rank and, within one rank, falls with
    its code, the assignment read as a base-n number, item 0 most
    significant; the incumbent is the leaf of the largest key.  Each skip
    below drops only leaves that are strictly beaten or whose keys the
    search still meets:

    - above the last item, a subtree whose optimistic utility bound is
      strictly below a positive incumbent (at the last item the bound costs
      more than the n leaves it would save);
    - a state (next item, utilities so far), above the last two items,
      searched before.  Every path into one state has assigned the same
      items and shares its completions, and a leaf's code is its path's
      code plus its completion's, so the search stores the largest key
      under the state plus the code of the path that searched it, and a
      later path reads its own largest key off that store, the one of a
      tie when its code is smaller;
    - item j given to an agent who values it at 0 when another agent b
      values it: each leaf under that branch is strictly beaten by the same
      leaf with j given to b, whose support is larger when b is outside it
      and otherwise equal with a larger product (e_b > 0), so it is neither
      the optimum nor tied with it.  An item nobody values goes to agent 0
      only, as the lexicographic tie-break would give it.

    A leaf is ranked by (support size, sorted support, product) as
    ``WelfareScore.compare`` ranks it, on integer products.  The bit length
    of each u^e_i, and u^e_i itself where a product needs it, is computed
    once per solve, in per-agent memos that a bound or a leaf reads in C.  A product of k powers whose bit lengths
    sum to b has a bit length from b - k + 1 to b, so when that window lies
    wholly above or below the incumbent's bit length the order is known
    without multiplying; otherwise a leaf or a bound costs at most n
    big-integer multiplications.  A leaf's support is read from its m
    picks, not from its n utilities.
    """
    n, m = instance.n, instance.m
    if n**m > budget:
        raise BudgetExceededError(
            f"{n}^{m} assignments exceed the budget of {budget}; "
            "reduce the instance or raise the budget"
        )
    exponents = weight_exponents(instance.scaled_weights)
    _, rows = instance.scaled_utilities
    bits = sum(e * sum(row).bit_length() for e, row in zip(exponents, rows))
    if bits > MAX_PRODUCT_BITS:
        raise BudgetExceededError(
            f"the welfare products need up to {bits} bits (weight exponents up to "
            f"{max(exponents)}), above the limit of {MAX_PRODUCT_BITS}; "
            "use weights with smaller denominators"
        )

    cols = list(zip(*rows))  # cols[j][i]: agent i's value for item j
    # order[g]: the g-th item searched; pruned, the most valuable first
    order = sorted(range(m), key=lambda j: sum(cols[j]), reverse=True) if prune else range(m)
    # picks[g]: the (agent, value, code step) branches of item order[g]
    # without the dominated ones: only its valuers, each item's top valuers
    # first, or agent 0 when nobody values it.  The step a * n^(m-1-j) adds
    # agent a's pick of item j to the code of the assignment (see floor)
    picks = []
    for j in order:
        branches = [(a, u) for a, u in enumerate(cols[j]) if u or not prune] or [(0, 0)]
        if prune:
            branches.sort(key=itemgetter(1), reverse=True)
        place = n ** (m - 1 - j)
        picks.append([(a, u, a * place) for a, u in branches])
    # rest[g][i]: agent i's scaled utility for the items searched from g onward
    rest = [[0] * n for _ in range(m + 1)]
    for g in range(m - 1, -1, -1):
        rest[g] = list(map(add, rest[g + 1], cols[order[g]]))
    # powers[i][u] = u ** e_i and lengths[i][u] its bit length, each computed
    # once; a length does not store its power, which most bounds never need
    powers = [_Memo(e.__rpow__) for e in exponents]
    lengths = [_Memo(lambda u, e=e: (u ** e).bit_length()) for e in exponents]

    # A leaf that ties or beats the incumbent gets the key floor - code: code
    # is its assignment read as a base-n number, item 0 most significant, and
    # floor grows by n^m with each strict improvement of the incumbent's
    # rank, so a key of an earlier rank is at most floor - n^m.  The
    # incumbent is the leaf of the largest key, top.
    span = n**m
    floor = top = 0
    # the incumbent's rank: support size, sorted support, scaled product
    best_size, best_support, best_product, best_bits = -1, [], 0, 0
    current = [0] * n
    assign = [0] * m  # assign[j]: the agent holding item j
    last = m - 1
    deep = m - 2 if prune else 0  # the levels g < deep store their states
    # seen[g]: the utilities so far of each state searched at level g -> the
    # largest key under it plus the code of the path that searched it, or 0
    # when no leaf under it got a key; a path with another code reads its
    # own key off that.  One dict per level keeps the level out of each key
    seen: list[dict[tuple[int, ...], int]] = [{} for _ in range(deep)]

    def recurse(g: int, code: int) -> int:
        """Search the subtree of item order[g] on; return its largest key."""
        nonlocal floor, top, best_size, best_support, best_product, best_bits
        if g < deep:
            level, state = seen[g], tuple(current)
            if state in level:
                key = level[state] - code
                if key > top:
                    top = key
                return key
            level[state] = 0
        low = 0
        j = order[g]
        if g < last:
            if prune and best_size == n:
                reach = list(map(add, current, rest[g]))
                if 0 in reach:
                    return 0
                bits = sum(map(getitem, lengths, reach))
                if bits < best_bits or (
                    bits - n < best_bits and prod(map(getitem, powers, reach)) < best_product
                ):
                    return 0
            for a, value, step in picks[g]:
                assign[j] = a
                current[a] += value
                key = recurse(g + 1, code + step)
                current[a] -= value
                if key > low:
                    low = key
            if low and g < deep:
                level[state] = low + code
            return low
        # the last item: its n leaves, ranked inline
        for a, value, step in picks[g]:
            assign[j] = a
            current[a] += value
            if best_size == n:
                if 0 not in current and sum(map(getitem, lengths, current)) >= best_bits:
                    cand = prod(map(getitem, powers, current))
                    if cand >= best_product:
                        if cand > best_product:
                            best_product, best_bits = cand, cand.bit_length()
                            floor += span
                        low = max(low, floor - code - step)
            else:
                support = sorted({b for b, c in zip(assign, cols) if c[b]})
                size = len(support)
                if size > best_size or (size == best_size and support <= best_support):
                    cand = prod([powers[i][current[i]] for i in support])
                    if support != best_support or cand >= best_product:
                        if support != best_support or cand > best_product:
                            best_size, best_support, best_product = size, support, cand
                            best_bits = cand.bit_length()
                            floor += span
                        low = max(low, floor - code - step)
            current[a] -= value
        if low > top:
            top = low
        return low

    if m:
        recurse(0, 0)
    # recurse refers to itself through its closure; breaking that cycle
    # frees the power memos now rather than at a later full collection
    del recurse
    bundles = [set() for _ in range(n)]
    code = floor - top
    for j in range(last, -1, -1):
        code, a = divmod(code, n)
        bundles[a].add(j)
    return Allocation._trusted(tuple(map(frozenset, bundles)))
