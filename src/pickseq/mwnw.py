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
smallest, which makes every reported trace reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from operator import add, getitem
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

    Enumerates all n^m item-to-agent assignments depth-first in
    lexicographic order, so the first optimum found is also the
    lexicographic tie-break winner.  With ``prune`` enabled, a branch is
    skipped when no leaf under it can strictly beat the incumbent, which
    keeps the result identical to the unpruned enumeration: equal-score
    leaves always lose the lexicographic tie-break to the earlier incumbent.
    Three rules skip:

    - above the last item, a subtree whose optimistic utility bound cannot
      beat a positive incumbent (at the last item the bound costs more than
      the n leaves it would save);
    - a state (next item, utilities so far) entered before, above the last
      two items;
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
    # picks[j]: the (agent, value) branches of item j, without the dominated
    # ones: only its valuers, or agent 0 when nobody values it
    picks = [[(a, u) for a, u in enumerate(col) if u or not prune] or [(0, 0)] for col in cols]
    # rest[j][i]: agent i's scaled utility for all items from j onward
    rest = [[0] * n for _ in range(m + 1)]
    for j in range(m - 1, -1, -1):
        rest[j] = list(map(add, rest[j + 1], cols[j]))
    # powers[i][u] = u ** e_i and lengths[i][u] its bit length, each computed
    # once; a length does not store its power, which most bounds never need
    powers = [_Memo(e.__rpow__) for e in exponents]
    lengths = [_Memo(lambda u, e=e: (u ** e).bit_length()) for e in exponents]

    best_assign: list[int] = []
    # the incumbent's rank: support size, sorted support, scaled product
    best_size, best_support, best_product, best_bits = -1, [], 0, 0
    current = [0] * n
    assign = [0] * m
    seen: set[tuple[int, ...]] = set()  # (j, *current) of the states entered
    last = m - 1

    def recurse(j: int) -> None:
        nonlocal best_assign, best_size, best_support, best_product, best_bits
        if prune and j < m - 2:
            state = (j, *current)
            if state in seen:
                return
            seen.add(state)
        if j < last:
            if prune and best_size == n:
                reach = list(map(add, current, rest[j]))
                if 0 in reach:
                    return
                bits = sum(map(getitem, lengths, reach))
                if bits < best_bits or (
                    bits - n < best_bits and prod(map(getitem, powers, reach)) <= best_product
                ):
                    return
            for a, value in picks[j]:
                assign[j] = a
                current[a] += value
                recurse(j + 1)
                current[a] -= value
            return
        # the last item: its n leaves, ranked inline
        for a, value in picks[j]:
            assign[j] = a
            current[a] += value
            if best_size == n:
                if 0 not in current and sum(map(getitem, lengths, current)) >= best_bits:
                    cand = prod(map(getitem, powers, current))
                    if cand > best_product:
                        best_product, best_bits = cand, cand.bit_length()
                        best_assign = assign.copy()
            else:
                support = sorted({b for b, c in zip(assign, cols) if c[b]})
                size = len(support)
                if size > best_size or (size == best_size and support <= best_support):
                    cand = prod([powers[i][current[i]] for i in support])
                    if support != best_support or cand > best_product:
                        best_size, best_support, best_product = size, support, cand
                        best_bits = cand.bit_length()
                        best_assign = assign.copy()
            current[a] -= value

    if m:
        recurse(0)
    # recurse refers to itself through its closure; breaking that cycle
    # frees the power memos now rather than at a later full collection
    del recurse
    bundles = [set() for _ in range(n)]
    for j, a in enumerate(best_assign):
        bundles[a].add(j)
    return Allocation._trusted(tuple(map(frozenset, bundles)))
