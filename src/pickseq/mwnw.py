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
restricted to that support.  The solver fixes that support, S*, by a
greedy matching before the search (see ``solve``), so every leaf it ranks
is ranked by one integer product over S*.  Among exact score ties the
solver returns the allocation whose item-to-agent assignment vector is
lexicographically smallest, which makes every reported trace
reproducible.  The pruned search meets the leaves in another order than
the lexicographic one, so it breaks each tie by comparing the assignments
themselves, read as base-n numbers.
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


def _greedy_support(rows: Sequence[Sequence[int]]) -> list[int]:
    """S*: the agents in index order, each kept when an augmenting path from
    it exists (Kuhn) in the graph whose edges are the positive values, so
    that all the kept agents can be positive at once.  A path visits at most
    min(n, m) matched agents, so the recursion is at most min(n, m) + 1
    deep."""
    holder: dict[int, int] = {}  # item -> the kept agent it is matched to

    def augment(i: int, visited: set[int]) -> bool:
        for j, u in enumerate(rows[i]):
            if u and j not in visited:
                visited.add(j)
                if j not in holder or augment(holder[j], visited):
                    holder[j] = i
                    return True
        return False

    return [i for i in range(len(rows)) if augment(i, set())]


def solve(
    instance: Instance, budget: int = DEFAULT_BUDGET, prune: bool = True
) -> Allocation:
    """Return the maximum weighted Nash welfare allocation.

    Before the search, the solver fixes S*, the support of every optimum.
    The agents that one allocation makes positive can be matched to
    distinct items that each values, so every support is an independent
    set of a transversal matroid (Edmonds & Fulkerson, 1965).  S* is the
    greedy basis over the agents in index order (``_greedy_support``): it
    has the size of a maximum matching, as Caragiannis et al. find the
    largest support, and it is the lexicographically smallest basis, as the
    greedy basis of a matroid is (Gale).  So S* is the support that the
    zero-welfare convention prefers, provided some allocation has support
    exactly S*:

    - every item that anyone values is valued by an agent of S*: were it
      valued only by an agent b outside S*, S* plus b would be matchable;
    - so giving the matched items to their agents of S* and every other
      valued item to an agent of S* who values it reaches S* exactly;
    - a leaf that gives a valued item to an agent who values it at 0 is
      strictly beaten by the same leaf with the item given to an agent a of
      S* who values it: a larger support when a is at 0 there, otherwise a
      larger product, since e_a > 0.

    The search therefore runs on S*'s rows over the items that someone
    values, and gives each item that nobody values to agent 0, as the
    lexicographic tie-break would.  Each leaf on which every agent of S*
    is positive is ranked by one integer product over S*; every other leaf
    has a smaller support and is dropped.  Both modes make this reduction.

    Without ``prune``, the search enumerates every agent of S* on every
    valued item depth-first in lexicographic order, the referee of the
    pruned search's order, bounds and state skip.  With ``prune``, the
    search takes the items in descending order of total scaled value and
    each item's valuers in descending order of value, ties to the lower
    index, so that good incumbents come early and bounds fail first; the
    order is a heuristic only, and the result is the unpruned one: the
    optimum whose assignment, kept in item order, is lexicographically
    smallest.  Each leaf that ties or beats the incumbent gets a key that
    grows with its product and, within one product, falls with its code,
    the assignment read as a base-n number, item 0 most significant; the
    incumbent is the leaf of the largest key.  Each skip below drops only
    leaves that are strictly beaten or whose keys the search still meets:

    - a subtree in which some agent of S* cannot become positive;
    - above the last item, a subtree whose optimistic utility bound is
      strictly below the incumbent (at the last item the bound costs more
      than the leaves it would save);
    - a state (next item, utilities so far), above the last two items,
      searched before.  Every path into one state has assigned the same
      items and shares its completions, and a leaf's code is its path's
      code plus its completion's, so the search stores the largest key
      under the state plus the code of the path that searched it, and a
      later path reads its own largest key off that store, the one of a
      tie when its code is smaller;
    - item j given to an agent of S* who values it at 0 (see above).

    The bit length of each u^e_i, and u^e_i itself where a product needs
    it, is computed once per solve, in per-agent memos that a bound or a
    leaf reads in C.  A product of k powers whose bit lengths sum to b has
    a bit length from b - k + 1 to b, so when that window lies wholly above
    or below the incumbent's bit length the order is known without
    multiplying; otherwise a leaf or a bound costs at most |S*| big-integer
    multiplications.
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

    support = _greedy_support(rows)
    k = len(support)
    # cols[j][s]: the value for item j of the s-th agent of S*
    cols = [[rows[i][j] for i in support] for j in range(m)]
    # order[g]: the g-th item searched, of the items that someone values;
    # pruned, the most valuable first
    valued = [j for j in range(m) if any(cols[j])]
    order = sorted(valued, key=lambda j: sum(cols[j]), reverse=True) if prune else valued
    # picks[g]: the (s, value, code step) branches of item order[g], one
    # for each s-th agent of S*; pruned, only its valuers, the top valuers
    # first.  The step a * n^(m-1-j), a = support[s], adds agent a's pick
    # of item j to the code of the assignment (see floor)
    picks = []
    for j in order:
        place = n ** (m - 1 - j)
        branches = [(s, u, support[s] * place) for s, u in enumerate(cols[j]) if u or not prune]
        picks.append(sorted(branches, key=itemgetter(1), reverse=True) if prune else branches)
    last = len(order) - 1
    # rest[g][s]: the s-th agent of S*'s scaled utility for the items
    # searched from g onward
    rest = [[0] * k for _ in range(last + 2)]
    for g in range(last, -1, -1):
        rest[g] = list(map(add, rest[g + 1], cols[order[g]]))
    # powers[s][u] = u ** e_i, i = support[s], and lengths[s][u] its bit
    # length, each computed once; a length does not store its power, which
    # most bounds never need
    powers = [_Memo(exponents[i].__rpow__) for i in support]
    lengths = [_Memo(lambda u, e=exponents[i]: (u ** e).bit_length()) for i in support]

    # A leaf that ties or beats the incumbent gets the key floor - code: code
    # is its assignment read as a base-n number, item 0 most significant, and
    # floor grows by n^m with each strict improvement of the incumbent's
    # product, so a key of an earlier product is at most floor - n^m.  The
    # incumbent is the leaf of the largest key, top.
    span = n**m
    floor = top = 0
    best_product = best_bits = 0  # the incumbent's product over S*; 0 for none
    current = [0] * k
    deep = last - 1 if prune else 0  # the levels g < deep store their states
    # seen[g]: the utilities so far of each state searched at level g -> the
    # largest key under it plus the code of the path that searched it, or 0
    # when no leaf under it got a key; a path with another code reads its
    # own key off that.  One dict per level keeps the level out of each key
    seen: list[dict[tuple[int, ...], int]] = [{} for _ in range(deep)]

    def recurse(g: int, code: int) -> int:
        """Search the subtree of item order[g] on; return its largest key."""
        nonlocal floor, top, best_product, best_bits
        if g < deep:
            level, state = seen[g], tuple(current)
            if state in level:
                key = level[state] - code
                if key > top:
                    top = key
                return key
            level[state] = 0
        low = 0
        if g < last:
            if prune:
                reach = list(map(add, current, rest[g]))
                bits = sum(map(getitem, lengths, reach))
                if 0 in reach or bits < best_bits or (
                    bits - k < best_bits and prod(map(getitem, powers, reach)) < best_product
                ):
                    return 0
            for s, value, step in picks[g]:
                current[s] += value
                key = recurse(g + 1, code + step)
                current[s] -= value
                if key > low:
                    low = key
            if low and g < deep:
                level[state] = low + code
            return low
        # the last item: its leaves, ranked inline
        for s, value, step in picks[g]:
            current[s] += value
            if 0 not in current and sum(map(getitem, lengths, current)) >= best_bits:
                cand = prod(map(getitem, powers, current))
                if cand >= best_product:
                    if cand > best_product:
                        best_product, best_bits = cand, cand.bit_length()
                        floor += span
                    low = max(low, floor - code - step)
            current[s] -= value
        if low > top:
            top = low
        return low

    if order:
        recurse(0, 0)
    # recurse refers to itself through its closure; breaking that cycle
    # frees the power memos now rather than at a later full collection
    del recurse
    bundles = [set() for _ in range(n)]
    code = floor - top
    for j in range(m - 1, -1, -1):
        code, a = divmod(code, n)
        bundles[a].add(j)
    return Allocation._trusted(tuple(map(frozenset, bundles)))
