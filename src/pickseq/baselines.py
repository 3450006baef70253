"""Unweighted baseline allocation algorithms.

These exist to show that even popular algorithms can behave
non-monotonically when the item supply changes; both reference procedures
here ignore agent weights.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Allocation, Instance, PickingSequence, bundle_reader


def round_robin_sequence(n: int, m: int) -> PickingSequence:
    """Agents pick in cyclic order 1, 2, ..., n, 1, 2, ... until items run out."""
    if n < 1:
        raise ValueError("need at least one agent")
    if m < 0:
        raise ValueError("item count must be non-negative")
    return PickingSequence._trusted(tuple(j % n for j in range(m)))


def _envy_edges(rows: tuple[tuple[int, ...], ...], bundles: list[set[int]]) -> list[list[bool]]:
    """edges[i][j] iff agent i strictly prefers bundle j to her own.

    ``rows`` are the integer-scaled utilities of ``Instance.scaled_utilities``:
    each edge compares one agent's values only, so the scale keeps it.
    """
    n = len(rows)
    readers = [bundle_reader(bundle) for bundle in bundles]
    edges = []
    for i, row in enumerate(rows):
        values = [sum(read(row)) for read in readers]
        edges.append([j != i and values[j] > values[i] for j in range(n)])
    return edges


def _find_cycle(edges: list[list[bool]], n: int) -> list[int]:
    """First envy cycle closed by a depth-first search from the lowest agent."""
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    path: list[int] = []

    def dfs(v: int) -> list[int] | None:
        color[v] = 1
        path.append(v)
        for u in range(n):
            if not edges[v][u]:
                continue
            if color[u] == 1:
                return path[path.index(u):]
            if color[u] == 0:
                found = dfs(u)
                if found is not None:
                    return found
        color[v] = 2
        path.pop()
        return None

    for start in range(n):
        if color[start] == 0:
            cycle = dfs(start)
            if cycle is not None:
                return cycle
    raise AssertionError("no envy cycle although every agent is envied")


def envy_cycle_eliminate(instance: Instance) -> Allocation:
    """Envy-cycle elimination with the maximum-marginal-utility tie-break.

    Weights are ignored.  While items remain: rotate bundles along envy
    cycles until some agent is unenvied, then among all (unenvied agent,
    unallocated item) pairs assign the one with the highest utility gain,
    breaking ties by agent index and then item index.
    """
    n, m = instance.n, instance.m
    _, rows = instance.scaled_utilities
    bundles: list[set[int]] = [set() for _ in range(n)]
    remaining = list(range(m))

    while remaining:
        rotations = 0
        while True:
            edges = _envy_edges(rows, bundles)
            unenvied = [j for j in range(n) if not any(edges[i][j] for i in range(n))]
            if unenvied:
                break
            cycle = _find_cycle(edges, n)
            old = [set(b) for b in bundles]
            for idx, agent in enumerate(cycle):
                bundles[agent] = old[cycle[(idx + 1) % len(cycle)]]
            rotations += 1
            assert rotations <= n, "cycle elimination failed to make progress"

        # the gain comparison is across agents: it stays on the Fractions
        best_agent, best_item = unenvied[0], remaining[0]
        best_gain = instance.utilities[unenvied[0]][remaining[0]]
        for i in unenvied:
            for g in remaining:
                if instance.utilities[i][g] > best_gain:
                    best_agent, best_item, best_gain = i, g, instance.utilities[i][g]
        bundles[best_agent].add(best_item)
        remaining.remove(best_item)

    return Allocation._trusted(tuple(map(frozenset, bundles)))


def adjusted_winner(instance: Instance) -> Allocation:
    """Two-agent adjusted winner adapted to indivisible items.

    Items are ordered by decreasing ratio u1(g)/u2(g); items agent 2 values
    at zero sort first (among them by decreasing u1, then index).  The
    procedure hands agent 1 the shortest prefix of that order whose value
    to her matches or beats the order's tail minus its first item, and
    agent 2 takes the rest.

    This rule stays on the Fractions.  Its order divides one agent's value
    by the other's, so it is not a one-agent comparison, and the textbook
    procedure's equalizing step, u1(A) = u2(B), would not survive per-agent
    scales (``Instance.scaled_utilities``).  This adaptation happens to be
    safe (the scales multiply every ratio by the same s1/s2, and the stop
    test sums u1 only), but with two agents and one sort there is nothing
    to gain.
    """
    if instance.n != 2:
        raise ValueError("adjusted winner requires exactly two agents")
    u1, u2 = instance.utilities

    def sort_key(g: int):
        if u2[g] == 0:
            return (0, -u1[g], g)
        return (1, -Fraction(u1[g], u2[g]), g)

    order = sorted(range(instance.m), key=sort_key)
    if not order:
        return Allocation._trusted((frozenset(), frozenset()))
    k = len(order)
    for candidate in range(1, len(order) + 1):
        prefix_value = sum((u1[g] for g in order[:candidate]), Fraction(0))
        tail_value = sum((u1[g] for g in order[candidate + 1:]), Fraction(0))
        if prefix_value >= tail_value:
            k = candidate
            break
    return Allocation._trusted((frozenset(order[:k]), frozenset(order[k:])))
