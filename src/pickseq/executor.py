"""Run a picking sequence against an instance to produce an allocation.

Agents are truthful: at her turn an agent takes the remaining item she
values most, ties to the lowest item index.  An agent whose remaining
items are all worth zero still picks (the lowest-indexed one), so every
sequence of length m consumes all m items.

Each agent compares only her own values, so the picks are made on her
integer-scaled row (``Instance.scaled_utilities``): every agent takes the
first item not yet taken in her ``Instance.preference_orders`` entry, her
items by (value descending, index ascending), which the instance sorts once
and keeps.
"""

from __future__ import annotations

from typing import Iterable

from .core import Allocation, Instance, PickingSequence, agents_in_range, turns_of


def execute(instance: Instance, sequence: PickingSequence | Iterable[int]) -> Allocation:
    turns = turns_of(sequence)
    n, m = instance.n, instance.m
    if len(turns) != m:
        raise ValueError(f"sequence length {len(turns)} does not match item count {m}")
    if not agents_in_range(turns, n):
        raise ValueError(f"sequence references an agent outside 1..{n}")

    orders = instance.preference_orders
    taken = [False] * m
    next_pick = [0] * n
    bundles = [set() for _ in range(n)]
    for agent in turns:
        order = orders[agent]
        k = next_pick[agent]
        while taken[order[k]]:
            k += 1
        pick = order[k]
        next_pick[agent] = k + 1
        taken[pick] = True
        bundles[agent].add(pick)
    return Allocation._trusted(tuple(map(frozenset, bundles)))
