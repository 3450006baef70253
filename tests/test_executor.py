import random
from fractions import Fraction

import pytest

from pickseq.core import Instance, bundle_utility
from pickseq.executor import execute

FLIP = Instance(
    (Fraction(9, 18), Fraction(5, 18), Fraction(4, 18)),
    ((10, 9, 8, 7, 0), (7, 10, 8, 9, 0), (0, 7, 10, 8, 9)),
)


def test_flip_sequence_one():
    alloc = execute(FLIP, [0, 1, 0, 2, 0])
    assert alloc.bundles[0] == frozenset({0, 2, 3})
    assert bundle_utility(FLIP, 0, alloc.bundles[0]) == 25


def test_flip_sequence_two():
    alloc = execute(FLIP, [0, 0, 1, 2, 0])
    assert alloc.bundles[0] == frozenset({0, 1, 4})
    assert bundle_utility(FLIP, 0, alloc.bundles[0]) == 19


def test_nine_agent_trace_utilities():
    utilities = (
        (3, 0, 0, 2, 0, 0, 1),
        (0, 3, 2, 0, 1, 0, 0),
        (0, 0, 2, 0, 0, 0, 1),
    ) + ((0, 0, 0, 0, 0, 1, 0),) * 6
    inst = Instance((Fraction(8, 24), Fraction(7, 24), Fraction(3, 24)) + (Fraction(1, 24),) * 6, utilities)
    first = execute(inst, [0, 1, 2, 0, 1, 3, 0])
    second = execute(inst, [0, 1, 0, 1, 2, 0, 3])
    assert bundle_utility(inst, 0, first.bundles[0]) == 6
    assert bundle_utility(inst, 0, second.bundles[0]) == 5


def test_zero_utility_turn_still_picks_lowest_index():
    inst = Instance((1, 1), ((0, 0, 5), (1, 1, 1)))
    alloc = execute(inst, [0, 0, 1])
    # first pick takes item 3 (only positive), second takes item 1 at zero
    assert alloc.bundles[0] == frozenset({0, 2})


def test_length_and_index_validation():
    with pytest.raises(ValueError):
        execute(FLIP, [0, 1])
    with pytest.raises(ValueError):
        execute(FLIP, [0, 1, 0, 2, 3])


@pytest.mark.parametrize("turns", [[0, 1, 0, 2, 3], [0, 1, 0, 2, -1], [-1, 0, 1, 0, 2]])
def test_turn_outside_the_agents_is_refused(turns):
    # a negative turn is no Python index from the end
    with pytest.raises(ValueError, match=r"sequence references an agent outside 1\.\.3"):
        execute(FLIP, turns)


def test_partition_and_turn_counts_random():
    rng = random.Random(5150)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = rng.randint(0, 10)
        inst = Instance(
            tuple(Fraction(rng.randint(1, 9)) for _ in range(n)),
            tuple(tuple(Fraction(rng.randint(0, 8)) for _ in range(m)) for _ in range(n)),
        )
        turns = [rng.randrange(n) for _ in range(m)]
        alloc = execute(inst, turns)
        alloc.validate_for(inst)
        for i in range(n):
            assert len(alloc.bundles[i]) == turns.count(i)


def test_own_picks_non_increasing_random():
    rng = random.Random(6021)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = rng.randint(1, 9)
        inst = Instance(
            tuple(Fraction(1) for _ in range(n)),
            tuple(tuple(Fraction(rng.randint(0, 9)) for _ in range(m)) for _ in range(n)),
        )
        turns = [rng.randrange(n) for _ in range(m)]
        # replay to capture pick order per agent
        remaining = list(range(m))
        last_value = {}
        for agent in turns:
            row = inst.utilities[agent]
            pick = max(remaining, key=lambda g: (row[g], -g))
            remaining.remove(pick)
            if agent in last_value:
                assert row[pick] <= last_value[agent]
            last_value[agent] = row[pick]


def test_single_agent_takes_everything():
    inst = Instance((1,), ((4, 9, 1, 7),))
    alloc = execute(inst, [0, 0, 0, 0])
    assert alloc.bundles[0] == frozenset({0, 1, 2, 3})
