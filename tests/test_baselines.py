import random
from fractions import Fraction

import pytest

from pickseq.baselines import adjusted_winner, envy_cycle_eliminate, round_robin_sequence
from pickseq.core import Instance, bundle_utility
from pickseq.executor import execute
from pickseq.fairness import check_allocation

ECYCLE_BASE = Instance((1, 1, 1), ((10, 5, 1), (6, 1, 2), (0, 4, 1)))


def test_envy_cycle_three_items():
    alloc = envy_cycle_eliminate(ECYCLE_BASE)
    assert alloc.bundles[2] == frozenset({1})
    assert bundle_utility(ECYCLE_BASE, 2, alloc.bundles[2]) == 4


def test_envy_cycle_extra_item_starves_agent_three():
    grown = ECYCLE_BASE.add_item((11, 1, 0))
    alloc = envy_cycle_eliminate(grown)
    assert alloc.bundles[2] == frozenset()
    assert bundle_utility(grown, 2, alloc.bundles[2]) == 0


def test_envy_cycle_single_agent_gets_everything():
    inst = Instance((1,), ((3, 0, 7),))
    alloc = envy_cycle_eliminate(inst)
    assert alloc.bundles[0] == frozenset({0, 1, 2})


def test_envy_cycle_output_is_ef1_random():
    rng = random.Random(701)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(0, 10)
        inst = Instance(
            (Fraction(1),) * n,
            tuple(tuple(Fraction(rng.randint(0, 9)) for _ in range(m)) for _ in range(n)),
        )
        alloc = envy_cycle_eliminate(inst)
        alloc.validate_for(inst)
        assert check_allocation("wef1", inst, alloc).holds  # unit weights: EF1


def test_envy_cycle_rotation_uses_cycles():
    # two agents who each prefer the other's pile force a rotation
    inst = Instance((1, 1), ((1, 5, 0, 4), (5, 1, 4, 0)))
    alloc = envy_cycle_eliminate(inst)
    alloc.validate_for(inst)
    assert check_allocation("wef1", inst, alloc).holds


AW_EPS = Fraction(1, 10)
AW_BASE = Instance(
    (1, 1),
    (
        (1 - AW_EPS, 2 * AW_EPS, 1),
        (Fraction(3, 2) * (1 - AW_EPS), 4 * AW_EPS, 3),
    ),
)


def test_adjusted_winner_three_items():
    alloc = adjusted_winner(AW_BASE)
    assert alloc.bundles[0] == frozenset({0, 1})
    assert bundle_utility(AW_BASE, 0, alloc.bundles[0]) == Fraction(11, 10)


def test_adjusted_winner_four_items_stops_on_equality():
    grown = AW_BASE.add_item((AW_EPS, AW_EPS))
    alloc = adjusted_winner(grown)
    assert alloc.bundles[0] == frozenset({0, 3})
    assert bundle_utility(grown, 0, alloc.bundles[0]) == 1


def test_adjusted_winner_single_item():
    inst = Instance((1, 1), ((5,), (7,)))
    alloc = adjusted_winner(inst)
    assert alloc.bundles == (frozenset({0}), frozenset())


def test_adjusted_winner_requires_two_agents():
    with pytest.raises(ValueError):
        adjusted_winner(Instance((1, 1, 1), ((1,), (1,), (1,))))


def test_adjusted_winner_zero_denominator_items_first():
    inst = Instance((1, 1), ((4, 9, 1), (0, 0, 2)))
    alloc = adjusted_winner(inst)
    # order: item 2 (u2=0, u1=9), item 1 (u2=0, u1=4), item 3
    # k=1: u1(9) >= u1 of position 3 (=1): stop at the first cut
    assert alloc.bundles[0] == frozenset({1})


def test_adjusted_winner_first_agent_never_envies_beyond_one_item():
    rng = random.Random(702)
    for _ in range(200):
        m = rng.randint(1, 9)
        inst = Instance(
            (1, 1),
            tuple(tuple(Fraction(rng.randint(0, 9)) for _ in range(m)) for _ in range(2)),
        )
        alloc = adjusted_winner(inst)
        alloc.validate_for(inst)
        own = bundle_utility(inst, 0, alloc.bundles[0])
        other = bundle_utility(inst, 0, alloc.bundles[1])
        drop = max((inst.utilities[0][g] for g in alloc.bundles[1]), default=Fraction(0))
        assert own >= other - drop


def test_round_robin_sequences():
    assert round_robin_sequence(2, 5).turns == (0, 1, 0, 1, 0)
    assert round_robin_sequence(3, 3).turns == (0, 1, 2)
    assert round_robin_sequence(1, 4).turns == (0, 0, 0, 0)


@pytest.mark.parametrize("n, m, message", [(0, 3, "need at least one agent"),
                                           (2, -1, "item count must be non-negative")])
def test_round_robin_argument_errors(n, m, message):
    with pytest.raises(ValueError) as info:
        round_robin_sequence(n, m)
    assert str(info.value) == message


def test_round_robin_allocations_are_ef1_random():
    rng = random.Random(703)
    for _ in range(150):
        n, m = rng.randint(1, 5), rng.randint(0, 10)
        inst = Instance(
            (Fraction(1),) * n,
            tuple(tuple(Fraction(rng.randint(0, 9)) for _ in range(m)) for _ in range(n)),
        )
        alloc = execute(inst, round_robin_sequence(n, m))
        assert check_allocation("wef1", inst, alloc).holds
