import random
from fractions import Fraction

import pytest

from pickseq.methods import (
    ADAMS,
    DEAN,
    HILL,
    JEFFERSON,
    RULES,
    TRADITIONAL,
    WEBSTER,
    DivisorFunction,
    PrecisionError,
    Rule,
    compare_scores,
    custom,
    divisor_from_name,
    divisor_rule,
    divisor_sequence,
    power_mean,
    quota_sequence,
    rule_from_name,
    stationary,
)
from pickseq.core import PickingSequence
from pickseq.executor import execute
from pickseq.fairness import divisor_wwef1_condition
from pickseq.harness import random_instance


def seq1(seq: PickingSequence) -> list[int]:
    return [a + 1 for a in seq.turns]


# --- compare_scores -----------------------------------------------------------


def test_compare_scores_jefferson_flip_step():
    # 3/w1 = 6 beats 2/w2 = 36/5 for the last pick of the flip trace
    assert compare_scores(JEFFERSON, 2, Fraction(9, 18), 1, Fraction(5, 18)) == -1


def test_compare_scores_identical_arguments_tie():
    for f in TRADITIONAL.values():
        assert compare_scores(f, 3, Fraction(2, 7), 3, Fraction(2, 7)) == 0


def test_compare_scores_hill_square_comparison():
    # sqrt(2)/1 vs sqrt(6)/2: squares 2 vs 6/4, so the left side is larger
    assert compare_scores(HILL, 1, Fraction(1), 2, Fraction(2)) == 1
    assert compare_scores(HILL, 2, Fraction(2), 1, Fraction(1)) == -1
    # zero against positive
    assert compare_scores(HILL, 0, Fraction(1), 1, Fraction(5)) == -1


def test_compare_scores_matches_float_on_separated_values():
    import math

    values = {
        "adams": lambda t: t,
        "jefferson": lambda t: t + 1,
        "webster": lambda t: t + 0.5,
        "hill": lambda t: math.sqrt(t * (t + 1)),
        "dean": lambda t: t * (t + 1) / (t + 0.5) if t else 0.0,
    }
    rng = random.Random(7)
    for name, f in TRADITIONAL.items():
        approx = values[name]
        for _ in range(300):
            t_a, t_b = rng.randint(0, 9), rng.randint(0, 9)
            w_a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            w_b = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            lhs, rhs = approx(t_a) / w_a, approx(t_b) / w_b
            if abs(lhs - rhs) < 1e-9:
                continue
            assert compare_scores(f, t_a, w_a, t_b, w_b) == (1 if lhs > rhs else -1)


def test_power_mean_integer_exponents_exact():
    rng = random.Random(11)
    import math

    for p in (-3, -2, -1, 2, 3):
        f = power_mean(p, Fraction(1, 3))
        for _ in range(200):
            t_a, t_b = rng.randint(0, 8), rng.randint(0, 8)
            w_a, w_b = Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9))

            def value(t):
                if t == 0 and p <= 0:
                    return 0.0
                return (t**p / 3 + 2 * (t + 1) ** p / 3) ** (1 / p)

            lhs, rhs = value(t_a) / w_a, value(t_b) / w_b
            if abs(lhs - rhs) < 1e-9:
                continue
            assert compare_scores(f, t_a, w_a, t_b, w_b) == (1 if lhs > rhs else -1)


def test_power_mean_zero_exponent_rational_weight_exact():
    f = power_mean(0, Fraction(1, 4))
    import math

    def value(t):
        return 0.0 if t == 0 else t**0.25 * (t + 1) ** 0.75

    rng = random.Random(13)
    for _ in range(200):
        t_a, t_b = rng.randint(0, 8), rng.randint(0, 8)
        w_a, w_b = Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9))
        lhs, rhs = value(t_a) / w_a, value(t_b) / w_b
        if abs(lhs - rhs) < 1e-9:
            continue
        assert compare_scores(f, t_a, w_a, t_b, w_b) == (1 if lhs > rhs else -1)


def test_power_mean_irrational_exponent_raises():
    strict = power_mean(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(PrecisionError, match="powermean:1/2,1/2 has no exact comparison"):
        compare_scores(strict, 1, Fraction(1), 2, Fraction(3))
    # f(0) = 0 still compares exactly; the first non-zero score raises
    assert compare_scores(power_mean(Fraction(-1, 2), Fraction(1, 2)), 0, 1, 0, 2) == 0
    with pytest.raises(PrecisionError):
        divisor_wwef1_condition(strict, 5)


# --- divisor function properties ---------------------------------------------


def test_builtin_functions_bounded_and_increasing():
    # rational families: check values directly up to a bound
    for f in (ADAMS, JEFFERSON, WEBSTER, DEAN, stationary(Fraction(1, 3))):
        previous = None
        for t in range(0, 200):
            value = f.rational_value(t)
            assert t <= value <= t + 1
            if previous is not None:
                assert value > previous
            previous = value
    # hill: verify via squared comparisons
    for t in range(0, 200):
        assert t * t <= t * (t + 1) <= (t + 1) * (t + 1)
    for t in range(0, 199):
        assert t * (t + 1) < (t + 1) * (t + 2)


def test_power_mean_bounded_and_increasing():
    # check t <= f(t) <= t+1 and strict growth through the powered forms
    grid = (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
    for p in range(-3, 4):
        for w in grid:
            f = power_mean(p, w)

            wf = Fraction(w)

            def g(t):
                if p == 0:
                    return Fraction(t) ** wf.numerator * Fraction(t + 1) ** (
                        wf.denominator - wf.numerator
                    )
                return wf * Fraction(t) ** p + (1 - wf) * Fraction(t + 1) ** p

            for t in range(0 if p > 0 else 1, 40):
                if p > 0:
                    assert Fraction(t) ** p <= g(t) <= Fraction(t + 1) ** p
                    assert g(t) < g(t + 1)
                elif p < 0:
                    assert Fraction(t) ** p >= g(t) >= Fraction(t + 1) ** p
                    assert g(t) > g(t + 1)
                else:
                    q = wf.denominator
                    assert Fraction(t) ** q <= g(t) <= Fraction(t + 1) ** q
                    assert g(t) < g(t + 1)
            if p <= 0:
                assert f.rational_value(0) == 0


def test_stationary_parameter_range():
    with pytest.raises(ValueError):
        stationary(Fraction(3, 2))
    with pytest.raises(ValueError):
        power_mean(1, Fraction(-1, 2))


def test_custom_table_validation():
    with pytest.raises(ValueError):
        custom([Fraction(1, 2), Fraction(1, 4)])  # not increasing
    with pytest.raises(ValueError):
        custom([Fraction(2)])  # violates f(0) <= 1
    f = custom([Fraction(0), Fraction(1)], tail_offset=1)
    assert f.rational_value(5) == 6
    bare = custom([Fraction(0), Fraction(1)])
    with pytest.raises(ValueError):
        bare.rational_value(2)


# Each refusal of a bad divisor function or argument, with its message.
ARGUMENT_ERRORS = {
    "powermean without p and w": (
        lambda: DivisorFunction("powermean"), "power mean needs both p and w"),
    "unknown kind": (
        lambda: DivisorFunction("hamilton"), "unknown divisor function kind 'hamilton'"),
    "order_form(-1)": (
        lambda: ADAMS.order_form(-1), "divisor functions are defined for t >= 0"),
    "compare_scores negative count": (
        lambda: compare_scores(WEBSTER, 0, 1, -1, 1), "pick counts must be non-negative"),
    "divisor_sequence weight count": (
        lambda: divisor_sequence(WEBSTER, 3, 4, (1, 2)), "need 3 weights, got 2"),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_ERRORS))
def test_argument_errors(case):
    call, message = ARGUMENT_ERRORS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_divisor_from_name():
    assert divisor_from_name("adams") is ADAMS
    assert divisor_from_name("stationary:1/2").c == Fraction(1, 2)
    pm = divisor_from_name("powermean:-1,1/2")
    assert pm.p == -1 and pm.w == Fraction(1, 2)
    with pytest.raises(ValueError):
        divisor_from_name("hamilton")
    assert rule_from_name("quota").name == "quota"
    assert rule_from_name("jefferson").divisor is JEFFERSON


ROUND_TRIP_NAMES = ["rr", "quota", "mwnw", "ecycle", "aw", *TRADITIONAL, "stationary:1/3", "powermean:2,1/3"]


@pytest.mark.parametrize("name", ROUND_TRIP_NAMES)
def test_rule_names_round_trip_and_sequence_rules_execute_their_sequence(name):
    rule = rule_from_name(name)
    assert rule.name == name
    if rule.sequence is None:
        return
    rng = random.Random(2024)
    for _ in range(20):
        instance = random_instance(rng, max_n=5, max_m=12, min_n=2)
        sequence = rule.sequence_for(instance.n, instance.m, instance.weights)
        assert rule.run(instance) == execute(instance, sequence)


def test_a_rule_is_equal_by_name_agents_and_divisor():
    assert divisor_rule(WEBSTER) == rule_from_name("webster")
    assert hash(divisor_rule(WEBSTER)) == hash(rule_from_name("webster"))
    assert divisor_rule(WEBSTER) != divisor_rule(ADAMS)
    assert rule_from_name("quota") is RULES["quota"]


def test_a_rule_has_a_sequence_or_an_allocation_procedure():
    with pytest.raises(ValueError, match="exactly one"):
        Rule("none")
    with pytest.raises(ValueError, match="exactly one"):
        Rule("both", quota_sequence, RULES["mwnw"].allocate)
    with pytest.raises(ValueError, match="rule 'mwnw' is not sequence-based"):
        RULES["mwnw"].sequence_for(2, 3, (1, 1))


def test_divisor_from_name_custom_file(tmp_path):
    path = tmp_path / "table.json"
    path.write_text('{"values": [0, 1], "tail_offset": 1}')
    f = divisor_from_name(f"custom:@{path}")
    assert f.kind == "custom"
    assert f.rational_value(1) == 1
    assert f.rational_value(4) == 5


def test_power_mean_special_cases_match_traditional():
    # (p, w) of (1,1), (-1,1/2), (0,1/2), (1,1/2), (1,0) give the five
    # traditional functions; check score comparisons coincide on a grid
    pairs = {
        "adams": power_mean(1, 1),
        "dean": power_mean(-1, Fraction(1, 2)),
        "hill": power_mean(0, Fraction(1, 2)),
        "webster": power_mean(1, Fraction(1, 2)),
        "jefferson": power_mean(1, 0),
    }
    for name, pm in pairs.items():
        trad = TRADITIONAL[name]
        for t_a in range(0, 6):
            for t_b in range(0, 6):
                for w_a, w_b in ((Fraction(3), Fraction(2)), (Fraction(1), Fraction(4))):
                    assert compare_scores(pm, t_a, w_a, t_b, w_b) == compare_scores(
                        trad, t_a, w_a, t_b, w_b
                    )


# --- divisor_sequence ---------------------------------------------------------


def test_divisor_sequence_zero_start_lexicographic():
    assert seq1(divisor_sequence(ADAMS, 3, 3, (Fraction(9, 4), Fraction(5, 4), 1))) == [1, 2, 3]


def test_stationary_equal_weights_round_robin():
    for c in (0, Fraction(1, 2), 1):
        seq = divisor_sequence(stationary(c), 2, 4, (1, 1))
        assert seq1(seq) == [1, 2, 1, 2]


def test_webster_flip_pair():
    assert seq1(divisor_sequence(WEBSTER, 3, 5, (Fraction(33, 10), Fraction(6, 5), 1))) == [1, 2, 1, 3, 1]
    assert seq1(divisor_sequence(WEBSTER, 3, 5, (4, Fraction(6, 5), 1))) == [1, 1, 2, 3, 1]


def test_divisor_sequence_argument_errors():
    with pytest.raises(ValueError):
        divisor_sequence(ADAMS, 0, 3, ())
    with pytest.raises(ValueError):
        divisor_sequence(ADAMS, 2, -1, (1, 1))
    with pytest.raises(ValueError):
        divisor_sequence(ADAMS, 2, 3, (1, 0))


# --- quota_sequence -----------------------------------------------------------


def test_quota_flip_pair():
    assert seq1(quota_sequence(3, 5, (Fraction(9, 18), Fraction(5, 18), Fraction(4, 18)))) == [1, 2, 1, 3, 1]
    assert seq1(quota_sequence(3, 5, (Fraction(11, 18), Fraction(5, 18), Fraction(4, 18)))) == [1, 1, 2, 3, 1]


def test_quota_nine_agent_trace():
    weights = (Fraction(8, 24), Fraction(7, 24), Fraction(3, 24)) + (Fraction(1, 24),) * 6
    assert seq1(quota_sequence(9, 7, weights)) == [1, 2, 3, 1, 2, 4, 1]


def test_scale_invariance():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(0, 10)
        weights = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = tuple(scale * w for w in weights)
        for f in (ADAMS, JEFFERSON, WEBSTER, HILL, DEAN):
            assert divisor_sequence(f, n, m, weights) == divisor_sequence(f, n, m, scaled)
        assert quota_sequence(n, m, weights) == quota_sequence(n, m, scaled)


def test_divisor_resource_consistency_by_construction():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(0, 9)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        for f in TRADITIONAL.values():
            small = divisor_sequence(f, n, m, weights)
            large = divisor_sequence(f, n, m + 1, weights)
            assert large.turns[: m] == small.turns


def test_quota_prefixes_satisfy_quota_axiom():
    from pickseq.fairness import check_quota_bounds

    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(1, 14)
        weights = tuple(Fraction(rng.randint(1, 10)) for _ in range(n))
        seq = quota_sequence(n, m, weights)
        assert check_quota_bounds(seq, weights, mode="every-prefix", bound="both").holds


@pytest.mark.parametrize(
    "f",
    list(TRADITIONAL.values())
    + [stationary(Fraction(1, 3)), power_mean(2, Fraction(1, 2)), power_mean(0, Fraction(1, 3)),
       power_mean(-2, Fraction(1, 3)), power_mean(1, Fraction(1, 3)),
       custom([0, Fraction(3, 2)], tail_offset=Fraction(1, 2))],
    ids=lambda f: f.name,
)
def test_divisor_sequence_builds_no_fraction_per_turn(monkeypatch, f):
    # the heap compares integer keys: Fractions are built only from the
    # input weights, so their number does not grow with the turn count
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(None)
        return new(cls, *args, **kwargs)

    weights = (Fraction(3, 7), Fraction(5), Fraction(11, 13), Fraction(2))
    counts = []
    for m in (10, 200):
        built.clear()
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        divisor_sequence(f, 4, m, weights)
        monkeypatch.undo()
        counts.append(len(built))
    assert counts[0] == counts[1] <= 2 * len(weights)
