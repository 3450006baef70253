"""Picking-sequence generators for divisor methods and the quota method.

A divisor method assigns each pick to an agent minimizing f(t_i)/w_i, where
t_i is the agent's pick count so far and f is strictly increasing with
t <= f(t) <= t+1.  The quota method restricts the Jefferson rule
(f(t) = t+1) to agents still below their proportional upper quota.

Scores compare through the exact order form of f(t), a power of f(t)
that clears any root, on weights scaled to integers by one common factor.
Two scores compare by one cross-multiplication of their forms
(``compare_forms``), shared by ``compare_scores`` and the WWEF1 divisor
condition.  The generator keeps its own path: it puts all scores of one
call on one integer scale, as floor keys at one power of two, so that its
heap compares plain ints in C; when f(0) = 0 every agent picks once, in
index order, before the heap starts.  Power means with a non-integer,
non-zero exponent have no exact form and raise ``PrecisionError``.  What
depends on a divisor family is read from ``DIVISOR_FAMILIES``.

A ``Rule`` is one record: a picking-sequence generator, which truthful
picking executes, or an allocation procedure.  ``RULES`` holds the named
rules under their one CLI name, and ``divisor_rule`` makes the rule of a
divisor function.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Sequence

from . import baselines, core, mwnw
from .core import (
    Allocation, Instance, ParseError, PickingSequence, _as_rational, format_rational,
    integer_weights, parse_rational,
)
from .executor import execute


class PrecisionError(ValueError):
    """A comparison has no exact form."""

    def __init__(self, method: str):
        self.method = method
        super().__init__(f"{method} has no exact comparison")


@dataclass(frozen=True)
class DivisorFunction:
    """One member of the divisor-function zoo, tagged by ``kind``, a key of
    ``DIVISOR_FAMILIES``.  ``c`` parameterizes stationary (f(t) = t + c, c
    in [0,1]); ``p`` and ``w`` parameterize the weighted power mean of t and
    t+1; ``table`` plus ``tail_offset`` define a custom function
    (f(t) = t + tail_offset past the table).
    """

    kind: str
    c: Fraction | None = None
    p: Fraction | None = None
    w: Fraction | None = None
    table: tuple[Fraction, ...] | None = None
    tail_offset: Fraction | None = None

    def __post_init__(self):
        family = DIVISOR_FAMILIES.get(self.kind)
        if family is None:
            raise ValueError(f"unknown divisor function kind {self.kind!r}")
        family.check(self)

    @property
    def name(self) -> str:
        return DIVISOR_FAMILIES[self.kind].name(self)

    def order_form(self, t: int) -> tuple[int, int, int] | None:
        """Integers (num, den, e) with num/den = f(t)^e, so f(t)/w orders as
        num/(den*w^e), reversed when e < 0; num == 0 exactly when f(t) = 0.

        e is 1 for rational f, 2 for Hill, k for a power mean with integer
        exponent k and q for the geometric mean with weight a/q.  None when
        f(t) is irrational with no such form.
        """
        if t < 0:
            raise ValueError("divisor functions are defined for t >= 0")
        return DIVISOR_FAMILIES[self.kind].order_form(self, t)

    def rational_value(self, t: int) -> Fraction | None:
        """f(t) as an exact rational where the order form has exponent 1 or
        is zero, else None."""
        form = self.order_form(t)
        if form is None or (form[2] != 1 and form[0] != 0):
            return None
        return Fraction(form[0], form[1])


def exact_form(f: DivisorFunction, t: int) -> tuple[int, int, int]:
    """f's order form at t; ``PrecisionError`` when it has none."""
    form = f.order_form(t)
    if form is None:
        raise PrecisionError(f.name)
    return form


def compare_forms(form_a: tuple, w_a: int, form_b: tuple, w_b: int) -> int:
    """Exact order of x_a/w_a versus x_b/w_b: -1, 0, or 1, for two values of
    one divisor function given by their order forms (num, den, e) and
    positive integer weights w_a, w_b on one scale (``core.integer_weights``).

    x/w orders as num/(den*w^e), reversed when e < 0, so the two sides
    cross-multiply to num_a*den_b*w_b^e against num_b*den_a*w_a^e, swapped
    (and with |e|) when e < 0.  Every form with num > 0 of one function has
    the same e.  A zero value (num == 0) sits below every other and ties
    with another zero.
    """
    num_a, den_a, e = form_a
    num_b, den_b, _ = form_b
    if num_a == 0 or num_b == 0:
        return (num_a != 0) - (num_b != 0)
    if e > 0:
        a, b = num_a * den_b * w_b**e, num_b * den_a * w_a**e
    else:
        a, b = num_b * den_a * w_b**-e, num_a * den_b * w_a**-e
    return (a > b) - (a < b)


def _offset_form(t: int, offset: Fraction) -> tuple[int, int, int]:
    """The form of t + offset, built without Fraction arithmetic."""
    return t * offset.denominator + offset.numerator, offset.denominator, 1


def _check_stationary(f: DivisorFunction) -> None:
    if f.c is None or not 0 <= f.c <= 1:
        raise ValueError("stationary offset must lie in [0, 1]")


def _check_power_mean(f: DivisorFunction) -> None:
    if f.p is None or f.w is None:
        raise ValueError("power mean needs both p and w")
    if not 0 <= f.w <= 1:
        raise ValueError("power-mean weight must lie in [0, 1]")


def _power_mean_form(f: DivisorFunction, t: int) -> tuple[int, int, int] | None:
    p, w = f.p, f.w
    a, q = w.numerator, w.denominator
    if p == 1 or w in (0, 1):
        if t == 0 and p <= 0:
            return 0, 1, 1
        return (t + 1) * q - a, q, 1  # the mean weighted w on t and 1-w on t+1
    if p == 0:
        return t**a * (t + 1) ** (q - a), 1, q
    if p.denominator != 1:
        return (0, 1, 1) if t == 0 and p < 0 else None
    k = p.numerator
    if k > 0:
        return a * t**k + (q - a) * (t + 1) ** k, q, k
    if t == 0:
        return 0, 1, k
    # g(t) = a/(q t^|k|) + (q-a)/(q (t+1)^|k|)
    return a * (t + 1) ** -k + (q - a) * t**-k, q * (t * (t + 1)) ** -k, k


def _check_custom(f: DivisorFunction) -> None:
    if not f.table:
        raise ValueError("custom divisor function needs a value table")
    for t, value in enumerate(f.table):
        if not t <= value <= t + 1:
            raise ValueError(f"custom table violates t <= f(t) <= t+1 at t={t}")
        if t > 0 and value <= f.table[t - 1]:
            raise ValueError(f"custom table is not strictly increasing at t={t}")
    if f.tail_offset is not None:
        if not 0 <= f.tail_offset <= 1:
            raise ValueError("custom tail offset must lie in [0, 1]")
        if len(f.table) + f.tail_offset <= f.table[-1]:
            raise ValueError("custom tail is not strictly increasing at the seam")


def _custom_form(f: DivisorFunction, t: int) -> tuple[int, int, int]:
    if t < len(f.table):
        return f.table[t].numerator, f.table[t].denominator, 1
    if f.tail_offset is None:
        raise ValueError(f"custom divisor table covers t < {len(f.table)}; got t={t}")
    return _offset_form(t, f.tail_offset)


class DivisorFamily(NamedTuple):
    """One divisor family: f(t) as ``order_form(f, t)``, the check its
    parameters must pass, and its name."""

    order_form: Callable[[DivisorFunction, int], tuple[int, int, int] | None]
    check: Callable[[DivisorFunction], None] = lambda f: None
    name: Callable[[DivisorFunction], str] = lambda f: f.kind


DIVISOR_FAMILIES = {
    "adams": DivisorFamily(lambda f, t: (t, 1, 1)),
    "jefferson": DivisorFamily(lambda f, t: (t + 1, 1, 1)),
    "webster": DivisorFamily(lambda f, t: (2 * t + 1, 2, 1)),
    "hill": DivisorFamily(lambda f, t: (t * (t + 1), 1, 2)),
    # t(t+1) / (t + 1/2), in lowest terms; equals 0 at t = 0
    "dean": DivisorFamily(lambda f, t: (2 * t * (t + 1), 2 * t + 1, 1)),
    "stationary": DivisorFamily(
        lambda f, t: _offset_form(t, f.c),
        _check_stationary,
        lambda f: f"stationary:{format_rational(f.c)}",
    ),
    "powermean": DivisorFamily(
        _power_mean_form,
        _check_power_mean,
        lambda f: f"powermean:{format_rational(f.p)},{format_rational(f.w)}",
    ),
    "custom": DivisorFamily(_custom_form, _check_custom),
}


TRADITIONAL = {k: DivisorFunction(k) for k in ("adams", "jefferson", "webster", "hill", "dean")}
ADAMS, JEFFERSON, WEBSTER, HILL, DEAN = TRADITIONAL.values()


def stationary(c) -> DivisorFunction:
    return DivisorFunction("stationary", c=_as_rational(c))


def power_mean(p, w) -> DivisorFunction:
    return DivisorFunction("powermean", p=_as_rational(p), w=_as_rational(w))


def custom(values: Sequence, tail_offset=None) -> DivisorFunction:
    table = tuple(_as_rational(v) for v in values)
    tail = _as_rational(tail_offset) if tail_offset is not None else None
    return DivisorFunction("custom", table=table, tail_offset=tail)


def divisor_from_name(text: str) -> DivisorFunction:
    """Parse ``adams|jefferson|webster|hill|dean|stationary:c|powermean:p,w|custom:@file``."""
    name = text.strip()
    if name in TRADITIONAL:
        return TRADITIONAL[name]
    if name.startswith("stationary:"):
        return stationary(parse_rational(name.split(":", 1)[1], "stationary offset"))
    if name.startswith("powermean:"):
        params = name.split(":", 1)[1].split(",")
        if len(params) != 2:
            raise ValueError("powermean takes two parameters: powermean:p,w")
        return power_mean(
            parse_rational(params[0].strip(), "powermean p"),
            parse_rational(params[1].strip(), "powermean w"),
        )
    if name.startswith("custom:@"):
        path = name.split("@", 1)[1]
        with open(path, "r", encoding="utf-8") as handle:
            doc = core.load_json(handle.read(), "custom table")
        if not isinstance(doc, dict) or not isinstance(doc.get("values"), list):
            raise ParseError("custom table", 'expected an object whose "values" is a list')
        values = [parse_rational(v, "custom table entry") for v in doc["values"]]
        tail = doc.get("tail_offset")
        return custom(values, tail if tail is None else parse_rational(tail, "tail_offset"))
    raise ValueError(f"unknown divisor method {text!r}")


def compare_scores(
    f: DivisorFunction, t_a: int, w_a: Fraction, t_b: int, w_b: Fraction
) -> int:
    """Exact order of f(t_a)/w_a versus f(t_b)/w_b: -1, 0, or 1."""
    if t_a < 0 or t_b < 0:
        raise ValueError("pick counts must be non-negative")
    w_a, w_b = integer_weights((w_a, w_b))
    return compare_forms(exact_form(f, t_a), w_a, exact_form(f, t_b), w_b)


def _check_arguments(n: int, m: int, weights: Sequence) -> tuple[int, ...]:
    """The weights scaled to integers (``core.integer_weights``), after
    checking n, m and the weight count."""
    if n < 1:
        raise ValueError("need at least one agent")
    if m < 0:
        raise ValueError("item count must be non-negative")
    ws = integer_weights(weights)
    if len(ws) != n:
        raise ValueError(f"need {n} weights, got {len(ws)}")
    return ws


def divisor_sequence(
    f: DivisorFunction, n: int, m: int, weights: Sequence
) -> PickingSequence:
    """Length-m sequence: each turn goes to the argmin of f(t_i)/w_i.

    Ties break in favor of the lowest agent index.  When f(0) = 0 the
    first min(n, m) turns go to agents 0, 1, ... in order.  The other turns
    come from a heap of (key, agent) tuples of ints, which compares in C:
    O(m log n).

    With the form (num, den, e) at agent i's count and the integer-scaled
    weight W_i, f(t_i)/w_i orders as X_i = num/(den*W_i^e) when e > 0 and
    as X_i = -num*W_i^|e|/den when e < 0; X_i = P_i/Q_i with Q_i = den*W_i^e
    or den.  The key is floor(X_i * 2^k) with 2^k >= Q_a*Q_b for every pair
    of keys in the heap: two distinct X differ by at least 1/(Q_a*Q_b), so
    their keys differ, and equal X give equal keys, which go to the lower
    index.  A form whose den outgrows k's bound at least doubles the bit
    budget of den in k and recomputes the n keys, which keeps their order
    and so the heap.  Each count's form is computed once, shared by all
    agents, and only while a turn remains, so f is evaluated at exactly
    the counts a turn compares.
    """
    ws = _check_arguments(n, m, weights)
    if n == 1 or m == 0:
        return PickingSequence._trusted((0,) * m)  # no turn compares two scores
    forms = [exact_form(f, 0)]
    turns = []
    if forms[0][0] == 0:
        # every score f(0)/w is 0 and every later one positive
        turns = list(range(min(n, m)))
        if m > 1:
            forms.append(exact_form(f, 1))  # the agent of the first turn, at count 1
        if m <= n:
            return PickingSequence._trusted(tuple(turns))
    counts = [len(forms) - 1] * n  # every agent holds one count here
    e = forms[-1][2]
    # X_i = num * up[i] / (den * down[i])
    up = [1] * n if e > 0 else [-(w**-e) for w in ws]
    down = [w**e for w in ws] if e > 0 else [1] * n
    den_bits = forms[-1][1].bit_length()
    down_bits = max(down).bit_length()
    shift = 2 * (den_bits + down_bits)

    def key(i: int) -> int:
        num, den, _ = forms[counts[i]]
        return (num * up[i] << shift) // (den * down[i])

    heap = [(key(i), i) for i in range(n)]
    heapq.heapify(heap)
    for _ in range(len(turns), m - 1):
        best = heap[0][1]
        turns.append(best)
        t = counts[best] + 1
        if t == len(forms):
            forms.append(exact_form(f, t))
            if forms[t][1].bit_length() > den_bits:
                den_bits = max(2 * den_bits, forms[t][1].bit_length())
                shift = 2 * (den_bits + down_bits)
                heap = [(key(i), i) for _, i in heap]
        counts[best] = t
        heapq.heapreplace(heap, (key(best), best))
    turns.append(heap[0][1])
    return PickingSequence._trusted(tuple(turns))


def quota_sequence(n: int, m: int, weights: Sequence) -> PickingSequence:
    """Jefferson-style argmin of (t_i+1)/w_i over agents below upper quota.

    For round k an agent is eligible iff t_i < w_i * k / sum(w) (strict);
    ties break to the lowest index.  Both tests run on the weights scaled
    to integers.  The eligibility set is provably non-empty each round; an
    empty set would mean an arithmetic bug.
    """
    ws = _check_arguments(n, m, weights)
    total = sum(ws)
    counts = [0] * n
    turns = []
    for k in range(1, m + 1):
        best = None
        for i in range(n):
            if counts[i] * total < k * ws[i] and (
                best is None or (counts[i] + 1) * ws[best] < (counts[best] + 1) * ws[i]
            ):
                best = i
        assert best is not None, "quota eligibility set is empty: arithmetic bug"
        turns.append(best)
        counts[best] += 1
    return PickingSequence._trusted(tuple(turns))


@dataclass(frozen=True)
class Rule:
    """A rule of the paper under its one name: a picking-sequence generator
    ``sequence(n, m, weights)``, which truthful picking executes, or else an
    allocation procedure ``allocate(instance, budget)``.  ``agents`` is the
    one agent count the rule is defined for, if any, and ``divisor`` the
    function of a divisor rule.  Rules compare and hash by name, agent count
    and divisor function, not by their callables.
    """

    name: str
    sequence: Callable[[int, int, Sequence], PickingSequence] | None = field(
        default=None, compare=False)
    allocate: Callable[[Instance, int], Allocation] | None = field(default=None, compare=False)
    agents: int | None = None
    divisor: DivisorFunction | None = None

    def __post_init__(self):
        if (self.sequence is None) == (self.allocate is None):
            raise ValueError(f"rule {self.name!r} needs exactly one of a sequence "
                             "generator and an allocation procedure")

    def sequence_for(self, n: int, m: int, weights: Sequence) -> PickingSequence:
        """The picking sequence a sequence rule uses at this size."""
        if self.sequence is None:
            raise ValueError(f"rule {self.name!r} is not sequence-based")
        return self.sequence(n, m, weights)

    def run(self, instance: Instance, budget: int = mwnw.DEFAULT_BUDGET) -> Allocation:
        """The rule's allocation of the instance: its sequence, on the
        instance's integer weights, executed by truthful picking, or else its
        allocation procedure."""
        if self.sequence is None:
            return self.allocate(instance, budget)
        return execute(instance, self.sequence(instance.n, instance.m, instance.scaled_weights))


RULES = {
    "quota": Rule("quota", quota_sequence),
    "rr": Rule("rr", lambda n, m, weights: baselines.round_robin_sequence(n, m)),
    "mwnw": Rule("mwnw", allocate=mwnw.solve),
    "ecycle": Rule("ecycle", allocate=lambda instance, budget: baselines.envy_cycle_eliminate(instance)),
    "aw": Rule("aw", allocate=lambda instance, budget: baselines.adjusted_winner(instance), agents=2),
}


def divisor_rule(f: DivisorFunction) -> Rule:
    return Rule(f.name, partial(divisor_sequence, f), divisor=f)


def rule_from_name(text: str) -> Rule:
    name = text.strip()
    return RULES.get(name) or divisor_rule(divisor_from_name(name))
