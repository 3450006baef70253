"""Picking-sequence generators for divisor methods and the quota method.

A divisor method assigns each pick to an agent minimizing f(t_i)/w_i, where
t_i is the agent's pick count so far and f is strictly increasing with
t <= f(t) <= t+1.  The quota method restricts the Jefferson rule
(f(t) = t+1) to agents still below their proportional upper quota.

Scores compare through one exact order key per family, a power of f(t)/w
that clears any root (``DivisorFunction.key``).  Only power means with
non-integer exponent fall back to high-precision arithmetic, off by default.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from .core import PickingSequence, format_rational, integer_weights, parse_rational

PRECISION_ENV_VAR = "FAIRSEQ_PRECISION_BITS"
DEFAULT_PRECISION_BITS = 128


class PrecisionError(ValueError):
    """Comparison cannot be made exact and approximation was not allowed."""

    def __init__(self, method: str):
        self.method = method
        super().__init__(f"{method} has no exact comparison; construct it with "
                         "allow_approx=True to use the high-precision fallback")


def _as_rational(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are banned; pass Fraction, int, or 'p/q' string")
    if isinstance(value, str):
        return parse_rational(value, "parameter")
    return Fraction(value)


@dataclass(frozen=True)
class DivisorFunction:
    """One member of the divisor-function zoo, tagged by ``kind``.

    kind: adams | jefferson | webster | hill | dean | stationary |
          powermean | custom
    ``c`` parameterizes stationary (f(t) = t + c, c in [0,1]); ``p`` and
    ``w`` parameterize the weighted power mean of t and t+1; ``table`` plus
    ``tail_offset`` define a custom function (f(t) = t + tail_offset past
    the table).  ``allow_approx`` opts in to the high-precision fallback
    for variants with no exact comparison.
    """

    kind: str
    c: Fraction | None = None
    p: Fraction | None = None
    w: Fraction | None = None
    table: tuple[Fraction, ...] | None = None
    tail_offset: Fraction | None = None
    allow_approx: bool = False

    def __post_init__(self):
        if self.kind == "stationary":
            if self.c is None or not 0 <= self.c <= 1:
                raise ValueError("stationary offset must lie in [0, 1]")
        elif self.kind == "powermean":
            if self.p is None or self.w is None:
                raise ValueError("power mean needs both p and w")
            if not 0 <= self.w <= 1:
                raise ValueError("power-mean weight must lie in [0, 1]")
        elif self.kind == "custom":
            if not self.table:
                raise ValueError("custom divisor function needs a value table")
            self._validate_table()
        elif self.kind not in ("adams", "jefferson", "webster", "hill", "dean"):
            raise ValueError(f"unknown divisor function kind {self.kind!r}")

    def _validate_table(self):
        prev = None
        for t, value in enumerate(self.table):
            if not t <= value <= t + 1:
                raise ValueError(f"custom table violates t <= f(t) <= t+1 at t={t}")
            if prev is not None and value <= prev:
                raise ValueError(f"custom table is not strictly increasing at t={t}")
            prev = value
        if self.tail_offset is not None:
            if not 0 <= self.tail_offset <= 1:
                raise ValueError("custom tail offset must lie in [0, 1]")
            t = len(self.table)
            if prev is not None and t + self.tail_offset <= prev:
                raise ValueError("custom tail is not strictly increasing at the seam")

    @property
    def name(self) -> str:
        if self.kind == "stationary":
            return f"stationary:{format_rational(self.c)}"
        if self.kind == "powermean":
            return f"powermean:{format_rational(self.p)},{format_rational(self.w)}"
        return self.kind

    # -- evaluation helpers --------------------------------------------------

    def rational_value(self, t: int) -> Fraction | None:
        """f(t) as an exact rational, or None when f(t) is irrational."""
        if t < 0:
            raise ValueError("divisor functions are defined for t >= 0")
        if self.kind == "adams":
            return Fraction(t)
        if self.kind == "jefferson":
            return Fraction(t + 1)
        if self.kind == "webster":
            return Fraction(2 * t + 1, 2)
        if self.kind == "dean":
            # t(t+1) / (t + 1/2); equals 0 at t = 0
            return Fraction(2 * t * (t + 1), 2 * t + 1)
        if self.kind == "stationary":
            return t + self.c
        if self.kind == "custom":
            if t < len(self.table):
                value = self.table[t]
            elif self.tail_offset is not None:
                value = t + self.tail_offset
            else:
                raise ValueError(
                    f"custom divisor table covers t < {len(self.table)}; got t={t}"
                )
            if not t <= value <= t + 1:
                raise ValueError(f"custom divisor violates t <= f(t) <= t+1 at t={t}")
            return value
        if self.kind == "hill":
            return Fraction(0) if t == 0 else None
        if self.kind == "powermean":
            if t == 0 and self.p <= 0:
                return Fraction(0)
            if self.p == 1 or self.w in (0, 1):
                return t + 1 - self.w  # the mean weighted w on t and 1-w on t+1
            return None
        raise AssertionError(self.kind)

    def order_form(self, t: int) -> tuple[int, int, int] | None:
        """Integers (num, den, e) with num/den = f(t)^e, so f(t)/w orders as
        num/(den*w^e), reversed when e < 0; num == 0 exactly when f(t) = 0.

        e is 1 for rational f, 2 for Hill, k for a power mean with integer
        exponent k and q for the geometric mean with weight a/q.  None when
        f(t) is irrational with no such form.
        """
        if self.kind == "hill":
            return t * (t + 1), 1, 2
        if self.kind == "powermean" and 0 < self.w < 1 and self.p != 1:
            a, q = self.w.numerator, self.w.denominator
            if self.p == 0:
                return t**a * (t + 1) ** (q - a), 1, q
            if self.p.denominator == 1:
                k = self.p.numerator
                if k > 0:
                    return a * t**k + (q - a) * (t + 1) ** k, q, k
                if t == 0:
                    return 0, 1, k
                # g(t) = a/(q t^|k|) + (q-a)/(q (t+1)^|k|)
                return a * (t + 1) ** -k + (q - a) * t**-k, q * (t * (t + 1)) ** -k, k
        value = self.rational_value(t)
        if value is None:
            return None
        return value.numerator, value.denominator, 1

    def key(self, t: int, w) -> tuple:
        """Sort key of f(t)/w, w > 0: keys order exactly as the scores do,
        and f(t) = 0 gives the least key (0, 0).  Without an exact form the
        key holds a high-precision decimal if ``allow_approx`` is set."""
        form = self.order_form(t)
        if form is None:
            if not self.allow_approx:
                raise PrecisionError(self.name)
            return (1, self._approx(1 / Fraction(w), t))
        num, den, e = form
        if num == 0:
            return (0, 0)
        value = Fraction(num, den) / Fraction(w) ** e
        return (1, value if e > 0 else -value)

    def _approx(self, coeff: Fraction, t: int) -> Decimal:
        bits = int(os.environ.get(PRECISION_ENV_VAR, DEFAULT_PRECISION_BITS))
        digits = max(28, math.ceil(bits * math.log10(2)) + 10)
        with localcontext() as ctx:
            ctx.prec = digits
            p, w = self.p, self.w
            dt = Decimal(t)
            dw = Decimal(w.numerator) / Decimal(w.denominator)
            dp = Decimal(p.numerator) / Decimal(p.denominator)
            mean = dw * dt**dp + (1 - dw) * (dt + 1) ** dp
            value = mean ** (1 / dp)
            dcoeff = Decimal(coeff.numerator) / Decimal(coeff.denominator)
            return dcoeff * value


ADAMS = DivisorFunction("adams")
JEFFERSON = DivisorFunction("jefferson")
WEBSTER = DivisorFunction("webster")
HILL = DivisorFunction("hill")
DEAN = DivisorFunction("dean")

TRADITIONAL = {
    "adams": ADAMS,
    "jefferson": JEFFERSON,
    "webster": WEBSTER,
    "hill": HILL,
    "dean": DEAN,
}


def stationary(c) -> DivisorFunction:
    return DivisorFunction("stationary", c=_as_rational(c))


def power_mean(p, w, allow_approx: bool = False) -> DivisorFunction:
    return DivisorFunction(
        "powermean", p=_as_rational(p), w=_as_rational(w), allow_approx=allow_approx
    )


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
            doc = json.load(handle)
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
    w_a, w_b = Fraction(w_a), Fraction(w_b)
    if w_a <= 0 or w_b <= 0:
        raise ValueError("weights must be strictly positive")
    a, b = f.key(t_a, w_a), f.key(t_b, w_b)
    return (a > b) - (a < b)


def _check_arguments(n: int, m: int, weights: Sequence) -> tuple[Fraction, ...]:
    if n < 1:
        raise ValueError("need at least one agent")
    if m < 0:
        raise ValueError("item count must be non-negative")
    ws = tuple(Fraction(w) for w in weights)
    if len(ws) != n:
        raise ValueError(f"need {n} weights, got {len(ws)}")
    if any(w <= 0 for w in ws):
        raise ValueError("weights must be strictly positive")
    return ws


def divisor_sequence(
    f: DivisorFunction, n: int, m: int, weights: Sequence
) -> PickingSequence:
    """Length-m sequence: each turn goes to the argmin of f(t_i)/w_i.

    Ties break in favor of the lowest agent index.  A heap of (key, agent)
    makes this O(m log n); an agent's next key is evaluated only while a
    turn remains, so f is evaluated at exactly the counts a turn compares.
    """
    ws = _check_arguments(n, m, weights)
    if n == 1 or m == 0:
        return PickingSequence((0,) * m)  # no turn compares two scores
    heap = [(f.key(0, w), i) for i, w in enumerate(ws)]
    heapq.heapify(heap)
    counts = [0] * n
    turns = []
    for turn in range(1, m + 1):
        best = heap[0][1]
        turns.append(best)
        counts[best] += 1
        if turn < m:
            heapq.heapreplace(heap, (f.key(counts[best], ws[best]), best))
    return PickingSequence(tuple(turns))


def quota_sequence(n: int, m: int, weights: Sequence) -> PickingSequence:
    """Jefferson-style argmin of (t_i+1)/w_i over agents below upper quota.

    For round k an agent is eligible iff t_i < w_i * k / sum(w) (strict);
    ties break to the lowest index.  Both tests run on the weights scaled
    to integers.  The eligibility set is provably non-empty each round; an
    empty set would mean an arithmetic bug.
    """
    ws = integer_weights(_check_arguments(n, m, weights))
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
    return PickingSequence(tuple(turns))


@dataclass(frozen=True)
class Rule:
    """A named allocation procedure usable by the harness and CLI.

    kind: divisor | quota | mwnw | round_robin | envy_cycle |
          adjusted_winner | fixed_sequence
    """

    kind: str
    divisor: DivisorFunction | None = None
    fixed: PickingSequence | None = None

    def __post_init__(self):
        if self.kind == "divisor" and self.divisor is None:
            raise ValueError("divisor rule needs a DivisorFunction")
        if self.kind == "fixed_sequence" and self.fixed is None:
            raise ValueError("fixed_sequence rule needs a PickingSequence")
        if self.kind not in (
            "divisor",
            "quota",
            "mwnw",
            "round_robin",
            "envy_cycle",
            "adjusted_winner",
            "fixed_sequence",
        ):
            raise ValueError(f"unknown rule kind {self.kind!r}")

    @property
    def name(self) -> str:
        if self.kind == "divisor":
            return self.divisor.name
        return {
            "quota": "quota",
            "mwnw": "mwnw",
            "round_robin": "rr",
            "envy_cycle": "ecycle",
            "adjusted_winner": "aw",
            "fixed_sequence": "fixed",
        }[self.kind]

    @property
    def is_sequence_based(self) -> bool:
        return self.kind in ("divisor", "quota", "round_robin", "fixed_sequence")


def divisor_rule(f: DivisorFunction) -> Rule:
    return Rule("divisor", divisor=f)


QUOTA_RULE = Rule("quota")
MWNW_RULE = Rule("mwnw")
ROUND_ROBIN_RULE = Rule("round_robin")
ENVY_CYCLE_RULE = Rule("envy_cycle")
ADJUSTED_WINNER_RULE = Rule("adjusted_winner")


def fixed_sequence_rule(sequence: PickingSequence) -> Rule:
    return Rule("fixed_sequence", fixed=sequence)


def rule_from_name(text: str) -> Rule:
    name = text.strip()
    simple = {
        "quota": QUOTA_RULE,
        "mwnw": MWNW_RULE,
        "rr": ROUND_ROBIN_RULE,
        "ecycle": ENVY_CYCLE_RULE,
        "aw": ADJUSTED_WINNER_RULE,
    }
    if name in simple:
        return simple[name]
    return divisor_rule(divisor_from_name(name))
