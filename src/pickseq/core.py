"""Exact data model for weighted fair division of indivisible items.

Every weight, utility, and score this package accepts or returns is an
arbitrary-precision rational (``fractions.Fraction``).  Floating point
never enters the data model: the constructions this library reproduces sit
on knife-edge inequalities, so every argmin tie must be decided exactly.
Each value is converted once, where it enters, by one helper that keeps a
Fraction as it is and raises ``TypeError`` on a float at every entry point.

Internally the hot paths compare integers instead.  ``integer_weights``
scales the weight vector by the lcm of its denominators and remembers the
last tuple it scaled, so the generator and the verifiers that one
pipeline hands the same weights convert them once between them; an
``Instance``'s ``scaled_utilities`` scale each agent's utility row by the
lcm of that row's denominators.  A per-agent scale is sound wherever an inequality
weighs one agent's values against that same agent's values; witnesses are
divided back into the same Fractions.  An ``Instance`` computes its integer
view (``scaled_weights``, ``scaled_utilities``, their ``scaled_columns``
and the ``preference_orders`` sorted from them) on first use and keeps it,
so every layer that reads one instance shares one conversion;
``allocation_utilities`` sums the scaled rows and divides once per agent,
and ``bundle_values`` sums every bundle for every agent by column.
``add_item``, ``add_agent`` and ``replace_weight`` extend the parent's
view and check only the values they add.  The view takes no part in
equality, hashing, ``repr`` or pickling.

Agents and items are 0-indexed in code and 1-indexed in serialized
documents and CLI output.  ``instance_to_document``,
``sequence_to_document`` and ``allocation_to_document`` give the documents
as dicts, which the ``serialize_*`` helpers and the CLI's JSON output dump.
"""

from __future__ import annotations

import json
import math
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import add, index
from typing import Collection, Iterable, Mapping, Sequence

_RATIONAL_RE = re.compile(r"^-?\d+(/-?\d+)?$")


class ParseError(ValueError):
    """A document failed validation.  Names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.reason = message
        super().__init__(f"{field}: {message}")


def parse_rational(value: object, field: str = "value") -> Fraction:
    """Parse an exact rational from an int or a ``"p/q"`` string.

    Floats are rejected: they would silently destroy exactness.
    """
    if isinstance(value, bool):
        raise ParseError(field, "expected an integer or a 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ParseError(field, f"not a valid rational literal: {value!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ParseError(field, "denominator must not be zero") from None
    raise ParseError(field, "expected an integer or a 'p/q' string")


def format_rational(q: Fraction) -> str:
    """Render ``p/q`` in lowest terms, or a bare integer when q == 1."""
    q = _as_rational(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _as_rational(value: object) -> Fraction:
    """The one conversion of a weight, utility or parameter to an exact
    rational.  A Fraction is returned as it is, since ``Fraction(q)`` for a
    Fraction q takes the slow ``numbers.Rational`` path; a string is read
    by ``parse_rational``, as ``p/q`` only (``"0.5"`` and ``"1e1"`` raise
    ``ParseError``); floats raise ``TypeError``."""
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise TypeError("floats are banned from the data model; use Fraction")
    return Fraction(value)


class _view:
    """``functools.cached_property`` without the lock that Python 3.11
    takes on each first use, about a microsecond per view of every fresh
    instance.  A view is a pure function of the fields, so threads that
    race to compute it compute equal values, and the one
    ``dict.setdefault`` keeps the first stored: every reader gets that one
    object, which a mutable view such as ``DivisorFunction``'s form table
    needs.
    """

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.__dict__.setdefault(self.name, self.func(instance))


@dataclass(frozen=True)
class Instance:
    """Agents with positive weights and an additive utility matrix.

    ``weights`` has one entry per agent; ``utilities[i][j]`` is agent i's
    utility for item j.  Immutable after construction.  The integer views
    (``scaled_weights``, ``scaled_utilities``, ``scaled_columns``,
    ``preference_orders``) are computed on first use and kept.
    """

    weights: tuple[Fraction, ...]
    utilities: tuple[tuple[Fraction, ...], ...]
    agent_names: tuple[str, ...] | None = None
    item_names: tuple[str, ...] | None = None

    def __post_init__(self):
        weights = tuple(_as_rational(w) for w in self.weights)
        utilities = tuple(tuple(_as_rational(u) for u in row) for row in self.utilities)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "utilities", utilities)
        if self.agent_names is not None:
            object.__setattr__(self, "agent_names", tuple(self.agent_names))
        if self.item_names is not None:
            object.__setattr__(self, "item_names", tuple(self.item_names))
        n = len(weights)
        if n < 1:
            raise ValueError("an instance needs at least one agent")
        _check_weights(weights)
        if len(utilities) != n:
            raise ValueError(f"utilities has {len(utilities)} rows for {n} agents")
        m = len(utilities[0]) if utilities else 0
        if any(len(row) != m for row in utilities):
            raise ValueError("utility rows must all have the same length")
        _check_utilities(u for row in utilities for u in row)
        if self.agent_names is not None and len(self.agent_names) != n:
            raise ValueError("agent_names length must equal the agent count")
        if self.item_names is not None and len(self.item_names) != m:
            raise ValueError("item_names length must equal the item count")

    @classmethod
    def _derived(cls, weights, utilities, **views) -> "Instance":
        """An unnamed instance of tuples of checked Fractions, holding the given views."""
        instance = object.__new__(cls)
        instance.__dict__.update(views, weights=weights, utilities=utilities,
                                 agent_names=None, item_names=None)
        return instance

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        return len(self.utilities[0]) if self.utilities else 0

    @_view
    def scaled_weights(self) -> tuple[int, ...]:
        """``integer_weights(self.weights)``, computed on first use."""
        return integer_weights(self.weights)

    @_view
    def scaled_utilities(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Per-agent scales s_i and integer rows s_i * u_i, computed on
        first use.

        s_i is the lcm of the denominators of agent i's row: the smallest
        positive integer that makes the row integral, 1 for an integer row.
        Comparisons between sums of one agent's utilities keep their order
        under the scale; comparisons across agents do not.
        """
        scales, rows = [], []
        for row in self.utilities:
            scale = math.lcm(*(u.denominator for u in row))
            scales.append(scale)
            rows.append(tuple(u.numerator * (scale // u.denominator) for u in row))
        return tuple(scales), tuple(rows)

    @_view
    def scaled_columns(self) -> tuple[tuple[int, ...], ...]:
        """Each item's scaled values, one per agent: the rows of
        ``scaled_utilities`` read by column, computed on first use."""
        return tuple(zip(*self.scaled_utilities[1]))

    @_view
    def preference_orders(self) -> tuple[tuple[int, ...], ...]:
        """Each agent's items by value descending, ties to the lower index,
        computed on first use: the order truthful picking takes them in."""
        # a stable descending sort keeps equal values in index order
        return tuple(
            tuple(sorted(range(self.m), key=row.__getitem__, reverse=True))
            for row in self.scaled_utilities[1]
        )

    def __getstate__(self) -> dict:
        # the cached views are derived data: pickle and copy the fields
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def add_item(self, column: Sequence[object]) -> "Instance":
        """Return the instance with one extra item appended (index m).  A scaled
        row is rescaled only when the new value's denominator does not divide
        its scale; the item follows every item worth as much in each order."""
        col = [_as_rational(u) for u in column]
        if len(col) != self.n:
            raise ValueError("extra item needs one utility per agent")
        _check_utilities(col)
        m, views = self.m, []
        for u, scale, row, order in zip(col, *self.scaled_utilities, self.preference_orders):
            if scale % u.denominator:
                factor = math.lcm(scale, u.denominator) // scale
                scale, row = scale * factor, tuple(v * factor for v in row)
            value = u.numerator * (scale // u.denominator)
            k = bisect_right(order, -value, key=lambda g: -row[g])
            views.append((scale, row + (value,), order[:k] + (m,) + order[k:]))
        scales, rows, orders = zip(*views)
        return Instance._derived(
            self.weights, tuple(row + (u,) for row, u in zip(self.utilities, col)),
            scaled_weights=self.scaled_weights, scaled_utilities=(scales, rows),
            preference_orders=orders,
        )

    def add_agent(self, weight: object, row: Sequence[object]) -> "Instance":
        """Return the instance with one extra agent appended (index n)."""
        urow = tuple(_as_rational(u) for u in row)
        if len(urow) != self.m:
            raise ValueError("extra agent needs one utility per item")
        weight = _as_rational(weight)
        _check_weights((weight,))
        _check_utilities(urow)
        alone = Instance._derived((weight,), (urow,))  # computes the new agent's views
        return Instance._derived(
            self.weights + (weight,), self.utilities + (urow,),
            scaled_utilities=tuple(map(add, self.scaled_utilities, alone.scaled_utilities)),
            preference_orders=self.preference_orders + alone.preference_orders,
        )

    def replace_weight(self, agent: int, weight: object) -> "Instance":
        """Return the instance with one agent's weight replaced, sharing its utility views."""
        if not 0 <= agent < self.n:
            raise ValueError(f"agent index {agent} out of range")
        weight = _as_rational(weight)
        _check_weights((weight,))
        return Instance._derived(
            self.weights[:agent] + (weight,) + self.weights[agent + 1:], self.utilities,
            scaled_utilities=self.scaled_utilities, preference_orders=self.preference_orders,
        )


def _check_weights(weights: Iterable[Fraction]) -> None:
    # a Fraction's denominator is positive: its sign is its numerator's
    if any(w.numerator <= 0 for w in weights):
        raise ValueError("weights must be strictly positive")


def _check_utilities(utilities: Iterable[Fraction]) -> None:
    if any(u.numerator < 0 for u in utilities):
        raise ValueError("utilities must be non-negative")


@dataclass(frozen=True)
class Allocation:
    """A partition of the items into one bundle per agent (0-indexed items).
    An item that is not an integer (a float, a string, a Fraction) raises
    ``TypeError``."""

    bundles: tuple[frozenset[int], ...]

    def __post_init__(self):
        bundles = tuple(frozenset(map(index, b)) for b in self.bundles)
        object.__setattr__(self, "bundles", bundles)
        seen: set[int] = set()
        for b in bundles:
            if any(g < 0 for g in b):
                raise ValueError("item indices must be non-negative")
            if seen & b:
                raise ValueError("bundles must be pairwise disjoint")
            seen |= b

    @classmethod
    def _trusted(cls, bundles: tuple[frozenset[int], ...]) -> "Allocation":
        """An allocation of pairwise disjoint frozensets of non-negative
        ints, stored without the constructor's checks."""
        allocation = object.__new__(cls)
        allocation.__dict__["bundles"] = bundles
        return allocation

    @property
    def n(self) -> int:
        return len(self.bundles)

    def items(self) -> frozenset[int]:
        return frozenset().union(*self.bundles)

    def validate_for(self, instance: Instance) -> None:
        """Raise unless this is a partition of the instance's item set."""
        if self.n != instance.n:
            raise ValueError(f"allocation has {self.n} bundles for {instance.n} agents")
        if self.items() != frozenset(range(instance.m)):
            raise ValueError("bundles must partition the full item set")


@dataclass(frozen=True)
class PickingSequence:
    """An ordered list of agent turns, one per item (0-indexed agents).  A
    turn that is not an integer (a float, a string, a Fraction) raises
    ``TypeError``."""

    turns: tuple[int, ...]

    def __post_init__(self):
        turns = tuple(map(index, self.turns))
        object.__setattr__(self, "turns", turns)
        if any(a < 0 for a in turns):
            raise ValueError("agent indices must be non-negative")

    @classmethod
    def _trusted(cls, turns: tuple[int, ...]) -> "PickingSequence":
        """A sequence of a tuple of non-negative ints, stored without the
        constructor's checks."""
        sequence = object.__new__(cls)
        sequence.__dict__["turns"] = turns
        return sequence

    def __len__(self) -> int:
        return len(self.turns)

    def __iter__(self):
        return iter(self.turns)


def turns_of(sequence: PickingSequence | Iterable[int]) -> tuple[int, ...]:
    """Accept a PickingSequence or a plain iterable of 0-indexed turns;
    a turn that is not an integer (a float, a string, a Fraction) raises
    ``TypeError``."""
    if isinstance(sequence, PickingSequence):
        return sequence.turns
    return tuple(map(index, sequence))


# The tuple integer_weights last scaled and its scaling, swapped as one
# tuple so that a thread never reads one vector's key with another's scaling.
_last_scaled: tuple[tuple, tuple[int, ...]] = ((), ())
_IMMUTABLE_WEIGHTS = frozenset((int, Fraction, str))


def integer_weights(weights: Iterable) -> tuple[int, ...]:
    """Positive rational weights scaled by the lcm of their denominators:
    integers in the same ratios, so weight comparisons become integer
    cross-multiplication.  A tuple of ints (``Instance.scaled_weights``,
    say) is its own scaling and is returned as it is.

    The tuple last scaled is remembered with its scaling, keyed by
    identity, so the generator and the verifiers that a pipeline hands one
    ``instance.weights`` convert it once between them.
    Only a tuple whose items are all ints, Fractions or strings is
    remembered, since nothing can change it, and only once its weights
    passed the positivity check; the entry holds the tuple itself, so its
    id is never reused while remembered.
    """
    global _last_scaled
    last = _last_scaled
    if weights is last[0]:
        return last[1]
    # the first weight's type turns a Fraction vector away without a scan
    if (type(weights) is tuple and weights and type(weights[0]) is int
            and all(type(w) is int for w in weights)):
        if min(weights) <= 0:
            raise ValueError("weights must be strictly positive")
        _last_scaled = (weights, weights)
        return weights
    converted = tuple(map(_as_rational, weights))
    _check_weights(converted)
    scale = math.lcm(*(w.denominator for w in converted))
    scaled = tuple(w.numerator * (scale // w.denominator) for w in converted)
    if type(weights) is tuple and _IMMUTABLE_WEIGHTS.issuperset(map(type, weights)):
        _last_scaled = (weights, scaled)
    return scaled


def agents_in_range(turns: Sequence[int], n: int) -> bool:
    """Whether every turn names one of the agents 0..n-1, by one C-level
    ``min`` and ``max``."""
    return not turns or (min(turns) >= 0 and max(turns) < n)


def bundle_utility(instance: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    """Exact sum of the agent's utilities over the bundle."""
    if not 0 <= agent < instance.n:
        raise ValueError(f"agent index {agent} out of range for n={instance.n}")
    total = Fraction(0)
    row = instance.utilities[agent]
    for g in bundle:
        if not 0 <= g < instance.m:
            raise ValueError(f"item index {g} out of range for m={instance.m}")
        total += row[g]
    return total


def bundle_values(instance: Instance, bundles: Sequence[Collection[int]]) -> list[tuple[int, ...]]:
    """Every agent's scaled value of every bundle: ``values[i][j]`` is
    agent i's scaled row summed over bundle j.  Each bundle is summed for
    all agents at once, by one C-level ``zip`` of its items'
    ``instance.scaled_columns`` and a ``sum`` per agent.
    """
    columns, zeros = instance.scaled_columns, [0] * instance.n
    # the columns are gathered in a list, not unpacked from a ``map``: a
    # tuple built from an iterator of unknown length is resized, and each
    # one freed joins CPython's tuple free lists, which held about 5 MB more
    # resident memory in a run of repeated 10-agent, 100-item checks
    sums = [list(map(sum, zip(*[columns[g] for g in bundle]))) if bundle else zeros
            for bundle in bundles]
    return list(zip(*sums))


def bundle_sums(instance: Instance, allocation: Allocation) -> tuple[list[int], tuple[int, ...]]:
    """Each agent's scaled row summed over the agent's own bundle, and the
    row scales: an agent's utility is the sum divided by the scale.  Raises
    unless the allocation partitions the instance's items."""
    allocation.validate_for(instance)
    scales, rows = instance.scaled_utilities
    return [sum(map(row.__getitem__, b)) for row, b in zip(rows, allocation.bundles)], scales


def allocation_utilities(instance: Instance, allocation: Allocation) -> tuple[Fraction, ...]:
    """Each agent's exact utility for her own bundle."""
    return tuple(map(Fraction, *bundle_sums(instance, allocation)))


# --- serialization ----------------------------------------------------------
#
# Instance file:  {"agents": [{"name"?, "weight": int|"p/q"}, ...],
#                  "items": int | [name, ...],
#                  "utilities": [[int|"p/q", ...], ...]}
# Allocation file: {"bundles": [[item, ...], ...]}   (1-indexed items)
# Sequence file:   {"turns": [agent, ...]}           (1-indexed agents)


def load_json(text: str, field: str):
    """``json.loads``, with each refusal a ParseError naming the field in
    pickseq's own words: ``json``'s messages and positions differ between
    Python versions, and the output must not."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise ParseError(field, "invalid JSON") from None
    except ValueError:
        # the one other refusal: an integer literal longer than the
        # interpreter's limit on int-from-string conversion
        limit = sys.get_int_max_str_digits()
        raise ParseError(field, f"integer literals are limited to {limit} digits") from None


def _load_document(document: str | Mapping) -> Mapping:
    if isinstance(document, Mapping):
        return document
    data = load_json(document, "document")
    if not isinstance(data, Mapping):
        raise ParseError("document", "top level must be a JSON object")
    return data


def parse_instance(document: str | Mapping) -> Instance:
    """Parse and validate an instance document (JSON text or dict)."""
    data = _load_document(document)
    agents = data.get("agents")
    if not isinstance(agents, list) or not agents:
        raise ParseError("agents", "must be a non-empty list")
    weights = []
    agent_names = []
    named_agents = False
    for idx, entry in enumerate(agents):
        field = f"agents[{idx}]"
        if not isinstance(entry, Mapping):
            entry = {"weight": entry}  # a bare weight
        w = parse_rational(entry.get("weight"), f"{field}.weight")
        name = entry.get("name")
        named_agents = named_agents or name is not None
        agent_names.append(f"agent {idx + 1}" if name is None else str(name))
        if w.numerator <= 0:
            raise ParseError(f"{field}.weight", "weight must be positive")
        weights.append(w)

    items = data.get("items")
    item_names: list[str] | None
    if isinstance(items, int) and not isinstance(items, bool):
        if items < 0:
            raise ParseError("items", "item count must be non-negative")
        m = items
        item_names = None
    elif isinstance(items, list):
        m = len(items)
        item_names = [str(x) for x in items]
    elif items is None:
        raise ParseError("items", "missing; give a count or a list of names")
    else:
        raise ParseError("items", "must be an integer count or a list of names")

    rows = data.get("utilities")
    if not isinstance(rows, list) or len(rows) != len(weights):
        raise ParseError("utilities", f"must be a list of {len(weights)} rows")
    utilities = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != m:
            raise ParseError(f"utilities[{i}]", f"must be a list of {m} values")
        parsed_row = []
        for j, cell in enumerate(row):
            u = parse_rational(cell, f"utilities[{i}][{j}]")
            if u.numerator < 0:
                raise ParseError(f"utilities[{i}][{j}]", "utility must be non-negative")
            parsed_row.append(u)
        utilities.append(tuple(parsed_row))

    return Instance(
        tuple(weights),
        tuple(utilities),
        agent_names=tuple(agent_names) if named_agents else None,
        item_names=tuple(item_names) if item_names is not None else None,
    )


def _rational_to_json(q: Fraction):
    return q.numerator if q.denominator == 1 else format_rational(q)


def instance_to_document(instance: Instance) -> dict:
    agents = []
    for i, w in enumerate(instance.weights):
        entry: dict = {"weight": _rational_to_json(w)}
        if instance.agent_names is not None:
            entry["name"] = instance.agent_names[i]
        agents.append(entry)
    items: object
    if instance.item_names is not None:
        items = list(instance.item_names)
    else:
        items = instance.m
    return {
        "agents": agents,
        "items": items,
        "utilities": [[_rational_to_json(u) for u in row] for row in instance.utilities],
    }


def serialize_instance(instance: Instance) -> str:
    return json.dumps(instance_to_document(instance), indent=2, sort_keys=True)


def _read_one_indexed(values: object, field: str, what: str) -> list[int]:
    """The 0-indexed ints of a list of 1-indexed ``what``s (agents or items)."""
    if not isinstance(values, list):
        raise ParseError(field, f"must be a list of 1-indexed {what}s")
    out = []
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ParseError(field, f"bad {what} index {v!r}; {what}s are 1-indexed")
        out.append(v - 1)
    return out


def parse_allocation(document: str | Mapping) -> Allocation:
    data = _load_document(document)
    bundles = data.get("bundles")
    if not isinstance(bundles, list):
        raise ParseError("bundles", "must be a list of item lists")
    return Allocation(tuple(frozenset(_read_one_indexed(bundle, f"bundles[{i}]", "item"))
                            for i, bundle in enumerate(bundles)))


def allocation_to_document(allocation: Allocation) -> dict:
    """``{"bundles": [[item, ...], ...]}``: each bundle's items 1-indexed, ascending."""
    return {"bundles": [sorted(g + 1 for g in b) for b in allocation.bundles]}


def serialize_allocation(allocation: Allocation) -> str:
    return json.dumps(allocation_to_document(allocation), indent=2, sort_keys=True)


def parse_sequence(document: str | Mapping | list) -> PickingSequence:
    """Parse ``{"turns": [...]}`` or a bare JSON list of 1-indexed agents."""
    if isinstance(document, str):
        stripped = document.strip()
        if stripped.startswith("["):
            document = load_json(stripped, "turns")
    if isinstance(document, list):
        turns = document
    else:
        data = _load_document(document)
        turns = data.get("turns")
    return PickingSequence(tuple(_read_one_indexed(turns, "turns", "agent")))


def sequence_to_document(sequence: PickingSequence) -> dict:
    """``{"turns": [agent, ...]}``: the agent of each turn, 1-indexed."""
    return {"turns": [a + 1 for a in sequence.turns]}


def serialize_sequence(sequence: PickingSequence) -> str:
    return json.dumps(sequence_to_document(sequence), sort_keys=True)
