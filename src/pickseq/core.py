"""Exact data model for weighted fair division of indivisible items.

Every weight, utility, and score in this package is an arbitrary-precision
rational (``fractions.Fraction``).  Floating point never enters the data
model: the constructions this library reproduces sit on knife-edge
inequalities, so every argmin tie must be decided exactly.

Agents and items are 0-indexed in code and 1-indexed in serialized
documents and CLI output.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Rational = Fraction

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
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _as_rational(value: object) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are banned from the data model; use Fraction")
    return Fraction(value)


@dataclass(frozen=True)
class Instance:
    """Agents with positive weights and an additive utility matrix.

    ``weights`` has one entry per agent; ``utilities[i][j]`` is agent i's
    utility for item j.  Immutable after construction.
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
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be strictly positive")
        if len(utilities) != n:
            raise ValueError(f"utilities has {len(utilities)} rows for {n} agents")
        m = len(utilities[0]) if utilities else 0
        if any(len(row) != m for row in utilities):
            raise ValueError("utility rows must all have the same length")
        if any(u < 0 for row in utilities for u in row):
            raise ValueError("utilities must be non-negative")
        if self.agent_names is not None and len(self.agent_names) != n:
            raise ValueError("agent_names length must equal the agent count")
        if self.item_names is not None and len(self.item_names) != m:
            raise ValueError("item_names length must equal the item count")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        return len(self.utilities[0]) if self.utilities else 0

    @property
    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def add_item(self, column: Sequence[object]) -> "Instance":
        """Return the instance with one extra item appended (index m)."""
        col = [_as_rational(u) for u in column]
        if len(col) != self.n:
            raise ValueError("extra item needs one utility per agent")
        utilities = tuple(row + (col[i],) for i, row in enumerate(self.utilities))
        return Instance(self.weights, utilities)

    def add_agent(self, weight: object, row: Sequence[object]) -> "Instance":
        """Return the instance with one extra agent appended (index n)."""
        urow = tuple(_as_rational(u) for u in row)
        if len(urow) != self.m:
            raise ValueError("extra agent needs one utility per item")
        return Instance(self.weights + (_as_rational(weight),), self.utilities + (urow,))

    def replace_weight(self, agent: int, weight: object) -> "Instance":
        if not 0 <= agent < self.n:
            raise ValueError(f"agent index {agent} out of range")
        w = list(self.weights)
        w[agent] = _as_rational(weight)
        return Instance(tuple(w), self.utilities)


@dataclass(frozen=True)
class Allocation:
    """A partition of the items into one bundle per agent (0-indexed items)."""

    bundles: tuple[frozenset[int], ...]

    def __post_init__(self):
        bundles = tuple(frozenset(int(g) for g in b) for b in self.bundles)
        object.__setattr__(self, "bundles", bundles)
        seen: set[int] = set()
        for b in bundles:
            if any(g < 0 for g in b):
                raise ValueError("item indices must be non-negative")
            if seen & b:
                raise ValueError("bundles must be pairwise disjoint")
            seen |= b


    @property
    def n(self) -> int:
        return len(self.bundles)

    def items(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for b in self.bundles:
            out |= b
        return out

    def validate_for(self, instance: Instance) -> None:
        """Raise unless this is a partition of the instance's item set."""
        if self.n != instance.n:
            raise ValueError(f"allocation has {self.n} bundles for {instance.n} agents")
        if self.items() != frozenset(range(instance.m)):
            raise ValueError("bundles must partition the full item set")


@dataclass(frozen=True)
class PickingSequence:
    """An ordered list of agent turns, one per item (0-indexed agents)."""

    turns: tuple[int, ...]

    def __post_init__(self):
        turns = tuple(int(a) for a in self.turns)
        object.__setattr__(self, "turns", turns)
        if any(a < 0 for a in turns):
            raise ValueError("agent indices must be non-negative")

    def __len__(self) -> int:
        return len(self.turns)

    def __iter__(self):
        return iter(self.turns)


def turns_of(sequence: PickingSequence | Iterable[int]) -> tuple[int, ...]:
    """Accept a PickingSequence or a plain iterable of 0-indexed turns."""
    if isinstance(sequence, PickingSequence):
        return sequence.turns
    return tuple(int(a) for a in sequence)


def integer_weights(weights: Iterable) -> tuple[int, ...]:
    """Positive rational weights scaled by the lcm of their denominators:
    integers in the same ratios, so weight comparisons become integer
    cross-multiplication."""
    weights = tuple(Fraction(w) for w in weights)
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be strictly positive")
    scale = math.lcm(*(w.denominator for w in weights))
    return tuple(w.numerator * (scale // w.denominator) for w in weights)


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


def allocation_utilities(instance: Instance, allocation: Allocation) -> tuple[Fraction, ...]:
    """Each agent's exact utility for her own bundle."""
    allocation.validate_for(instance)
    return tuple(
        bundle_utility(instance, i, allocation.bundles[i]) for i in range(instance.n)
    )


# --- serialization ----------------------------------------------------------
#
# Instance file:  {"agents": [{"name"?, "weight": int|"p/q"}, ...],
#                  "items": int | [name, ...],
#                  "utilities": [[int|"p/q", ...], ...]}
# Allocation file: {"bundles": [[item, ...], ...]}   (1-indexed items)
# Sequence file:   {"turns": [agent, ...]}           (1-indexed agents)


def _load_document(document: str | Mapping) -> Mapping:
    if isinstance(document, Mapping):
        return document
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError("document", f"invalid JSON: {exc}") from None
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
        if isinstance(entry, Mapping):
            w = parse_rational(entry.get("weight"), f"{field}.weight")
            name = entry.get("name")
            if name is not None:
                named_agents = True
                agent_names.append(str(name))
            else:
                agent_names.append(f"agent {idx + 1}")
        else:
            w = parse_rational(entry, f"{field}.weight")
            agent_names.append(f"agent {idx + 1}")
        if w <= 0:
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
            if u < 0:
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


def parse_allocation(document: str | Mapping) -> Allocation:
    data = _load_document(document)
    bundles = data.get("bundles")
    if not isinstance(bundles, list):
        raise ParseError("bundles", "must be a list of item lists")
    parsed = []
    for i, bundle in enumerate(bundles):
        if not isinstance(bundle, list):
            raise ParseError(f"bundles[{i}]", "must be a list of 1-indexed items")
        out = []
        for g in bundle:
            if not isinstance(g, int) or isinstance(g, bool) or g < 1:
                raise ParseError(f"bundles[{i}]", f"bad item index {g!r}; items are 1-indexed")
            out.append(g - 1)
        parsed.append(frozenset(out))
    return Allocation(tuple(parsed))


def serialize_allocation(allocation: Allocation) -> str:
    doc = {"bundles": [sorted(g + 1 for g in b) for b in allocation.bundles]}
    return json.dumps(doc, indent=2, sort_keys=True)


def parse_sequence(document: str | Mapping | list) -> PickingSequence:
    """Parse ``{"turns": [...]}`` or a bare JSON list of 1-indexed agents."""
    if isinstance(document, str):
        stripped = document.strip()
        if stripped.startswith("["):
            try:
                document = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ParseError("turns", f"invalid JSON: {exc}") from None
    if isinstance(document, list):
        turns = document
    else:
        data = _load_document(document)
        turns = data.get("turns")
    if not isinstance(turns, list):
        raise ParseError("turns", "must be a list of 1-indexed agents")
    out = []
    for a in turns:
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise ParseError("turns", f"bad agent index {a!r}; agents are 1-indexed")
        out.append(a - 1)
    return PickingSequence(tuple(out))


def serialize_sequence(sequence: PickingSequence) -> str:
    return json.dumps({"turns": [a + 1 for a in sequence.turns]}, sort_keys=True)
