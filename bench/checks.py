"""Reference computations and output checks, written apart from pickseq.

Nothing here calls pickseq's generators, verifiers, executor or solver.
Every expected value is recomputed from the textbook definition in exact
integer or rational arithmetic, so a fault in the program cannot hide
behind its own code.  Each ``check_*`` function raises ``CheckError`` with a
message naming the first disagreement and returns nothing otherwise.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# --- picking sequences --------------------------------------------------------

TRADITIONAL = ("adams", "jefferson", "webster", "hill", "dean")


def integer_weights(weights) -> tuple[int, ...]:
    """Weights scaled by the lcm of their denominators: same ratios, integers."""
    ws = [Fraction(w) for w in weights]
    scale = math.lcm(*(w.denominator for w in ws))
    return tuple(int(w * scale) for w in ws)


def _score(family: str):
    """score(t, w) = (num, den), integers with num/den ordered as f(t)/w for
    an integer weight w.

    Hill compares f(t)^2/w^2, an integer power mean p = k compares
    (f(t)/w)^k, and the geometric mean with weight a/q on t compares
    (f(t)/w)^q, so no root is ever taken.
    """
    kind, _, param = family.partition(":")
    if kind == "adams":
        return lambda t, w: (t, w)
    if kind == "jefferson":
        return lambda t, w: (t + 1, w)
    if kind == "webster":
        return lambda t, w: (2 * t + 1, 2 * w)
    if kind == "hill":
        return lambda t, w: (t * (t + 1), w * w)
    if kind == "dean":
        return lambda t, w: (2 * t * (t + 1), (2 * t + 1) * w)
    if kind == "stationary":
        c = Fraction(param)
        return lambda t, w: (c.denominator * t + c.numerator, c.denominator * w)
    if kind == "powermean":
        p, mix = (Fraction(x) for x in param.split(","))
        a, d = mix.numerator, mix.denominator
        if p == 0:
            return lambda t, w: (t**a * (t + 1) ** (d - a), w**d)
        if p.denominator == 1 and p > 0:
            k = p.numerator
            return lambda t, w: (a * t**k + (d - a) * (t + 1) ** k, d * w**k)
    raise ValueError(f"no reference for {family!r}")


def _argmin(candidates, score):
    """The candidate of least score(i) = (num, den); ties to the lowest index."""
    best, (b_num, b_den) = None, (0, 0)
    for i in candidates:
        num, den = score(i)
        if best is None or num * b_den < b_num * den:
            best, b_num, b_den = i, num, den
    return best


def ref_sequence(family: str, n: int, m: int, weights) -> tuple[int, ...]:
    """Turns of a divisor method (argmin of f(t)/w) or of the quota method.

    Ties go to the lowest index.  Quota restricts Jefferson's argmin of
    (t+1)/w to agents strictly below their upper quota k*w_i/sum(w).
    Scaling every weight by one constant keeps the order, so the weights
    are scaled to integers first.
    """
    ws = integer_weights(weights)
    counts = [0] * n
    turns = []
    if family == "quota":
        total = sum(ws)
        for k in range(1, m + 1):
            eligible = [i for i in range(n) if counts[i] * total < k * ws[i]]
            best = _argmin(eligible, lambda i: (counts[i] + 1, ws[i]))
            turns.append(best)
            counts[best] += 1
        return tuple(turns)
    score = _score(family)
    for _ in range(m):
        best = _argmin(range(n), lambda i: score(counts[i], ws[i]))
        turns.append(best)
        counts[best] += 1
    return tuple(turns)


def ref_sequence_verdict(notion: str, turns, weights):
    """(holds, prefix, i, j, lhs, rhs) by the prefix pick-count conditions.

    The first failure in order of prefix, then i, then j is reported; j is
    None for wprop1.  Each condition t_i/(t_j - 1) >= w_i/w_j (and, for
    wwef1's other side, (t_i + 1)/t_j >= w_i/w_j) is tested by integer
    cross-multiplication; lhs and rhs are returned as fractions.
    """
    ws = integer_weights(weights)
    n, total = len(ws), sum(ws)
    counts = [0] * n
    for k, picker in enumerate(turns, start=1):
        counts[picker] += 1
        if notion == "wprop1":
            for i in range(n):
                # t_i < k w_i / W - 1
                if (counts[i] + 1) * total < k * ws[i]:
                    return False, k, i, None, Fraction(counts[i]), Fraction(k * ws[i], total) - 1
            continue
        for i in range(n):
            for j in range(n):
                if i == j or counts[j] < 2:
                    continue
                if (notion == "wef1" or ws[i] >= ws[j]) and counts[i] * ws[j] < ws[i] * (counts[j] - 1):
                    return False, k, i, j, Fraction(counts[i], counts[j] - 1), Fraction(ws[i], ws[j])
                if notion == "wwef1" and ws[i] <= ws[j] and (counts[i] + 1) * ws[j] < ws[i] * counts[j]:
                    return False, k, i, j, Fraction(counts[i] + 1, counts[j]), Fraction(ws[i], ws[j])
    return True, None, None, None, None, None


def ref_quota_verdict(turns, weights):
    """(holds, prefix, agent): floor(k*w/W) <= t_i <= ceil(k*w/W) at every prefix."""
    ws = integer_weights(weights)
    total = sum(ws)
    counts = [0] * len(ws)
    for k, picker in enumerate(turns, start=1):
        counts[picker] += 1
        for i, w in enumerate(ws):
            # floor(q) <= t holds iff q < t + 1; t <= ceil(q) iff t - 1 < q
            if not (counts[i] - 1) * total < k * w < (counts[i] + 1) * total:
                return False, k, i
    return True, None, None


# --- allocations --------------------------------------------------------------


def ref_execute(utilities, turns) -> tuple[frozenset, ...]:
    """Truthful picking: each picker takes a most-valued remaining item, lowest index."""
    remaining = list(range(len(utilities[0])))
    bundles = [set() for _ in utilities]
    for agent in turns:
        row = utilities[agent]
        pick = max(remaining, key=lambda g: (row[g], -g))
        bundles[agent].add(pick)
        remaining.remove(pick)
    return tuple(frozenset(b) for b in bundles)


def ref_allocation_verdict(notion: str, weights, utilities, bundles) -> bool:
    """WEF1, WWEF1 or WPROP1 of an allocation, by cross-multiplying with
    integer-scaled weights."""
    ws = integer_weights(weights)
    n = len(ws)
    # value[i][j]: agent i's utility for bundle j; best[i][j]: its best item there
    value = [[sum((utilities[i][g] for g in b), 0) for b in bundles] for i in range(n)]
    best = [[max((utilities[i][g] for g in b), default=0) for b in bundles] for i in range(n)]
    if notion == "wprop1":
        total = sum(ws)
        everything = range(len(utilities[0]))
        for i in range(n):
            outside = max((utilities[i][g] for g in everything if g not in bundles[i]), default=0)
            # u_i(A_i) >= w_i / W * u_i(M) - max outside
            if (value[i][i] + outside) * total < ws[i] * sum(utilities[i]):
                return False
        return True
    for i in range(n):
        own = value[i][i]
        for j in range(n):
            if i == j:
                continue
            theirs, top = value[i][j], best[i][j]
            # u_i(A_i)/w_i >= (u_i(A_j) - top)/w_j
            if own * ws[j] >= (theirs - top) * ws[i]:
                continue
            # wwef1 may instead add the item to i's bundle
            if notion == "wwef1" and (own + top) * ws[j] >= theirs * ws[i]:
                continue
            return False
    return True


# --- maximum weighted Nash welfare --------------------------------------------


def weight_exponents(weights) -> tuple[int, ...]:
    ws = [Fraction(w) for w in weights]
    scale = math.lcm(*(w.denominator for w in ws))
    ints = [int(w * scale) for w in ws]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def welfare_key(utils, exps):
    """Order maximised by MWNW: larger positive support, then the
    lexicographically smaller support, then the weighted product over it."""
    support = tuple(i for i, u in enumerate(utils) if u > 0)
    product = math.prod(Fraction(utils[i]) ** exps[i] for i in support)
    return len(support), tuple(-i for i in support), product


def bundle_utilities(utilities, bundles):
    return tuple(sum((Fraction(utilities[i][g]) for g in b), Fraction(0))
                 for i, b in enumerate(bundles))


def ref_mwnw(weights, utilities) -> tuple[frozenset, ...]:
    """Exhaustive MWNW optimum; among equal scores the lexicographically
    smallest item-to-agent assignment wins.

    A float log product screens candidates; any comparison within 1e-6 of
    a tie is decided again exactly.
    """
    n, m = len(weights), len(utilities[0])
    exps = weight_exponents(weights)
    best_assign = best_key = None
    best_log = 0.0
    for assign in itertools.product(range(n), repeat=m):
        utils = [0] * n
        for g, a in enumerate(assign):
            utils[a] += utilities[a][g]
        support = tuple(i for i in range(n) if utils[i] > 0)
        head = (len(support), tuple(-i for i in support))
        if best_key is not None:
            if head < best_key[:2]:
                continue
            if head == best_key[:2]:
                log = sum(exps[i] * math.log(utils[i]) for i in support)
                if log < best_log - 1e-6:
                    continue
                if log <= best_log + 1e-6:
                    key = welfare_key(utils, exps)
                    if key <= best_key:
                        continue
        key = welfare_key(utils, exps)
        best_assign, best_key = assign, key
        best_log = sum(exps[i] * math.log(utils[i]) for i in support)
    return tuple(frozenset(g for g, a in enumerate(best_assign) if a == i) for i in range(n))


# --- checks, one per program output ------------------------------------------


def _bundles(allocation) -> tuple[frozenset, ...]:
    return tuple(frozenset(b) for b in allocation.bundles)


def check_sequence_verdict(verdict, notion, turns, weights) -> None:
    holds, prefix, i, j, _, _ = ref_sequence_verdict(notion, turns, weights)
    expect(verdict.holds == holds, f"{notion}: program says holds={verdict.holds}")
    if holds:
        return
    w = verdict.witness
    expect((w.prefix, w.agent, w.against) == (prefix, i, j),
           f"{notion}: witness {(w.prefix, w.agent, w.against)} != {(prefix, i, j)}")
    # the witness must re-evaluate to a strict failure in our arithmetic
    ws = [Fraction(x) for x in weights]
    counts = [list(turns[:prefix]).count(a) for a in range(len(ws))]
    if notion == "wprop1":
        expected = (Fraction(counts[i]), prefix * ws[i] / sum(ws) - 1)
        expect((w.lhs, w.rhs) == expected and w.lhs < w.rhs, f"{notion}: witness values")
        return
    ratio = ws[i] / ws[j]
    allowed = {Fraction(counts[i], counts[j] - 1)}
    if notion == "wwef1" and ws[i] <= ws[j]:
        allowed.add(Fraction(counts[i] + 1, counts[j]))
    expect(w.rhs == ratio and w.lhs in allowed and w.lhs < w.rhs, f"{notion}: witness values")


def check_allocation_verdict(verdict, notion, weights, utilities, bundles) -> None:
    holds = ref_allocation_verdict(notion, weights, utilities, bundles)
    expect(verdict.holds == holds, f"allocation {notion}: program says holds={verdict.holds}")
    if not holds:
        expect(verdict.witness.lhs < verdict.witness.rhs, f"allocation {notion}: witness not strict")


def check_apportion(family, weights, utilities, out) -> None:
    """Sequence, verdicts and allocation of one apportion operation."""
    n, m = len(weights), len(utilities[0])
    turns = tuple(out["sequence"].turns)
    expect(turns == ref_sequence(family, n, m, weights), f"{family}: sequence differs from reference")
    for notion in ("wef1", "wwef1", "wprop1"):
        check_sequence_verdict(out[notion], notion, turns, weights)
    # the paper's guarantees
    if family in TRADITIONAL or family == "quota":
        expect(out["wwef1"].holds, f"{family} must guarantee wwef1")
    if family == "adams":
        expect(out["wef1"].holds, "adams must guarantee wef1")
    if family in ("jefferson", "quota"):
        expect(out["wprop1"].holds, f"{family} must guarantee wprop1")
    holds, prefix, agent = ref_quota_verdict(turns, weights)
    quota = out["quota"]
    expect(quota.holds == holds, f"{family}: quota bounds holds={quota.holds}")
    if not holds:
        expect((quota.witness.prefix, quota.witness.agent) == (prefix, agent), "quota witness")
    if family == "quota":
        expect(holds, "quota must meet both quota bounds at every prefix")
    bundles = _bundles(out["allocation"])
    expect(bundles == ref_execute(utilities, turns), f"{family}: a pick was not a best remaining item")
    for notion in ("wef1", "wwef1", "wprop1"):
        verdict = out["allocation_" + notion]
        check_allocation_verdict(verdict, notion, weights, utilities, bundles)
        if out[notion].holds:
            expect(verdict.holds, f"{family}: sequence guarantees {notion} but allocation fails it")


def check_welfare_local(weights, utilities, allocation) -> None:
    """WWEF1 holds and no single-item move raises the welfare order."""
    bundles = _bundles(allocation)
    n, m = len(weights), len(utilities[0])
    expect(sorted(g for b in bundles for g in b) == list(range(m)), "bundles do not partition the items")
    expect(ref_allocation_verdict("wwef1", weights, utilities, bundles), "MWNW allocation fails wwef1")
    exps = weight_exponents(weights)
    base = welfare_key(bundle_utilities(utilities, bundles), exps)
    for src in range(n):
        for g in bundles[src]:
            for dst in range(n):
                if dst == src:
                    continue
                moved = list(bundles)
                moved[src] = bundles[src] - {g}
                moved[dst] = bundles[dst] | {g}
                key = welfare_key(bundle_utilities(utilities, moved), exps)
                expect(key <= base, f"moving item {g + 1} to agent {dst + 1} raises welfare")


def check_welfare_optimum(weights, utilities, allocation) -> None:
    expect(_bundles(allocation) == ref_mwnw(weights, utilities), "MWNW allocation is not the optimum")


def check_weight_monotone(agent, utilities, base_alloc, boosted_alloc) -> None:
    before = bundle_utilities(utilities, _bundles(base_alloc))[agent]
    after = bundle_utilities(utilities, _bundles(boosted_alloc))[agent]
    expect(after >= before, f"raising agent {agent + 1}'s weight lowered her utility {fmt(before)} -> {fmt(after)}")


# --- scan ---------------------------------------------------------------------


def check_scan_report(rule, prop, positive, report) -> None:
    """Positive cells find nothing; any counterexample re-verifies."""
    if positive:
        expect(report is None, f"{rule}/{prop}: the paper proves this cell, scan found trial {getattr(report, 'trial', '?')}")
        return
    if report is None:
        return
    inst = report.instance
    weights, n, m = inst.weights, len(inst.weights), len(inst.utilities[0])
    if prop in ("wef1", "wwef1", "wprop1"):
        turns = ref_sequence(rule, n, m, weights)
        expect(tuple(report.sequence.turns) == turns, f"{rule}/{prop}: counterexample sequence differs")
        holds, prefix, *_ = ref_sequence_verdict(prop, turns, weights)
        expect(not holds, f"{rule}/{prop}: counterexample sequence satisfies {prop}")
        # the 0/1 bridge instance realizes the failure as an allocation
        bundles = ref_execute(inst.utilities, turns)
        expect(not ref_allocation_verdict(prop, weights, inst.utilities, bundles),
               f"{rule}/{prop}: bridge allocation satisfies {prop}")
        return
    raise CheckError(f"{rule}/{prop}: no re-verification for a {prop} counterexample")


def _apply(rule, weights, utilities):
    if rule == "mwnw":
        return ref_mwnw(weights, utilities)
    return ref_execute(utilities, ref_sequence(rule, len(weights), len(utilities[0]), weights))


def _u1(rule, weights, utilities):
    return bundle_utilities(utilities, _apply(rule, weights, utilities))


def _one_indexed(bundles):
    return [sorted(g + 1 for g in b) for b in bundles]


F = Fraction
# Inputs of the stored counterexamples (paper sections 4.2, 5.2, 6.1, 6.3).
WEIGHTMON_TABLE = ((10, 9, 8, 7, 0), (7, 10, 8, 9, 0), (0, 7, 10, 8, 9))
WEIGHTMON = {
    "adams": ((F(9, 4), F(5, 4), F(1)), F(11, 4), True),
    "jefferson": ((F(9, 4), F(5, 4), F(1)), F(11, 4), False),
    "webster": ((F(33, 10), F(6, 5), F(1)), F(4), False),
    "hill": ((F(2), F(5, 4), F(1)), F(9, 4), True),
    "dean": ((F(2), F(5, 4), F(1)), F(5, 2), True),
}


def _weightmon(method):
    weights, boosted_w, extended = WEIGHTMON[method]
    rows = tuple(((100, 99, 98) if extended else ()) + r for r in WEIGHTMON_TABLE)
    m = len(rows[0])
    boosted = (boosted_w,) + weights[1:]
    seq_b, seq_a = ref_sequence(method, 3, m, weights), ref_sequence(method, 3, m, boosted)
    alloc_b, alloc_a = ref_execute(rows, seq_b), ref_execute(rows, seq_a)
    before = bundle_utilities(rows, alloc_b)[0]
    after = bundle_utilities(rows, alloc_a)[0]
    core = lambda alloc: sum(rows[0][g] for g in alloc[0] if g >= m - 5)
    return {
        "sequence_base": [a + 1 for a in seq_b],
        "sequence_boosted": [a + 1 for a in seq_a],
        "utility_base": fmt(before),
        "utility_boosted": fmt(after),
        "core_utility_base": fmt(core(alloc_b)),
        "core_utility_boosted": fmt(core(alloc_a)),
        "violated": after < before,
    }


def _quota_weightmon():
    weights = (F(9, 18), F(5, 18), F(4, 18))
    boosted = (F(11, 18),) + weights[1:]
    before, after = _u1("quota", weights, WEIGHTMON_TABLE)[0], _u1("quota", boosted, WEIGHTMON_TABLE)[0]
    return {
        "sequence_base": [a + 1 for a in ref_sequence("quota", 3, 5, weights)],
        "sequence_boosted": [a + 1 for a in ref_sequence("quota", 3, 5, boosted)],
        "utility_base": fmt(before),
        "utility_boosted": fmt(after),
        "violated": after < before,
    }


def _population(rule, weights, rows, new_weight, new_row, seq_keys):
    grown_w, grown_rows = weights + (new_weight,), rows + (new_row,)
    before, after = _u1(rule, weights, rows), _u1(rule, grown_w, grown_rows)
    out = {
        "utility_base": fmt(before[0]),
        "utility_modified": fmt(after[0]),
        "violated": any(after[i] > before[i] for i in range(len(weights))),
    }
    if seq_keys:
        out["sequence_base"] = [a + 1 for a in ref_sequence(rule, len(weights), len(rows[0]), weights)]
        out["sequence_modified"] = [a + 1 for a in ref_sequence(rule, len(grown_w), len(rows[0]), grown_w)]
    else:
        out["bundles_base"] = _one_indexed(_apply(rule, weights, rows))
        out["bundles_modified"] = _one_indexed(_apply(rule, grown_w, grown_rows))
    return out


def _mnw_resmon():
    weights, rows = (F(1), F(1)), ((3, 2, 2), (2, 2, 1))
    grown = tuple(r + (x,) for r, x in zip(rows, (2, 1)))
    before, after = _u1("mwnw", weights, rows), _u1("mwnw", weights, grown)
    return {
        "bundles_base": _one_indexed(ref_mwnw(weights, rows)),
        "bundles_modified": _one_indexed(ref_mwnw(weights, grown)),
        "utility_base": fmt(before[0]),
        "utility_modified": fmt(after[0]),
        "violated": any(after[i] < before[i] for i in range(2)),
    }


def _mwnw_wprop1():
    weights, rows = (F(8, 10), F(1, 10), F(1, 10)), ((1, 1, 1),) * 3
    bundles = ref_mwnw(weights, rows)
    u = bundle_utilities(rows, bundles)[0]
    outside = max((rows[0][g] for g in range(3) if g not in bundles[0]), default=0)
    rhs = weights[0] / sum(weights) * 3 - outside
    holds = ref_allocation_verdict("wprop1", weights, rows, bundles)
    return {
        "bundle_sizes": [len(b) for b in bundles],
        "wprop1_holds": holds,
        "lhs": None if holds else fmt(u),
        "rhs": None if holds else fmt(rhs),
    }


def _mwnw_wef1():
    weights, rows = (F(1), F(4)), ((1,) * 7, (1,) * 7)
    bundles = ref_mwnw(weights, rows)
    wef1 = ref_allocation_verdict("wef1", weights, rows, bundles)
    own, theirs = len(bundles[0]), len(bundles[1])
    return {
        "bundle_sizes": [own, theirs],
        "wef1_holds": wef1,
        "wwef1_holds": ref_allocation_verdict("wwef1", weights, rows, bundles),
        "lhs": None if wef1 else fmt(F(own) / weights[0]),
        "rhs": None if wef1 else fmt(F(theirs - 1) / weights[1]),
    }


STORED_CASES = {
    **{f"p42-weightmon-{m}": (lambda m=m: _weightmon(m)) for m in TRADITIONAL},
    "p52-quota-popmon": lambda: _population(
        "quota", (F(1, 2), F(1, 6), F(1, 6), F(1, 6)),
        ((2, 1, 0), (0, 1, 0), (0, 1, 0), (0, 1, 0)), F(1, 3), (0, 0, 1), True),
    "p52-quota-weightmon": _quota_weightmon,
    "p61-mnw-resmon": _mnw_resmon,
    "p61-mnw-popmon": lambda: _population(
        "mwnw", (F(1), F(1)), ((2, 3, 3, 2), (1, 2, 1, 3)), F(1), (2, 1, 1, 3), False),
    "p63-mwnw-wprop1": _mwnw_wprop1,
    "mwnw-wef1": _mwnw_wef1,
}

# The claim each stored case certifies: a monotonicity violation or a
# fairness failure.
_CLAIM = {"p63-mwnw-wprop1": "wprop1_holds", "mwnw-wef1": "wef1_holds"}


def check_case(case_id: str, result) -> None:
    """A replayed catalog case matches our recomputation and shows the failure."""
    expected = STORED_CASES[case_id]()
    expect(result.actual == expected, f"{case_id}: replay {result.actual} != {expected}")
    claim = _CLAIM.get(case_id, "violated")
    expect(expected[claim] is (claim == "violated"), f"{case_id}: the paper's counterexample does not fail")


# --- cli payloads: each returns the documented exit code it expects -------------


def _weights_of(document):
    return [Fraction(a["weight"]) for a in document["agents"]]


def cli_sequence(payload, method, weights, turns) -> int:
    expected = [a + 1 for a in ref_sequence(method, len(weights), turns, weights)]
    expect(payload == {"method": method, "turns": expected}, f"sequence payload {payload}")
    return 0


def cli_allocate(payload, method, weights, utilities) -> int:
    turns = ref_sequence(method, len(weights), len(utilities[0]), weights)
    bundles = ref_execute(utilities, turns)
    expected = {
        "method": method,
        "bundles": _one_indexed(bundles),
        "utilities": [fmt(u) for u in bundle_utilities(utilities, bundles)],
        "sequence": [a + 1 for a in turns],
    }
    expect(payload == expected, f"allocate payload {payload} != {expected}")
    return 0


def cli_fairness(payload, notion, turns, weights) -> int:
    holds, prefix, i, j, lhs, rhs = ref_sequence_verdict(notion, turns, weights)
    expected = {"notion": notion, "holds": holds}
    if not holds:
        expected["witness"] = {"prefix": prefix, "agent": i + 1, "lhs": fmt(lhs), "rhs": fmt(rhs)}
        if j is not None:
            expected["witness"]["against"] = j + 1
    expect(payload == expected, f"fairness payload {payload} != {expected}")
    return 0 if holds else 1


def cli_mwnw(payload, weights, utilities) -> int:
    bundles = ref_mwnw(weights, utilities)
    expected = {"bundles": _one_indexed(bundles),
                "utilities": [fmt(u) for u in bundle_utilities(utilities, bundles)]}
    expect(payload == expected, f"mwnw payload {payload} != {expected}")
    return 0


def cli_mono_weight(payload, rule, weights, utilities, agent, new_weight) -> int:
    boosted = list(weights)
    boosted[agent] = new_weight
    before, after = _u1(rule, weights, utilities), _u1(rule, boosted, utilities)
    violated = after[agent] < before[agent]
    expected = {
        "rule": rule,
        "property": "weight",
        "violated": violated,
        "violating_agents": [agent + 1] if violated else [],
        "utilities": [{"agent": i + 1, "before": fmt(b), "after": fmt(a)}
                      for i, (b, a) in enumerate(zip(before, after))],
    }
    expect(payload == expected, f"mono payload {payload} != {expected}")
    return 1 if violated else 0


def cli_resource_consistency(payload, method, weights, turns) -> int:
    short = ref_sequence(method, len(weights), turns, weights)
    grown = ref_sequence(method, len(weights), turns + 1, weights)
    consistent = grown[:turns] == short
    expect(consistent, f"{method}: a divisor sequence must prefix its one-longer sequence")
    expected = {"kind": "resource", "method": method, "turns": turns, "consistent": consistent}
    expect(payload == expected, f"consistency payload {payload} != {expected}")
    return 0


def cli_scan(payload, rule, prop) -> int:
    if not payload["found"]:
        return 0
    weights = _weights_of(payload["instance"])
    m = payload["instance"]["items"]
    turns = ref_sequence(rule, len(weights), m, weights)
    expect(payload["sequence"] == [a + 1 for a in turns], "scan counterexample sequence differs")
    holds, prefix, i, j, lhs, rhs = ref_sequence_verdict(prop, turns, weights)
    expect(not holds, f"scan counterexample satisfies {prop}")
    witness = payload["verdict"]["witness"]
    expect((witness["prefix"], witness["agent"], witness.get("against")) == (prefix, i + 1, j + 1 if j is not None else None),
           "scan witness position differs")
    expect((witness["lhs"], witness["rhs"]) == (fmt(lhs), fmt(rhs)), "scan witness values differ")
    return 1


def cli_repro(payload, case_id) -> int:
    expected = STORED_CASES[case_id]()
    expect(payload["id"] == case_id and payload["passed"] is True, f"repro {case_id} did not pass")
    expect(payload["actual"] == expected, f"repro {case_id}: {payload['actual']} != {expected}")
    return 0
