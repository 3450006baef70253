"""The benchmark's four workloads: inputs drawn from a seed, and operations.

Each ``build_<workload>(seed)`` returns a fixed list of ``Op`` in the order
every run uses.  An operation receives a tracer and calls pickseq's public
functions only through ``tracer.call``, so the traced run records a span
around every call the benchmark makes into the program.  ``check_<workload>``
verifies the first output of each operation with ``checks``, which never
calls the program, and returns the indices of the operations whose output
is wrong.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from pickseq import core, executor, fairness, harness, methods, mwnw, repro

import checks
from checks import CheckError

ROOT = Path(__file__).resolve().parent.parent
NOTIONS = ("wef1", "wwef1", "wprop1")


class NoTracer:
    """Calls straight through; the untraced runs use this."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount):
        pass


@dataclass
class Tracer:
    """Spans [name, start, end, parent] and counts, kept in memory."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _open: list = field(default_factory=list)

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None]
        self.spans.append(span)
        self._open.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> list[tuple[str, float]]:
        """(name, self seconds) per span: its duration minus its children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return [(span[0], own[i]) for i, span in enumerate(self.spans)]


@dataclass
class Op:
    kind: str
    run: Callable
    data: dict


# --- apportion ----------------------------------------------------------------
# One operation builds one sequence and verifies it.  The families cover
# every exact comparison path in `methods`: rational f, Hill by squares,
# an integer-exponent power mean and the geometric mean by powering, and
# quota's eligibility test.

FAMILIES = (
    "adams", "jefferson", "webster", "hill", "dean",
    "stationary:1/3", "powermean:2,1/2", "powermean:0,1/3", "quota",
)
# Forty weight vectors: a run covers about twenty of them, so the cost of
# the verifiers, which stop at the first witness prefix, averages over many
# vectors and the median does not follow one seed's few draws.
APPORTION_AGENTS, APPORTION_TURNS, APPORTION_VECTORS = 10, 100, 40


def _apportion_op(family, instance, utilities):
    weights = instance.weights
    n, m = len(weights), len(utilities[0])
    divisor = None if family == "quota" else methods.rule_from_name(family).divisor

    def run(tr):
        if divisor is None:
            seq = tr.call("methods.quota_sequence", methods.quota_sequence, n, m, weights)
        else:
            seq = tr.call("methods.divisor_sequence", methods.divisor_sequence, divisor, n, m, weights)
        tr.count("methods.turns", m)
        out = {"sequence": seq}
        for notion in NOTIONS:
            verdict = tr.call(f"fairness.check_sequence.{notion}", fairness.check_sequence, notion, seq, weights)
            tr.count("fairness.prefixes", m if verdict.holds else verdict.witness.prefix)
            out[notion] = verdict
        out["quota"] = tr.call("fairness.check_quota_bounds", fairness.check_quota_bounds,
                               seq, weights, mode="every-prefix")
        allocation = tr.call("executor.execute", executor.execute, instance, seq)
        tr.count("executor.picks", m)
        out["allocation"] = allocation
        for notion in NOTIONS:
            out["allocation_" + notion] = tr.call(
                "fairness.check_allocation", fairness.check_allocation, notion, instance, allocation)
        return out

    return Op(family, run, {"family": family, "weights": weights, "utilities": utilities})


def build_apportion(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for _ in range(APPORTION_VECTORS):
        weights = tuple(Fraction(rng.randint(10_000, 5_000_000)) for _ in range(APPORTION_AGENTS))
        utilities = tuple(tuple(rng.randint(0, 100) for _ in range(APPORTION_TURNS))
                          for _ in range(APPORTION_AGENTS))
        instance = core.Instance(weights, utilities)
        ops.extend(_apportion_op(family, instance, utilities) for family in FAMILIES)
    return ops


def check_apportion(ops, outputs) -> set[int]:
    bad = set()
    for i, out in outputs.items():
        d = ops[i].data
        try:
            checks.check_apportion(d["family"], d["weights"], d["utilities"], out)
        except CheckError as exc:
            print(f"check failed: apportion op {i}: {exc}", file=sys.stderr)
            bad.add(i)
    return bad


# --- welfare ------------------------------------------------------------------
# One operation solves one instance of each of six classes (three weight
# kinds at two sizes) by exact MWNW, so every operation has the same
# make-up: single solves of one class vary several-fold with the drawn
# utilities, and a run of single solves moved p50 and p90 by 14% and 18%
# between seeds.  Consecutive operations form pairs whose instances differ
# by one raised weight.  The list is long enough that a run rarely repeats
# an instance.

WELFARE_CLASSES = (
    ("small", 3, 6), ("seat", 3, 6), ("share", 3, 6),
    ("small", 4, 5), ("seat", 4, 5), ("share", 4, 5),
)
WELFARE_PAIRS = 100


def _welfare_weights(rng, kind, n):
    """Small integers, seat counts, or three-digit vote shares p/1000."""
    if kind == "small":
        return [rng.randint(1, 9) for _ in range(n)], rng.randint(1, 3)
    if kind == "seat":
        return [rng.randint(10, 400) for _ in range(n)], rng.randint(1, 50)
    return [Fraction(rng.randint(100, 999), 1000) for _ in range(n)], Fraction(rng.randint(1, 100), 1000)


def _welfare_op(documents):
    """Parse the instances as `pickseq mwnw --instance` does; solve each."""
    kinds = [kind for kind, _, _ in WELFARE_CLASSES]
    instances = [core.parse_instance(json.dumps(d)) for d in documents]
    size = sum(inst.n ** inst.m for inst in instances)

    def run(tr):
        out = tuple(tr.call(f"mwnw.solve.{kind}_weights", mwnw.solve, inst)
                    for kind, inst in zip(kinds, instances))
        tr.count("mwnw.assignments", size)
        return out

    data = [{"weights": inst.weights, "utilities": [[int(u) for u in row] for row in inst.utilities]}
            for inst in instances]
    return Op("solve6", run, {"instances": data})


def build_welfare(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for _ in range(WELFARE_PAIRS):
        base, boosted, agents = [], [], []
        for kind, n, m in WELFARE_CLASSES:
            weights, raise_by = _welfare_weights(rng, kind, n)
            utilities = [[rng.randint(0, 10) for _ in range(m)] for _ in range(n)]
            agent = rng.randrange(n)
            raised = list(weights)
            raised[agent] += raise_by
            agents.append(agent)
            for target, ws in ((base, weights), (boosted, raised)):
                target.append({"agents": [{"weight": checks.fmt(w)} for w in ws],
                               "items": m, "utilities": utilities})
        ops.append(_welfare_op(base))
        ops.append(_welfare_op(boosted))
        ops[-1].data["boosted_agents"] = agents
    return ops


def check_welfare(ops, outputs) -> set[int]:
    """Every solve passes the local checks; pairs are weight-monotone; the
    first operation matches the exhaustive optimum on every class."""
    bad = set()

    def guarded(indices, fn, *args):
        try:
            fn(*args)
        except CheckError as exc:
            print(f"check failed: welfare ops {indices}: {exc}", file=sys.stderr)
            bad.update(indices)

    for i, allocations in outputs.items():
        for d, allocation in zip(ops[i].data["instances"], allocations):
            guarded([i], checks.check_welfare_local, d["weights"], d["utilities"], allocation)
            if i == 0:
                guarded([i], checks.check_welfare_optimum, d["weights"], d["utilities"], allocation)
        agents = ops[i].data.get("boosted_agents")
        if agents and i - 1 in outputs:
            for agent, d, before, after in zip(agents, ops[i].data["instances"], outputs[i - 1], allocations):
                guarded([i - 1, i], checks.check_weight_monotone, agent, d["utilities"], before, after)
    return bad


# --- scan ---------------------------------------------------------------------
# One operation scans one rule x property cell of the paper's summary table,
# or replays the stored counterexample that certifies a negative cell.
# Trial counts per kind keep every scan near the same size.

TABLE_RULES = ("adams", "jefferson", "webster", "hill", "dean", "quota", "mwnw")
PROPERTIES = ("resource", "population", "weight", "wef1", "wwef1", "wprop1")
# The paper's summary table: cells proved positive.
POSITIVE = {
    "adams": {"resource", "population", "wef1", "wwef1"},
    "jefferson": {"resource", "population", "wwef1", "wprop1"},
    "webster": {"resource", "population", "wwef1"},
    "hill": {"resource", "population", "wwef1"},
    "dean": {"resource", "population", "wwef1"},
    "quota": {"resource", "wwef1", "wprop1"},
    "mwnw": {"weight", "wwef1"},
}
# Negative cells the catalog certifies by a stored counterexample.
STORED = {
    **{(r, "weight"): f"p42-weightmon-{r}" for r in checks.TRADITIONAL},
    ("quota", "population"): "p52-quota-popmon",
    ("quota", "weight"): "p52-quota-weightmon",
    ("mwnw", "resource"): "p61-mnw-resmon",
    ("mwnw", "population"): "p61-mnw-popmon",
    ("mwnw", "wprop1"): "p63-mwnw-wprop1",
    ("mwnw", "wef1"): "mwnw-wef1",
}
SCAN_TRIALS = {"fairness": 250, "monotonicity": 80, "mwnw": 20}
SCAN_SIZE = {"fairness": (4, 8), "monotonicity": (4, 8), "mwnw": (3, 6)}
SCAN_SEEDS_PER_POSITIVE = 2
# Each round scans the whole table with fresh scan seeds, so a run samples
# several seeds per cell: a negative cell stops at its first counterexample,
# and its cost follows that seed.
SCAN_ROUNDS = 8


def _scan_op(rule, prop, kind, scan_seed):
    rule_obj = methods.rule_from_name(rule)
    trials, (max_n, max_m) = SCAN_TRIALS[kind], SCAN_SIZE[kind]

    def run(tr):
        report = tr.call(f"harness.scan.{kind}", harness.scan, rule_obj, prop,
                         max_n=max_n, max_m=max_m, trials=trials, seed=scan_seed)
        tr.count("harness.scan.trials", trials if report is None else report.trial + 1)
        return report

    return Op(kind, run, {"rule": rule, "property": prop, "positive": prop in POSITIVE[rule]})


def _replay_op(case_id):
    def run(tr):
        return tr.call("repro.run_case", repro.run_case, case_id)

    return Op("replay", run, {"case": case_id})


def _scan_round(rng) -> list[Op]:
    by_kind = {"fairness": [], "monotonicity": [], "mwnw": [], "replay": []}
    for rule in TABLE_RULES:
        for prop in PROPERTIES:
            if (rule, prop) in STORED:
                by_kind["replay"].append(_replay_op(STORED[(rule, prop)]))
                continue
            kind = "mwnw" if rule == "mwnw" else "fairness" if prop in NOTIONS else "monotonicity"
            copies = SCAN_SEEDS_PER_POSITIVE if prop in POSITIVE[rule] else 1
            for _ in range(copies):
                by_kind[kind].append(_scan_op(rule, prop, kind, rng.randrange(2**31)))
    # interleave the kinds so any prefix of the round mixes them
    ops = []
    queues = list(by_kind.values())
    while any(queues):
        for queue in queues:
            if queue:
                ops.append(queue.pop(0))
    return ops


def build_scan(seed: int) -> list[Op]:
    rng = random.Random(seed)
    return [op for _ in range(SCAN_ROUNDS) for op in _scan_round(rng)]


def check_scan(ops, outputs) -> set[int]:
    bad = set()
    for i, out in outputs.items():
        d = ops[i].data
        try:
            if ops[i].kind == "replay":
                checks.check_case(d["case"], out)
            else:
                checks.check_scan_report(d["rule"], d["property"], d["positive"], out)
        except CheckError as exc:
            print(f"check failed: scan op {i}: {exc}", file=sys.stderr)
            bad.add(i)
    return bad


# --- cli ----------------------------------------------------------------------
# One operation is one cold-start `python -m pickseq <subcommand> ... --json`,
# one child at a time.  Commands cover all eight subcommands.

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str]) -> tuple[int, bytes, int, float]:
    """Run one child to completion: (exit code, stdout, its peak RSS in KiB,
    its CPU seconds).  If the caller's time limit interrupts the wait, the
    child is killed and reaped before the exception propagates."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        stdout = proc.stdout.read()
        # reap with wait4, not Popen.wait, to read this child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    return os.waitstatus_to_exitcode(status), stdout, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def _cli_op(sub, argv, expect_fn):
    command = [sys.executable, "-m", "pickseq", sub, *argv, "--json"]

    def run(tr):
        return tr.call(f"cli.{sub}", run_child, command)

    return Op(sub, run, {"expect": expect_fn})


def _inline(document) -> str:
    return json.dumps(document, separators=(",", ":"))


def build_cli(seed: int) -> list[Op]:
    rng = random.Random(seed)
    w3 = [rng.randint(1, 9) for _ in range(3)]
    wtext = ",".join(map(str, w3))
    utilities = [[rng.randint(0, 10) for _ in range(6)] for _ in range(3)]
    instance = {"agents": [{"weight": w} for w in w3], "items": 6, "utilities": utilities}
    turns = [rng.randint(1, 3) for _ in range(10)]
    boost = rng.randint(1, 9)
    scan_seed = rng.randrange(10_000)
    case = sorted(checks.STORED_CASES)[rng.randrange(len(checks.STORED_CASES))]
    perturb = {"kind": "weight", "agent": 1, "weight": w3[0] + boost}
    return [
        _cli_op("sequence", ["--method", "webster", "--weights", wtext, "--turns", "12"],
                lambda p: checks.cli_sequence(p, "webster", w3, 12)),
        _cli_op("allocate", ["--method", "quota", "--instance", _inline(instance)],
                lambda p: checks.cli_allocate(p, "quota", w3, utilities)),
        _cli_op("fairness", ["--notion", "wef1", "--sequence", _inline(turns), "--weights", wtext],
                lambda p: checks.cli_fairness(p, "wef1", [t - 1 for t in turns], w3)),
        _cli_op("mwnw", ["--instance", _inline(instance)],
                lambda p: checks.cli_mwnw(p, w3, utilities)),
        _cli_op("mono", ["--property", "weight", "--rule", "jefferson", "--instance", _inline(instance),
                         "--perturb", _inline(perturb)],
                lambda p: checks.cli_mono_weight(p, "jefferson", w3, utilities, 0, w3[0] + boost)),
        _cli_op("consistency", ["--kind", "resource", "--method", "hill", "--weights", wtext, "--turns", "10"],
                lambda p: checks.cli_resource_consistency(p, "hill", w3, 10)),
        _cli_op("scan", ["--rule", "dean", "--property", "wef1", "--seed", str(scan_seed),
                         "--trials", "100", "--max-n", "3", "--max-m", "8"],
                lambda p: checks.cli_scan(p, "dean", "wef1")),
        _cli_op("repro", ["--case", case], lambda p: checks.cli_repro(p, case)),
    ]


def check_cli(ops, outputs) -> set[int]:
    bad = set()
    for i, (code, stdout, *_) in outputs.items():
        try:
            payload = json.loads(stdout)
            expected_code = ops[i].data["expect"](payload)
            checks.expect(code == expected_code, f"exit code {code}, expected {expected_code}")
        except (CheckError, LookupError, TypeError, ValueError) as exc:
            print(f"check failed: cli op {i} ({ops[i].kind}): {exc}", file=sys.stderr)
            bad.add(i)
    return bad


def same_output(kind: str, first, later) -> bool:
    """Later rounds must repeat the first output; for cli, byte for byte."""
    if kind == "cli":
        return first[:2] == later[:2]
    return first == later


# Rounds in each workload's list; a run attempts whole rounds only.
ROUNDS = {"apportion": APPORTION_VECTORS, "welfare": WELFARE_PAIRS, "scan": SCAN_ROUNDS, "cli": 1}
WORKLOADS = {
    "apportion": (build_apportion, check_apportion),
    "welfare": (build_welfare, check_welfare),
    "scan": (build_scan, check_scan),
    "cli": (build_cli, check_cli),
}
