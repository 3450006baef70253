"""Each output check accepts the program's real output and rejects a planted fault.

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from pickseq import core, fairness, harness, methods, repro  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

NO = workloads.NoTracer()


def apportion_output(seed=5, family="webster"):
    op = next(o for o in workloads.build_apportion(seed) if o.kind == family)
    return op, op.run(NO)


def run_check(op, out):
    checks.check_apportion(op.data["family"], op.data["weights"], op.data["utilities"], out)


@pytest.mark.parametrize("family", workloads.FAMILIES)
def test_apportion_accepts_program_output(family):
    run_check(*apportion_output(family=family))


def test_apportion_rejects_jefferson_for_webster():
    op, out = apportion_output()
    d = op.data
    out["sequence"] = methods.divisor_sequence(methods.JEFFERSON, 10, 100, d["weights"])
    with pytest.raises(CheckError, match="sequence differs"):
        run_check(op, out)


def test_apportion_rejects_broken_paper_guarantee():
    op, out = apportion_output()
    out["wwef1"] = fairness.FairnessVerdict(
        "wwef1", False, fairness.Witness(lhs=Fraction(0), rhs=Fraction(1), agent=0, against=1, prefix=2))
    with pytest.raises(CheckError):
        run_check(op, out)


def test_apportion_rejects_witness_that_is_no_failure():
    # Webster at these weights fails wprop1 at prefix 5; swap the witness sides
    weights = (Fraction(1), Fraction(1), Fraction(1), Fraction(5))
    seq = methods.divisor_sequence(methods.WEBSTER, 4, 8, weights)
    verdict = fairness.check_sequence("wprop1", seq, weights)
    assert not verdict.holds
    checks.check_sequence_verdict(verdict, "wprop1", seq.turns, weights)
    w = verdict.witness
    swapped = dataclasses.replace(verdict, witness=dataclasses.replace(w, lhs=w.rhs, rhs=w.lhs))
    with pytest.raises(CheckError, match="witness values"):
        checks.check_sequence_verdict(swapped, "wprop1", seq.turns, weights)


def test_apportion_rejects_a_pick_that_is_not_the_best():
    op, out = apportion_output()
    bundles = [set(b) for b in out["allocation"].bundles]
    a, b = next(iter(bundles[0])), next(iter(bundles[1]))
    bundles[0].symmetric_difference_update({a, b})
    bundles[1].symmetric_difference_update({a, b})
    out["allocation"] = core.Allocation(tuple(frozenset(x) for x in bundles))
    with pytest.raises(CheckError, match="best remaining item"):
        run_check(op, out)


def test_apportion_rejects_wrong_quota_verdict():
    op, out = apportion_output(family="quota")
    out["quota"] = fairness.FairnessVerdict(
        "quota", False, fairness.Witness(lhs=Fraction(0), rhs=Fraction(1), agent=0, prefix=1))
    with pytest.raises(CheckError):
        run_check(op, out)


def welfare_ops(seed=3):
    ops = workloads.build_welfare(seed)[:2]
    return ops, {i: op.run(NO) for i, op in enumerate(ops)}


def test_welfare_accepts_program_output():
    ops, outputs = welfare_ops()
    assert workloads.check_welfare(ops, outputs) == set()


def test_welfare_rejects_a_suboptimal_allocation():
    ops, outputs = welfare_ops()
    d = ops[0].data["instances"][0]
    bundles = [set(b) for b in outputs[0][0].bundles]
    src = next(i for i, b in enumerate(bundles) if b)
    bundles[(src + 1) % len(bundles)].add(bundles[src].pop())
    worse = core.Allocation(tuple(frozenset(b) for b in bundles))
    with pytest.raises(CheckError):
        checks.check_welfare_optimum(d["weights"], d["utilities"], worse)
    outputs[0] = (worse,) + outputs[0][1:]
    assert 0 in workloads.check_welfare(ops, outputs)


def test_welfare_rejects_a_lost_boost():
    ops, outputs = welfare_ops()
    agent = ops[1].data["boosted_agents"][0]
    before = outputs[0][0]
    robbed = [set(b) for b in before.bundles]
    taken = robbed[agent]
    robbed[agent] = set()
    robbed[(agent + 1) % len(robbed)] |= taken
    outputs[1] = (core.Allocation(tuple(frozenset(b) for b in robbed)),) + outputs[1][1:]
    assert {0, 1} <= workloads.check_welfare(ops, outputs)


def test_welfare_rejects_an_improvable_allocation():
    weights, utilities = (Fraction(1), Fraction(1)), [[5, 1, 1], [1, 5, 1]]
    bad = core.Allocation((frozenset({0, 1}), frozenset({2})))
    with pytest.raises(CheckError, match="raises welfare"):
        checks.check_welfare_local(weights, utilities, bad)


def test_welfare_rejects_a_weight_monotonicity_failure():
    utilities = [[3, 3], [3, 3]]
    both = core.Allocation((frozenset({0, 1}), frozenset()))
    none = core.Allocation((frozenset(), frozenset({0, 1})))
    with pytest.raises(CheckError, match="lowered"):
        checks.check_weight_monotone(0, utilities, both, none)


def scan_ops(seed=2):
    ops = workloads.build_scan(seed)
    return ops, {i: op.run(NO) for i, op in enumerate(ops[:8])}


def test_scan_accepts_program_output():
    ops, outputs = scan_ops()
    assert workloads.check_scan(ops, outputs) == set()


def test_scan_rejects_a_violation_on_a_proved_cell():
    report = harness.scan(methods.rule_from_name("webster"), "wef1", max_n=3, max_m=8, trials=500, seed=1)
    assert report is not None
    with pytest.raises(CheckError, match="proves"):
        checks.check_scan_report("adams", "wef1", True, report)


def test_scan_rejects_a_counterexample_that_does_not_reverify():
    report = harness.scan(methods.rule_from_name("dean"), "wef1", max_n=3, max_m=8, trials=500, seed=1)
    assert report is not None
    checks.check_scan_report("dean", "wef1", False, report)
    fake = dataclasses.replace(report, sequence=core.PickingSequence(tuple(reversed(report.sequence.turns))))
    with pytest.raises(CheckError):
        checks.check_scan_report("dean", "wef1", False, fake)


@pytest.mark.parametrize("case_id", sorted(checks.STORED_CASES))
def test_replay_accepts_and_rejects(case_id):
    result = repro.run_case(case_id)
    checks.check_case(case_id, result)
    key = sorted(result.actual)[0]
    altered = dict(result.actual, **{key: "tampered"})
    with pytest.raises(CheckError):
        checks.check_case(case_id, dataclasses.replace(result, actual=altered))


def cli_outputs(seed=4):
    ops = workloads.build_cli(seed)
    return ops, {i: op.run(NO) for i, op in enumerate(ops)}


def test_cli_accepts_program_output_and_rejects_faults():
    ops, outputs = cli_outputs()
    assert workloads.check_cli(ops, outputs) == set()
    for i, (code, stdout, *usage) in list(outputs.items()):
        faulty = dict(outputs)
        faulty[i] = (3, stdout, *usage)  # an undocumented exit code
        assert workloads.check_cli(ops, faulty) == {i}
        payload = json.loads(stdout)
        key = next(k for k in sorted(payload) if k not in ("kind", "property", "notion", "method", "rule", "id"))
        payload[key] = "tampered"
        faulty[i] = (code, json.dumps(payload).encode(), *usage)
        assert workloads.check_cli(ops, faulty) == {i}, ops[i].kind


def test_cli_repeats_must_be_byte_identical():
    ops, outputs = cli_outputs()
    code, stdout, rss, cpu = outputs[0]
    assert workloads.same_output("cli", outputs[0], (code, stdout, rss + 1, cpu * 2))
    assert not workloads.same_output("cli", outputs[0], (code, stdout + b" ", rss, cpu))
