"""Command-line front end.

Subcommands: sequence, allocate, fairness, mwnw, mono, consistency, scan,
repro.  Human-readable text by default, exact JSON with --json (rationals
as "p/q" strings, agents and items 1-indexed, stable key order).  Exit
status 0 when the result holds or passes, 1 when a violation or failure
was found, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import repro
from .core import (
    Allocation,
    Instance,
    ParseError,
    PickingSequence,
    allocation_utilities,
    format_rational,
    instance_to_document,
    parse_allocation,
    parse_instance,
    parse_rational,
    parse_sequence,
)
from .fairness import (
    FairnessVerdict,
    check_allocation,
    check_quota_bounds,
    check_sequence,
)
from .harness import (
    MonotonicityReport,
    apply_rule,
    check_population_consistency_pair,
    check_resource_consistency,
    check_weight_consistency_pair,
    compare_population,
    compare_resource,
    compare_weight,
    scan,
    sequence_for_rule,
)
from .methods import PrecisionError, rule_from_name
from .mwnw import DEFAULT_BUDGET, BudgetExceededError, solve


# Upper bounds on --turns for `sequence` and `consistency` and on the length
# of any --weights list, so that every accepted input finishes in bounded
# work: quota costs O(n·m), and 10^3 agents over 10^4 turns take about 2 s.
MAX_TURNS = 10_000
MAX_AGENTS = 1_000


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _parse_weights(text: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ParseError("weights", "expected a comma-separated list")
    if len(parts) > MAX_AGENTS:
        raise ParseError("weights", f"at most {MAX_AGENTS} agents are supported, got {len(parts)}")
    return tuple(parse_rational(p, "weights") for p in parts)


def turn_count(text: str) -> int:
    turns = int(text)
    if turns > MAX_TURNS:
        raise argparse.ArgumentTypeError(f"at most {MAX_TURNS} turns are supported, got {turns}")
    return turns


def _load_text_or_file(arg: str) -> str:
    stripped = arg.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return stripped
    with open(arg, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_instance(arg: str) -> Instance:
    return parse_instance(_load_text_or_file(arg))


def _load_sequence(arg: str) -> PickingSequence:
    return parse_sequence(_load_text_or_file(arg))


def _load_allocation(arg: str) -> Allocation:
    return parse_allocation(_load_text_or_file(arg))


def _witness_payload(verdict: FairnessVerdict) -> dict | None:
    w = verdict.witness
    if w is None:
        return None
    payload: dict = {
        "lhs": format_rational(w.lhs),
        "rhs": format_rational(w.rhs),
    }
    if w.agent is not None:
        payload["agent"] = w.agent + 1
    if w.against is not None:
        payload["against"] = w.against + 1
    if w.prefix is not None:
        payload["prefix"] = w.prefix
    if w.removed is not None:
        payload["removed"] = sorted(g + 1 for g in w.removed)
    if w.t is not None:
        payload["t"] = w.t
    return payload


def _verdict_payload(verdict: FairnessVerdict) -> dict:
    payload = {"notion": verdict.notion, "holds": verdict.holds}
    witness = _witness_payload(verdict)
    if witness is not None:
        payload["witness"] = witness
    return payload


def _verdict_text(verdict: FairnessVerdict) -> str:
    if verdict.holds:
        return f"{verdict.notion}: holds"
    w = verdict.witness
    parts = [f"{verdict.notion}: violated"]
    if w.prefix is not None:
        parts.append(f"at prefix k={w.prefix}")
    if w.agent is not None and w.against is not None:
        parts.append(f"(agent {w.agent + 1} vs agent {w.against + 1})")
    elif w.agent is not None:
        parts.append(f"(agent {w.agent + 1})")
    if w.t is not None:
        parts.append(f"at t={w.t}")
    parts.append(f"{format_rational(w.lhs)} < {format_rational(w.rhs)}")
    return " ".join(parts)


def _report_payload(report: MonotonicityReport) -> dict:
    return {
        "rule": report.rule,
        "property": report.kind,
        "violated": report.violated,
        "violating_agents": [i + 1 for i in report.violators],
        "utilities": [
            {
                "agent": i + 1,
                "before": format_rational(report.before[i]),
                "after": format_rational(report.after[i]),
            }
            for i in range(len(report.before))
        ],
    }


def _report_text(report: MonotonicityReport) -> str:
    lines = [
        f"agent {i + 1}: {format_rational(report.before[i])} -> {format_rational(report.after[i])}"
        for i in range(len(report.before))
    ]
    verdict = "VIOLATED" if report.violated else "respected"
    agents = ", ".join(str(i + 1) for i in report.violators)
    suffix = f" (agent {agents})" if report.violators else ""
    lines.append(f"{report.kind}-monotonicity: {verdict}{suffix}")
    return "\n".join(lines)


def _allocation_payload(instance: Instance, allocation: Allocation) -> dict:
    utilities = allocation_utilities(instance, allocation)
    return {
        "bundles": [sorted(g + 1 for g in b) for b in allocation.bundles],
        "utilities": [format_rational(u) for u in utilities],
    }


def _allocation_text(instance: Instance, allocation: Allocation) -> str:
    utilities = allocation_utilities(instance, allocation)
    lines = []
    for i, bundle in enumerate(allocation.bundles):
        items = " ".join(str(g + 1) for g in sorted(bundle)) or "-"
        lines.append(f"agent {i + 1}: items [{items}] utility {format_rational(utilities[i])}")
    return "\n".join(lines)


# --- subcommands --------------------------------------------------------------


def _cmd_sequence(args) -> int:
    weights = _parse_weights(args.weights)
    rule = rule_from_name(args.method)
    seq = sequence_for_rule(rule, len(weights), args.turns, weights)
    payload = {"method": rule.name, "turns": [a + 1 for a in seq.turns]}
    _emit(payload, args.json, " ".join(str(a + 1) for a in seq.turns))
    return 0


def _cmd_allocate(args) -> int:
    instance = _load_instance(args.instance)
    rule = rule_from_name(args.method)
    allocation = apply_rule(rule, instance, budget=args.budget)
    payload = {"method": rule.name}
    payload.update(_allocation_payload(instance, allocation))
    if rule.is_sequence_based:
        seq = sequence_for_rule(rule, instance.n, instance.m, instance.weights)
        payload["sequence"] = [a + 1 for a in seq.turns]
    _emit(payload, args.json, _allocation_text(instance, allocation))
    return 0


def _cmd_fairness(args) -> int:
    if args.sequence is not None:
        if args.weights is None:
            raise ParseError("weights", "required together with --sequence")
        seq = _load_sequence(args.sequence)
        weights = _parse_weights(args.weights)
        if args.notion == "quota":
            mode = "every-prefix" if args.every_prefix else "full"
            verdict = check_quota_bounds(seq, weights, mode=mode, bound=args.bound)
        else:
            verdict = check_sequence(args.notion, seq, weights)
    else:
        if args.instance is None or args.allocation is None:
            raise ParseError(
                "arguments", "need --instance and --allocation, or --sequence and --weights"
            )
        if args.notion == "quota":
            raise ParseError("notion", "quota bounds apply to sequences, not allocations")
        instance = _load_instance(args.instance)
        allocation = _load_allocation(args.allocation)
        verdict = check_allocation(args.notion, instance, allocation)
    _emit(_verdict_payload(verdict), args.json, _verdict_text(verdict))
    return 0 if verdict.holds else 1


def _cmd_mwnw(args) -> int:
    instance = _load_instance(args.instance)
    allocation = solve(instance, budget=args.budget)
    payload = _allocation_payload(instance, allocation)
    _emit(payload, args.json, _allocation_text(instance, allocation))
    return 0


def _load_perturbation(arg: str, prop: str, instance: Instance):
    doc = json.loads(_load_text_or_file(arg))
    kind = doc.get("kind", prop)
    if kind != prop:
        raise ParseError("perturb.kind", f"perturbation kind {kind!r} does not match --property {prop!r}")
    if prop == "resource":
        utilities = doc.get("utilities")
        if not isinstance(utilities, list) or len(utilities) != instance.n:
            raise ParseError("perturb.utilities", f"need one utility per agent ({instance.n})")
        return [parse_rational(u, "perturb.utilities") for u in utilities]
    if prop == "population":
        utilities = doc.get("utilities")
        if not isinstance(utilities, list) or len(utilities) != instance.m:
            raise ParseError("perturb.utilities", f"need one utility per item ({instance.m})")
        weight = parse_rational(doc.get("weight"), "perturb.weight")
        return weight, [parse_rational(u, "perturb.utilities") for u in utilities]
    agent = doc.get("agent")
    if not isinstance(agent, int) or not 1 <= agent <= instance.n:
        raise ParseError("perturb.agent", f"need a 1-indexed agent in 1..{instance.n}")
    return agent - 1, parse_rational(doc.get("weight"), "perturb.weight")


def _cmd_mono(args) -> int:
    instance = _load_instance(args.instance)
    rule = rule_from_name(args.rule)
    perturbation = _load_perturbation(args.perturb, args.property, instance)
    if args.property == "resource":
        report = compare_resource(rule, instance, perturbation)
    elif args.property == "population":
        weight, row = perturbation
        report = compare_population(rule, instance, weight, row)
    else:
        agent, weight = perturbation
        report = compare_weight(rule, instance, agent, weight)
    _emit(_report_payload(report), args.json, _report_text(report))
    return 1 if report.violated else 0


def _require(args, what: str, *names: str) -> None:
    if any(getattr(args, name.replace("-", "_")) is None for name in names):
        raise ParseError("arguments", f"{what} needs " + ", ".join("--" + n for n in names))


def _cmd_consistency(args) -> int:
    payload: dict = {"kind": args.kind}
    if args.kind == "resource":
        _require(args, "resource consistency", "method", "weights", "turns")
        weights = _parse_weights(args.weights)
        rule = rule_from_name(args.method)
        family = lambda n, m, w: sequence_for_rule(rule, n, m, w)
        consistent = check_resource_consistency(family, len(weights), args.turns, weights)
        payload.update({"method": rule.name, "turns": args.turns})
    elif args.kind == "population":
        if args.method is not None:
            _require(args, "population consistency from a method", "weights", "turns", "new-weight")
            weights = _parse_weights(args.weights)
            rule = rule_from_name(args.method)
            new_w = parse_rational(args.new_weight, "new-weight")
            base = sequence_for_rule(rule, len(weights), args.turns, weights)
            grown = sequence_for_rule(rule, len(weights) + 1, args.turns, weights + (new_w,))
            consistent = check_population_consistency_pair(base, grown, len(weights))
            payload.update({"method": rule.name})
        else:
            _require(args, "population consistency", "base", "modified", "new-agent")
            base = _load_sequence(args.base)
            grown = _load_sequence(args.modified)
            consistent = check_population_consistency_pair(base, grown, args.new_agent - 1)
    else:
        if args.method is not None:
            _require(args, "weight consistency from a method", "weights", "turns", "agent", "new-weight")
            weights = _parse_weights(args.weights)
            rule = rule_from_name(args.method)
            agent = args.agent - 1
            if not 0 <= agent < len(weights):
                raise ParseError("agent", f"must lie in 1..{len(weights)}")
            new_w = parse_rational(args.new_weight, "new-weight")
            if new_w <= weights[agent]:
                raise ParseError("new-weight", "must exceed the agent's current weight")
            boosted = tuple(
                new_w if i == agent else w for i, w in enumerate(weights)
            )
            base = sequence_for_rule(rule, len(weights), args.turns, weights)
            moved = sequence_for_rule(rule, len(weights), args.turns, boosted)
            consistent = check_weight_consistency_pair(base, moved, agent)
            payload.update({"method": rule.name})
        else:
            _require(args, "weight consistency", "base", "modified", "agent")
            base = _load_sequence(args.base)
            moved = _load_sequence(args.modified)
            consistent = check_weight_consistency_pair(base, moved, args.agent - 1)
    payload["consistent"] = consistent
    _emit(payload, args.json, f"{args.kind}-consistency: {'holds' if consistent else 'VIOLATED'}")
    return 0 if consistent else 1


def _cmd_scan(args) -> int:
    rule = rule_from_name(args.rule)
    report = scan(
        rule,
        args.property,
        max_n=args.max_n,
        max_m=args.max_m,
        trials=args.trials,
        seed=args.seed,
    )
    payload: dict = {
        "rule": rule.name,
        "property": args.property,
        "seed": args.seed,
        "trials": args.trials,
        "max_n": args.max_n,
        "max_m": args.max_m,
        "found": report is not None,
    }
    if report is None:
        _emit(payload, args.json, f"no {args.property} violation in {args.trials} trials")
        return 0
    payload["trial"] = report.trial
    payload["instance"] = instance_to_document(report.instance)
    if report.sequence is not None:
        payload["sequence"] = [a + 1 for a in report.sequence.turns]
    if report.verdict is not None:
        payload["verdict"] = _verdict_payload(report.verdict)
    if report.report is not None:
        payload["report"] = _report_payload(report.report)
    if report.perturbation is not None:
        perturbation = dict(report.perturbation)
        if "utilities" in perturbation:
            perturbation["utilities"] = [format_rational(u) for u in perturbation["utilities"]]
        if "weight" in perturbation:
            perturbation["weight"] = format_rational(perturbation["weight"])
        if "agent" in perturbation:
            perturbation["agent"] = perturbation["agent"] + 1
        payload["perturbation"] = perturbation
    text = f"{args.property} violation at trial {report.trial} (seed {args.seed})"
    _emit(payload, args.json, text)
    return 1


def _case_payload(result: repro.CaseResult) -> dict:
    return {
        "id": result.case_id,
        "passed": result.passed,
        "expected": result.expected,
        "actual": result.actual,
        "diff": result.diff,
    }


def _cmd_repro(args) -> int:
    if args.list:
        cases = repro.catalog()
        payload = {"cases": [{"id": c.id, "description": c.description} for c in cases]}
        text = "\n".join(f"{c.id}: {c.description}" for c in cases)
        _emit(payload, args.json, text)
        return 0
    if args.case is not None:
        result = repro.run_case(args.case)
        text = f"{result.case_id}: {'pass' if result.passed else 'FAIL ' + str(result.diff)}"
        _emit(_case_payload(result), args.json, text)
        return 0 if result.passed else 1
    results = [repro.run_case(cid) for cid in (c.id for c in repro.catalog())]
    all_passed = all(r.passed for r in results)
    payload = {
        "passed": all_passed,
        "cases": [_case_payload(r) for r in results],
    }
    lines = [f"{r.case_id}: {'pass' if r.passed else 'FAIL ' + str(r.diff)}" for r in results]
    lines.append(f"total: {sum(r.passed for r in results)}/{len(results)} passed")
    _emit(payload, args.json, "\n".join(lines))
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pickseq",
        description="Weighted fair division via picking sequences: generators, "
        "verifiers, and a monotonicity harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sequence", help="emit a method's picking sequence")
    p.add_argument("--method", required=True)
    p.add_argument("--weights", required=True, help="comma-separated rationals, e.g. 2,1 or 9/18,5/18")
    p.add_argument("--turns", required=True, type=turn_count)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("allocate", help="run a rule on an instance file")
    p.add_argument("--method", required=True)
    p.add_argument("--instance", required=True, help="instance file or inline JSON")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("fairness", help="verify a fairness notion")
    p.add_argument("--notion", required=True, choices=["wef1", "wwef1", "wprop1", "quota"])
    p.add_argument("--instance")
    p.add_argument("--allocation")
    p.add_argument("--sequence", help="sequence file, {\"turns\": [...]}, or inline [1,2,...]")
    p.add_argument("--weights")
    p.add_argument("--bound", choices=["lower", "both"], default="both",
                   help="for --notion quota")
    p.add_argument("--every-prefix", action="store_true", help="for --notion quota")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fairness)

    p = sub.add_parser("mwnw", help="exact maximum weighted Nash welfare")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mwnw)

    p = sub.add_parser("mono", help="compare a rule before and after a perturbation")
    p.add_argument("--property", required=True, choices=["resource", "population", "weight"])
    p.add_argument("--rule", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--perturb", required=True, help="perturbation file or inline JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mono)

    p = sub.add_parser("consistency", help="structural consistency of picking sequences")
    p.add_argument("--kind", required=True, choices=["resource", "population", "weight"])
    p.add_argument("--method")
    p.add_argument("--weights")
    p.add_argument("--turns", type=turn_count)
    p.add_argument("--agent", type=int, help="1-indexed agent whose weight rose")
    p.add_argument("--new-agent", type=int, help="1-indexed index of the added agent")
    p.add_argument("--new-weight")
    p.add_argument("--base", help="base sequence (file or inline)")
    p.add_argument("--modified", help="comparison sequence (file or inline)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_consistency)

    p = sub.add_parser("scan", help="seeded randomized counterexample search")
    p.add_argument("--rule", required=True)
    p.add_argument("--property", required=True,
                   choices=["wef1", "wwef1", "wprop1", "resource", "population", "weight"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--max-m", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("repro", help="replay the documented counterexample catalog")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--case")
    group.add_argument("--all", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrecisionError as exc:
        print(f"error: method {exc.method} has no exact comparison and is not available from the CLI",
              file=sys.stderr)
        return 2
    except (ParseError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
