"""Command-line front end.

Subcommands: sequence, allocate, fairness, mwnw, mono, consistency, scan,
repro.  Each result is built once as a JSON payload (rationals as "p/q"
strings, agents and items 1-indexed); --json prints it with a stable key
order, and without --json its text is rendered from it.  Exit status 0
when the result holds or passes, 1 when a violation or failure was found,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .core import (
    Allocation,
    Instance,
    ParseError,
    allocation_to_document,
    allocation_utilities,
    format_rational,
    instance_to_document,
    load_json,
    parse_allocation,
    parse_instance,
    parse_rational,
    parse_sequence,
    sequence_to_document,
)
from .executor import execute
from .fairness import (
    NOTIONS,
    FairnessVerdict,
    check_allocation,
    check_quota_bounds,
    check_sequence,
)
from .harness import (
    MONOTONICITY_KINDS,
    PERTURBATIONS,
    MonotonicityReport,
    check_population_consistency_pair,
    check_resource_consistency,
    check_weight_consistency_pair,
    scan,
)
from .methods import PrecisionError, rule_from_name
from .mwnw import DEFAULT_BUDGET, BudgetExceededError, solve


# Upper bounds on --turns for `sequence` and `consistency` and on the length
# of any --weights list, so that every accepted input finishes in bounded
# work: quota costs O(n·m), and 10^3 agents over 10^4 turns take about 2 s.
MAX_TURNS = 10_000
MAX_AGENTS = 1_000
# Upper bounds on `scan`'s --trials, --max-n and --max-m: the slowest scan
# they admit, MWNW weight monotonicity, finds nothing in 9-11 s (README,
# "Input bounds").
MAX_SCAN_BOUNDS = {"trials": 5_000, "max_n": 4, "max_m": 8}
# Upper bound on --budget for `mwnw` and `allocate`: the n^m assignments
# that `mwnw.solve` may search.  The README's "Input bounds" gives the
# slowest solve it admits.
MAX_BUDGET = DEFAULT_BUDGET


def _emit(payload: dict, as_json: bool, render) -> None:
    """Print the payload as JSON, or without --json the text that
    ``render`` makes of it."""
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(render(payload))


def _parse_weights(text: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise ParseError("weights", "expected a comma-separated list")
    if "" in parts:
        raise ParseError("weights", f"entry {parts.index('') + 1} of {len(parts)} is empty")
    if len(parts) > MAX_AGENTS:
        raise ParseError("weights", f"at most {MAX_AGENTS} agents are supported, got {len(parts)}")
    return tuple(parse_rational(p, "weights") for p in parts)


def _at_most(cap: int, refusal: str):
    """The argparse type of an integer flag of at most ``cap``.  Above it,
    argparse exits 2 with ``refusal`` formatted with ``cap`` and ``got``;
    text that is no integer gets argparse's "invalid int value", as a
    plain ``type=int`` flag does."""

    def parse(text: str) -> int:
        value = int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(refusal.format(cap=cap, got=value))
        return value

    parse.__name__ = "int"
    return parse


def _load_text_or_file(arg: str) -> str:
    stripped = arg.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return stripped
    with open(arg, "r", encoding="utf-8") as handle:
        return handle.read()


def _verdict_payload(verdict: FairnessVerdict) -> dict:
    payload = {"notion": verdict.notion, "holds": verdict.holds}
    w = verdict.witness
    if w is not None:
        witness = payload["witness"] = {"lhs": format_rational(w.lhs), "rhs": format_rational(w.rhs)}
        if w.agent is not None:
            witness["agent"] = w.agent + 1
        if w.against is not None:
            witness["against"] = w.against + 1
        if w.prefix is not None:
            witness["prefix"] = w.prefix
        if w.removed is not None:
            witness["removed"] = sorted(g + 1 for g in w.removed)
    return payload


def _verdict_text(payload: dict) -> str:
    if payload["holds"]:
        return f"{payload['notion']}: holds"
    w = payload["witness"]
    parts = [f"{payload['notion']}: violated"]
    if "prefix" in w:
        parts.append(f"at prefix k={w['prefix']}")
    if "agent" in w and "against" in w:
        parts.append(f"(agent {w['agent']} vs agent {w['against']})")
    elif "agent" in w:
        parts.append(f"(agent {w['agent']})")
    parts.append(f"{w['lhs']} < {w['rhs']}")
    return " ".join(parts)


def _report_payload(report: MonotonicityReport) -> dict:
    return {
        "rule": report.rule,
        "property": report.kind,
        "violated": report.violated,
        "violating_agents": [i + 1 for i in report.violators],
        "utilities": [
            {"agent": i, "before": format_rational(before), "after": format_rational(after)}
            for i, (before, after) in enumerate(zip(report.before, report.after), start=1)
        ],
    }


def _report_text(payload: dict) -> str:
    lines = [f"agent {u['agent']}: {u['before']} -> {u['after']}" for u in payload["utilities"]]
    verdict = "VIOLATED" if payload["violated"] else "respected"
    agents = ", ".join(map(str, payload["violating_agents"]))
    suffix = f" (agent {agents})" if agents else ""
    lines.append(f"{payload['property']}-monotonicity: {verdict}{suffix}")
    return "\n".join(lines)


def _allocation_payload(instance: Instance, allocation: Allocation) -> dict:
    utilities = allocation_utilities(instance, allocation)
    return {**allocation_to_document(allocation), "utilities": [format_rational(u) for u in utilities]}


def _allocation_text(payload: dict) -> str:
    lines = []
    for i, (bundle, utility) in enumerate(zip(payload["bundles"], payload["utilities"]), start=1):
        items = " ".join(map(str, bundle)) or "-"
        lines.append(f"agent {i}: items [{items}] utility {utility}")
    return "\n".join(lines)


# --- subcommands --------------------------------------------------------------


def _cmd_sequence(args) -> int:
    weights = _parse_weights(args.weights)
    rule = rule_from_name(args.method)
    seq = rule.sequence_for(len(weights), args.turns, weights)
    payload = {"method": rule.name, **sequence_to_document(seq)}
    _emit(payload, args.json, lambda p: " ".join(map(str, p["turns"])))
    return 0


def _cmd_allocate(args) -> int:
    instance = parse_instance(_load_text_or_file(args.instance))
    rule = rule_from_name(args.method)
    payload = {"method": rule.name}
    if rule.sequence is not None:
        seq = rule.sequence(instance.n, instance.m, instance.scaled_weights)
        payload["sequence"] = sequence_to_document(seq)["turns"]
        allocation = execute(instance, seq)
    else:
        allocation = rule.allocate(instance, args.budget)
    payload.update(_allocation_payload(instance, allocation))
    _emit(payload, args.json, _allocation_text)
    return 0


def _cmd_fairness(args) -> int:
    _one_source(args, ("sequence", "weights"), ("instance", "allocation"))
    if args.notion != "quota":
        _require(args, f"--notion {args.notion}", among=("bound", "every-prefix"))
    if args.sequence is not None:
        if args.weights is None:
            raise ParseError("weights", "required together with --sequence")
        seq = parse_sequence(_load_text_or_file(args.sequence))
        weights = _parse_weights(args.weights)
        if args.notion == "quota":
            mode = "every-prefix" if args.every_prefix else "full"
            verdict = check_quota_bounds(seq, weights, mode=mode, bound=args.bound or "both")
        else:
            verdict = check_sequence(args.notion, seq, weights)
    else:
        if args.instance is None or args.allocation is None:
            raise ParseError(
                "arguments", "need --instance and --allocation, or --sequence and --weights"
            )
        if args.notion == "quota":
            raise ParseError("notion", "quota bounds apply to sequences, not allocations")
        instance = parse_instance(_load_text_or_file(args.instance))
        allocation = parse_allocation(_load_text_or_file(args.allocation))
        verdict = check_allocation(args.notion, instance, allocation)
    _emit(_verdict_payload(verdict), args.json, _verdict_text)
    return 0 if verdict.holds else 1


def _cmd_mwnw(args) -> int:
    instance = parse_instance(_load_text_or_file(args.instance))
    allocation = solve(instance, budget=args.budget)
    _emit(_allocation_payload(instance, allocation), args.json, _allocation_text)
    return 0


def _load_perturbation(arg: str, prop: str, instance: Instance) -> tuple:
    """The arguments, in ``harness.PERTURBATIONS`` call order, of the
    comparison that the perturbation document describes."""
    doc = load_json(_load_text_or_file(arg), "perturb")
    if not isinstance(doc, dict):
        raise ParseError("perturb", "expected a JSON object")
    kind = doc.get("kind", prop)
    if kind != prop:
        raise ParseError("perturb.kind", f"perturbation kind {kind!r} does not match --property {prop!r}")
    if prop == "weight":
        agent = doc.get("agent")
        if isinstance(agent, bool) or not isinstance(agent, int) or not 1 <= agent <= instance.n:
            raise ParseError("perturb.agent", f"need a 1-indexed agent in 1..{instance.n}")
        return agent - 1, parse_rational(doc.get("weight"), "perturb.weight")
    count, per = (instance.n, "agent") if prop == "resource" else (instance.m, "item")
    utilities = doc.get("utilities")
    if not isinstance(utilities, list) or len(utilities) != count:
        raise ParseError("perturb.utilities", f"need one utility per {per} ({count})")
    weight = [] if prop == "resource" else [parse_rational(doc.get("weight"), "perturb.weight")]
    return (*weight, [parse_rational(u, "perturb.utilities") for u in utilities])


def _cmd_mono(args) -> int:
    instance = parse_instance(_load_text_or_file(args.instance))
    rule = rule_from_name(args.rule)
    values = _load_perturbation(args.perturb, args.property, instance)
    report = PERTURBATIONS[args.property].compare(rule, instance, *values)
    _emit(_report_payload(report), args.json, _report_text)
    return 1 if report.violated else 0


def _given(args, *names: str) -> list[str]:
    return ["--" + name for name in names if getattr(args, name.replace("-", "_")) is not None]


def _require(args, what: str, *names: str, among: tuple[str, ...] = ()) -> None:
    """Refuse a call that lacks one of ``names``, or that gives a flag of
    ``among`` beyond them, which the mode would never read."""
    if len(_given(args, *names)) < len(names):
        raise ParseError("arguments", f"{what} needs " + ", ".join("--" + n for n in names))
    unread = _given(args, *(name for name in among if name not in names))
    if unread:
        raise ParseError("arguments", f"{what} does not read {', '.join(unread)}")


def _one_source(args, first: tuple[str, ...], second: tuple[str, ...]) -> None:
    """Refuse flags of two input sources given together, rather than read
    one and silently drop the other."""
    a, b = _given(args, *first), _given(args, *second)
    if a and b:
        raise ParseError("arguments", f"{', '.join(a)} cannot be combined with {', '.join(b)}")


# the flags of `consistency` besides --kind and --method, which picks the mode
_CONSISTENCY_INPUTS = ("weights", "turns", "agent", "new-agent", "new-weight", "base", "modified")


def _cmd_consistency(args) -> int:
    _one_source(args, ("method", "weights", "turns", "new-weight"), ("base", "modified"))
    payload: dict = {"kind": args.kind}
    if args.kind == "resource":
        _require(args, "resource consistency", "method", "weights", "turns",
                 among=_CONSISTENCY_INPUTS)
        weights = _parse_weights(args.weights)
        rule = rule_from_name(args.method)
        consistent = check_resource_consistency(rule.sequence_for, len(weights), args.turns, weights)
        payload.update({"method": rule.name, "turns": args.turns})
    else:
        # resolve (base, modified, agent) once, from explicit sequences or a method
        population = args.kind == "population"
        if args.method is None:
            agent_flag = "new-agent" if population else "agent"
            _require(args, f"{args.kind} consistency", "base", "modified", agent_flag,
                     among=_CONSISTENCY_INPUTS)
            agent = (args.new_agent if population else args.agent) - 1
            if agent < 0:
                raise ParseError(agent_flag, f"must be a 1-indexed agent, got {agent + 1}")
            base, modified = (parse_sequence(_load_text_or_file(a)) for a in (args.base, args.modified))
            # the sequences carry no agent count: bound the agent by the
            # largest one they name, plus one new agent that may get no turn
            largest = max(base.turns + modified.turns, default=-1) + 1
            if agent >= largest + population:
                above = "one above " if population else ""
                raise ParseError(agent_flag, f"must be at most {largest + population}, "
                                 f"{above}the largest agent --base and --modified name")
        else:
            needed = ("weights", "turns") + (() if population else ("agent",)) + ("new-weight",)
            _require(args, f"{args.kind} consistency from a method", *needed,
                     among=_CONSISTENCY_INPUTS)
            weights = _parse_weights(args.weights)
            rule = rule_from_name(args.method)
            payload["method"] = rule.name
            if population:
                agent = len(weights)
                changed = weights + (parse_rational(args.new_weight, "new-weight"),)
            else:
                agent = args.agent - 1
                if not 0 <= agent < len(weights):
                    raise ParseError("agent", f"must lie in 1..{len(weights)}")
                new_w = parse_rational(args.new_weight, "new-weight")
                if new_w <= weights[agent]:
                    raise ParseError("new-weight", "must exceed the agent's current weight")
                changed = weights[:agent] + (new_w,) + weights[agent + 1 :]
            base = rule.sequence_for(len(weights), args.turns, weights)
            modified = rule.sequence_for(len(changed), args.turns, changed)
        check = check_population_consistency_pair if population else check_weight_consistency_pair
        consistent = check(base, modified, agent)
    payload["consistent"] = consistent
    _emit(payload, args.json,
          lambda p: f"{p['kind']}-consistency: {'holds' if p['consistent'] else 'VIOLATED'}")
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
    if report is not None:
        payload["trial"] = report.trial
        payload["instance"] = instance_to_document(report.instance)
        if report.sequence is not None:
            payload["sequence"] = sequence_to_document(report.sequence)["turns"]
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
    _emit(payload, args.json, _scan_text)
    return 0 if report is None else 1


def _scan_text(payload: dict) -> str:
    if not payload["found"]:
        return f"no {payload['property']} violation in {payload['trials']} trials"
    return f"{payload['property']} violation at trial {payload['trial']} (seed {payload['seed']})"


def _case_payload(result) -> dict:
    return {
        "id": result.case_id,
        "passed": result.passed,
        "expected": result.expected,
        "actual": result.actual,
        "diff": result.diff,
    }


def _case_line(payload: dict) -> str:
    return f"{payload['id']}: {'pass' if payload['passed'] else 'FAIL ' + str(payload['diff'])}"


def _cases_text(payload: dict) -> str:
    cases = payload["cases"]
    lines = [_case_line(c) for c in cases]
    lines.append(f"total: {sum(c['passed'] for c in cases)}/{len(cases)} passed")
    return "\n".join(lines)


def _cmd_repro(args) -> int:
    from . import repro  # the catalog is built only for this subcommand

    if args.list:
        cases = repro.catalog()
        payload = {"cases": [{"id": c.id, "description": c.description} for c in cases]}
        _emit(payload, args.json,
              lambda p: "\n".join(f"{c['id']}: {c['description']}" for c in p["cases"]))
        return 0
    if args.case is not None:
        result = repro.run_case(args.case)
        _emit(_case_payload(result), args.json, _case_line)
        return 0 if result.passed else 1
    results = [repro.run_case(c.id) for c in repro.catalog()]
    payload = {"passed": all(r.passed for r in results), "cases": [_case_payload(r) for r in results]}
    _emit(payload, args.json, _cases_text)
    return 0 if payload["passed"] else 1


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
    turns = _at_most(MAX_TURNS, "at most {cap} turns are supported, got {got}")
    p.add_argument("--turns", required=True, type=turns)
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("allocate", help="run a rule on an instance file")
    p.add_argument("--method", required=True)
    p.add_argument("--instance", required=True, help="instance file or inline JSON")
    budget = _at_most(MAX_BUDGET, "at most {cap} assignments are supported, got {got}")
    p.add_argument("--budget", type=budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("fairness", help="verify a fairness notion")
    p.add_argument("--notion", required=True, choices=[*NOTIONS, "quota"])
    p.add_argument("--instance")
    p.add_argument("--allocation")
    p.add_argument("--sequence", help="sequence file, {\"turns\": [...]}, or inline [1,2,...]")
    p.add_argument("--weights")
    # no defaults, so that a flag given for another notion is refused
    p.add_argument("--bound", choices=["lower", "both"], help="for --notion quota")
    p.add_argument("--every-prefix", action="store_true", default=None, help="for --notion quota")
    p.set_defaults(func=_cmd_fairness)

    p = sub.add_parser("mwnw", help="exact maximum weighted Nash welfare")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_mwnw)

    p = sub.add_parser("mono", help="compare a rule before and after a perturbation")
    p.add_argument("--property", required=True, choices=MONOTONICITY_KINDS)
    p.add_argument("--rule", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--perturb", required=True, help="perturbation file or inline JSON")
    p.set_defaults(func=_cmd_mono)

    p = sub.add_parser("consistency", help="structural consistency of picking sequences")
    p.add_argument("--kind", required=True, choices=MONOTONICITY_KINDS)
    p.add_argument("--method")
    p.add_argument("--weights")
    p.add_argument("--turns", type=turns)
    p.add_argument("--agent", type=int, help="1-indexed agent whose weight rose")
    p.add_argument("--new-agent", type=int, help="1-indexed index of the added agent")
    p.add_argument("--new-weight")
    p.add_argument("--base", help="base sequence (file or inline)")
    p.add_argument("--modified", help="comparison sequence (file or inline)")
    p.set_defaults(func=_cmd_consistency)

    p = sub.add_parser("scan", help="seeded randomized counterexample search")
    p.add_argument("--rule", required=True)
    p.add_argument("--property", required=True, choices=NOTIONS + MONOTONICITY_KINDS)
    p.add_argument("--seed", type=int, default=0)
    for name, default in (("trials", 2000), ("max_n", 3), ("max_m", 8)):
        refusal = f"scan accepts {name} of at most {{cap}}, got {{got}}"
        p.add_argument("--" + name.replace("_", "-"), type=_at_most(MAX_SCAN_BOUNDS[name], refusal),
                       default=default)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("repro", help="replay the documented counterexample catalog")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--case")
    group.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_repro)

    # last in every subcommand, as its usage line shows it
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
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
    except (ValueError, BudgetExceededError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
