import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pickseq.cli import MAX_AGENTS, MAX_BUDGET, MAX_SCAN_BOUNDS, MAX_TURNS, main
from pickseq.core import format_rational, parse_instance
from pickseq.harness import check_weight_consistency_pair
from pickseq.methods import RULES, rule_from_name


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


INSTANCE_DOC = json.dumps(
    {
        "agents": [{"weight": "9/18"}, {"weight": "5/18"}, {"weight": "4/18"}],
        "items": 5,
        "utilities": [
            [10, 9, 8, 7, 0],
            [7, 10, 8, 9, 0],
            [0, 7, 10, 8, 9],
        ],
    }
)


def test_sequence_jefferson(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--method", "jefferson", "--weights", "2,1", "--turns", "3")
    assert code == 0
    assert out.strip() == "1 1 2"


def test_sequence_quota_json(capsys):
    code, out, _ = run_cli(
        capsys, "sequence", "--method", "quota", "--weights", "9/18,5/18,4/18", "--turns", "5", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"method": "quota", "turns": [1, 2, 1, 3, 1]}


def test_allocate_inline_instance(capsys):
    code, out, _ = run_cli(
        capsys, "allocate", "--method", "quota", "--instance", INSTANCE_DOC, "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bundles"] == [[1, 3, 4], [2], [5]]
    assert payload["utilities"] == ["25", "10", "9"]
    assert payload["sequence"] == [1, 2, 1, 3, 1]


TWO_AGENT_DOC = json.dumps({"agents": [1, 2], "items": 3, "utilities": [[3, 1, 2], [1, 2, 2]]})


@pytest.mark.parametrize("name, doc", [("mwnw", INSTANCE_DOC), ("ecycle", INSTANCE_DOC),
                                       ("aw", TWO_AGENT_DOC)])
def test_allocate_with_an_allocation_rule(capsys, name, doc):
    code, out, err = run_cli(capsys, "allocate", "--method", name, "--instance", doc, "--json")
    assert code == 0 and err == ""
    instance = parse_instance(doc)
    allocation = RULES[name].run(instance)
    assert json.loads(out) == {
        "method": name,
        "bundles": [sorted(g + 1 for g in b) for b in allocation.bundles],
        "utilities": [format_rational(sum(instance.utilities[i][g] for g in b))
                      for i, b in enumerate(allocation.bundles)],
    }


@pytest.mark.parametrize("argv, message", [
    (["--method", "aw", "--instance", INSTANCE_DOC],
     "error: adjusted winner requires exactly two agents\n"),
    (["--method", "mwnw", "--instance", INSTANCE_DOC, "--budget", "1"],
     "error: 3^5 assignments exceed the budget of 1; reduce the instance or raise the budget\n"),
], ids=["aw-three-agents", "mwnw-budget-1"])
def test_allocate_with_an_allocation_rule_refusals_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, "allocate", *argv)
    assert code == 2 and out == "" and err == message


def test_fairness_sequence_violation_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "fairness", "--notion", "wef1", "--sequence", "[1,2,2,2,2]", "--weights", "1,2", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["witness"]["prefix"] == 5
    assert payload["witness"]["lhs"] == "1/3" and payload["witness"]["rhs"] == "1/2"


def test_fairness_sequence_holds(capsys):
    code, out, _ = run_cli(
        capsys, "fairness", "--notion", "wwef1", "--sequence", "[1,2,2,2,2]", "--weights", "1,2", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"holds": True, "notion": "wwef1"}


def test_fairness_allocation_mode(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(INSTANCE_DOC)
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"bundles": [[1, 3, 4], [2], [5]]}))
    code, out, _ = run_cli(
        capsys, "fairness", "--notion", "wprop1", "--instance", str(inst), "--allocation", str(alloc), "--json"
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_fairness_allocation_wef1_violation(capsys):
    # agent 1 holds nothing and envies agent 2's three items even after
    # removing one: the removed item is the lowest-indexed of equal value
    argv = ["fairness", "--notion", "wef1",
            "--instance", '{"agents":[1,1],"items":3,"utilities":[[1,1,1],[1,1,1]]}',
            "--allocation", '{"bundles":[[],[1,2,3]]}']
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["witness"] == {"agent": 1, "against": 2, "lhs": "0", "rhs": "2",
                                          "removed": [1]}
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out == "wef1: violated (agent 1 vs agent 2) 0 < 2\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--notion", "wef1", "--sequence", "[1,2]"], "weights: required together with --sequence"),
        (["--notion", "wef1", "--instance", INSTANCE_DOC],
         "arguments: need --instance and --allocation, or --sequence and --weights"),
        (["--notion", "quota", "--instance", INSTANCE_DOC, "--allocation", '{"bundles":[[1],[2],[3]]}'],
         "notion: quota bounds apply to sequences, not allocations"),
        (["--notion", "wef1", "--sequence", "[1,2,3]", "--weights", "1,1,1", "--instance", INSTANCE_DOC,
          "--allocation", '{"bundles":[[1],[2],[3]]}'],
         "arguments: --sequence, --weights cannot be combined with --instance, --allocation"),
        (["--notion", "wef1", "--weights", "1,1,1", "--instance", INSTANCE_DOC,
          "--allocation", '{"bundles":[[1],[2],[3]]}'],
         "arguments: --weights cannot be combined with --instance, --allocation"),
    ],
    ids=["sequence-without-weights", "instance-without-allocation", "quota-on-allocation",
         "sequence-and-allocation", "weights-and-allocation"],
)
def test_fairness_refusals_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, "fairness", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_fairness_quota_bounds(capsys):
    code, out, _ = run_cli(
        capsys, "fairness", "--notion", "quota", "--sequence", "[1,1]", "--weights", "1,3",
        "--bound", "lower", "--json",
    )
    assert code == 1
    assert json.loads(out)["witness"]["agent"] == 2


def test_mwnw_subcommand(capsys):
    doc = json.dumps({"agents": [1, 1], "items": 3, "utilities": [[3, 2, 2], [2, 2, 1]]})
    code, out, _ = run_cli(capsys, "mwnw", "--instance", doc, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bundles"] == [[1, 3], [2]]
    assert payload["utilities"] == ["5", "2"]


def test_mono_weight_violation(capsys):
    perturb = json.dumps({"kind": "weight", "agent": 1, "weight": "11/18"})
    code, out, _ = run_cli(
        capsys, "mono", "--property", "weight", "--rule", "quota",
        "--instance", INSTANCE_DOC, "--perturb", perturb, "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["violated"] is True
    assert payload["utilities"][0] == {"agent": 1, "before": "25", "after": "19"}


def test_mono_resource_respected(capsys):
    perturb = json.dumps({"kind": "resource", "utilities": [1, 2, 3]})
    code, out, _ = run_cli(
        capsys, "mono", "--property", "resource", "--rule", "adams",
        "--instance", INSTANCE_DOC, "--perturb", perturb,
    )
    assert code == 0
    assert "respected" in out


def test_mono_weight_must_rise_exit_two(capsys):
    for weight in ("9/18", "1/18"):
        perturb = json.dumps({"kind": "weight", "agent": 1, "weight": weight})
        code, out, err = run_cli(
            capsys, "mono", "--property", "weight", "--rule", "quota",
            "--instance", INSTANCE_DOC, "--perturb", perturb,
        )
        assert code == 2 and out == ""
        assert err == "error: weight-monotonicity perturbations must increase the weight\n"


def test_mono_kind_mismatch(capsys):
    perturb = json.dumps({"kind": "weight", "agent": 1, "weight": "2"})
    code, _, err = run_cli(
        capsys, "mono", "--property", "resource", "--rule", "adams",
        "--instance", INSTANCE_DOC, "--perturb", perturb,
    )
    assert code == 2
    assert "kind" in err


def test_consistency_resource(capsys):
    code, out, _ = run_cli(
        capsys, "consistency", "--kind", "resource", "--method", "webster",
        "--weights", "3,2,1", "--turns", "6", "--json",
    )
    assert code == 0
    assert json.loads(out)["consistent"] is True


def test_consistency_weight_pair_violation(capsys):
    code, out, _ = run_cli(
        capsys, "consistency", "--kind", "weight",
        "--base", "[1,2,3,1,2,4,1]", "--modified", "[1,2,1,2,3,1,4]", "--agent", "1", "--json",
    )
    assert code == 1
    assert json.loads(out)["consistent"] is False


def test_consistency_population_pair(capsys):
    code, out, _ = run_cli(
        capsys, "consistency", "--kind", "population",
        "--base", "[1,2,1]", "--modified", "[1,2,3]", "--new-agent", "3",
    )
    assert code == 0
    assert "holds" in out


@pytest.mark.parametrize("base, modified", [("[1,2,1]", "[1,2,1]"), ("[1,3,2]", "[1,2,3]")])
def test_consistency_population_new_agent_with_a_base_turn_exit_two(capsys, base, modified):
    # a new agent has no turn in the base sequence, so no verdict is given
    code, out, err = run_cli(capsys, "consistency", "--kind", "population",
                             "--base", base, "--modified", modified, "--new-agent", "2")
    assert code == 2 and out == ""
    assert err == ("error: population consistency needs a new agent with no turn "
                   "in the base sequence\n")


def test_consistency_population_from_method(capsys):
    code, out, _ = run_cli(
        capsys, "consistency", "--kind", "population", "--method", "quota",
        "--weights", "3,2", "--turns", "5", "--new-weight", "4", "--json",
    )
    # quota is not population-consistent in general, but the command must
    # run and report a boolean either way
    assert code in (0, 1)
    assert isinstance(json.loads(out)["consistent"], bool)


def test_scan_found_and_not_found(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--rule", "webster", "--property", "wef1",
        "--seed", "914", "--trials", "2000", "--max-n", "3", "--max-m", "8", "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["found"] is True and "instance" in payload

    code, out, _ = run_cli(
        capsys, "scan", "--rule", "adams", "--property", "wef1",
        "--seed", "914", "--trials", "500", "--max-n", "3", "--max-m", "8", "--json",
    )
    assert code == 0
    assert json.loads(out)["found"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["--rule", "mwnw", "--property", "resource", "--seed", "2", "--max-m", "5", "--trials", "400"],
        ["--rule", "quota", "--property", "population", "--seed", "1", "--max-n", "4"],
        ["--rule", "quota", "--property", "weight", "--seed", "5", "--max-n", "4"],
    ],
)
def test_scan_perturbation_replays_through_mono(capsys, argv):
    # a scan's instance and perturbation are documents that `mono` reads,
    # and the comparison it reruns is the one the scan reported
    code, out, _ = run_cli(capsys, "scan", *argv, "--json")
    assert code == 1
    found = json.loads(out)
    code, out, err = run_cli(
        capsys, "mono", "--property", found["property"], "--rule", found["rule"],
        "--instance", json.dumps(found["instance"]),
        "--perturb", json.dumps(found["perturbation"]), "--json",
    )
    assert (code, err) == (1, "")
    assert json.loads(out) == found["report"]


def test_repro_list_and_case(capsys):
    code, out, _ = run_cli(capsys, "repro", "--list")
    assert code == 0
    assert "p61-mnw-resmon" in out
    code, out, _ = run_cli(capsys, "repro", "--case", "p61-mnw-resmon", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["actual"]["utility_base"] == "5"
    assert payload["actual"]["utility_modified"] == "4"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sequence", "--method", "jefferson"])  # missing required args
    assert exit_info.value.code == 2

    code, _, err = run_cli(capsys, "allocate", "--method", "nosuch", "--instance", INSTANCE_DOC)
    assert code == 2 and "error" in err

    bad_doc = json.dumps({"agents": [{"weight": "0"}], "items": 1, "utilities": [[1]]})
    code, _, err = run_cli(capsys, "allocate", "--method", "adams", "--instance", bad_doc)
    assert code == 2 and "weight must be positive" in err

    code, _, err = run_cli(capsys, "allocate", "--method", "adams", "--instance", "/no/such/file.json")
    assert code == 2


def test_turns_above_bound_exit_two(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--method", "webster", "--weights", "1,2",
                           "--turns", str(MAX_TURNS), "--json")
    assert code == 0 and len(json.loads(out)["turns"]) == MAX_TURNS
    for argv in (
        ["sequence", "--method", "webster", "--weights", "1,2", "--turns", "100000000", "--json"],
        ["consistency", "--kind", "resource", "--method", "webster", "--weights", "1,2",
         "--turns", str(MAX_TURNS + 1), "--json"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert f"at most {MAX_TURNS} turns are supported" in captured.err


@pytest.mark.parametrize("argv", [
    ["sequence", "--method", "webster", "--weights", "1,2", "--turns", "abc"],
    ["consistency", "--kind", "resource", "--method", "webster", "--weights", "1,2", "--turns", "abc"],
    ["mwnw", "--instance", "{}", "--budget", "abc"],
    ["allocate", "--method", "mwnw", "--instance", "{}", "--budget", "abc"],
    ["scan", "--rule", "adams", "--property", "wef1", "--trials", "abc"],
])
def test_non_integer_capped_flag_says_invalid_int(capsys, argv):
    # every capped integer flag refuses text as a plain int flag does,
    # naming the type int, not the function that parses it
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: argument {argv[-2]}: invalid int value: 'abc'\n")


def test_agents_above_bound_exit_two(capsys):
    weights = ",".join(["1"] * MAX_AGENTS)
    code, out, _ = run_cli(capsys, "sequence", "--method", "quota", "--weights", weights,
                           "--turns", "3", "--json")
    assert code == 0 and json.loads(out)["turns"] == [1, 2, 3]
    weights += ",1"
    for argv in (
        ["sequence", "--method", "quota", "--weights", weights, "--turns", "3", "--json"],
        ["consistency", "--kind", "resource", "--method", "webster", "--weights", weights,
         "--turns", "3", "--json"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"at most {MAX_AGENTS} agents are supported" in err


def test_scan_empty_bounds_exit_two(capsys):
    for flag, value, name in (("--trials", "-5", "trials"), ("--max-m", "0", "max_m"),
                              ("--max-n", "0", "max_n")):
        code, out, err = run_cli(capsys, "scan", "--rule", "webster", "--property", "wef1",
                                 flag, value)
        assert code == 2 and out == ""
        assert f"scan needs {name} >= 1, got {value}" in err


NOT_A_TABLE = 'custom table: expected an object whose "values" is a list'


@pytest.mark.parametrize(
    "document, message",
    [
        ("[0, 1]", NOT_A_TABLE),
        ('{"values": 5}', NOT_A_TABLE),
        ('{"tail_offset": 1}', NOT_A_TABLE),
        ('{"values": [1, 2,]}', "error: custom table: invalid JSON: Expecting value"),
        ('{"values": []}', "error: custom divisor function needs a value table"),
        ('{"values": [1, 1]}', "error: custom table is not strictly increasing at t=1"),
        ('{"values": [1], "tail_offset": 2}', "error: custom tail offset must lie in [0, 1]"),
        ('{"values": ["1/2", 2], "tail_offset": 0}',
         "error: custom tail is not strictly increasing at the seam"),
    ],
)
def test_malformed_custom_table_exit_two(capsys, tmp_path, document, message):
    path = tmp_path / "table.json"
    path.write_text(document)
    code, out, err = run_cli(capsys, "sequence", "--method", f"custom:@{path}",
                             "--weights", "1,2", "--turns", "3")
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "prop, perturb, field",
    [
        ("weight", "[1]", "perturb: expected a JSON object"),
        ("weight", '{"kind": "weight", "agent": true, "weight": 2}', "perturb.agent"),
        ("weight", '{"kind": "weight", "agent": "1", "weight": 2}', "perturb.agent"),
        ("weight", '{"kind": "weight", agent: 1}', "error: perturb: invalid JSON: Expecting"),
        ("resource", '{"kind": "resource", "utilities": [1, 2]}',
         "perturb.utilities: need one utility per agent (3)"),
        ("population", '{"kind": "population", "weight": 1, "utilities": [1, 2, 3]}',
         "perturb.utilities: need one utility per item (5)"),
        ("population", '{"kind": "population", "utilities": [1, 2, 3, 4, 5]}',
         "perturb.weight: expected an integer or a 'p/q' string"),
    ],
)
def test_malformed_perturbation_exit_two(capsys, prop, perturb, field):
    code, out, err = run_cli(capsys, "mono", "--property", prop, "--rule", "quota",
                             "--instance", INSTANCE_DOC, "--perturb", perturb)
    assert code == 2 and out == ""
    assert field in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--kind", "population", "--base", "[1,2]", "--modified", "[1,2]", "--new-agent", "0"],
         "new-agent"),
        (["--kind", "weight", "--base", "[1,2]", "--modified", "[1,2]", "--agent", "0"], "agent"),
        (["--kind", "weight", "--base", "[1,2]", "--modified", "[1,2]", "--agent", "-3"], "agent"),
    ],
)
def test_consistency_explicit_pair_agent_below_one_exit_two(capsys, argv, flag):
    code, out, err = run_cli(capsys, "consistency", *argv)
    assert code == 2 and out == ""
    assert f"{flag}: must be a 1-indexed agent" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "weight", "--base", "[1,2,1]", "--modified", "[2,1,1]", "--agent", "9"],
         "agent: must be at most 2, the largest agent --base and --modified name"),
        (["--kind", "weight", "--base", "[1,2,1]", "--modified", "[2,1,1]", "--agent", "3"],
         "agent: must be at most 2,"),
        (["--kind", "population", "--base", "[1,2,1]", "--modified", "[1,2,1]", "--new-agent", "7"],
         "new-agent: must be at most 3, one above the largest agent --base and --modified name"),
        (["--kind", "population", "--base", "[1,2,1]", "--modified", "[1,2,1]", "--new-agent", "4"],
         "new-agent: must be at most 3,"),
    ],
    ids=["agent-9", "agent-3", "new-agent-7", "new-agent-4"],
)
def test_consistency_explicit_pair_agent_above_sequences_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, "consistency", *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, verdict, exit_code",
    [
        # the largest agent either sequence names
        (["--kind", "weight", "--base", "[1,2,1]", "--modified", "[2,1,1]", "--agent", "2"],
         "holds", 0),
        # one above it: a new agent that got no turn
        (["--kind", "population", "--base", "[1,2,1]", "--modified", "[1,2,1]", "--new-agent", "3"],
         "holds", 0),
        (["--kind", "population", "--base", "[1,2,1]", "--modified", "[2,1,1]", "--new-agent", "3"],
         "VIOLATED", 1),
    ],
    ids=["agent-2", "new-agent-3", "new-agent-3-violated"],
)
def test_consistency_explicit_pair_agent_at_bound_accepted(capsys, argv, verdict, exit_code):
    code, out, err = run_cli(capsys, "consistency", *argv)
    assert code == exit_code and err == ""
    assert out.strip().endswith(verdict)


@pytest.mark.parametrize("agent, consistent", [(1, True), (3, False)])
def test_consistency_weight_from_method(capsys, agent, consistent):
    # the verdict is the pair check on the sequences before and after the
    # agent's weight rises from the method's own generator
    code, out, err = run_cli(capsys, "consistency", "--kind", "weight", "--method", "quota",
                             "--weights", "3,2,1", "--turns", "7", "--agent", str(agent),
                             "--new-weight", "4", "--json")
    rule, weights = rule_from_name("quota"), (3, 2, 1)
    raised = tuple(4 if i == agent - 1 else w for i, w in enumerate(weights))
    base, modified = (rule.sequence_for(3, 7, w) for w in (weights, raised))
    assert check_weight_consistency_pair(base, modified, agent - 1) is consistent
    assert (code, err) == (0 if consistent else 1, "")
    assert json.loads(out) == {"kind": "weight", "method": "quota", "consistent": consistent}


def test_consistency_weight_from_method_new_weight_not_above_exit_two(capsys):
    code, out, err = run_cli(capsys, "consistency", "--kind", "weight", "--method", "quota",
                             "--weights", "3,2,1", "--turns", "7", "--agent", "1", "--new-weight", "3")
    assert code == 2 and out == ""
    assert err == "error: new-weight: must exceed the agent's current weight\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "resource"], "resource consistency needs --method, --weights, --turns"),
        (["--kind", "weight", "--base", "[1,2]"], "weight consistency needs --base, --modified, --agent"),
        (["--kind", "population", "--method", "quota", "--weights", "1,2"],
         "population consistency from a method needs --weights, --turns, --new-weight"),
    ],
    ids=["resource", "weight-pair", "population-method"],
)
def test_consistency_missing_arguments_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, "consistency", *argv)
    assert code == 2 and out == ""
    assert err == f"error: arguments: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "population", "--method", "webster", "--weights", "1,2", "--turns", "4",
          "--new-weight", "1", "--base", "[1,1,1,1]", "--modified", "[2,2,2,2]", "--new-agent", "3"],
         "--method, --weights, --turns, --new-weight cannot be combined with --base, --modified"),
        (["--kind", "weight", "--base", "[1,2]", "--modified", "[2,1]", "--agent", "1",
          "--weights", "1,2"],
         "--weights cannot be combined with --base, --modified"),
        (["--kind", "resource", "--method", "webster", "--weights", "1,2", "--turns", "4",
          "--base", "[1,2,1,2]"],
         "--method, --weights, --turns cannot be combined with --base"),
    ],
    ids=["population", "weight", "resource"],
)
def test_consistency_mixed_sources_exit_two(capsys, argv, message):
    # a verdict from the method would never read the given sequences
    code, out, err = run_cli(capsys, "consistency", *argv)
    assert code == 2 and out == ""
    assert err == f"error: arguments: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["consistency", "--kind", "population", "--method", "webster", "--weights", "1,2",
          "--turns", "4", "--new-weight", "1", "--new-agent", "1"],
         "population consistency from a method does not read --new-agent"),
        (["consistency", "--kind", "weight", "--method", "quota", "--weights", "3,2,1",
          "--turns", "7", "--agent", "1", "--new-weight", "4", "--new-agent", "5"],
         "weight consistency from a method does not read --new-agent"),
        (["consistency", "--kind", "population", "--base", "[1,2,1]", "--modified", "[1,2,1]",
          "--new-agent", "3", "--agent", "1"],
         "population consistency does not read --agent"),
        (["consistency", "--kind", "weight", "--base", "[1,2]", "--modified", "[1,1]",
          "--agent", "1", "--new-agent", "3"],
         "weight consistency does not read --new-agent"),
        (["consistency", "--kind", "resource", "--method", "webster", "--weights", "1,2",
          "--turns", "4", "--new-weight", "3"],
         "resource consistency does not read --new-weight"),
        (["consistency", "--kind", "resource", "--method", "webster", "--weights", "1,2",
          "--turns", "4", "--agent", "1", "--new-agent", "3"],
         "resource consistency does not read --agent, --new-agent"),
        (["fairness", "--notion", "wef1", "--sequence", "[1,2,2,2,2]", "--weights", "1,2",
          "--every-prefix", "--bound", "lower"],
         "--notion wef1 does not read --bound, --every-prefix"),
        (["fairness", "--notion", "wprop1", "--instance", INSTANCE_DOC,
          "--allocation", '{"bundles":[[1],[2],[3,4,5]]}', "--bound", "both"],
         "--notion wprop1 does not read --bound"),
    ],
    ids=["population-method-new-agent", "weight-method-new-agent", "population-pair-agent",
         "weight-pair-new-agent", "resource-new-weight", "resource-agents", "wef1-quota-flags",
         "wprop1-allocation-bound"],
)
def test_unread_flag_exit_two(capsys, argv, message):
    # a flag that the chosen mode never reads is refused, not dropped
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: arguments: {message}\n"


def test_quota_flags_still_read_by_quota(capsys):
    # --bound defaults to both when unset; --every-prefix and --bound lower are read
    argv = ["fairness", "--notion", "quota", "--sequence", "[1,1,2]", "--weights", "3,2,1"]
    assert run_cli(capsys, *argv, "--json")[0] == 0
    assert run_cli(capsys, *argv, "--every-prefix", "--json") == run_cli(
        capsys, *argv, "--every-prefix", "--bound", "both", "--json")
    code, out, err = run_cli(capsys, *argv, "--every-prefix", "--bound", "lower", "--json")
    assert (code, err) == (0, "") and json.loads(out)["holds"] is True
    code, out, _ = run_cli(capsys, *argv, "--every-prefix", "--json")
    assert code == 1 and json.loads(out)["holds"] is False


@pytest.mark.parametrize(
    "argv, rule",
    [
        (["sequence", "--method", "mwnw", "--weights", "1,2", "--turns", "3"], "mwnw"),
        (["consistency", "--kind", "resource", "--method", "ecycle", "--weights", "1,2",
          "--turns", "3"], "ecycle"),
        (["consistency", "--kind", "weight", "--method", "aw", "--weights", "1,2", "--turns", "3",
          "--agent", "1", "--new-weight", "2"], "aw"),
    ],
)
def test_allocation_rule_has_no_sequence_exit_two(capsys, argv, rule):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: rule {rule!r} is not sequence-based\n"


def test_consistency_method_agent_out_of_range_exit_two(capsys):
    code, out, err = run_cli(capsys, "consistency", "--kind", "weight", "--method", "quota",
                             "--weights", "1,2", "--turns", "4", "--agent", "3", "--new-weight", "5")
    assert code == 2 and out == ""
    assert "agent: must lie in 1..2" in err


@pytest.mark.parametrize("argv", [["--property", "population"], ["--property", "weight", "--max-n", "1"]])
def test_scan_adjusted_winner_agent_count_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, "scan", "--rule", "aw", *argv)
    assert code == 2 and out == ""
    assert "rule aw runs on exactly 2 agents" in err


def test_quota_fairness_agent_with_no_weight_exit_two(capsys):
    code, out, err = run_cli(capsys, "fairness", "--notion", "quota", "--sequence", "[1,5]",
                             "--weights", "1,1")
    assert code == 2 and out == ""
    assert "sequence references an agent with no weight" in err


@pytest.mark.parametrize(
    "weights, message",
    [
        ("1,,2", "weights: entry 2 of 3 is empty"),
        ("1,2,", "weights: entry 3 of 3 is empty"),
        (" ,1", "weights: entry 1 of 2 is empty"),
        (" ", "weights: expected a comma-separated list"),
    ],
)
def test_empty_weight_entry_exit_two(capsys, weights, message):
    # dropping an empty entry would renumber the agents after it
    for argv in (
        ["sequence", "--method", "hill", "--weights", weights, "--turns", "3"],
        ["fairness", "--notion", "wef1", "--sequence", "[1,2,1]", "--weights", weights],
        ["consistency", "--kind", "resource", "--method", "hill", "--weights", weights,
         "--turns", "3"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err


def run_python(*args):
    """``python *args`` in a fresh process that imports this checkout's
    pickseq: (completed process, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=30)
    return done, time.perf_counter() - start


def run_module(*argv):
    """``python -m pickseq`` in a fresh process: (completed process, wall seconds)."""
    return run_python("-m", "pickseq", *argv)


def test_only_repro_loads_the_catalog():
    # the counterexample catalog is imported by the `repro` subcommand alone
    done, _ = run_python("-c", "\n".join([
        "import sys",
        "from pickseq.cli import main",
        "main(['sequence', '--method', 'jefferson', '--weights', '2,1', '--turns', '3'])",
        "assert 'pickseq.repro' not in sys.modules, 'sequence loaded the catalog'",
        "assert main(['repro', '--list']) == 0",
        "assert 'pickseq.repro' in sys.modules",
    ]))
    assert done.returncode == 0, done.stderr
    first, *cases = done.stdout.splitlines()
    assert first == "1 1 2" and "p61-mnw-resmon" in "\n".join(cases)


@pytest.mark.parametrize("name, value", [("trials", 100_000_000), ("max_n", 5), ("max_m", 9)])
def test_scan_above_its_bounds_exits_two_quickly(name, value):
    flag = "--" + name.replace("_", "-")
    done, elapsed = run_module("scan", "--rule", "adams", "--property", "wef1", flag, str(value))
    assert done.returncode == 2 and done.stdout == ""
    cap = MAX_SCAN_BOUNDS[name]
    assert f"argument {flag}: scan accepts {name} of at most {cap}, got {value}\n" in done.stderr
    assert value > cap and elapsed < 1.0


def test_scan_at_its_bounds_runs(capsys):
    bounds = [f"--{name.replace('_', '-')}={cap}" for name, cap in MAX_SCAN_BOUNDS.items()]
    code, out, _ = run_cli(capsys, "scan", "--rule", "webster", "--property", "wef1", *bounds,
                           "--json")
    payload = json.loads(out)
    assert code == 1 and payload["found"] is True
    assert (payload["trials"], payload["max_n"], payload["max_m"]) == tuple(MAX_SCAN_BOUNDS.values())


@pytest.mark.parametrize("command", [["mwnw"], ["allocate", "--method", "mwnw"]])
def test_budget_above_its_bound_exits_two_quickly(command):
    # 5^16 assignments: with the budget lifted this search runs for minutes
    instance = json.dumps({
        "agents": [1, 2, 3, 4, 5],
        "items": 16,
        "utilities": [[(3 * i + 7 * g) % 11 for g in range(16)] for i in range(5)],
    })
    done, elapsed = run_module(*command, "--instance", instance, "--budget", str(10**12))
    assert done.returncode == 2 and done.stdout == ""
    assert f"at most {MAX_BUDGET} assignments are supported, got {10**12}" in done.stderr
    assert elapsed < 1.0


@pytest.mark.parametrize("command", [["mwnw"], ["allocate", "--method", "mwnw"]])
def test_budget_at_its_bound_is_accepted(command):
    instance = json.dumps({"agents": [1, 2], "items": 3, "utilities": [[1, 2, 3], [3, 2, 1]]})
    done, _ = run_module(*command, "--instance", instance, "--budget", str(MAX_BUDGET), "--json")
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["bundles"]
    assert MAX_BUDGET == 4_000_000


def test_mwnw_huge_exponents_exit_two_quickly():
    # weights 1/1000003 and 1/1000005 give exponents near 10^6: the solver
    # must refuse the instance before it forms a single product
    instance = json.dumps({
        "agents": [{"weight": "1/1000003"}, {"weight": "1/1000005"}],
        "items": 6,
        "utilities": [[3, 1, 4, 1, 5, 9], [2, 6, 5, 3, 5, 8]],
    })
    done, elapsed = run_module("mwnw", "--json", "--instance", instance)
    assert done.returncode == 2 and done.stdout == ""
    assert "welfare products need up to" in done.stderr and "above the limit" in done.stderr
    assert elapsed < 1.0


def test_inexact_method_is_refused(capsys):
    code, _, err = run_cli(capsys, "sequence", "--method", "powermean:1/2,1/2",
                           "--weights", "1,2", "--turns", "4")
    assert code == 2
    assert "powermean:1/2,1/2 has no exact comparison and is not available from the CLI" in err
    assert "allow_approx" not in err


@pytest.mark.parametrize("method", ["powermean:1", "powermean:1,1/2,1"])
def test_power_mean_needs_two_parameters_exit_two(capsys, method):
    code, out, err = run_cli(capsys, "sequence", "--method", method, "--weights", "1,2", "--turns", "3")
    assert code == 2 and out == ""
    assert err == "error: powermean takes two parameters: powermean:p,w\n"


def test_json_output_deterministic(capsys):
    argvs = [
        ["sequence", "--method", "hill", "--weights", "5,3,2", "--turns", "7", "--json"],
        ["fairness", "--notion", "wprop1", "--sequence", "[1,2,1,2]", "--weights", "2,1", "--json"],
        ["mwnw", "--instance", json.dumps({"agents": [1, 2], "items": 3, "utilities": [[1, 2, 3], [3, 2, 1]]}), "--json"],
        ["scan", "--rule", "dean", "--property", "wprop1", "--seed", "914", "--trials", "2000", "--max-n", "3", "--max-m", "8", "--json"],
    ]
    for argv in argvs:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
