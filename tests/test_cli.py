import json

import pytest

from pickseq.cli import MAX_AGENTS, MAX_TURNS, main


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


def test_inexact_method_is_refused(capsys):
    code, _, err = run_cli(capsys, "sequence", "--method", "powermean:1/2,1/2",
                           "--weights", "1,2", "--turns", "4")
    assert code == 2
    assert "powermean:1/2,1/2 has no exact comparison and is not available from the CLI" in err
    assert "allow_approx" not in err


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
