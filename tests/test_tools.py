"""The tools that measure a change: ``tools/code_lines.py`` (code lines per
module) and ``tools/bench_pairs.py`` (paired benchmark summaries).  Pure
functions only: no git, no subprocess."""

import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402
import code_lines as code_lines_tool  # noqa: E402
from code_lines import code_lines  # noqa: E402

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Function
        docstring."""
        # an inner comment

        return """a
multi-line
string"""


async def g():
    """Coroutine docstring."""
    return os.sep
'''


def test_code_lines_counts_code_only():
    # import, class, x = 1, def f, the three lines of the returned string,
    # async def g, its return: docstrings, comments and blanks do not count
    assert code_lines(SOURCE) == 9


def test_code_lines_of_an_empty_module():
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


@pytest.mark.parametrize("argv", [["src/pickseq"], ["no-such-rev"], ["HEAD", "no-such-rev"]])
def test_code_lines_names_a_revision_git_cannot_read(monkeypatch, capsys, argv):
    def git(*args):
        if argv[-1] in args:
            raise subprocess.CalledProcessError(128, ["git", *args])
        return ""  # a revision with no modules

    monkeypatch.setattr(code_lines_tool, "git", git)
    assert code_lines_tool.main(argv) == 2
    assert capsys.readouterr() == ("", f"code_lines.py: git cannot read revision {argv[-1]!r}\n")


def test_spread_of_one_value():
    assert bench_pairs.spread([3.5]) == {"median": 3.5, "q1": 3.5, "q3": 3.5, "n": 1}


def test_spread_takes_inclusive_quartiles():
    assert bench_pairs.spread([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}
    assert bench_pairs.spread([5, 1, 4, 2, 3]) == {"median": 3, "q1": 2, "q3": 4, "n": 5}


BASE = [1.0, 2.0, 4.0, 4.0]
HEAD = [2.0, 2.0, 1.0, 8.0]  # pair 2 ties, pairs 1 and 4 rise, pair 3 falls


@pytest.mark.parametrize("better, won", [("higher", {"base": 1, "head": 2}),
                                         ("lower", {"base": 2, "head": 1})])
def test_compare_counts_pairs_won_without_ties(better, won):
    entry = bench_pairs.compare(BASE, HEAD, better)
    assert entry["better"] == better
    assert entry["pairs_won"] == won
    assert entry["base"] == bench_pairs.spread(BASE) and entry["head"] == bench_pairs.spread(HEAD)
    # head median 2 against base median 3
    assert entry["change"] == pytest.approx(2 / 3 - 1)


def test_compare_gives_no_change_on_a_zero_base_median():
    entry = bench_pairs.compare([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], "lower")
    assert "change" not in entry
    assert entry["pairs_won"] == {"base": 2, "head": 0}


def test_compare_processes_drops_pairs_with_a_failed_side():
    failed = {"error": "exit 1: boom"}
    times = {"base": [1.0, failed, 3.0, 2.0], "head": [2.0, 2.0, failed, 1.0]}
    assert bench_pairs.compare_processes(times) == {
        "unit": "s", **bench_pairs.compare([1.0, 2.0], [2.0, 1.0], "lower")}


def test_compare_processes_without_a_finished_pair_is_none():
    failed = {"error": "exit 1: boom"}
    assert bench_pairs.compare_processes({"base": [failed, 1.0], "head": [2.0, failed]}) is None
    assert bench_pairs.compare_processes({"base": [], "head": []}) is None


def _run(value):
    return {"metrics": {"ops_per_s": {"value": value}}}


METRICS = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def test_summarize_skips_pairs_with_an_errored_run():
    pairs = [
        {"base": _run(10.0), "head": _run(12.0)},
        {"base": _run(10.0), "head": {"error": "exit 1: crash"}},
        {"base": {"error": "exit 1: crash"}, "head": _run(1.0)},
        {"base": _run(14.0), "head": _run(11.0)},
    ]
    setups = {"base": [0.5, 0.7], "head": [0.6, {"error": "exit 2: bad"}]}
    summary = bench_pairs.summarize(pairs, setups, METRICS)
    entry = bench_pairs.compare([10.0, 14.0], [12.0, 11.0], "higher")
    assert summary["ops_per_s"] == {"unit": "1/s", "bound": 0.25, **entry,
                                    "verdict": bench_pairs.verdict(entry, 0.25)}
    assert summary["setup_only_s"] == bench_pairs.compare_processes({"base": [0.5], "head": [0.6]})


def test_summarize_with_every_pair_errored_is_empty():
    pairs = [{"base": {"error": "exit 1: crash"}, "head": _run(1.0)}]
    failed = {"error": "exit 1: crash"}
    assert bench_pairs.summarize(pairs, {"base": [failed], "head": [failed]}, METRICS) == {}


def _entry(base, head, better="higher"):
    return bench_pairs.compare(base, head, better)


BASE_TEN = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0]  # IQR 1.0


@pytest.mark.parametrize("better, sign", [("higher", 1), ("lower", -1)])
def test_verdict_gain_needs_nine_tenths_of_ten_pairs_and_more_than_the_base_iqr(better, sign):
    head = [b + sign * 5 for b in BASE_TEN]
    assert bench_pairs.verdict(_entry(BASE_TEN, head, better), 0.25) == "gain"
    # one pair lost of ten still gains; two lost do not
    one_lost = head[:9] + [BASE_TEN[9] - sign * 5]
    assert bench_pairs.verdict(_entry(BASE_TEN, one_lost, better), 0.25) == "gain"
    two_lost = head[:8] + [b - sign * 5 for b in BASE_TEN[8:]]
    assert bench_pairs.verdict(_entry(BASE_TEN, two_lost, better), 0.25) == "within bound"
    # every pair won, by less than the base's interquartile range
    small = [b + sign * 0.5 for b in BASE_TEN]
    assert bench_pairs.verdict(_entry(BASE_TEN, small, better), 0.25) == "within bound"
    # every pair won, but fewer than ten pairs
    assert bench_pairs.verdict(_entry(BASE_TEN[:9], head[:9], better), 0.25) == "within bound"


@pytest.mark.parametrize("better, sign", [("higher", 1), ("lower", -1)])
def test_verdict_worse_beyond_the_bound(better, sign):
    worse = [b - sign * 30 for b in BASE_TEN]
    assert bench_pairs.verdict(_entry(BASE_TEN, worse, better), 0.25) == "worse"
    slightly = [b - sign * 20 for b in BASE_TEN]
    assert bench_pairs.verdict(_entry(BASE_TEN, slightly, better), 0.25) == "within bound"


def test_verdict_unresolved_when_the_base_spreads_wider_than_the_bound():
    base = [50.0, 150.0, 100.0, 60.0, 140.0, 100.0]  # IQR 62.5 on a median of 100
    assert bench_pairs.verdict(_entry(base, [b + 1 for b in base]), 0.25) == "unresolved"
    assert bench_pairs.verdict(_entry(base, [b + 1 for b in base]), 0.7) == "within bound"
    assert bench_pairs.verdict(_entry([0.0, 0.0], [0.0, 0.0], "lower"), 0.25) == "unresolved"


def test_summarize_and_the_table_carry_each_verdict():
    pairs = [{"base": {**_run(b), "correct": True, "failed": 0},
              "head": {**_run(b + 5), "correct": True, "failed": 0}} for b in BASE_TEN]
    summary = bench_pairs.summarize(pairs, {"base": [], "head": []}, METRICS)
    assert summary["ops_per_s"]["verdict"] == "gain"
    result = {"revisions": {"base": {"name": "a"}, "head": {"name": "b"}}, "pairs": 10, "seconds": 1,
              "workloads": {"apportion": {"summary": summary, "pairs": pairs,
                                          "setup_only_s": {"base": [], "head": []}}},
              "cold_start_cpu_s": {"runs": 0, "summary": None, "times": {"base": [], "head": []}}}
    table = bench_pairs.medians_table(result)
    assert "| verdict |" in table
    assert "| apportion | ops_per_s (1/s) | 100 | 105 | +5.0% | 0/10 | gain |" in table
