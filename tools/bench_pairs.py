"""Paired benchmark runs of two git revisions, written to one JSON file.

Each revision is exported with ``git archive`` into a temporary directory,
so the working tree is not touched.  For each workload, ``bench/run.py``
of each checkout runs unchanged in ``--pairs`` pairs: both sides of a pair
take the same seed, and the side that runs first alternates from pair to
pair, so that drift of a shared host falls on both sides alike; with the
default even number of pairs, each side runs first in half of them.  Then
``--setup-runs`` ``--setup-only`` processes per side, again alternating,
are timed as ``bench/run.py``'s ``measure_setup`` times them: from just
before the process starts to the ``time.monotonic()`` it prints once its
inputs are built.  Last, ``COLD_STARTS`` direct cold starts of
``COLD_START_ARGV`` per side, again alternating, are timed by the CPU time
(user plus system) that ``os.wait4`` reports for each child, as
``bench/workloads.run_child`` reads it.

    python tools/bench_pairs.py HEAD~1 HEAD --pairs 6 --setup-runs 20 --out bench_pairs.json

The output holds the command, both revisions, the Python version, the
number of usable cores, whether ``PYTHONDONTWRITEBYTECODE`` was set and
whether each checkout had a ``__pycache__`` before and after, every run's
final JSON line, and per workload and end-to-end metric of
``BENCHMARK.json`` each side's median and quartiles and the pairs each side
won (ties count for neither) with its ``verdict`` against the metric's
bound (gain, worse, unresolved or within bound), and the same, without a
verdict, for the cold starts' CPU time.  Each revision is also recorded by the git
ids of ``src``, the benchmark's ``paths`` and ``BENCHMARK.json``, so a
record can be matched to any commit that holds the same files.  Standard
output gets the table of medians in Markdown; progress goes to standard
error.  A run or ``--setup-only`` process that exits with an error is
recorded as ``{"error": "exit <status>: <end of its stderr>"}`` and left
out of the medians, as is a cold start that fails.  The exit status is 1
if any run crashed, was incorrect or had a failed operation, or any
``--setup-only`` process or cold start failed, after the file and the
table are written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("base", "head")
RUN_TIMEOUT_S = 900
COLD_STARTS = 30
MIN_GAIN_PAIRS = 10  # fewer pairs than this support no claim of a gain
COLD_START_ARGV = ["-m", "pickseq", "sequence", "--method", "webster", "--weights", "3,5,7",
                   "--turns", "12", "--json"]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def export(revision: str, into: Path) -> str:
    """Extract the revision's tree into ``into``; return its commit id."""
    commit = git("rev-parse", "--verify", f"{revision}^{{commit}}").decode().strip()
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=git("archive", commit), check=True)
    return commit


def tree_ids(commit: str, paths: list[str]) -> dict:
    """The git object id of each path in the commit."""
    return {path: git("rev-parse", f"{commit}:{path}").decode().strip() for path in paths}


def has_pycache(checkout: Path) -> bool:
    return any(checkout.rglob("__pycache__"))


def failure(done: subprocess.CompletedProcess) -> dict | None:
    """The record of a process that failed or printed nothing, else None."""
    if done.returncode != 0 or not done.stdout.strip():
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    return None


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its final JSON line, or the failure."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return failure(done) or json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(checkout: Path, workload: str, seed: int) -> float | dict:
    """One ``--setup-only`` process, timed as ``measure_setup`` does, or the failure."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--setup-only"]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.monotonic()
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    return failure(done) or float(done.stdout.split()[-1]) - start


def cold_start_cpu(checkout: Path) -> float | dict:
    """One direct cold start of the CLI: its CPU seconds, or the failure."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, *COLD_START_ARGV]
    with tempfile.TemporaryFile("w+") as stderr:
        proc = subprocess.Popen(argv, cwd=checkout, env=env, stdout=subprocess.PIPE,
                                stderr=stderr, text=True)
        with proc.stdout:
            stdout = proc.stdout.read()
        # reap with wait4, not Popen.wait, to read this child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        stderr.seek(0)
        done = subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr.read())
    return failure(done) or usage.ru_utime + usage.ru_stime


def run_ok(run: dict) -> bool:
    """Whether a run finished, correct and with no failed operation."""
    return "error" not in run and run["correct"] is True and run["failed"] == 0


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the values."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def compare(base: list[float], head: list[float], better: str) -> dict:
    """Each side's spread, the pairs each side won and the change of the
    head's median against the base's."""
    sign = 1 if better == "higher" else -1
    won = {side: 0 for side in SIDES}
    for b, h in zip(base, head):
        if b != h:
            won["head" if sign * (h - b) > 0 else "base"] += 1
    entry = {"better": better, "base": spread(base), "head": spread(head), "pairs_won": won}
    if entry["base"]["median"]:
        entry["change"] = entry["head"]["median"] / entry["base"]["median"] - 1
    return entry


def verdict(entry: dict, bound: float) -> str:
    """The verdict on one metric's ``compare`` entry against its
    ``BENCHMARK.json`` bound, a fraction of the base's median:

    - ``gain``: at least ten pairs ran, the head won at least nine tenths
      of them (ties count for neither), and its median is better than the
      base's by more than the base's interquartile range;
    - ``worse``: the head's median is worse than the base's by more than
      the bound;
    - ``unresolved``: the base's own interquartile range is wider than the
      bound, so no change within the bound can be told from noise;
    - ``within bound`` otherwise.
    """
    base, head = entry["base"], entry["head"]
    sign = 1 if entry["better"] == "higher" else -1
    gained = sign * (head["median"] - base["median"])
    if (base["n"] >= MIN_GAIN_PAIRS and 10 * entry["pairs_won"]["head"] >= 9 * base["n"]
            and gained > base["q3"] - base["q1"]):
        return "gain"
    if not base["median"]:
        return "unresolved"  # no relative change or spread
    if -gained > bound * abs(base["median"]):
        return "worse"
    if base["q3"] - base["q1"] > bound * abs(base["median"]):
        return "unresolved"
    return "within bound"


def compare_processes(times: dict) -> dict | None:
    """``compare`` of the per-side seconds of processes, lower is better,
    over the pairs whose two processes both finished; None if none did."""
    timed = [(b, h) for b, h in zip(times["base"], times["head"])
             if not isinstance(b, dict) and not isinstance(h, dict)]
    if not timed:
        return None
    base, head = (list(side) for side in zip(*timed))
    return {"unit": "s", **compare(base, head, "lower")}


def summarize(pairs: list[dict], setups: dict, metrics: list[dict]) -> dict:
    """Per end-to-end metric, over the pairs whose two runs both finished,
    and for the ``--setup-only`` processes (``compare_processes``):
    ``compare`` of the two sides; each end-to-end metric also gets its
    ``verdict`` against its bound."""
    finished = [p for p in pairs if not any("error" in p[side] for side in SIDES)]
    out = {}
    if finished:
        for metric in metrics:
            base, head = ([p[side]["metrics"][metric["name"]]["value"] for p in finished]
                          for side in SIDES)
            entry = compare(base, head, metric["better"])
            out[metric["name"]] = {"unit": metric["unit"], "bound": metric["bound"], **entry,
                                   "verdict": verdict(entry, metric["bound"])}
    setup = compare_processes(setups)
    if setup:
        out["setup_only_s"] = setup
    return out


def failed_count(times: dict) -> dict:
    """Per side, the processes that failed."""
    return {side: sum(isinstance(t, dict) for t in times[side]) for side in SIDES}


def table_row(label: str, name: str, m: dict) -> str:
    change = f"{m['change']:+.1%}" if "change" in m else "-"
    return (f"| {label} | {name} ({m['unit']}) | {m['base']['median']:.4g} | "
            f"{m['head']['median']:.4g} | {change} | "
            f"{m['pairs_won']['base']}/{m['pairs_won']['head']} | {m.get('verdict', '-')} |")


def medians_table(result: dict) -> str:
    lines = [f"### Paired benchmark: {result['revisions']['base']['name']} (base) against "
             f"{result['revisions']['head']['name']} (head), {result['pairs']} pair(s), "
             f"{result['seconds']} s per run",
             "", "| workload | metric | base median | head median | change | pairs won base/head "
             "| verdict |",
             "|---|---|---|---|---|---|---|"]
    for workload, entry in result["workloads"].items():
        for name, m in entry["summary"].items():
            lines.append(table_row(workload, name, m))
        failed = {side: sum(not run_ok(p[side]) for p in entry["pairs"]) for side in SIDES}
        lines.append(f"| {workload} | runs failed or incorrect | {failed['base']} | "
                     f"{failed['head']} | | | |")
        failed = failed_count(entry["setup_only_s"])
        lines.append(f"| {workload} | setup-only processes failed | {failed['base']} | "
                     f"{failed['head']} | | | |")
    cold = result["cold_start_cpu_s"]
    label = f"cold start, {cold['runs']} per side"
    if cold["summary"]:
        lines.append(table_row(label, "CPU time", cold["summary"]))
    failed = failed_count(cold["times"])
    lines.append(f"| {label} | cold starts failed | {failed['base']} | {failed['head']} | | | |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="git revision of the base side, e.g. HEAD~1")
    parser.add_argument("head", help="git revision of the head side, e.g. HEAD")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=6,
                        help="pairs of runs per workload; an even count puts each side first equally often")
    parser.add_argument("--seconds", type=float,
                        help="run length of each run; default: BENCHMARK.json's run_seconds")
    parser.add_argument("--setup-runs", type=int, default=20,
                        help="--setup-only processes per side and workload")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i adds i")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        revisions = {side: {"name": rev, "commit": export(rev, checkouts[side])}
                     for side, rev in zip(SIDES, (args.base, args.head))}
        spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        for revision in revisions.values():
            revision["trees"] = tree_ids(revision["commit"], ["src", *spec["paths"], "BENCHMARK.json"])
        pycache_before = {side: has_pycache(checkouts[side]) for side in SIDES}
        workloads = {}
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: {side}", file=sys.stderr)
                    pair[side] = bench_run(checkouts[side], workload, seed, seconds)
                pairs.append(pair)
            setups = {side: [] for side in SIDES}
            for i in range(args.setup_runs):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    setups[side].append(setup_seconds(checkouts[side], workload, args.seed))
            workloads[workload] = {"pairs": pairs, "setup_only_s": setups,
                                   "summary": summarize(pairs, setups, spec["end_to_end"])}
        print(f"{COLD_STARTS} cold starts per side", file=sys.stderr)
        cold = {side: [] for side in SIDES}
        for i in range(COLD_STARTS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                cold[side].append(cold_start_cpu(checkouts[side]))
        result = {
            "command": [Path(sys.executable).name, *sys.argv],
            "revisions": revisions,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "pycache": {side: {"before": pycache_before[side], "after": has_pycache(checkouts[side])}
                        for side in SIDES},
            "pairs": args.pairs,
            "seconds": seconds,
            "setup_runs": args.setup_runs,
            "workloads": workloads,
            "cold_start_cpu_s": {"argv": ["python", *COLD_START_ARGV], "runs": COLD_STARTS,
                                 "times": cold, "summary": compare_processes(cold)},
        }
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(medians_table(result))
    runs = [p[side] for entry in workloads.values() for p in entry["pairs"] for side in SIDES]
    processes = [t for entry in workloads.values() for side in SIDES
                 for t in entry["setup_only_s"][side]] + cold["base"] + cold["head"]
    ok = all(map(run_ok, runs)) and not any(isinstance(t, dict) for t in processes)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
