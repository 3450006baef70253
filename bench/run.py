#!/usr/bin/env python3
"""pickseq benchmark: four closed-loop workloads and a traced per-layer run.

    python3 bench/run.py --workload apportion --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --seconds 20        # every workload in turn

Run from any directory; pickseq is imported from ``src/`` next to this
directory, never from an installed copy.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, ``raw {...}``, holds the uncorrected
CPU and wall-clock figures.

``--trace 0`` measures the named workload: one caller runs its fixed list
of operations in whole rounds until ``--seconds`` have elapsed and at least
``MIN_OPS`` operations have completed.  In-process operation times are
reported at a nominal machine speed: a fixed stdlib Fraction loop runs
before every operation, and each time is scaled by ``NOMINAL_REF_S`` over
the median of the loops around it.  This cancels most of the CPU speed
drift of a shared host.  ``cli`` times, taken in child processes, are
reported as measured.

``--trace 1`` gives the per-layer metrics.  Every layer must be measured,
so it runs the first operations of every workload (``TRACE_SLICE``) in
passes, each operation once untraced and once traced, and reports self
times and counts per pass plus the tracing overhead: the traced minus the
untraced time of a pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Typical median time of reference_loop() on the reference host, a 2-core
# x86-64 VM (Intel Xeon, 2.1 GHz) running Python 3.11.7; corrected times
# are in units of that machine.
NOMINAL_REF_S = 1.7e-3
REF_WINDOW = 5  # loops on each side of an operation used for its correction
MIN_OPS = 100  # so that at least ten samples lie beyond the p90
SETUP_REPEATS = 7
OP_TIMEOUT_S = 60
TRACE_SLICE = {"apportion": 9, "welfare": 2, "scan": 4, "cli": 8}


def reference_loop() -> float:
    """CPU seconds taken by a fixed stdlib Fraction loop: the drift probe."""
    start = thread_time()
    a = Fraction(355, 113)
    hits = 0
    for i in range(1, 240):
        b = Fraction(i, i + 7)
        if a * b < b + 1:
            hits += 1
    return thread_time() - start


def drift_factors(refs: list[float]) -> list[float]:
    """NOMINAL_REF_S over the median reference loop near each position."""
    out = []
    for i in range(len(refs)):
        window = refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]
        out.append(NOMINAL_REF_S / statistics.median(window))
    return out


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S} s")


def run_guarded(op, tracer):
    """Run one operation under a wall-clock limit, so a hang fails it.
    Returns its output, wall seconds and CPU seconds of this thread."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        start, cpu = perf_counter(), thread_time()
        out = op.run(tracer)
        return out, perf_counter() - start, thread_time() - cpu
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def measure_setup(workloads, name: str, seed: int) -> list[float]:
    """Seconds from the start of a fresh process, which imports pickseq and
    builds the workload's inputs, to its first timed operation; once for
    each of SETUP_REPEATS processes."""
    raw = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
        start = time.monotonic()
        done = subprocess.run(argv, cwd=ROOT, env=workloads.child_env(), capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S, check=True)
        raw.append(float(done.stdout.split()[-1]) - start)
    return raw


def timed_run(workloads, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    build, check = workloads.WORKLOADS[name]
    ops = build(seed)
    tracer = workloads.NoTracer()
    first, refs, times, walls = {}, [], [], []
    attempted = failed = rounds = 0
    mismatched, counted = set(), []
    peak_kib = 0
    gc.collect()
    start = perf_counter()
    round_size = len(ops) // workloads.ROUNDS[name]
    stop = False
    while not stop:
        for _ in range(round_size):
            i = attempted % len(ops)
            op = ops[i]
            refs.append(reference_loop())
            attempted += 1
            try:
                out, wall, cpu = run_guarded(op, tracer)
            except Exception as exc:  # a raising operation counts as failed
                print(f"operation {name}[{i}] failed: {exc!r}", file=sys.stderr)
                refs.pop()
                failed += 1
                stop = isinstance(exc, OpTimeout) or stop
                continue
            # an operation's time is the CPU time of the process doing its work
            times.append(out[3] if name == "cli" else cpu)
            walls.append(wall)
            counted.append(i)
            if name == "cli":
                peak_kib = max(peak_kib, out[2])
            if i not in first:
                first[i] = out
            elif not workloads.same_output(name, first[i], out):
                mismatched.add(len(counted) - 1)
        rounds += 1
        stop = stop or (perf_counter() - start >= seconds and len(times) >= MIN_OPS)
    elapsed = perf_counter() - start
    if name != "cli":
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    bad = check(ops, first)
    wrong = sum(1 for k, i in enumerate(counted) if i in bad or k in mismatched)
    failed += wrong
    if mismatched:
        print(f"{len(mismatched)} outputs differ from the first pass", file=sys.stderr)

    if name == "cli":
        # a cold-start child does not track the parent's reference loop:
        # scaling by it widened the spread over seeds (9% against 4% raw)
        corrected = times
    else:
        corrected = [t * f for t, f in zip(times, drift_factors(refs))]
    setup_raw = measure_setup(workloads, name, seed)
    metrics = {
        "ops_per_s": ("1/s", len(corrected) / sum(corrected)),
        "op_p50_ms": ("ms", statistics.median(corrected) * 1e3),
        "op_p90_ms": ("ms", p90(corrected) * 1e3),
        "setup_s": ("s", statistics.median(setup_raw)),
        "peak_rss_mb": ("MB", peak_kib / 1024),
    }
    raw = {
        "rounds": rounds,
        "ops": len(times),
        "elapsed_s": elapsed,
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": p90(times) * 1e3,
        "wall_ops_per_s": len(walls) / elapsed,
        "wall_op_p50_ms": statistics.median(walls) * 1e3,
        "wall_op_p90_ms": p90(walls) * 1e3,
        "setup_s_each": setup_raw,
        "ref_ms_median": statistics.median(refs) * 1e3,
        "ref_ms_min_max": [min(refs) * 1e3, max(refs) * 1e3],
    }
    result = {
        "correct": not bad and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[-1], "unit": v[-2]} for k, v in metrics.items()},
    }
    return result, raw


def _probe(workloads, span, code):
    """An operation that starts one interpreter running ``code``."""
    def run(tr):
        return tr.call(span, workloads.run_child, [sys.executable, "-c", code])
    return workloads.Op("probe", run, {})


def traced_run(workloads, seed: int, seconds: float) -> tuple[dict, dict]:
    slices = {}
    for name, (build, _) in workloads.WORKLOADS.items():
        # each operation runs inside a span of its own, the parent of its calls
        slices[name] = [workloads.Op(op.kind, lambda tr, op=op, name=name: tr.call(f"op.{name}", op.run, tr), op.data)
                        for op in build(seed)[: TRACE_SLICE[name]]]
    probes = [_probe(workloads, "cli.interpreter", "pass"),
              _probe(workloads, "cli.import_total", "import pickseq.cli")]
    first = {name: {} for name in slices}
    tracer, untraced = workloads.Tracer(), workloads.NoTracer()
    # Every operation runs twice in a row, untraced and traced, in an order
    # that alternates by pass: the host drifts by tens of percent over
    # seconds, so only back-to-back pairs show the tracing overhead.
    pass_times = []  # (untraced seconds, traced seconds) of each pass
    attempted = failed = 0
    start = perf_counter()
    while not pass_times or perf_counter() - start < seconds:
        order = (untraced, tracer) if len(pass_times) % 2 == 0 else (tracer, untraced)
        spent = [0.0, 0.0]
        for name, ops in [*slices.items(), ("probe", probes)]:
            for i, op in enumerate(ops):
                for current in order:
                    attempted += 1
                    try:
                        out, wall, _ = run_guarded(op, current)
                    except Exception as exc:
                        print(f"operation {name}[{i}] failed: {exc!r}", file=sys.stderr)
                        failed += 1
                        continue
                    spent[current is tracer] += wall
                    if name == "probe":
                        failed += out[0] != 0
                    else:
                        first[name].setdefault(i, out)
        pass_times.append(tuple(spent))

    bad = 0
    for name, (_, check) in workloads.WORKLOADS.items():
        bad += len(check(slices[name], first[name]))
    failed += bad * 2 * len(pass_times)  # each operation ran twice a pass

    passes = len(pass_times)
    ms = {}
    for span, own in tracer.self_times():
        ms[span] = ms.get(span, 0.0) + own * 1e3 / passes
    calls = {}
    for span in tracer.spans:
        calls[span[0]] = calls.get(span[0], 0) + 1 / passes
    counts = {k: v / passes for k, v in tracer.counts.items()}

    def total(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    solve_ms = [(s[2] - s[1]) * 1e3 for s in tracer.spans if s[0].startswith("mwnw.solve.")]
    overhead_s = statistics.median(t - u for u, t in pass_times)
    untraced_s = statistics.median(u for u, _ in pass_times)
    layer = {
        "methods.divisor_sequence.ms": ms.get("methods.divisor_sequence", 0.0),
        "methods.divisor_sequence.calls": calls.get("methods.divisor_sequence", 0),
        "methods.quota_sequence.ms": ms.get("methods.quota_sequence", 0.0),
        "methods.quota_sequence.calls": calls.get("methods.quota_sequence", 0),
        "methods.turns": counts.get("methods.turns", 0),
        "methods.us_per_turn": total("methods.", ms) * 1e3 / counts["methods.turns"],
        **{f"fairness.check_sequence.{n}.ms": ms.get(f"fairness.check_sequence.{n}", 0.0)
           for n in workloads.NOTIONS},
        "fairness.check_sequence.calls": total("fairness.check_sequence.", calls),
        "fairness.prefixes": counts["fairness.prefixes"],
        "fairness.us_per_prefix": total("fairness.check_sequence.", ms) * 1e3 / counts["fairness.prefixes"],
        "fairness.check_allocation.ms": ms.get("fairness.check_allocation", 0.0),
        "fairness.check_allocation.calls": calls.get("fairness.check_allocation", 0),
        "fairness.check_quota_bounds.ms": ms.get("fairness.check_quota_bounds", 0.0),
        "executor.execute.ms": ms.get("executor.execute", 0.0),
        "executor.execute.calls": calls.get("executor.execute", 0),
        "executor.picks": counts["executor.picks"],
        "mwnw.solve.ms": total("mwnw.solve.", ms),
        "mwnw.solve.calls": total("mwnw.solve.", calls),
        "mwnw.solve.max_ms": max(solve_ms),
        **{f"mwnw.solve.{k}_weights.ms": ms.get(f"mwnw.solve.{k}_weights", 0.0)
           for k in ("small", "seat", "share")},
        "mwnw.assignments": counts["mwnw.assignments"],
        "harness.scan.ms": total("harness.scan.", ms),
        "harness.scan.calls": total("harness.scan.", calls),
        "harness.scan.trials": counts["harness.scan.trials"],
        "harness.us_per_trial": total("harness.scan.", ms) * 1e3 / counts["harness.scan.trials"],
        **{f"harness.scan.{k}.ms": ms.get(f"harness.scan.{k}", 0.0)
           for k in ("fairness", "monotonicity", "mwnw")},
        "repro.run_case.ms": ms.get("repro.run_case", 0.0),
        "repro.run_case.calls": calls.get("repro.run_case", 0),
        "cli.interpreter.ms": ms["cli.interpreter"],
        "cli.import.ms": ms["cli.import_total"] - ms["cli.interpreter"],
        **{f"cli.{op.kind}.ms": ms[f"cli.{op.kind}"] for op in slices["cli"]},
        "trace.overhead_ms": overhead_s * 1e3,
        "trace.overhead_pct": overhead_s / untraced_s * 100,
    }
    units = {"ms": "ms", "calls": "count", "turns": "count", "prefixes": "count", "picks": "count",
             "assignments": "count", "trials": "count", "us_per_turn": "us", "us_per_prefix": "us",
             "us_per_trial": "us", "max_ms": "ms", "overhead_pct": "%", "overhead_ms": "ms"}
    result = {
        "correct": bad == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k.rsplit(".", 1)[1]]} for k, v in layer.items()},
    }
    spans = [{"name": n, "start": s - start, "end": e - start, "parent": p} for n, s, e, p in tracer.spans]
    out_file = HERE / "out" / f"spans-seed{seed}.json"
    out_file.parent.mkdir(exist_ok=True)
    out_file.write_text(json.dumps({"counts": tracer.counts, "spans": spans}))
    raw = {"passes": passes, "untraced_pass_s": [u for u, _ in pass_times], "traced_pass_s": [t for _, t in pass_times],
           "spans": len(spans), "span_file": str(out_file.relative_to(ROOT))}
    return result, raw


def run_all(args) -> int:
    """Run each workload in its own process, one after another."""
    import workloads
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
        print(f"== {name} (exit {done.returncode})")
        print(done.stdout.rstrip())
        if done.returncode != 0:
            print(done.stderr.rstrip())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["apportion", "welfare", "scan", "cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pickseq" / "__init__.py").is_file():
        print(f"error: no pickseq sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload][0](args.seed)
        print(time.monotonic())
        return 0
    if args.workload is None:
        return run_all(args)
    signal.signal(signal.SIGALRM, _alarm)
    if args.trace:
        result, raw = traced_run(workloads, args.seed, args.seconds)
    else:
        result, raw = timed_run(workloads, args.workload, args.seed, args.seconds)
    print("raw " + json.dumps(raw))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
