#!/usr/bin/env python3
"""The strata benchmark: one closed-loop client driving the `strata` CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library under test is `src/strata`.
Workloads (see BENCHMARK.json and perfbench/NOTES.md):

  verify-paper   `strata --json verify-paper`, the 13-criterion battery
  spec-queries   single CLI queries on the corpus specs over Q and F_p
  poset-search   `strata --json check SPEC --all-orders` on the 3- and 4-label specs

A run starts one worker process that imports strata (set-up, timed several
times), then runs rounds: every operation of the workload once, in an order
drawn from the seed, each in a fresh fork of the worker.  Rounds repeat while
another one fits in S seconds; the first always runs.  Every answer is checked
against perfbench/expected.json: exit code, verdict, and a digest of the --json
report (worker.report_digest).  Times are scaled by the runs of a calibration
loop taken around them (Speed), because this kind of machine shares its cores.

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
each operation runs twice, untraced and then with spans around every layer,
and the last line carries the per-layer metrics, per round.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import spans  # noqa: E402

SETUP_SPAWNS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s; stop waiting on the worker here
CAL_REF_S = 0.003  # reported times are for a core where one calibration run takes this
CAL_WINDOW_S = 0.1  # calibration runs this close to a span scale it; a wider window was less steady

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
HARNESS = {
    "bench.harness_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.unattributed_s": "s",
}


def per_layer_units():
    return {**spans.metric_units(), **HARNESS}


class BenchError(Exception):
    pass


class Speed:
    """Scales raw times by the calibration runs (worker.calibration_run) that
    started within CAL_WINDOW_S of the timed span: its own brackets and
    samples, and the brackets of the spans run right before and after it.
    A scaled time reads as it would on a core where one run takes CAL_REF_S."""

    def __init__(self, runs):
        runs = sorted(runs)
        self.starts = [t for t, _ in runs]
        self.durations = [d for _, d in runs]

    def scale(self, span):
        lo = bisect.bisect_left(self.starts, span[0] - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.starts, span[1] + CAL_WINDOW_S)
        return CAL_REF_S / statistics.median(self.durations[lo:hi])

    def apply(self, answer):
        """Add the scaled times to one worker answer."""
        k = answer["scale"] = self.scale(answer["span"])
        answer["op_s"] = answer["raw_s"] * k
        if "layers" in answer:
            answer["scaled_layers"] = {name: v * k if name.endswith("_s") else v
                                       for name, v in answer["layers"].items()}
            answer["scaled_self_s"] = answer["self_s"] * k


class Worker:
    """One `perfbench/worker.py` process; requests and answers are JSON lines."""

    def __init__(self, root, deadline):
        self.deadline = deadline
        # Its own process group, so that close() can also stop an operation's fork.
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), root],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            line = self._readline()
            if not line.startswith("ready "):
                raise BenchError(f"worker did not start: {line!r}")
        except BenchError:
            self.close()
            raise
        self.info = json.loads(line[len("ready "):])

    def _readline(self):
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
        if not ready:
            raise BenchError("run time limit reached while waiting for the worker")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with status {self.proc.wait()}")
        return line.strip()

    def run(self, argv, trace):
        self.proc.stdin.write(json.dumps({"argv": argv, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self._readline())

    def close(self):
        try:
            self.proc.stdin.write(json.dumps({"quit": True}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=5)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()


def check_answer(op, answer, expected):
    """(mismatches as text, wrong) for one answer against its expected answer.

    Any difference fails the operation.  It is also `wrong` unless the program
    gave no verdict at all: it crashed, its process died, or it printed no
    verdict report (an error).  A verdict that flips, with its exit code, is
    a wrong answer."""
    want = expected.get(op["key"])
    if want is None:
        return ["no expected answer recorded"], True
    problems = []
    for field in ("exit", "verdict", "digest", "items", "criteria", "error"):
        if field in ("exit", "verdict") or want.get(field) is not None:
            if answer.get(field) != want.get(field):
                problems.append(f"{field} {answer.get(field)!r} != {want.get(field)!r}")
    if problems and answer.get("crash"):
        problems.append(answer["crash"])
    no_verdict = answer.get("crash") or answer.get("exit") is None or answer.get("verdict") is None
    return problems, bool(problems) and not no_verdict


def tail_value(values):
    """Highest percentile with at least 10 samples beyond it, and its rank.
    Below 22 samples that percentile is not above the median, so the tail is
    the maximum instead."""
    xs = sorted(values)
    rank = len(xs) - 11 if len(xs) >= 22 else len(xs) - 1
    return xs[rank], rank + 1


def measure_setup(root, deadline):
    """Start the worker SETUP_SPAWNS times; keep the last.
    Returns (worker, the `ready` info of each start)."""
    infos = []
    for i in range(SETUP_SPAWNS):
        worker = Worker(root, deadline)
        infos.append(worker.info)
        if i < SETUP_SPAWNS - 1:
            worker.close()
    return worker, infos


def run_rounds(worker, ops, orders, seconds, trace, deadline, log):
    """Run whole rounds while another fits in `seconds`.  Returns [(op, answers)]."""
    results = []
    start = time.monotonic()
    last = 0.0
    rounds = 0
    while rounds == 0 or (time.monotonic() - start + last <= seconds
                          and time.monotonic() + last < deadline):
        t0 = time.monotonic()
        for op in next(orders):
            answers = [worker.run(op["argv"], False)]
            if trace:
                answers.append(worker.run(op["argv"], True))
            results.append((op, answers))
        last = time.monotonic() - t0
        rounds += 1
        log(f"round {rounds}: {len(ops)} operations in {last:.2f} s")
    return results, rounds


def summarize(results, rounds, setup_infos, expected, trace, log):
    """Scale the times, check every answer, and return the result object."""
    timed = [a for _, pair in results for a in pair if "span" in a]
    speed = Speed([run for a in timed + setup_infos for run in a["cal"]])
    for a in timed:
        speed.apply(a)
    setup_times = [info["raw_s"] * speed.scale(info["span"]) for info in setup_infos]
    log(f"set-up (strata import) over {len(setup_times)} starts: {setup_times} s; raw "
        f"{[info['raw_s'] for info in setup_infos]} s")

    attempted = failed = 0
    wrong = []
    first = {}
    for op, answers in results:
        attempted += 1
        answer = answers[0]
        problems, is_wrong = check_answer(op, answer, expected)
        if trace:
            traced = answers[1]
            same = all(traced.get(f) == answer.get(f) for f in ("exit", "verdict", "digest", "items"))
            if not same:
                problems.append("traced answer differs from the untraced one")
                is_wrong = True
        if problems:
            failed += 1
            log(f"FAILED {op['key']}: {'; '.join(problems)}")
        if is_wrong:
            wrong.append(op["key"])
        if answer.get("digest") and "digest" not in expected.get(op["key"], {}) \
                and op["key"] not in first:
            log(f"UNCHECKED {op['key']}: the report has no recorded digest; "
                f"record it with perfbench/record.py")
        first.setdefault(op["key"], (op, answer))
    # The F_p copy of a spec must reach the same exit code and verdict as Q.
    for key, (op, answer) in first.items():
        if op["field"] != "fp" or op["twin"] not in first:
            continue
        twin = first[op["twin"]][1]
        if (twin["exit"], twin.get("verdict")) != (answer["exit"], answer.get("verdict")):
            log(f"TWIN MISMATCH {key}: F_p {answer['exit']}/{answer.get('verdict')} "
                f"vs Q {twin['exit']}/{twin.get('verdict')}")
            wrong.append(key)

    log(f"operations attempted {attempted}, failed {failed}, "
        f"fail_ratio {failed / attempted:.4f}, rounds {rounds}")
    if trace:
        metrics = layer_metrics(results, rounds)
        units = per_layer_units()
    else:
        metrics = end_to_end_metrics(results, setup_times, log)
        units = END_TO_END
    for name, value in metrics.items():
        log(f"{name} = {value} {units[name]}")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def end_to_end_metrics(results, setup_times, log):
    results = [(op, answers) for op, answers in results if "op_s" in answers[0]]
    if not results:
        raise BenchError("no operation completed")
    answers = [answers[0] for _, answers in results]
    lat_ms = [a["op_s"] * 1000.0 for a in answers]
    log(f"raw op time: median {statistics.median(a['raw_s'] for a in answers) * 1000.0} ms, "
        f"total {sum(a['raw_s'] for a in answers)} s")
    tail, rank = tail_value(lat_ms)
    log(f"op latency: {len(lat_ms)} samples, tail is sample {rank} of {len(lat_ms)} in ascending order")
    for field in ("q", "fp"):
        xs = [a["op_s"] * 1000.0 for (op, _), a in zip(results, answers) if op["field"] == field]
        if xs:
            log(f"op_p50_ms over {field}: {statistics.median(xs)} ms ({len(xs)} samples)")
    items = sum(a.get("items", 1) for a in answers)
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail,
        "items_per_s": items / sum(a["op_s"] for a in answers),
        "peak_rss_mb": max(a.get("maxrss_kb", 0) for a in answers) / 1024.0,
    }


def layer_metrics(results, rounds):
    """Per-layer values of the traced pass, summed over operations, per round."""
    totals = dict.fromkeys(per_layer_units(), 0)
    for _, (plain, traced) in results:
        if "scaled_layers" not in traced or "op_s" not in plain:
            continue
        for name, value in traced["scaled_layers"].items():
            totals[name] += value
        totals["bench.harness_s"] += (traced["wall_s"] - traced["raw_s"]) * traced["scale"]
        totals["bench.trace_overhead_s"] += traced["op_s"] - plain["op_s"]
        totals["bench.unattributed_s"] += traced["op_s"] - traced["scaled_self_s"]
    return {name: value / rounds for name, value in totals.items()}


def environment(worker):
    nproc = len(os.sched_getaffinity(0))
    return (f"python {platform.python_version()}, nproc {nproc}, machine {platform.machine()}, "
            f"compiled _elim_cy importable: {worker.info['elim_cy']}")


def load_expected():
    with open(catalog.EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["answers"]


def run(workload, seed, seconds, trace, root, expected=None, log=print):
    """One benchmark run; returns the result object printed as the last line."""
    if not os.path.isfile(os.path.join(root, "src", "strata", "cli.py")):
        raise BenchError(f"no strata source tree under {root}/src")
    deadline = time.monotonic() + RUN_LIMIT_S
    expected = load_expected() if expected is None else expected
    ops, orders = catalog.workload_rounds(workload, seed)
    log(f"workload {workload}, seed {seed}, seconds {seconds}, trace {trace}")
    catalog.write_specs(root)
    worker = None
    try:
        worker, setup_infos = measure_setup(root, deadline)
        log(environment(worker))
        results, rounds = run_rounds(worker, ops, orders, seconds, trace, deadline, log)
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(os.path.join(root, "perfbench", "work"), ignore_errors=True)
    return summarize(results, rounds, setup_infos, expected, trace, log)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), os.getcwd())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
