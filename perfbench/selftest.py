#!/usr/bin/env python3
"""Self-test of the benchmark harness on a tiny run (about ten seconds).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that

  1. every metric named in BENCHMARK.json is emitted, with its unit;
  2. an answer that differs from a (deliberately corrupted) expected digest,
     or from an expected exit code and verdict, is counted as a failed
     operation and makes the run incorrect;
  3. traced and untraced runs give identical report digests;
  4. per-layer counts repeat exactly across two traced runs, each in its own
     worker process.  A count that does not repeat is listed as unsteady (it
     cannot support a claim); it does not fail the self-test.

Exits 0 when checks 1-3 hold.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import run  # noqa: E402

TINY = [
    catalog.make_op("fork", "q", "describe"),
    catalog.make_op("fork", "fp", "describe"),
    catalog.make_op("sl2-block", "q", "check-left"),
    catalog.make_op("sl2-block", "fp", "check-left"),
    catalog.make_op("sl2-block", "q", "idempotent-2", "#0,#1"),
    catalog.make_op("ext2-chain", "q", "vmatrix"),
]


def tiny_run(root, trace, expected):
    """One round of TINY in a fresh worker; returns (summary, results, setup infos)."""
    deadline = time.monotonic() + run.RUN_LIMIT_S
    worker, setup_infos = run.measure_setup(root, deadline)
    try:
        orders = iter([TINY])
        results, rounds = run.run_rounds(worker, TINY, orders, 0, trace, deadline, lambda _: None)
    finally:
        worker.close()
    summary = run.summarize(results, rounds, setup_infos, expected, trace, lambda _: None)
    return summary, results, setup_infos


def digests(results, index):
    return {op["key"]: answers[index].get("digest") for op, answers in results}


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = run.load_expected()
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    catalog.write_specs(root)
    try:
        plain, plain_results, plain_setup = tiny_run(root, False, expected)
        traced_a, results_a, _ = tiny_run(root, True, expected)
        traced_b, _, _ = tiny_run(root, True, expected)
    finally:
        shutil.rmtree(os.path.join(root, "perfbench", "work"), ignore_errors=True)

    # 1. names and units
    for summary, section in ((plain, "end_to_end"), (traced_a, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {name: m["unit"] for name, m in summary["metrics"].items()}
        check(got == want, f"{section}: {len(want)} metrics emitted with their units")
    check(plain["correct"] and plain["failed"] == 0, "tiny run: every answer matches its expected answer")

    # 2. a corrupted expected digest is a failed operation
    corrupted = copy.deepcopy(expected)
    victim = TINY[2]["key"]
    corrupted[victim]["digest"] = "0" * 64
    summary = run.summarize(plain_results, 1, plain_setup, corrupted, False, lambda _: None)
    check(summary["failed"] == 1 and not summary["correct"],
          f"corrupted digest of {victim!r} counted as 1 failed operation")
    # ... and so is a verdict that flips along with its exit code
    corrupted = copy.deepcopy(expected)
    corrupted[victim].update(exit=1, verdict="fail")
    summary = run.summarize(plain_results, 1, plain_setup, corrupted, False, lambda _: None)
    check(summary["failed"] == 1 and not summary["correct"],
          f"corrupted exit/verdict of {victim!r} counted as 1 failed operation and a wrong answer")

    # 3. tracing does not change any report
    check(traced_a["correct"] and traced_b["correct"], "traced runs: traced and untraced answers agree")
    check(digests(plain_results, 0) == digests(results_a, 1),
          "untraced run and traced run give identical report digests")

    # 4. counts repeat across traced runs
    counts = [name for name, m in traced_a["metrics"].items() if m["unit"] == "count"]
    unsteady = [name for name in counts
                if traced_a["metrics"][name]["value"] != traced_b["metrics"][name]["value"]]
    print(f"info  {len(counts) - len(unsteady)} of {len(counts)} per-layer counts repeat exactly")
    for name in unsteady:
        print(f"      unsteady: {name} {traced_a['metrics'][name]['value']} "
              f"vs {traced_b['metrics'][name]['value']}")

    print("self-test " + ("failed: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
