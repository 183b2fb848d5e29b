#!/usr/bin/env python3
"""Record the expected answer of every catalog operation.

    python3 perfbench/record.py [--check]

Run from the root of a checkout whose answers are known to be right.  Each
operation of catalog.catalog() runs once; its exit code, verdict, and the
sha256 of its --json report without the settings block are written to
perfbench/expected.json.  With --check nothing is written; the answers are
compared with the recorded ones instead.

Where the --json run crashes (an exception other than a StrataError) the same
command is run in text mode.  If text mode answers, its exit code and verdict
are the expected answer and the digest is left unset, so that the crash counts
as a failed operation until the --json path is fixed.

Two checks must hold before anything is written:
  * every F_p operation reaches the same exit code and verdict as its Q twin;
  * verify-paper passes every criterion except c04.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
from run import Worker, check_answer  # noqa: E402

EXPECTED_FAILING_CRITERIA = {"c04"}


def record(worker, op):
    answer = worker.run(op["argv"], False)
    want = {k: answer.get(k) for k in ("exit", "verdict", "digest", "items", "criteria", "error")}
    note = None
    if answer.get("crash"):
        text = worker.run([a for a in op["argv"] if a != "--json"], False)
        if text.get("crash") or text.get("verdict") is None:
            raise SystemExit(f"{op['key']}: crashes in both modes: {answer['crash']}")
        want = {"exit": text["exit"], "verdict": text["verdict"], "digest": None}
        note = f"--json crashes ({answer['crash']}); expected answer from text mode"
    return {k: v for k, v in want.items() if v is not None}, note, answer["raw_s"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true", help="compare instead of writing")
    args = ap.parse_args(argv)
    root = os.getcwd()
    ops = catalog.catalog()
    catalog.write_specs(root)
    worker = Worker(root, time.monotonic() + 3600)
    answers, notes, problems = {}, {}, []
    try:
        for op in ops:
            want, note, secs = record(worker, op)
            answers[op["key"]] = want
            if note:
                notes[op["key"]] = note
            print(f"{secs * 1000:9.1f} ms  {op['key']}: {want.get('exit')} {want.get('verdict')}"
                  + (f"  [{note}]" if note else ""), flush=True)
    finally:
        worker.close()
        shutil.rmtree(os.path.join(root, "perfbench", "work"), ignore_errors=True)

    for op in ops:
        if op["field"] == "fp" and op["twin"] in answers:
            got, twin = answers[op["key"]], answers[op["twin"]]
            if (got["exit"], got.get("verdict")) != (twin["exit"], twin.get("verdict")):
                problems.append(f"{op['key']}: F_p answer differs from Q")
    failing = {k for k, ok in answers["verify-paper"]["criteria"].items() if not ok}
    if failing != EXPECTED_FAILING_CRITERIA:
        problems.append(f"verify-paper fails {sorted(failing)}, expected {sorted(EXPECTED_FAILING_CRITERIA)}")

    if args.check:
        with open(catalog.EXPECTED, encoding="utf-8") as fh:
            recorded = json.load(fh)["answers"]
        for op in ops:
            mismatch, _ = check_answer(op, answers[op["key"]], recorded)
            if mismatch and op["key"] not in notes:
                problems.append(f"{op['key']}: {'; '.join(mismatch)}")
    for p in problems:
        print("PROBLEM", p)
    if problems:
        return 1
    if args.check:
        print(f"all {len(ops)} answers match {catalog.EXPECTED}")
    else:
        with open(catalog.EXPECTED, "w", encoding="utf-8") as fh:
            json.dump({"notes": notes, "answers": answers}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(answers)} expected answers to {catalog.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
