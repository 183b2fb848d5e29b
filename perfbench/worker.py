"""Benchmark worker: imports strata once, then runs each operation in a fork.

    python3 perfbench/worker.py ROOT

ROOT is the checkout whose `src/strata` is measured.  Once the library is
imported the worker prints `ready {"raw_s": ..., "elim_cy": ...}`, then reads
one JSON request per line on stdin and answers each with one JSON line:

    request  {"argv": [...], "trace": false}
    answer   {"exit": 0, "verdict": "pass", "digest": "...", "items": 1,
              "criteria": {...}, "crash": null, "error": ..., "raw_s": ...,
              "span": [...], "cal": [...], "wall_s": ..., "maxrss_kb": ...,
              "layers": {...}, "self_s": ...}

Every operation runs in a child forked from the worker, so it starts from the
library state a fresh `strata` process has and leaves nothing behind: caches
keyed on object identity cannot carry answers or memory from one operation to
the next.  `raw_s` is the time of `strata.cli.main` inside the child, `span`
its start and end on the monotonic clock, and `cal` the calibration runs
around it (see below); `wall_s` is fork to reap, as the worker sees it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import sys
import time
import traceback
from array import array

import spans

# Every module the CLI may load lazily is imported here, as part of set-up, so
# that no operation pays an import and the tracer can reach every layer.
LIBRARY_MODULES = (
    "strata.cli",
    "strata.acceptance",
    "strata.borel",
    "strata.compat",
    "strata.functors",
    "strata.homology",
    "strata.vmult",
)


# -- speed calibration ------------------------------------------------------------
#
# The machine this runs on shares its cores: the same operation can take 1.5x
# longer from one ten-second stretch to the next.  Each timed span is therefore
# bracketed by runs of a fixed calibration loop on the same core, and sampled
# every CAL_PERIOD_S inside long spans.  run.py scales each time by the
# loop runs around it (run.Speed).  The loop allocates only integers, which the
# garbage collector does not track, so sampling inside an operation does not
# move its collections.

CAL_PERIOD_S = 0.5
CAL_BRACKET = 3


def calibration_run(starts, durations):
    """Run the loop once; append its start (monotonic clock) and duration."""
    starts.append(time.monotonic())
    t0 = time.perf_counter()
    s = 0
    for i in range(40000):
        s += i * i % 7
    durations.append(time.perf_counter() - t0)


class SpeedProbe:
    """Calibration runs around a timed span and every CAL_PERIOD_S inside it,
    from a SIGALRM handler.  `clock()` is time.perf_counter without the
    handler's time, so neither the span nor a tracer that reads it counts
    the samples."""

    def __init__(self):
        # arrays of doubles are not tracked by the garbage collector either
        self.starts, self.durations = array("d"), array("d")
        self.stolen = 0.0

    def clock(self):
        return time.perf_counter() - self.stolen

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        calibration_run(self.starts, self.durations)
        self.stolen += time.perf_counter() - t0

    def _bracket(self):
        for _ in range(CAL_BRACKET):
            calibration_run(self.starts, self.durations)

    def __enter__(self):
        self._bracket()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        self.start = time.monotonic()
        self.t0 = self.clock()
        return self

    def __exit__(self, *exc):
        self.raw_s = self.clock() - self.t0
        self.end = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._bracket()
        return False

    def fields(self):
        return {"raw_s": self.raw_s, "span": [self.start, self.end],
                "cal": list(zip(self.starts, self.durations))}


def import_library(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import importlib

    for name in LIBRARY_MODULES:
        importlib.import_module(name)


# Lists whose order depends on PYTHONHASHSEED, by key: the paired `idempotent`
# battery lists its recollement identity checks in set order.
HASH_ORDERED = ("identity_checks",)


def _canonical(value):
    """`value` with every HASH_ORDERED list sorted; all other lists keep their order."""
    if isinstance(value, dict):
        return {k: sorted(v, key=json.dumps) if k in HASH_ORDERED and isinstance(v, list)
                else _canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    return value


def report_digest(text):
    """(verdict, digest, doc) of a --json report.

    The digest is the sha256 of the report without its settings block (which
    names the elimination backend) and with the HASH_ORDERED lists sorted, so
    that it does not depend on the hash seed.  Every other list keeps its
    order: a reversed poset or a transposed matrix is a different report."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return None, None, None
    if not isinstance(doc, dict):
        return None, None, None
    doc.pop("settings", None)
    canon = json.dumps(_canonical(doc), sort_keys=True, separators=(",", ":"))
    return doc.get("verdict"), hashlib.sha256(canon.encode()).hexdigest(), doc


def text_verdict(text):
    for line in reversed(text.splitlines()):
        if line.startswith("verdict: "):
            return line[len("verdict: "):].strip()
    return None


def run_child(argv, trace):
    """Body of the forked child: one CLI call; returns the answer dict."""
    from strata import cli

    probe = SpeedProbe()
    tracer = spans.Tracer(probe.clock).install() if trace else None
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with probe:
        sys.stdout, sys.stderr = out, err
        try:
            code = cli.main(argv)
        except Exception as exc:  # an uncaught exception ends a real CLI process with status 1
            code = 1
            crash = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=err)
        finally:
            sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    text = out.getvalue()
    answer = {"exit": code, "crash": crash, "stderr": err.getvalue()[-400:], **probe.fields()}
    if code != 0 and crash is None and not text:
        answer["error"] = err.getvalue().strip().splitlines()[-1]
    if "--json" in argv:
        verdict, digest, doc = report_digest(text)
        answer["verdict"], answer["digest"] = verdict, digest
        if doc is not None and "orders" in doc:
            answer["items"] = len(doc["orders"])
        if doc is not None and "criteria" in doc:
            answer["criteria"] = {c["key"]: c["passed"] for c in doc["criteria"]}
            answer["items"] = len(doc["criteria"])
    else:
        answer["verdict"], answer["digest"] = text_verdict(text), None
    if tracer is not None:
        answer["layers"] = tracer.report()
        answer["self_s"] = tracer.self_time()
    return answer


def run_forked(argv, trace):
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child
        status = 0
        try:
            os.close(r)
            data = json.dumps(run_child(argv, trace)).encode()
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
        except BaseException:
            traceback.print_exc()
            status = 70
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    if status != 0 or not data:
        return {"exit": None, "crash": f"worker child ended with status {status}", "wall_s": wall}
    answer = json.loads(data)
    answer["wall_s"] = wall
    answer["maxrss_kb"] = usage.ru_maxrss
    return answer


def compiled_twin():
    try:
        import strata.kernel._elim_cy  # noqa: F401
    except ImportError:
        return False
    return True


def main():
    root = sys.argv[1]
    with SpeedProbe() as probe:
        import_library(root)
    info = {"elim_cy": compiled_twin(), **probe.fields()}
    sys.stdout.write(f"ready {json.dumps(info)}\n")
    sys.stdout.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            break
        answer = run_forked(request["argv"], bool(request.get("trace")))
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
