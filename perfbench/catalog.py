"""The operations of each workload, and the spec files they read.

Inputs are the ten corpus specs copied into `perfbench/specs/` (so that the
benchmark's inputs stay fixed when the library's own corpus changes), each
used over Q and over F_p.  The F_p copy is the same file with
`"field": {"Fp": 32003}`, written at run time.

An operation is one `strata --json ...` call, named by a key such as
`diamond.fp idempotent --e #0,#2`.  `perfbench/expected.json` holds the
expected answer of every key the workloads can draw (see record.py).
"""

from __future__ import annotations

import itertools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_DIR = os.path.join(HERE, "specs")
EXPECTED = os.path.join(HERE, "expected.json")
FIELDS = {"q": "Q", "fp": {"Fp": 32003}}

SPECS = (
    "auslander-x3",
    "diamond",
    "dual-extension",
    "ext2-chain",
    "fork",
    "fork-refined",
    "nonbasic-endo",
    "rad-square-zero",
    "sl2-block",
    "sl2-tensor-square",
)

# Specs with a named subalgebra, and the label of the subalgebra idempotent at
# which `borel --idempotent` passes (in text mode).
BOREL_LABEL = {"dual-extension": "3", "nonbasic-endo": "4"}

# Specs whose `check --all-orders` is the poset-search workload.  The 4-label
# sl2-tensor-square is left out: one search takes over a minute.
POSET_SPECS = ("auslander-x3", "diamond", "dual-extension", "nonbasic-endo")

# Commands of a spec-queries round.  `idempotent` picks are drawn by the seed.
# vmatrix and ell refuse characteristic p, so they run over Q only.  Every
# command on every spec takes about 50 s, so a round, which must fit in one
# run, gives the three heavy specs fewer commands (the Q ones cost most).
ALL_COMMANDS = ("describe", "check-left", "check-right", "essential-order",
                "idempotent-1", "idempotent-2", "vmatrix", "ell")
BOREL_COMMANDS = ("borel", "borel-depth", "borel-idempotent")
LIGHT_SPECS = ("auslander-x3", "diamond", "ext2-chain", "fork", "fork-refined",
               "rad-square-zero", "sl2-block")
ROUND_COMMANDS = {
    "q": {
        **{s: ALL_COMMANDS for s in LIGHT_SPECS},
        "dual-extension": ("describe", "check-left", "borel-idempotent"),
        "nonbasic-endo": ("describe", "check-left", "borel-idempotent"),
        "sl2-tensor-square": ("describe", "check-left"),
    },
    "fp": {
        **{s: ALL_COMMANDS[:6] for s in LIGHT_SPECS},
        "dual-extension": ("describe", "check-left") + BOREL_COMMANDS,
        "nonbasic-endo": ("describe", "check-left") + BOREL_COMMANDS,
        "sl2-tensor-square": ("describe", "check-left"),
    },
}


def spec_path(name, field):
    """Path, relative to the checkout, of the spec file an operation reads."""
    return os.path.join("perfbench", "work", f"{name}.{field}.json")


def write_specs(root):
    """Write the Q and F_p copy of every spec under ROOT/perfbench/work."""
    os.makedirs(os.path.join(root, "perfbench", "work"), exist_ok=True)
    for name in SPECS:
        with open(os.path.join(SPEC_DIR, f"{name}.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        for field, desc in FIELDS.items():
            doc["field"] = desc
            with open(os.path.join(root, spec_path(name, field)), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)


def idempotent_count(name):
    with open(os.path.join(SPEC_DIR, f"{name}.json"), encoding="utf-8") as fh:
        pres = json.load(fh)["presentation"]
    if "structure_constants" in pres:
        return len(pres["structure_constants"]["idempotents"])
    return len(pres["vertices"])


def command_args(name, command, pick=None):
    """CLI arguments after the spec path; `pick` is the `--e` value of idempotent."""
    return {
        "describe": ["describe"],
        "check-left": ["check", "--side", "left"],
        "check-right": ["check", "--side", "right"],
        "essential-order": ["essential-order"],
        "idempotent-1": ["idempotent", "--e", pick],
        "idempotent-2": ["idempotent", "--e", pick],
        "vmatrix": ["vmatrix"],
        "ell": ["ell"],
        "borel": ["borel"],
        "borel-depth": ["borel", "--depth", "2"],
        "borel-idempotent": ["borel", "--idempotent", BOREL_LABEL.get(name, "")],
        "all-orders": ["check", "--all-orders"],
    }[command]


def make_op(name, field, command, pick=None):
    args = command_args(name, command, pick)
    return {
        "key": f"{name}.{field} {' '.join(args)}",
        "twin": f"{name}.{'q' if field == 'fp' else 'fp'} {' '.join(args)}",
        "field": field,
        "argv": ["--json", args[0], spec_path(name, field), *args[1:]],
    }


def picks(name):
    """Every `--e` value of the catalog: single and paired `#index` picks.
    Labels are not used: some contain commas, which `--e` splits on."""
    n = idempotent_count(name)
    singles = [f"#{i}" for i in range(n)]
    pairs = [f"#{i},#{j}" for i, j in itertools.combinations(range(n), 2)]
    return singles, pairs


def catalog():
    """Every operation any workload can draw, for recording expected answers."""
    ops = [verify_op()]
    for name in SPECS:
        singles, pairs = picks(name)
        for field in FIELDS:
            commands = [c for c in ALL_COMMANDS if field == "q" or c not in ("vmatrix", "ell")]
            if name in BOREL_LABEL:
                commands += BOREL_COMMANDS
            for command in commands:
                if command == "idempotent-1":
                    ops += [make_op(name, field, command, p) for p in singles]
                elif command == "idempotent-2":
                    ops += [make_op(name, field, command, p) for p in pairs]
                else:
                    ops.append(make_op(name, field, command))
            if name in POSET_SPECS and field == "q":
                ops.append(make_op(name, field, "all-orders"))
    return ops


def verify_op():
    return {"key": "verify-paper", "twin": None, "field": "q", "argv": ["--json", "verify-paper"]}


def spec_queries_round(rng):
    """One round: ROUND_COMMANDS on every spec, idempotent picks drawn from rng.
    A spec gets the same picks over Q and over F_p, so every F_p query of the
    round has its Q twin when the command runs in both fields."""
    ops = []
    for name in SPECS:
        singles, pairs = picks(name)
        choice = {"idempotent-1": rng.choice(singles), "idempotent-2": rng.choice(pairs)}
        for field in FIELDS:
            for command in ROUND_COMMANDS[field][name]:
                ops.append(make_op(name, field, command, choice.get(command)))
    return ops


def workload_rounds(workload, seed):
    """The fixed op list of one round and a generator of its seeded orders.

    The set of operations is fixed for a run; each round runs all of them in
    an order drawn from the seed, so every run measures the same mix."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-paper":
        ops = [verify_op()]
    elif workload == "spec-queries":
        ops = spec_queries_round(rng)
    elif workload == "poset-search":
        ops = [make_op(name, "q", "all-orders") for name in POSET_SPECS]
    else:
        raise ValueError(f"unknown workload {workload!r}")

    def orders():
        while True:
            order = list(ops)
            rng.shuffle(order)
            yield order

    return ops, orders()


WORKLOADS = ("verify-paper", "spec-queries", "poset-search")
