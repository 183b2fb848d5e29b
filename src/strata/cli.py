"""Command-line front-end.

    strata describe FILE                 dims, Cartan matrix, quiver summary
    strata check FILE [--side ...]       stratification verdicts
    strata essential-order FILE          the coarsest order with the same data
    strata idempotent FILE --e L1,L2     compatibility battery
    strata corner FILE --e ...           corner algebra (exported inline)
    strata quotient FILE --e ...         idempotent quotient (exported inline)
    strata borel FILE [--subalgebra N] [--depth n] [--idempotent L]
    strata vmatrix FILE | --type T | --tables F
    strata ell     FILE | --type T | --tables F
    strata verify-paper [--filter S]     the bundled acceptance battery

Every command accepts --json for machine output.  Reports are deterministic:
the iso-search seed, Ext truncation depth and library version are recorded in
the settings block.  STRATA_NMAX overrides the Ext depth.  Exit codes:
0 pass, 1 assertion failure, 2 input error, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import InputError, StrataError
from .modules import ISO_HEIGHT, ISO_SEED, ISO_TRIALS, comp_mult, projective
from .specfile import dump, export_algebra, load_spec_file
from .strat import NO, UNDET, YES, strat_datum, poset_search

EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_INCONCLUSIVE = 0, 1, 2, 3


def _nmax():
    try:
        return int(os.environ.get("STRATA_NMAX", "5"))
    except ValueError:
        raise InputError("STRATA_NMAX must be an integer")


def _settings():
    return {
        "version": __version__,
        "n_max": _nmax(),
        "iso_seed": ISO_SEED,
        "iso_trials": ISO_TRIALS,
        "iso_coefficient_height": ISO_HEIGHT,
    }


class Report:
    def __init__(self, command):
        self.command = command
        self.body = {}
        self.summary = []
        self.verdict = "pass"

    def line(self, text):
        self.summary.append(text)

    def fail(self):
        self.verdict = "fail"

    def inconclusive(self):
        if self.verdict == "pass":
            self.verdict = "inconclusive"

    def exit_code(self):
        return {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}[self.verdict]

    def emit(self, as_json):
        if as_json:
            doc = {
                "command": self.command,
                "settings": _settings(),
                "verdict": self.verdict,
                **self.body,
            }
            print(dump(doc))
        else:
            for line in self.summary:
                print(line)
            print(f"verdict: {self.verdict}")
        return self.exit_code()


def _load(path):
    try:
        return load_spec_file(path)
    except FileNotFoundError as exc:
        raise InputError(f"no such spec file: {path}") from exc


def _split_labels(arg):
    """Split a comma list on the commas outside parentheses, so "(1,1),#2" is two tokens."""
    toks, depth, start = [], 0, 0
    for k, ch in enumerate(arg):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            toks.append(arg[start:k])
            start = k + 1
    toks.append(arg[start:])
    return [t.strip() for t in toks if t.strip()]


def _idempotent_from_arg(A, arg):
    """The sum of the distinguished idempotents named by --e: a label names all of
    its idempotents and #i the i-th; one named twice is summed once."""
    indices, unknown = set(), set()
    for tok in _split_labels(str(arg)):
        if tok.startswith("#"):
            if not tok[1:].isdecimal() or int(tok[1:]) >= len(A.idempotents):
                raise InputError(f"no distinguished idempotent {tok}")
            indices.add(int(tok[1:]))
        elif tok in A.labels:
            indices.update(k for k, (_, lab) in enumerate(A.idempotents) if lab == tok)
        else:
            unknown.add(tok)
    if unknown:
        raise InputError(f"unknown label(s) {sorted(unknown)}")
    return A.sum_idempotents(sorted(indices))


def cmd_describe(args):
    sd = _load(args.file)
    A, poset = sd.algebra, sd.poset
    rep = Report("describe")
    cartan = [[comp_mult(projective(A, j), i) for j in A.labels] for i in A.labels]
    rep.body["dim"] = A.dim
    rep.body["labels"] = list(A.labels)
    rep.body["basis"] = list(A.basis_names)
    rep.body["projective_dims"] = {i: projective(A, i).dim for i in A.labels}
    rep.body["cartan_rows_are_simples"] = cartan
    rep.body["order"] = poset.to_json()
    rep.line(f"dimension {A.dim}, labels {list(A.labels)}")
    rep.line(f"Cartan matrix (entry [i][j] = multiplicity of simple i in projective j):")
    for i, row in zip(A.labels, cartan):
        rep.line(f"  {i}: {row}")
    if A.presentation is not None:
        p = A.presentation
        rep.body["quiver"] = p.to_json()
        rep.line(f"quiver: {len(p.vertices)} vertices, {len(p.arrows)} arrows, "
                 f"{len(p.relations)} relations, bound {p.max_path_length}")
    if sd.meta:
        rep.body["meta"] = sd.meta
    return rep


def cmd_check(args):
    sd = _load(args.file)
    A, poset = sd.algebra, sd.poset
    rep = Report("check")
    if args.all_orders:
        results = poset_search(A)
        rows = []
        for p, v in results:
            rows.append({"order": p.to_json()["pairs"], **v})
        rep.body["orders"] = rows
        good = sum(1 for r in rows if r["left"] == YES or r["right"] == YES)
        rep.line(f"{len(rows)} posets, {good} stratifying")
        return rep
    data = strat_datum(A, poset)
    left, _ = data.left_stratified()
    right, _ = data.right_stratified()
    qh = data.quasi_hereditary()
    rep.body["report"] = data.report_json()
    rep.line(f"left standardly stratified: {left}")
    rep.line(f"right standardly stratified: {right}")
    rep.line(f"quasi-hereditary: {qh}")
    side = args.side or "left"
    headline = left if side == "left" else right
    if headline == NO:
        rep.fail()
    return rep


def cmd_essential_order(args):
    sd = _load(args.file)
    data = strat_datum(sd.algebra, sd.poset)
    rep = Report("essential-order")
    ess = data.essential_order()
    rep.body["essential_order"] = ess.to_json()
    rep.body["input_refines_essential"] = sd.poset.refines(ess)
    rep.line(f"essential order covers: {ess.cover_pairs()}")
    left, _ = data.left_stratified()
    if left != YES:
        rep.line("warning: input not verified left standardly stratified; order is advisory")
        rep.inconclusive()
    return rep


def cmd_idempotent(args):
    from .compat import compatibility_battery, identity_checks

    sd = _load(args.file)
    A, poset = sd.algebra, sd.poset
    e = _idempotent_from_arg(A, args.e)
    rep = Report("idempotent")
    report = compatibility_battery(A, poset, e)
    rep.body["battery"] = {**report.to_json(),
                           "identity_checks": [[n, v] for n, v in identity_checks(A, poset, e)]}
    rep.line(f"support: {list(report.support)}")
    for k in sorted(report.conds):
        rep.line(f"condition {k}: {report.conds[k]}")
    # compatibility_battery raises InvariantViolation on an inconsistent diagram
    rep.line(f"implication diagram consistent: {report.diagram_consistent}")
    return rep


def cmd_corner(args):
    sd = _load(args.file)
    A = sd.algebra
    e = _idempotent_from_arg(A, args.e)
    corner, emb = A.corner(e)
    sub = sd.poset.restrict(corner.labels)
    rep = Report("corner")
    rep.body["dim"] = corner.dim
    rep.body["labels"] = list(corner.labels)
    rep.body["spec"] = export_algebra(corner, sub)
    rep.body["embedding"] = emb.to_json()
    rep.line(f"corner dimension {corner.dim}, labels {list(corner.labels)}")
    return rep


def cmd_quotient(args):
    sd = _load(args.file)
    A = sd.algebra
    e = _idempotent_from_arg(A, args.e)
    quot, proj = A.quotient_by_idempotent_ideal(e)
    sub = sd.poset.restrict(quot.labels)
    rep = Report("quotient")
    rep.body["dim"] = quot.dim
    rep.body["labels"] = list(quot.labels)
    rep.body["spec"] = export_algebra(quot, sub)
    rep.body["projection"] = proj.to_json()
    rep.line(f"quotient dimension {quot.dim}, labels {list(quot.labels)}")
    return rep


def cmd_borel(args):
    from .borel import (
        BorelEmbedding,
        check_exact_borel,
        check_regular,
        inherited_borels,
        normality_certificate,
        restriction_identity,
    )

    sd = _load(args.file)
    A, poset = sd.algebra, sd.poset
    name = args.subalgebra or (next(iter(sd.subalgebras)) if sd.subalgebras else None)
    if name is None or name not in sd.subalgebras:
        raise InputError(f"spec file has no subalgebra named {name!r}")
    idem, gens = sd.subalgebras[name]
    emb = BorelEmbedding.from_generators(A, poset, idem, gens)
    rep = Report("borel")
    n_max = args.depth or _nmax()
    report = check_exact_borel(emb)
    rep.body["subalgebra"] = {"name": name, "dim": emb.B.dim}
    rep.body["axioms"] = report.to_json()
    rep.line(f"subalgebra {name}: dim {emb.B.dim}")
    rep.line(f"exact splitting subalgebra: {report.is_exact_borel}")
    if not report.is_exact_borel:
        rep.fail()
        return rep
    reg = check_regular(emb, n_max)
    rep.body["regularity"] = reg
    rep.line(f"regular through degree {n_max}: {reg['regular']}"
             + (" (unconditional)" if reg["unconditional"] else " (truncated)"))
    ri = restriction_identity(emb)
    rep.body["restriction_identity"] = ri
    rep.line(f"restriction identity: {ri}")
    nc = normality_certificate(emb)
    rep.body["normality"] = {k: (v.to_json() if hasattr(v, "to_json") else v) for k, v in nc.items()}
    rep.line(f"normal splitting: {nc['status']}")
    if args.idempotent:
        e_prime = _idempotent_from_arg(emb.B, args.idempotent)
        out = inherited_borels(emb, e_prime, n_max=n_max, diagnostic=args.diagnostic)
        rep.body["inherited"] = {k: (v.to_json() if hasattr(v, "to_json") else v) for k, v in out.items()}
        rep.line(f"inherited at {args.idempotent}: corner "
                 f"{out.get('corner_borel').is_exact_borel if 'corner_borel' in out else 'n/a'}, "
                 f"quotient {out.get('quotient_borel').is_exact_borel if 'quotient_borel' in out else 'n/a'}")
    bad = [v for v in (ri.values()) if v != YES] + ([] if nc["status"] == YES else [nc["status"]])
    if any(v == UNDET for v in bad):
        rep.inconclusive()
    elif bad:
        rep.fail()
    return rep


def _vmatrix_for(args):
    from .vmult import MultTables, builtin_tables, v_matrix_from_algebra, v_matrix_from_tables

    if args.type:
        return v_matrix_from_tables(builtin_tables(args.type))
    if args.tables:
        with open(args.tables, "r", encoding="utf-8") as fh:
            tables = MultTables.from_json(json.load(fh))
        return v_matrix_from_tables(tables)
    if not args.file:
        raise InputError("vmatrix/ell need a spec file, --type, or --tables")
    sd = _load(args.file)
    return v_matrix_from_algebra(sd.algebra, sd.poset)


def cmd_vmatrix(args):
    rep = Report("vmatrix")
    V = _vmatrix_for(args)
    rep.body["vmatrix"] = V.to_json()
    rep.line(f"labels: {list(V.labels)}")
    for i, row in zip(V.labels, V.as_grid()):
        rep.line(f"  {i}: {row}")
    rep.line(f"first subdiagonal (informational): {V.first_subdiagonal()}")
    return rep


def cmd_ell(args):
    from .vmult import ell, regular_borel_existence

    rep = Report("ell")
    V = _vmatrix_for(args)
    e = ell(V)
    rep.body["ell"] = e
    rep.line(f"multiplicities: {e}")
    if args.dims:
        dims = {}
        for tok in args.dims.split(","):
            k, _, v = tok.partition("=")
            dims[k.strip()] = int(v)
        x = regular_borel_existence(V, dims)
        rep.body["existence"] = x
        rep.line(f"positive solution: {x}")
        if x is None:
            rep.fail()
    return rep


def cmd_verify(args):
    from .acceptance import run_all

    rep = Report("verify-paper")
    crits = run_all(args.filter)
    if not crits:
        raise InputError(f"filter {args.filter!r} matches no criterion")
    results = []
    for crit in crits:
        status = "PASS" if crit.passed else "FAIL"
        rep.line(f"{status} {crit.key}: {crit.title}")
        if not crit.passed:
            for n, ok, d in crit.checks:
                if not ok:
                    rep.line(f"    failed: {n} {d}")
            rep.fail()
        results.append(crit.to_json())
    rep.body["criteria"] = results
    npass = sum(1 for c in crits if c.passed)
    rep.line(f"{npass}/{len(crits)} criteria passed")
    return rep


def _add_file(sp):
    sp.add_argument("file")


def _add_check(sp):
    sp.add_argument("file")
    sp.add_argument("--side", choices=["left", "right"])
    sp.add_argument("--all-orders", action="store_true")


def _add_e(sp):
    sp.add_argument("file")
    sp.add_argument("--e", required=True, help="comma list of labels (or #index)")


def _add_borel(sp):
    sp.add_argument("file")
    sp.add_argument("--subalgebra")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--idempotent")
    sp.add_argument("--diagnostic", action="store_true")


def _add_tables(sp):
    sp.add_argument("file", nargs="?")
    sp.add_argument("--type")
    sp.add_argument("--tables")


def _add_ell(sp):
    _add_tables(sp)
    sp.add_argument("--dims", help="label=dim comma list for the existence solve")


def _add_verify(sp):
    sp.add_argument("--filter")


# (command, handler, adds its arguments to a subparser), in the order of the usage line
COMMANDS = [
    ("describe", cmd_describe, _add_file),
    ("check", cmd_check, _add_check),
    ("essential-order", cmd_essential_order, _add_file),
    ("idempotent", cmd_idempotent, _add_e),
    ("corner", cmd_corner, _add_e),
    ("quotient", cmd_quotient, _add_e),
    ("borel", cmd_borel, _add_borel),
    ("vmatrix", cmd_vmatrix, _add_tables),
    ("ell", cmd_ell, _add_ell),
    ("verify-paper", cmd_verify, _add_verify),
]
COMMAND_NAMES = [name for name, _, _ in COMMANDS]


def build_parser(only=None):
    """The argument parser: every command, or only the named one.

    A parser for one command prints the same top-level usage line as the full
    one, so both report a bad command line alike.
    """
    p = argparse.ArgumentParser(prog="strata",
                                description="exact stratification data for finite-dimensional algebras")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    metavar = None if only is None else "{" + ",".join(COMMAND_NAMES) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, fn, add_arguments in COMMANDS:
        if only in (None, name):
            sp = sub.add_parser(name)
            add_arguments(sp)
            sp.set_defaults(fn=fn)
    return p


def _invoked_command(argv):
    """The command of an argv of the form [--json] COMMAND ... that asks for no help, else None."""
    rest = argv[1:] if argv[:1] == ["--json"] else argv
    if rest and rest[0] in COMMAND_NAMES and "-h" not in argv and "--help" not in argv:
        return rest[0]
    return None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # building one subparser instead of ten is most of a short query's parse time
    parser = build_parser(_invoked_command(argv))
    args = parser.parse_args(argv)
    try:
        rep = args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StrataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return rep.emit(args.json)


if __name__ == "__main__":
    sys.exit(main())
