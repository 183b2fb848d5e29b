"""CLI: commands, exit codes, JSON determinism, tamper detection."""

import json

import pytest

from strata.cli import main
from strata.corpus import corpus_path
from strata.specfile import dump

from oracles import corpus_doc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_describe(self, capsys):
        code, out, _ = run(capsys, "describe", corpus_path("sl2-block"))
        assert code == 0
        assert "dimension 5" in out
        assert "[2, 1]" in out and "[1, 1]" in out  # Cartan rows

    def test_describe_json_deterministic(self, capsys):
        code, out1, _ = run(capsys, "--json", "describe", corpus_path("diamond"))
        code2, out2, _ = run(capsys, "--json", "describe", corpus_path("diamond"))
        assert code == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["dim"] == 9
        assert doc["settings"]["iso_seed"] == 2024

    def test_check_pass_and_fail(self, capsys):
        code, out, _ = run(capsys, "check", corpus_path("sl2-block"))
        assert code == 0 and "quasi-hereditary: yes" in out
        code, out, _ = run(capsys, "check", corpus_path("rad-square-zero"))
        assert code == 1

    def test_check_all_orders(self, capsys):
        code, out, _ = run(capsys, "check", corpus_path("rad-square-zero"), "--all-orders")
        assert code == 0
        assert "3 posets, 0 stratifying" in out

    def test_essential_order(self, capsys):
        code, out, _ = run(capsys, "essential-order", corpus_path("fork-refined"))
        assert code == 0
        assert "('1', '2')" in out and "(\"1'\", '2')" in out

    def test_idempotent(self, capsys):
        code, out, _ = run(capsys, "--json", "idempotent", corpus_path("sl2-block"), "--e", "1")
        assert code == 0
        doc = json.loads(out)
        conds = doc["battery"]["conditions"]
        assert conds["4"] == "no" and conds["5"] == "no" and conds["6"] == "yes"

    def test_corner_quotient_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--json", "corner", corpus_path("auslander-x3"), "--e", "1,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 9
        # the exported corner re-imports; it is left stratified (certificate:
        # ker(P_1 ->> Delta_1) = Delta_2) but not quasi-hereditary
        spec = tmp_path / "corner.json"
        spec.write_text(dump(doc["spec"]))
        code, out, _ = run(capsys, "--json", "check", str(spec))
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["left_standardly_stratified"] == "yes"
        assert rep["quasi_hereditary"] == "no"
        code, out, _ = run(capsys, "--json", "quotient", corpus_path("auslander-x3"), "--e", "1,2")
        assert json.loads(out)["dim"] == 1

    def test_borel_with_inheritance(self, capsys):
        code, out, _ = run(capsys, "borel", corpus_path("dual-extension"), "--idempotent", "3")
        assert code == 0
        assert "exact splitting subalgebra: True" in out
        assert "normal splitting: yes" in out

    def test_borel_depth_env(self, capsys, monkeypatch):
        monkeypatch.setenv("STRATA_NMAX", "2")
        code, out, _ = run(capsys, "--json", "borel", corpus_path("dual-extension"))
        assert code == 0
        doc = json.loads(out)
        assert doc["settings"]["n_max"] == 2
        assert doc["regularity"]["n_max"] == 2

    def test_vmatrix_and_ell(self, capsys):
        code, out, _ = run(capsys, "vmatrix", "--type", "A1xA1")
        assert code == 0 and "w0: [2, 0, 0, 1]" in out
        code, out, _ = run(capsys, "ell", corpus_path("sl2-block"))
        assert code == 0 and "'1': 1" in out

    def test_ell_tables_file(self, capsys, tmp_path):
        from strata.vmult import builtin_tables

        tf = tmp_path / "tables.json"
        tf.write_text(json.dumps(builtin_tables("A1xA1").to_json()))
        code, out, _ = run(capsys, "ell", "--tables", str(tf))
        assert code == 0 and "'w0': 3" in out

    def test_verify_filter(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--filter", "c05")
        assert code == 0
        assert "PASS c05" in out
        assert "1/1 criteria passed" in out

    def test_verify_c04_reports_refutation(self, capsys):
        # c04's false claim is kept as stated: reported as FAIL with the
        # refuting certificate, exit 1
        code, out, _ = run(capsys, "verify-paper", "--filter", "c04")
        assert code == 1
        assert "FAIL c04" in out
        assert ("    failed: corner not left stratified (as stated) REFUTED by certificate: "
                "ker(P_1 ->> Delta_1) is isomorphic to Delta_2") in out
        assert "0/1 criteria passed" in out
        assert "verdict: fail" in out

    def test_verify_bad_filter(self, capsys):
        code, _, err = run(capsys, "verify-paper", "--filter", "nope-nothing")
        assert code == 2


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "describe", "/nonexistent/path.json")
        assert code == 2 and "input error" in err

    def test_tampered_relation_detected(self, capsys, tmp_path):
        doc = corpus_doc("sl2-block")
        doc["presentation"]["relations"] = []  # drop the bounding relation
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "describe", str(bad))
        assert code == 1
        assert "survives" in err  # names the surviving path claim

    def test_tampered_order_fails_check(self, capsys, tmp_path):
        doc = corpus_doc("sl2-block")
        doc["order"] = [["2", "1"]]
        bad = tmp_path / "reordered.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 1

    def test_unknown_label_in_e(self, capsys):
        code, _, err = run(capsys, "idempotent", corpus_path("sl2-block"), "--e", "9")
        assert code == 1 or code == 2


class TestIdempotentPicks:
    # the labels of a tensor product are pairs "(a,b)", with a comma inside
    SPEC = corpus_path("sl2-tensor-square")

    def test_labels_with_commas_match_index_picks(self, capsys):
        code, by_label, _ = run(capsys, "--json", "corner", self.SPEC, "--e", "(1,1),(2,2)")
        code2, by_index, _ = run(capsys, "--json", "corner", self.SPEC, "--e", "#0,#3")
        assert code == code2 == 0
        assert by_label == by_index
        assert json.loads(by_label)["labels"] == ["(1,1)", "(2,2)"]

    def test_one_label_with_a_comma(self, capsys):
        code, out, _ = run(capsys, "--json", "corner", self.SPEC, "--e", "(1,2)")
        assert code == 0 and json.loads(out)["labels"] == ["(1,2)"]

    @pytest.mark.parametrize("pick", ["(9,9)", "(1,1", "1", "#x", "#4"])
    def test_unknown_pick_is_an_input_error(self, capsys, pick):
        code, out, err = run(capsys, "corner", self.SPEC, "--e", pick)
        assert code == 2 and not out
        assert err.startswith("input error:")


# -- every command with --json: parseable output and a documented exit code ----------

LIGHT_SPECS = ("auslander-x3", "diamond", "ext2-chain", "fork", "fork-refined", "rad-square-zero", "sl2-block")
FIELDS = {"q": "Q", "fp": {"Fp": 32003}}
SPEC_COMMANDS = (
    ("describe",),
    ("check",),
    ("check", "--side", "left"),
    ("check", "--side", "right"),
    ("essential-order",),
    ("idempotent", "--e", "#0"),
    ("idempotent", "--e", "#0,#1"),
    ("corner", "--e", "#0"),
    ("quotient", "--e", "#0"),
    ("borel",),
    ("vmatrix",),
    ("ell",),
)
VERDICT_CODES = {"pass": 0, "fail": 1, "inconclusive": 3}


def _spec_file(tmp_path, name, field):
    doc = corpus_doc(name)
    doc["field"] = FIELDS[field]
    path = tmp_path / f"{name}.{field}.json"
    path.write_text(dump(doc))
    return str(path)


def _json_run(capsys, *argv):
    """Run with --json: a report whose verdict matches the exit code, or a typed refusal.

    Returns the parsed report, or None for a refusal: exit 2 for an input error,
    exit 1 for a library error, with the message on stderr and nothing on stdout.
    """
    code, out, err = run(capsys, "--json", *argv)
    if not out:
        prefix = {1: "error:", 2: "input error:"}.get(code)
        assert prefix and err.startswith(prefix), (argv, code, err)
        return None
    doc = json.loads(out)
    assert VERDICT_CODES[doc["verdict"]] == code, (argv, doc["verdict"], code)
    return doc


class TestJsonSurface:
    @pytest.mark.parametrize("field", sorted(FIELDS))
    @pytest.mark.parametrize("name", LIGHT_SPECS)
    def test_every_command(self, capsys, tmp_path, name, field):
        path = _spec_file(tmp_path, name, field)
        refused = set()
        for command in SPEC_COMMANDS:
            if _json_run(capsys, command[0], path, *command[1:]) is None:
                refused.add(command)
        assert ("borel",) in refused  # the light specs carry no subalgebra
        assert not refused & {("describe",), ("check",), ("essential-order",), ("corner", "--e", "#0"),
                              ("quotient", "--e", "#0")}

    @pytest.mark.parametrize("field", sorted(FIELDS))
    @pytest.mark.parametrize("name, label", [("dual-extension", "3"), ("nonbasic-endo", "4")])
    def test_borel_idempotent(self, capsys, tmp_path, name, label, field):
        doc = _json_run(capsys, "borel", _spec_file(tmp_path, name, field), "--idempotent", label)
        inherited = doc["inherited"]
        assert inherited["corner_borel"]["is_exact_borel"]
        assert all("," in key for key in inherited["corner_regular"]["cells"])

    def test_commands_without_a_spec(self, capsys):
        assert _json_run(capsys, "vmatrix", "--type", "A1xA1")["verdict"] == "pass"
        assert _json_run(capsys, "verify-paper", "--filter", "c05")["verdict"] == "pass"
        assert _json_run(capsys, "check", corpus_path("rad-square-zero"), "--all-orders") is not None


# -- the parser of the invoked command alone against the full parser --------------------

PARSER_CASES = [
    [], ["--json"], ["-h"], ["--help"], ["--json", "-h"], ["bogus"], ["--json", "bogus", "f"],
    ["describe", "-h"], ["--json", "check", "--help"], ["check", "f", "-h"], ["check", "f", "--he"],
    ["describe"], ["idempotent", "f"], ["check", "f", "--side", "up"], ["borel", "f", "--depth", "x"],
    ["describe", "f", "extra"], ["--bogus", "describe", "f"], ["describe", "f", "--bogus"],
    ["--json", "describe", "f", "--bogus"], ["check", "f", "--json"],
    ["--json", "check", "f", "--all-orders", "--side", "left"], ["corner", "f", "--e", "1,#2"],
    ["verify-paper", "--filter", "c01"], ["ell", "--type", "A2", "--dims", "1=1"], ["vmatrix"],
]

_PARSER_SCRIPT = """
import contextlib, io, json, sys
from strata import cli

cases = json.loads(sys.argv[1])

def stub(args):
    print(sorted((k, v) for k, v in vars(args).items() if k != "fn"))
    return cli.Report(args.command)

cli.COMMANDS[:] = [(name, stub, add) for name, _, add in cli.COMMANDS]
invoked = cli._invoked_command

def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]

rows = []
for argv in cases:
    cli._invoked_command = invoked
    lean = outcome(argv)
    cli._invoked_command = lambda argv: None
    rows.append([invoked(argv), lean, outcome(argv)])
print(json.dumps(rows))
"""


def test_one_command_parser_reports_like_the_full_parser():
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", _PARSER_SCRIPT, json.dumps(PARSER_CASES)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = json.loads(out.stdout)
    for argv, (_, lean, full) in zip(PARSER_CASES, rows):
        assert lean == full, argv
    assert sum("('command', " in full[1] for _, _, full in rows) == 5  # the lines that parse
    # the one-command parser is built exactly for [--json] COMMAND ... without a help flag
    lean_cases = [argv for argv, (command, _, _) in zip(PARSER_CASES, rows) if command is not None]
    assert len(lean_cases) == 14
    assert not any("-h" in argv or "--help" in argv for argv in lean_cases)
