"""memo.derived: a memo never changes an answer, and a failure is never stored."""

import importlib
import pkgutil

import pytest

import strata
from strata.cli import main
from strata.corpus import corpus_path
from strata.errors import NotIdempotent
from strata.memo import derived
from strata.specfile import load_spec_file

from oracles import scale


MODULES = [importlib.import_module(f"strata.{m.name}") for m in pkgutil.iter_modules(strata.__path__)]


def _always_build(owner, key, build, *args):
    _always_build.calls += 1
    return build(*args)


def _report(capsys, argv):
    code = main(["--json", *argv])
    return code, capsys.readouterr().out


QUERIES = [
    ("check", corpus_path("fork")),
    ("idempotent", corpus_path("fork"), "--e", "1"),
    ("idempotent", corpus_path("diamond"), "--e", "#0,#1"),
    ("check", corpus_path("diamond"), "--all-orders"),
    ("check", corpus_path("auslander-x3"), "--all-orders"),
    ("borel", corpus_path("dual-extension"), "--idempotent", "3"),
]


@pytest.mark.parametrize("argv", QUERIES, ids=lambda argv: " ".join(str(a).rsplit("/", 1)[-1] for a in argv))
def test_uncached_run_gives_the_same_report(capsys, monkeypatch, argv):
    cached = _report(capsys, argv)
    # every module that memoises holds its own reference to derived
    users = [m for m in MODULES if getattr(m, "derived", None) is derived]
    assert {m.__name__ for m in users} >= {"strata.algebra", "strata.modules", "strata.homology", "strata.strat"}
    for m in users:
        monkeypatch.setattr(m, "derived", _always_build)
    _always_build.calls = 0
    uncached = _report(capsys, argv)
    assert _always_build.calls and cached[0] in (0, 1) and cached[1]
    assert uncached == cached


def test_a_failed_build_is_not_stored():
    A = load_spec_file(corpus_path("fork")).algebra
    half = scale(A.unit, "1/2")

    def refuse():
        raise NotIdempotent("element is not idempotent")

    for _ in range(2):
        with pytest.raises(NotIdempotent):
            derived(A, ("probe", half), refuse)
    assert ("probe", half) not in A._derived
    assert derived(A, ("probe", half), lambda: 7) == 7
    assert derived(A, ("probe", half), refuse) == 7
