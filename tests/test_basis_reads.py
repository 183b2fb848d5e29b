"""Answers read off canonical bases against the eliminations they replaced.

Four results are read rather than solved: hom_basis's T^-1 is the rows of each
act(e) at the pivots of its block, the resolution differentials as algebra
elements are one product against the generators' coordinates, the kernel of
Delta_i ->> DeltaBar_i is one image of A e_i on rad(Delta_i), and [X : L_j]
is the trace of act(e_j).  Each must equal its old elimination exactly
(tests/oracles.py), on generated rad^2 = 0 algebras over Q, F_2 and F_3 and
on truncated path algebras, for projectives, standard and proper standard
modules, simples and A/AeA, with resolutions three layers deep.

An idempotent matrix has rank equal to its trace, but over F_p the trace
gives the rank only mod p, so multiplicities of modules of dim >= p are
eliminated; the CLI test runs the same all-orders searches with every
multiplicity eliminated.
"""

import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strata.modules
import strata.strat
from strata.algebra import compile_quiver
from strata.cli import main
from strata.corpus import corpus_path
from strata.errors import InvariantViolation
from strata.homology import Resolution, _generator_coordinates
from strata.kernel import QQ, Matrix, PrimeField, Subspace
from strata.modules import (
    Module,
    _block_data,
    _comp_mult,
    left_ideal,
    projective,
    quotient_module,
    simple,
)
from strata.specfile import dump, load_spec, load_spec_file
from strata.strat import LabelPoset, StandardRecord, StratDatum, filtration_proper, filtration_standard

from oracles import entry, ref_block_data, ref_delta_bar_kernel, ref_element_diffs
from test_regular_certificate import truncated_path_algebra
from test_theorem_oracles import SMALL_FIELDS, compile_rad_square_zero, rad_square_zero

SETTINGS = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
GENERATED = st.one_of(rad_square_zero(SMALL_FIELDS), truncated_path_algebra())


def build(quiver):
    return compile_rad_square_zero(*quiver) if len(quiver) == 3 else compile_quiver(*quiver[:2])


def records(A):
    """A StandardRecord for every label i and every set of other labels above it."""
    for i in A.labels:
        others = [j for j in A.labels if j != i]
        for r in range(len(others) + 1):
            for above in itertools.combinations(others, r):
                yield i, StandardRecord(A, i, above)


def pool(A):
    """P_j, L_j, every Delta_i and DeltaBar_i, and A/AeA for every nonzero subset sum e."""
    mods = [Module.regular(A)]
    mods += [projective(A, j) for j in A.labels] + [simple(A, j) for j in A.labels]
    for _, rec in records(A):
        mods += [rec.delta, rec.delta_bar]
    n = len(A.idempotents)
    for r in range(1, n + 1):
        for picks in itertools.combinations(range(n), r):
            mods.append(quotient_module(A, A.sum_idempotents(picks)))
    return [X for X in mods if X.dim]


def same_module(X, Y):
    return X.algebra is Y.algebra and X.dim == Y.dim and X.action == Y.action


class TestAgainstEliminations:
    @SETTINGS
    @given(GENERATED)
    def test_block_data_equals_the_solved_inverse(self, quiver):
        A = build(quiver)
        for X in pool(A) + pool(A.opposite()):
            assert _block_data(X) == ref_block_data(X)

    @SETTINGS
    @given(GENERATED)
    def test_element_differentials_equal_the_per_pair_solves(self, quiver):
        A = build(quiver)
        for X in pool(A):
            res = Resolution(X).extend_to(3)
            for n in range(1, len(res.layers)):
                assert res.element_diffs[n - 1] == ref_element_diffs(res, n)

    @SETTINGS
    @given(GENERATED)
    def test_delta_bar_equals_the_invariant_closure_quotient(self, quiver):
        A = build(quiver)
        for B in (A, A.opposite()):
            for i, rec in records(B):
                closure = ref_delta_bar_kernel(rec.delta, i)
                assert rec.delta.image_of(left_ideal(B, i).basis, rec.delta.radical_subspace()) == closure
                assert same_module(rec.delta_bar, rec.delta.quotient(closure))

    def test_a_generator_outside_its_summand_is_a_typed_error(self, monkeypatch):
        A = load_spec_file(corpus_path("fork")).algebra  # fresh: no generator coordinates cached
        monkeypatch.setattr(strata.homology, "left_ideal", lambda B, label: B.radical())
        with pytest.raises(InvariantViolation, match="outside its summand"):
            _generator_coordinates(A, A.labels[0])


# -- multiplicities as traces ------------------------------------------------------------


def eliminated(X, label):
    """[X : L_label] by eliminating e·X for every idempotent of the label."""
    dims = {X.e_part(e).dim for e in X.algebra.idempotents_for_label(label)}
    assert len(dims) == 1
    return dims.pop()


@SETTINGS
@given(st.one_of(rad_square_zero(SMALL_FIELDS + [PrimeField(32003)]), truncated_path_algebra()))
def test_multiplicity_equals_the_eliminated_dimension(quiver):
    A = build(quiver)
    p = A.field.char
    for X in pool(A):
        # p copies reach dim >= p, where the trace over F_p no longer gives the rank
        for Y in (X, Module.direct_sum([X] * (p if 0 < p < 5 else 2))):
            for lab in A.labels:
                assert _comp_mult(Y, lab) == eliminated(Y, lab)


def test_trace_is_read_only_above_the_characteristic():
    # over F_2, P_1 + P_1 on the fork has dim e_1·X = 2 and act(e_1) has trace 0
    doc = json.loads(open(corpus_path("fork"), encoding="utf-8").read())
    doc["field"] = {"Fp": 2}
    A = load_spec(doc).algebra
    X = Module.direct_sum([projective(A, A.labels[0])] * 2)
    e = A.idempotent_for_label(A.labels[0])
    assert X.act(e).trace() == 0 and X.e_part(e).dim == 2
    assert _comp_mult(X, A.labels[0]) == 2


SMALL_CHAR_SPECS = [(name, p) for name in ("fork", "diamond", "auslander-x3") for p in (2, 3)]


@pytest.mark.parametrize("name,p", SMALL_CHAR_SPECS, ids=[f"{n}-F{p}" for n, p in SMALL_CHAR_SPECS])
def test_all_orders_report_with_every_multiplicity_eliminated(tmp_path, capsys, monkeypatch, name, p):
    doc = json.loads(open(corpus_path(name), encoding="utf-8").read())
    doc["field"] = {"Fp": p}
    spec = tmp_path / f"{name}-F{p}.json"
    spec.write_text(dump(doc) + "\n", encoding="utf-8")
    argv = ["--json", "check", str(spec), "--all-orders"]
    code = main(argv)
    read = capsys.readouterr().out
    monkeypatch.setattr(strata.modules, "_comp_mult", eliminated)
    assert main(argv) == code == 0
    assert capsys.readouterr().out == read


# -- a wrong multiplicity is a typed error -------------------------------------------------


def fork_datum():
    A = entry("fork").algebra
    return A, StratDatum(A, LabelPoset.chain(A.labels))


def test_standard_filtration_checks_the_dimension_count(monkeypatch):
    A, sd = fork_datum()
    monkeypatch.setattr(strata.strat, "comp_mult", lambda X, lab: 0)
    with pytest.raises(InvariantViolation, match="do not add up"):
        filtration_standard(Module.regular(A), sd.delta, sd.poset)


def test_standard_filtration_refuses_a_layer_without_its_top(monkeypatch):
    A, sd = fork_datum()
    copies = {j: Module(A, D.dim, D.stack) for j, D in sd.delta.items()}
    real = strata.strat.comp_mult
    monkeypatch.setattr(strata.strat, "comp_mult",
                        lambda X, lab: 0 if any(X is D for D in copies.values()) else real(X, lab))
    with pytest.raises(InvariantViolation, match=r"\[Delta_.* : L_.*\] = 0"):
        filtration_standard(Module.regular(A), copies, sd.poset)


def test_proper_filtration_refuses_a_top_without_composition_factors(monkeypatch):
    A, sd = fork_datum()
    monkeypatch.setattr(strata.strat, "comp_mult", lambda X, lab: 0)
    with pytest.raises(InvariantViolation, match="no composition factor"):
        filtration_proper(Module.regular(A), sd.delta_bar, sd.poset)
