"""Stratification verdicts on generated algebras against known theorems.

Hypothesis builds radical-square-zero algebras kQ/J^2 of random quivers on at
most three vertices, loops and multiple arrows included: every path of length
two is killed by a relation.  Their verdicts are checked against results that
do not depend on the library:

- kQ/J^2 is quasi-hereditary for some order exactly when Q has no oriented
  cycle (Dlab and Ringel 1989: a directed algebra is quasi-hereditary for a
  linear order of its vertices; a cycle of rad^2 = 0 gives infinite global
  dimension, which no quasi-hereditary algebra has);
- QH(A, <=) = QH(A^op, <=) for every order (Dlab and Ringel 1989);
- permuting the basis of a structure-constant algebra changes no verdict;
- the dimension identity: over a split algebra, left standardly stratified
  for <= gives dim A = sum_j dim Delta_j * dim NablaBar_j, by BGG reciprocity
  (P_i : Delta_j) = [NablaBar_j : L_i] (Agoston, Happel, Lukacs and Unger
  2000), and likewise on the right over A^op.  Only this direction holds: some
  orders meet the count without being stratified;
- every layer check of a standard filtration, "the trace T is Delta_j^t",
  which the library decides through the simple top of Delta_j, agrees with
  the general isomorphism search iso_test(T, Delta_j^t) wherever that search
  is determined;
- the Auslander algebra of k[x]/(x^n) has dimension n(n+1)(2n+1)/6, is
  quasi-hereditary for the chain 1 < ... < n (Dlab and Ringel 1989), and has
  global dimension 2, within the bound 2n - 2 for quasi-hereditary algebras
  with n simples.

Three labels at most keep the search over all orders small (19 posets).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strata.modules
import strata.strat
from strata.algebra import compile_quiver
from strata.corpus import corpus_path
from strata.homology import ext_dims_upto
from strata.kernel import QQ, Matrix, PrimeField
from strata.modules import (
    Module,
    hom_basis,
    iso_test,
    iso_to_direct_power,
    projective,
    simple,
    surjection_onto_power,
)
from strata.quiver import QuiverPresentation
from strata.specfile import export_algebra, load_spec, load_spec_file
from strata.strat import NO, YES, LabelPoset, StratDatum, all_posets, is_split, poset_search

FIELDS = [QQ, PrimeField(32003)]
SMALL_FIELDS = [QQ, PrimeField(2), PrimeField(3)]


@st.composite
def rad_square_zero(draw, fields=FIELDS):
    """(field, vertices, arrows as (source, target)) of a random quiver."""
    n = draw(st.integers(1, 3))
    vertices = [str(v) for v in range(1, n + 1)]
    arrows = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=4))
    return draw(st.sampled_from(fields)), vertices, arrows


def compile_rad_square_zero(f, vertices, arrows):
    named = [(f"a{t}", s, e) for t, (s, e) in enumerate(arrows)]
    # x*y (y first) is a path when y ends where x starts
    relations = [[(1, (x, y))] for x, sx, _ in named for y, _, ty in named if ty == sx]
    return compile_quiver(QuiverPresentation.make(vertices, named, relations, 2), f)


def has_cycle(vertices, arrows):
    reach = {v: {e for s, e in arrows if s == v} for v in vertices}
    for _ in vertices:
        for v in vertices:
            reach[v] |= set().union(*(reach[w] for w in reach[v]))
    return any(v in reach[v] for v in vertices)


def verdicts(A):
    """(left, right, quasi-hereditary) for every order on the labels."""
    out = {}
    for poset in all_posets(A.labels):
        sd = StratDatum(A, poset)
        out[poset] = (sd.left_stratified()[0], sd.right_stratified()[0], sd.quasi_hereditary())
    return out


def permuted(A, seed):
    """A structure-constant copy of A with its basis permuted: b'_m = b_perm[m]."""
    doc = export_algebra(A)
    sc = doc["presentation"]["structure_constants"]
    perm = list(range(A.dim))
    random.Random(seed).shuffle(perm)
    new = {old: m for m, old in enumerate(perm)}
    sc["basis"] = [sc["basis"][old] for old in perm]
    sc["table"] = [[new[i], new[j], new[k], c] for i, j, k, c in sc["table"]]
    sc["unit"] = [sc["unit"][old] for old in perm]
    for idem in sc["idempotents"]:
        idem["coords"] = [idem["coords"][old] for old in perm]
    return load_spec(doc).algebra


@settings(max_examples=30, deadline=None)
@given(rad_square_zero(), st.integers(0, 2**16))
def test_rad_square_zero_verdicts(quiver, seed):
    f, vertices, arrows = quiver
    A = compile_rad_square_zero(f, vertices, arrows)
    found = verdicts(A)
    qh = [v[2] for v in found.values()]
    assert (YES in qh) == (not has_cycle(vertices, arrows))
    op = A.opposite()
    for poset, (_, _, q) in found.items():
        assert StratDatum(op, poset).quasi_hereditary() == q
    again = verdicts(permuted(A, seed))
    assert found == again


@settings(max_examples=30, deadline=None)
@given(rad_square_zero())
def test_stratified_sides_meet_the_dimension_count(quiver):
    A = compile_rad_square_zero(*quiver)
    assert is_split(A)
    for poset in all_posets(A.labels):
        sd = StratDatum(A, poset)
        s_left, s_right = sd.dimension_counts()
        if sd.left_stratified()[0] == YES:
            assert s_left == A.dim, poset
        if sd.right_stratified()[0] == YES:
            assert s_right == A.dim, poset
    # the search, which answers NO from the count alone, agrees with the peeled verdicts
    peeled = verdicts(A)
    for poset, row in poset_search(A):
        assert (row["left"], row["right"], row["quasi_hereditary"]) == peeled[poset], poset


def test_trace_told_from_standard_by_its_radical():
    # Q: 1 => 2 (two arrows) and a loop at 2, rad^2 = 0, order 1 < 2.  Delta_2 = P_2 is
    # uniserial (L_2 over L_2) and rad P_1 = L_2 + L_2 is semisimple: the same composition
    # factors, so only the radical (or socle) dimension refutes rad P_1 = Delta_2.  A^op is
    # not quasi-hereditary for this order, and neither is A.
    A = compile_rad_square_zero(QQ, ["1", "2"], [("1", "2"), ("1", "2"), ("2", "2")])
    poset = LabelPoset(("1", "2"), [("1", "2")])
    sd = StratDatum(A, poset)
    left, results = sd.left_stratified()
    assert left == NO
    assert "dim rad(trace) = 0 != 1*dim rad(layer) = 1" in results["1"].witness
    assert sd.quasi_hereditary() == NO == StratDatum(A.opposite(), poset).quasi_hereditary()


@settings(max_examples=25, deadline=None)
@given(rad_square_zero(SMALL_FIELDS))
def test_layer_checks_agree_with_the_general_iso_search(quiver):
    A = compile_rad_square_zero(*quiver)
    calls = []

    def recording(T, D, t):
        cert = iso_to_direct_power(T, D, t)
        calls.append((T, D, t, cert))
        return cert

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strata.strat, "iso_to_direct_power", recording)
        for poset in all_posets(A.labels):
            StratDatum(A, poset).left_stratified()
            StratDatum(A.opposite(), poset).left_stratified()
    for T, D, t, cert in calls:
        if cert is not None:
            assert cert.rank() == T.dim
        v = iso_test(T, Module.direct_sum([D] * t))
        if v.kind != "undetermined":
            assert (v.kind == "iso") == (cert is not None), (T, D, t)


def test_iso_test_is_exact_against_a_simple_top(monkeypatch):
    # rad P_1 = L_2 + L_2 and Delta_2 = P_2 (L_2 over L_2) on the quiver above: no map
    # of Hom(rad P_1, P_2) is invertible, and End(P_2) is local, so the answer is
    # not_iso without a random trial
    A = compile_rad_square_zero(QQ, ["1", "2"], [("1", "2"), ("1", "2"), ("2", "2")])
    sd = StratDatum(A, LabelPoset(("1", "2"), [("1", "2")]))
    K, _ = sd.delta_kernel_module("1")

    def no_trials(rng, n):
        raise AssertionError("random trial on a pair with a local endomorphism ring")

    monkeypatch.setattr(strata.modules, "_trial_coefficients", no_trials)
    assert sd.delta["2"].dim == K.dim == 2
    v = iso_test(K, sd.delta["2"])
    assert v.kind == "not_iso"
    assert "local" in v.witness
    assert iso_to_direct_power(K, sd.delta["2"], 1) is None


def test_power_certificate_skips_maps_into_the_radical():
    # D = P_2 is L_2 over L_2 (the loop x); Hom(D^t, D) lists x on a summand before the
    # identity on it, so the first t basis maps miss the top and the pivots must choose
    A = compile_rad_square_zero(QQ, ["1", "2"], [("1", "2"), ("1", "2"), ("2", "2")])
    D = projective(A, "2")
    for t in (1, 2, 3):
        X = Module.direct_sum([D] * t)
        assert Matrix.vcat(hom_basis(X, D)[:t]).rank() < t * D.dim
        cert = surjection_onto_power(X, D, t)
        assert cert.rank() == X.dim
        assert all(cert * M == M * cert for M in X.action)
    # onto fewer copies than the top allows: the earliest maps that reach the top are kept
    X = Module.direct_sum([D] * 3)
    p = D.radical_subspace().projection_matrix()
    reach = [h for h in hom_basis(X, D) if not (p * h).is_zero()]
    assert len(reach) == 3
    assert surjection_onto_power(X, D, 1) == reach[0]
    assert surjection_onto_power(X, D, 2) == Matrix.vcat(reach[:2])
    # D + (L_2 + L_2) has the dimensions of D^2, but only one map to D reaches the top
    L2 = Module.direct_sum([simple(A, "2")] * 2)
    assert iso_to_direct_power(Module.direct_sum([D, L2]), D, 2) is None


def auslander(n):
    """The Auslander algebra of k[x]/(x^n), on the pattern of the auslander-x3 spec:
    a_i: i -> i+1, b_i: i+1 -> i, a_i b_i = b_{i+1} a_{i+1} and a_{n-1} b_{n-1} = 0."""
    vertices = [str(v) for v in range(1, n + 1)]
    arrows = [arrow for i in range(1, n) for arrow in ((f"a{i}", str(i), str(i + 1)), (f"b{i}", str(i + 1), str(i)))]
    relations = [[(1, (f"a{i}", f"b{i}")), (-1, (f"b{i + 1}", f"a{i + 1}"))] for i in range(1, n - 1)]
    relations.append([(1, (f"a{n - 1}", f"b{n - 1}"))])
    return compile_quiver(QuiverPresentation.make(vertices, arrows, relations, 2 * n - 1), QQ)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_auslander_algebras_of_truncated_polynomials(n):
    A = auslander(n)
    if n == 3:
        assert export_algebra(A) == export_algebra(load_spec_file(corpus_path("auslander-x3")).algebra)
    assert A.dim == n * (n + 1) * (2 * n + 1) // 6
    sd = StratDatum(A, LabelPoset(A.labels, [(str(i), str(i + 1)) for i in range(1, n)]))
    assert (sd.left_stratified()[0], sd.right_stratified()[0], sd.quasi_hereditary()) == (YES, YES, YES)
    # global dimension 2 <= 2n - 2: Ext^3 vanishes between simples, Ext^2 does not
    simples = [simple(A, lab) for lab in A.labels]
    ext = [ext_dims_upto(X, Y, 3) for X in simples for Y in simples]
    assert all(e[3] == 0 for e in ext)
    assert any(e[2] for e in ext)
