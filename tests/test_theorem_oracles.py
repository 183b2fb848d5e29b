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
  orders meet the count without being stratified.

A verdict may be "undetermined" (an isomorphism the search could neither find
nor refute); that is no answer, so it contradicts nothing.  Every determined
verdict must agree with the theorems.  Three labels at most keep the search
over all orders small (19 posets).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from strata.algebra import compile_quiver
from strata.kernel import QQ, PrimeField
from strata.quiver import QuiverPresentation
from strata.specfile import export_algebra, load_spec
from strata.strat import NO, UNDET, YES, LabelPoset, StratDatum, all_posets, is_split, poset_search

FIELDS = [QQ, PrimeField(32003)]


@st.composite
def rad_square_zero(draw):
    """(field, vertices, arrows as (source, target)) of a random quiver."""
    n = draw(st.integers(1, 3))
    vertices = [str(v) for v in range(1, n + 1)]
    arrows = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=4))
    return draw(st.sampled_from(FIELDS)), vertices, arrows


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


def agree(u, v):
    """Two verdicts contradict each other only when both are determined."""
    return u == v or UNDET in (u, v)


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
        assert agree(StratDatum(op, poset).quasi_hereditary(), q)
    again = verdicts(permuted(A, seed))
    assert all(agree(u, v) for poset in found for u, v in zip(found[poset], again[poset]))


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
        gated = (row["left"], row["right"], row["quasi_hereditary"])
        assert all(agree(u, v) for u, v in zip(gated, peeled[poset])), poset


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
