"""Algebra constructions on the integer products table against the loop versions
they replaced.

The references in ``oracles.py`` are the earlier constructions, verbatim over
the sparse table ``mult[i][j] = ((k, c_ij^k), ...)``: quiver compilation one
pair of paths at a time, the opposite and the tensor product by index loops,
the trace form by sums over the sparse entries, and corner, quotient and
closure tables as lists of coordinate tuples.  Hypothesis draws the light
corpus specs over Q and F_32003 (the opposite and the trace form run on every
corpus spec), idempotents that are sums of distinguished
ones, and closure generators; every table must equal its reference entry by
entry.  Left and right multiplication by an element, one product against the
table each, must equal the linear combinations of per-basis matrices they
replaced, on every corpus algebra.  Exporting any of these algebras and
loading the export back must give an equal algebra.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata.algebra import Algebra
from strata.corpus import corpus, entry
from strata.errors import InvalidAlgebra, StrataError
from strata.specfile import export_algebra, load_spec

from oracles import (
    corpus_doc,
    ref_closure_table,
    ref_corner_table,
    ref_left_mult_matrix,
    ref_opposite_table,
    ref_quiver_table,
    ref_quotient_table,
    ref_right_mult_matrix,
    ref_tensor_table,
    ref_trace_form_radical,
    sparse_table,
)

LIGHT_SPECS = ("auslander-x3", "diamond", "ext2-chain", "fork", "fork-refined", "rad-square-zero", "sl2-block")
FIELDS = ("Q", "Fp")

_ALGEBRAS = {}


def algebra(name, field):
    key = (name, field)
    if key not in _ALGEBRAS:
        if field == "Q":
            _ALGEBRAS[key] = entry(name).algebra
        else:
            doc = corpus_doc(name)
            doc["field"] = {"Fp": 32003}
            _ALGEBRAS[key] = load_spec(doc).algebra
    return _ALGEBRAS[key]


algebras = st.builds(algebra, st.sampled_from(LIGHT_SPECS), st.sampled_from(FIELDS))
every_algebra = pytest.mark.parametrize("name, field", [(n, f) for n in sorted(corpus()) for f in FIELDS])
QUIVER_SPECS = [n for n in sorted(corpus()) if entry(n).algebra.presentation is not None]


@st.composite
def idempotent_sums(draw, nonempty=True):
    """An algebra and a sum of some of its distinguished idempotents."""
    A = draw(algebras)
    picks = draw(st.sets(st.integers(0, len(A.idempotents) - 1), min_size=1 if nonempty else 0))
    return A, A.sum_idempotents(sorted(picks))


class TestTables:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("name", QUIVER_SPECS)
    def test_quiver_table(self, name, field):
        A = algebra(name, field)
        assert sparse_table(A) == ref_quiver_table(A.field, A.presentation)

    @every_algebra
    def test_opposite(self, name, field):
        A = algebra(name, field)
        assert sparse_table(A.opposite()) == ref_opposite_table(A)

    @every_algebra
    def test_trace_form_radical(self, name, field):
        A = algebra(name, field)
        ref = ref_trace_form_radical(A)
        assert A._trace_form_radical() == ref
        # a quiver algebra carries its arrow ideal, which is the radical
        assert A.radical() == ref

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_tensor_product(self, data):
        A = data.draw(algebras)
        # every light spec has a partner within the bound (14 x 4 at most)
        names = [n for n in LIGHT_SPECS if A.dim * entry(n).algebra.dim <= 56]
        B = data.draw(st.builds(algebra, st.sampled_from(names), st.just("Q" if A.field.char == 0 else "Fp")))
        assert sparse_table(A.tensor_product(B)) == ref_tensor_table(A, B)

    @settings(max_examples=25, deadline=None)
    @given(idempotent_sums())
    def test_corner(self, data):
        A, e = data
        C, _ = A.corner(e)
        assert sparse_table(C) == ref_corner_table(A, e)

    @settings(max_examples=25, deadline=None)
    @given(idempotent_sums(nonempty=False))
    def test_quotient(self, data):
        A, e = data
        try:
            Q, _ = A.quotient_by_idempotent_ideal(e)
        except StrataError:
            return
        assert sparse_table(Q) == ref_quotient_table(A, e)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_closure(self, data):
        A = data.draw(algebras)
        coeffs = st.lists(st.integers(-2, 2), min_size=A.dim, max_size=A.dim)
        gens = [A.coerce_vec(v) for v in data.draw(st.lists(coeffs, max_size=2))]
        B, _ = A.subalgebra_closure(A.idempotents, gens)
        assert sparse_table(B) == ref_closure_table(A, [v for v, _ in A.idempotents] + gens)


@every_algebra
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_multiplication_matrices_are_one_product(name, field, data):
    A = algebra(name, field)
    coeff = st.integers(-3, 3) | (st.fractions(max_denominator=4) if field == "Q" else st.nothing())
    vec = A.coerce_vec(data.draw(st.lists(coeff, min_size=A.dim, max_size=A.dim)))
    assert A.left_mult_matrix(vec) == ref_left_mult_matrix(A, vec)
    assert A.right_mult_matrix(vec) == ref_right_mult_matrix(A, vec)


def test_table_of_the_wrong_shape_is_refused():
    A = entry("fork").algebra
    n = A.dim
    for bad in (A.table.reshape(n * n, n), A.table.take_rows(range(n - 1)), sparse_table(A)):
        with pytest.raises(InvalidAlgebra, match="multiplication table"):
            Algebra(A.field, A.basis_names, bad, A.unit, A.idempotents)


# -- export round trip ----------------------------------------------------------------


def _derived(A):
    """A, its corners and its quotients at every single and paired idempotent pick."""
    out = [A]
    m = len(A.idempotents)
    for picks in itertools.chain(itertools.combinations(range(m), 1), itertools.combinations(range(m), 2)):
        e = A.sum_idempotents(picks)
        out.append(A.corner(e)[0])
        try:
            out.append(A.quotient_by_idempotent_ideal(e)[0])
        except StrataError:
            pass
    return out


@pytest.mark.parametrize("name", sorted(corpus()))
def test_export_round_trip(name):
    for B in _derived(entry(name).algebra):
        back = load_spec(export_algebra(B)).algebra
        assert back == B


def test_repeated_structure_constants_add_up():
    A = entry("sl2-block").algebra
    f = A.field
    doc = export_algebra(A)
    sc = doc["presentation"]["structure_constants"]
    # each c_ij^k entered twice, as 2c and -c
    sc["table"] = [[i, j, k, f.fmt(f.mul(f.coerce(m), f.parse(c)))] for m in (2, -1) for i, j, k, c in sc["table"]]
    assert load_spec(doc).algebra == A
