"""Algebra elements are canonical 1 x dim A rows, from input to report.

The unit, the distinguished idempotents, basis vectors, generators, subset
sums, products, resolution differentials and the images of a subalgebra's
elements are all Matrix rows in the kernel's canonical form, equal to the row
built from their entries.  Products are one row times the table, so mult_vec
must agree with the plain left multiplication matrix of tests/oracles.py;
acting by a basis vector returns the stored action matrix itself, and any
other element acts as the linear combination of those.  coerce_vec is the one
way in for other input: a tuple of field elements, Fractions, literal strings
or the row itself all land on the same memo entry.

Checked on generated rad^2 = 0 and truncated path algebras over Q, F_2 and F_3,
and on every algebra derived from them (opposite, corners, quotients, closure,
tensor product).
"""

import itertools
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strata.functors import SubalgebraEmbedding
from strata.homology import resolution
from strata.kernel import Matrix
from strata.modules import Module, projective, simple

from oracles import ref_left_mult_matrix, rows_of
from test_generators import GENERATED, build, derived_algebras

SETTINGS = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def canonical(A, v):
    """v is a 1 x dim A row over A's field, in the form its entries build."""
    return (isinstance(v, Matrix) and v.field == A.field and (v.rows, v.cols) == (1, A.dim)
            and v == Matrix.from_rows(A.field, [v.row(0)]))


def subset_sums(A):
    n = len(A.idempotents)
    return [A.sum_idempotents(picks) for r in range(1, n + 1) for picks in itertools.combinations(range(n), r)]


def returned_elements(A):
    """Every element the API hands out for A, short of module and resolution data."""
    out = [A.unit] + [v for v, _ in A.idempotents] + [A.basis_vec(i) for i in range(A.dim)]
    out += rows_of(A.generators()) + subset_sums(A)
    out += [A.idempotent_for_label(lab) for lab in A.labels] + [A.idempotent_sum_for_labels(A.labels)]
    gens = rows_of(A.generators())
    out += [A.mult_vec(x, y) for x in gens for y in gens]
    return out


def element(A, data):
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=A.dim, max_size=A.dim))
    return A.coerce_vec(coeffs)


class TestElementForm:
    @SETTINGS
    @given(GENERATED)
    def test_every_returned_element_is_a_canonical_row(self, quiver):
        A = build(quiver)
        for B in [A] + derived_algebras(A):
            assert all(canonical(B, v) for v in returned_elements(B))

    @SETTINGS
    @given(GENERATED)
    def test_resolutions_and_embeddings_hand_out_rows(self, quiver):
        A = build(quiver)
        for B in (A, A.opposite()):
            for lab in B.labels:
                res = resolution(simple(B, lab)).extend_to(2)
                assert all(canonical(B, s.e_vec) for layer in res.layers for s in layer)
                assert all(canonical(B, m) for grid in res.element_diffs for row in grid for m in row)
        f = A.field
        if f.char == 0 or f.char > A.dim:  # a closure re-checks its labels on the trace-form radical
            C, emb = A.subalgebra_closure(A.idempotents, rows_of(A.generators())[len(A.idempotents):])
            sub = SubalgebraEmbedding(C, A, emb)
            assert all(canonical(A, sub.image_vec(v)) for v in returned_elements(C))


class TestProductsAndActions:
    @SETTINGS
    @given(GENERATED, st.data())
    def test_mult_vec_is_the_left_multiplication_matrix(self, quiver, data):
        A = build(quiver)
        for B in [A] + derived_algebras(A):
            x, y = element(B, data), element(B, data)
            xy = B.mult_vec(x, y)
            assert canonical(B, xy)
            assert xy.transpose() == ref_left_mult_matrix(B, x) * y.transpose()

    @SETTINGS
    @given(GENERATED, st.data())
    def test_act_reads_the_row(self, quiver, data):
        A = build(quiver)
        for B in [A] + derived_algebras(A):
            x = element(B, data)
            for X in [Module.regular(B)] + [projective(B, lab) for lab in B.labels]:
                for k in range(B.dim):
                    assert X.act(B.basis_vec(k)) is X.action[k]
                terms = [(c, X.act(B.basis_vec(k))) for k, c in enumerate(x.row(0)) if c]
                assert X.act(x) == Matrix.linear_combination(B.field, X.dim, X.dim, terms)


class TestOneMemoEntry:
    @SETTINGS
    @given(GENERATED)
    def test_every_input_form_lands_on_one_entry(self, quiver):
        A = build(quiver)
        f = A.field
        for B in (A, A.opposite()):
            for e in subset_sums(B):
                forms = [e, tuple(e.row(0)), [Fraction(x) for x in e.row(0)], [f.fmt(x) for x in e.row(0)]]
                for kind, query in (("summands", B.subset_sum_decomposition), ("ideal", B.two_sided_ideal),
                                    ("corner", B.corner)):
                    answers = [query(v) for v in forms]
                    assert all(a is answers[0] for a in answers[1:])
                    assert [key for key in B._derived if key[0] == kind and key[1] == e] == [(kind, e)]
