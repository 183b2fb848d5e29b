"""Coordinate subspaces are read off their pivots, and equal the general path.

A coordinate subspace is a span of unit vectors: its canonical basis is the
unit rows at its pivots.  kernel/subspace.py reads every operation on one off
the pivots (column_space, inclusion, coordinates, contains_columns, restrict,
project, embed, the projection and lift, and the actions on the
subspace and on the quotient), and Module.submodule / quotient and the block
data of hom_basis go through those reads.  Each read is checked here against
the general formula it replaces (tests/oracles.py, and the same subspace with
its coordinate flag cleared), by stored form, over Q, F_2 and F_3: on
generated matrices that mix one-entry and dense columns, on coordinate and
non-coordinate subspaces, and on the modules of generated path algebras and
of their base-changed copies (tests/base_change.py).
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strata.corpus import corpus_path
from strata.errors import DimensionMismatch, InvalidModule, NotInSubspace
from strata.kernel import QQ, Matrix, PrimeField, Subspace
from strata.modules import Module, _build_block_data
from strata.specfile import load_spec_file

from base_change import base_changed
from oracles import (
    ref_action_on,
    ref_contains_columns,
    ref_coordinates,
    ref_fused_block_data,
    ref_image_of,
    ref_inclusion,
    ref_lift_matrix,
    ref_projection_matrix,
    ref_quotient_action,
    ref_stack_action_on,
    ref_stack_quotient,
)
from test_generators import GENERATED, build
from test_module_stack import named_modules

FIELDS = st.sampled_from([QQ, PrimeField(2), PrimeField(3)])
SETTINGS = settings(max_examples=100, deadline=None)
MODULE_SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def stored(M):
    return M.field, M.rows, M.cols, M.den, M.nonzeros


def nonzero(f):
    if f == QQ:
        return st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 5]), st.integers(1, 6))
    return st.integers(1, f.p - 1)


def cell(f):
    return st.one_of(st.just(0), st.just(0), nonzero(f))


@st.composite
def matrix(draw, f, rows, cols):
    return Matrix(f, rows, cols, [draw(cell(f)) for _ in range(rows * cols)])


@st.composite
def mixed_columns(draw):
    """(M, k): k >= 1 row blocks of height h, each column of each block empty, with
    one entry, or dense; with no dense column the span is a coordinate subspace."""
    f = draw(FIELDS)
    k, h, c = draw(st.integers(1, 3)), draw(st.integers(0, 5)), draw(st.integers(0, 6))
    kinds = ["empty", "one", "one", "dense"] if draw(st.booleans()) else ["empty", "one"]
    entries = [[0] * c for _ in range(k * h)]
    for t in range(k):
        for j in range(c):
            kind = draw(st.sampled_from(kinds))
            if h and kind == "one":
                entries[t * h + draw(st.integers(0, h - 1))][j] = draw(nonzero(f))
            elif kind == "dense":
                for i in range(h):
                    entries[t * h + i][j] = draw(cell(f))
    return Matrix(f, k * h, c, [x for row in entries for x in row]), k


def general(S):
    """S with its coordinate flag cleared: every read takes the general path."""
    G = Subspace(S.field, S.ambient_dim, S.basis, S.pivots)
    G.coordinate = False
    return G


@st.composite
def coordinate_subspace(draw, f=None):
    """A coordinate subspace of k^n, n <= 7, spanned by scaled unit rows."""
    f = f or draw(FIELDS)
    n = draw(st.integers(0, 7))
    picks = draw(st.lists(st.integers(0, n - 1), max_size=n)) if n else []
    rows = [[draw(nonzero(f)) if j == p else 0 for j in range(n)] for p in picks]
    return Subspace.from_rows(f, n, rows)


@st.composite
def subspace(draw):
    """A coordinate subspace, or the span of a few random rows (rarely coordinate)."""
    if draw(st.booleans()):
        return draw(coordinate_subspace())
    f = draw(FIELDS)
    n = draw(st.integers(0, 6))
    return Subspace.row_space(draw(matrix(f, draw(st.integers(0, 3)), n)))


@st.composite
def invariant_stack(draw, S, k):
    """k square blocks of size ambient_dim, each keeping S when S is coordinate:
    no entry at (row off the pivots, pivot column)."""
    n = S.ambient_dim
    M = draw(matrix(S.field, k * n, n))
    if not S.coordinate:
        return M
    piv = set(S.pivots)
    rows = []
    for i, r in enumerate(M.nonzeros):
        keep = [(j, x) for j, x in zip(*r)] if r else []
        if i % n not in piv:
            keep = [(j, x) for j, x in keep if j not in piv]
        rows.append((tuple(j for j, _ in keep), tuple(x for _, x in keep)) if keep else None)
    return Matrix.from_integers(S.field, k * n, n, rows, M.den)


def same_or_both_raise(fast, slow, error):
    try:
        expected = slow()
    except error:
        with pytest.raises(error):
            fast()
        return None
    got = fast()
    assert stored(got) == stored(expected)
    return got


class TestColumnSpace:
    @SETTINGS
    @given(mixed_columns())
    def test_column_space_is_the_row_space_of_the_blocks_transposed(self, case):
        M, k = case
        S = Subspace.column_space(M, k)
        ref = Subspace.row_space(M.transpose_blocks(k))
        assert S == ref and S.pivots == ref.pivots and stored(S.basis) == stored(ref.basis)
        assert S.coordinate == (S.basis.den == 1 and all(len(r[0]) == 1 for r in S.basis.nonzeros))
        h = M.rows // k
        one_entry = all(len({i for i in range(t * h, (t + 1) * h)
                             if M.nonzeros[i] and j in M.nonzeros[i][0]}) <= 1
                        for t in range(k) for j in range(M.cols))
        if one_entry:
            assert S.coordinate and set(S.pivots) == {i % h for i, r in enumerate(M.nonzeros) if r}

    def test_blocks_must_divide_the_rows(self):
        with pytest.raises(DimensionMismatch, match="blocks"):
            Subspace.column_space(Matrix.zeros(QQ, 5, 2), 2)

    def test_fixed_cases(self):
        f = PrimeField(3)
        # one entry per column: the rows they are in, however scaled
        S = Subspace.column_space(Matrix.from_rows(f, [[0, 2, 0], [0, 0, 0], [1, 0, 1]]))
        assert S.coordinate and S.pivots == (0, 2) and S.dim == 2
        # a column with two entries is eliminated: span of (1, 1), not coordinate
        S = Subspace.column_space(Matrix.from_rows(QQ, [[1, 2], [1, 2]]))
        assert not S.coordinate and S.pivots == (0,) and S.basis == Matrix.from_rows(QQ, [[1, 1]])


class TestCoordinateReads:
    @SETTINGS
    @given(coordinate_subspace(), st.data())
    def test_reads_equal_the_general_formulas(self, S, data):
        f, n, d = S.field, S.ambient_dim, S.dim
        G = general(S)
        assert S.coordinate
        assert stored(S.inclusion()) == stored(ref_inclusion(S)) == stored(G.inclusion())
        assert stored(S.projection_matrix()) == stored(ref_projection_matrix(S)) == stored(G.projection_matrix())
        assert stored(S.lift_matrix()) == stored(ref_lift_matrix(S)) == stored(G.lift_matrix())
        k, m = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
        # coordinates: accepted input, then one entry off the pivots
        C = data.draw(matrix(f, k * d, m))
        img = ref_inclusion(S).mul_blocks(C, k)
        assert stored(S.coordinates(img, k)) == stored(ref_coordinates(S, img, k)) == stored(C)
        assert S.contains_columns(img.take_rows(range(n)) if k > 1 else img)
        comp = S.complement_coords()
        if comp and m:
            i = data.draw(st.integers(0, k - 1)) * n + data.draw(st.sampled_from(comp))
            bad = img + Matrix.from_integers(f, k * n, m, [((0,), (1,)) if r == i else None for r in range(k * n)])
            for read in (S.coordinates, G.coordinates, lambda x, b: ref_coordinates(S, x, b)):
                with pytest.raises(NotInSubspace):
                    read(bad, k)
            top = bad.take_rows(range(i - i % n, i - i % n + n))
            assert not S.contains_columns(top) and not ref_contains_columns(S, top)
        # restrict, project and embed against the products they replace
        M = data.draw(matrix(f, data.draw(st.integers(0, 3)), n))
        assert stored(S.restrict(M)) == stored(M * ref_inclusion(S)) == stored(G.restrict(M))
        B = data.draw(matrix(f, k * n, m))
        assert stored(S.project(B, k)) == stored(ref_projection_matrix(S).mul_blocks(B, k)) == stored(G.project(B, k))
        E = data.draw(matrix(f, d, m))
        assert stored(S.embed(E)) == stored(ref_inclusion(S) * E) == stored(G.embed(E))

    @SETTINGS
    @given(subspace(), st.data())
    def test_block_actions_equal_the_general_formulas(self, S, data):
        k = data.draw(st.integers(1, 3))
        stack = data.draw(invariant_stack(S, k)) if data.draw(st.booleans()) else \
            data.draw(matrix(S.field, k * S.ambient_dim, S.ambient_dim))
        G = general(S)
        same_or_both_raise(lambda: S.action_on(stack, k), lambda: G.action_on(stack, k), NotInSubspace)
        same_or_both_raise(lambda: S.action_on(stack, k),
                           lambda: ref_coordinates(S, stack * ref_inclusion(S), k), NotInSubspace)
        if S.coordinate:
            # the general path reads the quotient action only of invariant stacks
            stack = data.draw(invariant_stack(S, k))
        expected = ref_projection_matrix(S).mul_blocks(stack.take_cols(S.complement_coords()), k)
        assert stored(S.quotient_action(stack, k)) == stored(expected)
        if S.coordinate:
            assert stored(G.quotient_action(stack, k)) == stored(expected)

    @SETTINGS
    @given(subspace(), st.data())
    def test_both_paths_refuse_the_same_wrong_shapes(self, S, data):
        f, n, k = S.field, S.ambient_dim, data.draw(st.integers(1, 3))
        cols = data.draw(st.sampled_from([c for c in range(n + 3) if c != n]))
        rows = data.draw(st.sampled_from([r for r in range(k * n + 3) if r != k * n]))
        wide, tall = data.draw(matrix(f, k * n, cols)), data.draw(matrix(f, rows, n))
        coords = data.draw(matrix(f, data.draw(st.sampled_from([r for r in range(S.dim + 3) if r != S.dim])), 2))
        vecs = data.draw(matrix(f, data.draw(st.sampled_from([r for r in range(n + 3) if r != n])), 2))
        for T in (S, general(S)):
            for read in (lambda: T.restrict(wide), lambda: T.coordinates(tall, k), lambda: T.project(tall, k),
                         lambda: T.action_on(wide, k), lambda: T.action_on(tall, k),
                         lambda: T.quotient_action(wide, k), lambda: T.quotient_action(tall, k),
                         lambda: T.embed(coords), lambda: T.contains_columns(vecs)):
                with pytest.raises(DimensionMismatch):
                    read()

    def test_a_non_invariant_block_is_refused(self):
        S = Subspace.from_rows(QQ, 3, [[0, 1, 0]])
        keeps = Matrix.from_rows(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        leaves = Matrix.from_rows(QQ, [[1, 0, 0], [0, 2, 0], [0, 1, 3]])  # e_1 -> 2 e_1 + e_2
        assert S.action_on(keeps.vstack(keeps), 2) == Matrix.from_rows(QQ, [[2], [2]])
        with pytest.raises(NotInSubspace):
            S.action_on(keeps.vstack(leaves), 2)


def variants(quiver):
    """The generated algebra, and over Q its base-changed copy (over F_p the copy,
    which has no quiver, would need the trace-form radical, defined only for p > dim)."""
    A = build(quiver)
    return [A, base_changed(A)] if A.field.char == 0 else [A]


def coordinate_span(X, data):
    """A coordinate subspace of X, on drawn positions: invariant or not."""
    picks = data.draw(st.lists(st.integers(0, X.dim - 1), max_size=X.dim)) if X.dim else []
    return Subspace.from_rows(X.algebra.field, X.dim, [[1 if j == p else 0 for j in range(X.dim)] for p in picks])


class TestModulesThroughTheSubspace:
    @MODULE_SETTINGS
    @given(GENERATED, st.data())
    def test_submodule_and_quotient_equal_the_per_basis_references(self, quiver, data):
        for A in variants(quiver):
            X = data.draw(st.sampled_from(named_modules(A, data)))
            spans = [X.radical_subspace(), X.socle_subspace(), coordinate_span(X, data),
                     X.e_part(data.draw(st.sampled_from([e for e, _ in A.idempotents])))]
            for S in spans:
                try:
                    expected = ref_action_on(X, S)
                except InvalidModule:
                    with pytest.raises(InvalidModule, match="invariant"):
                        X.submodule(S)
                    with pytest.raises(InvalidModule):
                        ref_stack_action_on(X, S)
                    continue
                sub = X.submodule(S)
                assert sub.action == tuple(expected) and stored(S.inclusion()) == stored(ref_inclusion(S))
                if S.dim < X.dim:
                    assert stored(sub.stack) == stored(ref_stack_action_on(X, S))
                if S.dim:
                    quot, proj = X.quotient(S), S.projection_matrix()
                    ref_quot, ref_proj = ref_quotient_action(X, S)
                    assert quot.action == tuple(ref_quot) and proj == ref_proj
                    assert (quot.stack, proj) == ref_stack_quotient(X, S)

    @MODULE_SETTINGS
    @given(GENERATED, st.data())
    def test_images_and_block_data_equal_the_products(self, quiver, data):
        for A in variants(quiver):
            X = data.draw(st.sampled_from(named_modules(A, data)))
            R = A.radical().basis
            on = X.radical_subspace()
            assert X.image_of(R) == ref_image_of(X, R)
            assert X.image_of(R, on=on) == ref_image_of(X, R, on=on)
            if X.dim:
                ours, ref = _build_block_data(X), ref_fused_block_data(X)
                assert ours[:3] == ref[:3] and [stored(M) for M in ours[3]] == [stored(M) for M in ref[3]]

    def test_the_base_changed_copy_builds_non_coordinate_blocks(self):
        A = load_spec_file(corpus_path("fork")).algebra
        B = base_changed(A)
        X, Y = Module.regular(A), Module.regular(B)
        assert all(X.e_part(e).coordinate for e, _ in A.idempotents)
        assert not any(Y.e_part(e).coordinate for e, _ in B.idempotents)
        ours, theirs = _build_block_data(X), _build_block_data(Y)
        assert ours[0] == theirs[0] and len(ours[3]) == len(theirs[3])
