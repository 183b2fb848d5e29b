"""Kernel layer: exact elimination, rank/kernel/solve contracts."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata.errors import DimensionMismatch, InputError
from strata.kernel import QQ, Matrix, PrimeField, Subspace
from strata.kernel._elim_py import echelon_int, echelon_mod

from oracles import column, ref_act_rows, ref_projection_matrix, ref_row_space, scale, side_by_side


class TestEchelon:
    def test_int_identity(self):
        pivots, rows = echelon_int([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert pivots == [0, 1, 2]
        assert rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_int_proportional_rows(self):
        pivots, rows = echelon_int([[1, 2], [2, 4]])
        assert pivots == [0]
        assert rows[1] == [0, 0]

    def test_int_primitive_normalization(self):
        pivots, rows = echelon_int([[2, 4, 6], [0, 0, 10]], False)
        assert rows[0] == [1, 2, 3]
        assert rows[1] == [0, 0, 1]
        pivots, rows = echelon_int([[2, 4, 6], [0, 0, 10]], True)
        assert rows[0] == [1, 2, 0]

    def test_mod2_rank(self):
        # [[1,1],[1,0]] over F_2: hand elimination gives two pivots.
        pivots, rows = echelon_mod([[1, 1], [1, 0]], 2)
        assert pivots == [0, 1]

    def test_fixed_cases_match_hand_rref(self):
        # (matrix, RREF over Q, RREF over F_7), eliminated by hand; the first
        # has determinant -90, a unit mod 7, and the third has rank 2 in both
        cases = [
            ([[3, 1, 4], [1, 5, 9], [2, 6, 5]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            ([[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]),
            ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[1, 0, -1], [0, 1, 2], [0, 0, 0]], [[1, 0, 6], [0, 1, 2], [0, 0, 0]]),
            ([[5]], [[1]], [[1]]),
        ]
        for case, over_q, over_7 in cases:
            pivots = [next(j for j, x in enumerate(row) if x) for row in over_q if any(row)]
            # the integer rows are primitive with a positive pivot; divided by it they are the RREF
            q_pivots, rows = echelon_int(case)
            assert q_pivots == pivots
            assert [[Fraction(x, row[p]) for x in row] for row, p in zip(rows, q_pivots)] == over_q[: len(pivots)]
            assert all(not any(row) for row in rows[len(pivots):])
            assert echelon_mod(case, 7) == (pivots, over_7)


small_int = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrix(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    return [[draw(small_int) for _ in range(cols)] for _ in range(rows)]


@st.composite
def unit_row_matrix(draw):
    """Rows that are zero or one nonzero integer (not a multiple of 3) at a drawn column."""
    n = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(n):
        row = [0] * cols
        if draw(st.booleans()):
            row[draw(st.integers(0, cols - 1))] = draw(st.sampled_from([1, -1, 2, -2, 4, 5, -7]))
        rows.append(row)
    return rows


class TestMatrixContracts:
    def test_rank_identity(self):
        assert Matrix.identity(QQ, 3).rank() == 3

    def test_rank_proportional(self):
        assert Matrix.from_rows(QQ, [[1, 2], [2, 4]]).rank() == 1

    def test_rank_mod2(self):
        F2 = PrimeField(2)
        assert Matrix.from_rows(F2, [[1, 1], [1, 0]]).rank() == 2

    def test_kernel_identity_empty(self):
        K = Matrix.identity(QQ, 3).kernel_basis()
        assert K.cols == 0 and K.rows == 3

    def test_kernel_zero_matrix(self):
        K = Matrix.zeros(QQ, 2, 3).kernel_basis()
        assert K.cols == 3
        assert K.rank() == 3

    def test_kernel_proportional(self):
        M = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
        K = M.kernel_basis()
        assert K.cols == 1
        assert (M * K).is_zero()
        # one column proportional to (2, -1)
        v = K.col(0)
        assert v[0] * Fraction(-1) == v[1] * Fraction(2)

    def test_solve_identity(self):
        b = column(QQ, [3, Fraction(1, 2)])
        X = Matrix.identity(QQ, 2).solve(b)
        assert X == b

    def test_solve_inconsistent(self):
        M = Matrix.from_rows(QQ, [[1], [1]])
        b = column(QQ, [1, 2])
        assert M.solve(b) is None

    def test_solve_half(self):
        M = Matrix.from_rows(QQ, [[2]])
        X = M.solve(column(QQ, [1]))
        assert X[0, 0] == Fraction(1, 2)

    @given(int_matrix())
    @settings(max_examples=120, deadline=None)
    def test_rank_nullity(self, rows):
        M = Matrix.from_rows(QQ, rows)
        assert M.rank() + M.kernel_basis().cols == M.cols

    @given(int_matrix())
    @settings(max_examples=120, deadline=None)
    def test_kernel_exact(self, rows):
        M = Matrix.from_rows(QQ, rows)
        K = M.kernel_basis()
        assert (M * K).is_zero()

    @given(int_matrix())
    @settings(max_examples=60, deadline=None)
    def test_solve_or_rank_witness(self, rows):
        M = Matrix.from_rows(QQ, rows)
        b = column(QQ, list(range(1, M.rows + 1)))
        X = M.solve(b)
        if X is not None:
            assert (M * X - b).is_zero()
        else:
            assert M.hstack(b).rank() > M.rank()

    @given(unit_row_matrix(), st.sampled_from([QQ, PrimeField(3)]))
    @settings(max_examples=120, deadline=None)
    def test_unit_rows_read_like_the_elimination(self, rows, f):
        # rows with one nonzero each: rref and rank are read, and must equal elimination
        M = scale(Matrix.from_rows(f, rows), f.coerce(Fraction(1, 2)))
        assert M._unit_pivots() is not None
        with mock.patch.object(Matrix, "_unit_pivots", lambda self: None):
            R, pivots = scale(Matrix.from_rows(f, rows), f.coerce(Fraction(1, 2))).rref()
            rank = Matrix.from_rows(f, rows).rank()
        assert M.rref() == (R, pivots)
        assert Matrix.from_rows(f, rows).rank() == rank == len(pivots)

    @given(int_matrix(), st.sampled_from([QQ, PrimeField(3)]))
    @settings(max_examples=60, deadline=None)
    def test_trace_is_the_diagonal_sum(self, rows, f):
        M = scale(Matrix.from_rows(f, rows), f.coerce(Fraction(1, 2)))
        expected = f.zero
        for i in range(min(M.rows, M.cols)):
            expected = f.add(expected, M[i, i])
        assert M.trace() == expected

    @given(int_matrix())
    @settings(max_examples=60, deadline=None)
    def test_rank_agrees_mod_large_prime(self, rows):
        # Over a prime larger than any minor can cancel this is not guaranteed
        # in general, but rank over Q always dominates rank mod p.
        M = Matrix.from_rows(QQ, rows)
        F = PrimeField(10007)
        Mp = Matrix.from_rows(F, [[x % 10007 for x in r] for r in rows])
        assert Mp.rank() <= M.rank()


@st.composite
def sparse_matrix(draw):
    """A matrix over Q (entries with denominators up to 6), F_2 or F_7, up to 6 x 30,
    each entry nonzero with probability about 1/5: zero rows, zero columns and
    the 0 x n and n x 0 shapes all occur."""
    f = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(7)]))
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 30))
    if f == QQ:
        value = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
    else:
        value = st.integers(0, f.p - 1)
    cells = st.one_of(st.just(0), st.just(0), st.just(0), st.just(0), value)
    return Matrix(f, n, m, [draw(cells) for _ in range(n * m)])


def dense_transpose(M):
    return Matrix(M.field, M.cols, M.rows, [M[i, j] for j in range(M.cols) for i in range(M.rows)])


class TestTranspose:
    @given(sparse_matrix())
    @settings(max_examples=100, deadline=None)
    def test_transpose_is_the_dense_transpose(self, M):
        T = M.transpose()
        assert T == dense_transpose(M)
        assert (T.den, T.nonzeros) == (M.den, dense_transpose(M).nonzeros)
        assert T.transpose() == M

    def test_empty_shapes(self):
        for f in (QQ, PrimeField(5)):
            for rows, cols in ((0, 4), (4, 0), (0, 0)):
                T = Matrix.zeros(f, rows, cols).transpose()
                assert (T.rows, T.cols, T.den, T.nonzeros) == (cols, rows, 1, (None,) * cols)

    def test_zero_rows_and_columns_over_a_denominator(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        M = Matrix.from_rows(QQ, [[0, half, 0, 0], [0, 0, 0, 0], [third, 0, 0, -2 * third]])
        T = M.transpose()
        assert (T.rows, T.cols, T.den) == (4, 3, 6)
        assert T.nonzeros == (((2,), (2,)), ((0,), (3,)), None, ((2,), (-4,)))
        assert T.transpose() == M

    def test_prime_field(self):
        f = PrimeField(7)
        M = Matrix.from_rows(f, [[0, 3, 0], [5, 0, 0], [0, 0, 0], [6, 1, 0]])
        T = M.transpose()
        assert T.nonzeros == (((1, 3), (5, 6)), ((0, 3), (3, 1)), None)
        assert T.transpose() == M


@st.composite
def block_stack(draw):
    """(M, k): a matrix of k row blocks of equal height h over Q (denominators up to
    6), F_2 or F_7, each entry nonzero with probability about 1/5; h = 0 gives the
    0 x n shape and no columns the n x 0 shape."""
    f = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(7)]))
    k, h, c = draw(st.integers(1, 4)), draw(st.integers(0, 5)), draw(st.integers(0, 8))
    if f == QQ:
        value = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
    else:
        value = st.integers(0, f.p - 1)
    cells = st.one_of(st.just(0), st.just(0), st.just(0), st.just(0), value)
    return Matrix(f, k * h, c, [draw(cells) for _ in range(k * h * c)]), k


def dense_transpose_blocks(M, k):
    """Row t*cols + j is column j of row block t, entry by entry."""
    h = M.rows // k
    return Matrix(M.field, k * M.cols, h,
                  [M[t * h + i, j] for t in range(k) for j in range(M.cols) for i in range(h)])


class TestTransposeBlocks:
    @given(block_stack())
    @settings(max_examples=150, deadline=None)
    def test_transpose_blocks_is_the_dense_reference(self, case):
        M, k = case
        T = M.transpose_blocks(k)
        ref = dense_transpose_blocks(M, k)
        assert (T.rows, T.cols, T.den, T.nonzeros) == (ref.rows, ref.cols, ref.den, ref.nonzeros)
        # the two passes it replaces
        assert T == side_by_side(M, k).transpose()

    @pytest.mark.parametrize("f", [QQ, PrimeField(2), PrimeField(7)], ids=["q", "f2", "f7"])
    def test_empty_shapes(self, f):
        for k in (1, 2, 3):
            # 0 x n: k blocks of height 0, each n x 0 when transposed
            T = Matrix.zeros(f, 0, 4).transpose_blocks(k)
            assert (T.rows, T.cols, T.nonzeros) == (4 * k, 0, (None,) * (4 * k))
            # n x 0: k blocks with no columns, so no rows
            T = Matrix.zeros(f, 6, 0).transpose_blocks(k)
            assert (T.rows, T.cols, T.nonzeros) == (0, 6 // k, ())

    def test_fixed_case_over_q(self):
        third = Fraction(1, 3)
        M = Matrix.from_rows(QQ, [[1, 0], [0, third], [2, -1], [0, 0]])
        T = M.transpose_blocks(2)
        assert T == Matrix.from_rows(QQ, [[1, 0], [0, third], [2, 0], [-1, 0]])
        assert (T.den, T.nonzeros) == (3, (((0,), (3,)), ((1,), (1,)), ((0,), (6,)), ((0,), (-3,))))
        assert M.transpose_blocks(1) == M.transpose()

    def test_blocks_must_divide_the_rows(self):
        M = Matrix.identity(PrimeField(7), 3)
        for k in (0, 2):
            with pytest.raises(DimensionMismatch):
                M.transpose_blocks(k)


def dense_take_cols(M, indices):
    return Matrix(M.field, M.rows, len(indices), [M[i, j] for i in range(M.rows) for j in indices])


@st.composite
def matrix_and_columns(draw):
    """A sparse matrix and a column list of one of four kinds: strictly increasing
    (the one-pass path), a permutation of some columns, or one with repeats, in
    any order or sorted."""
    M = draw(sparse_matrix())
    cols = list(range(M.cols))
    kind = draw(st.sampled_from(["increasing", "permuted", "repeated", "sorted with repeats"]))
    if not cols:
        return M, []
    if kind == "increasing":
        return M, sorted(draw(st.sets(st.sampled_from(cols))))
    if kind == "permuted":
        perm = draw(st.permutations(cols))
        return M, perm[: draw(st.integers(0, len(perm)))]
    picks = draw(st.lists(st.sampled_from(cols), max_size=12))
    return M, sorted(picks) if kind == "sorted with repeats" else picks


class TestTakeCols:
    @given(matrix_and_columns())
    @settings(max_examples=150, deadline=None)
    def test_take_cols_is_the_dense_submatrix(self, case):
        M, indices = case
        S = M.take_cols(indices)
        ref = dense_take_cols(M, indices)
        assert (S.rows, S.cols, S.den, S.nonzeros) == (ref.rows, ref.cols, ref.den, ref.nonzeros)

    def test_fixed_cases_over_q(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        M = Matrix.from_rows(QQ, [[half, 0, third, 1], [0, 0, 0, 0], [0, 2, 0, -third]])
        assert M.den == 6
        for indices in ([1, 3], [0, 2, 3], [3, 1], [2, 0, 2], [3, 3, 1], [0, 0, 2], []):
            S, ref = M.take_cols(indices), dense_take_cols(M, indices)
            assert (S.cols, S.den, S.nonzeros) == (len(indices), ref.den, ref.nonzeros)
        # dropping the columns with denominators divides the common denominator out
        S = M.take_cols([1, 3])
        assert (S.den, S.nonzeros) == (3, (((1,), (3,)), None, ((0, 1), (6, -1))))

    def test_fixed_cases_over_a_prime_field(self):
        f = PrimeField(7)
        M = Matrix.from_rows(f, [[0, 3, 5], [6, 0, 0], [0, 0, 0]])
        assert M.take_cols([0, 2]).nonzeros == (((1,), (5,)), ((0,), (6,)), None)
        assert M.take_cols([2, 0, 2]).nonzeros == (((0, 2), (5, 5)), ((1,), (6,)), None)


# -- one-pass block kernels and subspace reads, against the composites they replaced ----


def stored(M):
    """Everything a matrix stores: two equal results must agree here, not only entrywise."""
    return M.field, M.rows, M.cols, M.den, M.nonzeros


@st.composite
def sized_matrix(draw, f, rows, cols):
    """A rows x cols matrix over f, each entry nonzero with probability about 1/4
    (denominators up to 6 over Q)."""
    if f == QQ:
        value = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
    else:
        value = st.integers(0, f.p - 1)
    cells = st.one_of(st.just(0), st.just(0), st.just(0), value)
    return Matrix(f, rows, cols, [draw(cells) for _ in range(rows * cols)])


@st.composite
def coefficient_rows(draw, f, rows, cols):
    """A rows x cols matrix of random rows, or of basis rows (some scaled), which take
    the one-nonzero path of combine_blocks."""
    if not cols or draw(st.booleans()):
        return draw(sized_matrix(f, rows, cols))
    picks = [draw(st.integers(0, cols - 1)) for _ in range(rows)]
    scales = [draw(st.sampled_from([1, 1, 2, Fraction(1, 3)])) for _ in range(rows)]
    return Matrix(f, rows, cols, [c if j == k else 0 for k, c in zip(picks, scales) for j in range(cols)])


BLOCK_FIELDS = st.sampled_from([QQ, PrimeField(2), PrimeField(7)])


class TestBlockKernels:
    @given(BLOCK_FIELDS, st.data())
    @settings(max_examples=150, deadline=None)
    def test_combine_blocks_is_the_kronecker_product(self, f, data):
        r, n, d, m = (data.draw(st.integers(0, 4)) for _ in range(4))
        R = data.draw(coefficient_rows(f, r, n))
        S = data.draw(sized_matrix(f, n * d, m))
        C = R.combine_blocks(S, d)
        assert stored(C) == stored(R.kron(Matrix.identity(f, d)) * S)
        # row i*d + t is sum_k R[i, k] S[k*d + t]
        for i in range(r):
            for t in range(d):
                for j in range(m):
                    entry = f.zero
                    for k in range(n):
                        entry = f.add(entry, f.mul(R[i, k], S[k * d + t, j]))
                    assert C[i * d + t, j] == entry
        S = data.draw(sized_matrix(f, n * d, d))
        # a stack of n square d x d blocks: the two reshapes and product of act_rows
        assert stored(R.combine_blocks(S, d)) == stored(ref_act_rows(S, R, n, d))

    @given(BLOCK_FIELDS, st.data())
    @settings(max_examples=150, deadline=None)
    def test_mul_row_blocks_is_the_block_product_of_the_reshape(self, f, data):
        s, k, w, c = (data.draw(st.integers(0, 4)) for _ in range(4))
        Y = data.draw(coefficient_rows(f, s, k))
        W = data.draw(sized_matrix(f, c, k * w))
        P = Y.mul_row_blocks(W, w)
        assert stored(P) == stored(Y.mul_blocks(W.reshape(c * k, w), c))
        # row ci*s + e is sum_b Y[e, b] W[ci, b*w : (b+1)*w]
        for ci in range(c):
            for e in range(s):
                for j in range(w):
                    entry = f.zero
                    for b in range(k):
                        entry = f.add(entry, f.mul(Y[e, b], W[ci, b * w + j]))
                    assert P[ci * s + e, j] == entry

    @pytest.mark.parametrize("f", [QQ, PrimeField(2), PrimeField(7)], ids=["q", "f2", "f7"])
    def test_empty_shapes(self, f):
        # no blocks (0-dimensional algebra), blocks of no rows (0-dimensional module)
        for r, n, d, m in ((0, 0, 0, 0), (3, 0, 2, 2), (2, 3, 0, 4), (0, 3, 2, 2), (2, 2, 2, 0)):
            C = Matrix.zeros(f, r, n).combine_blocks(Matrix.zeros(f, n * d, m), d)
            assert stored(C) == (f, r * d, m, 1, (None,) * (r * d))
        # width 0: the table of the 0-dimensional algebra, 0 x 0, cut into 0 blocks
        for s, k, w, c in ((0, 0, 0, 0), (2, 0, 0, 3), (2, 3, 0, 1), (0, 2, 3, 2), (2, 2, 3, 0)):
            P = Matrix.zeros(f, s, k).mul_row_blocks(Matrix.zeros(f, c, k * w), w)
            assert stored(P) == (f, c * s, w, 1, (None,) * (c * s))

    def test_fixed_case_over_q(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        S = Matrix.from_rows(QQ, [[1, 0], [0, third], [2, -1], [0, 0]])  # two 2 x 2 blocks
        R = Matrix.from_rows(QQ, [[1, 0], [0, half], [1, 1]])
        C = R.combine_blocks(S, 2)
        assert C == Matrix.from_rows(QQ, [[1, 0], [0, third], [1, -half], [0, 0], [3, -1], [0, third]])
        assert (C.den, C.nonzeros[:2]) == (6, (((0,), (6,)), ((1,), (2,))))
        W = Matrix.from_rows(QQ, [[1, 2, 0, third], [0, 0, 0, 0]])
        Y = Matrix.from_rows(QQ, [[1, 1], [half, 0]])
        assert Y.mul_row_blocks(W, 2) == Matrix.from_rows(QQ, [[1, 2 + third], [half, 1], [0, 0], [0, 0]])

    def test_shapes_must_fit(self):
        f = PrimeField(7)
        with pytest.raises(DimensionMismatch):
            Matrix.zeros(f, 2, 3).combine_blocks(Matrix.zeros(f, 5, 2), 2)
        with pytest.raises(DimensionMismatch):
            Matrix.zeros(f, 2, 3).mul_row_blocks(Matrix.zeros(f, 1, 7), 2)


class TestSubspaceReads:
    @given(sparse_matrix())
    @settings(max_examples=150, deadline=None)
    def test_row_space_and_projection_are_the_composites(self, M):
        S = Subspace.row_space(M)
        ref = ref_row_space(M)
        assert S == ref and S.pivots == ref.pivots and stored(S.basis) == stored(ref.basis)
        P = S.projection_matrix()
        assert stored(P) == stored(ref_projection_matrix(S))
        assert (P * S.inclusion()).is_zero()
        assert P * S.lift_matrix() == Matrix.identity(M.field, M.cols - S.dim)

    @pytest.mark.parametrize("f", [QQ, PrimeField(2), PrimeField(7)], ids=["q", "f2", "f7"])
    def test_empty_shapes(self, f):
        for n in (0, 3):
            zero, full = Subspace.zero(f, n), Subspace.full(f, n)
            assert stored(zero.projection_matrix()) == stored(Matrix.identity(f, n))
            assert stored(full.projection_matrix()) == (f, 0, n, 1, ())
            for S in (zero, full):
                assert stored(S.projection_matrix()) == stored(ref_projection_matrix(S))
        S = Subspace.row_space(Matrix.zeros(f, 3, 4))
        assert S.dim == 0 and stored(S.basis) == stored(ref_row_space(Matrix.zeros(f, 3, 4)).basis)

    def test_projection_over_a_denominator(self):
        third = Fraction(1, 3)
        S = Subspace.from_rows(QQ, 4, [[3, 1, 0, 0], [0, 0, 2, third]])
        assert (S.basis.den, S.pivots) == (6, (0, 2))
        P = S.projection_matrix()
        assert P == Matrix.from_rows(QQ, [[-third, 1, 0, 0], [0, 0, -Fraction(1, 6), 1]])
        assert (P.den, P.nonzeros) == (6, (((0, 1), (-2, 6)), ((2, 3), (-1, 6))))


class TestScalarFormats:
    def test_rational_roundtrip(self):
        assert QQ.fmt(QQ.parse("3/4")) == "3/4"
        assert QQ.fmt(QQ.parse("5")) == "5"
        assert QQ.fmt(Fraction(-6, 4)) == "-3/2"

    def test_fp_roundtrip(self):
        F5 = PrimeField(5)
        assert F5.fmt(F5.parse("7 mod 5")) == "2 mod 5"
        assert F5.parse("3") == 3
        with pytest.raises(InputError):
            F5.parse("3 mod 7")

    def test_fp_requires_prime(self):
        from strata.errors import UnsupportedField

        with pytest.raises(UnsupportedField):
            PrimeField(6)


class TestSubspace:
    def test_membership_and_complement(self):
        S = Subspace.from_rows(QQ, 3, [[1, 2, 0], [0, 0, 1]])
        assert S.dim == 2
        assert S.contains(Matrix.from_rows(QQ, [[2, 4, 7]]))
        assert not S.contains(Matrix.from_rows(QQ, [[0, 1, 0]]))
        assert S.complement_coords() == [1]

    def test_projection_section(self):
        S = Subspace.from_rows(QQ, 3, [[1, 1, 1]])
        P = S.projection_matrix()
        L = S.lift_matrix()
        assert (P * L) == Matrix.identity(QQ, 2)
        # projection kills the subspace
        v = column(QQ, [5, 5, 5])
        assert (P * v).is_zero()

    def test_sum_intersect_dims(self):
        A = Subspace.from_rows(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        B = Subspace.from_rows(QQ, 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
        assert A.plus(B).dim == 3
        I = A.intersect(B)
        assert I.dim == 1
        assert I.contains(Matrix.from_rows(QQ, [[0, 1, 0, 0]]))
