"""Integer-backed matrices against the entrywise Fraction loops they replaced.

The reference below is the arithmetic Matrix used when it stored one field
element per entry: ``mul``, ``add`` and ``scale`` are those loops verbatim, on
flat lists of field elements, and ``rref`` is a textbook Gauss-Jordan pass
with the same pivot rule (first nonzero column, topmost available row).  The
reduced echelon form is unique, so every derived operation -- rank,
kernel_basis, solve, inverse -- is pinned entrywise by it.  The layout
operations (transposes, reshapes, splits, row and column picks, stacking,
Kronecker products) are checked against index arithmetic on the same flat
lists, and every result against the canonical stored form (assert_canonical).
"""

import gc
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strata.algebra import Algebra
from strata.corpus import corpus_path, entry
from strata.errors import InvalidModule, NotInSubspace
from strata.homology import ext_dim, ext_dims_upto
from strata.kernel import QQ, Matrix, PrimeField, Subspace
from strata.modules import Module, _build_block_data, projective, simple
from strata.specfile import load_spec_file
from strata.strat import strat_datum

from oracles import (
    column,
    hsplit,
    invariant_closure,
    ref_act_rows,
    ref_block_data,
    ref_pivot_block_data,
    ref_products,
    ref_regular,
    ref_right_mult_kron,
    ref_right_mult_matrix,
    scale,
)
from test_generators import GENERATED, build
from test_interning import VARIANT, pool, variant
from test_kernel import stored

FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]


# -- reference: one field element per entry ---------------------------------------


def ref_mul(f, n, k, m, a, b):
    out = [f.zero] * (n * m)
    for i in range(n):
        arow = a[i * k : (i + 1) * k]
        for t in range(k):
            x = arow[t]
            if f.is_zero(x):
                continue
            boff = t * m
            ooff = i * m
            for j in range(m):
                y = b[boff + j]
                if not f.is_zero(y):
                    out[ooff + j] = f.add(out[ooff + j], f.mul(x, y))
    return out


def ref_add(f, a, b):
    return [f.add(x, y) for x, y in zip(a, b)]


def ref_scale(f, c, a):
    c = f.coerce(c)
    return [f.mul(c, x) for x in a]


def ref_rref(f, n, m, a):
    """(entries of the RREF, pivot columns)."""
    rows = [list(a[i * m : (i + 1) * m]) for i in range(n)]
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if not f.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(n):
            if i != r and not f.is_zero(rows[i][c]):
                t = rows[i][c]
                rows[i] = [f.sub(x, f.mul(t, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [x for row in rows for x in row], pivots


def ref_kernel(f, n, m, a):
    """Columns of the null-space basis built from the reference RREF."""
    R, pivots = ref_rref(f, n, m, a)
    cols = []
    for fc in [j for j in range(m) if j not in pivots]:
        v = [f.zero] * m
        v[fc] = f.one
        for k, pc in enumerate(pivots):
            v[pc] = f.neg(R[k * m + fc])
        cols.append(v)
    return cols


def ref_solve(f, n, m, a, bcols, b):
    """Entries of X (m x bcols) with A X = B, or None."""
    w = m + bcols
    aug = [x for i in range(n) for x in a[i * m : (i + 1) * m] + b[i * bcols : (i + 1) * bcols]]
    R, pivots = ref_rref(f, n, w, aug)
    if any(p >= m for p in pivots):
        return None
    X = [f.zero] * (m * bcols)
    for k, pc in enumerate(pivots):
        X[pc * bcols : (pc + 1) * bcols] = R[k * w + m : (k + 1) * w]
    return X


def canon(f, xs):
    return [f.coerce(x) for x in xs]


# -- strategies --------------------------------------------------------------------


def elements(f):
    if f == QQ:
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    return st.integers(-3 * f.p, 3 * f.p)  # unreduced, so that coercion is exercised


# 0 x n and n x 0 shapes, or any shape up to 4 x 4
shapes = st.sampled_from([(0, 0), (0, 3), (3, 0)]) | st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def matrix_data(draw, f, rows=None, cols=None, shape=None):
    if shape is not None:
        rows, cols = draw(shape)
    n = draw(st.integers(0, 4)) if rows is None else rows
    m = draw(st.integers(0, 4)) if cols is None else cols
    entries = draw(st.lists(elements(f), min_size=n * m, max_size=n * m))
    for i in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
        entries[i * m : (i + 1) * m] = [0] * m  # zero rows
    return n, m, canon(f, entries)


fields = st.sampled_from(FIELDS)


class TestAgainstReference:
    @given(fields, st.data())
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, f, data):
        n, k, a = data.draw(matrix_data(f))
        _, m, b = data.draw(matrix_data(f, rows=k))
        _, _, a2 = data.draw(matrix_data(f, rows=n, cols=k))
        c = data.draw(elements(f))
        A, B, A2 = Matrix(f, n, k, a), Matrix(f, k, m, b), Matrix(f, n, k, a2)
        assert list((A * B).entries) == ref_mul(f, n, k, m, a, b)
        assert list((A + A2).entries) == ref_add(f, a, a2)
        assert list((A - A2).entries) == ref_add(f, a, ref_scale(f, -1, a2))
        assert list((-A).entries) == ref_scale(f, -1, a)
        assert list(scale(A, c).entries) == ref_scale(f, c, a)
        assert list(A.transpose().entries) == [a[i * k + j] for j in range(k) for i in range(n)]
        assert list(A.hstack(A2).entries) == [
            x for i in range(n) for x in a[i * k : (i + 1) * k] + a2[i * k : (i + 1) * k]
        ]
        assert list(A.vstack(A2).entries) == a + a2
        assert A.is_zero() == all(f.is_zero(x) for x in a)
        assert [[A[i, j] for j in range(k)] for i in range(n)] == [a[i * k : (i + 1) * k] for i in range(n)]
        assert [A.col(j) for j in range(k)] == [a[j::k] for j in range(k)]
        for M in (A, A * B, A + A2, A - A2, -A, scale(A, c)):
            assert_canonical(M)

    @given(fields, st.data())
    @settings(max_examples=150, deadline=None)
    def test_elimination(self, f, data):
        n, m, a = data.draw(matrix_data(f))
        A = Matrix(f, n, m, a)
        R, pivots = A.rref()
        ref_R, ref_pivots = ref_rref(f, n, m, a)
        assert (list(R.entries), pivots) == (ref_R, ref_pivots)
        assert A.rank() == Matrix(f, n, m, a).rank() == len(ref_pivots)
        K = A.kernel_basis()
        assert (K.rows, K.cols) == (m, m - len(ref_pivots))
        assert [K.col(j) for j in range(K.cols)] == ref_kernel(f, n, m, a)
        _, bc, b = data.draw(matrix_data(f, rows=n))
        X = A.solve(Matrix(f, n, bc, b))
        ref_X = ref_solve(f, n, m, a, bc, b)
        assert (X is None) == (ref_X is None)
        if X is not None:
            assert list(X.entries) == ref_X
            assert_canonical(X)
        assert_canonical(R)
        assert_canonical(K)

    @given(fields, st.data())
    @settings(max_examples=80, deadline=None)
    def test_inverse(self, f, data):
        n = data.draw(st.integers(0, 4))
        _, _, a = data.draw(matrix_data(f, rows=n, cols=n))
        A = Matrix(f, n, n, a)
        ident = [f.one if i == j else f.zero for i in range(n) for j in range(n)]
        ref = ref_solve(f, n, n, a, n, ident)
        if ref is None:
            with pytest.raises(ZeroDivisionError):
                A.inverse()
        else:
            assert list(A.inverse().entries) == ref

    @given(fields, st.data())
    @settings(max_examples=150, deadline=None)
    def test_storage_is_canonical(self, f, data):
        n, m, a = data.draw(matrix_data(f))
        A = Matrix(f, n, m, a)
        d = data.draw(st.integers(1, 12))
        c = data.draw(elements(f).filter(lambda x: not f.is_zero(f.coerce(x))))
        if f == QQ:
            # the same values, entered over a common denominator d
            B = Matrix(f, n, m, [Fraction(x * d, d) for x in a])
            scaled = scale(Matrix(f, n, m, [x * d for x in a]), Fraction(1, d))
        else:
            B = Matrix(f, n, m, [x + d * f.p for x in a])
            scaled = scale(Matrix(f, n, m, [x * d for x in a]), f.inv(d % f.p)) if d % f.p else A
        variants = [
            B,
            scaled,
            scale(scale(A, c), f.inv(f.coerce(c))),
            (A + A) - A,
            A.transpose().transpose(),
            Matrix(f, m, n, [a[i * m + j] for j in range(m) for i in range(n)]).transpose(),
            Matrix.linear_combination(f, n, m, [(c, A), (f.neg(f.coerce(c)), A), (1, A)]),
            Matrix.from_json(f, A.to_json()),
            A.reshape(m, n).reshape(n, m),
            A.vstack(A).take_rows(range(n, 2 * n)),
        ]
        for V in variants:
            assert V == A
            assert hash(V) == hash(A)
            assert (V.den, V.nonzeros) == (A.den, A.nonzeros)
            assert_canonical(V)

    @given(fields, st.data())
    @settings(max_examples=150, deadline=None)
    def test_layout_operations(self, f, data):
        n, m, a = data.draw(matrix_data(f, shape=shapes))
        A = Matrix(f, n, m, a)

        def check(M, rows, cols, entries):
            assert (M.rows, M.cols) == (rows, cols)
            assert list(M.entries) == entries
            assert_canonical(M)

        check(A.transpose(), m, n, [a[i * m + j] for j in range(m) for i in range(n)])
        if n * m:
            r = data.draw(st.sampled_from([d for d in range(1, n * m + 1) if n * m % d == 0]))
            c = n * m // r
        else:  # a matrix without entries keeps the row count it is given
            r, c = data.draw(st.sampled_from([(0, 0), (0, 3), (3, 0), (1, 0), (0, 1)]))
        check(A.reshape(r, c), r, c, a)

        k = data.draw(st.sampled_from([d for d in range(1, 5) if n % d == 0]))
        h = n // k
        check(A.side_by_side(k), h, k * m,
              [a[(t * h + i) * m + j] for i in range(h) for t in range(k) for j in range(m)])
        for t, B in enumerate(A.vsplit(k)):
            check(B, h, m, a[t * h * m : (t + 1) * h * m])
        k = data.draw(st.sampled_from([d for d in range(1, 5) if m % d == 0]))
        w = m // k
        for t, B in enumerate(hsplit(A, k)):
            check(B, n, w, [a[i * m + t * w + j] for i in range(n) for j in range(w)])

        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=6)) if n else []
        check(A.take_rows(rows), len(rows), m, [a[i * m + j] for i in rows for j in range(m)])
        cols = data.draw(st.lists(st.integers(0, m - 1), max_size=6)) if m else []
        check(A.take_cols(cols), n, len(cols), [a[i * m + j] for i in range(n) for j in cols])

        r, c, b = data.draw(matrix_data(f, shape=shapes))
        check(A.kron(Matrix(f, r, c, b)), n * r, m * c,
              [f.mul(a[i * m + j], b[k * c + l]) for i in range(n) for k in range(r)
               for j in range(m) for l in range(c)])

        more = [data.draw(matrix_data(f, cols=m)) for _ in range(data.draw(st.integers(0, 2)))]
        check(Matrix.vcat([A] + [Matrix(f, *x) for x in more]), n + sum(x[0] for x in more), m,
              a + [e for x in more for e in x[2]])
        more = [data.draw(matrix_data(f, rows=n)) for _ in range(data.draw(st.integers(0, 2)))]
        blocks = [(m, a)] + [(x[1], x[2]) for x in more]
        check(Matrix.hcat([A] + [Matrix(f, *x) for x in more]), n, sum(bc for bc, _ in blocks),
              [e for i in range(n) for bc, be in blocks for e in be[i * bc : (i + 1) * bc]])
        more = [data.draw(matrix_data(f, shape=shapes)) for _ in range(data.draw(st.integers(0, 2)))]
        diag = [(n, m, a)] + more
        width = sum(x[1] for x in diag)
        dense = []
        c0 = 0
        for br, bc, be in diag:
            for i in range(br):
                dense += [f.zero] * c0 + be[i * bc : (i + 1) * bc] + [f.zero] * (width - c0 - bc)
            c0 += bc
        check(Matrix.block_diagonal(f, [Matrix(f, *x) for x in diag]), sum(x[0] for x in diag), width, dense)

        terms = [(data.draw(elements(f)), data.draw(matrix_data(f, rows=n, cols=m))[2])
                 for _ in range(data.draw(st.integers(0, 3)))]
        acc = [f.zero] * (n * m)
        for coef, be in terms:
            acc = ref_add(f, acc, ref_scale(f, coef, be))
        check(Matrix.linear_combination(f, n, m, [(coef, Matrix(f, n, m, be)) for coef, be in terms]), n, m, acc)


def assert_canonical(M):
    """M's stored rows: strictly increasing columns, no stored zero, values in lowest terms."""
    f = M.field
    assert type(M.nonzeros) is tuple and len(M.nonzeros) == M.rows
    values = []
    for r in M.nonzeros:
        if r is None:
            continue
        where, vals = r
        assert type(where) is tuple and type(vals) is tuple
        assert 0 < len(where) == len(vals)
        assert 0 <= where[0] and where[-1] < M.cols
        assert all(j < k for j, k in zip(where, where[1:]))
        assert all(type(x) is int and x for x in vals)
        values.extend(vals)
    if f == QQ:
        assert M.den > 0 and gcd(M.den, *values) == 1
    else:
        assert M.den == 1 and all(1 <= x < f.p for x in values)


# -- algebra and module routines, against the composites they replaced -----------------
# Algebra.products and right_mult_matrix cut each row of the table (or of X times
# it) into blocks as they read it; Module.regular transposes the blocks of the
# table's n^2 x n reshape; act_rows is one (R ⊗ I) · stack; _build_block_data acts
# by every non-idempotent generator at once.  Each result must be the matrix the
# old composite gave, stored the same way.


def zero_algebra(f):
    """The 0-dimensional algebra over f: no basis, a 0 x 0 table, no idempotents."""
    return Algebra(f, [], Matrix.zeros(f, 0, 0), Matrix.zeros(f, 1, 0), [])


# a generated algebra or one of its variants, or the 0-dimensional algebra
ALGEBRA_CASES = st.one_of(st.tuples(GENERATED, VARIANT),
                          st.tuples(st.just("zero"), st.sampled_from([QQ, PrimeField(2), PrimeField(7)])))
FUSED = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def fresh_algebra(case):
    """A newly built algebra for the case, with empty memos."""
    first, second = case
    if first == "zero":
        return zero_algebra(second)
    return variant(build(first), second)


@st.composite
def element_rows(draw, A, rows):
    """rows x dim A: random elements of A, each coordinate nonzero with probability about 1/3."""
    f = A.field
    value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)) if f == QQ else st.integers(0, f.p - 1)
    cells = st.one_of(st.just(0), st.just(0), value)
    return Matrix(f, rows, A.dim, [draw(cells) for _ in range(rows * A.dim)])


class TestFusedAgainstComposites:
    @FUSED
    @given(ALGEBRA_CASES, st.data())
    def test_products_are_the_composite(self, case, data):
        A = fresh_algebra(case)
        picks = [None] + [data.draw(element_rows(A, r)) for r in (0, data.draw(st.integers(1, 3)))]
        for X in picks:
            for Y in picks:
                assert stored(A.products(X, Y)) == stored(ref_products(A, X, Y))

    @FUSED
    @given(ALGEBRA_CASES, st.data())
    def test_right_mult_matrix_is_the_linear_combination(self, case, data):
        A = fresh_algebra(case)
        vecs = [A.unit, data.draw(element_rows(A, 1))] + [v for v, _ in A.idempotents]
        vecs += [A.basis_vec(i) for i in range(A.dim)]
        for v in vecs:
            R = A.right_mult_matrix(v)
            assert stored(R) == stored(ref_right_mult_matrix(A, v)) == stored(ref_right_mult_kron(A, v))

    @FUSED
    @given(ALGEBRA_CASES)
    def test_regular_module_is_the_stacked_left_multiplications(self, case):
        # from two copies of the algebra, so that neither stack is read from the other's memo
        X, ref = Module.regular(fresh_algebra(case)), ref_regular(fresh_algebra(case))
        assert stored(X.stack) == stored(ref.stack)

    @FUSED
    @given(ALGEBRA_CASES, st.data())
    def test_act_rows_is_the_reshaped_product(self, case, data):
        A = fresh_algebra(case)
        R = data.draw(element_rows(A, data.draw(st.integers(0, 3))))
        for X in pool(A):
            assert stored(X.act_rows(R)) == stored(ref_act_rows(X.stack, R, A.dim, X.dim))
            assert stored(X.act_rows(A.unit)) == stored(Matrix.identity(A.field, X.dim))

    @FUSED
    @given(st.tuples(GENERATED, VARIANT))
    def test_block_data_is_the_solved_and_the_per_generator_composite(self, case):
        A = fresh_algebra(case)
        for X in pool(A):
            if not X.dim:
                continue  # hom_basis reads no block data of a zero module
            sizes, T, Ti, conj = _build_block_data(X)
            for ref in (ref_block_data(X), ref_pivot_block_data(X)):
                assert sizes == ref[0] and len(conj) == len(ref[3])
                for M, N in zip((T, Ti) + conj, ref[1:3] + ref[3]):
                    assert stored(M) == stored(N)


# -- the Subspace coordinate routine -------------------------------------------------


class TestCoordinates:
    def test_coordinates_reproduce_image(self):
        S = Subspace.from_rows(QQ, 3, [[2, 4, 0], [0, 0, 3]])
        img = Matrix.from_rows(QQ, [[1, 0], [2, 0], [Fraction(5, 7), 1]])
        C = S.coordinates(img)
        assert S.inclusion() * C == img

    def test_vector_outside_raises(self):
        S = Subspace.from_rows(QQ, 3, [[1, 0, 0]])
        with pytest.raises(NotInSubspace):
            S.coordinates(column(QQ, [1, 1, 0]))

    def test_submodule_of_non_invariant_subspace(self):
        X = _non_invariant_example()
        reg, S = X
        with pytest.raises(InvalidModule):
            reg.submodule(S)

    def test_submodule_check_survives_optimize(self):
        code = textwrap.dedent(
            """
            import sys
            sys.path.insert(0, "tests")
            from test_matrix_storage import _non_invariant_example
            from strata.errors import InvalidModule
            reg, S = _non_invariant_example()
            try:
                reg.submodule(S)
            except InvalidModule:
                print("raised")
            """
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             cwd=_repo_root(), env=_src_env(), timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"


def _repo_root():
    import os

    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _src_env():
    import os

    env = dict(os.environ)
    src = os.path.join(_repo_root(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _non_invariant_example():
    """The regular module of the fork algebra and a basis line it does not preserve."""
    A = load_spec_file(corpus_path("fork")).algebra
    reg = Module.regular(A)
    for i in range(A.dim):
        S = Subspace.row_space(A.basis_vec(i))
        if invariant_closure(reg, S).dim > 1:
            return reg, S
    raise AssertionError("every basis line is invariant")


# -- caches ----------------------------------------------------------------------------


class TestExtCache:
    def test_reused_ids_do_not_alias(self):
        # X's Ext cache once held ("ext", id(Y), n) without holding Y: a new Y at a
        # dead Y's address got the dead Y's answer.  Modules are kept by their
        # algebra, one per stack, so each round builds X and its target over a
        # freshly loaded copy of the algebra: every round makes new objects, and
        # dead rounds' addresses are handed out again.
        A = entry("sl2-block").algebra
        X0 = simple(A, "1")
        templates = [projective(A, "1"), simple(A, "2")]
        truth = [ext_dim(X0, T, 1) for T in templates]
        assert truth[0] != truth[1]
        seen, reused = set(), 0
        for k in range(600):
            B = load_spec_file(corpus_path("sl2-block")).algebra
            T = templates[k % 2]
            X, Y = Module(B, X0.dim, X0.stack), Module(B, T.dim, T.stack)
            assert ext_dim(X, Y, 1) == truth[k % 2]
            reused += id(Y) in seen
            seen.add(id(Y))
            del B, X, Y
        assert reused  # some new target sat at a dead target's address

    @given(st.sampled_from(("fork", "sl2-block", "ext2-chain")), st.data())
    @settings(max_examples=30, deadline=None)
    def test_cached_equals_fresh(self, name, data):
        A = entry(name).algebra
        pool = [m for lab in A.labels for m in (simple(A, lab), projective(A, lab))]
        X = data.draw(st.sampled_from(pool))
        Y = data.draw(st.sampled_from(pool))
        n = data.draw(st.integers(0, 2))
        first = ext_dims_upto(X, Y, n)
        assert ext_dims_upto(X, Y, n) == first
        # equal stacks over one algebra are one module, so a fresh computation needs
        # a fresh copy of the algebra, with empty memos
        B = load_spec_file(corpus_path(name)).algebra
        assert ext_dims_upto(Module(B, X.dim, X.stack), Module(B, Y.dim, Y.stack), n) == first


def test_strat_datum_dies_with_its_algebra():
    spec = load_spec_file(corpus_path("fork"))
    A, poset = spec.algebra, spec.poset
    del spec
    sd = strat_datum(A, poset)
    assert strat_datum(A, poset) is sd
    ref = weakref.ref(A)
    del A, sd
    gc.collect()
    assert ref() is None


def test_identity_checks_independent_of_hash_seed():
    argv = ["--json", "idempotent", "src/strata/corpus/diamond.json", "--e", "#0,#1"]
    code = f"import sys; from strata.cli import main; sys.exit(main({argv!r}))"
    outs = []
    for seed in ("0", "2"):
        env = _src_env()
        env["PYTHONHASHSEED"] = seed
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=_repo_root(),
                             env=env, timeout=300)
        outs.append(run.stdout)
    assert outs[0] and outs[0] == outs[1]
