"""Quiver compilation and algebra transforms, against path-count oracles.

The oracle for path counts is an independent brute-force enumerator over
arrow words that only understands monomial relations; for the non-monomial
entries the expected dimensions are frozen from hand enumeration.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strata.algebra import compile_quiver, structure_constant_algebra
from strata.corpus import corpus_path
from strata.errors import (
    InvalidAlgebra,
    MalformedRelation,
    NotFiniteDimensionalWithinBound,
    NotIdempotent,
    NotIdempotentSum,
    NotUnital,
)
from strata.kernel.fields import QQ, PrimeField
from strata.kernel.matrix import Matrix
from strata.quiver import QuiverPresentation, compile_presentation
from strata.specfile import load_spec_file

from oracles import corpus, entry, ref_compile_presentation, ref_quiver_table, sparse_table, tensor_product


def product(A, i, j):
    """The coordinates of b_i * b_j: row i, block j of the table."""
    return A.table.row(i)[j * A.dim : (j + 1) * A.dim]


def brute_force_paths(vertices, arrows, forbidden, upto):
    """Count arrow words with no forbidden consecutive subword (monomial oracle).

    arrows: (name, src, tgt); forbidden: tuples of names in application order.
    """
    paths = [((), v, v) for v in vertices]
    count = len(paths)
    frontier = paths
    for _ in range(upto):
        new = []
        for word, src, tgt in frontier:
            for name, a, b in arrows:
                if a != tgt:
                    continue
                w = word + (name,)
                if any(w[len(w) - len(f):] == f for f in forbidden if len(f) <= len(w)):
                    continue
                new.append((w, src, b))
        count += len(new)
        frontier = new
    return count


class TestCompile:
    def test_single_arrow_dim3(self):
        pres = QuiverPresentation.make(["1", "2"], [("a", "1", "2")], [], 2)
        A = compile_quiver(pres, QQ)
        assert A.dim == 3
        assert set(A.basis_names) == {"e_1", "e_2", "a"}
        oracle = brute_force_paths(["1", "2"], [("a", "1", "2")], [], 2)
        assert A.dim == oracle

    def test_sl2_block_basis(self):
        A = entry("sl2-block").algebra
        assert A.dim == 5
        assert set(A.basis_names) == {"e_1", "e_2", "a", "b", "b*a"}
        # application-order forbidden word for a∘b is (b, a)
        oracle = brute_force_paths(
            ["1", "2"], [("a", "1", "2"), ("b", "2", "1")], [("b", "a")], 3
        )
        assert A.dim == oracle

    def test_diamond_dim9(self):
        assert entry("diamond").algebra.dim == 9  # 4 trivial + 4 arrows + 1 class

    def test_dual_extension_monomial_oracle(self):
        A = entry("dual-extension").algebra
        arrows = [("d", "2", "1"), ("g", "1", "2"), ("b", "1", "3"), ("a", "3", "1")]
        forbidden = [("d", "g"), ("a", "b"), ("a", "g", "d", "b")]
        oracle = brute_force_paths(["1", "2", "3"], arrows, forbidden, 7)
        assert A.dim == oracle == 21

    def test_loop_algebra(self):
        pres = QuiverPresentation.make(["1"], [("x", "1", "1")], [[(1, ("x", "x", "x"))]], 3)
        A = compile_quiver(pres, QQ)
        assert A.dim == 3
        assert A.radical().dim == 2

    def test_infinite_dimensional_detected(self):
        pres = QuiverPresentation.make(["1", "2"], [("a", "1", "2"), ("b", "2", "1")], [], 4)
        with pytest.raises(NotFiniteDimensionalWithinBound):
            compile_quiver(pres, QQ)

    def test_malformed_relation(self):
        pres = QuiverPresentation.make(["1", "2"], [("a", "1", "2")], [[(1, ("a", "a"))]], 3)
        with pytest.raises(MalformedRelation):
            compile_quiver(pres, QQ)

    def test_short_relation_rejected(self):
        pres = QuiverPresentation.make(["1", "2"], [("a", "1", "2")], [[(1, ("a",))]], 3)
        with pytest.raises(MalformedRelation):
            compile_quiver(pres, QQ)

    def test_compile_over_prime_field(self):
        pres = QuiverPresentation.make(
            ["1", "2"], [("a", "1", "2"), ("b", "2", "1")], [[(1, ("a", "b"))]], 3
        )
        A = compile_quiver(pres, PrimeField(7))
        assert A.dim == 5


class TestValidation:
    def test_full_battery_on_corpus(self):
        # validate() certifies associativity exactly at every dimension (up to 25 here)
        for name in corpus():
            entry(name).algebra.validate()

    def test_bad_labels_rejected(self):
        # two orthogonal idempotents with the same label but different simples
        with pytest.raises(InvalidAlgebra):
            structure_constant_algebra(
                QQ,
                ["u", "v"],
                [(0, 0, 0, 1), (1, 1, 1, 1)],
                [1, 1],
                [([1, 0], "1"), ([0, 1], "1")],
            )

    def test_nonprimitive_rejected(self):
        with pytest.raises(InvalidAlgebra):
            structure_constant_algebra(
                QQ,
                ["u", "v"],
                [(0, 0, 0, 1), (1, 1, 1, 1)],
                [1, 1],
                [([1, 1], "1")],
            )

    def test_matrix_algebra_two_idempotents_one_label(self):
        # 2x2 matrix units: E11, E12, E21, E22; both diagonal units share a label
        names = ["E11", "E12", "E21", "E22"]
        pos = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
        table = []
        for (a, b), i in pos.items():
            for (c, d), j in pos.items():
                if b == c:
                    table.append((i, j, pos[(a, d)], 1))
        A = structure_constant_algebra(
            QQ, names, table, [1, 0, 0, 1], [([1, 0, 0, 0], "1"), ([0, 0, 0, 1], "1")]
        )
        assert A.labels == ("1",)
        assert A.radical().dim == 0


class TestTransforms:
    def test_opposite_involution(self):
        A = entry("sl2-block").algebra
        assert A.opposite().opposite() is A
        B = A.opposite()
        assert product(B, 0, 1) == product(A, 1, 0)

    def test_opposite_of_commutative_unchanged(self):
        pres = QuiverPresentation.make(["1"], [("x", "1", "1")], [[(1, ("x", "x"))]], 2)
        A = compile_quiver(pres, QQ)
        assert A.opposite().table == A.table

    def test_opposite_transposes_single_arrow_table(self):
        pres = QuiverPresentation.make(["1", "2"], [("a", "1", "2")], [], 2)
        A = compile_quiver(pres, QQ)
        B = A.opposite()
        for i in range(A.dim):
            for j in range(A.dim):
                assert product(B, i, j) == product(A, j, i)

    def test_corner_at_unit_is_identity_transform(self):
        A = entry("sl2-block").algebra
        C, emb = A.corner(A.unit)
        assert C.dim == A.dim
        assert emb.rank() == A.dim

    def test_corner_sl2_at_1(self):
        A = entry("sl2-block").algebra
        C, _ = A.corner(A.idempotent_for_label("1"))
        assert C.dim == 2  # spans of e_1 and the cycle through 2

    def test_corner_auslander(self):
        A = entry("auslander-x3").algebra
        C, _ = A.corner(A.idempotent_sum_for_labels(["1", "2"]))
        assert C.dim == 9

    def test_corner_span_oracle(self):
        A = entry("sl2-block").algebra
        e = A.idempotent_for_label("1")
        spanned = set()
        for i in range(A.dim):
            v = A.mult_vec(e, A.mult_vec(A.basis_vec(i), e))
            if not v.is_zero():
                spanned.add(v)
        C, _ = A.corner(e)
        assert C.dim == len(spanned)

    def test_quotient_at_zero_is_identity_transform(self):
        A = entry("sl2-block").algebra
        Q, proj = A.quotient_by_idempotent_ideal(Matrix.zeros(A.field, 1, A.dim))
        assert Q.dim == A.dim

    def test_quotient_dims(self):
        A = entry("auslander-x3").algebra
        Q, _ = A.quotient_by_idempotent_ideal(A.idempotent_sum_for_labels(["1", "2"]))
        assert Q.dim == 1 and Q.labels == ("3",)
        A2 = entry("sl2-block").algebra
        Q2, _ = A2.quotient_by_idempotent_ideal(A2.idempotent_for_label("1"))
        assert Q2.dim == 1 and Q2.labels == ("2",)

    def test_ideal_dim_partition(self):
        A = entry("diamond").algebra
        for labels in (["4"], ["3", "4"], ["1"]):
            e = A.idempotent_sum_for_labels(labels)
            J = A.two_sided_ideal(e)
            Q, _ = A.quotient_by_idempotent_ideal(e)
            assert J.dim + Q.dim == A.dim

    def test_not_subset_sum_rejected(self):
        A = entry("sl2-block").algebra
        half = tuple(QQ.coerce(x) * QQ.coerce("1/2") for x in A.unit.row(0))
        with pytest.raises(Exception):
            A.corner(half)
        bad = [QQ.zero] * A.dim
        bad[A.basis_names.index("b*a")] = QQ.one  # b*a is not idempotent
        with pytest.raises(Exception):
            A.subset_sum_decomposition(bad)

    def test_split_is_solved_once_and_refusals_repeat(self):
        A = load_spec_file(corpus_path("nonbasic-endo")).algebra  # a fresh algebra: its memo starts empty
        e = A.idempotent_sum_for_labels(["3"])
        picks = A.subset_sum_decomposition(e)
        assert [A.idempotents[k][1] for k in picks] == ["3", "3"]
        assert A.subset_sum_decomposition(e.row(0)) is picks  # memoised under the coerced e
        half = tuple(x / 2 for x in A.unit.row(0))
        e1 = A.idempotent_for_label("1")
        off = A.basis_vec(A.basis_names.index("E12"))  # e1 + E12 is idempotent, outside the span
        not_a_sum = e1 + off
        for _ in range(2):  # refusals are not memoised
            with pytest.raises(NotIdempotent):
                A.subset_sum_decomposition(half)
            with pytest.raises(NotIdempotentSum):
                A.subset_sum_decomposition(not_a_sum)
        assert not any(key[0] == "summands" and key[1] in (A.coerce_vec(half), not_a_sum) for key in A._derived)

    def test_closure_full_basis_gives_whole(self):
        A = entry("sl2-block").algebra
        idem = [(v, lab) for v, lab in A.idempotents]
        gens = [A.basis_vec(i) for i in range(A.dim)]
        B, emb = A.subalgebra_closure(idem, gens)
        assert B.dim == A.dim

    def test_closure_dual_extension_dim7(self):
        e = entry("dual-extension")
        idem, gens = e.subalgebras["borel"]
        B, _ = e.algebra.subalgebra_closure(idem, gens)
        assert B.dim == 7

    def test_closure_not_unital(self):
        A = entry("sl2-block").algebra
        idem = [(A.idempotent_for_label("1"), "1")]
        with pytest.raises(NotUnital):
            A.subalgebra_closure(idem, [])

    def test_closure_without_idempotents_refused(self):
        A = entry("sl2-block").algebra
        with pytest.raises(InvalidAlgebra, match="idempotent family"):
            A.subalgebra_closure([], [A.unit])

    def test_tensor_with_ground_field(self):
        A = entry("sl2-block").algebra
        K = structure_constant_algebra(QQ, ["e"], [(0, 0, 0, 1)], [1], [([1], "pt")])
        T = tensor_product(A, K)
        assert T.dim == A.dim
        assert len(T.labels) == len(A.labels)

    def test_tensor_dims_multiply(self):
        A = entry("sl2-block").algebra
        T = tensor_product(A, A)
        assert T.dim == 25
        assert len(T.labels) == 4

    def test_radical_semisimple_zero(self):
        K2 = structure_constant_algebra(
            QQ, ["u", "v"], [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1],
            [([1, 0], "1"), ([0, 1], "2")],
        )
        assert K2.radical().dim == 0

    def test_radical_sl2_dim3(self):
        assert entry("sl2-block").algebra.radical().dim == 3

    def test_trace_form_agrees_with_arrow_ideal(self):
        for name in ("sl2-block", "fork", "diamond", "ext2-chain"):
            A = entry(name).algebra
            assert A._trace_form_radical() == A.radical()


# -- the per-block elimination against the whole-ideal reference ----------------------


@st.composite
def presentations(draw):
    """(presentation, field): a random quiver on at most four vertices, cycles and
    loops allowed, with up to four relations of one to three terms, and sometimes
    every path of length L as a monomial relation besides; the terms of a relation
    share their endpoints but may differ in length (spread > 0)."""
    f = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(32003)]))
    n = draw(st.integers(1, 4))
    vertices = [str(v) for v in range(1, n + 1)]
    arrows = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), min_size=1, max_size=4))
    named = [(f"a{t}", s, e) for t, (s, e) in enumerate(arrows)]
    L = draw(st.integers(2, 3))
    words = [[a] for a in named]  # written order: words[k][0] is applied last
    candidates = []
    relations = []
    for length in range(2, L + 2):
        words = [[x] + w for w in words for x in named if x[1] == w[0][2]]
        candidates += words
        if length == L and draw(st.booleans()):
            # kill every path of length L, so that more draws are finite-dimensional
            relations = [[(1, tuple(a[0] for a in w))] for w in words]
    for _ in range(draw(st.integers(0, 4)) if candidates else 0):
        first = draw(st.sampled_from(candidates))
        same_ends = [w for w in candidates if (w[-1][1], w[0][2]) == (first[-1][1], first[0][2])]
        others = draw(st.lists(st.sampled_from(same_ends), max_size=2))
        terms = {tuple(a[0] for a in w): None for w in [first] + others}
        coeffs = st.sampled_from([1, -1, 2, 7, "1/2", "-3/2"])
        relations.append([(draw(coeffs), word) for word in terms])
    return QuiverPresentation.make(vertices, named, relations, L), f


def _compiled(compile_, pres, f):
    try:
        return compile_(pres, f)
    except NotFiniteDimensionalWithinBound as exc:
        return str(exc)


# a -> b -> c: each length-2 relation reaches length 3 only when extended on its
# one free side, after it (first) or before it (second)
_LINE = (["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])


class TestBlockElimination:
    @settings(max_examples=80, deadline=None)
    @given(presentations())
    @example((QuiverPresentation.make(*_LINE, [[(1, ("b", "a"))]], 3), QQ))
    @example((QuiverPresentation.make(*_LINE, [[(1, ("c", "b"))]], 3), PrimeField(7)))
    def test_matches_the_whole_ideal_elimination(self, case):
        pres, f = case
        got = _compiled(compile_presentation, pres, f)
        want = _compiled(ref_compile_presentation, pres, f)
        if isinstance(want, str):
            assert got == want  # the same message: the same first surviving path
            return
        (paths, ideal, reps, L_work), (ref_paths, ref_ideal, ref_reps, ref_L_work) = got, want
        assert [p.index for p in paths] == [p.index for p in ref_paths] and L_work == ref_L_work
        assert reps == ref_reps
        assert ideal.pivots == ref_ideal.pivots and ideal.basis == ref_ideal.basis
        assert sparse_table(compile_quiver(pres, f)) == ref_quiver_table(f, pres)

    def test_a_surviving_path_is_named(self):
        # x*x = x*x*x leaves every power of x alive; the first long path is named
        pres = QuiverPresentation.make(["1"], [("x", "1", "1")], [[(1, ("x", "x")), (-1, ("x", "x", "x"))]], 2)
        for compile_ in (compile_presentation, ref_compile_presentation):
            with pytest.raises(NotFiniteDimensionalWithinBound, match="path x\\*x of length 2 survives"):
                compile_(pres, QQ)
