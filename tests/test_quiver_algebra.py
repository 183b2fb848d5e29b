"""Quiver compilation and algebra transforms, against path-count oracles.

The oracle for path counts is an independent brute-force enumerator over
arrow words that only understands monomial relations; for the non-monomial
entries the expected dimensions are frozen from hand enumeration.
"""

import pytest

from strata.algebra import compile_quiver, structure_constant_algebra
from strata.corpus import corpus, entry
from strata.errors import (
    InvalidAlgebra,
    MalformedRelation,
    NotFiniteDimensionalWithinBound,
    NotUnital,
)
from strata.kernel.fields import QQ, PrimeField
from strata.quiver import QuiverPresentation


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
            if any(x != 0 for x in v):
                spanned.add(tuple(v))
        C, _ = A.corner(e)
        assert C.dim == len(spanned)

    def test_quotient_at_zero_is_identity_transform(self):
        A = entry("sl2-block").algebra
        Q, proj = A.quotient_by_idempotent_ideal(A.zero_vec())
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
        half = tuple(QQ.coerce(x) * QQ.coerce("1/2") for x in A.unit)
        with pytest.raises(Exception):
            A.corner(half)
        bad = list(A.zero_vec())
        bad[A.basis_names.index("b*a")] = QQ.one  # b*a is not idempotent
        with pytest.raises(Exception):
            A.subset_sum_decomposition(bad)

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

    def test_tensor_with_ground_field(self):
        A = entry("sl2-block").algebra
        K = structure_constant_algebra(QQ, ["e"], [(0, 0, 0, 1)], [1], [([1], "pt")])
        T = A.tensor_product(K)
        assert T.dim == A.dim
        assert len(T.labels) == len(A.labels)

    def test_tensor_dims_multiply(self):
        A = entry("sl2-block").algebra
        T = A.tensor_product(A)
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
