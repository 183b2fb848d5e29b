"""Multiplicity matrices: recursion, row sums, existence, block structure."""

import pytest

from strata.errors import InputError, NotQuasiHereditary, UnsupportedField
from strata.vmult import (
    MultTables,
    block_structure_check,
    bruhat_poset,
    builtin_tables,
    det_is_one,
    ell,
    reference_ell_formula,
    regular_borel_existence,
    tables_from_algebra,
    v_matrix_from_algebra,
    v_matrix_from_tables,
)

from oracles import entry


class TestRecursion:
    def test_single_label(self):
        from strata.strat import LabelPoset

        t = MultTables.all_ones(LabelPoset.antichain(["x"]))
        V = v_matrix_from_tables(t)
        assert V.as_grid() == [[1]]

    def test_two_chain_collapses(self):
        from strata.strat import LabelPoset

        t = MultTables.all_ones(LabelPoset.chain(["e", "s"]))
        V = v_matrix_from_tables(t)
        assert V.as_grid() == [[1, 0], [0, 1]]

    def test_product_diamond(self):
        V = v_matrix_from_tables(builtin_tables("A1xA1"))
        assert V.rows["w0"] == {"w0": 1, "e": 2}
        assert ell(V) == {"e": 1, "s1": 1, "s2": 1, "w0": 3}
        assert det_is_one(V)
        assert V.first_subdiagonal() == [0, 0, 0]

    def test_extension_independence_asserted(self):
        # tables whose recursion output would depend on the extension are
        # rejected; the built-in ones are consistent
        v_matrix_from_tables(builtin_tables("A1xA1"))

    def test_tables_validation(self):
        from strata.strat import LabelPoset

        p = LabelPoset.chain(["a", "b"])
        bad = MultTables(p, {("a", "a"): 1, ("b", "b"): 1, ("a", "b"): 1}, {},
                         {("a", "a"): 1, ("b", "b"): 1})
        with pytest.raises(InputError):
            bad.validate()

    def test_json_round_trip(self):
        t = builtin_tables("A1xA1")
        t2 = MultTables.from_json(t.to_json())
        assert v_matrix_from_tables(t2).as_grid() == v_matrix_from_tables(t).as_grid()


class TestAlgebraPipeline:
    def test_sl2_identity(self):
        ent = entry("sl2-block")
        V = v_matrix_from_algebra(ent.algebra, ent.poset)
        assert V.as_grid() == [[1, 0], [0, 1]]
        assert ell(V) == {"1": 1, "2": 1}

    def test_tensor_square_matches_tables(self):
        ent = entry("sl2-tensor-square")
        Vt = v_matrix_from_algebra(ent.algebra, ent.poset)
        Vref = v_matrix_from_tables(builtin_tables("A1xA1"))
        m = {"(1,1)": "e", "(2,1)": "s1", "(1,2)": "s2", "(2,2)": "w0"}
        for i in Vt.labels:
            for j in Vt.labels:
                assert Vt.entry(i, j) == Vref.entry(m[i], m[j])

    def test_tensor_square_tables_all_ones(self):
        ent = entry("sl2-tensor-square")
        t = tables_from_algebra(ent.algebra, ent.poset)
        p = t.poset
        for i in p.labels:
            for j in p.labels:
                if p.leq(j, i):
                    assert t.std_comp.get((i, j)) == 1
                    assert t.costd_comp.get((i, j)) == 1
                    assert t.hom_std.get((j, i)) == 1

    def test_requires_quasi_hereditary(self):
        ent = entry("rad-square-zero")
        with pytest.raises(NotQuasiHereditary):
            v_matrix_from_algebra(ent.algebra, ent.poset)

    def test_requires_characteristic_zero(self):
        from strata.algebra import compile_quiver
        from strata.kernel.fields import PrimeField
        from strata.quiver import QuiverPresentation
        from strata.strat import LabelPoset

        A = compile_quiver(QuiverPresentation.make(["1", "2"], [("a", "1", "2")], [], 2),
                           PrimeField(101))
        with pytest.raises(UnsupportedField):
            v_matrix_from_algebra(A, LabelPoset.chain(["1", "2"]))

    def test_unitriangular_on_corpus(self):
        for name in ("fork", "diamond", "auslander-x3", "dual-extension", "nonbasic-endo"):
            ent = entry(name)
            V = v_matrix_from_algebra(ent.algebra, ent.poset)
            assert det_is_one(V)
            for i in V.labels:
                for j, val in V.rows[i].items():
                    assert val >= 0
                    assert ent.poset.leq(j, i) or val == 0


class TestExistence:
    def test_identity_all_ones(self):
        ent = entry("sl2-block")
        V = v_matrix_from_algebra(ent.algebra, ent.poset)
        assert regular_borel_existence(V, {"1": 1, "2": 1}) == {"1": 1, "2": 1}

    def test_product_basic_fails_backsubstitution(self):
        V = v_matrix_from_tables(builtin_tables("A1xA1"))
        assert regular_borel_existence(V, {l: 1 for l in V.labels}) is None
        # with the row-sum dimensions the representative is the one that works
        assert regular_borel_existence(V, ell(V)) == {l: 1 for l in V.labels}

    def test_row_sums_solve_to_ones(self):
        for name in ("diamond", "auslander-x3", "dual-extension"):
            ent = entry(name)
            V = v_matrix_from_algebra(ent.algebra, ent.poset)
            assert regular_borel_existence(V, ell(V)) == {l: 1 for l in V.labels}


class TestBlockStructure:
    def test_compatible_pairs(self):
        cases = [("sl2-block", ["2"]), ("diamond", ["4"]), ("diamond", ["3", "4"]),
                 ("auslander-x3", ["3"]), ("dual-extension", ["3"]),
                 ("dual-extension", ["2", "3"])]
        for name, labels in cases:
            ent = entry(name)
            ev = ent.algebra.idempotent_sum_for_labels(labels)
            out = block_structure_check(ent.algebra, ent.poset, ev)
            assert out["ok"], (name, labels, out)

    def test_incompatible_rejected(self):
        ent = entry("sl2-block")
        with pytest.raises(InputError):
            block_structure_check(ent.algebra, ent.poset,
                                  ent.algebra.idempotent_for_label("1"))


class TestRankTwoData:
    def test_bruhat_shapes(self):
        p, h = bruhat_poset("A1")
        assert len(p.labels) == 2 and max(h.values()) == 1
        p, h = bruhat_poset("A1xA1")
        assert len(p.labels) == 4 and max(h.values()) == 2
        assert not p.leq("s1", "s2") and not p.leq("s2", "s1")
        assert p.leq("e", "w0")
        for typ, n, hmax in (("A2", 6, 3), ("B2", 8, 4), ("G2", 12, 6)):
            p, h = bruhat_poset(typ)
            assert len(p.labels) == n and max(h.values()) == hmax

    def test_reference_formula(self):
        ref = reference_ell_formula("A2")
        assert ref["e"] == 1 and ref["s1"] == 1 and ref["s1s2"] == 3 and ref["s1s2s1"] == 9
        assert reference_ell_formula("B2")["stst"] == 27
        assert reference_ell_formula("G2")["ststst"] == 243
        with pytest.raises(InputError):
            reference_ell_formula("A1")

    def test_builtin_tables_guard(self):
        with pytest.raises(InputError):
            builtin_tables("A2")  # rank-two Weyl data must come from the user
