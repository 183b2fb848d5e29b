"""Module theory: named modules, hom spaces, duality, Ext, iso testing."""

import pytest

from strata.errors import InvalidModule
from strata.functors import SubalgebraEmbedding
from strata.homology import ext_dim, ext_dims_upto, global_dimension, resolution
from strata.kernel.matrix import Matrix
from strata.modules import (
    Module,
    comp_mult,
    hom_basis,
    injective,
    iso_test,
    projective,
    simple,
    trace_from_projective,
    trace_submodule,
)

from oracles import entry, hom_basis_plain, verify_action


class TestNamedModules:
    def test_projective_dims_sl2(self):
        A = entry("sl2-block").algebra
        assert projective(A, "1").dim == 3
        assert projective(A, "2").dim == 2

    def test_projective_dims_diamond(self):
        A = entry("diamond").algebra
        assert projective(A, "1").dim == 4  # top 1, middle 2 and 4, socle 3
        assert comp_mult(projective(A, "1"), "2") == 1
        assert comp_mult(projective(A, "1"), "4") == 1
        assert comp_mult(projective(A, "1"), "3") == 1

    def test_semisimple_projective_equals_simple(self):
        from strata.algebra import structure_constant_algebra
        from strata.kernel.fields import QQ

        K2 = structure_constant_algebra(
            QQ, ["u", "v"], [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1],
            [([1, 0], "1"), ([0, 1], "2")],
        )
        for lab in K2.labels:
            assert projective(K2, lab).dim == simple(K2, lab).dim == injective(K2, lab).dim == 1

    def test_comp_mult_simples(self):
        A = entry("sl2-block").algebra
        assert comp_mult(projective(A, "1"), "1") == 2
        for i in A.labels:
            for j in A.labels:
                assert comp_mult(simple(A, i), j) == (1 if i == j else 0)

    def test_comp_mult_additive_on_sums(self):
        A = entry("fork").algebra
        X = Module.direct_sum([projective(A, "1"), simple(A, "2")])
        for lab in A.labels:
            assert comp_mult(X, lab) == comp_mult(projective(A, "1"), lab) + comp_mult(simple(A, "2"), lab)

    def test_nonbasic_simple_dims(self):
        A = entry("nonbasic-endo").algebra
        dims = {lab: simple(A, lab).dim for lab in A.labels}
        assert dims == {"1": 1, "2": 1, "3": 2, "4": 1}

    def test_socle_of_p1_sl2(self):
        A = entry("sl2-block").algebra
        P1 = projective(A, "1")
        soc = P1.socle_subspace()
        smod = P1.submodule(soc)
        assert iso_test(smod, simple(A, "1")).kind == "iso"


class TestActionInvariant:
    def test_constructed_modules_respect_structure_constants(self):
        for name in ("sl2-block", "fork", "nonbasic-endo"):
            A = entry(name).algebra
            verify_action(Module.regular(A))
            for lab in A.labels:
                verify_action(projective(A, lab))
                verify_action(simple(A, lab))
                verify_action(injective(A, lab))

    def test_derived_modules_respect_structure_constants(self):
        ent = entry("diamond")
        from strata.strat import strat_datum

        sd = strat_datum(ent.algebra, ent.poset)
        for i in ent.algebra.labels:
            verify_action(sd.delta[i])
            verify_action(sd.nabla_bar[i])

    def test_module_json_round_trip(self):
        A = entry("sl2-block").algebra
        X = projective(A, "1")
        Y = Module.from_json(A, X.to_json())
        assert Y.dim == X.dim and Y.action == X.action

    def test_non_unital_modules_are_refused(self):
        # every basis element acting by zero is multiplicative but not unital; a user
        # module, its JSON form and a restriction along a corner embedding are checked
        A = entry("fork").algebra
        zero = Matrix.zeros(A.field, 1, 1)
        with pytest.raises(InvalidModule, match="unit"):
            Module.from_actions(A, 1, [zero] * A.dim)
        with pytest.raises(InvalidModule, match="unit"):
            Module(A, 1, Matrix.zeros(A.field, A.dim, 1))
        doc = {"dim": 1, "action": {name: zero.to_json() for name in A.basis_names}}
        with pytest.raises(InvalidModule, match="unit"):
            Module.from_json(A, doc)
        P = projective(A, "1")
        e = A.idempotent_for_label("1")
        assert P.e_part(e).dim < P.dim
        C, emb = A.corner(e)
        with pytest.raises(InvalidModule, match="unit"):
            P.restrict_along(emb, C)

    def test_certified_constructions_are_unital(self):
        A = entry("fork").algebra
        P = projective(A, "1")
        for X in (P.submodule(P.radical_subspace()), P.top(), P.dual()):
            assert X.act(X.algebra.unit) == Matrix.identity(A.field, X.dim)


class TestHom:
    def test_hom_contains_identity(self):
        A = entry("diamond").algebra
        X = projective(A, "1")
        homs = hom_basis(X, X)
        assert len(homs) >= 1

    def test_block_and_plain_agree(self):
        for name in ("sl2-block", "fork", "auslander-x3", "nonbasic-endo"):
            A = entry(name).algebra
            mods = [projective(A, A.labels[0]), simple(A, A.labels[-1])]
            for X in mods:
                for Y in mods:
                    assert len(hom_basis(X, Y)) == len(hom_basis_plain(X, Y))

    def test_hom_intertwines(self):
        A = entry("auslander-x3").algebra
        X, Y = projective(A, "2"), projective(A, "1")
        for h in hom_basis(X, Y):
            for i in range(A.dim):
                assert h * X.action[i] == Y.action[i] * h

    def test_trace_from_projective_matches_hom_trace(self):
        A = entry("diamond").algebra
        Y = projective(A, "1")
        for lab in A.labels:
            t1 = trace_from_projective(lab, Y)
            t2 = trace_submodule(projective(A, lab), Y)
            assert t1 == t2


class TestDuality:
    def test_dual_dims_and_involution(self):
        A = entry("fork").algebra
        for lab in A.labels:
            X = projective(A, lab)
            D = X.dual()
            assert D.dim == X.dim
            assert D.algebra is A.opposite()
            assert iso_test(D.dual(), X).kind == "iso"

    def test_dual_of_simple_is_simple_same_label(self):
        A = entry("auslander-x3").algebra
        for lab in A.labels:
            DS = simple(A, lab).dual()
            assert iso_test(DS, simple(A.opposite(), lab)).kind == "iso"

    def test_dual_projective_is_injective_over_opposite(self):
        A = entry("sl2-block").algebra
        for lab in A.labels:
            DP = projective(A, lab).dual()
            assert iso_test(DP, injective(A.opposite(), lab)).kind == "iso"


class TestIso:
    def test_self_iso_identity(self):
        A = entry("diamond").algebra
        X = projective(A, "1")
        v = iso_test(X, X)
        assert v.kind == "iso" and v.certificate.rank() == X.dim

    def test_simples_not_iso(self):
        A = entry("fork").algebra
        v = iso_test(simple(A, "1"), simple(A, "2"))
        assert v.kind == "not_iso"

    def test_same_dim_not_iso_witnessed(self):
        A = entry("sl2-block").algebra
        v = iso_test(simple(A, "1"), simple(A, "2"))
        assert v.kind == "not_iso" and v.witness

    def test_permuted_sum_iso(self):
        A = entry("fork").algebra
        X = Module.direct_sum([simple(A, "1"), projective(A, "2")])
        Y = Module.direct_sum([projective(A, "2"), simple(A, "1")])
        assert iso_test(X, Y).kind == "iso"


class TestExt:
    def test_ext_zero_equals_hom(self):
        A = entry("auslander-x3").algebra
        for i in A.labels:
            for j in A.labels:
                X, Y = simple(A, i), simple(A, j)
                assert ext_dim(X, Y, 0) == len(hom_basis(X, Y))

    def test_projectives_have_no_higher_ext(self):
        A = entry("diamond").algebra
        for i in A.labels:
            P = projective(A, i)
            for j in A.labels:
                assert ext_dims_upto(P, simple(A, j), 3)[1:] == [0, 0, 0]

    def test_ext1_counts_arrows_sl2(self):
        A = entry("sl2-block").algebra
        # one arrow 2 -> 1 gives Ext^1(L_2, L_1) = 1
        assert ext_dim(simple(A, "2"), simple(A, "1"), 1) == 1
        assert ext_dim(simple(A, "1"), simple(A, "2"), 1) == 1

    def test_ext2_witness(self):
        A = entry("ext2-chain").algebra
        assert ext_dim(simple(A, "1"), simple(A, "3"), 2) == 1

    def test_ext_duality_cross_check(self):
        # dim Ext^n(X, Y) = dim Ext^n over the opposite of the duals, swapped
        A = entry("sl2-block").algebra
        mods = [simple(A, "1"), simple(A, "2"), projective(A, "2")]
        for X in mods:
            for Y in mods:
                for n in range(3):
                    assert ext_dim(X, Y, n) == ext_dim(Y.dual(), X.dual(), n)

    def test_resolution_is_exact_and_minimal(self):
        A = entry("auslander-x3").algebra
        L = simple(A, "1")
        res = resolution(L).extend_to(3)
        for n in range(1, min(3, len(res.layers))):
            D1 = res.diffs[n]
            D0 = res.diffs[n - 1]
            assert (D0 * D1).is_zero()
            assert D0.kernel_basis().cols == D1.rank()

    def test_global_dimensions(self):
        assert global_dimension(entry("sl2-block").algebra) == 2
        assert global_dimension(entry("auslander-x3").algebra) == 2
        assert global_dimension(entry("ext2-chain").algebra) == 2
        from strata.algebra import compile_quiver
        from strata.kernel.fields import QQ
        from strata.quiver import QuiverPresentation

        loop = compile_quiver(
            QuiverPresentation.make(["1"], [("x", "1", "1")], [[(1, ("x", "x"))]], 2), QQ
        )
        assert global_dimension(loop) is None  # infinite


class TestInduction:
    def test_induction_along_identity(self):
        A = entry("sl2-block").algebra
        idem = [(v, lab) for v, lab in A.idempotents]
        B, emb = A.subalgebra_closure(idem, [A.basis_vec(i) for i in range(A.dim)])
        sub = SubalgebraEmbedding(B, A, emb)
        X = projective(A, "1").restrict_along(emb, B)
        ind, _ = sub.induce(X)
        assert iso_test(ind, projective(A, "1")).kind == "iso"

    def test_induction_exactness_verdicts(self):
        e = entry("dual-extension")
        idem, gens = e.subalgebras["borel"]
        B, emb = e.algebra.subalgebra_closure(idem, gens)
        sub = SubalgebraEmbedding(B, e.algebra, emb)
        ok, section = sub.induction_is_exact()
        assert ok and section is not None

    def test_broken_generator_fails_axiom3(self):
        # dropping the composite generator changes the induced dimensions
        e = entry("dual-extension")
        A = e.algebra
        idem, gens = e.subalgebras["borel"]
        B, emb = A.subalgebra_closure(idem, gens[:2])  # drop b∘d
        assert B.dim == 5
        from strata.borel import BorelEmbedding, check_exact_borel

        bemb = BorelEmbedding(A, e.poset, B, emb)
        rep = check_exact_borel(bemb)
        assert not rep.is_exact_borel
        # the induced module at label 2 has dimension 6, not dim Delta_2 = 2
        assert rep.axiom3["2"] == "not_iso"
