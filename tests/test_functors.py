"""Recollement functors and induction/restriction: identities and adjunctions."""

import pytest

from strata.errors import DimensionMismatch
from strata.functors import IdempotentContext, SubalgebraEmbedding
from strata.modules import Module, hom_basis, iso_test, projective, simple
from strata.strat import strat_datum

from oracles import entry


class TestCornerSide:
    def test_corner_apply_full_idempotent(self):
        A = entry("sl2-block").algebra
        ctx = IdempotentContext(A, A.unit)
        X = projective(A, "1")
        eX = ctx.corner_apply(X)
        assert eX.dim == X.dim

    def test_corner_simples(self):
        ent = entry("auslander-x3")
        A = ent.algebra
        ctx = IdempotentContext(A, A.idempotent_sum_for_labels(["1", "2"]))
        for lab in ("1", "2"):
            L = ctx.corner_apply(simple(A, lab))
            assert iso_test(L, simple(ctx.corner, lab)).kind == "iso"
        killed = ctx.corner_apply(simple(A, "3"))
        assert killed.dim == 0

    def test_corner_projective_identity(self):
        # P_i = Ae ⊗_{eAe} P_i^{eAe} for i in the support
        ent = entry("sl2-block")
        A = ent.algebra
        ctx = IdempotentContext(A, A.idempotent_for_label("2"))
        Pc = projective(ctx.corner, "2")
        lifted = ctx.corner_tensor(Pc)
        assert iso_test(lifted, projective(A, "2")).kind == "iso"

    def test_corner_hom_injective_identity(self):
        # I_i = Hom_{eAe}(eA, I_i^{eAe}) for i in the support
        ent = entry("sl2-block")
        A = ent.algebra
        from strata.modules import injective

        ctx = IdempotentContext(A, A.idempotent_for_label("2"))
        Ic = injective(ctx.corner, "2")
        lifted = ctx.corner_hom(Ic)
        assert iso_test(lifted, injective(A, "2")).kind == "iso"


class TestQuotientSide:
    def test_inflate_then_tensor_is_identity(self):
        ent = entry("diamond")
        A = ent.algebra
        ctx = IdempotentContext(A, A.idempotent_for_label("4"))
        for lab in ctx.quotient.labels:
            Xq = simple(ctx.quotient, lab)
            back = ctx.quotient_tensor(ctx.inflate(Xq))
            assert iso_test(back, Xq).kind == "iso"

    def test_quotient_tensor_of_standard(self):
        # (A/AeA) ⊗ Delta_i = Delta_i^{A/AeA} for i outside the support
        ent = entry("fork")
        A = ent.algebra
        sd = strat_datum(A, ent.poset)
        ctx = IdempotentContext(A, A.idempotent_for_label("1"))
        sq = strat_datum(ctx.quotient, ent.poset.restrict(["1'", "2"]))
        for lab in ("1'", "2"):
            assert iso_test(ctx.quotient_tensor(sd.delta[lab]), sq.delta[lab]).kind == "iso"


class TestAdjunctions:
    def test_all_six_on_sl2(self):
        ent = entry("sl2-block")
        A = ent.algebra
        sd = strat_datum(A, ent.poset)
        for lab in A.labels:
            ctx = IdempotentContext(A, A.idempotent_for_label(lab))
            ambient = [sd.delta[i] for i in A.labels] + [simple(A, i) for i in A.labels]
            for c_lab in ctx.corner.labels:
                Y = simple(ctx.corner, c_lab)
                for X in ambient:
                    assert len(hom_basis(ctx.corner_tensor(Y), X)) == len(
                        hom_basis(Y, ctx.corner_apply(X))
                    )
                    assert len(hom_basis(ctx.corner_apply(X), Y)) == len(
                        hom_basis(X, ctx.corner_hom(Y))
                    )
            if ctx.quotient is None:
                continue
            for q_lab in ctx.quotient.labels:
                Yq = simple(ctx.quotient, q_lab)
                for X in ambient:
                    assert len(hom_basis(ctx.quotient_tensor(X), Yq)) == len(
                        hom_basis(X, ctx.inflate(Yq))
                    )
                    assert len(hom_basis(ctx.inflate(Yq), X)) == len(
                        hom_basis(Yq, ctx.quotient_hom(X))
                    )

    def test_corner_adjunction_on_nonbasic(self):
        ent = entry("nonbasic-endo")
        A = ent.algebra
        ctx = IdempotentContext(A, A.idempotent_sum_for_labels(["3", "4"]))
        Y = simple(ctx.corner, "3")
        X = simple(A, "3")
        assert len(hom_basis(ctx.corner_apply(X), Y)) == len(hom_basis(X, ctx.corner_hom(Y)))


class TestExtTransfer:
    def test_corner_transfer_on_standards(self):
        # Ext^n agrees between A and eAe on standardly filtered modules with
        # supported labels, for compatible idempotents
        from strata.homology import ext_dim

        cases = [("sl2-block", ["2"]), ("diamond", ["3", "4"]), ("dual-extension", ["2", "3"])]
        for name, labels in cases:
            ent = entry(name)
            A = ent.algebra
            sd = strat_datum(A, ent.poset)
            ctx = IdempotentContext(A, A.idempotent_sum_for_labels(labels))
            for i in labels:
                for j in labels:
                    X, Y = sd.delta[i], sd.delta[j]
                    eX, eY = ctx.corner_apply(X), ctx.corner_apply(Y)
                    for n in range(0, 4):
                        assert ext_dim(X, Y, n) == ext_dim(eX, eY, n), (name, i, j, n)


class TestWrongAlgebra:
    """Each functor refuses a module over any algebra but the one it acts on.  A
    module over A^op has the dimensions of one over A, so only comparing the
    algebras tells them apart."""

    @staticmethod
    def context():
        A = entry("diamond").algebra
        ctx = IdempotentContext(A, A.idempotent_sum_for_labels(["3", "4"]))
        # none of the three is its own opposite
        assert A.opposite() != A and ctx.corner.opposite() != ctx.corner and ctx.quotient.opposite() != ctx.quotient
        B, emb = A.subalgebra_closure(list(A.idempotents), [])
        return A, ctx, SubalgebraEmbedding(B, A, emb)

    @pytest.mark.parametrize("functor", ["corner_apply", "quotient_tensor", "quotient_hom", "restrict"])
    def test_functors_on_modules_over_a(self, functor):
        A, ctx, sub = self.context()
        apply = getattr(sub if functor == "restrict" else ctx, functor)
        apply(projective(A, "1"))
        for X in (Module.regular(A).dual(), projective(A, "1").dual(), simple(ctx.corner, "4"), simple(sub.B, "1")):
            with pytest.raises(DimensionMismatch):
                apply(X)

    @pytest.mark.parametrize("functor", ["corner_tensor", "corner_hom"])
    def test_functors_on_modules_over_the_corner(self, functor):
        A, ctx, _ = self.context()
        apply = getattr(ctx, functor)
        apply(simple(ctx.corner, "4"))
        for X in (projective(A, "4"), Module.regular(ctx.corner).dual(), simple(ctx.quotient, "1")):
            with pytest.raises(DimensionMismatch):
                apply(X)

    def test_inflate(self):
        A, ctx, _ = self.context()
        ctx.inflate(simple(ctx.quotient, "1"))
        for X in (projective(A, "1"), Module.regular(ctx.quotient).dual(), simple(ctx.corner, "4")):
            with pytest.raises(DimensionMismatch):
                ctx.inflate(X)

    def test_induce(self):
        A, _, sub = self.context()
        sub.induce(simple(sub.B, "1"))
        for X in (projective(A, "1"), Module.regular(A).dual()):
            with pytest.raises(DimensionMismatch):
                sub.induce(X)
