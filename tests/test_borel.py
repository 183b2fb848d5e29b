"""Exact Borel verification: axioms, regularity, normality, inheritance."""

from unittest import mock

import pytest

import strata.borel
from strata.acceptance import criterion_08, criterion_10
from strata.borel import (
    BorelEmbedding,
    basic_borel_criterion,
    check_exact_borel,
    check_regular,
    inherited_borels,
    normality_certificate,
    restriction_identity,
)
from strata.compat import support
from strata.corpus import entry as run_entry
from strata.errors import NotBasic, SupportNotCoideal
from strata.memo import Family
from strata.modules import comp_mult
from strata.strat import NO, YES, strat_datum

from oracles import entry


def dual_extension_embedding():
    e = entry("dual-extension")
    idem, gens = e.subalgebras["borel"]
    return e, BorelEmbedding.from_generators(e.algebra, e.poset, idem, gens)


def endo_embedding():
    e = entry("nonbasic-endo")
    idem, gens = e.subalgebras["borel"]
    return e, BorelEmbedding.from_generators(e.algebra, e.poset, idem, gens)


class TestAxioms:
    def test_dual_extension_all_pass(self):
        _, emb = dual_extension_embedding()
        rep = check_exact_borel(emb)
        assert rep.is_exact_borel
        assert rep.condition5 == YES

    def test_nonbasic_endo_all_pass(self):
        _, emb = endo_embedding()
        rep = check_exact_borel(emb)
        assert rep.is_exact_borel

    def test_semisimple_self_borel(self):
        from strata.algebra import structure_constant_algebra
        from strata.kernel.fields import QQ
        from strata.strat import LabelPoset

        K2 = structure_constant_algebra(
            QQ, ["u", "v"], [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1],
            [([1, 0], "1"), ([0, 1], "2")],
        )
        idem = [(v, lab) for v, lab in K2.idempotents]
        B, embm = K2.subalgebra_closure(idem, [])
        emb = BorelEmbedding(K2, LabelPoset.antichain(["1", "2"]), B, embm)
        rep = check_exact_borel(emb)
        assert rep.is_exact_borel
        reg = check_regular(emb, 3)
        assert reg["regular"] and reg["unconditional"]


class TestRegularity:
    def test_dual_extension_regular_unconditional(self):
        _, emb = dual_extension_embedding()
        reg = check_regular(emb, 5)
        assert reg["regular"] and reg["homological"] and reg["unconditional"]
        # the only nonzero first-Ext cells sit on the subalgebra's arrows
        cells = {tuple(key.split(",")): v for key, v in reg["cells"].items()}
        nonzero = {(i, j) for (i, j, n), v in cells.items()
                   if n == "1" and (v["dim_sub"] or v["dim_ambient"])}
        assert nonzero == {("1", "2"), ("1", "3"), ("2", "3")}

    def test_subalgebra_essential_order_coarser(self):
        # with the ordering condition, the subalgebra's essential order embeds
        # into the ambient one
        e, emb = dual_extension_embedding()
        essA = strat_datum(e.algebra, e.poset).essential_order()
        essB = strat_datum(emb.B, e.poset).essential_order()
        assert essA.refines(essB)


class TestVerdictsKept:
    def test_each_verdict_is_decided_once_per_embedding(self):
        _, emb = dual_extension_embedding()
        assert check_exact_borel(emb) is check_exact_borel(emb)
        assert check_regular(emb, 5) is check_regular(emb, 5)

    def test_c08_and_c10_compare_the_ambient_complexes_once(self):
        # one dual-extension embedding per run: c08's regularity serves both of
        # c10's inherited_borels calls
        run = Family()
        ambient = run_entry(run, "dual-extension").algebra
        entered = []
        complexes = strata.borel.comparison_complexes

        def record(emb, n_max, certs):
            if emb.A is ambient:
                entered.append(emb)
            return complexes(emb, n_max, certs)

        with mock.patch.object(strata.borel, "comparison_complexes", record):
            assert criterion_08(run).passed and criterion_10(run).passed
        assert len(entered) == 1


class TestRestrictionNormality:
    def test_restriction_identity(self):
        _, emb = dual_extension_embedding()
        assert all(v == YES for v in restriction_identity(emb).values())
        _, emb2 = endo_embedding()
        assert all(v == YES for v in restriction_identity(emb2).values())

    def test_normality_splitting(self):
        e, emb = dual_extension_embedding()
        nc = normality_certificate(emb)
        assert nc["status"] == YES
        assert nc["kernel_dim"] == e.algebra.dim - emb.B.dim == 14

    def test_normality_on_endo(self):
        e, emb = endo_embedding()
        nc = normality_certificate(emb)
        assert nc["status"] == YES
        assert nc["kernel_dim"] == 12 - 8

    def test_normality_self_embedding_trivial(self):
        # B = A: the projection is inverse to the inclusion and the kernel is 0
        from strata.algebra import structure_constant_algebra
        from strata.kernel.fields import QQ
        from strata.strat import LabelPoset

        K2 = structure_constant_algebra(
            QQ, ["u", "v"], [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1],
            [([1, 0], "1"), ([0, 1], "2")],
        )
        idem = [(v, lab) for v, lab in K2.idempotents]
        B, embm = K2.subalgebra_closure(idem, [K2.basis_vec(i) for i in range(K2.dim)])
        emb = BorelEmbedding(K2, LabelPoset.antichain(["1", "2"]), B, embm)
        nc = normality_certificate(emb)
        assert nc["status"] == YES and nc["kernel_dim"] == 0


class TestSupportLemmas:
    def test_supports_match_on_coideals(self):
        e, emb = dual_extension_embedding()
        for labels in (["3"], ["2", "3"], ["1", "2", "3"]):
            ev = emb.B.idempotent_sum_for_labels(labels)
            assert support(emb.B, ev) == support(e.algebra, emb.sub.image_vec(ev))

    def test_be_composition_factors_match_support(self):
        # [Be : L_j^B] != 0 exactly for j in the support, for coideal supports
        e, emb = dual_extension_embedding()
        B = emb.B
        from strata.kernel import Matrix, Subspace
        from strata.modules import Module

        for labels in (["3"], ["2", "3"]):
            ev = B.idempotent_sum_for_labels(labels)
            reg = Module.regular(B)
            rows = [B.mult_vec(B.basis_vec(i), ev) for i in range(B.dim)]
            Be = reg.submodule(Subspace.row_space(Matrix.vcat(rows)))
            for j in B.labels:
                assert (comp_mult(Be, j) != 0) == (j in labels)


class TestInherited:
    def test_dual_extension_label3(self):
        e, emb = dual_extension_embedding()
        out = inherited_borels(emb, emb.B.idempotent_sum_for_labels(["3"]))
        assert out["corner_borel"].is_exact_borel
        assert out["quotient_borel"].is_exact_borel
        assert out["A_BeB_equals_AeA"] and out["supports_match"]
        assert out["corner_regular"]["regular"] and out["quotient_regular"]["regular"]

    def test_non_coideal_raises(self):
        e, emb = dual_extension_embedding()
        with pytest.raises(SupportNotCoideal):
            inherited_borels(emb, emb.B.idempotent_for_label("1"))

    def test_endo_diagnostic_mode(self):
        e, emb = endo_embedding()
        out = inherited_borels(emb, emb.B.idempotent_for_label("1"), diagnostic=True)
        assert out["hypothesis"] == "bypassed"
        assert out["dim_B_quotient"] == 4
        assert out["dim_A_quotient"] == 2
        assert out["quotient_injective"] is False
        assert out["corner_injective"] is True  # the corner map is always injective

    def test_full_unit_degenerates(self):
        e, emb = dual_extension_embedding()
        out = inherited_borels(emb, emb.B.unit)
        assert out["corner_borel"].is_exact_borel
        assert out["quotient_injective"] is None  # no quotient side


class TestBasicCriterion:
    def test_sl2_passes(self):
        ent = entry("sl2-block")
        assert all(v == YES for v in basic_borel_criterion(ent.algebra, ent.poset).values())

    def test_diamond_fails(self):
        ent = entry("diamond")
        out = basic_borel_criterion(ent.algebra, ent.poset)
        assert out["4"] == NO

    def test_semisimple_trivial(self):
        from strata.algebra import structure_constant_algebra
        from strata.kernel.fields import QQ
        from strata.strat import LabelPoset

        K2 = structure_constant_algebra(
            QQ, ["u", "v"], [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1],
            [([1, 0], "1"), ([0, 1], "2")],
        )
        out = basic_borel_criterion(K2, LabelPoset.antichain(["1", "2"]))
        assert all(v == YES for v in out.values())

    def test_nonbasic_rejected(self):
        ent = entry("nonbasic-endo")
        with pytest.raises(NotBasic):
            basic_borel_criterion(ent.algebra, ent.poset)
