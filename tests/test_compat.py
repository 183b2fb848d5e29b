"""Compatibility battery: supports, the six conditions, chains, identities."""

import pytest

import strata.compat
from strata.compat import (
    build_stratification_chain,
    compatibility_battery,
    support,
)
from strata.corpus import entry
from strata.errors import InvariantViolation
from strata.strat import NO, YES, strat_datum


class TestSupport:
    def test_full_idempotent(self):
        A = entry("diamond").algebra
        assert support(A, A.unit) == A.labels

    def test_nonbasic_embedded_support(self):
        e = entry("nonbasic-endo")
        idem, gens = e.subalgebras["borel"]
        # the subalgebra's label-1 idempotent hits both simples 1 and 3 upstairs
        e1 = idem[0][0]
        assert support(e.algebra, e1) == ("1", "3")

    def test_matrix_algebra_complementary_support(self):
        from strata.algebra import structure_constant_algebra
        from strata.kernel.fields import QQ

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
        e = A.idempotents[0][0]
        one_minus = tuple(QQ.sub(u, v) for u, v in zip(A.unit, e))
        assert support(A, e) == ("1",)
        assert support(A, one_minus) == ("1",)


class TestBattery:
    def test_trivial_full_idempotent(self):
        ent = entry("diamond")
        rep = compatibility_battery(ent.algebra, ent.poset, ent.algebra.unit,
                                    with_identities=False)
        assert all(rep.conds[k] == YES for k in range(1, 7))

    def test_zero_idempotent_trivial(self):
        ent = entry("sl2-block")
        rep = compatibility_battery(ent.algebra, ent.poset, ent.algebra.zero_vec())
        assert all(v == YES for v in rep.conds.values())

    def test_witness_table(self):
        # auslander at {1,2}: the corner End(x^3 + x^2) carries the explicit
        # standard stratification 0 < Delta_2^2 < C (certificate-verified), so
        # cond6 holds even though cond4/cond5 fail
        cases = [
            ("sl2-block", ["1"], {4: NO, 5: NO, 6: YES}),
            ("fork", ["1"], {1: NO, 3: NO, 4: YES, 5: NO, 6: YES}),
            ("auslander-x3", ["1", "2"], {4: NO, 5: NO, 6: YES}),
            ("diamond", ["4"], {1: YES, 2: YES, 3: YES, 4: YES, 5: YES, 6: YES}),
        ]
        for name, labels, expect in cases:
            ent = entry(name)
            ev = ent.algebra.idempotent_sum_for_labels(labels)
            rep = compatibility_battery(ent.algebra, ent.poset, ev, with_identities=False)
            for k, want in expect.items():
                assert rep.conds[k] == want, (name, k, rep.conds)
            assert rep.diagram_consistent

    def test_refined_fork_cond3_without_cond1(self):
        ent = entry("fork-refined")
        ev = ent.algebra.idempotent_sum_for_labels(["1", "2"])
        rep = compatibility_battery(ent.algebra, ent.poset, ev, with_identities=False)
        assert rep.conds[3] == YES and rep.conds[1] == NO
        assert rep.conds[2] == YES  # chain exists despite the refined input order


class TestChain:
    def test_sl2_chain_at_2(self):
        ent = entry("sl2-block")
        A = ent.algebra
        status, chain, _ = build_stratification_chain(A, ent.poset, A.idempotent_for_label("2"))
        assert status == YES
        assert chain.split_index == 1
        assert [J.dim for J in chain.ideals] == [4, 5]
        assert chain.layer_data[0] == ("2", 2)  # Ae_2A is two copies of Delta_2

    def test_fork_chain_at_2(self):
        ent = entry("fork")
        A = ent.algebra
        status, chain, _ = build_stratification_chain(A, ent.poset, A.idempotent_for_label("2"))
        assert status == YES and chain.split_index == 1

    def test_full_chain_length(self):
        ent = entry("diamond")
        A = ent.algebra
        status, chain, _ = build_stratification_chain(A, ent.poset, A.unit)
        assert status == YES
        assert chain.split_index == len(A.labels)
        assert chain.ideals[-1].dim == A.dim

    def test_chain_refused_off_coideal(self):
        ent = entry("sl2-block")
        A = ent.algebra
        status, chain, witness = build_stratification_chain(
            A, ent.poset, A.idempotent_for_label("1")
        )
        assert status == NO and chain is None and witness

    def test_rejected_layer_breaks_the_diagram(self, monkeypatch):
        # at e_2 of fork the support is an essential coideal (condition 3), so a layer
        # the exact test rejects makes condition 2 NO, which the diagram refuses
        ent = entry("fork")
        A = ent.algebra
        e2 = A.idempotent_for_label("2")
        monkeypatch.setattr(strata.compat, "iso_to_direct_power", lambda X, S, t: None)
        status, chain, witness = build_stratification_chain(A, ent.poset, e2)
        assert status == NO and chain is None and "is not Delta_" in witness
        with pytest.raises(InvariantViolation, match="implication diagram"):
            compatibility_battery(A, ent.poset, e2, with_identities=False)


class TestIdentitySuite:
    def test_fork_identities_at_1(self):
        ent = entry("fork")
        A = ent.algebra
        checks = compatibility_battery(A, ent.poset, A.idempotent_for_label("1")).identity_checks
        named = dict(checks)
        # cond4 holds at e_1, so inflation and corner identities are live
        assert named["inflate(Delta_2^quot) = Delta_2"] == "iso"
        assert named["corner(Delta_1) = Delta_1^corner"] == "iso"
        assert named["corner(NablaBar_1) = NablaBar_1^corner"] == "iso"
        # cond5 fails, so the dual suite is skipped
        assert named["dual corner identities"] == "skipped"
        assert all(v in ("iso", "skipped") for v in named.values())

    def test_diamond_identities_at_coideal(self):
        ent = entry("diamond")
        A = ent.algebra
        ev = A.idempotent_sum_for_labels(["3", "4"])
        checks = compatibility_battery(A, ent.poset, ev).identity_checks
        assert all(v in ("iso", "skipped") for _, v in checks)
        assert any(v == "iso" for _, v in checks)

    def test_fork_proper_costandard_shrinks(self):
        # the quotient-side proper costandard at 2 is a proper submodule
        ent = entry("fork")
        A = ent.algebra
        sd = strat_datum(A, ent.poset)
        from strata.functors import IdempotentContext

        ctx = IdempotentContext(A, A.idempotent_for_label("1"))
        sub = ctx.quotient_hom(sd.nabla_bar["2"])
        assert sub.dim == 2 and sd.nabla_bar["2"].dim == 3
