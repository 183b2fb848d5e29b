"""Compatibility battery: supports, the six conditions, chains, identities."""

import itertools

import pytest

import strata.compat
from strata.acceptance import run_all
from strata.compat import (
    build_stratification_chain,
    compatibility_battery,
    identity_checks,
    support,
)
from strata.corpus import corpus_path
from strata.errors import InvariantViolation
from strata.kernel import Matrix
from strata.specfile import load_spec_file
from strata.strat import NO, YES, strat_datum

from oracles import entry


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
        one_minus = A.unit - e
        assert support(A, e) == ("1",)
        assert support(A, one_minus) == ("1",)


class TestBattery:
    def test_trivial_full_idempotent(self):
        ent = entry("diamond")
        rep = compatibility_battery(ent.algebra, ent.poset, ent.algebra.unit)
        assert all(rep.conds[k] == YES for k in range(1, 7))

    def test_zero_idempotent_trivial(self):
        ent = entry("sl2-block")
        A = ent.algebra
        zero = Matrix.zeros(A.field, 1, A.dim)
        rep = compatibility_battery(A, ent.poset, zero)
        assert all(v == YES for v in rep.conds.values())
        assert identity_checks(A, ent.poset, zero) == [("zero-idempotent", "trivial")]

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
            rep = compatibility_battery(ent.algebra, ent.poset, ev)
            for k, want in expect.items():
                assert rep.conds[k] == want, (name, k, rep.conds)
            assert rep.diagram_consistent

    def test_refined_fork_cond3_without_cond1(self):
        ent = entry("fork-refined")
        ev = ent.algebra.idempotent_sum_for_labels(["1", "2"])
        rep = compatibility_battery(ent.algebra, ent.poset, ev)
        assert rep.conds[3] == YES and rep.conds[1] == NO
        assert rep.conds[2] == YES  # chain exists despite the refined input order


    @pytest.mark.parametrize("name", ["fork", "sl2-block"])
    def test_batteries_over_both_sides_keep_their_filtrations_apart(self, name):
        # the datum over A^op is the opposite datum of A's batteries and the left
        # datum of A^op's own, and condition 5 of the one and condition 4 of the other
        # filter one module, A^op/A^op e A^op: top down by the proper standards, and
        # bottom up by the standards.  Each must find its own filtration there
        poset = entry(name).poset
        A = load_spec_file(corpus_path(name)).algebra
        B = load_spec_file(corpus_path(name)).algebra.opposite()  # another family
        n = len(A.idempotents)
        sums = [A.sum_idempotents(picks) for r in range(1, n + 1) for picks in itertools.combinations(range(n), r)]
        alone = [compatibility_battery(B, poset, e).to_json() for e in sums]
        for e, rep in zip(sums, alone):
            compatibility_battery(A, poset, e)
            assert compatibility_battery(A.opposite(), poset, e).to_json() == rep


class TestBatteryKept:
    def test_second_call_returns_the_same_report(self):
        ent = entry("fork")
        A = ent.algebra
        e = A.idempotent_for_label("1")
        rep = compatibility_battery(A, ent.poset, e)
        assert compatibility_battery(A, ent.poset, A.idempotent_sum_for_labels(["1"])) is rep
        assert rep is strat_datum(A, ent.poset)._derived[("battery", e)]

    def test_one_run_builds_each_battery_once(self, monkeypatch):
        # a run asks for 104 batteries, of which 100 are distinct: c01, c02 and
        # c09 (through inherited_borels) ask for batteries the c07 sweep holds,
        # and c07 asks again for c02's battery over the opposite of fork
        calls = []
        chain = strata.compat.build_stratification_chain

        def counted(*args):
            calls.append(args)
            return chain(*args)

        monkeypatch.setattr(strata.compat, "build_stratification_chain", counted)
        run_all()
        assert len(calls) == 100


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
        # the exact test rejects makes condition 2 NO, which the diagram refuses.  A
        # fresh algebra: the chain's layer verdicts are kept on its stratification
        # datum, so the patched test must not meet (or reach) the corpus caches
        ent = entry("fork")
        A = load_spec_file(corpus_path("fork")).algebra
        e2 = A.idempotent_for_label("2")
        monkeypatch.setattr(strata.compat, "iso_to_direct_power", lambda X, S, t: None)
        status, chain, witness = build_stratification_chain(A, ent.poset, e2)
        assert status == NO and chain is None and "is not Delta_" in witness
        with pytest.raises(InvariantViolation, match="implication diagram"):
            compatibility_battery(A, ent.poset, e2)


class TestIdentitySuite:
    def test_fork_identities_at_1(self):
        ent = entry("fork")
        A = ent.algebra
        checks = identity_checks(A, ent.poset, A.idempotent_for_label("1"))
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
        checks = identity_checks(A, ent.poset, ev)
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
