"""Stratification layer: posets, standard families, filtrations, verdicts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata.algebra import Algebra, structure_constant_algebra
from strata.corpus import entry
from strata.errors import InvariantViolation, NotAntisymmetric, UnknownLabel
from strata.kernel.fields import QQ
from strata.modules import Module, comp_mult, simple
from strata.strat import (
    NO,
    YES,
    LabelPoset,
    StratDatum,
    all_posets,
    bgg_reciprocity_check,
    filtration_proper,
    filtration_standard,
    is_quasi_hereditary,
    is_split,
    poset_search,
    strat_datum,
)
from strata.specfile import load_spec
from oracles import corpus_doc
from test_theorem_oracles import compile_rad_square_zero, rad_square_zero, verdicts


class TestLabelPoset:
    def test_closure_and_antisymmetry(self):
        p = LabelPoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")
        with pytest.raises(NotAntisymmetric):
            LabelPoset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_coideal(self):
        p = LabelPoset(["1", "2", "3"], [("1", "2"), ("2", "3")])
        assert p.is_coideal({"3"})
        assert p.is_coideal({"2", "3"})
        assert not p.is_coideal({"2"})
        assert p.is_coideal(set())

    def test_coideal_walks_labels_in_poset_order(self, monkeypatch):
        # the labels in poset order, up to the first one whose up-set leaves the
        # subset: where the walk stops may not depend on the hash seed
        p = LabelPoset(["4", "1", "3", "2"], [("1", "2"), ("3", "2")])
        seen = []
        up_set = LabelPoset.up_set
        monkeypatch.setattr(LabelPoset, "up_set", lambda self, a: seen.append(a) or up_set(self, a))
        assert not p.is_coideal({"3", "1", "4"})
        assert seen == ["4", "1"]
        seen.clear()
        assert p.is_coideal({"2", "1", "4"})
        assert seen == ["4", "1", "2"]
        with pytest.raises(UnknownLabel):
            p.is_coideal({"1", "2", "9"})

    def test_linear_extension_with_deferral(self):
        p = LabelPoset(["1", "2", "3"], [("1", "2")])
        ext = p.linear_extension(put_last={"2"})
        assert ext.index("2") == 2

    def test_restrict_and_refines(self):
        p = LabelPoset(["1", "2", "3"], [("1", "2"), ("2", "3")])
        r = p.restrict(["1", "3"])
        assert r.leq("1", "3")
        chain = LabelPoset.chain(["1", "2", "3"])
        assert chain.refines(p)
        assert not p.refines(LabelPoset(["1", "2", "3"], [("3", "1")]))

    def test_poset_counts(self):
        assert len(all_posets(["a", "b"])) == 3
        assert len(all_posets(["a", "b", "c"])) == 19
        assert len(all_posets(["a", "b", "c", "d"])) == 219

    def test_poset_count_five(self):
        assert len(all_posets(list("abcde"))) == 4231

    def test_size_guard(self):
        from strata.errors import InputError

        with pytest.raises(InputError):
            all_posets(list("abcdef"))


class TestStandardObjects:
    def test_sl2_standard_dims(self):
        e = entry("sl2-block")
        sd = strat_datum(e.algebra, e.poset)
        assert sd.delta["1"].dim == 1 and sd.delta["2"].dim == 2

    def test_maximal_label_standard_is_projective(self):
        e = entry("diamond")
        sd = strat_datum(e.algebra, e.poset)
        assert sd.delta["4"].dim == 2  # = P_4 since 4 is maximal

    def test_fork_simple_standards(self):
        e = entry("fork")
        sd = strat_datum(e.algebra, e.poset)
        assert all(sd.delta[i].dim == 1 for i in e.algebra.labels)

    def test_proper_multiplicity_one_always(self):
        for name in ("fork", "sl2-block", "diamond", "auslander-x3", "dual-extension",
                     "nonbasic-endo"):
            ent = entry(name)
            sd = strat_datum(ent.algebra, ent.poset)
            for i in ent.algebra.labels:
                assert comp_mult(sd.delta_bar[i], i) == 1
                assert comp_mult(sd.nabla_bar[i], i) == 1

    def test_antichain_top_label_standard(self):
        # with a total order and i maximal, Delta_i = P_i (empty trace)
        e = entry("auslander-x3")
        from strata.modules import projective

        sd = strat_datum(e.algebra, e.poset)
        assert sd.delta["3"].dim == projective(e.algebra, "3").dim


class TestVerdicts:
    def test_corpus_verdicts(self):
        expectations = {
            "fork": YES, "fork-refined": YES, "diamond": YES, "sl2-block": YES,
            "auslander-x3": YES, "ext2-chain": YES, "dual-extension": YES,
            "nonbasic-endo": YES, "sl2-tensor-square": YES,
        }
        for name, want in expectations.items():
            ent = entry(name)
            assert is_quasi_hereditary(ent.algebra, ent.poset) == want, name

    def test_rad_square_zero_not_stratified(self):
        ent = entry("rad-square-zero")
        sd = strat_datum(ent.algebra, ent.poset)
        assert sd.left_stratified()[0] == NO

    def test_qh_implies_opposite_qh(self):
        for name in ("fork", "sl2-block", "diamond", "auslander-x3"):
            ent = entry(name)
            assert is_quasi_hereditary(ent.algebra.opposite(), ent.poset) == YES

    def test_semisimple_every_poset_works(self):
        from strata.algebra import structure_constant_algebra
        from strata.kernel.fields import QQ

        K2 = structure_constant_algebra(
            QQ, ["u", "v"], [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1],
            [([1, 0], "1"), ([0, 1], "2")],
        )
        for _, v in poset_search(K2):
            assert v["left"] == YES and v["right"] == YES and v["quasi_hereditary"] == YES

    def test_hereditary_single_arrow_poset_search(self):
        from strata.algebra import compile_quiver
        from strata.kernel.fields import QQ
        from strata.quiver import QuiverPresentation

        A = compile_quiver(QuiverPresentation.make(["1", "2"], [("a", "1", "2")], [], 2), QQ)
        results = poset_search(A)
        verdicts = {tuple(p.cover_pairs()): v["quasi_hereditary"] for p, v in results}
        assert verdicts[(("1", "2"),)] == YES  # simple standards
        assert verdicts[(("2", "1"),)] == YES  # projective standards
        assert verdicts[()] == NO  # antichain fails


class TestEssentialOrder:
    def test_fork_essential_is_input(self):
        ent = entry("fork")
        sd = strat_datum(ent.algebra, ent.poset)
        ess = sd.essential_order()
        assert set(ess.cover_pairs()) == {("1", "2"), ("1'", "2")}

    def test_sl2_essential(self):
        ent = entry("sl2-block")
        ess = strat_datum(ent.algebra, ent.poset).essential_order()
        assert ess.cover_pairs() == [("1", "2")]

    def test_refined_fork_essential_coarser(self):
        ent = entry("fork-refined")
        ess = strat_datum(ent.algebra, ent.poset).essential_order()
        assert not ess.leq("1", "1'")
        assert ent.poset.refines(ess)

    def test_semisimple_discrete(self):
        from strata.algebra import structure_constant_algebra
        from strata.kernel.fields import QQ

        K2 = structure_constant_algebra(
            QQ, ["u", "v"], [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1],
            [([1, 0], "1"), ([0, 1], "2")],
        )
        ess = strat_datum(K2, LabelPoset.chain(["1", "2"])).essential_order()
        assert ess.cover_pairs() == []


class TestFiltrations:
    def test_zero_module_filtered(self):
        ent = entry("sl2-block")
        sd = strat_datum(ent.algebra, ent.poset)
        res = filtration_standard(Module.zero(ent.algebra), sd.delta, ent.poset)
        assert res.status == YES and res.layers == []

    def test_projective_filtration_multiplicities(self):
        ent = entry("sl2-block")
        sd = strat_datum(ent.algebra, ent.poset)
        left, results = sd.left_stratified()
        assert left == YES
        # ker(P_1 -> Delta_1) is one copy of Delta_2
        assert results["1"].layers == [("2", 1)]
        assert results["2"].layers == []

    def test_certificate_chain_verifies(self):
        ent = entry("dual-extension")
        sd = strat_datum(ent.algebra, ent.poset)
        from strata.modules import projective

        P1 = projective(ent.algebra, "1")
        res = filtration_standard(P1, sd.delta, ent.poset)
        assert res.status == YES
        assert sum(m * sd.delta[lab].dim for lab, m in res.layers) == P1.dim
        # ascending chain of invariant subspaces
        dims = [s.dim for s in res.chain]
        assert dims == sorted(dims)

    def test_reverse_tie_break_same_multiplicities(self):
        ent = entry("fork")
        sd = strat_datum(ent.algebra, ent.poset)
        X = Module.direct_sum([sd.delta["1"], sd.delta["1'"], sd.delta["2"]])
        a = filtration_standard(X, sd.delta, ent.poset, tie_break="forward")
        b = filtration_standard(X, sd.delta, ent.poset, tie_break="reverse")
        assert a.status == b.status == YES
        for lab in ent.algebra.labels:
            assert a.multiplicity(lab) == b.multiplicity(lab)

    def test_standard_filtration_with_fat_standard(self):
        # a local algebra has Delta = P with [Delta : L] = 2; direct powers of
        # it must still be recognized (layer count divides by dim End)
        from strata.algebra import compile_quiver
        from strata.kernel.fields import QQ
        from strata.quiver import QuiverPresentation

        A = compile_quiver(
            QuiverPresentation.make(["1"], [("x", "1", "1")], [[(1, ("x", "x"))]], 2), QQ
        )
        poset = LabelPoset.antichain(["1"])
        sd = strat_datum(A, poset)
        assert sd.left_stratified()[0] == YES  # local algebras always are
        for copies in (1, 2):
            X = Module.direct_sum([sd.delta["1"]] * copies)
            res = filtration_standard(X, sd.delta, poset)
            assert res.status == YES
            assert res.multiplicity("1") == copies
        # the simple module is not filtered by the fat standard
        from strata.modules import simple as _simple

        res = filtration_standard(_simple(A, "1"), sd.delta, poset)
        assert res.status == NO

    def test_proper_filtration_with_self_extension(self):
        # the regular module of k[x]/(x^2) is properly filtered but its trace
        # peel would fail; the top-down greedy must succeed
        from strata.algebra import compile_quiver
        from strata.kernel.fields import QQ
        from strata.quiver import QuiverPresentation

        A = compile_quiver(
            QuiverPresentation.make(["1"], [("x", "1", "1")], [[(1, ("x", "x"))]], 2), QQ
        )
        poset = LabelPoset.antichain(["1"])
        sd = strat_datum(A, poset)
        reg = Module.regular(A)
        res = filtration_proper(reg, sd.delta_bar, poset)
        assert res.status == YES
        assert res.layers == [("1", 1), ("1", 1)]

    def test_greedy_matches_ext_oracle(self):
        for name in ("sl2-block", "fork", "diamond"):
            ent = entry(name)
            sd = strat_datum(ent.algebra, ent.poset)
            from strata.modules import projective

            for lab in ent.algebra.labels:
                X = projective(ent.algebra, lab)
                res = sd.delta_filtration(X)  # asserts agreement internally
                assert res.status == YES


class TestBGG:
    def test_reciprocity_on_stratified_corpus(self):
        for name in ("sl2-block", "fork", "diamond", "auslander-x3", "ext2-chain",
                     "dual-extension"):
            ent = entry(name)
            sd = strat_datum(ent.algebra, ent.poset)
            assert bgg_reciprocity_check(sd)

    def test_reciprocity_semisimple(self):
        from strata.algebra import structure_constant_algebra
        from strata.kernel.fields import QQ

        K2 = structure_constant_algebra(
            QQ, ["u", "v"], [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1],
            [([1, 0], "1"), ([0, 1], "2")],
        )
        sd = strat_datum(K2, LabelPoset.chain(["1", "2"]))
        assert bgg_reciprocity_check(sd)


# -- standard modules shared across orders -------------------------------------------


def _fresh_algebra(name, field):
    doc = corpus_doc(name)
    doc["field"] = field
    return load_spec(doc).algebra


def _forget_standard_records(A):
    """Drop the memoised standard modules of A and A^op, so the next datum builds its own."""
    for side in (A, A.opposite()):
        for key in [k for k in side._derived if k[0] == "delta"]:
            del side._derived[key]


def _datum_answers(sd):
    """What a StratDatum answers: verdicts, the action matrices of Delta, DeltaBar and
    NablaBar, and the kernel filtrations on both sides with their certificates."""
    left, results = sd.left_stratified()
    right, op_results = sd.right_stratified()
    per_label = {
        i: (sd.delta[i].action, sd.delta_bar[i].action, sd.nabla_bar[i].action,
            results[i].to_json(), results[i].certs, op_results[i].to_json(), op_results[i].certs)
        for i in sd.A.labels
    }
    return left, right, sd.quasi_hereditary(), per_label


def _memo_matches_fresh(shared, fresh, posets):
    """Datums on `shared` reuse each other's standard modules; each datum on `fresh`
    builds its own. Both must give the same answers, entry for entry."""
    for poset in posets:
        _forget_standard_records(fresh)
        assert _datum_answers(StratDatum(shared, poset)) == _datum_answers(StratDatum(fresh, poset)), poset


def _standard_record_keys(A):
    return {k for k in A._derived if k[0] == "delta"}


# every poset-search spec over Q and F_32003, and the 4-label sl2-tensor-square over Q
MEMO_CASES = [pytest.param(name, field, id=f"{name}-{fid}")
              for name in ("auslander-x3", "diamond", "dual-extension", "nonbasic-endo")
              for field, fid in (({"Fp": 32003}, "fp"), ("Q", "q"))]
MEMO_CASES.append(pytest.param("sl2-tensor-square", "Q", id="sl2-tensor-square-q"))


class TestStandardMemo:
    @pytest.mark.parametrize("name, field", MEMO_CASES)
    def test_every_order_matches_a_fresh_algebra(self, name, field):
        shared = _fresh_algebra(name, field)
        _memo_matches_fresh(shared, _fresh_algebra(name, field), all_posets(shared.labels))

    def test_poset_search_keeps_one_record_per_label_and_labels_above(self):
        A = _fresh_algebra("diamond", "Q")
        posets = all_posets(A.labels)
        poset_search(A)
        n = len(A.labels)
        want = {("delta", i, tuple(j for j in A.labels if not p.leq(j, i))) for p in posets for i in A.labels}
        assert len(want) <= n * 2 ** (n - 1)
        for side in (A, A.opposite()):
            assert _standard_record_keys(side) == want
            assert not [k for k in side._derived if k[0] == "strat"]

    def test_datums_share_the_record(self):
        A = _fresh_algebra("diamond", "Q")
        # 1 < 2 and the antichain agree on the labels not below 1: {2, 3, 4}
        a = StratDatum(A, LabelPoset(A.labels, [("1", "2")]))
        b = StratDatum(A, LabelPoset.antichain(A.labels))
        assert a.delta["1"] is b.delta["1"] and a.delta_bar["1"] is b.delta_bar["1"]
        assert a.delta_kernel_module("1")[0] is b.delta_kernel_module("1")[0]
        assert a.delta["2"] is not b.delta["2"]


@settings(max_examples=25, deadline=None)
@given(rad_square_zero(), st.data())
def test_memo_matches_fresh_on_random_orders(quiver, data):
    f, vertices, arrows = quiver
    posets = all_posets(vertices)
    picked = data.draw(st.lists(st.sampled_from(posets), min_size=1, max_size=6))
    _memo_matches_fresh(compile_rad_square_zero(f, vertices, arrows),
                        compile_rad_square_zero(f, vertices, arrows), picked)


# -- the dimension count that gates poset_search -------------------------------------


def _gaussian_rationals(monkeypatch):
    """Q(i) over Q, built without the primitivity check: End(L) = Q(i) is not Q, so the
    algebra is not split.  It is semisimple, so every side of its one order is stratified."""
    monkeypatch.setattr(Algebra, "_check_primitivity_and_labels", lambda self: None)
    return structure_constant_algebra(
        QQ, ["1", "i"], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, -1)], [1, 0], [([1, 0], "1")],
    )


class TestDimensionGate:
    @pytest.mark.parametrize("field", ["Q", {"Fp": 32003}], ids=["q", "fp"])
    @pytest.mark.parametrize("name", ["auslander-x3", "diamond", "dual-extension", "nonbasic-endo"])
    def test_gated_search_matches_the_peeled_verdicts(self, name, field):
        A = _fresh_algebra(name, field)
        gated = {poset: (row["left"], row["right"], row["quasi_hereditary"]) for poset, row in poset_search(A)}
        assert gated == verdicts(A)

    def test_an_order_that_meets_the_count_is_still_peeled(self):
        # rad^2 = 0 with a loop at 1 and arrows 1 -> 2, 1 -> 3, under 2 < 1: the right count
        # is dim A, yet no side is stratified, so equality must not answer YES.  Over A^op
        # the sides swap, which puts the count that is met on the left.
        A = compile_rad_square_zero(QQ, ["1", "2", "3"], [("1", "1"), ("1", "2"), ("1", "3")])
        poset = LabelPoset(A.labels, [("2", "1")])
        for side, counts in ((A, (5, 6)), (A.opposite(), (6, 5))):
            assert StratDatum(side, poset).dimension_counts() == counts and side.dim == 6
            assert dict(poset_search(side))[poset] == {"left": NO, "right": NO, "quasi_hereditary": NO}

    def test_search_counts_every_order_of_a_split_algebra(self, monkeypatch):
        A = _fresh_algebra("fork", "Q")
        seen = []
        counts = StratDatum.dimension_counts
        monkeypatch.setattr(StratDatum, "dimension_counts", lambda sd: seen.append(sd.poset) or counts(sd))
        poset_search(A)
        assert len(seen) == len(all_posets(A.labels)) == 19

    def test_search_skips_the_count_when_not_split(self, monkeypatch):
        A = _gaussian_rationals(monkeypatch)
        assert not is_split(A)
        sd = StratDatum(A, LabelPoset.antichain(A.labels))
        # the count misses dim A although both sides are stratified
        assert sd.dimension_counts() == (4, 4) and A.dim == 2
        assert sd.report_json()["left_standardly_stratified"] == YES

        def refuse(sd):
            raise AssertionError("dimension count used on an algebra that is not split")

        monkeypatch.setattr(StratDatum, "dimension_counts", refuse)
        [(_, row)] = poset_search(A)
        assert row == {"left": YES, "right": YES, "quasi_hereditary": YES}

    def test_report_refuses_a_yes_that_misses_the_count(self):
        # a freshly loaded algebra, so that the swap below reaches no cached datum
        A = _fresh_algebra("diamond", "Q")
        sd = StratDatum(A, entry("diamond").poset)
        assert sd.report_json()["left_standardly_stratified"] == YES
        # a wrong DeltaBar^op_2 (the simple L_2 over A^op, of smaller dimension) breaks the count
        assert sd.op.delta_bar["2"].dim > 1
        sd.op.delta_bar["2"] = simple(A.opposite(), "2")
        with pytest.raises(InvariantViolation, match="dimension count"):
            sd.report_json()
