"""Cross-cutting property suites over the corpus (hypothesis-driven where the
search space is worth sampling, exhaustive where it is small)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from strata.homology import ext_dim
from strata.modules import (
    Module,
    comp_mult,
    hom_basis,
    iso_test,
    projective,
    simple,
)
from strata.strat import YES, all_posets, strat_datum

from oracles import entry, hom_basis_plain

SMALL_NAMES = ("fork", "sl2-block", "ext2-chain")


def module_pool(name):
    A = entry(name).algebra
    mods = []
    for lab in A.labels:
        mods.append(simple(A, lab))
        mods.append(projective(A, lab))
    return mods


class TestHomProperties:
    @given(st.sampled_from(SMALL_NAMES), st.data())
    @settings(max_examples=25, deadline=None)
    def test_block_solver_matches_plain(self, name, data):
        pool = module_pool(name)
        X = data.draw(st.sampled_from(pool))
        Y = data.draw(st.sampled_from(pool))
        assert len(hom_basis(X, Y)) == len(hom_basis_plain(X, Y))

    @given(st.sampled_from(SMALL_NAMES), st.data())
    @settings(max_examples=15, deadline=None)
    def test_hom_additive_in_sums(self, name, data):
        pool = module_pool(name)
        X = data.draw(st.sampled_from(pool))
        Y = data.draw(st.sampled_from(pool))
        Z = data.draw(st.sampled_from(pool))
        S = Module.direct_sum([X, Y])
        assert len(hom_basis(S, Z)) == len(hom_basis(X, Z)) + len(hom_basis(Y, Z))

    @given(st.sampled_from(SMALL_NAMES), st.data())
    @settings(max_examples=15, deadline=None)
    def test_iso_symmetric_and_reflexive(self, name, data):
        pool = module_pool(name)
        X = data.draw(st.sampled_from(pool))
        Y = data.draw(st.sampled_from(pool))
        assert iso_test(X, X).kind == "iso"
        assert (iso_test(X, Y).kind == "iso") == (iso_test(Y, X).kind == "iso")


class TestCompMult:
    @given(st.sampled_from(SMALL_NAMES), st.data())
    @settings(max_examples=15, deadline=None)
    def test_additive_on_direct_sums(self, name, data):
        pool = module_pool(name)
        X = data.draw(st.sampled_from(pool))
        Y = data.draw(st.sampled_from(pool))
        S = Module.direct_sum([X, Y])
        for lab in S.algebra.labels:
            assert comp_mult(S, lab) == comp_mult(X, lab) + comp_mult(Y, lab)

    def test_additive_on_sub_quotient(self):
        # exactness bookkeeping: multiplicities add along submodule/quotient pairs
        A = entry("diamond").algebra
        P = projective(A, "1")
        rad = P.radical_subspace()
        sub = P.submodule(rad)
        quo = P.quotient(rad)
        for lab in A.labels:
            assert comp_mult(P, lab) == comp_mult(sub, lab) + comp_mult(quo, lab)


class TestExtProperties:
    @given(st.sampled_from(SMALL_NAMES), st.data())
    @settings(max_examples=10, deadline=None)
    def test_ext_additive_in_first_argument(self, name, data):
        pool = module_pool(name)
        X = data.draw(st.sampled_from(pool))
        Y = data.draw(st.sampled_from(pool))
        Z = data.draw(st.sampled_from(pool))
        S = Module.direct_sum([X, Y])
        for n in (0, 1, 2):
            assert ext_dim(S, Z, n) == ext_dim(X, Z, n) + ext_dim(Y, Z, n)

    def test_ext_zero_is_hom(self):
        for name in SMALL_NAMES:
            for X in module_pool(name):
                for Y in module_pool(name):
                    assert ext_dim(X, Y, 0) == len(hom_basis(X, Y))


class TestStandardFamilies:
    def test_proper_multiplicity_one_for_every_poset(self):
        # [DeltaBar_i : L_i] = 1 = [NablaBar_i : L_i] whatever the order
        A = entry("fork").algebra
        for poset in all_posets(A.labels):
            sd = strat_datum(A, poset)
            for i in A.labels:
                assert comp_mult(sd.delta_bar[i], i) == 1
                assert comp_mult(sd.nabla_bar[i], i) == 1

    def test_delta_bar_quotient_of_delta(self):
        for name in ("sl2-block", "diamond", "dual-extension"):
            ent = entry(name)
            sd = strat_datum(ent.algebra, ent.poset)
            for i in ent.algebra.labels:
                assert sd.delta_bar[i].dim <= sd.delta[i].dim
                assert sd.nabla_bar[i].dim <= sd.nabla[i].dim

    def test_essential_order_coarser_when_stratifying(self):
        for name in ("fork", "fork-refined", "diamond", "sl2-block", "auslander-x3"):
            ent = entry(name)
            sd = strat_datum(ent.algebra, ent.poset)
            if sd.left_stratified()[0] == YES:
                assert ent.poset.refines(sd.essential_order())

    def test_support_consistency(self):
        from strata.compat import support

        for name in ("fork", "nonbasic-endo"):
            A = entry(name).algebra
            import itertools

            n = len(A.idempotents)
            for r in range(1, n + 1):
                for picks in itertools.combinations(range(n), r):
                    ev = A.sum_idempotents(picks)
                    via_action = support(A, ev)
                    via_labels = A.support_labels(ev)
                    assert via_action == via_labels
