"""Objects that depend only on an ideal or an order are built once.

A/AeA depends on e only through the ideal AeA, which for a subset sum of the
distinguished idempotents depends only on its support.  So
Algebra.quotient_by_idempotent_ideal and modules.quotient_module are kept per
ideal: subset sums with one support share one object, and that object equals
what a fresh build from any of them gives.  The multiplicity tables of
(A, poset) are kept on its StratDatum, so a second V matrix solves no Hom
space.  The layers of the stratification chains of one (A, poset) are checked
once, on its StratDatum, and every chain is the one a fresh datum gives.
Criterion c13's adjunction loop builds each functor image once per
idempotent, and still makes the comparisons the unhoisted loop made.

Drawn on generated rad² = 0 and truncated path algebras over Q, F_2 and F_3
(and their opposites), and run on nonbasic-endo, whose idempotents #2 and #3
share the label 3.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strata.modules
import strata.vmult
from strata.acceptance import adjunction_dims
from strata.compat import build_stratification_chain
from strata.corpus import corpus_path
from strata.errors import NotQuasiHereditary, StrataError
from strata.kernel.fields import QQ
from strata.modules import Module, quotient_module
from strata.specfile import load_spec_file
from strata.strat import LabelPoset, strat_datum
from strata.vmult import tables_from_algebra, v_matrix_from_algebra

from oracles import entry, ref_adjunction_dims, ref_quotient_table, sparse_table
from test_generators import GENERATED, build
from test_regular_certificate import truncated_path_algebra
from test_theorem_oracles import rad_square_zero

SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def by_support(A):
    """The nonzero subset sums of A's distinguished idempotents, grouped by support."""
    groups = {}
    n = len(A.idempotents)
    for r in range(1, n + 1):
        for picks in itertools.combinations(range(n), r):
            e = A.sum_idempotents(picks)
            groups.setdefault(A.support_labels(e), []).append(e)
    return groups


def check_quotients_per_support(A):
    for sums in by_support(A).values():
        Q, proj = A.quotient_by_idempotent_ideal(sums[0])
        X = quotient_module(A, sums[0])
        for e in sums:
            J = A.two_sided_ideal(e)
            assert A.quotient_by_idempotent_ideal(e)[0] is Q
            fresh, fresh_proj = A._quotient_by_idempotent_ideal(e, J)
            assert (Q.table, Q.unit, Q.idempotents, Q.basis_names) == (
                fresh.table, fresh.unit, fresh.idempotents, fresh.basis_names)
            assert proj == fresh_proj
            assert sparse_table(Q) == ref_quotient_table(A, e)
            assert quotient_module(A, e) is X
            assert X.stack == Module.regular(A).quotient(J).stack


class TestQuotientsPerIdeal:
    @SETTINGS
    @given(GENERATED)
    def test_generated(self, quiver):
        A = build(quiver)
        check_quotients_per_support(A)
        check_quotients_per_support(A.opposite())

    def test_nonbasic_endo_shares_the_label_3_picks(self):
        A = entry("nonbasic-endo").algebra
        groups = by_support(A)
        assert len(groups) == 15 and sum(len(g) for g in groups.values()) == 31
        e2, e3 = A.idempotents[2][0], A.idempotents[3][0]
        assert A.idempotents[2][1] == A.idempotents[3][1] == "3"
        for e in (e3, e2 + e3):
            assert A.quotient_by_idempotent_ideal(e)[0] is A.quotient_by_idempotent_ideal(e2)[0]
            assert quotient_module(A, e) is quotient_module(A, e2)
        check_quotients_per_support(A)
        check_quotients_per_support(A.opposite())


def count_hom_solves(monkeypatch):
    """A list that gets one entry per hom_basis call, wherever it is called from."""
    calls = []
    real = strata.modules.hom_basis

    def counted(X, Y):
        calls.append(None)
        return real(X, Y)

    monkeypatch.setattr(strata.modules, "hom_basis", counted)
    monkeypatch.setattr(strata.vmult, "hom_basis", counted)
    return calls


def check_second_v_matrix_solves_nothing(A, poset):
    """Either both calls raise NotQuasiHereditary or both give one V; the second
    call makes no hom_basis call."""
    try:
        V = v_matrix_from_algebra(A, poset)
    except NotQuasiHereditary:
        V = None
    with pytest.MonkeyPatch.context() as mp:
        calls = count_hom_solves(mp)
        if V is None:
            with pytest.raises(NotQuasiHereditary):
                v_matrix_from_algebra(A, poset)
        else:
            assert v_matrix_from_algebra(A, poset) == V
            # an equal order, built again, reaches the same tables
            same_order = LabelPoset(poset.labels, poset.cover_pairs())
            assert tables_from_algebra(A, poset) is tables_from_algebra(A, same_order)
    assert calls == []


Q_GENERATED = st.one_of(rad_square_zero([QQ]), truncated_path_algebra([QQ]))


class TestTablesPerOrder:
    @SETTINGS
    @given(Q_GENERATED)
    def test_generated(self, quiver):
        A = build(quiver)
        check_second_v_matrix_solves_nothing(A, LabelPoset.chain(A.labels))

    @pytest.mark.parametrize("name", ["sl2-block", "fork", "diamond", "auslander-x3", "nonbasic-endo"])
    def test_corpus(self, name):
        ent = entry(name)
        check_second_v_matrix_solves_nothing(ent.algebra, ent.poset)


def chain_or_error(A, poset, e):
    try:
        return build_stratification_chain(A, poset, e)
    except StrataError as exc:
        return type(exc)


def check_chains_share_their_layers(A, load, poset):
    """Each subset sum's chain, built on A's datum after the others, is the chain a
    fresh datum (no layer checked yet) gives: the datum of load(), a second load
    of A, which is a new family."""
    shared = strat_datum(A, poset)
    for sums in by_support(A).values():
        for e in sums:
            got = chain_or_error(A, poset, e)
            assert got == chain_or_error(load(), poset, e)
            if isinstance(got, tuple) and got[1] is not None:
                # each layer's multiplicity fits the two ideals of its own chain
                chain, below = got[1], 0
                for J, (lab, t) in zip(chain.ideals, chain.layer_data):
                    assert t * shared.delta[lab].dim == J.dim - below
                    below = J.dim


class TestChainLayersPerOrder:
    @SETTINGS
    @given(GENERATED)
    def test_generated(self, quiver):
        A = build(quiver)
        check_chains_share_their_layers(A, lambda: build(quiver), LabelPoset.chain(A.labels))

    @pytest.mark.parametrize("name", ["fork", "diamond", "auslander-x3", "nonbasic-endo", "dual-extension"])
    def test_corpus(self, name):
        def load():
            return load_spec_file(corpus_path(name)).algebra

        check_chains_share_their_layers(load(), load, entry(name).poset)


@pytest.mark.parametrize("name", ["sl2-block", "fork", "auslander-x3"])
def test_adjunction_loop_compares_what_the_unhoisted_loop_compared(name):
    ent = entry(name)
    got = adjunction_dims(ent.algebra, ent.poset)
    assert got == ref_adjunction_dims(ent.algebra, ent.poset)
    assert got and all(lhs == rhs for *_, lhs, rhs in got)
