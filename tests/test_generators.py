"""Generators read off rad² and projective covers read off one elimination,
against the closure search and the growing span they replaced.

Algebra.generators() returns the distinguished idempotents and the basis
vectors outside span(idempotents) + rad².  Since rad A is nilpotent, a
subalgebra C with C + rad² = A is A itself, so they generate A: the property
tests check that under Algebra._closure on generated rad² = 0 and truncated
path algebras over Q, F_2 and F_3 and on every kind of algebra derived from
them.  Everything that reads a generating set reads only the algebra it
generates, so no report may move when the old closure search
(oracles.ref_generators) supplies the generators instead.

homology._minimal_cover reads each label's lifts at the pivot columns of e·K's
image in K/rad K; the covers must equal the span grown one vector at a time
(oracles.ref_minimal_cover), vector for vector and in order.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strata.algebra import Algebra, compile_quiver
from strata.cli import main
from strata.corpus import corpus_path
from strata.homology import Resolution, _minimal_cover
from strata.kernel import Matrix, Subspace
from strata.modules import projective, simple
from strata.quiver import QuiverPresentation
from strata.strat import StandardRecord, strat_datum

from oracles import corpus, entry, ref_generators, ref_minimal_cover, rows_of, tensor_product
from test_regular_certificate import truncated_path_algebra
from test_theorem_oracles import SMALL_FIELDS, compile_rad_square_zero, rad_square_zero

SETTINGS = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
GENERATED = st.one_of(rad_square_zero(SMALL_FIELDS), truncated_path_algebra(SMALL_FIELDS))


def build(quiver):
    return compile_rad_square_zero(*quiver) if len(quiver) == 3 else compile_quiver(*quiver[:2])


def spans_the_algebra(A, gens):
    return A._closure(Subspace.row_space(gens)).dim == A.dim


def line_quiver(f):
    """The path algebra of 1 -> 2 (dim 3), a small tensor factor."""
    return compile_quiver(QuiverPresentation.make(["1", "2"], [("a", "1", "2")], [], 2), f)


def derived_algebras(A):
    """A's opposite, its corner and quotient at every nonzero subset sum, the closure
    of its idempotents and every other arrow, and its tensor product with a line."""
    out = [A.opposite()]
    n = len(A.idempotents)
    for r in range(1, n + 1):
        for picks in itertools.combinations(range(n), r):
            e = A.sum_idempotents(picks)
            out += [A.corner(e)[0], A.quotient_by_idempotent_ideal(e)[0]]
    f = A.field
    if f.char == 0 or f.char > A.dim:  # a closure re-checks its labels on the trace-form radical
        arrows = rows_of(A.generators())[len(A.idempotents):]
        out.append(A.subalgebra_closure(A.idempotents, arrows[::2])[0])
    if A.dim <= 12:
        out.append(tensor_product(A, line_quiver(f)))
    return out


class TestGenerators:
    @SETTINGS
    @given(GENERATED)
    def test_generators_span_every_derived_algebra(self, quiver):
        A = build(quiver)
        assert A.generators() == ref_generators(A)  # idempotents and arrows
        for B in [A] + derived_algebras(A):
            gens = B.generators()
            assert rows_of(gens)[: len(B.idempotents)] == [v for v, _ in B.idempotents]
            assert spans_the_algebra(B, gens)
            assert B.opposite().generators() == gens

    def test_quiver_specs_give_idempotents_and_arrows(self):
        quivers = [ent.algebra for ent in corpus().values() if ent.algebra.presentation is not None]
        assert len(quivers) == 8
        for A in quivers:
            arrows = {a.name for a in A.presentation.arrows}
            expected = [v for v, _ in A.idempotents]
            expected += [A.basis_vec(i) for i, name in enumerate(A.basis_names) if name in arrows]
            assert A.generators() == Matrix.vcat(expected) == ref_generators(A)

    def test_nonbasic_endo_reads_one_more_generator(self):
        # E45 = E35 * E43 is a product of generators, but E43 is outside the radical,
        # so E45 is outside span(idempotents) + rad² and is read as one too
        A = entry("nonbasic-endo").algebra
        assert A.generators().rows == 12 and ref_generators(A).rows == 11
        assert spans_the_algebra(A, A.generators())


# -- projective covers -------------------------------------------------------------------


def resolution_kernels(X, depth=3):
    """The kernel modules the resolution of X covers, layer by layer."""
    res = Resolution(X).extend_to(depth)
    out = []
    for P, D in zip(res.modules, res.diffs):
        ker = Subspace.row_space(D.kernel_basis().transpose())
        if ker.dim:
            out.append(P.submodule(ker))
    return out


def cover_pool(A):
    """P_j, L_j, every Delta_i and DeltaBar_i, and the resolution kernels of the L_j."""
    mods = [projective(A, j) for j in A.labels] + [simple(A, j) for j in A.labels]
    for i in A.labels:
        others = [j for j in A.labels if j != i]
        for r in range(len(others) + 1):
            for above in itertools.combinations(others, r):
                rec = StandardRecord(A, i, above)
                mods += [rec.delta, rec.delta_bar]
    for j in A.labels:
        mods += resolution_kernels(simple(A, j))
    return mods


class TestMinimalCover:
    @SETTINGS
    @given(GENERATED)
    def test_cover_equals_the_grown_span(self, quiver):
        A = build(quiver)
        for B in (A, A.opposite()):
            for K in cover_pool(B):
                assert _minimal_cover(B, K) == ref_minimal_cover(B, K)

    @pytest.mark.parametrize("name", ["nonbasic-endo", "dual-extension", "auslander-x3"])
    def test_cover_equals_the_grown_span_on_the_corpus(self, name):
        ent = entry(name)
        A = ent.algebra
        sd = strat_datum(A, ent.poset)
        mods = [projective(A, j) for j in A.labels] + [simple(A, j) for j in A.labels]
        mods += [sd.delta[i] for i in A.labels] + [sd.delta_bar[i] for i in A.labels]
        for j in A.labels:
            mods += resolution_kernels(simple(A, j))
        for K in mods:
            assert _minimal_cover(A, K) == ref_minimal_cover(A, K)


# -- reports do not depend on the generating set -------------------------------------------


GENERATOR_QUERIES = [
    ("check", corpus_path("nonbasic-endo"), "--all-orders"),
    ("check", corpus_path("sl2-tensor-square"), "--all-orders"),
    ("borel", corpus_path("dual-extension"), "--idempotent", "3"),
    ("borel", corpus_path("nonbasic-endo"), "--idempotent", "4"),
]


def _report(capsys, argv):
    code = main(["--json", *argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv", GENERATOR_QUERIES,
                         ids=lambda argv: " ".join(str(a).rsplit("/", 1)[-1] for a in argv))
def test_searched_generators_give_the_same_report(capsys, monkeypatch, argv):
    read = _report(capsys, argv)
    monkeypatch.setattr(Algebra, "generators", ref_generators)
    searched = _report(capsys, argv)
    assert read[0] == 0 and read[1]
    assert searched == read
