"""Each module stores its action as one stacked matrix.

Module.stack is the (dim A * d) x d matrix whose row k*d + r is row r of the
action of the basis element b_k, and Module.action is cut from it.  Every
construction builds its stack from the stack it starts from, so two things are
checked here:

- for every kind of module -- P, L, Delta, DeltaBar, the regular module,
  submodules, quotients, duals, direct sums, restrictions, inflations, the six
  recollement functors and induction -- the stack is the cut action matrices
  stacked, and the action satisfies the structure constants;
- submodules, quotients, duals, corner restrictions, inflations and
  restrictions act per basis element as the per-basis constructions they
  replaced (tests/oracles.py) or as acting by the element itself, and a
  subspace that is not invariant is still refused.

Drawn on generated rad² = 0 and truncated path algebras over Q, F_2 and F_3,
their opposites, corners and quotients (the quotient by AeA = A is the zero
algebra, with an empty stack).
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strata.errors import InvalidModule
from strata.functors import IdempotentContext, SubalgebraEmbedding
from strata.kernel import Matrix, Subspace
from strata.modules import Module, projective, simple
from strata.strat import StandardRecord

from oracles import ref_action_on, ref_dual_action, ref_quotient_action, rows_of, verify_action
from test_generators import GENERATED, build

SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def subset_sums(A):
    n = len(A.idempotents)
    return [A.sum_idempotents(picks) for r in range(1, n + 1) for picks in itertools.combinations(range(n), r)]


def stacked(X):
    """X's stack has its shape and is its cut action matrices stacked top to bottom."""
    A = X.algebra
    if (X.stack.rows, X.stack.cols) != (A.dim * X.dim, X.dim) or len(X.action) != A.dim:
        return False
    return X.stack == (Matrix.vcat(X.action) if A.dim else Matrix.zeros(A.field, 0, X.dim))


def algebras(A, data):
    """A, its opposite, and the corner and quotient at a drawn subset sum; the
    quotient at the unit, the zero algebra, is always among them."""
    e = data.draw(st.sampled_from(subset_sums(A)))
    return [A, A.opposite(), A.corner(e)[0], A.quotient_by_idempotent_ideal(e)[0],
            A.quotient_by_idempotent_ideal(A.unit)[0]]


def named_modules(B, data):
    """The regular module, and P, L, Delta and DeltaBar of each label (Delta for a
    drawn set of labels above it)."""
    mods = [Module.regular(B)]
    for i in B.labels:
        above = data.draw(st.lists(st.sampled_from([j for j in B.labels if j != i] or [i]), unique=True))
        rec = StandardRecord(B, i, tuple(j for j in above if j != i))
        mods += [projective(B, i), simple(B, i), rec.delta, rec.delta_bar]
    return mods


class TestStoredForm:
    @SETTINGS
    @given(GENERATED, st.data())
    def test_constructions_stack_the_per_basis_actions(self, quiver, data):
        A = build(quiver)
        for B in algebras(A, data):
            mods = named_modules(B, data)
            assert all(stacked(X) for X in mods)
            X = data.draw(st.sampled_from(mods))
            rad = X.radical_subspace()
            sub = X.submodule(rad)
            quot = X.quotient(rad)
            dual = X.dual()
            for Y in (sub, quot, dual, Module.direct_sum([X, sub, quot])):
                assert stacked(Y)
                verify_action(Y)
            assert dual.algebra is B.opposite() and dual.dual().algebra is B and dual.dual().stack == X.stack
            if B.dim:  # the per-basis versions stack no matrices over the zero algebra
                assert sub.action == tuple(ref_action_on(X, rad))
                if rad.dim:
                    ref_quot, ref_proj = ref_quotient_action(X, rad)
                    assert quot.action == tuple(ref_quot) and rad.projection_matrix() == ref_proj
                assert dual.action == tuple(ref_dual_action(X))

    @SETTINGS
    @given(GENERATED, st.data())
    def test_functors_stack_the_per_basis_actions(self, quiver, data):
        A = build(quiver)
        e = data.draw(st.sampled_from(subset_sums(A)))
        ctx = IdempotentContext(A, e)
        X = data.draw(st.sampled_from(named_modules(A, data)))
        Y = ctx.corner_apply(X)
        assert Y.action == tuple(ref_action_on(X, X.e_part(ctx.e), ctx.corner_emb.transpose()))
        made = [Y, ctx.corner_tensor(Y), ctx.corner_hom(Y)]
        if ctx.quotient is not None:
            Xq = ctx.quotient_tensor(X)
            inflated = ctx.inflate(Xq)
            # b_k acts on the inflation as its image in A/AeA does on Xq
            images = rows_of(ctx.quotient_proj.transpose())
            assert inflated.action == tuple(Xq.act(b) for b in images)
            made += [Xq, inflated, ctx.quotient_hom(X)]
        f = A.field
        if f.char == 0 or f.char > A.dim:  # a closure re-checks its labels on the trace-form radical
            arrows = rows_of(A.generators())[len(A.idempotents):]
            B, emb = A.subalgebra_closure(A.idempotents, arrows[::2])
            R = X.restrict_along(emb, B)
            assert R.action == tuple(X.act(b) for b in rows_of(emb.transpose()))
            made += [R, SubalgebraEmbedding(B, A, emb).induce(R)[0]]
        for Z in made:
            assert stacked(Z)
            verify_action(Z)


class TestInvariance:
    @SETTINGS
    @given(GENERATED, st.data())
    def test_a_span_is_refused_exactly_when_the_per_basis_check_refuses_it(self, quiver, data):
        A = build(quiver)
        X = data.draw(st.sampled_from(named_modules(A, data)))
        vecs = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=X.dim, max_size=X.dim),
                                  min_size=1, max_size=2))
        S = Subspace.from_rows(A.field, X.dim, vecs)
        try:
            expected = ref_action_on(X, S)
        except InvalidModule:
            with pytest.raises(InvalidModule, match="invariant"):
                X.submodule(S)
            return
        assert X.submodule(S).action == tuple(expected)

    @SETTINGS
    @given(GENERATED)
    def test_the_span_of_the_unit_is_refused(self, quiver):
        # a·1 = a, so span(1) is invariant in the regular module only when A = k·1
        A = build(quiver)
        S = Subspace.row_space(A.unit)
        if A.dim > 1:
            with pytest.raises(InvalidModule, match="invariant"):
                Module.regular(A).submodule(S)
            with pytest.raises(InvalidModule, match="invariant"):
                Module.regular(A).action_on(S)
        else:
            assert Module.regular(A).submodule(S) is Module.regular(A)
