"""Whole-matrix module constructions against the loop versions they replaced.

Each reference below is the earlier per-matrix implementation, kept verbatim
(apart from taking the module or the functor context as an argument): one product or one Fraction row
per action matrix.  Hypothesis draws modules over the light corpus specs, over
Q and F_32003, and submodules generated from random vectors; every rewritten
construction must give `==` matrices and `==` subspaces.  Hom spaces are
compared with the plain all-unknowns solver as spans, and the trace of a
projective, one product, with the invariant closure it is defined by.
"""

import gc
import subprocess
import sys
import textwrap
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strata.errors import InvalidModule, NotInSubspace
from strata.functors import IdempotentContext, SubalgebraEmbedding
from strata.homology import ext_dim, resolution
from strata.kernel import Matrix, Subspace
from strata.modules import Module, hom_basis, injective, left_ideal, projective, simple, trace_from_projective
from strata.specfile import load_spec
from strata.strat import LabelPoset, StandardRecord, StratDatum, filtration_standard

from base_change import base_changed
from oracles import (
    basis_left_mult,
    column,
    corpus_doc,
    entry,
    from_columns,
    hom_basis_plain,
    invariant_closure,
    rows_of,
    scale,
    trace_from_projective_closure,
    verify_action,
)

LIGHT_SPECS = ("auslander-x3", "diamond", "ext2-chain", "fork", "fork-refined", "rad-square-zero", "sl2-block")
# the copies in the basis of tests/base_change.py, whose subspaces are rarely coordinate ones
BASED = ("based fork", "based diamond", "based sl2-block")
FIELDS = ("Q", "Fp")

_ALGEBRAS = {}


def algebra(name, field):
    key = (name, field)
    if key not in _ALGEBRAS:
        if name.startswith("based "):
            _ALGEBRAS[key] = base_changed(algebra(name.split(" ", 1)[1], field))
        elif field == "Q":
            _ALGEBRAS[key] = entry(name).algebra
        else:
            doc = corpus_doc(name)
            doc["field"] = {"Fp": 32003}
            _ALGEBRAS[key] = load_spec(doc).algebra
    return _ALGEBRAS[key]


def fresh_algebra(name):
    """The corpus algebra over Q, built again so that no other test holds it."""
    return load_spec(corpus_doc(name)).algebra


def certificates(X, label):
    """D.stack -> the certificate for "Tr_{P_label}(X) = D^t?", for each family member D
    a filtration has asked X about."""
    return {k[2]: v for k, v in (X._derived or {}).items() if k[:2] == ("power", label)}


def pool(A):
    mods = [Module.regular(A)]
    for lab in A.labels:
        mods += [projective(A, lab), simple(A, lab), injective(A, lab)]
    return mods


# -- the loop versions -----------------------------------------------------------------


def ref_invariant_closure(X, rows):
    A = X.algebra
    span = Subspace.from_rows(A.field, X.dim, rows)
    # Rows of span.basis * M^T are the images M v of the basis vectors v.
    gens_t = [X.act(g).transpose() for g in rows_of(A.generators())]
    while True:
        stacked = span.basis
        for Mt in gens_t:
            stacked = stacked.vstack(span.basis * Mt)
        bigger = Subspace.row_space(stacked)
        if bigger.dim == span.dim:
            return span
        span = bigger


def ref_submodule(X, subspace):
    incl = subspace.inclusion()
    try:
        action = [subspace.coordinates(M * incl) for M in X.action]
    except NotInSubspace as exc:
        raise InvalidModule("subspace is not action-invariant") from exc
    return Module.from_actions(X.algebra, subspace.dim, action), incl


def ref_quotient(X, subspace):
    proj = subspace.projection_matrix()
    lift = subspace.lift_matrix()
    qdim = X.dim - subspace.dim
    action = [proj * M * lift for M in X.action]
    return Module.from_actions(X.algebra, qdim, action), proj


def ref_direct_sum(mods):
    A = mods[0].algebra
    f = A.field
    dim = sum(m.dim for m in mods)
    action = []
    for i in range(A.dim):
        off = 0
        big = [[f.zero] * dim for _ in range(dim)]
        for m in mods:
            M = m.action[i]
            for r in range(m.dim):
                row = M.row(r)
                for c in range(m.dim):
                    big[off + r][off + c] = row[c]
            off += m.dim
        action.append(Matrix.from_rows(f, big) if dim else Matrix.zeros(f, 0, 0))
    return Module.from_actions(A, dim, action, check_unit=False)


def ref_radical_subspace(X):
    A = X.algebra
    rad = A.radical()
    rows = []
    for i in range(rad.dim):
        M = X.act(rad.basis.take_rows([i]))
        rows.extend(M.col(j) for j in range(M.cols))
    return Subspace.from_rows(A.field, X.dim, rows)


def ref_socle_subspace(X):
    A = X.algebra
    rad = A.radical()
    if rad.dim == 0 or X.dim == 0:
        return Subspace.full(A.field, X.dim)
    stacked = None
    for i in range(rad.dim):
        M = X.act(rad.basis.take_rows([i]))
        stacked = M if stacked is None else stacked.vstack(M)
    K = stacked.kernel_basis()
    return Subspace.from_rows(A.field, X.dim, [K.col(j) for j in range(K.cols)])


def ref_summand(algebra, e_vec):
    reg = Module.regular(algebra)
    space = Subspace.row_space(algebra.right_mult_matrix(algebra.coerce_vec(e_vec)).transpose())
    return ref_submodule(reg, space)


def ref_induce(emb, X):
    A, B = emb.A, emb.B
    f = A.field
    nA, nX = A.dim, X.dim
    dim = nA * nX
    rows = []
    for g in rows_of(B.generators()):
        ig = emb.image_vec(g)
        right = A.right_mult_matrix(ig)
        actg = X.act(g)
        for i in range(nA):
            col_a = (right * A.basis_vec(i).transpose()).col(0)
            for j in range(nX):
                vec = [f.zero] * dim
                for k, c in enumerate(col_a):
                    if not f.is_zero(c):
                        vec[k * nX + j] = f.add(vec[k * nX + j], c)
                for l in range(nX):
                    c = actg[l, j]
                    if not f.is_zero(c):
                        vec[i * nX + l] = f.sub(vec[i * nX + l], c)
                rows.append(vec)
    rel = Subspace.from_rows(f, dim, rows)
    proj = rel.projection_matrix()
    lift = rel.lift_matrix()
    qdim = dim - rel.dim
    action = []
    for bidx in range(A.dim):
        lam = basis_left_mult(A, bidx)
        big = [[f.zero] * dim for _ in range(dim)]
        for i in range(nA):
            col = lam.col(i)
            for k, c in enumerate(col):
                if not f.is_zero(c):
                    for j in range(nX):
                        big[k * nX + j][i * nX + j] = c
        action.append(proj * Matrix.from_rows(f, big) * lift)
    ind = Module.from_actions(A, qdim, action)
    cols = []
    for j in range(nX):
        vec = [f.zero] * dim
        for k, c in enumerate(A.unit.row(0)):
            if not f.is_zero(c):
                vec[k * nX + j] = c
        cols.append((proj * column(f, vec)).col(0))
    insert = from_columns(f, cols, nrows=qdim)
    return ind, insert


def ref_corner_tensor(self, Y):
    """Ae ⊗_{eAe} Y as a module over A."""
    A, C = self.A, self.corner
    f = A.field
    ae = Subspace.row_space(A.right_mult_matrix(self.e).transpose())
    m = ae.dim
    ae_incl = ae.inclusion()
    nY = Y.dim
    dim = m * nY
    rows = []
    for c in rows_of(C.generators()):
        c_in_A = self.corner_emb * c.transpose()
        right = A.right_mult_matrix(c_in_A.transpose())
        actc = Y.act(c)
        # column i: coordinates of basis_i * c in Ae
        XC = ae.coordinates(right * ae_incl)
        for i in range(m):
            xc_coords = XC.col(i)
            for j in range(nY):
                vec = [f.zero] * dim
                for k, co in enumerate(xc_coords):
                    vec[k * nY + j] = f.add(vec[k * nY + j], co)
                for l in range(nY):
                    co = actc[l, j]
                    if not f.is_zero(co):
                        vec[i * nY + l] = f.sub(vec[i * nY + l], co)
                rows.append(vec)
    rel = Subspace.from_rows(f, dim, rows)
    proj = rel.projection_matrix()
    lift = rel.lift_matrix()
    qdim = dim - rel.dim
    action = []
    for bidx in range(A.dim):
        # left multiplication on A, in the coordinates of Ae
        L = ae.coordinates(basis_left_mult(A, bidx) * ae_incl)
        big = [[f.zero] * dim for _ in range(dim)]
        for i in range(m):
            for k, co in enumerate(L.col(i)):
                if not f.is_zero(co):
                    for j in range(nY):
                        big[k * nY + j][i * nY + j] = co
        action.append(proj * Matrix.from_rows(f, big) * lift)
    return Module.from_actions(A, qdim, action)

def ref_corner_hom(self, Y):
    """Hom_{eAe}(eA, Y) as a module over A."""
    A, C = self.A, self.corner
    f = A.field
    ea = Subspace.row_space(A.left_mult_matrix(self.e).transpose())
    m = ea.dim
    ea_incl = ea.inclusion()
    nY = Y.dim
    unknowns = nY * m  # f as nY x m matrix, column b = f(basis b)
    rows = []
    for c in rows_of(C.generators()):
        c_in_A = (self.corner_emb * c.transpose()).transpose()
        left = A.left_mult_matrix(c_in_A)
        actc = Y.act(c)
        # column b: coordinates of c * basis_b in eA
        CZ = ea.coordinates(left * ea_incl)
        for b in range(m):
            cz_coords = CZ.col(b)
            for i in range(nY):
                # f(c·z_b)_i - (c·f(z_b))_i = 0
                row = [f.zero] * unknowns
                for k, co in enumerate(cz_coords):
                    row[i * m + k] = f.add(row[i * m + k], co)
                for l in range(nY):
                    co = actc[i, l]
                    if not f.is_zero(co):
                        row[l * m + b] = f.sub(row[l * m + b], co)
                rows.append(row)
    K = Matrix.from_rows(f, rows).kernel_basis() if rows else Matrix.identity(f, unknowns)
    sol_space = Subspace.row_space(K.transpose())
    sol_incl = sol_space.inclusion()
    action = []
    for bidx in range(A.dim):
        # (a·f)(z_b) = f(z_b·a) = sum_k ZA[k, b] f(z_k): linear in f, block diagonal in i
        ZA = ea.coordinates(A.right_mult_matrix(A.basis_vec(bidx)) * ea_incl)
        T = [[f.zero] * unknowns for _ in range(unknowns)]
        for b in range(m):
            for k, co in enumerate(ZA.col(b)):
                if not f.is_zero(co):
                    for i in range(nY):
                        T[i * m + b][i * m + k] = co
        action.append(sol_space.coordinates(Matrix.from_rows(f, T) * sol_incl))
    return Module.from_actions(A, sol_space.dim, action)


# -- strategies ------------------------------------------------------------------------

SETTINGS = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def module_and_vectors(draw):
    A = algebra(draw(st.sampled_from(LIGHT_SPECS)), draw(st.sampled_from(FIELDS)))
    X = draw(st.sampled_from(pool(A)))
    vecs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=X.dim, max_size=X.dim), min_size=1, max_size=2))
    return X, vecs


def same_module(X, Y):
    return X.algebra is Y.algebra and X.dim == Y.dim and X.action == Y.action


def hom_span(homs, X, Y):
    f = X.algebra.field
    return Subspace.from_rows(f, Y.dim * X.dim, [h.reshape(1, Y.dim * X.dim).row(0) for h in homs])


# -- equal to the references -------------------------------------------------------------


class TestAgainstLoopVersions:
    @given(module_and_vectors())
    @SETTINGS
    def test_closure_submodule_quotient(self, case):
        X, vecs = case
        S = invariant_closure(X, vecs)
        assert S == ref_invariant_closure(X, vecs)
        sub, quot = X.submodule(S), X.quotient(S)
        rsub, rincl = ref_submodule(X, S)
        assert same_module(sub, rsub) and S.inclusion() == rincl
        rquot, rproj = ref_quotient(X, S)
        assert same_module(quot, rquot) and S.projection_matrix() == rproj
        verify_action(sub)
        verify_action(quot)

    @given(module_and_vectors())
    @SETTINGS
    def test_submodule_of_a_span_raises_exactly_when_the_loop_does(self, case):
        X, vecs = case
        S = Subspace.from_rows(X.algebra.field, X.dim, vecs)
        try:
            expected = ref_submodule(X, S)
        except InvalidModule:
            with pytest.raises(InvalidModule):
                X.submodule(S)
            return
        assert same_module(X.submodule(S), expected[0]) and S.inclusion() == expected[1]

    @given(module_and_vectors())
    @SETTINGS
    def test_radical_socle_and_top(self, case):
        X, vecs = case
        sub = X.submodule(invariant_closure(X, vecs))
        for M in (X, sub):
            assert M.radical_subspace() == ref_radical_subspace(M)
            rtop, rproj = ref_quotient(M, ref_radical_subspace(M))
            assert same_module(M.top(), rtop) and M.radical_subspace().projection_matrix() == rproj
            assert M.socle_subspace() == ref_socle_subspace(M)

    @given(module_and_vectors(), st.data())
    @SETTINGS
    def test_direct_sum(self, case, data):
        X, vecs = case
        sub = X.submodule(invariant_closure(X, vecs))
        Y = data.draw(st.sampled_from(pool(X.algebra)))
        for mods in ([X, Y], [sub, X, sub], [Module.zero(X.algebra), Y]):
            assert same_module(Module.direct_sum(mods), ref_direct_sum(mods))

    @given(module_and_vectors(), st.data())
    @SETTINGS
    def test_hom_basis_spans_the_plain_solution(self, case, data):
        X, vecs = case
        sub = X.submodule(invariant_closure(X, vecs))
        Y = data.draw(st.sampled_from(pool(X.algebra)))
        for S, T in ((sub, Y), (Y, sub), (X, sub)):
            homs = hom_basis(S, T)
            plain = hom_basis_plain(S, T)
            assert len(homs) == len(plain)
            assert hom_span(homs, S, T) == hom_span(plain, S, T)
            for h in homs:
                assert all(h * a == b * h for a, b in zip(S.action, T.action))

    @given(module_and_vectors())
    @SETTINGS
    def test_trace_from_projective_is_the_closure_of_e_y(self, case):
        X, vecs = case
        S = invariant_closure(X, vecs)
        for M in (X, X.submodule(S), X.quotient(S)):
            for lab in M.algebra.labels:
                assert trace_from_projective(lab, M) == trace_from_projective_closure(lab, M)

    @given(st.sampled_from(LIGHT_SPECS), st.sampled_from(FIELDS), st.data())
    @SETTINGS
    def test_standard_kernel_is_the_sum_of_the_closure_traces(self, name, field, data):
        A = algebra(name, field)
        i = data.draw(st.sampled_from(A.labels))
        above = tuple(data.draw(st.lists(st.sampled_from(A.labels), unique=True)))
        P = projective(A, i)
        U = Subspace.zero(A.field, P.dim)
        for j in above:
            U = U.plus(trace_from_projective_closure(j, P))
        assert StandardRecord(A, i, above)._kernel_space == U

    @given(st.sampled_from(LIGHT_SPECS), st.sampled_from(FIELDS))
    @settings(max_examples=14, deadline=None)
    def test_summand(self, name, field):
        A = algebra(name, field)
        for lab in A.labels:
            rmod, rbasis = ref_summand(A, A.idempotent_for_label(lab))
            assert same_module(projective(A, lab), rmod) and left_ideal(A, lab).inclusion() == rbasis
            # every resolution layer is the direct sum of the projectives of its labels
            res = resolution(simple(A, lab)).extend_to(2)
            for layer, P in zip(res.layers, res.modules):
                if layer:
                    assert same_module(P, Module.direct_sum([projective(A, t) for t in layer]))
                else:
                    assert P.dim == 0

    @given(st.sampled_from(LIGHT_SPECS + BASED), st.sampled_from(FIELDS), st.data())
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_induce(self, name, field, data):
        A = algebra(name, field)
        idem = list(A.idempotents)
        arrows = rows_of(A.generators())[len(idem):]
        kept = data.draw(st.lists(st.sampled_from(arrows), unique=True, max_size=len(arrows)))
        B, emb = A.subalgebra_closure(idem, kept)
        sub = SubalgebraEmbedding(B, A, emb)
        X = data.draw(st.sampled_from(pool(B) + [projective(A, A.labels[0]).restrict_along(emb, B)]))
        ind, insert = sub.induce(X)
        rind, rinsert = ref_induce(sub, X)
        assert same_module(ind, rind) and insert == rinsert


    @given(st.sampled_from(LIGHT_SPECS + BASED), st.sampled_from(FIELDS), st.data())
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_corner_tensor_and_hom(self, name, field, data):
        A = algebra(name, field)
        picks = data.draw(st.lists(st.sampled_from(A.labels), min_size=1, unique=True))
        ctx = IdempotentContext(A, A.idempotent_sum_for_labels(picks))
        Y = data.draw(st.sampled_from(pool(ctx.corner)))
        assert same_module(ctx.corner_tensor(Y), ref_corner_tensor(ctx, Y))
        assert same_module(ctx.corner_hom(Y), ref_corner_hom(ctx, Y))


# -- per-module data ---------------------------------------------------------------------


class TestModuleData:
    def test_act_on_a_basis_vector_is_the_stored_matrix(self):
        for field in FIELDS:
            A = algebra("diamond", field)
            X = projective(A, "1")
            for i in range(A.dim):
                assert X.act(A.basis_vec(i)) is X.action[i]
            # anything else is the linear combination
            v = [(-1) ** i * (i + 1) for i in range(A.dim)]
            expected = Matrix.zeros(A.field, X.dim, X.dim)
            for c, M in zip(v, X.action):
                expected = expected + scale(M, c)
            assert X.act(A.coerce_vec(v)) == expected
            assert X.act(Matrix.zeros(A.field, 1, A.dim)) == Matrix.zeros(A.field, X.dim, X.dim)

    def test_act_rows_stacks_act(self):
        A = algebra("sl2-block", "Q")
        X = Module.direct_sum([projective(A, "1"), simple(A, "2")])
        R = A.radical().basis.vstack(A.unit)
        blocks = X.act_rows(R).vsplit(R.rows)
        assert blocks == [X.act(r) for r in rows_of(R)]

    # A module is kept by its algebra under its stack, so everything a module keeps
    # lives as long as the algebra: these tests build a fresh algebra, drop it and
    # check that the module and its data go with it.

    def test_block_data_dies_with_its_module(self):
        A = fresh_algebra("diamond")
        X = Module.direct_sum([projective(A, "1"), simple(A, "3")])
        assert hom_basis(X, projective(A, "2")) is not None
        blocks = X._derived[("blocks",)]
        assert gc.get_referrers(blocks) == [X._derived]
        assert gc.get_referrers(X._derived) == [X]  # held by its module only
        assert A._derived[("module", X.stack)] is X  # the module is held by its algebra
        assert Module(A, X.dim, X.stack) is X
        del blocks
        refs = [weakref.ref(X), weakref.ref(A)]
        del X
        gc.collect()
        assert refs[0]() is not None  # kept while its algebra lives
        del A
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_peel_dies_with_its_module(self):
        # the filtration peels label 4 off X, then stops at label 3
        A = fresh_algebra("diamond")
        X = Module.direct_sum([projective(A, "1"), simple(A, "3")])
        chain = LabelPoset.chain(A.labels)
        D = StratDatum(A, chain).delta["4"]
        res = filtration_standard(X, {"4": D}, chain, allowed={"4"})
        assert res.layers == [("4", 1)] and res.status == "no"
        T = trace_from_projective("4", X)
        assert trace_from_projective("4", X) is T  # computed once per (module, label)
        quot, cert = X._derived[("peel", "4")], X._derived[("power", "4", D.stack)]
        assert quot is X.quotient(T) and 0 < T.dim < X.dim  # X/T is a new module
        assert cert is res.certs[0]
        assert filtration_standard(X, {"4": D}, chain, allowed={"4"}).certs[0] is cert
        del res, D
        # held by their module only
        assert gc.get_referrers(T) == gc.get_referrers(cert) == [X._derived]
        assert gc.get_referrers(X._derived) == [X]
        refs = [weakref.ref(X), weakref.ref(quot), weakref.ref(A)]
        del X, quot, T, cert
        gc.collect()
        assert all(r() is not None for r in refs)  # kept while their algebra lives
        del A
        gc.collect()
        assert [r() for r in refs] == [None, None, None]

    def test_resolution_dies_with_its_module(self):
        A = fresh_algebra("sl2-block")
        X = Module.direct_sum([simple(A, "1")])  # equal to L_1, so it is L_1
        assert X is simple(A, "1")
        assert ext_dim(X, simple(A, "2"), 1) == 1
        res = X._derived[("resolution",)]
        assert gc.get_referrers(res) == [X._derived]  # the resolution keeps no reference to X
        assert gc.get_referrers(X._derived) == [X]  # held by its module only
        refs = [weakref.ref(X), weakref.ref(res), weakref.ref(A)]
        del X, res
        gc.collect()
        assert all(r() is not None for r in refs)  # kept while the algebra lives
        del A
        gc.collect()
        assert [r() for r in refs] == [None, None, None]

    def test_certificate_goes_with_its_family_member(self):
        A = fresh_algebra("diamond")
        X = Module.direct_sum([projective(A, "4")] * 2)
        D = Module.direct_sum([projective(A, "4")])  # equal to P_4, so it is P_4
        assert D is projective(A, "4")
        chain = LabelPoset.chain(A.labels)
        res = filtration_standard(X, {"4": D}, chain)
        assert res.layers == [("4", 2)]
        # kept per family member by its content, not by the object asked about
        assert certificates(X, "4") == {D.stack: res.certs[0]}
        again = filtration_standard(X, {"4": Module(A, D.dim, D.stack)}, chain)
        assert again.certs[0] is res.certs[0] and certificates(X, "4") == {D.stack: res.certs[0]}
        cert, key = res.certs[0], D.stack
        refs = [weakref.ref(X), weakref.ref(A)]
        del X, D, res, again
        gc.collect()
        assert certificates(refs[0](), "4") == {key: cert}  # the certificate lives with X
        del A
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_certificates_are_kept_per_family_member(self):
        # two quotients of P_1 of the same dimension with top L_1: [1 over 2] and [1 over 4]
        A = algebra("diamond", "Q")
        P = projective(A, "1")
        over2, over4 = (P.quotient(trace_from_projective(j, P)) for j in ("4", "2"))
        X = Module.direct_sum([over2, over2])
        one_last = LabelPoset.chain(["4", "3", "2", "1"])
        for D, status in ((over4, "no"), (over2, "yes"), (over4, "no")):
            assert filtration_standard(X, {"1": D}, one_last).status == status
        assert len(certificates(X, "1")) == 2

    def test_identity_constructions_return_the_module(self):
        for field in FIELDS:
            A = algebra("diamond", field)
            X = Module.direct_sum([projective(A, "1"), simple(A, "3")])
            identity = Matrix.identity(A.field, X.dim)
            zero, full = Subspace.zero(A.field, X.dim), Subspace.full(A.field, X.dim)
            assert X.quotient(zero) is X and zero.projection_matrix() == identity
            assert X.submodule(full) is X and full.inclusion() == identity
            # the dual lands on the opposite algebra, and its dual on X's algebra with
            # X's stack: X itself, as is the direct sum of X alone
            assert X.dual().algebra is A.opposite() and X.dual().dual() is X
            assert Module.direct_sum([X]) is X


def test_greedy_oracle_disagreement_raises_under_O():
    # With asserts stripped, a disagreement must still stop the run rather
    # than print a verdict.
    code = textwrap.dedent(
        """
        from strata.corpus import entry
        from strata.errors import InvariantViolation
        from strata.memo import Family
        from strata.modules import projective
        from strata.strat import YES, StratDatum, strat_datum

        ent = entry(Family(), "fork")
        sd = strat_datum(ent.algebra, ent.poset)
        X = projective(ent.algebra, ent.algebra.labels[0])
        if sd.left_stratified()[0] != YES or sd.delta_filtration(X).status != YES:
            raise SystemExit("precondition")
        StratDatum.ext_oracle_delta = lambda self, X: False
        try:
            sd.delta_filtration(X)
        except InvariantViolation:
            print("raised")
        """
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         cwd=_repo_root(), env=_src_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def _repo_root():
    import os

    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _src_env():
    import os

    env = dict(os.environ)
    src = os.path.join(_repo_root(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
