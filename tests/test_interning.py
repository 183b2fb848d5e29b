"""A module is its (algebra, stack): content-equal modules over one algebra are one object.

Every Module construction goes through one memo on its algebra, keyed by the
stack, so equal stacks reached by different routes -- a direct sum of one
summand, quotients by equal subspaces, the dual of the dual, the module on a
trace, the Delta_i of two orders with equal kernels -- are the same object,
with one set of block data, traces, peels and resolution.  hom_basis and
ext_dims_upto are kept on X under Y's stack; both must equal the plain
all-unknowns solver and what a fresh copy of the algebra, with empty memos,
computes.  The shape and unit checks run on every request, so a refused stack
raises every time and leaves no ("module", ...) entry.

Drawn on generated rad² = 0 and truncated path algebras over Q, F_2 and F_3,
their opposites, corners and quotients by idempotent ideals.

One level up, an algebra is its content within its family (memo.Family):
every corner, quotient, opposite and subalgebra closure is kept on the family
under (field, basis names, table, unit, labelled idempotents, presentation),
so content-equal derived algebras reached from different roots of one family
are one object, two families share none, and each equals what a build with
the memo bypassed gives.  A verify-paper run is one family, and two runs in
one process give the same report from algebras built twice.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strata.algebra
from strata.algebra import Algebra, structure_constant_algebra
from strata.cli import main
from strata.corpus import entry
from strata.errors import InputError, InvalidModule
from strata.homology import _ext_dims, ext_dims_upto
from strata.kernel.fields import QQ
from strata.kernel.matrix import Matrix
from strata.kernel.subspace import Subspace
from strata.memo import Family
from strata.modules import Module, _solve_hom, hom_basis, injective, projective, simple, trace_from_projective
from strata.specfile import export_algebra, load_spec
from strata.strat import LabelPoset, StratDatum, all_posets

from oracles import hom_basis_plain, rows_of
from test_generators import GENERATED, build

SETTINGS = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# (kind, idempotent picks) of a variant: the algebra itself, its opposite, or the
# corner / quotient at the subset sum of the picked distinguished idempotents
VARIANT = st.tuples(st.sampled_from(["self", "opposite", "corner", "quotient"]),
                    st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))


def variant(A, how):
    """The algebra of the variant `how` of A, or A itself when the variant is empty."""
    kind, picks = how
    if kind == "self":
        return A
    if kind == "opposite":
        return A.opposite()
    picks = sorted(p for p in picks if p < len(A.idempotents))
    if not picks:
        return A
    e = A.sum_idempotents(picks)
    if kind == "corner":
        return A.corner(e)[0]
    if A.two_sided_ideal(e).dim == A.dim:
        return A
    return A.quotient_by_idempotent_ideal(e)[0]


def pool(B):
    """Regular, projective, simple and injective modules of B, and the top of the regular module."""
    mods = [Module.regular(B), Module.regular(B).top()]
    for lab in B.labels:
        mods += [projective(B, lab), simple(B, lab), injective(B, lab)]
    return mods


def module_keys(B):
    return [k for k in B._derived if k[0] == "module"]


def twin(B, X):
    """X's stack as a module over B, a content-equal copy of X's algebra."""
    return Module(B, X.dim, X.stack)


@SETTINGS
@given(GENERATED, VARIANT)
def test_equal_stacks_are_one_object(quiver, how):
    B = variant(build(quiver), how)
    for X in pool(B):
        assert Module(B, X.dim, X.stack) is X
        assert Module.from_actions(B, X.dim, X.action) is X
        assert Module.direct_sum([X]) is X
        assert X.dual().dual() is X
        # the radical by two spanning sets: its RREF basis, and that basis with its
        # rows summed onto the last one
        rad = X.radical_subspace()
        rows = rad.basis
        if rows.rows:
            total = Matrix.vcat([rows, Matrix.linear_combination(B.field, 1, X.dim, [
                (1, rows.take_rows([t])) for t in range(rows.rows)])])
            assert X.quotient(Subspace.row_space(total)) is X.quotient(rad) is X.top()
            assert X.submodule(Subspace.row_space(total)) is X.submodule(rad)
        for lab in B.labels:
            T = trace_from_projective(lab, X)
            assert trace_from_projective(lab, X) is T  # kept on X per label
            assert X.submodule(T) is X.submodule(T) and X.quotient(T) is X.quotient(T)
    # a filtration keeps X/T on each module X it peels, T the trace it keeps
    StratDatum(B, LabelPoset.chain(B.labels)).left_stratified()
    for key, X in list(B._derived.items()):
        if key[0] == "module":
            for k, quot in (X._derived or {}).copy().items():
                if k[0] == "peel":
                    assert quot is X.quotient(X._derived[("trace", k[1])])


@SETTINGS
@given(GENERATED, VARIANT)
def test_records_with_equal_kernels_share_their_modules(quiver, how):
    B = variant(build(quiver), how)
    by_kernel = {}
    for poset in all_posets(B.labels):
        sd = StratDatum(B, poset)
        for i in B.labels:
            rec = sd._records[i]
            by_kernel.setdefault((i, rec._kernel_space), []).append((sd, rec))
    for (i, _), group in by_kernel.items():
        sd0, rec0 = group[0]
        for sd, rec in group:
            assert rec.delta is rec0.delta and rec.delta_bar is rec0.delta_bar
            assert sd.delta_kernel_module(i) is sd0.delta_kernel_module(i)


def _span(homs, f, rows, cols):
    """The span of the maps, each flattened to one row."""
    if not homs:
        return Subspace.zero(f, rows * cols)
    return Subspace.row_space(Matrix.vcat([h.reshape(1, rows * cols) for h in homs]))


@SETTINGS
@given(GENERATED, VARIANT)
def test_memoised_hom_and_ext_equal_fresh_computations(quiver, how):
    B = variant(build(quiver), how)
    fresh = variant(build(quiver), how)  # an equal algebra with empty memos
    assert fresh == B and fresh is not B
    mods = pool(B)[2:]  # the regular modules are left to the plain solver's other tests
    for X, Y in itertools.product(mods, repeat=2):
        homs = hom_basis(X, Y)
        assert isinstance(homs, tuple) and hom_basis(X, Y) is homs
        assert homs == _solve_hom(X, Y) == hom_basis(twin(fresh, X), twin(fresh, Y))
        assert _span(homs, B.field, Y.dim, X.dim) == _span(hom_basis_plain(X, Y), B.field, Y.dim, X.dim)
    # Ext from the simples only: the resolutions of the others can grow too fast here
    for X, Y in itertools.product([simple(B, lab) for lab in B.labels], mods):
        dims = ext_dims_upto(X, Y, 1)
        assert dims == list(_ext_dims(X, Y, 1)) == ext_dims_upto(twin(fresh, X), twin(fresh, Y), 1)
        assert dims[0] == len(hom_basis(X, Y))
        dims.append(-1)  # the caller's list is a copy
        assert ext_dims_upto(X, Y, 1) == dims[:2]


@SETTINGS
@given(GENERATED, VARIANT)
def test_refused_stacks_store_nothing(quiver, how):
    B = variant(build(quiver), how)
    P = projective(B, B.labels[0])
    before = module_keys(B)
    # every basis element acting by zero: multiplicative but not unital
    zero = Matrix.zeros(B.field, B.dim, 1)
    wrong = Matrix.zeros(B.field, B.dim + 1, 1)
    for _ in range(3):
        with pytest.raises(InvalidModule, match="unit"):
            Module(B, 1, zero)
        with pytest.raises(InvalidModule, match="unit"):
            Module.from_actions(B, 1, [Matrix.zeros(B.field, 1, 1)] * B.dim)
        with pytest.raises(InvalidModule, match="stack"):
            Module(B, 1, wrong)
    assert module_keys(B) == before
    # a subspace that is not invariant: the span of one vector outside every submodule
    for v in range(P.dim):
        line = Subspace.row_space(Matrix.identity(B.field, P.dim).take_rows([v]))
        before = module_keys(B)
        try:
            P.submodule(line)
        except InvalidModule:
            assert module_keys(B) == before
            with pytest.raises(InvalidModule, match="invariant"):
                P.submodule(line)
            assert module_keys(B) == before
    # interned unchecked, the stack is still refused by every checked request
    Module(B, 1, zero, check_unit=False)
    for _ in range(2):
        with pytest.raises(InvalidModule, match="unit"):
            Module(B, 1, zero)


# -- derived algebras: one object per content in a family ----------------------------------


def roots(quiver, family):
    """The generated algebra and, where its radical can be computed from the
    table alone, its opposite exported as structure constants and loaded again:
    two roots, joined to family."""
    A = build(quiver).join(family)
    out = [A]
    f = A.field
    if f.char == 0 or f.char > A.dim:
        out.append(load_spec(export_algebra(A.opposite())).algebra.join(family))
    return out


def derivations(A):
    """A's opposite, its corner and quotient at every nonzero subset sum, the
    corners of the opposite, and the closure of its idempotents and every other
    arrow, in a fixed order."""
    out = [A.opposite(), A.opposite().opposite()]
    n = len(A.idempotents)
    for r in range(1, n + 1):
        for picks in itertools.combinations(range(n), r):
            e = A.sum_idempotents(picks)
            out += [A.corner(e)[0], A.quotient_by_idempotent_ideal(e)[0], A.opposite().corner(e)[0]]
    f = A.field
    if f.char == 0 or f.char > A.dim:  # a closure re-checks its labels on the trace-form radical
        arrows = rows_of(A.generators())[len(A.idempotents):]
        out.append(A.subalgebra_closure(A.idempotents, arrows[::2])[0])
    return out


def built_in(quiver, family):
    return [B for R in roots(quiver, family) for B in [R] + derivations(R)]


def _always_build(owner, key, build, *args):
    return build(*args)


@SETTINGS
@given(GENERATED)
def test_content_equal_algebras_of_a_family_are_one_object(quiver):
    family = Family()
    algebras = built_in(quiver, family)
    by_key = {}
    for B in algebras:
        assert B.family is family
        assert by_key.setdefault(B._key(), B) is B
    A = algebras[0]
    assert A.opposite().opposite() is A
    # roots loaded again join as the objects the family holds: A, and A's
    # opposite for the exported opposite
    again = roots(quiver, family)
    assert again[0] is A and again[1:] in ([], [A.opposite()])
    # a second family builds its own objects, content for content
    other = built_in(quiver, Family())
    assert [B._key() for B in other] == [B._key() for B in algebras]
    assert not {id(B) for B in other} & {id(B) for B in algebras}


@SETTINGS
@given(GENERATED)
def test_interned_algebras_equal_builds_without_the_memo(quiver):
    algebras = built_in(quiver, Family())
    with mock.patch.object(strata.algebra, "derived", _always_build):
        fresh = built_in(quiver, Family())
    for B, C in zip(algebras, fresh, strict=True):
        # equal but for the presentation: the opposite of the exported opposite is
        # the quiver root itself when the memo links them, and a copy without one
        # when it does not
        assert B is not C
        assert B == C and B.radical() == C.radical() and B.labels == C.labels


def test_corpus_roots_and_corners_are_shared_across_entries():
    run = Family()
    fork, refined, diamond = (entry(run, name) for name in ("fork", "fork-refined", "diamond"))
    assert refined.algebra is fork.algebra and refined.poset != fork.poset
    # e_1 A e_1 is k, labelled 1, for both quivers
    k = fork.algebra.corner(fork.algebra.idempotent_for_label("1"))[0]
    assert k.dim == 1 and k is diamond.algebra.corner(diamond.algebra.idempotent_for_label("1"))[0]
    assert k.opposite() is k
    assert entry(Family(), "fork").algebra is not fork.algebra


def test_the_opposite_of_the_opposite_is_the_algebra():
    # k[x]/(x^2) from structure constants is commutative, with no presentation: its own opposite
    dual_numbers = structure_constant_algebra(QQ, ["1", "x"], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
                                              [1, 0], [([1, 0], "1")])
    assert dual_numbers.opposite() is dual_numbers
    for A in (dual_numbers, entry(Family(), "fork").algebra):
        op = A.opposite()
        assert op.opposite() is A and A.opposite() is op
        # each keeps the other in its memo
        assert A._derived[("opposite",)] is op and op._derived[("opposite",)] is A


def test_an_unknown_corpus_name_is_an_input_error_before_any_file_is_opened():
    run = Family()
    with mock.patch("builtins.open", side_effect=AssertionError("a file was opened")):
        with pytest.raises(InputError, match="nope.*fork, fork-refined"):
            entry(run, "nope")
    # nothing was stored: the run still loads its entries
    assert entry(run, "fork").name == "fork"


def test_two_runs_give_one_report_from_algebras_built_twice(capsys, monkeypatch):
    runs = []
    init = Algebra.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runs[-1].append(self)

    monkeypatch.setattr(Algebra, "__init__", recording)
    reports = []
    for _ in range(2):
        runs.append([])  # the lists keep every algebra alive, so no id is reused
        assert main(["--json", "verify-paper"]) == 1
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    first, second = runs
    assert first and len(second) == len(first)
    assert sorted(map(repr, (B._key() for B in second))) == sorted(map(repr, (B._key() for B in first)))
    assert not {id(B) for B in second} & {id(B) for B in first}
