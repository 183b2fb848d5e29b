"""The regular-representation associativity certificate and the structure it lets
derived algebras inherit.

The reference is the textbook sweep: (b_i b_j) b_l against b_i (b_j b_l) on every
basis triple, multiplied out entry by entry over the field.  The certificate must
raise exactly when that sweep finds a failing triple.
"""

import copy
import subprocess
import sys
import textwrap
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata.algebra import Algebra
from strata.corpus import corpus_path, entry
from strata.errors import InvalidAlgebra
from strata.kernel import QQ, Matrix, PrimeField, Subspace
from strata.specfile import load_spec, load_spec_file

from oracles import corpus_doc, sparse_table

FIELDS = [QQ, PrimeField(7)]


# -- reference: the basis-triple sweep ------------------------------------------------


def ref_mul(f, table, x, y):
    """x * y for sparse elements {index: coeff} under table[i][j] = {k: c}."""
    out = {}
    for i, xi in x.items():
        for j, yj in y.items():
            for k, c in table[i][j].items():
                out[k] = f.add(out.get(k, f.zero), f.mul(f.mul(xi, yj), c))
    return {k: v for k, v in out.items() if not f.is_zero(v)}


def ref_failing_triples(f, table, triples):
    n = len(table)
    e = [{i: f.one} for i in range(n)]
    return [
        (i, j, l)
        for i, j, l in triples
        if ref_mul(f, table, ref_mul(f, table, e[i], e[j]), e[l]) != ref_mul(f, table, e[i], ref_mul(f, table, e[j], e[l]))
    ]


def all_triples(n):
    return [(i, j, l) for i in range(n) for j in range(n) for l in range(n)]


def table_of(A):
    return [[dict(cell) for cell in row] for row in sparse_table(A)]


def unvalidated(f, table):
    """An Algebra on the table with validation switched off, to probe one check alone."""
    n = len(table)
    entries = [table[i][j].get(k, f.zero) for i in range(n) for j in range(n) for k in range(n)]
    with mock.patch.object(Algebra, "validate", lambda self: None):
        return Algebra(f, [f"b{i}" for i in range(n)], Matrix(f, n, n * n, entries), [f.zero] * n, [])


# -- associative tables in random bases --------------------------------------------------


def _matrix_units(f):
    pos = [(a, b) for a in range(2) for b in range(2)]
    return [[{pos.index((a, d)): f.one} if b == c else {} for (c, d) in pos] for (a, b) in pos]


def _truncated_polynomials(f):
    # k[x]/(x^3), basis 1, x, x^2
    return [[{i + j: f.one} if i + j < 3 else {} for j in range(3)] for i in range(3)]


def _corpus_table(name):
    def build(f):
        return [[{k: f.coerce(c) for k, c in cell.items()} for cell in row] for row in table_of(entry(name).algebra)]

    return build


BASES = [_matrix_units, _truncated_polynomials, _corpus_table("fork"), _corpus_table("rad-square-zero"),
         _corpus_table("sl2-block")]


def change_basis(f, table, S):
    """Structure constants in the basis b'_i = sum_a S[a, i] b_a."""
    n = len(table)
    Sinv = S.inverse()
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            x = {a: S[a, i] for a in range(n) if not f.is_zero(S[a, i])}
            y = {b: S[b, j] for b in range(n) if not f.is_zero(S[b, j])}
            prod = ref_mul(f, table, x, y)
            cell = {}
            for k in range(n):
                c = f.zero
                for m, v in prod.items():
                    c = f.add(c, f.mul(Sinv[k, m], v))
                if not f.is_zero(c):
                    cell[k] = c
            row.append(cell)
        out.append(row)
    return out


@st.composite
def tables(draw):
    f = draw(st.sampled_from(FIELDS))
    table = draw(st.sampled_from(BASES))(f)
    n = len(table)
    entries = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    S = Matrix(f, n, n, entries)
    if S.rank() < n:
        S = Matrix.identity(f, n)
    table = change_basis(f, table, S)
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        delta = draw(st.sampled_from([-1, 1, 2]))
        table[i][j][k] = f.add(table[i][j].get(k, f.zero), f.coerce(delta))
    return f, table


class TestCertificate:
    @settings(max_examples=40, deadline=None)
    @given(tables())
    def test_raises_exactly_when_a_triple_fails(self, data):
        f, table = data
        failing = ref_failing_triples(f, table, all_triples(len(table)))
        A = unvalidated(f, table)
        if not failing:
            A.check_associativity()
            return
        with pytest.raises(InvalidAlgebra, match="associativity") as exc:
            A.check_associativity()
        named = tuple(int(t) for t in str(exc.value).split("(")[-1].rstrip(")").split(","))
        assert named in failing

    def test_perturbed_structure_constant_spec_of_dimension_25(self):
        spec = corpus_doc("sl2-tensor-square")
        sc = spec["presentation"]["structure_constants"]
        n = len(sc["basis"])
        assert n >= 16
        load_spec(spec)  # the unperturbed spec is valid
        # perturb a product of two basis elements outside the unit and idempotents,
        # so that the unit and idempotent checks pass and the certificate must catch it
        special = {k for k, c in enumerate(sc["unit"]) if c != "0"}
        for idem in sc["idempotents"]:
            special |= {k for k, c in enumerate(idem["coords"]) if c != "0"}
        i, j, k, c = next(t for t in sc["table"] if t[0] not in special and t[1] not in special)
        bad = copy.deepcopy(spec)
        entry_ = bad["presentation"]["structure_constants"]["table"]
        entry_[entry_.index([i, j, k, c])] = [i, j, k, str(QQ.coerce(c) + 1)]
        table = [[{} for _ in range(n)] for _ in range(n)]
        for a, b, m, x in entry_:
            table[a][b][m] = QQ.coerce(x)
        touching = [(i, j, l) for l in range(n)] + [(x, i, j) for x in range(n)]
        assert ref_failing_triples(QQ, table, touching)
        with pytest.raises(InvalidAlgebra, match="associativity"):
            load_spec(bad)

    @pytest.mark.parametrize("name", ["fork", "sl2-block", "diamond", "auslander-x3", "nonbasic-endo"])
    def test_corpus_tables_pass_the_sweep(self, name):
        A = entry(name).algebra
        assert ref_failing_triples(A.field, table_of(A), all_triples(A.dim)) == []
        A.check_associativity()


class TestInheritance:
    def test_quotient_by_a_one_sided_ideal_is_refused(self, monkeypatch):
        A = load_spec_file(corpus_path("sl2-block")).algebra  # a fresh algebra: the patched ideal must not reach the corpus caches
        e = A.idempotent_for_label("1")
        # A e: a left ideal that is not two-sided
        monkeypatch.setattr(Algebra, "_two_sided_ideal",
                            lambda self, v: Subspace.row_space(self.right_mult_matrix(v).transpose()))
        with pytest.raises(InvalidAlgebra, match="AeA is not a two-sided ideal"):
            A.quotient_by_idempotent_ideal(e)

    def test_derived_algebras_pass_the_certificate(self):
        # what corners, quotients, closures, opposites and tensor products inherit holds
        A = entry("auslander-x3").algebra
        e = A.idempotent_sum_for_labels(["1", "2"])
        C, _ = A.corner(e)
        Q, _ = A.quotient_by_idempotent_ideal(A.idempotent_for_label("3"))
        F = load_spec_file(corpus_path("fork")).algebra
        for B in (C, Q, A.opposite(), C.opposite(), F.tensor_product(F)):
            B.check_associativity()

    def test_opposite_shares_generators(self):
        A = entry("nonbasic-endo").algebra
        gens = A.generators()
        assert A.opposite().generators() is gens


class TestProducts:
    @pytest.mark.parametrize("name", ["sl2-block", "nonbasic-endo"])
    def test_block_products_match_single_products(self, name):
        A = entry(name).algebra
        f = A.field
        xs = [A.idempotents[0][0], A.unit, tuple(f.coerce(k % 3 - 1) for k in range(A.dim))]
        ys = [A.basis_vec(A.dim - 1), A.idempotents[-1][0]]
        X, Y = Matrix.from_rows(f, xs), Matrix.from_rows(f, ys)
        basis = [A.basis_vec(i) for i in range(A.dim)]

        def rows(M):
            return [tuple(M.row(r)) for r in range(M.rows)]

        assert rows(A.products(X, Y)) == [A.mult_vec(x, y) for x in xs for y in ys]
        assert rows(A.products(X)) == [A.mult_vec(x, b) for x in xs for b in basis]
        assert rows(A.products(None, Y)) == [A.mult_vec(b, y) for b in basis for y in ys]
        assert rows(A.products()) == [A.mult_vec(a, b) for a in basis for b in basis]


class TestQuiverInvariant:
    def test_long_representative_is_a_typed_error_under_optimize(self):
        code = textwrap.dedent(
            """
            from strata.errors import InvariantViolation
            from strata.kernel import QQ, Subspace
            from strata.quiver import QuiverPresentation, compile_presentation
            # a broken complement that keeps every path, long ones included
            Subspace.complement_coords = lambda self: list(range(self.ambient_dim))
            pres = QuiverPresentation.make(["1"], [("x", "1", "1")], [[(1, ("x", "x"))]], 2)
            try:
                compile_presentation(pres, QQ)
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
