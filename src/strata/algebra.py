"""Finite-dimensional algebras as validated structure-constant data.

An Algebra is a basis with a (sparse) multiplication tensor, a unit, and a
distinguished family of primitive orthogonal idempotents carrying simple
labels.  Several idempotents may share a label (non-basic algebras).  All
ways of obtaining one -- quiver compilation, raw structure constants, corner,
quotient by an idempotent ideal, subalgebra closure, opposite, tensor product
-- funnel through validation: axioms are verified, never trusted, with the
expensive associativity sweep sampled deterministically above a size cutoff
and exercised in full by the test suite on the bundled corpus.

Elements are plain coordinate tuples over the algebra's field.
"""

from __future__ import annotations

import random

from .errors import (
    FieldMismatch,
    InputError,
    InvalidAlgebra,
    NotIdempotent,
    NotIdempotentSum,
    NotInSubspace,
    NotUnital,
    RadicalUnsupportedCharacteristic,
    UnknownLabel,
)
from .kernel.matrix import Matrix
from .kernel.subspace import Subspace
from .quiver import QuiverPresentation, compile_presentation

FULL_VALIDATION_DIM = 16
_ASSOC_SAMPLE = 400


def _sparse(field, vec):
    return tuple((k, x) for k, x in enumerate(vec) if not field.is_zero(x))


class Algebra:
    def __init__(self, field, basis_names, mult_sparse, unit, idempotents, presentation=None,
                 arrow_indices=None, radical_rows=None, validate_level="fast"):
        self.field = field
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        self.mult = mult_sparse  # mult[i][j] = tuple of (k, coeff)
        self.unit = tuple(unit)
        self.idempotents = tuple((tuple(v), str(lab)) for v, lab in idempotents)
        labels = []
        for _, lab in self.idempotents:
            if lab not in labels:
                labels.append(lab)
        self.labels = tuple(labels)
        self.presentation = presentation
        self.arrow_indices = tuple(arrow_indices) if arrow_indices is not None else None
        self._radical = Subspace.from_rows(field, self.dim, radical_rows) if radical_rows is not None else None
        self._op = None
        self._gens = None
        self._left_mult = {}
        self._derived = {}  # (kind, e) -> corner/quotient/ideal, per idempotent
        if validate_level:
            self.validate(validate_level)

    # -- element arithmetic -------------------------------------------------

    def zero_vec(self):
        return tuple([self.field.zero] * self.dim)

    def basis_vec(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return tuple(v)

    def coerce_vec(self, v):
        if len(v) != self.dim:
            raise InputError(f"element has length {len(v)}, algebra has dim {self.dim}")
        return tuple(self.field.coerce(x) for x in v)

    def mult_vec(self, x, y):
        f = self.field
        out = [f.zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            mrow = self.mult[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = f.mul(xi, yj)
                for k, m in mrow[j]:
                    out[k] = f.add(out[k], f.mul(c, m))
        return tuple(out)

    def left_mult_matrix(self, vec):
        """Matrix of a |-> vec * a in the basis (columns = vec * b_j)."""
        f = self.field
        cols = []
        for j in range(self.dim):
            col = [f.zero] * self.dim
            for i, xi in enumerate(vec):
                if f.is_zero(xi):
                    continue
                for k, m in self.mult[i][j]:
                    col[k] = f.add(col[k], f.mul(xi, m))
            cols.append(col)
        return Matrix.from_columns(f, cols, nrows=self.dim)

    def right_mult_matrix(self, vec):
        f = self.field
        cols = []
        for j in range(self.dim):
            col = [f.zero] * self.dim
            for i, yi in enumerate(vec):
                if f.is_zero(yi):
                    continue
                for k, m in self.mult[j][i]:
                    col[k] = f.add(col[k], f.mul(yi, m))
            cols.append(col)
        return Matrix.from_columns(f, cols, nrows=self.dim)

    def basis_left_mult(self, i):
        if i not in self._left_mult:
            self._left_mult[i] = self.left_mult_matrix(self.basis_vec(i))
        return self._left_mult[i]

    def is_idempotent(self, vec):
        return self.mult_vec(vec, vec) == tuple(vec)

    # -- labels and idempotents ----------------------------------------------

    def idempotents_for_label(self, label):
        out = [v for v, lab in self.idempotents if lab == str(label)]
        if not out:
            raise UnknownLabel(f"no idempotent labelled {label!r}")
        return out

    def idempotent_for_label(self, label):
        return self.idempotents_for_label(label)[0]

    def sum_idempotents(self, indices):
        f = self.field
        v = [f.zero] * self.dim
        for i in indices:
            w = self.idempotents[i][0]
            v = [f.add(a, b) for a, b in zip(v, w)]
        return tuple(v)

    def idempotent_sum_for_labels(self, labels):
        labels = {str(l) for l in labels}
        unknown = labels - set(self.labels)
        if unknown:
            raise UnknownLabel(f"unknown label(s) {sorted(unknown)}")
        return self.sum_idempotents([k for k, (_, lab) in enumerate(self.idempotents) if lab in labels])

    def subset_sum_decomposition(self, e):
        """Indices S with e = sum of the S-indexed distinguished idempotents."""
        e = self.coerce_vec(e)
        if not self.is_idempotent(e):
            raise NotIdempotent("element is not idempotent")
        cols = [list(v) for v, _ in self.idempotents]
        M = Matrix.from_columns(self.field, cols, nrows=self.dim)
        x = M.solve(Matrix.column(self.field, list(e)))
        if x is None:
            raise NotIdempotentSum("not in the span of the distinguished family")
        picked = []
        f = self.field
        for k in range(len(self.idempotents)):
            c = x[k, 0]
            if f.is_zero(c):
                continue
            if c != f.one:
                raise NotIdempotentSum("not a 0/1 combination of the distinguished family")
            picked.append(k)
        return tuple(picked)

    def support_labels(self, e):
        """Support of a subset-sum idempotent: labels of its summands."""
        return tuple(sorted({self.idempotents[k][1] for k in self.subset_sum_decomposition(e)},
                            key=self.labels.index))

    # -- validation ------------------------------------------------------------

    def validate(self, level="full"):
        f = self.field
        if len(self.unit) != self.dim:
            raise InvalidAlgebra("unit has wrong length")
        ident = Matrix.identity(f, self.dim)
        if self.left_mult_matrix(self.unit) != ident or self.right_mult_matrix(self.unit) != ident:
            raise InvalidAlgebra("unit is not a two-sided identity")
        # idempotent family axioms
        total = [f.zero] * self.dim
        for a, (v, lab) in enumerate(self.idempotents):
            if self.mult_vec(v, v) != v:
                raise InvalidAlgebra(f"distinguished element {a} is not idempotent")
            if all(f.is_zero(x) for x in v):
                raise InvalidAlgebra(f"distinguished idempotent {a} is zero")
            total = [f.add(x, y) for x, y in zip(total, v)]
            for b in range(a + 1, len(self.idempotents)):
                w = self.idempotents[b][0]
                z = self.zero_vec()
                if self.mult_vec(v, w) != z or self.mult_vec(w, v) != z:
                    raise InvalidAlgebra(f"idempotents {a},{b} are not orthogonal")
        if tuple(total) != self.unit:
            raise InvalidAlgebra("distinguished idempotents do not sum to the unit")
        self._check_associativity(level)
        self._check_primitivity_and_labels()

    def _check_associativity(self, level):
        n = self.dim
        triples = None
        if level == "full" or n <= FULL_VALIDATION_DIM:
            triples = ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
        else:
            rng = random.Random(7)
            triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(_ASSOC_SAMPLE))
        for i, j, k in triples:
            left = self.mult_vec(self.mult_vec(self.basis_vec(i), self.basis_vec(j)), self.basis_vec(k))
            right = self.mult_vec(self.basis_vec(i), self.mult_vec(self.basis_vec(j), self.basis_vec(k)))
            if left != right:
                raise InvalidAlgebra(f"associativity fails on basis triple ({i},{j},{k})")

    def _check_primitivity_and_labels(self):
        rad = self.radical()
        f = self.field
        corner_dims = []
        for v, _ in self.idempotents:
            rows = [self.mult_vec(v, self.mult_vec(self.basis_vec(i), v)) for i in range(self.dim)]
            eAe = Subspace.from_rows(f, self.dim, rows)
            inter = eAe.intersect(rad)
            if eAe.dim - inter.dim != 1:
                raise InvalidAlgebra("distinguished idempotent is not primitive (or the algebra is not split)")
            corner_dims.append(eAe)
        # same label <=> isomorphic projectives <=> e A e' not inside the radical
        for a in range(len(self.idempotents)):
            va, la = self.idempotents[a]
            for b in range(a + 1, len(self.idempotents)):
                vb, lb = self.idempotents[b]
                rows = [self.mult_vec(va, self.mult_vec(self.basis_vec(i), vb)) for i in range(self.dim)]
                eab = Subspace.from_rows(f, self.dim, rows)
                in_rad = rad.contains_space(eab)
                if (la == lb) and in_rad:
                    raise InvalidAlgebra(f"idempotents {a},{b} share label {la} but have non-isomorphic projectives")
                if (la != lb) and not in_rad:
                    raise InvalidAlgebra(f"idempotents {a},{b} have distinct labels but isomorphic projectives")

    # -- radical -----------------------------------------------------------------

    def radical(self):
        """rad(A) as a Subspace: arrow ideal for quiver algebras, trace-form radical otherwise."""
        if self._radical is not None:
            return self._radical
        if self.field.char != 0 and self.field.char <= self.dim:
            raise RadicalUnsupportedCharacteristic(
                f"radical over F_{self.field.char} needs char > dim {self.dim} or a quiver presentation"
            )
        self._radical = self._trace_form_radical()
        return self._radical

    def _trace_form_radical(self):
        f = self.field
        # t[k] = trace of left multiplication by b_k
        t = []
        for k in range(self.dim):
            s = f.zero
            for l in range(self.dim):
                for m, c in self.mult[k][l]:
                    if m == l:
                        s = f.add(s, c)
            t.append(s)
        rows = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                s = f.zero
                for k, c in self.mult[i][j]:
                    s = f.add(s, f.mul(c, t[k]))
                row.append(s)
            rows.append(row)
        G = Matrix.from_rows(f, rows)
        K = G.transpose().kernel_basis()
        return Subspace.from_rows(f, self.dim, [K.col(j) for j in range(K.cols)])

    # -- generators (for intertwiner solvers) --------------------------------------

    def generators(self):
        """Element vectors generating A as an algebra, idempotents first."""
        if self._gens is not None:
            return self._gens
        gens = [v for v, _ in self.idempotents]
        if self.arrow_indices is not None:
            gens += [self.basis_vec(i) for i in self.arrow_indices]
            self._gens = gens
            return gens
        span = self._closure_span(gens)
        for i in range(self.dim):
            if not span.contains(self.basis_vec(i)):
                gens.append(self.basis_vec(i))
                span = self._closure_span(gens)
        self._gens = gens
        return gens

    def _closure_span(self, vectors):
        rows = [self.unit] + [tuple(v) for v in vectors]
        span = Subspace.from_rows(self.field, self.dim, rows)
        while True:
            basis = [span.basis.row(i) for i in range(span.dim)]
            new_rows = basis[:]
            for x in basis:
                for y in basis:
                    new_rows.append(self.mult_vec(x, y))
            bigger = Subspace.from_rows(self.field, self.dim, new_rows)
            if bigger.dim == span.dim:
                return span
            span = bigger

    # -- quiver access ---------------------------------------------------------------

    def element_from_path(self, written_path):
        """Element for a written-order arrow path (or a vertex's trivial path)."""
        if self.presentation is None:
            raise InputError("algebra carries no quiver presentation")
        if not written_path:
            raise InputError("empty path")
        if len(written_path) == 1 and written_path[0] in self.presentation.vertices:
            name = f"e_{written_path[0]}"
            return self.basis_vec(self.basis_names.index(name))
        prod = None
        for arrow_name in reversed(list(written_path)):
            try:
                idx = self.basis_names.index(arrow_name)
            except ValueError:
                raise UnknownLabel(f"unknown arrow {arrow_name!r}")
            v = self.basis_vec(idx)
            prod = v if prod is None else self.mult_vec(v, prod)
        return prod

    # -- derived algebras ---------------------------------------------------------------

    def opposite(self):
        if self._op is not None:
            return self._op
        n = self.dim
        mult = tuple(tuple(self.mult[j][i] for j in range(n)) for i in range(n))
        rad = self._radical
        op = Algebra(
            self.field,
            self.basis_names,
            mult,
            self.unit,
            self.idempotents,
            presentation=None,
            arrow_indices=self.arrow_indices,
            radical_rows=[rad.basis.row(i) for i in range(rad.dim)] if rad is not None else None,
            validate_level=None,
        )
        op.validate("fast")
        self._op = op
        op._op = self
        return op

    def two_sided_ideal(self, e):
        """AeA as a Subspace of A."""
        e = self.coerce_vec(e)
        key = ("ideal", e)
        if key in self._derived:
            return self._derived[key]
        out = self._two_sided_ideal(e)
        self._derived[key] = out
        return out

    def _two_sided_ideal(self, e):
        right = [self.mult_vec(e, self.basis_vec(j)) for j in range(self.dim)]
        right_span = Subspace.from_rows(self.field, self.dim, right)
        rows = []
        for r in range(right_span.dim):
            v = right_span.basis.row(r)
            for i in range(self.dim):
                rows.append(self.mult_vec(self.basis_vec(i), v))
        return Subspace.from_rows(self.field, self.dim, rows)

    def corner(self, e):
        """(eAe, embedding matrix dim(A) x dim(eAe))."""
        e = self.coerce_vec(e)
        key = ("corner", e)
        if key in self._derived:
            return self._derived[key]
        out = self._corner(e)
        self._derived[key] = out
        return out

    def _corner(self, e):
        summands = self.subset_sum_decomposition(e)
        f = self.field
        rows = [self.mult_vec(e, self.mult_vec(self.basis_vec(i), e)) for i in range(self.dim)]
        S = Subspace.from_rows(f, self.dim, rows)
        basis = [S.basis.row(i) for i in range(S.dim)]

        def coords_of(vectors):
            C = S.coordinates(Matrix.from_columns(f, vectors, nrows=self.dim))
            return [tuple(C.col(j)) for j in range(C.cols)]

        mult = [tuple(_sparse(f, c) for c in coords_of([self.mult_vec(x, y) for y in basis]))
                for x in basis]
        idems = list(zip(coords_of([self.idempotents[k][0] for k in summands]),
                         [self.idempotents[k][1] for k in summands]))
        rad = self.radical()
        rad_rows = coords_of([self.mult_vec(e, self.mult_vec(rad.basis.row(i), e)) for i in range(rad.dim)])
        names = [f"c{i}" for i in range(S.dim)]
        out = Algebra(f, names, tuple(mult), coords_of([e])[0], idems,
                      radical_rows=rad_rows, validate_level="fast")
        return out, S.inclusion()

    def quotient_by_idempotent_ideal(self, e):
        """(A/AeA, projection matrix dim(quotient) x dim(A))."""
        e = self.coerce_vec(e)
        key = ("quotient", e)
        if key in self._derived:
            return self._derived[key]
        out = self._quotient_by_idempotent_ideal(e)
        self._derived[key] = out
        return out

    def _quotient_by_idempotent_ideal(self, e):
        summands = self.subset_sum_decomposition(e)
        supp = {self.idempotents[k][1] for k in summands}
        f = self.field
        J = self.two_sided_ideal(e)
        proj = J.projection_matrix()
        lift = J.lift_matrix()
        qdim = self.dim - J.dim
        reps = [lift.col(j) for j in range(qdim)]
        mult = []
        for x in reps:
            mrow = []
            for y in reps:
                img = proj * Matrix.column(f, list(self.mult_vec(tuple(x), tuple(y))))
                mrow.append(_sparse(f, img.col(0)))
            mult.append(tuple(mrow))
        def project(v):
            return tuple((proj * Matrix.column(f, list(v))).col(0))
        idems = []
        for k, (v, lab) in enumerate(self.idempotents):
            if lab in supp:
                if not J.contains(v):
                    raise InvalidAlgebra("idempotent with supported label survives the quotient")
                continue
            img = project(v)
            if all(f.is_zero(x) for x in img):
                raise InvalidAlgebra(f"idempotent labelled {lab} dies in the quotient")
            idems.append((img, lab))
        rad = self.radical()
        rad_rows = [project(rad.basis.row(i)) for i in range(rad.dim)]
        names = [f"q{i}" for i in range(qdim)]
        out = Algebra(f, names, tuple(mult), project(self.unit), idems,
                      radical_rows=rad_rows, validate_level="fast")
        return out, proj

    def subalgebra_closure(self, idem_gens, gens=()):
        """Smallest multiplicatively closed subspace containing the designated
        idempotent family (with labels) and the extra generators.

        idem_gens: sequence of (element vector, label) -- becomes the
        distinguished family of the subalgebra, validated as such.
        Returns (B, embedding matrix dim(A) x dim(B)).
        """
        f = self.field
        vectors = [self.coerce_vec(v) for v, _ in idem_gens] + [self.coerce_vec(g) for g in gens]
        span = Subspace.from_rows(f, self.dim, vectors)
        while True:
            basis = [span.basis.row(i) for i in range(span.dim)]
            rows = basis[:]
            for x in basis:
                for y in basis:
                    rows.append(self.mult_vec(tuple(x), tuple(y)))
            bigger = Subspace.from_rows(f, self.dim, rows)
            if bigger.dim == span.dim:
                break
            span = bigger
        if not span.contains(self.unit):
            raise NotUnital("closure does not contain the unit of the ambient algebra")
        basis = [span.basis.row(i) for i in range(span.dim)]

        def coords_of(vectors):
            try:
                C = span.coordinates(Matrix.from_columns(f, vectors, nrows=self.dim))
            except NotInSubspace as exc:
                raise InvalidAlgebra("element escapes the closure") from exc
            return [tuple(C.col(j)) for j in range(C.cols)]

        mult = [tuple(_sparse(f, c) for c in coords_of([self.mult_vec(tuple(x), tuple(y)) for y in basis]))
                for x in basis]
        idems = list(zip(coords_of([self.coerce_vec(v) for v, _ in idem_gens]), [lab for _, lab in idem_gens]))
        names = [f"b{i}" for i in range(span.dim)]
        level = "full" if span.dim <= FULL_VALIDATION_DIM else "fast"
        out = Algebra(f, names, tuple(mult), coords_of([self.unit])[0], idems, validate_level=level)
        return out, span.inclusion()

    def tensor_product(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        f = self.field
        nA, nB = self.dim, other.dim
        dim = nA * nB

        def flat(i, j):
            return i * nB + j

        names = [f"({self.basis_names[i]}|{other.basis_names[j]})" for i in range(nA) for j in range(nB)]
        mult = []
        for i in range(nA):
            for j in range(nB):
                row = []
                for k in range(nA):
                    for l in range(nB):
                        entries = []
                        for (a, ca) in self.mult[i][k]:
                            for (b, cb) in other.mult[j][l]:
                                entries.append((flat(a, b), f.mul(ca, cb)))
                        entries.sort(key=lambda t: t[0])
                        row.append(tuple(entries))
                mult.append(tuple(row))
        def outer(u, v):
            return tuple(f.mul(u[i], v[j]) for i in range(nA) for j in range(nB))
        unit = outer(self.unit, other.unit)
        idems = []
        for u, la in self.idempotents:
            for v, lb in other.idempotents:
                idems.append((outer(u, v), f"({la},{lb})"))
        radA = self.radical()
        radB = other.radical()
        rad_rows = []
        for i in range(radA.dim):
            r = radA.basis.row(i)
            for j in range(nB):
                rad_rows.append(outer(tuple(r), other.basis_vec(j)))
        for i in range(nA):
            for j in range(radB.dim):
                rad_rows.append(outer(self.basis_vec(i), tuple(radB.basis.row(j))))
        level = "full" if dim <= FULL_VALIDATION_DIM else "fast"
        return Algebra(f, names, tuple(mult), unit, idems, radical_rows=rad_rows, validate_level=level)

    # -- equality (content-based; used by round-trip tests) -------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.basis_names == other.basis_names
            and self.mult == other.mult
            and self.unit == other.unit
            and self.idempotents == other.idempotents
        )

    def __hash__(self):
        return hash((self.field, self.basis_names, self.unit))

    def __repr__(self):
        return f"Algebra(dim {self.dim}, labels {list(self.labels)})"


def compile_quiver(pres: QuiverPresentation, fld) -> Algebra:
    """Compile a bound quiver presentation to a validated Algebra."""
    paths, ideal, reps, _ = compile_presentation(pres, fld)
    f = fld
    L = pres.max_path_length
    rep_pos = {p_idx: k for k, p_idx in enumerate(reps)}
    names = [paths[i].name() for i in reps]
    dim = len(reps)
    proj = ideal.projection_matrix()

    def class_of(path_idx):
        v = [f.zero] * len(paths)
        v[path_idx] = f.one
        img = proj * Matrix.column(f, v)
        return tuple(img.col(0))

    # representatives are honest paths, so products are concatenations
    mult = []
    path_key = {}
    for p in paths:
        path_key[(p.source,) + p.arrows] = p.index
    for i in reps:
        p = paths[i]
        mrow = []
        for j in reps:
            q = paths[j]
            if q.target != p.source:
                mrow.append(())
                continue
            arrows = q.arrows + p.arrows  # q acts first
            if len(arrows) >= L:
                mrow.append(())
                continue
            cidx = path_key[(q.source,) + arrows]
            mrow.append(_sparse(f, class_of(cidx)))
        mult.append(tuple(mrow))

    unit = [f.zero] * dim
    idems = []
    for v in pres.vertices:
        path_idx = path_key[(v,)]
        k = rep_pos[path_idx]
        unit[k] = f.add(unit[k], f.one)
        vec = [f.zero] * dim
        vec[k] = f.one
        idems.append((tuple(vec), v))

    arrow_idx = []
    rad_rows = []
    for k, p_idx in enumerate(reps):
        if len(paths[p_idx].arrows) == 1:
            arrow_idx.append(k)
        if len(paths[p_idx].arrows) >= 1:
            vec = [f.zero] * dim
            vec[k] = f.one
            rad_rows.append(tuple(vec))

    level = "full" if dim <= FULL_VALIDATION_DIM else "fast"
    return Algebra(f, names, tuple(mult), tuple(unit), idems, presentation=pres,
                   arrow_indices=arrow_idx, radical_rows=rad_rows, validate_level=level)


def structure_constant_algebra(fld, basis_names, table, unit, idempotents_with_labels):
    """Build from raw data: table entries (i, j, k, coeff); fully validated."""
    n = len(basis_names)
    grid = [[dict() for _ in range(n)] for _ in range(n)]
    for i, j, k, c in table:
        c = fld.coerce(c)
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise InputError("structure constant index out of range")
        grid[i][j][k] = fld.add(grid[i][j].get(k, fld.zero), c)
    mult = tuple(
        tuple(tuple(sorted((k, c) for k, c in grid[i][j].items() if not fld.is_zero(c))) for j in range(n))
        for i in range(n)
    )
    idems = [(tuple(fld.coerce(x) for x in v), lab) for v, lab in idempotents_with_labels]
    return Algebra(fld, basis_names, mult, [fld.coerce(x) for x in unit], idems, validate_level="full")
