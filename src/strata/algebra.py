"""Finite-dimensional algebras as validated structure-constant data.

An Algebra is a basis with a multiplication table, a unit, and a distinguished
family of primitive orthogonal idempotents carrying simple labels.  Several
idempotents may share a label (non-basic algebras).

The table is one integer Matrix, n x n^2: row i, block j (columns
j*n .. j*n + n-1) holds the coordinates of b_i * b_j.  It is the only stored
form of the multiplication, and every reader cuts what it needs from it: the
matrices L_i of a |-> b_i * a are its rows reshaped, their right twins R_j
every n-th row of its n^2 x n reshape.  Products of whole families of elements
are block products against the table, one elimination per span instead of one
product per pair of elements.

Every way of obtaining an algebra -- quiver compilation, raw structure
constants, corner, quotient by an idempotent ideal, subalgebra closure,
opposite, tensor product -- funnels through validate(), which runs four
checks: the unit, the idempotent family (idempotent, nonzero, orthogonal,
summing to the unit), associativity, and primitivity with labels (e_aAe_a is
local with residue field k; e_a and e_b share a label exactly when e_aAe_b is
not inside the radical, i.e. when their projectives are isomorphic).  Where a
table enters from outside -- compile_quiver and structure_constant_algebra --
every check runs; associativity is certified exactly, at every size, as
L_i L_j == sum_k c_ij^k L_k for every pair (i, j).  A construction from
certified algebras names what its result inherits, and validate() skips
exactly that:

- the subalgebra closure and the tensor product inherit associativity (a
  closed subspace, re-checked by Subspace.coordinates; certified factors),
  and nothing else: a subalgebra can separate isomorphic projectives, so the
  labels are checked again;
- the corner eAe, for e a sum of distinguished idempotents, inherits every
  check.  Its unit is e and its idempotents are the summands of e, so the
  family axioms are A's; e_a(eAe)e_b = e_aAe_b for the summands e_a, e_b, and
  rad(eAe) = e rad(A) e, so each corner space meets the radical as in A;
- the quotient A/AeA inherits every check, once AeA is certified two-sided
  (the constructor checks it against the generators).  The surviving
  idempotents are images of an orthogonal family summing to 1, less those in
  AeA, and the constructor raises if one of them dies.  rad(A/AeA) =
  (rad A + AeA)/AeA and ē_aĀē_a is a nonzero quotient of the local ring
  e_aAe_a, so primitivity and split residue fields pass down; an isomorphism
  P_a ≅ P_b stays one, and e_aAe_b ⊆ rad A maps into the radical.  In the
  non-basic case an idempotent e_c sharing a label with a summand e_a of e is
  a product through e_a (P_c ≅ P_a), so it lies in AeA and leaves the family;
  the constructor raises if one does not;
- the opposite inherits every check: A^op has the same unit, idempotents,
  radical and spaces e_aAe_b, and its table is the transpose of a certified
  one.

The inherited checks are re-run on derived algebras by the test suite, not
here.

Elements are plain coordinate tuples over the algebra's field.
"""

from __future__ import annotations

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
from .memo import derived
from .quiver import QuiverPresentation, compile_presentation


def _row_matrix(field, dim, vectors):
    """The vectors as the rows of a matrix (0 x dim when there are none)."""
    vectors = list(vectors)
    return Matrix.from_rows(field, vectors) if vectors else Matrix.zeros(field, 0, dim)


def _table_from_columns(C):
    """The table of a d-dimensional algebra from the d x d^2 matrix whose
    column x*d + y holds the coordinates of b_x * b_y."""
    d = C.rows
    return C.transpose().reshape(d, d * d)


# What validate() may skip: the checks an algebra inherits from the certified
# algebras it is built from (see the module docstring).
ASSOCIATIVITY = frozenset({"associativity"})  # subalgebra closures, tensor products
EVERY_CHECK = frozenset({"unit", "idempotents", "associativity", "labels"})  # corners, quotients, opposites


class Algebra:
    def __init__(self, field, basis_names, table, unit, idempotents, presentation=None,
                 arrow_indices=None, radical_rows=None, inherits=frozenset()):
        self.field = field
        self.basis_names = tuple(basis_names)
        self.dim = n = len(self.basis_names)
        if not isinstance(table, Matrix) or table.field != field or (table.rows, table.cols) != (n, n * n):
            raise InvalidAlgebra(f"multiplication table must be a {n}x{n * n} matrix over {field}")
        self.table = table  # row i, block j: b_i * b_j
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
        self._inherits = inherits  # checks validate() skips (see the module docstring)
        self._op = None
        self._gens = None
        self._derived = {}
        self.validate()

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

    def basis_left_mult(self, i):
        """L_i, the matrix of a |-> b_i * a: column j is b_i * b_j."""
        n = self.dim
        return self.table.take_rows([i]).reshape(n, n).transpose()

    def left_mult_matrix(self, vec):
        """Matrix of a |-> vec * a in the basis (columns = vec * b_j).

        Row j of (vec · table) reshaped to n x n is vec * b_j."""
        n = self.dim
        return (Matrix.from_rows(self.field, [vec]) * self.table).reshape(n, n).transpose()

    def right_mult_matrix(self, vec):
        """Matrix of a |-> a * vec in the basis (columns = b_j * vec).

        Row i of table · (vec ⊗ I) is sum_j vec_j b_i * b_j = b_i * vec."""
        f = self.field
        return (self.table * Matrix.column(f, list(vec)).kron(Matrix.identity(f, self.dim))).transpose()

    def mult_vec(self, x, y):
        return tuple((self.left_mult_matrix(x) * Matrix.column(self.field, list(y))).col(0))

    def products(self, X=None, Y=None):
        """The rows x * y for every row x of X and every row y of Y, x-major.

        X and Y are matrices of row vectors; None stands for the basis.  This
        is two block products against the table of basis products, whatever
        the number of pairs.
        """
        n = self.dim
        P = self.table
        r = n if X is None else X.rows
        # row c*n + j: x_c * b_j
        W = (P if X is None else X * P).reshape(r * n, n)
        if Y is None:
            return W
        s = Y.rows
        # H row j, block c: x_c * b_j; so row e, block c of Y * H is x_c * y_e
        H = W.take_rows([c * n + j for j in range(n) for c in range(r)]).reshape(n, r * n)
        Z = (Y * H).reshape(s * r, n)
        return Z.take_rows([e * r + c for c in range(r) for e in range(s)])

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
        """Indices S with e = sum of the S-indexed distinguished idempotents.

        Solved once per e; an e that is no such sum raises on every call."""
        e = self.coerce_vec(e)
        return derived(self, ("summands", e), self._subset_sum_decomposition, e)

    def _subset_sum_decomposition(self, e):
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

    def validate(self):
        """Check the algebra axioms, raising InvalidAlgebra on the first failure.

        A check is skipped when the algebra inherits it from the certified
        algebras it was built from (the constructor's inherits).
        """
        inherited = self._inherits
        if "unit" not in inherited:
            self.check_unit()
        if "idempotents" not in inherited:
            self.check_idempotents()
        if "associativity" not in inherited:
            self.check_associativity()
        if "labels" not in inherited:
            self._check_primitivity_and_labels()

    def check_unit(self):
        n = self.dim
        if len(self.unit) != n:
            raise InvalidAlgebra("unit has wrong length")
        ident = Matrix.identity(self.field, n)
        if self.left_mult_matrix(self.unit) != ident or self.right_mult_matrix(self.unit) != ident:
            raise InvalidAlgebra("unit is not a two-sided identity")

    def check_idempotents(self):
        """The distinguished family: idempotent, nonzero, orthogonal, summing to the unit."""
        f = self.field
        n = self.dim
        # column b of prods[a] is v_a * v_b
        family = _row_matrix(f, n, [v for v, _ in self.idempotents]).transpose()
        prods = [self.left_mult_matrix(v) * family for v, _ in self.idempotents]
        total = [f.zero] * n
        for a, (v, lab) in enumerate(self.idempotents):
            if tuple(prods[a].col(a)) != v:
                raise InvalidAlgebra(f"distinguished element {a} is not idempotent")
            if all(f.is_zero(x) for x in v):
                raise InvalidAlgebra(f"distinguished idempotent {a} is zero")
            total = [f.add(x, y) for x, y in zip(total, v)]
            for b in range(a + 1, len(self.idempotents)):
                if any(prods[a].col(b)) or any(prods[b].col(a)):
                    raise InvalidAlgebra(f"idempotents {a},{b} are not orthogonal")
        if tuple(total) != self.unit:
            raise InvalidAlgebra("distinguished idempotents do not sum to the unit")

    def check_associativity(self):
        """Certify (b_i b_j) b_l == b_i (b_j b_l) on every basis triple, exactly.

        That is L_i L_j == L(b_i b_j) == sum_k c_ij^k L_k for every pair (i, j),
        compared for one i at a time in two block products: row j*n + l of
        L_i^T P, P the table of all basis products, is (b_i b_j) b_l, and of
        (L_i [L_0 | ... | L_{n-1}])^T it is b_i (b_j b_l).
        """
        n = self.dim
        P = self.table  # row m, block l: b_m * b_l
        M = P.reshape(n * n, n).transpose()  # column j*n + l: b_j * b_l
        for i in range(n):
            Lt = P.take_rows([i]).reshape(n, n)  # L_i^T: row j is b_i * b_j
            left = (Lt * P).reshape(n * n, n)
            right = (Lt.transpose() * M).transpose()
            if left != right:
                row = next(r for r in range(n * n) if left.row(r) != right.row(r))
                j, l = divmod(row, n)
                raise InvalidAlgebra(f"associativity fails on basis triple ({i},{j},{l})")

    def _check_primitivity_and_labels(self):
        rad = self.radical()
        lefts = [self.left_mult_matrix(v) for v, _ in self.idempotents]
        rights = [self.right_mult_matrix(v) for v, _ in self.idempotents]

        def corner_span(a, b):
            # v_a A v_b: column i of L(v_a) R(v_b) is v_a * b_i * v_b
            return Subspace.row_space((lefts[a] * rights[b]).transpose())

        for a in range(len(self.idempotents)):
            eAe = corner_span(a, a)
            if eAe.dim - eAe.intersect(rad).dim != 1:
                raise InvalidAlgebra("distinguished idempotent is not primitive (or the algebra is not split)")
        # same label <=> isomorphic projectives <=> e A e' not inside the radical
        for a in range(len(self.idempotents)):
            la = self.idempotents[a][1]
            for b in range(a + 1, len(self.idempotents)):
                lb = self.idempotents[b][1]
                in_rad = rad.contains_space(corner_span(a, b))
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
        f, n, P = self.field, self.dim, self.table
        # t[k] = trace of L_k = sum_l c_kl^l, the entries (k, l*n + l) of the table
        traces = [r and ((0,), (sum([x for j, x in zip(*r) if not j % (n + 1)]),)) for r in P.nonzeros]
        t = Matrix.from_integers(f, n, 1, traces, P.den)
        # G[i, j] = tr(L(b_i * b_j)) = sum_k c_ij^k t[k]
        G = (P.reshape(n * n, n) * t).reshape(n, n)
        K = G.transpose().kernel_basis()
        return Subspace.from_rows(f, self.dim, [K.col(j) for j in range(K.cols)])

    # -- generators (for intertwiner solvers) --------------------------------------

    def generators(self):
        """Element vectors generating A as an algebra, idempotents first."""
        if self._gens is None:
            # a set generates A exactly when it generates A^op
            twin = self._op
            self._gens = twin._gens if twin is not None and twin._gens is not None else self._find_generators()
        return self._gens

    def generator_rows(self):
        """generators() as the rows of a matrix, built once."""
        return derived(self, ("generator rows",), lambda: Matrix.from_rows(self.field, self.generators()))

    def _find_generators(self):
        f, n = self.field, self.dim
        gens = [v for v, _ in self.idempotents]
        if self.arrow_indices is not None:
            return gens + [self.basis_vec(i) for i in self.arrow_indices]
        span = self._closure(Subspace.from_rows(f, n, [self.unit] + gens))
        for i in range(n):
            b = self.basis_vec(i)
            if not span.contains(b):
                gens.append(b)
                # the closure of a closed span and b is the closure of gens
                span = self._closure(span.plus(Subspace.from_rows(f, n, [b])))
        return gens

    def _closure(self, span):
        """Smallest subspace containing span and closed under multiplication."""
        while True:
            B = span.basis
            bigger = Subspace.row_space(B.vstack(self.products(B, B)))
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
        # row i*n + j of the n^2 x n reshape is b_i * b_j; in A^op it is b_j * b_i
        table = self.table.reshape(n * n, n).take_rows([j * n + i for i in range(n) for j in range(n)])
        rad = self._radical
        op = Algebra(
            self.field,
            self.basis_names,
            table.reshape(n, n * n),
            self.unit,
            self.idempotents,
            presentation=None,
            arrow_indices=self.arrow_indices,
            radical_rows=[rad.basis.row(i) for i in range(rad.dim)] if rad is not None else None,
            inherits=EVERY_CHECK,  # the transpose of a certified table
        )
        self._op = op
        op._op = self
        return op

    def two_sided_ideal(self, e):
        """AeA as a Subspace of A."""
        e = self.coerce_vec(e)
        return derived(self, ("ideal", e), self._two_sided_ideal, e)

    def _two_sided_ideal(self, e):
        eA = Subspace.row_space(self.left_mult_matrix(e).transpose())
        return Subspace.row_space(self.products(None, eA.basis))

    def corner(self, e):
        """(eAe, embedding matrix dim(A) x dim(eAe))."""
        e = self.coerce_vec(e)
        return derived(self, ("corner", e), self._corner, e)

    def _corner(self, e):
        summands = self.subset_sum_decomposition(e)
        f, n = self.field, self.dim
        sandwich = self.left_mult_matrix(e) * self.right_mult_matrix(e)  # a |-> e a e
        S = Subspace.row_space(sandwich.transpose())

        def coords_of(img):  # coordinates of the columns of img
            C = S.coordinates(img)
            return [tuple(C.col(j)) for j in range(C.cols)]

        table = _table_from_columns(S.coordinates(self.products(S.basis, S.basis).transpose()))
        idems = list(zip(coords_of(_row_matrix(f, n, [self.idempotents[k][0] for k in summands]).transpose()),
                         [self.idempotents[k][1] for k in summands]))
        rad_rows = coords_of(sandwich * self.radical().inclusion())
        names = [f"c{i}" for i in range(S.dim)]
        out = Algebra(f, names, table, coords_of(Matrix.column(f, list(e)))[0], idems,
                      radical_rows=rad_rows, inherits=EVERY_CHECK)
        return out, S.inclusion()

    def quotient_by_idempotent_ideal(self, e):
        """(A/AeA, projection matrix dim(quotient) x dim(A))."""
        e = self.coerce_vec(e)
        return derived(self, ("quotient", e), self._quotient_by_idempotent_ideal, e)

    def _quotient_by_idempotent_ideal(self, e):
        summands = self.subset_sum_decomposition(e)
        supp = {self.idempotents[k][1] for k in summands}
        f, n = self.field, self.dim
        J = self.two_sided_ideal(e)
        # the quotient inherits associativity once J is certified two-sided:
        # g J, J g ⊆ J for the generators g, hence for all of A (words in them)
        G = _row_matrix(f, n, self.generators())
        try:
            J.coordinates(self.products(G, J.basis).vstack(self.products(J.basis, G)).transpose())
        except NotInSubspace as exc:
            raise InvalidAlgebra("AeA is not a two-sided ideal") from exc
        proj = J.projection_matrix()
        comp = J.complement_coords()
        qdim = len(comp)
        # the classes of b_x * b_y, for x, y running over the complement coordinates
        products = self.table.reshape(n * n, n).take_rows([x * n + y for x in comp for y in comp])
        table = _table_from_columns(proj * products.transpose())

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
        rad = proj * self.radical().inclusion()
        rad_rows = [rad.col(j) for j in range(rad.cols)]
        names = [f"q{i}" for i in range(qdim)]
        out = Algebra(f, names, table, project(self.unit), idems,
                      radical_rows=rad_rows, inherits=EVERY_CHECK)
        return out, proj

    def subalgebra_closure(self, idem_gens, gens=()):
        """Smallest multiplicatively closed subspace containing the designated
        idempotent family (with labels) and the extra generators.

        idem_gens: sequence of (element vector, label) -- becomes the
        distinguished family of the subalgebra, validated as such.
        Returns (B, embedding matrix dim(A) x dim(B)).
        """
        f, n = self.field, self.dim
        idem_vectors = [self.coerce_vec(v) for v, _ in idem_gens]
        vectors = idem_vectors + [self.coerce_vec(g) for g in gens]
        span = self._closure(Subspace.from_rows(f, n, vectors))
        if not span.contains(self.unit):
            raise NotUnital("closure does not contain the unit of the ambient algebra")

        def coordinates(img):  # coordinates of the columns of img
            try:
                return span.coordinates(img)
            except NotInSubspace as exc:
                raise InvalidAlgebra("element escapes the closure") from exc

        def coords_of(img):
            C = coordinates(img)
            return [tuple(C.col(j)) for j in range(C.cols)]

        table = _table_from_columns(coordinates(self.products(span.basis, span.basis).transpose()))
        idems = list(zip(coords_of(_row_matrix(f, n, idem_vectors).transpose()), [lab for _, lab in idem_gens]))
        names = [f"b{i}" for i in range(span.dim)]
        out = Algebra(f, names, table, coords_of(Matrix.column(f, list(self.unit)))[0], idems,
                      inherits=ASSOCIATIVITY)
        return out, span.inclusion()

    def tensor_product(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        f = self.field
        nA, nB = self.dim, other.dim
        dim = nA * nB
        names = [f"({self.basis_names[i]}|{other.basis_names[j]})" for i in range(nA) for j in range(nB)]
        # (b_i|b'_j)(b_k|b'_l) = b_i b_k | b'_j b'_l: row (i*nA + k)*nB^2 + j*nB + l of the Kronecker
        # product of the n^2 x n reshapes, in the order of (i*nB + j)*dim + k*nB + l
        kron = self.table.reshape(nA * nA, nA).kron(other.table.reshape(nB * nB, nB))
        table = kron.take_rows([(i * nA + k) * nB * nB + j * nB + l
                                for i in range(nA) for j in range(nB) for k in range(nA) for l in range(nB)])

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
        # both factors are certified
        return Algebra(f, names, table.reshape(dim, dim * dim), unit, idems, radical_rows=rad_rows,
                       inherits=ASSOCIATIVITY)

    # -- equality (content-based; used by round-trip tests) -------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.basis_names == other.basis_names
            and self.table == other.table
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

    # representatives are honest paths, so products are concatenations: the
    # product of two representatives is the projection of a path, or zero
    # (column proj.cols of the padded projection) when they do not compose
    path_key = {}
    for p in paths:
        path_key[(p.source,) + p.arrows] = p.index
    picks = []
    for i in reps:
        p = paths[i]
        for j in reps:
            q = paths[j]
            arrows = q.arrows + p.arrows  # q acts first
            if q.target != p.source or len(arrows) >= L:
                picks.append(proj.cols)
            else:
                picks.append(path_key[(q.source,) + arrows])
    table = _table_from_columns(proj.hstack(Matrix.zeros(f, dim, 1)).take_cols(picks))

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

    return Algebra(f, names, table, tuple(unit), idems, presentation=pres,
                   arrow_indices=arrow_idx, radical_rows=rad_rows)


def structure_constant_algebra(fld, basis_names, table, unit, idempotents_with_labels):
    """Build from raw data: table entries (i, j, k, coeff); associativity included, validated."""
    n = len(basis_names)
    entries = [fld.zero] * (n * n * n)  # entry (i*n + j)*n + k: c_ij^k
    for i, j, k, c in table:
        c = fld.coerce(c)
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise InputError("structure constant index out of range")
        entries[(i * n + j) * n + k] = fld.add(entries[(i * n + j) * n + k], c)
    idems = [(tuple(fld.coerce(x) for x in v), lab) for v, lab in idempotents_with_labels]
    return Algebra(fld, basis_names, Matrix(fld, n, n * n, entries), [fld.coerce(x) for x in unit], idems)
