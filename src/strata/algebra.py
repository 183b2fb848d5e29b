"""Finite-dimensional algebras as validated structure-constant data.

An Algebra is a basis with a multiplication table, a unit, and a distinguished
family of primitive orthogonal idempotents carrying simple labels.  Several
idempotents may share a label (non-basic algebras).

The table is one integer Matrix, n x n^2: row i, block j (columns
j*n .. j*n + n-1) holds the coordinates of b_i * b_j.  It is the only stored
form of the multiplication, and every reader cuts what it needs from it: the
matrices L_i of a |-> b_i * a are its rows reshaped, their right twins R_j
every n-th row of its n^2 x n reshape, and the regular module's stack is that
reshape with each block transposed.  Products of whole families of elements
are two block products against the table -- X times the table, then Y into
each row of that cut into n blocks (Matrix.mul_row_blocks) -- one elimination
per span instead of one product per pair of elements; the matrix of right
multiplication by x is the second of them alone, with Y = x.

A generating set is read off one elimination rather than searched for: the
idempotents and the basis vectors outside span(idempotents) + rad² generate A,
because rad A is nilpotent (Nakayama; see generators()).  The one closure loop,
_closure, serves subalgebra_closure on generators the caller supplies.

Every way of obtaining an algebra -- quiver compilation, raw structure
constants, corner, quotient by an idempotent ideal, subalgebra closure,
opposite -- funnels through validate(), which runs four
checks: the unit, the idempotent family (idempotent, nonzero, orthogonal,
summing to the unit), associativity, and primitivity with labels (e_aAe_a is
local with residue field k; e_a and e_b share a label exactly when e_aAe_b is
not inside the radical, i.e. when their projectives are isomorphic).  Where a
table enters from outside -- compile_quiver and structure_constant_algebra --
every check runs; associativity is certified exactly, at every size, as
L_i L_j == sum_k c_ij^k L_k for every pair (i, j).  A construction from
certified algebras names what its result inherits, and validate() skips
exactly that:

- the subalgebra closure inherits associativity (a closed subspace,
  re-checked by Subspace.coordinates), and nothing else: a subalgebra can
  separate isomorphic projectives, so the labels are checked again (the
  tensor product of two certified algebras, built in the tests, inherits the
  same);
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

Every algebra belongs to a family (memo.Family), and every derived algebra is
built through _intern: it is kept on the family under its content -- field,
basis names, table, unit, labelled idempotents and presentation -- so a
content-equal corner, quotient, opposite or closure reached again, from this
algebra or from any other of the family, is the object built first, and it
lives as long as the family.  An algebra constructed directly is the only
member of a new family; join() moves a root just loaded into a shared one
(a verify-paper run), where a content-equal root already there takes its place.

An element -- the unit, a distinguished idempotent, a generator, a product --
is a canonical 1 x n row Matrix over the algebra's field, so it multiplies the
table and the action matrices directly and serves as a memo key as it is.
coerce_vec is the one way in for coordinates given any other way (a spec file,
--e, a literal).
"""

from __future__ import annotations

from .errors import (
    InputError,
    InvalidAlgebra,
    InvariantViolation,
    NotIdempotent,
    NotIdempotentSum,
    NotInSubspace,
    NotUnital,
    RadicalUnsupportedCharacteristic,
    UnknownLabel,
)
from .kernel.matrix import Matrix
from .kernel.subspace import Subspace
from .memo import Family, derived
from .quiver import QuiverPresentation, compile_presentation


def _element(field, dim, v):
    """v as an element of a dim-dimensional algebra: a 1 x dim row over field
    passes through, a sequence of dim scalars (Fractions, ints or literals) is
    coerced into the field."""
    if isinstance(v, Matrix):
        if v.field != field or (v.rows, v.cols) != (1, dim):
            raise InputError(f"element is a {v.rows}x{v.cols} matrix over {v.field}, "
                             f"algebra has dim {dim} over {field}")
        return v
    if len(v) != dim:
        raise InputError(f"element has length {len(v)}, algebra has dim {dim}")
    return Matrix(field, 1, dim, [field.coerce(x) for x in v])


def _content_key(field, names, table, unit, idems, presentation):
    """An algebra's key in its family: everything a report can read of it, and
    nothing about where it came from."""
    return ("algebra", field, tuple(names), table, unit,
            tuple((v, str(lab)) for v, lab in idems), presentation)


def _table_from_columns(C):
    """The table of a d-dimensional algebra from the d x d^2 matrix whose
    column x*d + y holds the coordinates of b_x * b_y."""
    d = C.rows
    return C.transpose().reshape(d, d * d)


# What validate() may skip: the checks an algebra inherits from the certified
# algebras it is built from (see the module docstring).
ASSOCIATIVITY = frozenset({"associativity"})  # subalgebra closures
EVERY_CHECK = frozenset({"unit", "idempotents", "associativity", "labels"})  # corners, quotients, opposites


class Algebra:
    def __init__(self, field, basis_names, table, unit, idempotents, presentation=None,
                 radical_rows=None, inherits=frozenset(), family=None):
        self.field = field
        self.basis_names = tuple(basis_names)
        self.dim = n = len(self.basis_names)
        if not isinstance(table, Matrix) or table.field != field or (table.rows, table.cols) != (n, n * n):
            raise InvalidAlgebra(f"multiplication table must be a {n}x{n * n} matrix over {field}")
        self.table = table  # row i, block j: b_i * b_j
        self.unit = unit
        self.idempotents = tuple((v, str(lab)) for v, lab in idempotents)
        labels = []
        for _, lab in self.idempotents:
            if lab not in labels:
                labels.append(lab)
        self.labels = tuple(labels)
        self.presentation = presentation
        self._radical = Subspace.row_space(radical_rows) if radical_rows is not None else None
        self._inherits = inherits  # checks validate() skips (see the module docstring)
        self._derived = {}
        self.validate()
        if family is None:  # a root of its own: the one member of a new family
            family = Family()
            derived(family, self._key(), lambda: self)
        self.family = family

    def _key(self):
        return _content_key(self.field, self.basis_names, self.table, self.unit, self.idempotents,
                            self.presentation)

    def _intern(self, names, table, unit, idems, radical_rows=None, inherits=EVERY_CHECK):
        """The derived algebra with this content, kept on this algebra's family:
        built and validated on the first request, the same object on every later
        one, from any algebra of the family."""
        key = _content_key(self.field, names, table, unit, idems, None)
        return derived(self.family, key, Algebra, self.field, names, table, unit, idems, None,
                       radical_rows, inherits, self.family)

    def join(self, family):
        """The member of family with this algebra's content: this algebra, moved
        into family, when it holds none yet.  Only a root that nothing has been
        derived from may join, so its family is left with no other member."""
        return derived(family, self._key(), self._join, family)

    def _join(self, family):
        if any(B is not self for B in (self.family._derived or {}).values()):
            raise InvariantViolation("an algebra joins a family before anything is derived from it")
        self.family = family
        return self

    # -- element arithmetic -------------------------------------------------

    def basis_vec(self, i):
        return Matrix.from_integers(self.field, 1, self.dim, [((i,), (1,))])

    def coerce_vec(self, v):
        """The element v as a 1 x dim row: see _element."""
        return _element(self.field, self.dim, v)

    def left_mult_matrix(self, vec):
        """Matrix of a |-> vec * a in the basis (columns = vec * b_j).

        Row j of (vec · table) reshaped to n x n is vec * b_j."""
        n = self.dim
        return (vec * self.table).reshape(n, n).transpose()

    def right_mult_matrix(self, vec):
        """Matrix of a |-> a * vec in the basis (columns = b_j * vec).

        Row j of products(None, vec) is sum_k vec_k b_j * b_k = b_j * vec."""
        return self.products(None, vec).transpose()

    def mult_vec(self, x, y):
        """x * y: row j of (x · table) reshaped to n x n is x * b_j."""
        return y * (x * self.table).reshape(self.dim, self.dim)

    def products(self, X=None, Y=None):
        """The rows x * y for every row x of X and every row y of Y, x-major.

        X and Y are matrices of row vectors; None stands for the basis.  This
        is two block products against the table of basis products, whatever
        the number of pairs: X times the table, whose row c, block b is
        x_c * b_b, then Y into each of its rows cut into n blocks.
        """
        n = self.dim
        # row c, block b: x_c * b_b
        W = self.table if X is None else X * self.table
        if Y is None:
            return W.reshape(W.rows * n, n)
        # row c*s + e is sum_b Y[e, b] x_c * b_b = x_c * y_e
        return Y.mul_row_blocks(W, n)

    def is_idempotent(self, vec):
        return self.mult_vec(vec, vec) == vec

    # -- labels and idempotents ----------------------------------------------

    def _family(self):
        """The distinguished idempotents as the rows of one matrix (none when dim A = 0)."""
        if not self.idempotents:
            return Matrix.zeros(self.field, 0, self.dim)
        return Matrix.vcat([v for v, _ in self.idempotents])

    def idempotents_for_label(self, label):
        out = [v for v, lab in self.idempotents if lab == str(label)]
        if not out:
            raise UnknownLabel(f"no idempotent labelled {label!r}")
        return out

    def idempotent_for_label(self, label):
        return self.idempotents_for_label(label)[0]

    def sum_idempotents(self, indices):
        return Matrix.linear_combination(self.field, 1, self.dim, [(1, self.idempotents[i][0]) for i in indices])

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
        x = self._family().transpose().solve(e.transpose())
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
        if (self.unit.rows, self.unit.cols) != (1, n):
            raise InvalidAlgebra("unit has wrong length")
        ident = Matrix.identity(self.field, n)
        if self.left_mult_matrix(self.unit) != ident or self.right_mult_matrix(self.unit) != ident:
            raise InvalidAlgebra("unit is not a two-sided identity")

    def check_idempotents(self):
        """The distinguished family: idempotent, nonzero, orthogonal, summing to the unit."""
        k = len(self.idempotents)
        family = self._family()
        prods = self.products(family, family)  # row a*k + b: v_a * v_b
        for a, (v, _) in enumerate(self.idempotents):
            if prods.take_rows([a * k + a]) != v:
                raise InvalidAlgebra(f"distinguished element {a} is not idempotent")
            if v.is_zero():
                raise InvalidAlgebra(f"distinguished idempotent {a} is zero")
            for b in range(a + 1, k):
                if prods.nonzeros[a * k + b] or prods.nonzeros[b * k + a]:
                    raise InvalidAlgebra(f"idempotents {a},{b} are not orthogonal")
        if self.sum_idempotents(range(k)) != self.unit:
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
            return Subspace.column_space(lefts[a] * rights[b])

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
        return Subspace.column_space(G.transpose().kernel_basis())

    # -- generators (for intertwiner solvers) --------------------------------------

    def generators(self):
        """A matrix whose rows generate A as an algebra: the distinguished
        idempotents, then the basis vectors b_i at the complement coordinates of
        S = span(idempotents) + rad². Built once.

        They generate A because rad A is nilpotent: a subalgebra C with
        C + rad² = A has rad = (C ∩ rad) + rad², so rad^k ⊆ C + rad^(k+1) for
        every k, and C = A.  For a quiver algebra with homogeneous relations the
        complement is the arrows.
        """
        return derived(self, ("generators",), self._read_generators)

    def _read_generators(self):
        R = self.radical().basis
        family = self._family()
        S = Subspace.row_space(family.vstack(self.products(R, R)))
        return family.vstack(Matrix.identity(self.field, self.dim).take_rows(S.complement_coords()))

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
        """A^op, kept under ("opposite",); A^op keeps A under the same key."""
        return derived(self, ("opposite",), self._opposite)

    def _opposite(self):
        n = self.dim
        # row i*n + j of the n^2 x n reshape is b_i * b_j; in A^op it is b_j * b_i
        table = self.table.reshape(n * n, n).take_rows([j * n + i for i in range(n) for j in range(n)])
        rad = self._radical
        # the transpose of a certified table inherits every check
        op = self._intern(self.basis_names, table.reshape(n, n * n), self.unit, self.idempotents,
                          radical_rows=rad.basis if rad is not None else None)
        # when op was in the family already (k^op is k itself) its entry stands
        derived(op, ("opposite",), lambda: self)
        return op

    def two_sided_ideal(self, e):
        """AeA as a Subspace of A."""
        e = self.coerce_vec(e)
        return derived(self, ("ideal", e), self._two_sided_ideal, e)

    def _two_sided_ideal(self, e):
        eA = Subspace.column_space(self.left_mult_matrix(e))
        return Subspace.row_space(self.products(None, eA.basis))

    def corner(self, e):
        """(eAe, embedding matrix dim(A) x dim(eAe))."""
        e = self.coerce_vec(e)
        return derived(self, ("corner", e), self._corner, e)

    def _corner(self, e):
        summands = self.subset_sum_decomposition(e)
        sandwich = self.left_mult_matrix(e) * self.right_mult_matrix(e)  # a |-> e a e
        S = Subspace.column_space(sandwich)
        table = _table_from_columns(S.coordinates(self.products(S.basis, S.basis).transpose()))
        # the coordinates in eAe of the summands of e, of e itself and of e rad(A) e, as rows
        family = S.coordinates(self._family().take_rows(summands).transpose()).transpose()
        idems = [(family.take_rows([t]), self.idempotents[k][1]) for t, k in enumerate(summands)]
        rad = S.coordinates(self.radical().restrict(sandwich)).transpose()
        names = [f"c{i}" for i in range(S.dim)]
        out = self._intern(names, table, S.coordinates(e.transpose()).transpose(), idems, radical_rows=rad)
        return out, S.inclusion()

    def quotient_by_idempotent_ideal(self, e):
        """(A/AeA, projection matrix dim(quotient) x dim(A)), built once per ideal AeA.

        The build reads e only through J = AeA and the labels of e's summands,
        and J fixes those labels: they are the labels of the distinguished
        idempotents in J.  A summand lies in J, and an idempotent e_c in AeA
        factors through Ae, so P_c is isomorphic to a summand's projective and
        shares its label (the build checks both).  So the subset sums of one
        support share one quotient.
        """
        e = self.coerce_vec(e)
        J = self.two_sided_ideal(e)
        return derived(self, ("quotient", J), self._quotient_by_idempotent_ideal, e, J)

    def _quotient_by_idempotent_ideal(self, e, J):
        summands = self.subset_sum_decomposition(e)
        supp = {self.idempotents[k][1] for k in summands}
        f, n = self.field, self.dim
        # the quotient inherits associativity once J is certified two-sided:
        # g J, J g ⊆ J for the generators g, hence for all of A (words in them)
        G = self.generators()
        try:
            J.coordinates(self.products(G, J.basis).vstack(self.products(J.basis, G)).transpose())
        except NotInSubspace as exc:
            raise InvalidAlgebra("AeA is not a two-sided ideal") from exc
        proj = J.projection_matrix()
        comp = J.complement_coords()
        qdim = len(comp)
        # the classes of b_x * b_y, for x, y running over the complement coordinates
        products = self.table.reshape(n * n, n).take_rows([x * n + y for x in comp for y in comp])
        table = _table_from_columns(J.project(products.transpose()))
        to_classes = proj.transpose()  # a row times it is the row's class
        idems = []
        for v, lab in self.idempotents:
            if lab in supp:
                if not J.contains(v):
                    raise InvalidAlgebra("idempotent with supported label survives the quotient")
                continue
            img = v * to_classes
            if img.is_zero():
                raise InvalidAlgebra(f"idempotent labelled {lab} dies in the quotient")
            idems.append((img, lab))
        names = [f"q{i}" for i in range(qdim)]
        out = self._intern(names, table, self.unit * to_classes, idems,
                           radical_rows=self.radical().basis * to_classes)
        return out, proj

    def subalgebra_closure(self, idem_gens, gens=()):
        """Smallest multiplicatively closed subspace containing the designated
        idempotent family (with labels) and the extra generators.

        idem_gens: sequence of (element vector, label) -- becomes the
        distinguished family of the subalgebra, validated as such.
        Returns (B, embedding matrix dim(A) x dim(B)).
        """
        if not idem_gens:
            raise InvalidAlgebra("a subalgebra needs a distinguished idempotent family")
        family = Matrix.vcat([self.coerce_vec(v) for v, _ in idem_gens])
        span = self._closure(Subspace.row_space(Matrix.vcat([family] + [self.coerce_vec(g) for g in gens])))
        if not span.contains(self.unit):
            raise NotUnital("closure does not contain the unit of the ambient algebra")

        def coordinates(img):  # coordinates of the columns of img
            try:
                return span.coordinates(img)
            except NotInSubspace as exc:
                raise InvalidAlgebra("element escapes the closure") from exc

        table = _table_from_columns(coordinates(self.products(span.basis, span.basis).transpose()))
        family = coordinates(family.transpose()).transpose()  # the idempotents' coordinates, as rows
        idems = [(family.take_rows([t]), lab) for t, (_, lab) in enumerate(idem_gens)]
        names = [f"b{i}" for i in range(span.dim)]
        out = self._intern(names, table, coordinates(self.unit.transpose()).transpose(), idems,
                           inherits=ASSOCIATIVITY)
        return out, span.inclusion()

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

    # the idempotents are the trivial paths, the radical is spanned by the longer ones
    basis = Matrix.identity(f, dim)
    idems = [(basis.take_rows([rep_pos[path_key[(v,)]]]), v) for v in pres.vertices]
    unit = Matrix.linear_combination(f, 1, dim, [(1, v) for v, _ in idems])
    rad_rows = basis.take_rows([k for k, p_idx in enumerate(reps) if paths[p_idx].arrows])
    return Algebra(f, names, table, unit, idems, presentation=pres, radical_rows=rad_rows)


def structure_constant_algebra(fld, basis_names, table, unit, idempotents_with_labels):
    """Build from raw data: table entries (i, j, k, coeff); associativity included, validated."""
    n = len(basis_names)
    entries = [fld.zero] * (n * n * n)  # entry (i*n + j)*n + k: c_ij^k
    for i, j, k, c in table:
        c = fld.coerce(c)
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise InputError("structure constant index out of range")
        entries[(i * n + j) * n + k] = fld.add(entries[(i * n + j) * n + k], c)
    idems = [(_element(fld, n, v), lab) for v, lab in idempotents_with_labels]
    return Algebra(fld, basis_names, Matrix(fld, n, n * n, entries), _element(fld, n, unit), idems)
