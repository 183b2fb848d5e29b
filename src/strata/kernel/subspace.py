"""Subspaces of k^n in canonical (RREF row basis) form.

Used everywhere an ideal, submodule, span or quotient is manipulated.  The
canonical form makes equality a tuple comparison and fixes the deterministic
complement: coordinates at the non-pivot ambient positions, in ambient order.

Most subspaces the library builds are coordinate subspaces: spans of unit
vectors, whose canonical basis is the unit rows at the pivots (den 1, every row
((p,), (1,))).  Over path bases the traces, kernels, submodules and quotients
of modules are spanned by paths (Green, Happel and Zacharia 1985): 7,222 of
the 7,237 subspaces one `verify-paper` builds are coordinate ones.  A subspace
records at construction whether it is one, and for those these reads are
index picks on the pivots, with no product, transpose or elimination:

- the inclusion is the unit columns at the pivots, restrict (M times the
  inclusion) keeps M's pivot columns, embed (the inclusion times C) places C's
  rows at the pivots, and the projection and project keep the complement rows;
- coordinates keeps the pivot rows and checks that no other row holds an entry,
  and contains_columns makes the same check;
- so the action of a stack of square blocks on the subspace,
  coordinates(restrict(stack)), is each block's principal minor at the pivots,
  and its check is invariance (a row off the pivots may hold no entry at a
  pivot column); on the quotient, project(stack) at the complement columns, it
  is the minor at the complement.

Every other subspace takes the general path: products against the inclusion
and the projection, re-checked by one product in coordinates.  Both paths
refuse a wrongly shaped operand with DimensionMismatch before reading it.
column_space, the span of a matrix's columns, reads a coordinate subspace off
the rows of the entries when every column holds at most one, and eliminates
the transpose otherwise.  Per `verify-paper` these reads cut the transposes
from 16,052 to 5,415, the echelon forms from 6,807 to 2,881, the products
from 8,959 to 4,939 and the block products from 3,097 to 363.
"""

from __future__ import annotations

from bisect import bisect_left

from ..errors import DimensionMismatch, NotInSubspace
from .matrix import Matrix


class Subspace:
    __slots__ = ("field", "ambient_dim", "basis", "pivots", "coordinate", "_incl")

    def __init__(self, field, ambient_dim, basis: Matrix, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis  # RREF, one row per basis vector, no zero rows
        self.pivots = tuple(pivots)
        # a span of unit vectors: every basis row is the unit row at its pivot
        self.coordinate = basis.den == 1 and all(
            [r == ((p,), (1,)) for r, p in zip(basis.nonzeros, self.pivots)])
        self._incl = None

    @classmethod
    def row_space(cls, M: Matrix):
        """The span of the rows of M."""
        if M.is_zero():
            return cls(M.field, M.cols, Matrix.zeros(M.field, 0, M.cols), ())
        R, pivots = M.rref()
        # the leading rows hold every nonzero of the canonical R, so they are canonical as they are
        k = len(pivots)
        return cls(M.field, M.cols, Matrix._new(M.field, k, M.cols, R.den, R.nonzeros[:k]), pivots)

    @classmethod
    def column_space(cls, M: Matrix, blocks=1):
        """The span of the columns of the blocks row blocks of M (equal heights):
        row_space(M.transpose_blocks(blocks)).

        One pass over M's nonzeros: when every column of every block holds at most
        one entry, the span is the coordinate subspace on the rows those entries
        are in; otherwise the transpose is eliminated.
        """
        if blocks <= 0 or M.rows % blocks:
            raise DimensionMismatch(f"cannot split {M.rows} rows into {blocks} blocks")
        h, c = M.rows // blocks, M.cols
        seen = set()  # block * cols + column, for each occupied column
        rows = set()
        for i, r in enumerate(M.nonzeros):
            if r:
                base = (i // h) * c
                for j in r[0]:
                    j += base
                    if j in seen:
                        return cls.row_space(M.transpose_blocks(blocks))
                    seen.add(j)
                rows.add(i % h)
        pivots = sorted(rows)
        return cls(M.field, h, Matrix._new(M.field, len(pivots), h, 1, tuple([((p,), (1,)) for p in pivots])), pivots)

    @classmethod
    def from_rows(cls, field, ambient_dim, rows):
        rows = [r for r in rows]
        if not rows:
            return cls(field, ambient_dim, Matrix.zeros(field, 0, ambient_dim), ())
        return cls.row_space(Matrix.from_rows(field, rows))

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls.from_rows(field, ambient_dim, [])

    @classmethod
    def full(cls, field, ambient_dim):
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self):
        return len(self.pivots)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.pivots, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"

    def inclusion(self) -> Matrix:
        """ambient_dim x dim matrix whose columns are the basis vectors."""
        if self._incl is None:
            if self.coordinate:
                rows = [None] * self.ambient_dim
                for t, p in enumerate(self.pivots):
                    rows[p] = ((t,), (1,))
                self._incl = Matrix._new(self.field, self.ambient_dim, self.dim, 1, tuple(rows))
            else:
                self._incl = self.basis.transpose()
        return self._incl

    def embed(self, C: Matrix) -> Matrix:
        """The inclusion times C: the ambient vectors whose coordinates are the columns
        of C (C's rows placed at the pivots, for a coordinate subspace)."""
        if not self.coordinate:
            return self.inclusion() * C
        if C.rows != self.dim:
            raise DimensionMismatch(f"cannot embed {C.rows} coordinates in a {self!r}")
        rows = [None] * self.ambient_dim
        for p, r in zip(self.pivots, C.nonzeros):
            rows[p] = r
        return Matrix._new(self.field, self.ambient_dim, C.cols, C.den, tuple(rows))

    def restrict(self, M: Matrix) -> Matrix:
        """M times the inclusion: M restricted to the subspace (its pivot columns, for
        a coordinate subspace)."""
        if M.cols != self.ambient_dim:
            raise DimensionMismatch(f"cannot restrict {M.cols} columns to a {self!r}")
        if self.coordinate:
            return M.take_cols(self.pivots)
        return M * self.inclusion()

    def _check_blocks(self, M: Matrix, blocks):
        """Raise DimensionMismatch unless M is blocks row blocks of height ambient_dim."""
        if M.rows != blocks * self.ambient_dim:
            raise DimensionMismatch(f"{M.rows} rows are not {blocks} blocks of a {self!r}")

    def _off_pivots(self, img: Matrix):
        """True when some row of img off the pivots (in any of its row blocks of height
        ambient_dim) holds an entry."""
        n, pivset = self.ambient_dim, set(self.pivots)
        return any([r and i % n not in pivset for i, r in enumerate(img.nonzeros)])

    def coordinates(self, img: Matrix, blocks=1) -> Matrix:
        """C with inclusion() * C == img: the basis coordinates of the columns of img.

        With blocks = k, img is k row blocks of height ambient_dim stacked top
        to bottom, and C is their coordinate matrices stacked the same way.
        The coordinates of a vector in the span are its entries at the pivot
        positions (the basis is in RREF); one product re-checks them, and a
        column outside the subspace raises NotInSubspace.  For a coordinate
        subspace the check is that no row off the pivots holds an entry.
        """
        self._check_blocks(img, blocks)
        if self.coordinate and self._off_pivots(img):
            raise NotInSubspace(f"a vector leaves the {self!r}")
        n = self.ambient_dim
        C = img.take_rows([t * n + p for t in range(blocks) for p in self.pivots])
        if self.coordinate:
            return C
        if self.inclusion().mul_blocks(C, blocks) != img:
            raise NotInSubspace(f"a vector leaves the {self!r}")
        return C

    def contains_columns(self, img: Matrix):
        """True when every column of img lies in the subspace."""
        self._check_blocks(img, 1)
        if self.coordinate:
            return not self._off_pivots(img)
        return self.inclusion() * img.take_rows(self.pivots) == img

    def contains(self, vec: Matrix):
        """True when the 1 x ambient_dim row vec lies in the subspace."""
        return self.contains_columns(vec.transpose())

    def contains_space(self, other: "Subspace"):
        return self.contains_columns(other.inclusion())

    def plus(self, other: "Subspace"):
        return Subspace.row_space(self.basis.vstack(other.basis))

    def intersect(self, other: "Subspace"):
        # Row space of A meets row space of B: kernel of [A^T | -B^T] pairs.
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        K = self.inclusion().hstack(-other.inclusion()).kernel_basis()
        return Subspace.row_space(K.take_rows(range(self.dim)).transpose() * self.basis)

    # -- actions on the subspace and on the quotient ----------------------------

    def action_on(self, stack: Matrix, blocks) -> Matrix:
        """The coordinate matrices of each of the blocks square blocks of stack (each
        ambient_dim x ambient_dim) on the subspace, stacked.  Raises NotInSubspace
        when a block does not keep the subspace.  For a coordinate subspace each
        block's action is its principal minor at the pivots, and the check that
        certifies it is invariance: a row off the pivots may hold no entry at a
        pivot column."""
        return self.coordinates(self.restrict(stack), blocks)

    def quotient_action(self, stack: Matrix, blocks) -> Matrix:
        """The action of each of the blocks square blocks of stack on k^n / self, in
        complement coordinates, stacked: the projection times each block's complement
        columns (each block times the lift).  The subspace must be invariant under
        every block.  For a coordinate subspace it is each block's principal minor
        at the complement."""
        if stack.cols != self.ambient_dim:
            raise DimensionMismatch(f"cannot act by {stack.cols} columns on a quotient of k^{self.ambient_dim}")
        return self.project(stack, blocks).take_cols(self.complement_coords())

    # -- quotient bookkeeping ------------------------------------------------

    def complement_coords(self):
        """Ambient coordinates spanning a complement (non-pivots, ambient order)."""
        pivset = set(self.pivots)
        return [j for j in range(self.ambient_dim) if j not in pivset]

    def project(self, M: Matrix, blocks=1) -> Matrix:
        """The projection times each of the blocks row blocks of M (height
        ambient_dim), stacked: the columns of M mod the subspace, in complement
        coordinates (M's complement rows, for a coordinate subspace)."""
        self._check_blocks(M, blocks)
        if self.coordinate:
            n, comp = self.ambient_dim, self.complement_coords()
            return M.take_rows([t * n + c for t in range(blocks) for c in comp])
        return self.projection_matrix().mul_blocks(M, blocks)

    def projection_matrix(self):
        """Matrix of k^n -> k^C, v |-> (v mod self) in complement coordinates.

        v mod self is v - sum_t v[pivot_t] * basis_t, so the row of a complement
        coordinate c is e_c - sum_t basis[t][c] * e_{pivot_t}: column c of the
        basis, moved to the pivot columns and negated, with den at column c.  One
        pass over the basis gathers its columns; the RREF basis holds only den or
        0 at its pivot columns, so an entry off row t's own pivot is at a
        complement column, and these rows, over the basis's den, are in lowest
        terms as they are.  A coordinate subspace's basis has no such entry, so
        its projection comes out as the unit rows at the complement.
        """
        piv, p, den = self.pivots, self.field.char, self.basis.den
        col = {}  # complement coordinate c -> (the pivots, -basis[t][c]) over the rows t with an entry at c
        for t, r in enumerate(self.basis.nonzeros):
            pt = piv[t]
            for j, x in zip(*r):
                if j != pt:
                    w = col.get(j)
                    if w is None:
                        col[j] = w = ([], [])
                    w[0].append(pt)  # pivots increase with t
                    w[1].append(p - x if p else -x)
        out = []
        for c in self.complement_coords():
            w = col.get(c)
            if w is None:
                out.append(((c,), (den,)))
                continue
            where, vals = w
            k = bisect_left(where, c)
            where.insert(k, c)
            vals.insert(k, den)
            out.append((tuple(where), tuple(vals)))
        return Matrix._new(self.field, len(out), self.ambient_dim, den, tuple(out))

    def lift_matrix(self):
        """Section k^C -> k^n sending the class of e_c to e_c: the unit columns at
        the complement coordinates."""
        rows = [None] * self.ambient_dim
        for k, c in enumerate(self.complement_coords()):
            rows[c] = ((k,), (1,))
        return Matrix._new(self.field, self.ambient_dim, self.ambient_dim - self.dim, 1, tuple(rows))
