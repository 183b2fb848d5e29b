"""Subspaces of k^n in canonical (RREF row basis) form.

Used everywhere an ideal, submodule, span or quotient is manipulated.  The
canonical form makes equality a tuple comparison and fixes the deterministic
complement: coordinates at the non-pivot ambient positions, in ambient order.
"""

from __future__ import annotations

from ..errors import NotInSubspace
from .matrix import Matrix


class Subspace:
    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_incl")

    def __init__(self, field, ambient_dim, basis: Matrix, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis  # RREF, one row per basis vector, no zero rows
        self.pivots = tuple(pivots)
        self._incl = None

    @classmethod
    def row_space(cls, M: Matrix):
        """The span of the rows of M."""
        if M.is_zero():
            return cls(M.field, M.cols, Matrix.zeros(M.field, 0, M.cols), ())
        R, pivots = M.rref()
        return cls(M.field, M.cols, R.take_rows(range(len(pivots))), pivots)

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
            self._incl = self.basis.transpose()
        return self._incl

    def coordinates(self, img: Matrix, blocks=1) -> Matrix:
        """C with inclusion() * C == img: the basis coordinates of the columns of img.

        With blocks = k, img is k row blocks of height ambient_dim stacked top
        to bottom, and C is their coordinate matrices stacked the same way.
        The coordinates of a vector in the span are its entries at the pivot
        positions (the basis is in RREF); one product re-checks them, and a
        column outside the subspace raises NotInSubspace.
        """
        n = self.ambient_dim
        C = img.take_rows([t * n + p for t in range(blocks) for p in self.pivots])
        if self.inclusion().mul_blocks(C, blocks) != img:
            raise NotInSubspace(f"a vector leaves the {self!r}")
        return C

    def contains_columns(self, img: Matrix):
        """True when every column of img lies in the subspace."""
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

    # -- quotient bookkeeping ------------------------------------------------

    def complement_coords(self):
        """Ambient coordinates spanning a complement (non-pivots, ambient order)."""
        pivset = set(self.pivots)
        return [j for j in range(self.ambient_dim) if j not in pivset]

    def projection_matrix(self):
        """Matrix of k^n -> k^C, v |-> (v mod self) in complement coordinates."""
        comp = self.complement_coords()
        ident = Matrix.identity(self.field, self.ambient_dim)
        # v - sum_k v[pivot_k] * basis_k, read at the complement coordinates
        return ident.take_rows(comp) - self.inclusion().take_rows(comp) * ident.take_rows(self.pivots)

    def lift_matrix(self):
        """Section k^C -> k^n sending the class of e_c to e_c."""
        return Matrix.identity(self.field, self.ambient_dim).take_rows(self.complement_coords()).transpose()
