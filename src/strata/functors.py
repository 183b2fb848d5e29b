"""Recollement functors for an idempotent, and induction/restriction along a
subalgebra embedding.

For an idempotent element e of A (a subset-sum of the distinguished family)
there are three algebras in play: A itself, the corner C = eAe and the
quotient Q = A/AeA.  The six functors of the associated recollement are
realized by explicit linear algebra:

    quotient side:  inflate (Q-mod -> A-mod) with adjoints
                    quotient_tensor X = X/(AeA)X  and
                    quotient_hom   X = largest submodule killed by AeA;
    corner side:    corner_apply  X = eX  with adjoints
                    corner_tensor Y = Ae ⊗_{eAe} Y  and
                    corner_hom    Y = Hom_{eAe}(eA, Y).

Tensor quotients are built from bilinearity relations over a generating set of
the inner algebra; hom modules are intertwiner solution spaces carrying the
outer action.
"""

from __future__ import annotations

from .errors import DimensionMismatch, InvariantViolation
from .kernel.matrix import Matrix
from .kernel.subspace import Subspace
from .modules import Module


class IdempotentContext:
    """Corner and quotient data for one subset-sum idempotent of A."""

    def __init__(self, A, e_vec):
        self.A = A
        self.e = A.coerce_vec(e_vec)
        self.summands = A.subset_sum_decomposition(self.e)
        self.support = A.support_labels(self.e)
        self.corner, self.corner_emb = A.corner(self.e) if self.summands else (None, None)
        if not self.summands:
            raise DimensionMismatch("zero idempotent has no corner")
        self.ideal = A.two_sided_ideal(self.e)
        self.quotient, self.quotient_proj = (
            A.quotient_by_idempotent_ideal(self.e) if self.ideal.dim < A.dim else (None, None)
        )
        self.quotient_lift = self.ideal.lift_matrix() if self.quotient is not None else None

    # -- corner-side functors ---------------------------------------------------

    def corner_apply(self, X: Module):
        """eX as a module over eAe."""
        C = self.corner
        space = X.e_part(self.e)
        return Module(C, space.dim, X.action_on(space, self.corner_emb.transpose()))

    def corner_tensor(self, Y: Module):
        """Ae ⊗_{eAe} Y as a module over A."""
        A, C = self.A, self.corner
        f = A.field
        ae = Subspace.row_space(A.right_mult_matrix(self.e).transpose())
        ae_incl = ae.inclusion()
        IY, Im = Matrix.identity(f, Y.dim), Matrix.identity(f, ae.dim)
        # Basis vector i*nY + j of Ae ⊗ Y is z_i ⊗ y_j.  For a generator c of
        # eAe the relation rows (i, j) are z_i c ⊗ y_j - z_i ⊗ c y_j, that is
        # Z^T ⊗ I - I ⊗ Y.act(c)^T, column i of Z the coordinates of z_i c in Ae.
        rels = []
        for c in C.generators():
            c_in_A = (self.corner_emb * Matrix.column(f, list(c))).col(0)
            Z = ae.coordinates(A.right_mult_matrix(c_in_A) * ae_incl)
            rels.append(Z.transpose().kron(IY) - Im.kron(Y.act(c).transpose()))
        # A acts on Ae ⊗ Y through its left action on Ae
        return _tensor_quotient(A, rels, Module.regular(A).action_on(ae), IY)[0]

    def corner_hom(self, Y: Module):
        """Hom_{eAe}(eA, Y) as a module over A."""
        A, C = self.A, self.corner
        f = A.field
        ea = Subspace.row_space(A.left_mult_matrix(self.e).transpose())
        m, ea_incl = ea.dim, ea.inclusion()
        IY, Im = Matrix.identity(f, Y.dim), Matrix.identity(f, m)
        # A map eA -> Y is the nY x m matrix of the images of the z_b, unknown
        # i*m + b.  For a generator c of eAe, f(c z_b) = c f(z_b) gives the rows
        # (i, b) of I ⊗ W^T - Y.act(c) ⊗ I, column b of W the coordinates of c z_b.
        eqs = []
        for c in C.generators():
            c_in_A = (self.corner_emb * Matrix.column(f, list(c))).col(0)
            W = ea.coordinates(A.left_mult_matrix(c_in_A) * ea_incl)
            eqs.append(IY.kron(W.transpose()) - Y.act(c).kron(Im))
        sol_space = Subspace.row_space(Matrix.vcat(eqs).kernel_basis().transpose())
        # (a·f)(z_b) = f(z_b a): a acts by I ⊗ V^T, column b of V the coordinates of z_b a
        rights = Matrix.vcat([A.right_mult_matrix(A.basis_vec(b)) for b in range(A.dim)])
        Vs = ea.coordinates((rights * ea_incl).side_by_side(A.dim)).hsplit(A.dim)
        outer = Module(A, Y.dim * m, [IY.kron(V.transpose()) for V in Vs], check_unit=False)
        return outer.submodule(sol_space)[0]

    # -- quotient-side functors ----------------------------------------------------

    def inflate(self, Xq: Module):
        """A Q-module viewed as an A-module killed by AeA."""
        return Xq.inflate_along(self.quotient_proj, self.A)

    def quotient_tensor(self, X: Module):
        """(A/AeA) ⊗_A X = X/(AeA)X as a Q-module."""
        quot, _ = X.quotient(X.image_of(self.ideal.basis))
        return Module(self.quotient, quot.dim, self._on_quotient(quot))

    def quotient_hom(self, X: Module):
        """Hom_A(A/AeA, X): the largest submodule annihilated by AeA."""
        smod, _ = X.submodule(X.annihilated_by(self.ideal.basis))
        return Module(self.quotient, smod.dim, self._on_quotient(smod))

    def _on_quotient(self, X: Module):
        """The action of Q's basis on an A-module killed by AeA, through the lift Q -> A."""
        return X.act_rows(self.quotient_lift.transpose()).vsplit(self.quotient.dim)


def _tensor_quotient(A, rels, lefts, IX):
    """(V ⊗ X / span of the rows of rels, projection), b in A acting by lefts[b] ⊗ I.

    Times the lift of the quotient, lefts[b] ⊗ I keeps its complement columns,
    so the whole action is one product with the projection.
    """
    rel = Subspace.row_space(Matrix.vcat(rels))
    proj = rel.projection_matrix()
    comp = rel.complement_coords()
    kept = Matrix.hcat([L.kron(IX).take_cols(comp) for L in lefts])
    return Module(A, len(comp), (proj * kept).hsplit(A.dim)), proj


# -- induction / restriction along a subalgebra embedding -------------------------------


class SubalgebraEmbedding:
    """B -> A, B's basis realized inside A by the columns of emb."""

    def __init__(self, B, A, emb: Matrix):
        self.B = B
        self.A = A
        self.emb = emb
        f = A.field
        # unital algebra map checks
        if (emb * Matrix.column(f, list(B.unit))).col(0) != list(A.unit):
            raise DimensionMismatch("embedding does not preserve the unit")

    def image_vec(self, b_vec):
        f = self.A.field
        return tuple((self.emb * Matrix.column(f, list(b_vec))).col(0))

    def restrict(self, Y: Module) -> Module:
        return Y.restrict_along(self.emb, self.B)

    def induce(self, X: Module):
        """(A ⊗_B X, insertion matrix of x -> [1 ⊗ x])."""
        A, B = self.A, self.B
        f = A.field
        nA, nX = A.dim, X.dim
        IA, IX = Matrix.identity(f, nA), Matrix.identity(f, nX)
        # Basis vector i*nX + j of A ⊗ X is b_i ⊗ x_j.  For a generator g of B
        # the relation rows (i, j) are b_i ι(g) ⊗ x_j - b_i ⊗ g x_j, that is
        # R(ι(g))^T ⊗ I - I ⊗ X.act(g)^T.
        rels = [
            A.right_mult_matrix(self.image_vec(g)).transpose().kron(IX) - IA.kron(X.act(g).transpose())
            for g in B.generators()
        ]
        # b acts on A ⊗ X by L_b ⊗ I
        ind, proj = _tensor_quotient(A, rels, [A.basis_left_mult(b) for b in range(nA)], IX)
        insert = proj * Matrix.column(f, list(A.unit)).kron(IX)
        return ind, insert

    def induction_is_exact(self):
        """Exactness of A ⊗_B -, decided by projectivity of A as a right B-module.

        Returns (verdict, section matrix or None): the projective cover of A_B
        splits iff a right-B-linear section exists, iff the cover is an iso.
        """
        from .homology import Summand, _cover_matrix, _minimal_cover

        Bop = self.B.opposite()
        f = self.A.field
        # A as a left B^op-module: b ∘ a = a · ι(b)
        action = []
        for j in range(Bop.dim):
            ib = self.image_vec(self.B.basis_vec(j))
            action.append(self.A.right_mult_matrix(ib))
        A_right = Module(Bop, self.A.dim, action)
        covers = _minimal_cover(Bop, A_right)
        summands = [Summand(Bop, lab) for lab, _ in covers]
        cover = _cover_matrix(A_right, covers, summands)
        total = sum(s.module.dim for s in summands)
        if total != A_right.dim:
            return False, None
        section = cover.solve(Matrix.identity(f, A_right.dim))
        if section is None:
            raise InvariantViolation("a projective cover of full dimension has no section")
        return True, section
