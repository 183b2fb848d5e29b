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
        ae = Subspace.column_space(A.right_mult_matrix(self.e))
        IY, Im = Matrix.identity(f, Y.dim), Matrix.identity(f, ae.dim)
        # Basis vector i*nY + j of Ae ⊗ Y is z_i ⊗ y_j.  For a generator c of
        # eAe the relation rows (i, j) are z_i c ⊗ y_j - z_i ⊗ c y_j, that is
        # Z^T ⊗ I - I ⊗ Y.act(c)^T, column i of Z the coordinates of z_i c in Ae.
        G = C.generators()
        in_A = G * self.corner_emb.transpose()  # row t: generator t as an element of A
        rels = []
        for t in range(G.rows):
            Z = ae.coordinates(ae.restrict(A.right_mult_matrix(in_A.take_rows([t]))))
            rels.append(Z.transpose().kron(IY) - Im.kron(Y.act(G.take_rows([t])).transpose()))
        # A acts on Ae ⊗ Y through its left action on Ae
        return _tensor_quotient(A, rels, Module.regular(A).action_on(ae), IY)[0]

    def corner_hom(self, Y: Module):
        """Hom_{eAe}(eA, Y) as a module over A."""
        A, C = self.A, self.corner
        f = A.field
        ea = Subspace.column_space(A.left_mult_matrix(self.e))
        m = ea.dim
        IY, Im = Matrix.identity(f, Y.dim), Matrix.identity(f, m)
        # A map eA -> Y is the nY x m matrix of the images of the z_b, unknown
        # i*m + b.  For a generator c of eAe, f(c z_b) = c f(z_b) gives the rows
        # (i, b) of I ⊗ W^T - Y.act(c) ⊗ I, column b of W the coordinates of c z_b.
        G = C.generators()
        in_A = G * self.corner_emb.transpose()  # row t: generator t as an element of A
        eqs = []
        for t in range(G.rows):
            W = ea.coordinates(ea.restrict(A.left_mult_matrix(in_A.take_rows([t]))))
            eqs.append(IY.kron(W.transpose()) - Y.act(G.take_rows([t])).kron(Im))
        sol_space = Subspace.column_space(Matrix.vcat(eqs).kernel_basis())
        # (a·f)(z_b) = f(z_b a): a acts by I ⊗ V^T, column b of V the coordinates of z_b a.
        # Block k of the regular A^op-module's stack is R_k, as b_k acts on A^op by a |-> a b_k.
        rights = Module.regular(A.opposite()).stack
        Vs = ea.coordinates(ea.restrict(rights), blocks=A.dim).vsplit(A.dim)
        outer = Module.from_actions(A, Y.dim * m, [IY.kron(V.transpose()) for V in Vs], check_unit=False)
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
        return X.act_rows(self.quotient_lift.transpose())


def _tensor_quotient(A, rels, lefts, IX):
    """(V ⊗ X / span of the rows of rels, that span), b in A acting by L_b ⊗ I,
    the L_b stacked in lefts as in a module's stack.

    lefts ⊗ I is the stack of the L_b ⊗ I, and the relation span reads their
    action on the quotient off it (Subspace.quotient_action).
    """
    rel = Subspace.row_space(Matrix.vcat(rels))
    return Module(A, rel.ambient_dim - rel.dim, rel.quotient_action(lefts.kron(IX), A.dim)), rel


# -- induction / restriction along a subalgebra embedding -------------------------------


class SubalgebraEmbedding:
    """B -> A, B's basis realized inside A by the columns of emb."""

    def __init__(self, B, A, emb: Matrix):
        self.B = B
        self.A = A
        self.emb = emb
        self._images = emb.transpose()  # row j: the image of b_j, so b_vec * _images is ι(b_vec)
        # unital algebra map checks
        if self.image_vec(B.unit) != A.unit:
            raise DimensionMismatch("embedding does not preserve the unit")

    def image_vec(self, b_vec):
        return b_vec * self._images

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
        G = B.generators()
        rels = []
        for t in range(G.rows):
            g = G.take_rows([t])
            rels.append(A.right_mult_matrix(self.image_vec(g)).transpose().kron(IX) - IA.kron(X.act(g).transpose()))
        # b acts on A ⊗ X by L_b ⊗ I
        ind, rel = _tensor_quotient(A, rels, Module.regular(A).stack, IX)
        insert = rel.project(A.unit.transpose().kron(IX))
        return ind, insert

    def induction_is_exact(self):
        """Exactness of A ⊗_B -, decided by projectivity of A as a right B-module.

        Returns (verdict, section matrix or None): the projective cover of A_B
        splits iff a right-B-linear section exists, iff the cover is an iso.
        """
        from .homology import Summand, _cover_matrix, _minimal_cover

        Bop = self.B.opposite()
        f = self.A.field
        n = self.A.dim
        # A as a left B^op-module: b_j ∘ a = a · ι(b_j), by R(ι(b_j)).  The product
        # b_i * ι(b_j), column i of R(ι(b_j)), is row i, block j of the products
        # reshaped to n rows, so the transpose stacks the R(ι(b_j)).
        right = self.A.products(None, self._images).reshape(n, self.B.dim * n)
        A_right = Module(Bop, n, right.transpose())
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
