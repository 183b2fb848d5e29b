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

Both tensor functors, corner_tensor and induction A ⊗_B -, are one routine
(_tensor): V ⊗ X modulo the bilinearity relations over a generating set of B,
for a left ideal V of A on which B acts from the right.  corner_hom is the span
of modules.hom_basis(eA, Y), carrying the outer action of A.  Every functor
refuses a module over an algebra other than the one it acts on.
"""

from __future__ import annotations

from .errors import DimensionMismatch, InvariantViolation
from .kernel.matrix import Matrix
from .kernel.subspace import Subspace
from .modules import Module, hom_basis


class IdempotentContext:
    """Corner and quotient data for one subset-sum idempotent of A."""

    def __init__(self, A, e_vec):
        self.A = A
        self.e = A.coerce_vec(e_vec)
        self.summands = A.subset_sum_decomposition(self.e)
        if not self.summands:
            raise DimensionMismatch("zero idempotent has no corner")
        self.support = A.support_labels(self.e)
        self.corner, self.corner_emb = A.corner(self.e)
        self.ideal = A.two_sided_ideal(self.e)
        self.quotient, self.quotient_proj = (
            A.quotient_by_idempotent_ideal(self.e) if self.ideal.dim < A.dim else (None, None)
        )
        self.quotient_lift = self.ideal.lift_matrix() if self.quotient is not None else None

    # -- corner-side functors ---------------------------------------------------

    def corner_apply(self, X: Module):
        """eX as a module over eAe."""
        space = _over(self.A, X).e_part(self.e)
        return Module(self.corner, space.dim, X.action_on(space, self.corner_emb.transpose()))

    def corner_tensor(self, Y: Module):
        """Ae ⊗_{eAe} Y as a module over A."""
        ae = Subspace.column_space(self.A.right_mult_matrix(self.e))
        return _tensor(self.A, ae, self.corner, self.corner_emb, Y)[0]

    def corner_hom(self, Y: Module):
        """Hom_{eAe}(eA, Y) as a module over A."""
        A = self.A
        reg = Module.regular(A)
        ea = reg.e_part(self.e)
        n, m = Y.dim, ea.dim
        # A map eA -> Y is the n x m matrix of the images of the z_b, read row-major:
        # entry (i, b) is coordinate i*m + b.  hom_basis solves for the eAe-linear ones.
        homs = hom_basis(self.corner_apply(reg), Y)
        sol_space = (Subspace.row_space(Matrix.vcat(homs).reshape(len(homs), n * m)) if homs
                     else Subspace.zero(A.field, n * m))
        # (a·f)(z_b) = f(z_b a): a acts by I ⊗ V^T, column b of V the coordinates of z_b a.
        # Block k of the regular A^op-module's stack is R_k, as b_k acts on A^op by a |-> a b_k.
        rights = Module.regular(A.opposite()).stack
        Vs = ea.coordinates(ea.restrict(rights), blocks=A.dim).vsplit(A.dim)
        IY = Matrix.identity(A.field, n)
        outer = Module.from_actions(A, n * m, [IY.kron(V.transpose()) for V in Vs], check_unit=False)
        return outer.submodule(sol_space)[0]

    # -- quotient-side functors ----------------------------------------------------

    def inflate(self, Xq: Module):
        """A Q-module viewed as an A-module killed by AeA."""
        return _over(self.quotient, Xq).inflate_along(self.quotient_proj, self.A)

    def quotient_tensor(self, X: Module):
        """(A/AeA) ⊗_A X = X/(AeA)X as a Q-module."""
        quot, _ = _over(self.A, X).quotient(X.image_of(self.ideal.basis))
        return Module(self.quotient, quot.dim, self._on_quotient(quot))

    def quotient_hom(self, X: Module):
        """Hom_A(A/AeA, X): the largest submodule annihilated by AeA."""
        smod, _ = _over(self.A, X).submodule(X.annihilated_by(self.ideal.basis))
        return Module(self.quotient, smod.dim, self._on_quotient(smod))

    def _on_quotient(self, X: Module):
        """The action of Q's basis on an A-module killed by AeA, through the lift Q -> A."""
        return X.act_rows(self.quotient_lift.transpose())


def _over(B, X: Module) -> Module:
    """X, checked to be a module over B (algebras compared as hom_basis compares them)."""
    if X.algebra is not B and X.algebra != B:
        raise DimensionMismatch("a functor was given a module over another algebra")
    return X


def _tensor(A, V: Subspace, B, emb: Matrix, X: Module):
    """(V ⊗_B X, the span of its relations) for a left ideal V of A on which B acts
    from the right through emb, whose columns realize B's basis in A.

    Basis vector c*dim X + j of V ⊗ X is z_c ⊗ x_j, z_c row c of V's basis.  The
    relations z_c ι(g_t) ⊗ x_j - z_c ⊗ g_t x_j, for the k generators g_t of B, are
    the rows (c*k + t)*dim X + j of W ⊗ I - I ⊗ S: row c*k + t of W holds the
    coordinates of z_c ι(g_t) in V, and block t of S is X.act(g_t) transposed.
    a in A acts by L_a ⊗ I, L_a its action on V read off the regular module, and
    the relation span reads the action on the quotient off these
    (Subspace.quotient_action).
    """
    G = _over(B, X).algebra.generators()
    f = A.field
    IX = Matrix.identity(f, X.dim)
    W = V.coordinates(A.products(V.basis, G * emb.transpose()).transpose()).transpose()
    S = X.act_rows(G).transpose_blocks(G.rows)
    rel = Subspace.row_space(W.kron(IX) - Matrix.identity(f, V.dim).kron(S))
    lefts = Module.regular(A).action_on(V).kron(IX)
    return Module(A, rel.ambient_dim - rel.dim, rel.quotient_action(lefts, A.dim)), rel


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
        return _over(self.A, Y).restrict_along(self.emb, self.B)

    def induce(self, X: Module):
        """(A ⊗_B X, insertion matrix of x -> [1 ⊗ x])."""
        A = self.A
        ind, rel = _tensor(A, Subspace.full(A.field, A.dim), self.B, self.emb, X)
        return ind, rel.project(A.unit.transpose().kron(Matrix.identity(A.field, X.dim)))

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
