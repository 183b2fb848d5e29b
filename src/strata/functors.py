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

from .errors import DimensionMismatch
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
        incl = space.inclusion()
        action = [space.coordinates(X.act(self.corner_emb.col(j)) * incl) for j in range(C.dim)]
        return Module(C, space.dim, action)

    def corner_tensor(self, Y: Module):
        """Ae ⊗_{eAe} Y as a module over A."""
        A, C = self.A, self.corner
        f = A.field
        ae = Subspace.row_space(A.right_mult_matrix(self.e).transpose())
        m = ae.dim
        ae_incl = ae.inclusion()
        nY = Y.dim
        dim = m * nY
        rows = []
        for c in C.generators():
            c_in_A = self.corner_emb * Matrix.column(f, list(c))
            right = A.right_mult_matrix(c_in_A.col(0))
            actc = Y.act(c)
            # column i: coordinates of basis_i * c in Ae
            XC = ae.coordinates(right * ae_incl)
            for i in range(m):
                xc_coords = XC.col(i)
                for j in range(nY):
                    vec = [f.zero] * dim
                    for k, co in enumerate(xc_coords):
                        vec[k * nY + j] = f.add(vec[k * nY + j], co)
                    for l in range(nY):
                        co = actc[l, j]
                        if not f.is_zero(co):
                            vec[i * nY + l] = f.sub(vec[i * nY + l], co)
                    rows.append(vec)
        rel = Subspace.from_rows(f, dim, rows)
        proj = rel.projection_matrix()
        lift = rel.lift_matrix()
        qdim = dim - rel.dim
        action = []
        for bidx in range(A.dim):
            # left multiplication on A, in the coordinates of Ae
            L = ae.coordinates(A.basis_left_mult(bidx) * ae_incl)
            big = [[f.zero] * dim for _ in range(dim)]
            for i in range(m):
                for k, co in enumerate(L.col(i)):
                    if not f.is_zero(co):
                        for j in range(nY):
                            big[k * nY + j][i * nY + j] = co
            action.append(proj * Matrix.from_rows(f, big) * lift)
        return Module(A, qdim, action)

    def corner_hom(self, Y: Module):
        """Hom_{eAe}(eA, Y) as a module over A."""
        A, C = self.A, self.corner
        f = A.field
        ea = Subspace.row_space(A.left_mult_matrix(self.e).transpose())
        m = ea.dim
        ea_incl = ea.inclusion()
        nY = Y.dim
        unknowns = nY * m  # f as nY x m matrix, column b = f(basis b)
        rows = []
        for c in C.generators():
            c_in_A = (self.corner_emb * Matrix.column(f, list(c))).col(0)
            left = A.left_mult_matrix(c_in_A)
            actc = Y.act(c)
            # column b: coordinates of c * basis_b in eA
            CZ = ea.coordinates(left * ea_incl)
            for b in range(m):
                cz_coords = CZ.col(b)
                for i in range(nY):
                    # f(c·z_b)_i - (c·f(z_b))_i = 0
                    row = [f.zero] * unknowns
                    for k, co in enumerate(cz_coords):
                        row[i * m + k] = f.add(row[i * m + k], co)
                    for l in range(nY):
                        co = actc[i, l]
                        if not f.is_zero(co):
                            row[l * m + b] = f.sub(row[l * m + b], co)
                    rows.append(row)
        K = Matrix.from_rows(f, rows).kernel_basis() if rows else Matrix.identity(f, unknowns)
        sol_space = Subspace.row_space(K.transpose())
        sol_incl = sol_space.inclusion()
        action = []
        for bidx in range(A.dim):
            # (a·f)(z_b) = f(z_b·a) = sum_k ZA[k, b] f(z_k): linear in f, block diagonal in i
            ZA = ea.coordinates(A.right_mult_matrix(A.basis_vec(bidx)) * ea_incl)
            T = [[f.zero] * unknowns for _ in range(unknowns)]
            for b in range(m):
                for k, co in enumerate(ZA.col(b)):
                    if not f.is_zero(co):
                        for i in range(nY):
                            T[i * m + b][i * m + k] = co
            action.append(sol_space.coordinates(Matrix.from_rows(f, T) * sol_incl))
        return Module(A, sol_space.dim, action)

    # -- quotient-side functors ----------------------------------------------------

    def inflate(self, Xq: Module):
        """A Q-module viewed as an A-module killed by AeA."""
        return Xq.inflate_along(self.quotient_proj, self.A)

    def quotient_tensor(self, X: Module):
        """(A/AeA) ⊗_A X = X/(AeA)X as a Q-module."""
        f = self.A.field
        rows = []
        for i in range(self.ideal.dim):
            M = X.act(self.ideal.basis.row(i))
            rows.extend(M.col(j) for j in range(M.cols))
        sub = Subspace.from_rows(f, X.dim, rows)
        quot, proj = X.quotient(sub)
        action = [quot.act(self.quotient_lift.col(j)) for j in range(self.quotient.dim)]
        return Module(self.quotient, quot.dim, action)

    def quotient_hom(self, X: Module):
        """Hom_A(A/AeA, X): the largest submodule annihilated by AeA."""
        f = self.A.field
        stacked = None
        for i in range(self.ideal.dim):
            M = X.act(self.ideal.basis.row(i))
            stacked = M if stacked is None else stacked.vstack(M)
        if stacked is None:
            sub = Subspace.full(f, X.dim)
        else:
            K = stacked.kernel_basis()
            sub = Subspace.from_rows(f, X.dim, [K.col(j) for j in range(K.cols)])
        smod, _ = X.submodule(sub)
        action = [smod.act(self.quotient_lift.col(j)) for j in range(self.quotient.dim)]
        return Module(self.quotient, smod.dim, action)


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
        self._unit_checked = True

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
        dim = nA * nX
        rows = []
        for g in B.generators():
            ig = self.image_vec(g)
            right = A.right_mult_matrix(ig)
            actg = X.act(g)
            for i in range(nA):
                col_a = (right * Matrix.column(f, A.basis_vec(i))).col(0)
                for j in range(nX):
                    vec = [f.zero] * dim
                    for k, c in enumerate(col_a):
                        if not f.is_zero(c):
                            vec[k * nX + j] = f.add(vec[k * nX + j], c)
                    for l in range(nX):
                        c = actg[l, j]
                        if not f.is_zero(c):
                            vec[i * nX + l] = f.sub(vec[i * nX + l], c)
                    rows.append(vec)
        rel = Subspace.from_rows(f, dim, rows)
        proj = rel.projection_matrix()
        lift = rel.lift_matrix()
        qdim = dim - rel.dim
        action = []
        for bidx in range(A.dim):
            lam = A.basis_left_mult(bidx)
            big = [[f.zero] * dim for _ in range(dim)]
            for i in range(nA):
                col = lam.col(i)
                for k, c in enumerate(col):
                    if not f.is_zero(c):
                        for j in range(nX):
                            big[k * nX + j][i * nX + j] = c
            action.append(proj * Matrix.from_rows(f, big) * lift)
        ind = Module(A, qdim, action)
        cols = []
        for j in range(nX):
            vec = [f.zero] * dim
            for k, c in enumerate(A.unit):
                if not f.is_zero(c):
                    vec[k * nX + j] = c
            cols.append((proj * Matrix.column(f, vec)).col(0))
        insert = Matrix.from_columns(f, cols, nrows=qdim)
        return ind, insert

    def induction_is_exact(self):
        """Exactness of A ⊗_B -, decided by projectivity of A as a right B-module.

        Returns (verdict, section matrix or None): the projective cover of A_B
        splits iff a right-B-linear section exists, iff the cover is an iso.
        """
        from .homology import _minimal_cover, Summand

        Bop = self.B.opposite()
        f = self.A.field
        # A as a left B^op-module: b ∘ a = a · ι(b)
        action = []
        for j in range(Bop.dim):
            ib = self.image_vec(self.B.basis_vec(j))
            action.append(self.A.right_mult_matrix(ib))
        A_right = Module(Bop, self.A.dim, action)
        covers = _minimal_cover(Bop, A_right)
        summands = [Summand(Bop, Bop.idempotent_for_label(lab), lab) for lab, _ in covers]
        cols = []
        for (lab, v), s in zip(covers, summands):
            for j in range(s.module.dim):
                a_coords = s.basis.col(j)
                cols.append((A_right.act(a_coords) * Matrix.column(f, list(v))).col(0))
        cover = Matrix.from_columns(f, cols, nrows=A_right.dim)
        total = sum(s.module.dim for s in summands)
        if total != A_right.dim:
            return False, None
        section = cover.solve(Matrix.identity(f, A_right.dim))
        assert section is not None
        return True, section
