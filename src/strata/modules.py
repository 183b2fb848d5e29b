"""Left modules over a validated Algebra.

A Module stores one action matrix per algebra basis element.  Submodules and
quotients carry explicit inclusion/projection matrices; everything downstream
(filtrations, functors, certificates) is built from these.

Right modules never get their own type: they are left modules over the
opposite algebra, and k-duality D swaps the two sides (dual() of a module
over A is a module over A.opposite(), with dual(dual(X)) landing back on the
same Algebra instance).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DimensionMismatch, InvalidModule, NotInSubspace
from .kernel.matrix import Matrix
from .kernel.subspace import Subspace

ISO_TRIALS = 64
ISO_HEIGHT = 8
ISO_SEED = 2024


def column_space(M: Matrix) -> Matrix:
    """Canonical basis (as columns) of the column space of M."""
    return Subspace.row_space(M.transpose()).inclusion()


class Module:
    __slots__ = ("algebra", "dim", "action", "_rad", "_ext_cache", "__weakref__")

    def __init__(self, algebra, dim, action, check_unit=True):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        self._rad = None
        self._ext_cache = {}
        if len(self.action) != algebra.dim:
            raise InvalidModule("need one action matrix per algebra basis element")
        for M in self.action:
            if M.rows != dim or M.cols != dim:
                raise InvalidModule("action matrix has wrong shape")
        if check_unit and dim:
            if self.act(algebra.unit) != Matrix.identity(algebra.field, dim):
                raise InvalidModule("unit does not act as the identity")

    # -- construction -------------------------------------------------------

    @classmethod
    def regular(cls, algebra):
        key = ("regular",)
        if key in algebra._derived:
            return algebra._derived[key]
        out = cls(algebra, algebra.dim, [algebra.basis_left_mult(i) for i in range(algebra.dim)])
        algebra._derived[key] = out
        return out

    @classmethod
    def zero(cls, algebra):
        z = Matrix.zeros(algebra.field, 0, 0)
        return cls(algebra, 0, [z] * algebra.dim, check_unit=False)

    def act(self, vec) -> Matrix:
        return Matrix.linear_combination(self.algebra.field, self.dim, self.dim, zip(vec, self.action))

    def verify_action(self, full=False, samples=60, seed=11):
        """Check action matrices against the structure constants."""
        A = self.algebra
        f = A.field
        pairs = None
        if full or A.dim * A.dim <= 400:
            pairs = [(i, j) for i in range(A.dim) for j in range(A.dim)]
        else:
            rng = random.Random(seed)
            pairs = [(rng.randrange(A.dim), rng.randrange(A.dim)) for _ in range(samples)]
        for i, j in pairs:
            lhs = self.action[i] * self.action[j]
            rhs = Matrix.zeros(f, self.dim, self.dim)
            for k, c in A.mult[i][j]:
                rhs = rhs + self.action[k].scale(c)
            if lhs != rhs:
                raise InvalidModule(f"action incompatible with structure constants at ({i},{j})")
        return True

    # -- sub/quotient --------------------------------------------------------

    def invariant_closure(self, rows):
        """Smallest submodule containing the span of the given row vectors."""
        A = self.algebra
        span = Subspace.from_rows(A.field, self.dim, rows)
        # Rows of span.basis * M^T are the images M v of the basis vectors v.
        gens_t = [self.act(g).transpose() for g in A.generators()]
        while True:
            stacked = span.basis
            for Mt in gens_t:
                stacked = stacked.vstack(span.basis * Mt)
            bigger = Subspace.row_space(stacked)
            if bigger.dim == span.dim:
                return span
            span = bigger

    def submodule(self, subspace: Subspace):
        """(module on the subspace, inclusion matrix dim(self) x dim(sub))."""
        incl = subspace.inclusion()
        try:
            action = [subspace.coordinates(M * incl) for M in self.action]
        except NotInSubspace as exc:
            raise InvalidModule("subspace is not action-invariant") from exc
        return Module(self.algebra, subspace.dim, action), incl

    def quotient(self, subspace: Subspace):
        """(quotient module, projection matrix dim(quot) x dim(self))."""
        f = self.algebra.field
        proj = subspace.projection_matrix()
        lift = subspace.lift_matrix()
        qdim = self.dim - subspace.dim
        action = [proj * M * lift for M in self.action]
        return Module(self.algebra, qdim, action), proj

    @classmethod
    def direct_sum(cls, mods):
        if not mods:
            raise InvalidModule("empty direct sum needs an algebra")
        A = mods[0].algebra
        f = A.field
        dim = sum(m.dim for m in mods)
        action = []
        for i in range(A.dim):
            rows = []
            off = 0
            big = [[f.zero] * dim for _ in range(dim)]
            for m in mods:
                M = m.action[i]
                for r in range(m.dim):
                    row = M.row(r)
                    for c in range(m.dim):
                        big[off + r][off + c] = row[c]
                off += m.dim
            action.append(Matrix.from_rows(f, big) if dim else Matrix.zeros(f, 0, 0))
        return cls(A, dim, action, check_unit=False)

    # -- duality and transport -------------------------------------------------

    def dual(self):
        """The k-dual, a module over the opposite algebra."""
        op = self.algebra.opposite()
        return Module(op, self.dim, [M.transpose() for M in self.action])

    def restrict_along(self, emb: Matrix, B):
        """Restriction along an algebra embedding B -> A given by emb columns."""
        action = []
        for j in range(B.dim):
            action.append(self.act(emb.col(j)))
        return Module(B, self.dim, action)

    def inflate_along(self, proj: Matrix, A):
        """Inflation along a surjection A -> (algebra of self) with matrix proj."""
        action = []
        for j in range(A.dim):
            action.append(self.act(proj.col(j)))
        return Module(A, self.dim, action)

    # -- invariant subspaces ----------------------------------------------------

    def e_part(self, e_vec) -> Subspace:
        """The subspace e·X for an idempotent element e."""
        return Subspace.row_space(self.act(e_vec).transpose())

    def radical_subspace(self) -> Subspace:
        if self._rad is not None:
            return self._rad
        A = self.algebra
        rad = A.radical()
        rows = []
        for i in range(rad.dim):
            M = self.act(rad.basis.row(i))
            rows.extend(M.col(j) for j in range(M.cols))
        self._rad = Subspace.from_rows(A.field, self.dim, rows)
        return self._rad

    def socle_subspace(self) -> Subspace:
        A = self.algebra
        rad = A.radical()
        if rad.dim == 0 or self.dim == 0:
            return Subspace.full(A.field, self.dim)
        stacked = None
        for i in range(rad.dim):
            M = self.act(rad.basis.row(i))
            stacked = M if stacked is None else stacked.vstack(M)
        K = stacked.kernel_basis()
        return Subspace.from_rows(A.field, self.dim, [K.col(j) for j in range(K.cols)])

    def top(self):
        """(top module, projection)."""
        return self.quotient(self.radical_subspace())

    def to_json(self):
        """dim plus one named action matrix per algebra basis element."""
        return {
            "dim": self.dim,
            "action": {
                name: M.to_json() for name, M in zip(self.algebra.basis_names, self.action)
            },
        }

    @classmethod
    def from_json(cls, algebra, obj):
        action = [
            Matrix.from_json(algebra.field, obj["action"][name]) for name in algebra.basis_names
        ]
        return cls(algebra, obj["dim"], action)

    def __repr__(self):
        return f"Module(dim {self.dim} over {self.algebra!r})"


# -- named modules -------------------------------------------------------------


def projective(A, label):
    """P_label = A e for the first distinguished idempotent with that label."""
    key = ("P", str(label))
    if key in A._derived:
        return A._derived[key]
    e = A.idempotent_for_label(label)
    reg = Module.regular(A)
    out = reg.submodule(Subspace.row_space(A.right_mult_matrix(e).transpose()))[0]  # A e
    A._derived[key] = out
    return out


def simple(A, label):
    key = ("L", str(label))
    if key in A._derived:
        return A._derived[key]
    out = projective(A, label).top()[0]
    A._derived[key] = out
    return out


def injective(A, label):
    """I_label = D(projective over the opposite algebra)."""
    key = ("I", str(label))
    if key in A._derived:
        return A._derived[key]
    out = projective(A.opposite(), label).dual()
    A._derived[key] = out
    return out


def comp_mult(X: Module, label) -> int:
    """[X : L_label] = dim e·X, independent of the choice of idempotent."""
    idems = X.algebra.idempotents_for_label(label)
    dims = [X.e_part(e).dim for e in idems]
    assert len(set(dims)) == 1, "composition multiplicity depends on idempotent choice"
    return dims[0]


def dimension_vector(X: Module):
    return tuple(comp_mult(X, lab) for lab in X.algebra.labels)


def trace_from_projective(label, Y: Module) -> Subspace:
    """Tr_{P_label}(Y): the submodule generated by e·Y."""
    A = Y.algebra
    e = A.idempotent_for_label(label)
    part = Y.e_part(e)
    return Y.invariant_closure([part.basis.row(i) for i in range(part.dim)])


def trace_submodule(X: Module, Y: Module) -> Subspace:
    """Tr_X(Y): sum of the images of all homomorphisms X -> Y."""
    rows = []
    for h in hom_basis(X, Y):
        rows.extend(h.col(j) for j in range(h.cols))
    return Subspace.from_rows(Y.algebra.field, Y.dim, rows)


# -- hom spaces ------------------------------------------------------------------


def _block_data(X: Module):
    A = X.algebra
    blocks = []
    for e, _ in A.idempotents:
        B = column_space(X.act(e))
        blocks.append(B)
    T = None
    for B in blocks:
        T = B if T is None else T.hstack(B)
    if T is None or T.cols == 0:
        T = Matrix.zeros(A.field, X.dim, 0)
    return blocks, T


def hom_basis(X: Module, Y: Module):
    """Basis of Hom_A(X, Y) as a list of matrices (dim Y x dim X).

    Solved blockwise: an intertwiner maps e·X into e·Y for every distinguished
    idempotent e, so unknowns live only on matching blocks; the remaining
    equations come from a generating set of the algebra.
    """
    A = X.algebra
    if A != Y.algebra and A is not Y.algebra:
        raise DimensionMismatch("hom between modules over different algebras")
    f = A.field
    if X.dim == 0 or Y.dim == 0:
        return []
    xblocks, TX = _block_data(X)
    yblocks, TY = _block_data(Y)
    if TX.cols != X.dim or TY.cols != Y.dim:
        raise InvalidModule("idempotent blocks do not decompose the module")
    TXi = TX.inverse()
    TYi = TY.inverse()

    xsizes = [b.cols for b in xblocks]
    ysizes = [b.cols for b in yblocks]
    xoff = [0]
    for s in xsizes:
        xoff.append(xoff[-1] + s)
    yoff = [0]
    for s in ysizes:
        yoff.append(yoff[-1] + s)

    nblocks = len(xblocks)
    xblock_of = [k for k in range(nblocks) for _ in range(xsizes[k])]
    yblock_of = [k for k in range(nblocks) for _ in range(ysizes[k])]
    unknowns = []
    uidx = {}
    for k in range(nblocks):
        for a in range(yoff[k], yoff[k + 1]):
            for b in range(xoff[k], xoff[k + 1]):
                uidx[(a, b)] = len(unknowns)
                unknowns.append((a, b))
    if not unknowns:
        return []

    n_idem = len(A.idempotents)
    gens = A.generators()[n_idem:]
    rows = []
    for g in gens:
        R = TXi * X.act(g) * TX
        S = TYi * Y.act(g) * TY
        for i in range(Y.dim):
            ki = yblock_of[i]
            for j in range(X.dim):
                kj = xblock_of[j]
                row = [f.zero] * len(unknowns)
                nonzero = False
                # F R contribution: unknowns (i, b) with b in the x-block of i
                for b in range(xoff[ki], xoff[ki + 1]):
                    c = R[b, j]
                    if not f.is_zero(c):
                        u = uidx[(i, b)]
                        row[u] = f.add(row[u], c)
                        nonzero = True
                # S F contribution: unknowns (a, j) with a in the y-block of j
                for a in range(yoff[kj], yoff[kj + 1]):
                    c = S[i, a]
                    if not f.is_zero(c):
                        u = uidx[(a, j)]
                        row[u] = f.sub(row[u], c)
                        nonzero = True
                if nonzero:
                    rows.append(row)
    if rows:
        K = Matrix.from_rows(f, rows).kernel_basis()
    else:
        K = Matrix.identity(f, len(unknowns))
    out = []
    for j in range(K.cols):
        Fb = [[f.zero] * X.dim for _ in range(Y.dim)]
        for u, (a, b) in enumerate(unknowns):
            Fb[a][b] = K[u, j]
        out.append(TY * Matrix.from_rows(f, Fb) * TXi)
    return out


def hom_basis_plain(X: Module, Y: Module):
    """Reference implementation: full unknown matrix, all generators."""
    A = X.algebra
    f = A.field
    if X.dim == 0 or Y.dim == 0:
        return []
    unknowns = Y.dim * X.dim
    rows = []
    for g in A.generators():
        R = X.act(g)
        S = Y.act(g)
        for i in range(Y.dim):
            for j in range(X.dim):
                row = [f.zero] * unknowns
                for b in range(X.dim):
                    row[i * X.dim + b] = f.add(row[i * X.dim + b], R[b, j])
                for a in range(Y.dim):
                    row[a * X.dim + j] = f.sub(row[a * X.dim + j], S[i, a])
                rows.append(row)
    K = Matrix.from_rows(f, rows).kernel_basis()
    out = []
    for j in range(K.cols):
        out.append(Matrix(f, Y.dim, X.dim, [K[u, j] for u in range(unknowns)]))
    return out


# -- isomorphism testing ------------------------------------------------------------


@dataclass
class IsoVerdict:
    kind: str  # "iso" | "not_iso" | "undetermined"
    certificate: Matrix | None = None
    witness: str | None = None
    seed: int = ISO_SEED

    def __bool__(self):
        return self.kind == "iso"


def _trial_coefficients(rng, n):
    return [rng.randint(-ISO_HEIGHT, ISO_HEIGHT) for _ in range(n)]


def iso_test(X: Module, Y: Module, ext_witness_depth=1) -> IsoVerdict:
    """Certificate-bearing isomorphism test.

    "iso" carries an invertible intertwiner; "not_iso" carries a distinguishing
    invariant; otherwise "undetermined" (never a guess).
    """
    A = X.algebra
    if X.dim != Y.dim:
        return IsoVerdict("not_iso", witness=f"dim {X.dim} != {Y.dim}")
    if X.dim == 0:
        return IsoVerdict("iso", certificate=Matrix.zeros(A.field, 0, 0))
    for lab in A.labels:
        cx, cy = comp_mult(X, lab), comp_mult(Y, lab)
        if cx != cy:
            return IsoVerdict("not_iso", witness=f"[X:L_{lab}] = {cx} != {cy} = [Y:L_{lab}]")
    homs = hom_basis(X, Y)
    if not homs:
        return IsoVerdict("not_iso", witness="Hom(X, Y) = 0")
    cert = _search_invertible(homs, X.dim)
    if cert is not None:
        return IsoVerdict("iso", certificate=cert)
    d_xy = len(homs)
    d_xx = len(hom_basis(X, X))
    d_yy = len(hom_basis(Y, Y))
    if d_xy != d_xx or d_xy != d_yy:
        return IsoVerdict(
            "not_iso",
            witness=f"dim Hom(X,Y) = {d_xy} but dim End(X) = {d_xx}, dim End(Y) = {d_yy}",
        )
    from .homology import ext_dim  # local import; homology builds on this module

    for lab in A.labels:
        L = simple(A, lab)
        for n in range(1, ext_witness_depth + 1):
            ex = ext_dim(X, L, n)
            ey = ext_dim(Y, L, n)
            if ex != ey:
                return IsoVerdict("not_iso", witness=f"dim Ext^{n}(-, L_{lab}): {ex} != {ey}")
    return IsoVerdict("undetermined")


def _search_invertible(homs, dim):
    f = homs[0].field
    for h in homs:
        if h.rank() == dim:
            return h
    total = homs[0]
    for h in homs[1:]:
        total = total + h
    if total.rank() == dim:
        return total
    rng = random.Random(ISO_SEED)
    for _ in range(ISO_TRIALS):
        coeffs = _trial_coefficients(rng, len(homs))
        cand = Matrix.zeros(f, dim, dim)
        for c, h in zip(coeffs, homs):
            if c:
                cand = cand + h.scale(c)
        if cand.rank() == dim:
            return cand
    return None


def iso_to_direct_power(X: Module, S: Module, t: int) -> Matrix | None:
    """Invertible map S^t -> X assembled from Hom(S, X), or None."""
    if X.dim != t * S.dim:
        return None
    if t == 0:
        return Matrix.zeros(X.algebra.field, 0, 0)
    homs = hom_basis(S, X)
    if len(homs) < t:
        return None
    f = X.algebra.field

    def assemble(cols_of_maps):
        M = None
        for h in cols_of_maps:
            M = h if M is None else M.hstack(h)
        return M

    cand = assemble(homs[:t])
    if cand.rank() == X.dim:
        return cand
    rng = random.Random(ISO_SEED)
    for _ in range(ISO_TRIALS):
        maps = []
        for _c in range(t):
            coeffs = _trial_coefficients(rng, len(homs))
            m = Matrix.zeros(f, X.dim, S.dim)
            for c, h in zip(coeffs, homs):
                if c:
                    m = m + h.scale(c)
            maps.append(m)
        cand = assemble(maps)
        if cand.rank() == X.dim:
            return cand
    return None
