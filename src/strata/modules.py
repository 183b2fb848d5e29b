"""Left modules over a validated Algebra.

A Module stores its action as one matrix, ``stack``: the action matrices of
the algebra basis elements b_0, ..., b_{n-1} stacked top to bottom, so row
k*dim + r is row r of the action of b_k.  The per-basis matrices (``action``)
are cut from it once, on first use.  An algebra element is a 1 x dim A row
(see algebra.py), so acting by it reads the row's stored nonzeros: a basis
vector acts by its cut matrix, returned as it is, and any other element acts
through act_rows, one product against the stack: (R ⊗ I_dim) · stack for the
rows of R, in one pass (Matrix.combine_blocks).  Submodules and quotients
carry explicit inclusion/projection matrices; everything downstream
(filtrations, functors, certificates) is built from these.

Each construction builds its stack from the stack it starts from, with no
per-basis matrices in between: the subspace reads the action on itself and on
the quotient off the stack (Subspace.action_on, which checks invariance, and
Subspace.quotient_action); the dual transposes each block; restriction and
inflation are one act_rows.
The regular module's stack is the algebra's table, reshaped to n^2 x n, with
each block transposed.  Only direct sums (integer block diagonals), modules
read from JSON and the outer module of functors.corner_hom start from
per-basis matrices, and stack them once.

A module is its (algebra, stack): every construction ends in Module(), which
keeps one object per stack on the algebra (memo.derived under ("module",
stack)), so content-equal modules over one algebra -- a direct sum of one
summand, quotients by equal subspaces, dual(dual(X)), the Delta_i of two
orders with equal kernels -- are one object, and it lives as long as its
algebra.  The shape, and the unit unless the construction certifies it, are
checked on every request before the lookup, so a refused stack is stored
nowhere.

Data computed once per module is kept by memo.derived in the module's
``_derived`` dict, so it is computed once per content and lives as long as
the algebra: the radical, the idempotent block data hom_basis solves in, the
Hom spaces and Ext dimensions from it (keyed by the target's stack), the
multiplicities [X : L_i], the trace T = Tr_{P_j}(X) per label (("trace", j)),
what a filtration reads off T (X/T under ("peel", j), and the answer to
"T = D^t?" under ("power", j, D.stack), see strat.filtration_standard) and
the projective resolution.  The block data and the multiplicities
are read off canonical bases rather than solved: the distinguished idempotents
are complete and orthogonal, so the block basis change T is inverted by
reading each act(e) at the pivots of the RREF basis of e·X (the generators
are then conjugated all at once: one act_rows, one product by T, one block
product by T^-1), and [X : L_i] =
dim e_i·X is the trace of the idempotent matrix act(e_i) (eliminated instead
over F_p when p <= dim X, where the trace gives the rank only mod p).  A
filtration that peels label j off X reaches the same quotient module as every
earlier peel of j off X, so the peels of a module and of its quotients are
computed once.  Taking the
quotient by the zero subspace, or the submodule on the whole space, returns
the module itself without building a stack.

Right modules never get their own type: they are left modules over the
opposite algebra, and k-duality D swaps the two sides (dual() of a module
over A is a module over A.opposite(), and dual(dual(X)) is X).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .errors import DimensionMismatch, InvalidModule, InvariantViolation, NotInSubspace
from .kernel.matrix import Matrix
from .kernel.subspace import Subspace
from .memo import derived

ISO_TRIALS = 64
ISO_HEIGHT = 8
ISO_SEED = 2024


class Module:
    __slots__ = ("algebra", "dim", "stack", "_derived", "__weakref__")

    def __new__(cls, algebra, dim, stack, check_unit=True):
        """The module on k^dim whose action is stack, the (dim A * dim) x dim matrix
        in which row k*dim + r is row r of the action of the basis element b_k.

        One object per (algebra, stack): the first request builds the module and
        keeps it on the algebra, and every content-equal request returns it.  The
        shape and (when check_unit) the unit are checked on every request, before
        the lookup, so a refused stack is stored nowhere and raises again."""
        if not isinstance(stack, Matrix) or (stack.rows, stack.cols) != (algebra.dim * dim, dim):
            raise InvalidModule(f"action must be a {algebra.dim * dim}x{dim} stack of action matrices")
        if check_unit and dim:
            if algebra.unit.combine_blocks(stack, dim) != Matrix.identity(algebra.field, dim):
                raise InvalidModule("unit does not act as the identity")
        return derived(algebra, ("module", stack), cls._make, algebra, dim, stack)

    @classmethod
    def _make(cls, algebra, dim, stack):
        X = object.__new__(cls)
        X.algebra = algebra
        X.dim = dim
        X.stack = stack
        X._derived = None  # allocated by memo.derived on first use
        return X

    # -- construction -------------------------------------------------------

    @classmethod
    def from_actions(cls, algebra, dim, actions, check_unit=True):
        """The module in which b_k acts by actions[k]: the matrices stacked once."""
        actions = list(actions)
        if len(actions) != algebra.dim:
            raise InvalidModule("need one action matrix per algebra basis element")
        if any(M.rows != dim or M.cols != dim for M in actions):
            raise InvalidModule("action matrix has wrong shape")
        stack = Matrix.vcat(actions) if actions else Matrix.zeros(algebra.field, 0, dim)
        return cls(algebra, dim, stack, check_unit)

    @classmethod
    def regular(cls, algebra):
        return derived(algebra, ("regular",), cls._regular, algebra)

    @classmethod
    def _regular(cls, algebra):
        # block k of the table's n^2 x n reshape has row j = b_k * b_j: it is L_k^T
        n = algebra.dim
        stack = algebra.table.reshape(n * n, n).transpose_blocks(n) if n else algebra.table
        return cls(algebra, n, stack)

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, 0, Matrix.zeros(algebra.field, 0, 0), check_unit=False)

    @property
    def action(self):
        """The action matrix of each basis element, cut from the stack once."""
        return derived(self, ("action",), self._cut)

    def _cut(self):
        n = self.algebra.dim
        return tuple(self.stack.vsplit(n)) if n else ()

    def act(self, vec: Matrix) -> Matrix:
        """The action of the element vec, a 1 x dim A row."""
        r = vec.nonzeros[0]
        if r is None:
            return Matrix.zeros(self.algebra.field, self.dim, self.dim)
        if len(r[0]) == 1 and r[1][0] == 1 and vec.den == 1:
            return self.action[r[0][0]]  # a basis vector acts by its cut (immutable) matrix
        return self.act_rows(vec)

    def act_rows(self, R: Matrix) -> Matrix:
        """act(r) for each row r of R, stacked top to bottom: (R ⊗ I_dim) · stack, in
        one product against the stack."""
        return R.combine_blocks(self.stack, self.dim)

    def orbit_matrix(self, v: Matrix) -> Matrix:
        """The dim x dim(A) matrix of a |-> a·v for a column vector v: column k is b_k·v."""
        return (self.stack * v).reshape(self.algebra.dim, self.dim).transpose()

    def action_on(self, subspace: Subspace, R: Matrix | None = None) -> Matrix:
        """The stacked coordinate matrices of act(r) on an invariant subspace, for each
        row r of R (the basis of A when R is None), as the subspace reads them off
        the stack (Subspace.action_on), invariance checked."""
        stack, k = (self.stack, self.algebra.dim) if R is None else (self.act_rows(R), R.rows)
        try:
            return subspace.action_on(stack, k)
        except NotInSubspace as exc:
            raise InvalidModule("subspace is not action-invariant") from exc

    # -- sub/quotient --------------------------------------------------------

    def submodule(self, subspace: Subspace):
        """(module on the subspace, inclusion matrix dim(self) x dim(sub));
        the module itself when the subspace is everything."""
        if subspace.dim == self.dim:
            return self, subspace.inclusion()
        # action_on certifies the restricted action, so the unit acts as the identity
        sub = Module(self.algebra, subspace.dim, self.action_on(subspace), check_unit=False)
        return sub, subspace.inclusion()

    def quotient(self, subspace: Subspace):
        """(quotient module, projection matrix dim(quot) x dim(self));
        the module itself when the subspace is zero."""
        proj = subspace.projection_matrix()
        if subspace.dim == 0:
            return self, proj
        A = self.algebra
        return Module(A, proj.rows, subspace.quotient_action(self.stack, A.dim), check_unit=False), proj

    @classmethod
    def direct_sum(cls, mods):
        if not mods:
            raise InvalidModule("empty direct sum needs an algebra")
        A = mods[0].algebra
        action = [Matrix.block_diagonal(A.field, [m.action[i] for m in mods]) for i in range(A.dim)]
        return cls.from_actions(A, sum(m.dim for m in mods), action, check_unit=False)

    # -- duality and transport -------------------------------------------------

    def dual(self):
        """The k-dual, a module over the opposite algebra: b_k acts by act(b_k)^T."""
        n = self.algebra.dim
        stack = self.stack.transpose_blocks(n) if n else self.stack
        return Module(self.algebra.opposite(), self.dim, stack, check_unit=False)

    def restrict_along(self, emb: Matrix, B):
        """Restriction along an algebra embedding B -> A given by emb columns.

        The unit is checked: a corner embedding eAe -> A is not unital."""
        return Module(B, self.dim, self.act_rows(emb.transpose()))

    def inflate_along(self, proj: Matrix, A):
        """Inflation along a surjection A -> (algebra of self) with matrix proj."""
        return Module(A, self.dim, self.act_rows(proj.transpose()))

    # -- invariant subspaces ----------------------------------------------------

    def e_part(self, e_vec) -> Subspace:
        """The subspace e·X for an idempotent element e."""
        return Subspace.column_space(self.act(e_vec))

    def image_of(self, R: Matrix, on: Subspace | None = None) -> Subspace:
        """The span of r·x over the rows r of R and all x in the module, or all x in
        the subspace `on`."""
        if R.rows == 0 or self.dim == 0 or (on is not None and on.dim == 0):
            return Subspace.zero(self.algebra.field, self.dim)
        acts = self.act_rows(R)
        if on is not None:
            acts = on.restrict(acts)
        # the columns of every act(r) (restricted to `on`)
        return Subspace.column_space(acts, R.rows)

    def annihilated_by(self, R: Matrix) -> Subspace:
        """The x with r·x = 0 for every row r of R."""
        if R.rows == 0 or self.dim == 0:
            return Subspace.full(self.algebra.field, self.dim)
        return Subspace.column_space(self.act_rows(R).kernel_basis())

    def radical_subspace(self) -> Subspace:
        return derived(self, ("rad",), lambda: self.image_of(self.algebra.radical().basis))

    def socle_subspace(self) -> Subspace:
        return self.annihilated_by(self.algebra.radical().basis)

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
        return cls.from_actions(algebra, obj["dim"], action)

    def __repr__(self):
        return f"Module(dim {self.dim} over {self.algebra!r})"


# -- named modules -------------------------------------------------------------


def left_ideal(A, label) -> Subspace:
    """A e as a subspace of A, for the first distinguished idempotent e with that label."""
    # column i of R(e) is b_i * e
    return derived(A, ("Ae", str(label)),
                   lambda: Subspace.column_space(A.right_mult_matrix(A.idempotent_for_label(label))))


def projective(A, label):
    """P_label = A e for the first distinguished idempotent with that label."""
    return derived(A, ("P", str(label)), lambda: Module.regular(A).submodule(left_ideal(A, label))[0])


def simple(A, label):
    return derived(A, ("L", str(label)), lambda: projective(A, label).top()[0])


def injective(A, label):
    """I_label = D(projective over the opposite algebra)."""
    return derived(A, ("I", str(label)), lambda: projective(A.opposite(), label).dual())


def quotient_module(A, e_vec):
    """A/AeA as a left A-module; over A.opposite() it is A/AeA as a right module.

    Built once per ideal AeA, so the subset sums of one support share it and its
    caches (block data, peels, resolution)."""
    ideal = A.two_sided_ideal(e_vec)
    return derived(A, ("A/AeA", ideal), _quotient_module, A, ideal)


def _quotient_module(A, ideal):
    if ideal.dim == A.dim:
        return Module.zero(A)
    return Module.regular(A).quotient(ideal)[0]


def comp_mult(X: Module, label) -> int:
    """[X : L_label] = dim e·X, independent of the choice of idempotent.

    Computed once per (module, label).
    """
    return derived(X, ("mult", label), _comp_mult, X, label)


def _comp_mult(X: Module, label) -> int:
    dims = {_idempotent_rank(X, e) for e in X.algebra.idempotents_for_label(label)}
    if len(dims) != 1:
        raise InvariantViolation("composition multiplicity depends on idempotent choice")
    return dims.pop()


def _idempotent_rank(X: Module, e) -> int:
    """dim e·X, the rank of the idempotent matrix act(e), which equals its trace.

    Over F_p the trace is the rank mod p, so it is read only when p > dim X;
    otherwise e·X is eliminated.
    """
    p = X.algebra.field.char
    if p and p <= X.dim:
        return X.e_part(e).dim
    t = X.act(e).trace()
    if t != int(t) or not 0 <= t <= X.dim:
        raise InvariantViolation(f"an idempotent acts with trace {t} on a module of dim {X.dim}")
    return int(t)


def trace_from_projective(label, Y: Module) -> Subspace:
    """Tr_{P_label}(Y) = A·e·Y, the span of a·y over a in A e (one image_of); kept
    on Y per label."""
    return derived(Y, ("trace", str(label)), lambda: Y.image_of(left_ideal(Y.algebra, label).basis))


def trace_submodule(X: Module, Y: Module) -> Subspace:
    """Tr_X(Y): sum of the images of all homomorphisms X -> Y."""
    homs = hom_basis(X, Y)
    if not homs:
        return Subspace.zero(Y.algebra.field, Y.dim)
    return Subspace.column_space(Matrix.hcat(homs))


# -- hom spaces ------------------------------------------------------------------


def _block_data(X: Module):
    """(block sizes, T, T^-1, T^-1 X.act(g) T for the non-idempotent generators g).

    Computed once per module, with no inverse solved (see _build_block_data).
    """
    return derived(X, ("blocks",), _build_block_data, X)


def _build_block_data(X: Module):
    """T's blocks are the RREF bases of the e·X, e running over the distinguished
    idempotents.  The family is complete and orthogonal (Algebra.check_idempotents,
    inherited by corners and quotients), so X is the direct sum of the e·X and
    act(e) projects onto e·X along the others.  The coordinates of act(e)·x in an
    RREF basis are its entries at the pivots, so T^-1 is the rows of each act(e)
    at its block's pivots, stacked: no inverse is solved.
    """
    A = X.algebra
    acts = [X.act(e) for e, _ in A.idempotents]
    blocks = [Subspace.column_space(E) for E in acts]
    if sum(B.dim for B in blocks) != X.dim:
        raise InvalidModule("idempotent blocks do not decompose the module")
    T = Matrix.hcat([B.inclusion() for B in blocks])
    Ti = Matrix.vcat([E.take_rows(B.pivots) for E, B in zip(acts, blocks)])
    # Ti · act(g) · T for each non-idempotent generator g, all acts stacked
    G = A.generators()
    k = len(A.idempotents)
    m = G.rows - k
    conj = tuple(Ti.mul_blocks(X.act_rows(G.take_rows(range(k, G.rows))) * T, m).vsplit(m)) if m else ()
    return tuple(B.dim for B in blocks), T, Ti, conj


def _offsets(sizes):
    out = [0]
    for s in sizes:
        out.append(out[-1] + s)
    return out


def hom_basis(X: Module, Y: Module) -> tuple:
    """Basis of Hom_A(X, Y) as a tuple of matrices (dim Y x dim X).

    Solved once per (X, Y) and kept on X under Y's stack (see _solve_hom)."""
    A = X.algebra
    if A is not Y.algebra and A != Y.algebra:
        raise DimensionMismatch("hom between modules over different algebras")
    if X.dim == 0 or Y.dim == 0:
        return ()
    return derived(X, ("hom", Y.stack), _solve_hom, X, Y)


def _solve_hom(X: Module, Y: Module) -> tuple:
    """The basis of Hom_A(X, Y), solved blockwise: an intertwiner maps e·X into
    e·Y for every distinguished idempotent e, so unknowns live only on matching
    blocks; the remaining equations come from a generating set of the algebra,
    built from the stored nonzeros of the generators' actions conjugated to the
    block bases.  Each kernel vector is a block-diagonal map F_t, and the nk
    maps are TY F_t TXi: one product against TXi for all of them, stacked, then
    one TY product each.
    """
    f = X.algebra.field
    xsizes, _, TXi, RX = _block_data(X)
    ysizes, TY, _, SY = _block_data(Y)
    nx, ny = X.dim, Y.dim
    xoff, yoff = _offsets(xsizes), _offsets(ysizes)
    # unknown F[a, b], a and b in block k, is number ubase[k] + (a - yoff[k]) * xsizes[k] + (b - xoff[k])
    ubase = _offsets([ys * xs for ys, xs in zip(ysizes, xsizes)])
    nu = ubase[-1]
    if not nu:
        return ()
    yblock_of = [k for k, s in enumerate(ysizes) for _ in range(s)]

    # F R - S F = 0 for R, S the conjugated actions of each generator, one
    # equation per entry (i, j), scaled to integers by lcm(R.den, S.den).  The
    # terms are read off the stored nonzeros of R and S.
    eqs = []
    for R, S in zip(RX, SY):
        den = lcm(R.den, S.den)
        fr, fs = den // R.den, den // S.den
        Rrows = R.nonzeros
        for i, srow in enumerate(S.nonzeros):
            row_eqs = {}  # j -> {unknown: coefficient} of equation (i, j)
            # + F[i, b] R[b, j], b in the block of i
            ki = yblock_of[i]
            ui = ubase[ki] + (i - yoff[ki]) * xsizes[ki] - xoff[ki]
            for b in range(xoff[ki], xoff[ki + 1]):
                if Rrows[b]:
                    u = ui + b
                    for j, c in zip(*Rrows[b]):
                        eq = row_eqs.setdefault(j, {})
                        eq[u] = eq.get(u, 0) + fr * c
            # - S[i, a] F[a, j], j in the block of a
            if srow:
                for a, c in zip(*srow):
                    ka = yblock_of[a]
                    ua = ubase[ka] + (a - yoff[ka]) * xsizes[ka] - xoff[ka]
                    for j in range(xoff[ka], xoff[ka + 1]):
                        eq = row_eqs.setdefault(j, {})
                        eq[ua + j] = eq.get(ua + j, 0) - fs * c
            for eq in row_eqs.values():
                unknowns = sorted(eq)
                eqs.append((unknowns, [eq[u] for u in unknowns]))
    if eqs:
        K = Matrix.from_integers(f, len(eqs), nu, eqs).kernel_basis()
    else:
        K = Matrix.identity(f, nu)
    nk = K.cols
    if not nk:
        return ()
    # Kernel vector t as the block-diagonal matrix F_t, the F_t stacked top to
    # bottom: unknown u is entry cell[u] of each F_t.
    cell = [(yoff[k] + a, xoff[k] + b) for k, (ys, xs) in enumerate(zip(ysizes, xsizes))
            for a in range(ys) for b in range(xs)]
    where = [[] for _ in range(nk * ny)]
    vals = [[] for _ in range(nk * ny)]
    for u, r in enumerate(K.nonzeros):
        if r:
            a, b = cell[u]
            for t, x in zip(*r):
                where[t * ny + a].append(b)
                vals[t * ny + a].append(x)
    F = Matrix.from_integers(f, nk * ny, nx, [(w, v) if w else None for w, v in zip(where, vals)], K.den)
    return tuple([TY * G for G in (F * TXi).vsplit(nk)])


# -- isomorphism testing ------------------------------------------------------------


@dataclass
class IsoVerdict:
    kind: str  # "iso" | "not_iso" | "undetermined"
    certificate: Matrix | None = None
    witness: str | None = None

    def __bool__(self):
        return self.kind == "iso"


def _trial_coefficients(rng, n):
    return [rng.randint(-ISO_HEIGHT, ISO_HEIGHT) for _ in range(n)]


def _is_simple(S: Module) -> bool:
    """S (semisimple) is simple: one composition label, and the dimension of that simple."""
    labels = [lab for lab in S.algebra.labels if comp_mult(S, lab)]
    return len(labels) == 1 and S.dim == simple(S.algebra, labels[0]).dim


def _has_local_endomorphisms(Y: Module) -> bool:
    """Y has a simple top or a simple socle, so Y is indecomposable and End(Y) is local."""
    return _is_simple(Y.top()[0]) or _is_simple(Y.submodule(Y.socle_subspace())[0])


def iso_test(X: Module, Y: Module) -> IsoVerdict:
    """Certificate-bearing isomorphism test.

    "iso" carries an invertible intertwiner; "not_iso" carries a distinguishing
    invariant; otherwise "undetermined" (never a guess).

    If X = Y via some f, then Hom(X, Y) = End(Y)·f and the isomorphisms are the
    units of End(Y) times f.  When End(Y) is local its units are the complement
    of a proper subspace, so some map of any basis of Hom(X, Y) is invertible:
    for such Y the basis answers exactly, and the seeded random combinations are
    tried only for the other (decomposable) Y.
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
    for h in homs:
        if h.rank() == X.dim:
            return IsoVerdict("iso", certificate=h)
    if _has_local_endomorphisms(Y):
        return IsoVerdict("not_iso", witness="End(Y) is local and no basis map of Hom(X, Y) is invertible")
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
        ex, ey = ext_dim(X, L, 1), ext_dim(Y, L, 1)
        if ex != ey:
            return IsoVerdict("not_iso", witness=f"dim Ext^1(-, L_{lab}): {ex} != {ey}")
    return IsoVerdict("undetermined")


def _search_invertible(homs, dim):
    """An invertible combination of the homs (no single one is), or None."""
    f = homs[0].field
    total = Matrix.linear_combination(f, dim, dim, [(1, h) for h in homs])
    if total.rank() == dim:
        return total
    rng = random.Random(ISO_SEED)
    for _ in range(ISO_TRIALS):
        cand = Matrix.linear_combination(f, dim, dim, zip(_trial_coefficients(rng, len(homs)), homs))
        if cand.rank() == dim:
            return cand
    return None


def surjection_onto_power(X: Module, D: Module, t: int) -> Matrix | None:
    """An epimorphism X ->> D^t stacked from t maps X -> D, or None.

    Exact when D has simple top L with End(L) = k (every validated algebra is
    split): by Nakayama, maps h_1, ..., h_t: X -> D are onto D^t exactly when
    their composites with D ->> top(D) are linearly independent.  The homs kept
    are the first t of Hom(X, D)'s basis whose composites are independent of the
    earlier ones; at t = 1 that is the first h with a nonzero composite.
    """
    homs = hom_basis(X, D)
    if len(homs) < t:
        return None
    rad = D.radical_subspace()
    # column k holds the entries of h_k mod rad D, so the pivots are the greedy independent picks
    tops = rad.project(Matrix.vcat(homs), len(homs)).reshape(len(homs), (D.dim - rad.dim) * X.dim).transpose()
    pivots = tops.rref()[1]
    if len(pivots) < t:
        return None
    cand = Matrix.vcat([homs[k] for k in pivots[:t]])
    if cand.rank() != t * D.dim:
        raise InvariantViolation("family member does not have simple top")
    return cand


def iso_to_direct_power(X: Module, S: Module, t: int) -> Matrix | None:
    """Invertible map X -> S^t stacked from t maps in Hom(X, S), or None.

    Exact when S has simple top (see surjection_onto_power): X = S^t iff
    dim X = t·dim S and X maps onto S^t.
    """
    if X.dim != t * S.dim:
        return None
    if t == 0:
        return Matrix.zeros(X.algebra.field, 0, 0)
    return surjection_onto_power(X, S, t)
