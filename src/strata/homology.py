"""Minimal projective resolutions, Ext groups, and comparison maps on Ext.

A resolution layer is the list of its summands' labels: the summand for a
label is P_label = A·e, e the first distinguished idempotent with that label,
realized as projective(A, label) on left_ideal(A, label), so every summand for
one label is one module.  Differentials are stored twice:
concretely, as matrices between the realized direct sums, and symbolically, as
grids of algebra elements m ∈ e_col·A·e_row acting by right multiplication.
The symbolic form is what makes Hom(P_n, Y) = ⊕ e_u·Y computable without
solving intertwiner systems, and is what transports along algebra embeddings.
It is read, not solved: the coordinates of each summand generator e in the
RREF basis of A e are its entries at the pivots (kept once per label), and d_n
of all the generators of P_n is one product.  Each layer's projective cover
(projective_cover, which SubalgebraEmbedding.induction_is_exact also reads) is
read the same way, from one elimination per label (see _minimal_cover), with
no span grown one vector at a time.

Dimensions of Ext and the ranks of the comparison maps on Ext (borel.
check_regular) come from one routine, cohomology, which eliminates each delta
of a cochain complex once.  What is kept goes through memo.derived: a module's
resolution under ("resolution",), its Ext row to Y under ("ext", Y.stack,
nmax), and each summand generator's coordinates under ("Ae-generator", label)
on the algebra.
"""

from __future__ import annotations

from .errors import DimensionMismatch, InvariantViolation, NotInSubspace
from .kernel.matrix import Matrix
from .kernel.subspace import Subspace
from .memo import derived
from .modules import Module, left_ideal, projective, simple

GLDIM_CAP = 12


def _minimal_cover(A, K: Module):
    """Summands and lift vectors of the projective cover of K.

    Returns (list of (label, lift column vector in K coords)); lifts project
    onto a basis of top(K), one summand P_label per lift.  K is the direct sum
    of the e·K and rad K of the e·rad K, so top(K) is the direct sum of the
    images of the e·K: for each label the lifts are the basis vectors of e·K
    at the pivot columns of their images in K/rad K, one projection of the
    (cached) inclusion and one elimination per label.
    """
    rad = K.radical_subspace()
    covers = []
    for lab in A.labels:
        S = K.e_part(A.idempotent_for_label(lab))
        # the images of the basis vectors in K ->> K/rad K, as columns
        for i in rad.project(S.inclusion()).rref()[1]:
            # column i of the inclusion, read off basis row i: a column pick would
            # scan every row of the inclusion once per lift
            covers.append((lab, S.basis.take_rows([i]).transpose()))
    return covers


def projective_cover(K: Module):
    """(labels, cover): the projective cover of K is the direct sum of the
    P_label = A e over labels, in order, and cover maps it onto K, sending each
    summand's generator e to its lift (block s is a |-> a·v on A e_s, in the
    basis of left_ideal)."""
    A = K.algebra
    covers = _minimal_cover(A, K)
    blocks = [left_ideal(A, lab).restrict(K.orbit_matrix(v)) for lab, v in covers]
    cover = Matrix.hcat(blocks) if blocks else Matrix.zeros(A.field, K.dim, 0)
    return [lab for lab, _ in covers], cover


class Resolution:
    """Minimal projective resolution of a module, extended on demand.

    Layer 0, the projective cover of X, is built at once; the later layers
    need nothing of X, so the resolution keeps no reference to it.
    """

    def __init__(self, X: Module):
        self.A = X.algebra
        self.layers = []  # layers[n]: the labels of P_n's summands
        self.diffs = []  # diffs[0]: aug (dimX x dimP0); diffs[n]: P_n -> P_{n-1}
        self.element_diffs = []  # element_diffs[n][s][u] in A-coords, n >= 1
        self.modules = []  # concrete P_n
        self._exhausted_at = None  # layer index where the resolution stops (kernel 0)
        self._append_layer(X, None)

    def _concrete(self, labels):
        if not labels:
            return Module.zero(self.A)
        return Module.direct_sum([projective(self.A, lab) for lab in labels])

    def _append_layer(self, kernel_module, kernel_space):
        """Cover kernel_module, the submodule on kernel_space of the last layer's
        module (X itself for layer 0, when kernel_space is None)."""
        labels, cover = projective_cover(kernel_module)  # cover: P_new -> kernel_module
        concrete = cover if kernel_space is None else kernel_space.embed(cover)
        self.layers.append(labels)
        self.modules.append(self._concrete(labels))
        self.diffs.append(concrete)
        if len(self.layers) >= 2:
            self.element_diffs.append(self._elements_of(len(self.layers) - 1))

    def _elements_of(self, n):
        """Differential d_n expressed as algebra elements (1 x dim A rows), grid [s][u]:
        the component of d_n(e_u), e_u the generator of the u-th summand of P_n, in the
        s-th summand of P_{n-1}, as an element of A e_s."""
        A = self.A
        # column u: the coordinates of e_u in its summand's basis, at the summand's offset
        gens = Matrix.block_diagonal(A.field, [_generator_coordinates(A, lab) for lab in self.layers[n]])
        images = self.diffs[n] * gens
        grid = []
        off = 0
        for lab in self.layers[n - 1]:
            # row u: the component of d_n(e_u), in A's coordinates
            space = left_ideal(A, lab)
            elems = space.embed(images.take_rows(range(off, off + space.dim))).transpose()
            off += space.dim
            grid.append([elems.take_rows([u]) for u in range(elems.rows)])
        return grid

    def extend_to(self, n):
        """Ensure layers 0..n exist (or the resolution is known exhausted)."""
        while len(self.layers) <= n:
            if self._exhausted_at is not None:
                self.layers.append([])
                self.modules.append(Module.zero(self.A))
                self.diffs.append(Matrix.zeros(self.A.field, self.modules[-2].dim, 0))
                if len(self.layers) >= 2:
                    self.element_diffs.append([[ ] for _ in self.layers[-2]])
                continue
            P = self.modules[-1]
            D = self.diffs[-1]
            K = D.kernel_basis()
            ker_space = Subspace.column_space(K)
            if ker_space.dim == 0:
                self._exhausted_at = len(self.layers)
                continue
            self._append_layer(P.submodule(ker_space), ker_space)
        return self

    def length_if_finite(self, cap):
        """Projective dimension of X if <= cap, else None."""
        self.extend_to(cap + 1)
        if self._exhausted_at is None:
            return None
        return self._exhausted_at - 1

    def layer_idempotents(self, n):
        return [self.A.idempotent_for_label(lab) for lab in self.layers[n]]


def _generator_coordinates(A, label) -> Matrix:
    """The column of coordinates of the summand generator e in the basis of A e,
    read at the pivots of left_ideal(A, label); computed once per label."""
    return derived(A, ("Ae-generator", str(label)), _read_generator_coordinates, A, label)


def _read_generator_coordinates(A, label) -> Matrix:
    try:
        return left_ideal(A, label).coordinates(A.idempotent_for_label(label).transpose())
    except NotInSubspace as exc:
        raise InvariantViolation("a summand generator e lies outside its summand A e") from exc


def resolution(X: Module) -> Resolution:
    return derived(X, ("resolution",), Resolution, X)


# -- Hom cochain complexes --------------------------------------------------------


def hom_cochain(A, layer_idems, element_diffs, Y: Module, upto):
    """Cochain data of Hom(P_*, Y) for layers given by idempotent elements.

    Returns (space dims C^0..C^upto, delta matrices D_1..D_upto with
    D_n: C^{n-1} -> C^n).  layer_idems[n] lists the summand idempotents of
    P_n; element_diffs[n-1][s][u] is the right-multiplication element of the
    component A·e_u -> A·e_s of d_n.  Elements are 1 x dim A rows.
    """
    f = A.field
    bases = []  # per layer: list of (Subspace of e_u Y, basis columns Matrix)
    for n in range(min(upto, len(layer_idems) - 1) + 1):
        layer = []
        for e in layer_idems[n]:
            layer.append(Subspace.column_space(Y.act(e)))
        bases.append(layer)
    dims = [sum(s.dim for s in layer) for layer in bases]
    deltas = []
    for n in range(1, len(bases)):
        prev, cur = bases[n - 1], bases[n]
        rows_out = sum(s.dim for s in cur)
        cols_in = sum(s.dim for s in prev)
        grid = element_diffs[n - 1]
        if not (rows_out and cols_in):
            deltas.append(Matrix.zeros(f, rows_out, cols_in))
            continue
        block_rows = []
        for ui, Su in enumerate(cur):
            blocks = []
            for si, Ss in enumerate(prev):
                m = grid[si][ui]
                if Su.dim and Ss.dim and not m.is_zero():
                    blocks.append(Su.coordinates(Ss.restrict(Y.act(m))))
                else:
                    blocks.append(Matrix.zeros(f, Su.dim, Ss.dim))
            block_rows.append(Matrix.hcat(blocks))
        deltas.append(Matrix.vcat(block_rows))
    return dims, deltas, bases


def ext_dims_upto(X: Module, Y: Module, nmax) -> list:
    """[dim Ext^0, ..., dim Ext^nmax], via a minimal projective resolution;
    computed once per (X, Y, nmax) and kept on X under Y's stack."""
    A = X.algebra
    if A is not Y.algebra and A != Y.algebra:
        raise DimensionMismatch("Ext between modules over different algebras")
    return list(derived(X, ("ext", Y.stack, nmax), _ext_dims, X, Y, nmax))


def _ext_dims(X: Module, Y: Module, nmax) -> tuple:
    A = X.algebra
    res = resolution(X).extend_to(nmax + 1)
    layer_idems = [res.layer_idempotents(n) for n in range(len(res.layers))]
    dims, deltas, _ = hom_cochain(A, layer_idems, res.element_diffs, Y, nmax + 1)
    return tuple(cohomology(dims, deltas, range(nmax + 1)))


def cohomology(dims, deltas, degrees, target=None) -> list:
    """dim H^n for each n in degrees (ascending) of the cochain complex whose C^n
    has dimension dims[n] and whose D_{n+1}: C^n -> C^{n+1} is deltas[n], both
    zero past their lists: dim C^n - rank D_{n+1} - rank D_n.  Each delta is
    eliminated once, although two degrees read it.

    With target = (dims_a, deltas_a, verticals), verticals[n]: C^n -> C^n_A a
    cochain map into a second complex, each entry is instead (dim H^n,
    dim H^n_A, rank of the induced map H^n -> H^n_A).  The image of the induced
    map is (V Z^n + B^n_A)/B^n_A for Z^n = ker D_{n+1}, one kernel per degree
    (which also gives rank D_{n+1}); the cochain map sends coboundaries into
    coboundaries, so nothing else is subtracted.
    """
    known = {}
    rank = _ranks(deltas, known)
    if target is None:
        return [_dim(dims, n) - rank(n) - rank(n - 1) for n in degrees]
    dims_a, deltas_a, verticals = target
    rank_a = _ranks(deltas_a, {})
    out = []
    for n in degrees:
        V = verticals[n]
        if n < len(deltas):
            Z = deltas[n].kernel_basis()
            known[n] = deltas[n].cols - Z.cols  # rank D_{n+1}, for degree n + 1
        else:
            Z = Matrix.identity(V.field, _dim(dims, n))
        image = V * Z
        if 1 <= n <= len(deltas_a):
            image = image.hstack(deltas_a[n - 1])
        out.append((Z.cols - rank(n - 1), _dim(dims_a, n) - rank_a(n) - rank_a(n - 1),
                    image.rank() - rank_a(n - 1)))
    return out


def _dim(dims, n):
    return dims[n] if n < len(dims) else 0


def _ranks(deltas, known):
    """k -> rank deltas[k] (0 past the list), read from known or eliminated once into it."""
    def rank(k):
        if not 0 <= k < len(deltas):
            return 0
        if k not in known:
            known[k] = deltas[k].rank()
        return known[k]
    return rank


def ext_dim(X: Module, Y: Module, n: int) -> int:
    return ext_dims_upto(X, Y, n)[n]


def global_dimension(A):
    """Max projective dimension of the simples if all are <= GLDIM_CAP, else None."""
    worst = 0
    for lab in A.labels:
        L = simple(A, lab)
        d = resolution(L).length_if_finite(GLDIM_CAP)
        if d is None:
            return None
        worst = max(worst, d)
    return worst
