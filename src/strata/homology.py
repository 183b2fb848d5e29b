"""Minimal projective resolutions, Ext groups, and comparison maps on Ext.

A resolution layer is a list of summands P_label = A·e, e the first
distinguished idempotent with that label.  Differentials are stored twice:
concretely, as matrices between the realized direct sums, and symbolically, as
grids of algebra elements m ∈ e_col·A·e_row acting by right multiplication.
The symbolic form is what makes Hom(P_n, Y) = ⊕ e_u·Y computable without
solving intertwiner systems, and is what transports along algebra embeddings.
"""

from __future__ import annotations

from .errors import InvariantViolation
from .kernel.matrix import Matrix
from .kernel.subspace import Subspace
from .memo import derived
from .modules import Module, left_ideal, projective


class Summand:
    """P_label = A e as a resolution summand, e the first distinguished idempotent
    with that label, with basis the columns of `basis` (in A's coordinates).

    The module is `projective(A, label)` itself, so every summand for the same
    label shares one module.
    """

    __slots__ = ("e_vec", "basis", "module", "label")

    def __init__(self, algebra, label):
        self.label = label
        self.e_vec = tuple(algebra.idempotent_for_label(label))
        self.module = projective(algebra, label)
        self.basis = left_ideal(algebra, label).inclusion()


def _minimal_cover(A, K: Module):
    """Summands and lift vectors of the projective cover of K.

    Returns (list of (label, lift column vector in K coords)); lifts project
    onto a basis of top(K), one summand P_label per lift.
    """
    covers = []
    seen = K.radical_subspace()
    for lab in A.labels:
        part = K.e_part(A.idempotent_for_label(lab))
        for i in range(part.dim):
            v = part.basis.take_rows([i])
            if not seen.contains_columns(v.transpose()):
                covers.append((lab, v.transpose()))
                seen = Subspace.row_space(seen.basis.vstack(v))
    return covers


def _cover_matrix(K: Module, covers, summands) -> Matrix:
    """The map from the direct sum of the summands onto K sending each summand's
    generator to its lift: block s is a |-> a·v on A e_s, in the summand's basis."""
    blocks = [K.orbit_matrix(v) * s.basis for (_, v), s in zip(covers, summands)]
    return Matrix.hcat(blocks) if blocks else Matrix.zeros(K.algebra.field, K.dim, 0)


class Resolution:
    """Minimal projective resolution of a module, extended on demand.

    Layer 0, the projective cover of X, is built at once; the later layers
    need nothing of X, so the resolution keeps no reference to it.
    """

    def __init__(self, X: Module):
        self.A = X.algebra
        self.layers = []  # list of list[Summand]
        self.diffs = []  # diffs[0]: aug (dimX x dimP0); diffs[n]: P_n -> P_{n-1}
        self.element_diffs = []  # element_diffs[n][s][u] in A-coords, n >= 1
        self.modules = []  # concrete P_n
        self._exhausted_at = None  # layer index where the resolution stops (kernel 0)
        self._append_layer(X, None, prev_layer_exists=False)

    def _concrete(self, summands):
        if not summands:
            return Module.zero(self.A)
        return Module.direct_sum([s.module for s in summands])

    def _append_layer(self, kernel_module, kernel_incl, prev_layer_exists):
        A = self.A
        covers = _minimal_cover(A, kernel_module)
        summands = [Summand(A, lab) for lab, _ in covers]
        cover = _cover_matrix(kernel_module, covers, summands)  # concrete map P_new -> kernel_module
        concrete = kernel_incl * cover if prev_layer_exists else cover
        self.layers.append(summands)
        self.modules.append(self._concrete(summands))
        self.diffs.append(concrete)
        if len(self.layers) >= 2:
            self.element_diffs.append(self._elements_of(len(self.layers) - 1))
        return summands

    def _elements_of(self, n):
        """Differential d_n expressed as algebra elements, grid [s][u]."""
        prev = self.layers[n - 1]
        cur = self.layers[n]
        offs = [0]
        for s in prev:
            offs.append(offs[-1] + s.module.dim)
        grid = []
        for si, s in enumerate(prev):
            row = []
            for ui, u in enumerate(cur):
                # image of the generator e_u: column at the generator coordinate
                col = self._generator_column(n, ui)
                block = col[offs[si] : offs[si + 1]]
                elem = (s.basis * Matrix.column(self.A.field, block)).col(0)
                row.append(tuple(elem))
            grid.append(row)
        return grid

    def _generator_column(self, n, ui):
        """Concrete image under d_n of the generator e_u of the ui-th summand."""
        cur = self.layers[n]
        f = self.A.field
        off = 0
        for k in range(ui):
            off += cur[k].module.dim
        gen = cur[ui].e_vec
        coords, rem = _coords_in(cur[ui].basis, gen, f)
        if rem is not None:
            raise InvariantViolation("a summand generator e lies outside its summand A e")
        vec = [f.zero] * self.modules[n].dim
        for k, c in enumerate(coords):
            vec[off + k] = c
        return (self.diffs[n] * Matrix.column(f, vec)).col(0)

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
            ker_space = Subspace.row_space(K.transpose())
            if ker_space.dim == 0:
                self._exhausted_at = len(self.layers)
                continue
            ker_mod, incl = P.submodule(ker_space)
            self._append_layer(ker_mod, incl, prev_layer_exists=True)
        return self

    def length_if_finite(self, cap):
        """Projective dimension of X if <= cap, else None."""
        self.extend_to(cap + 1)
        if self._exhausted_at is None:
            return None
        return self._exhausted_at - 1

    def layer_idempotents(self, n):
        return [s.e_vec for s in self.layers[n]]


def _coords_in(basis: Matrix, vec, f):
    X = basis.solve(Matrix.column(f, list(vec)))
    if X is None:
        return None, vec
    return [X[i, 0] for i in range(X.rows)], None


def resolution(X: Module) -> Resolution:
    return derived(X, ("resolution",), Resolution, X)


# -- Hom cochain complexes --------------------------------------------------------


def hom_cochain(A, layer_idems, element_diffs, Y: Module, upto):
    """Cochain data of Hom(P_*, Y) for layers given by idempotent elements.

    Returns (space dims C^0..C^upto, delta matrices D_1..D_upto with
    D_n: C^{n-1} -> C^n).  layer_idems[n] lists the summand idempotents of
    P_n; element_diffs[n-1][s][u] is the right-multiplication element of the
    component A·e_u -> A·e_s of d_n.
    """
    f = A.field
    bases = []  # per layer: list of (Subspace of e_u Y, basis columns Matrix)
    for n in range(min(upto, len(layer_idems) - 1) + 1):
        layer = []
        for e in layer_idems[n]:
            layer.append(Subspace.row_space(Y.act(e).transpose()))
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
                m = grid[si][ui] if grid and si < len(grid) and ui < len(grid[si]) else None
                if m is not None and Su.dim and Ss.dim:
                    blocks.append(Su.coordinates(Y.act(m) * Ss.inclusion()))
                else:
                    blocks.append(Matrix.zeros(f, Su.dim, Ss.dim))
            block_rows.append(Matrix.hcat(blocks))
        deltas.append(Matrix.vcat(block_rows))
    return dims, deltas, bases


def ext_dims_upto(X: Module, Y: Module, nmax) -> list:
    """[dim Ext^0, ..., dim Ext^nmax], via a minimal projective resolution."""
    A = X.algebra
    res = resolution(X).extend_to(nmax + 1)
    layer_idems = [res.layer_idempotents(n) for n in range(len(res.layers))]
    dims, deltas, _ = hom_cochain(A, layer_idems, res.element_diffs, Y, nmax + 1)
    out = []
    for n in range(nmax + 1):
        cn = dims[n] if n < len(dims) else 0
        d_out = deltas[n] if n < len(deltas) else None  # D_{n+1}: C^n -> C^{n+1}
        d_in = deltas[n - 1] if 1 <= n <= len(deltas) else None
        ker = cn - (d_out.rank() if d_out is not None else 0)
        im = d_in.rank() if d_in is not None else 0
        out.append(ker - im)
    return out


def ext_dim(X: Module, Y: Module, n: int) -> int:
    return ext_dims_upto(X, Y, n)[n]


def global_dimension(A, cap=12):
    """Max projective dimension of the simples if all are <= cap, else None."""
    from .modules import simple

    worst = 0
    for lab in A.labels:
        L = simple(A, lab)
        d = resolution(L).length_if_finite(cap)
        if d is None:
            return None
        worst = max(worst, d)
    return worst


def induced_map_profile(dims_b, deltas_b, dims_a, deltas_a, verticals, n):
    """(dim H^n_B, dim H^n_A, rank of the induced map) for a cochain map.

    verticals[k]: C^k_B -> C^k_A matrices commuting with the deltas.
    """
    f = verticals[0].field if verticals else None

    def pieces(dims, deltas, k):
        c = dims[k] if k < len(dims) else 0
        d_out = deltas[k] if k < len(deltas) else None
        d_in = deltas[k - 1] if 1 <= k <= len(deltas) else None
        return c, d_out, d_in

    cb, bout, bin_ = pieces(dims_b, deltas_b, n)
    ca, aout, ain = pieces(dims_a, deltas_a, n)
    ker_b = bout.kernel_basis() if bout is not None else Matrix.identity(f, cb)
    ker_a_dim = ca - (aout.rank() if aout is not None else 0)
    hb = ker_b.cols - (bin_.rank() if bin_ is not None else 0)
    ha = ker_a_dim - (ain.rank() if ain is not None else 0)
    V = verticals[n]
    M = V * ker_b  # columns: images of the kernel basis
    # image of the induced map on cohomology = (V(ker) + im)/im; chain-map
    # property sends coboundaries into coboundaries, so nothing to subtract
    stack = M
    im_rank = 0
    if ain is not None:
        stack = M.hstack(ain)
        im_rank = ain.rank()
    image_dim = stack.rank() - im_rank
    return hb, ha, image_dim
