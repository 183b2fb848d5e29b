"""Test-only reference implementations of module and algebra computations.

These are the plain textbook versions the library's faster routines are
checked against; nothing in the library calls them.  The trace of a
projective is the closure it was defined by, and left and right
multiplication matrices are the linear combinations of per-basis matrices
they were built from.  The algebra table references
are the earlier loop constructions, kept verbatim over the sparse
multiplication table ``mult[i][j] = ((k, c_ij^k), ...)`` (nonzero
coefficients, k ascending) that algebras used to store; ``sparse_table``
reads that form off an algebra's integer table.  The nonbasic-endo corpus
spec, a table no one reads by eye, is checked against the matrix-pattern
construction it was written from.  The module and resolution data that the
library now reads off canonical bases -- hom_basis's block data, the
resolution differentials as algebra elements, the kernel of Delta_i ->>
DeltaBar_i, the projective covers of a resolution and the generators of an
algebra -- are kept here as the eliminations and closure searches they used
to be, with the invariant closure of a module that the library no longer
needs.  Module.action_on, quotient and dual are kept as they were when a
module held one action matrix per basis element, and the tensor product of
two algebras, which no library code builds, lives here too.  The adjunction
loop of criterion c13 is kept as it was before its functor images moved out
of the inner loop, recording each comparison it makes.  Matrix.column,
Matrix.scale, Matrix.hsplit and Algebra.basis_left_mult, which no library code
calls, live here as functions.  The layout chains the library now runs in one
pass over the stored nonzeros -- Subspace.row_space and projection_matrix,
act_rows, Algebra.right_mult_matrix and products, Module.regular and the
block data's conjugated generators -- are kept verbatim as the references
the fused routines must equal, stored form included.  So are the Subspace
reads and the Module.action_on, quotient, image_of and block-data bodies from
before coordinate subspaces were read off their pivots; ref_action_on,
ref_quotient_action and ref_projection_matrix build the inclusion as the
transposed basis, so they never reach that path either.  The Ext loop that
read one degree at a time, and induced_map_profile, check homology.cohomology,
which eliminates each delta once for every degree.
"""

import json
from bisect import bisect_left

from strata.algebra import ASSOCIATIVITY, Algebra, structure_constant_algebra
from strata import corpus as _corpus
from strata.corpus import corpus_path
from strata.errors import (
    DimensionMismatch,
    FieldMismatch,
    InvalidModule,
    InvariantViolation,
    NotFiniteDimensionalWithinBound,
    NotInSubspace,
)
from strata.homology import hom_cochain, resolution
from strata.kernel.fields import QQ
from strata.kernel.matrix import Matrix
from strata.kernel.subspace import Subspace
from strata.memo import Family
from strata.modules import Module
from strata.quiver import enumerate_paths


# -- Matrix methods without a library caller -------------------------------------------
# Matrix.column, Matrix.scale and Matrix.hsplit, moved here verbatim (as functions)
# when the library stopped calling them.


def column(field, vec):
    """The len(vec) x 1 matrix with the entries of vec."""
    return Matrix(field, len(vec), 1, list(vec))


def scale(M, c):
    """c · M for a scalar c."""
    f = M.field
    c = f.coerce(c)
    if not c:
        return Matrix.zeros(f, M.rows, M.cols)
    if f.char:
        p = f.char
        rows = tuple([r and (r[0], tuple([c * x % p for x in r[1]])) for r in M.nonzeros])
        return Matrix._new(f, M.rows, M.cols, 1, rows)
    num = c.numerator
    rows = tuple([r and (r[0], tuple([num * x for x in r[1]])) for r in M.nonzeros])
    return Matrix._reduced(f, M.rows, M.cols, c.denominator * M.den, rows)


def hsplit(M, k):
    """The k column blocks of equal width, left to right."""
    if k <= 0 or M.cols % k:
        raise DimensionMismatch(f"cannot split {M.cols} columns into {k} blocks")
    w = M.cols // k
    blocks = [[] for _ in range(k)]
    for r in M.nonzeros:
        if r is None:
            for b in blocks:
                b.append(None)
            continue
        where, vals = r
        lo = 0
        for t, b in enumerate(blocks):
            hi = bisect_left(where, (t + 1) * w, lo)
            if hi == lo:
                b.append(None)
            else:
                off = t * w
                b.append((tuple([j - off for j in where[lo:hi]]) if off else where[lo:hi], vals[lo:hi]))
                lo = hi
    return [Matrix._reduced(M.field, M.rows, w, M.den, tuple(b)) for b in blocks]


def basis_left_mult(A, i):
    """L_i, the matrix of a |-> b_i * a: column j is b_i * b_j (Algebra.basis_left_mult,
    moved here when Module.regular stopped calling it)."""
    n = A.dim
    return A.table.take_rows([i]).reshape(n, n).transpose()


# -- Subspace and Module bodies from before the coordinate case -------------------------
# Subspace.inclusion, coordinates, contains_columns and lift_matrix, and the
# bodies of Module.action_on, Module.quotient, Module.image_of and
# modules._build_block_data, as they were before coordinate subspaces (spans of
# unit vectors) were read off their pivots: every one multiplies by the
# transposed basis or the projection, whatever the subspace.  Verbatim apart
# from taking their object as an argument and calling each other.


def ref_inclusion(S):
    """ambient_dim x dim matrix whose columns are the basis vectors."""
    return S.basis.transpose()


def ref_coordinates(S, img, blocks=1):
    """C with inclusion() * C == img, re-checked by one product."""
    n = S.ambient_dim
    C = img.take_rows([t * n + p for t in range(blocks) for p in S.pivots])
    if ref_inclusion(S).mul_blocks(C, blocks) != img:
        raise NotInSubspace(f"a vector leaves the {S!r}")
    return C


def ref_contains_columns(S, img):
    """True when every column of img lies in the subspace."""
    return ref_inclusion(S) * img.take_rows(S.pivots) == img


def ref_lift_matrix(S):
    """Section k^C -> k^n sending the class of e_c to e_c."""
    return Matrix.identity(S.field, S.ambient_dim).take_rows(S.complement_coords()).transpose()


def ref_stack_action_on(X, subspace, R=None):
    """Module.action_on: the stacked coordinate matrices of act(r) on an invariant
    subspace, from one block product and one block check."""
    stack, k = (X.stack, X.algebra.dim) if R is None else (X.act_rows(R), R.rows)
    try:
        return ref_coordinates(subspace, stack * ref_inclusion(subspace), blocks=k)
    except NotInSubspace as exc:
        raise InvalidModule("subspace is not action-invariant") from exc


def ref_stack_quotient(X, subspace):
    """Module.quotient's (stack of the quotient, projection), for a nonzero subspace."""
    proj = ref_projection_matrix(subspace)
    # each action matrix times the lift is its complement columns
    kept = X.stack.take_cols(subspace.complement_coords())
    return proj.mul_blocks(kept, X.algebra.dim), proj


def ref_image_of(X, R, on=None):
    """Module.image_of: the span of r·x over the rows r of R and all x in X, or in on."""
    if R.rows == 0 or X.dim == 0 or (on is not None and on.dim == 0):
        return Subspace.zero(X.algebra.field, X.dim)
    acts = X.act_rows(R)
    if on is not None:
        acts = acts * ref_inclusion(on)
    # the columns of every act(r) (restricted to `on`), as rows
    return Subspace.row_space(acts.transpose_blocks(R.rows))


def ref_fused_block_data(X):
    """modules._build_block_data with the generators conjugated by one product by T
    and one block product by T^-1, whatever the blocks."""
    A = X.algebra
    acts = [X.act(e) for e, _ in A.idempotents]
    blocks = [Subspace.row_space(E.transpose()) for E in acts]
    if sum(B.dim for B in blocks) != X.dim:
        raise InvalidModule("idempotent blocks do not decompose the module")
    T = Matrix.hcat([ref_inclusion(B) for B in blocks])
    Ti = Matrix.vcat([E.take_rows(B.pivots) for E, B in zip(acts, blocks)])
    # Ti · act(g) · T for each non-idempotent generator g, all acts stacked
    G = A.generators()
    k = len(A.idempotents)
    m = G.rows - k
    conj = tuple(Ti.mul_blocks(X.act_rows(G.take_rows(range(k, G.rows))) * T, m).vsplit(m)) if m else ()
    return tuple(B.dim for B in blocks), T, Ti, conj


# -- layout chains the library now runs in one pass ------------------------------------
# The composite bodies Subspace.row_space, Subspace.projection_matrix,
# modules._act_rows, Algebra.right_mult_matrix, Algebra.products, Module.regular
# and modules._build_block_data had before each became one pass over the
# stored nonzeros, verbatim apart from taking their object as an argument.


def ref_row_space(M):
    """The span of the rows of M, its basis cut from the RREF by take_rows."""
    if M.is_zero():
        return Subspace(M.field, M.cols, Matrix.zeros(M.field, 0, M.cols), ())
    R, pivots = M.rref()
    return Subspace(M.field, M.cols, R.take_rows(range(len(pivots))), pivots)


def ref_projection_matrix(S):
    """Matrix of k^n -> k^C, v |-> (v mod S) in complement coordinates."""
    comp = S.complement_coords()
    ident = Matrix.identity(S.field, S.ambient_dim)
    # v - sum_k v[pivot_k] * basis_k, read at the complement coordinates
    return ident.take_rows(comp) - ref_inclusion(S).take_rows(comp) * ident.take_rows(S.pivots)


def ref_act_rows(stack, R, n, d):
    """The action of each row of R on the module of dim d over an n-dimensional
    algebra whose action is stack, stacked top to bottom: one product."""
    return (R * stack.reshape(n, d * d)).reshape(R.rows * d, d)


def ref_right_mult_kron(A, vec):
    """Matrix of a |-> a * vec in the basis (columns = b_j * vec).

    Row i of table · (vec ⊗ I) is sum_j vec_j b_i * b_j = b_i * vec."""
    return (A.table * vec.transpose().kron(Matrix.identity(A.field, A.dim))).transpose()


def ref_products(A, X=None, Y=None):
    """The rows x * y for every row x of X and every row y of Y, x-major."""
    n = A.dim
    P = A.table
    r = n if X is None else X.rows
    # row c*n + j: x_c * b_j
    W = (P if X is None else X * P).reshape(r * n, n)
    if Y is None:
        return W
    s = Y.rows
    # H row j, block c: x_c * b_j; so row e, block c of Y * H is x_c * y_e
    H = W.take_rows([c * n + j for j in range(n) for c in range(r)]).reshape(n, r * n)
    Z = (Y * H).reshape(s * r, n)
    return Z.take_rows([e * r + c for c in range(r) for e in range(s)])


def ref_regular(A):
    """The regular module, stacked from the per-basis matrices L_i."""
    return Module.from_actions(A, A.dim, [basis_left_mult(A, i) for i in range(A.dim)])


def ref_pivot_block_data(X):
    """modules._build_block_data with one act and two products per generator."""
    A = X.algebra
    acts = [X.act(e) for e, _ in A.idempotents]
    blocks = [Subspace.row_space(E.transpose()) for E in acts]
    if sum(B.dim for B in blocks) != X.dim:
        raise InvalidModule("idempotent blocks do not decompose the module")
    T = Matrix.hcat([B.inclusion() for B in blocks])
    Ti = Matrix.vcat([E.take_rows(B.pivots) for E, B in zip(acts, blocks)])
    G = A.generators()
    conj = tuple(Ti * X.act(G.take_rows([k])) * T for k in range(len(A.idempotents), G.rows))
    return tuple(B.dim for B in blocks), T, Ti, conj


def rows_of(M):
    """The rows of M as 1 x cols matrices, top to bottom: for A.generators() the
    generating elements."""
    return [M.take_rows([t]) for t in range(M.rows)]


def hom_basis_plain(X, Y):
    """Reference implementation: full unknown matrix, all generators."""
    A = X.algebra
    f = A.field
    if X.dim == 0 or Y.dim == 0:
        return []
    unknowns = Y.dim * X.dim
    rows = []
    for g in rows_of(A.generators()):
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


def invariant_closure(X, start):
    """Smallest submodule of X containing start: a Subspace, or a list of row vectors.

    Module.invariant_closure as it was before the library stopped calling it,
    verbatim apart from taking the module as an argument.
    """
    A = X.algebra
    span = start if isinstance(start, Subspace) else Subspace.from_rows(A.field, X.dim, start)
    k = A.generators().rows
    G = X.act_rows(A.generators())
    while True:
        # row c*k + t: generator t applied to basis vector c
        images = (G * span.inclusion()).transpose().reshape(span.dim * k, X.dim)
        bigger = Subspace.row_space(span.basis.vstack(images))
        if bigger.dim == span.dim:
            return span
        span = bigger


def trace_from_projective_closure(label, Y):
    """Tr_{P_label}(Y) as the submodule generated by e·Y: the invariant closure of e·Y."""
    return invariant_closure(Y, Y.e_part(Y.algebra.idempotent_for_label(label)))


def ref_generators(A):
    """Algebra.generators as it was before the generators were read off rad²:
    the arrows of a quiver algebra, otherwise a closure search over the basis,
    kept verbatim.  compile_quiver used to hand the algebra the indices of its
    basis paths of length one; here they are found by name.  The generators are
    returned as the rows of one matrix, as Algebra.generators returns them."""
    gens = [v for v, _ in A.idempotents]
    if A.presentation is not None:
        arrows = {a.name for a in A.presentation.arrows}
        return Matrix.vcat(gens + [A.basis_vec(i) for i, name in enumerate(A.basis_names) if name in arrows])
    span = A._closure(Subspace.row_space(Matrix.vcat([A.unit] + gens)))
    for i in range(A.dim):
        b = A.basis_vec(i)
        if not span.contains(b):
            gens.append(b)
            # the closure of a closed span and b is the closure of gens
            span = A._closure(span.plus(Subspace.row_space(b)))
    return Matrix.vcat(gens)


def ref_minimal_cover(A, K):
    """homology._minimal_cover as it was before the one-elimination read: a span
    grown one cover vector at a time, checked across the labels.

    The span is rad K plus the vectors picked so far.  Instead of eliminating
    the whole span again for every vector, each candidate is reduced against
    the rows the span already holds: first against rad K's RREF basis (the
    candidate less its entries at the pivots times that basis, for all of a
    label's candidates in one product), then against the picked vectors, kept
    as echelon rows with distinct leading columns.  A candidate lies in the
    span exactly when nothing of it is left.
    """
    f = A.field
    covers = []
    rad = K.radical_subspace()
    echelon = {}  # leading column -> {column: entry}, entry 1 at the leading column
    for lab in A.labels:
        part = K.e_part(A.idempotent_for_label(lab))
        rest = part.basis - part.basis.take_cols(rad.pivots) * rad.basis
        for i in range(part.dim):
            nz = rest.nonzeros[i]
            r = {j: rest[i, j] for j in nz[0]} if nz else {}  # column -> entry
            while r and min(r) in echelon:
                lead = min(r)
                c = r[lead]
                for j, x in echelon[lead].items():
                    y = f.sub(r.get(j, f.zero), f.mul(c, x))
                    if f.is_zero(y):
                        r.pop(j, None)
                    else:
                        r[j] = y
            if r:
                # the candidate as a column, written out from its stored entries
                col = [None] * K.dim
                for j, x in zip(*part.basis.nonzeros[i]):
                    col[j] = ((0,), (x,))
                covers.append((lab, Matrix.from_integers(f, K.dim, 1, col, part.basis.den)))
                lead = min(r)
                inv = f.inv(r[lead])
                echelon[lead] = {j: f.mul(inv, x) for j, x in r.items()}
    return covers


def column_space(M):
    """Canonical basis (as columns) of the column space of M."""
    return Subspace.row_space(M.transpose()).inclusion()


def ref_block_data(X):
    """modules._build_block_data as it was before T^-1 was read off the act(e),
    verbatim: (block sizes, T, T^-1 by solving, the conjugated generators)."""
    A = X.algebra
    blocks = [column_space(X.act(e)) for e, _ in A.idempotents]
    T = Matrix.hcat(blocks) if blocks else Matrix.zeros(A.field, X.dim, 0)
    if T.cols != X.dim:
        raise InvalidModule("idempotent blocks do not decompose the module")
    Ti = T.inverse()
    conj = tuple(Ti * X.act(g) * T for g in rows_of(A.generators())[len(A.idempotents):])
    return tuple(B.cols for B in blocks), T, Ti, conj


def ref_element_diffs(res, n):
    """Resolution._elements_of as it was before the one-product read: d_n of each
    summand generator, solved once per summand of P_n (the earlier code solved
    it again for every (summand, summand) pair; the arithmetic is the same)."""
    prev = res.layers[n - 1]
    cur = res.layers[n]
    offs = [0]
    for s in prev:
        offs.append(offs[-1] + s.module.dim)
    # image of the generator e_u: column at the generator coordinate
    cols = [_ref_generator_column(res, n, ui) for ui in range(len(cur))]
    grid = []
    for si, s in enumerate(prev):
        row = []
        for ui, u in enumerate(cur):
            col = cols[ui]
            block = col[offs[si] : offs[si + 1]]
            elem = (s.basis * column(res.A.field, block)).col(0)
            row.append(Matrix.from_rows(res.A.field, [elem]))
        grid.append(row)
    return grid


def _ref_generator_column(res, n, ui):
    """Concrete image under d_n of the generator e_u of the ui-th summand."""
    cur = res.layers[n]
    f = res.A.field
    off = 0
    for k in range(ui):
        off += cur[k].module.dim
    gen = cur[ui].e_vec.row(0)
    coords, rem = _ref_coords_in(cur[ui].basis, gen, f)
    if rem is not None:
        raise InvariantViolation("a summand generator e lies outside its summand A e")
    vec = [f.zero] * res.modules[n].dim
    for k, c in enumerate(coords):
        vec[off + k] = c
    return (res.diffs[n] * column(f, vec)).col(0)


def _ref_coords_in(basis, vec, f):
    X = basis.solve(column(f, list(vec)))
    if X is None:
        return None, vec
    return [X[i, 0] for i in range(X.rows)], None


# -- Ext dimensions and comparison maps, one degree at a time ----------------------------
# homology._ext_dims's loop and induced_map_profile, moved here verbatim when
# homology.cohomology took over: they rank each delta once per degree that reads it.


def ref_ext_dims(X: Module, Y: Module, nmax) -> tuple:
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
    return tuple(out)


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


def ref_delta_bar_kernel(delta, label):
    """The kernel of Delta ->> DeltaBar as StandardRecord built it before the one-image
    read: the invariant closure of e·rad(Delta), e the idempotent of the label."""
    A = delta.algebra
    rad = delta.radical_subspace()
    if rad.dim:
        # the span of e_i·rad(Delta_i), from the columns of e_i times the radical's inclusion
        eirad = delta.act(A.idempotent_for_label(label)) * rad.inclusion()
        return invariant_closure(delta, Subspace.row_space(eirad.transpose()))
    return Subspace.zero(A.field, delta.dim)


# -- module actions as one matrix per basis element ------------------------------------------
# Module.action_on, Module.quotient and Module.dual as they were before a module
# stored its action as one stacked matrix: each re-stacks, splits or transposes
# the per-basis matrices on every call, and returns them per basis element.


def ref_action_on(X, subspace, R=None):
    """Coordinate matrices of act(r) on an invariant subspace, for each row r of R
    (the basis of A when R is None), from one block product and one block check.
    The inclusion is the transposed basis and the check an explicit product, so
    no Subspace read (and no coordinate-subspace path) is used."""
    stacked, k = (Matrix.vcat(X.action), X.algebra.dim) if R is None else (X.act_rows(R), R.rows)
    if k == 0:
        return []
    incl = subspace.basis.transpose()
    img = (stacked * incl).side_by_side(k)
    coords = img.take_rows(subspace.pivots)
    if incl * coords != img:
        raise InvalidModule("subspace is not action-invariant")
    return hsplit(coords, k)


def ref_quotient_action(X, subspace):
    """(the action matrices of X/subspace, the projection), for a nonzero subspace.
    The projection is built from the transposed basis, with no Subspace read."""
    comp = subspace.complement_coords()
    ident = Matrix.identity(subspace.field, subspace.ambient_dim)
    proj = ident.take_rows(comp) - subspace.basis.transpose().take_rows(comp) * ident.take_rows(subspace.pivots)
    d, n = X.dim, X.algebra.dim
    # M times the lift is the complement columns of M
    kept = Matrix.hcat(X.action).take_cols([k * d + c for k in range(n) for c in comp])
    return hsplit(proj * kept, n), proj


def ref_dual_action(X):
    """The action matrices of the k-dual of X, over the opposite algebra."""
    return [M.transpose() for M in X.action]


def verify_action(X):
    """Check every pair of action matrices against the structure constants:
    act(b_i) act(b_j) == act(b_i * b_j)."""
    A = X.algebra
    f = A.field
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = X.action[i] * X.action[j]
            rhs = Matrix.zeros(f, X.dim, X.dim)
            for k in range(A.dim):
                rhs = rhs + scale(X.action[k], A.table[i, j * A.dim + k])
            if lhs != rhs:
                raise InvalidModule(f"action incompatible with structure constants at ({i},{j})")
    return True


# -- algebra constructions over the sparse table ----------------------------------------


def _nonzero_terms(field, vec):
    return tuple((k, x) for k, x in enumerate(vec) if not field.is_zero(x))


def _table_from_coordinates(field, dim, products):
    """Sparse mult table from the coordinate vectors of b_x * b_y, listed x-major."""
    return tuple(tuple(_nonzero_terms(field, products[x * dim + y]) for y in range(dim)) for x in range(dim))


def sparse_table(A):
    """mult[i][j]: the nonzero (k, c_ij^k) of b_i * b_j, read entry by entry off A.table."""
    n = A.dim
    return tuple(tuple(_nonzero_terms(A.field, [A.table[i, j * n + k] for k in range(n)]) for j in range(n))
                 for i in range(n))


def _basis_products(A, pairs):
    """The matrix whose row r is b_i * b_j, for (i, j) the r-th of the pairs."""
    n = A.dim
    mult = sparse_table(A)
    entries = [A.field.zero] * (len(pairs) * n)
    for r, (i, j) in enumerate(pairs):
        for k, c in mult[i][j]:
            entries[r * n + k] = c
    return Matrix(A.field, len(pairs), n, entries)


def ref_left_mult_matrix(A, vec):
    """Matrix of a |-> vec * a in the basis (columns = vec * b_j), vec a 1 x n row."""
    return Matrix.linear_combination(
        A.field, A.dim, A.dim, [(c, basis_left_mult(A, i)) for i, c in enumerate(vec.row(0)) if c]
    )


def ref_right_mult_matrix(A, vec):
    """Matrix of a |-> a * vec in the basis (columns = b_j * vec), vec a 1 x n row."""
    n = A.dim
    products = A.table.reshape(n * n, n)  # row i*n + j: b_i * b_j
    # R_j, the matrix of a |-> a * b_j, has column i b_i * b_j
    rights = [(c, products.take_rows(range(j, n * n, n)).transpose()) for j, c in enumerate(vec.row(0)) if c]
    return Matrix.linear_combination(A.field, n, n, rights)


def ref_compile_presentation(pres, fld):
    """compile_presentation as it was before the per-block elimination, verbatim:
    one dense vector per generator, one elimination of the whole ideal.

    Output: (paths, ideal subspace in the truncated path space, representative
    path indices, work bound).
    """
    pres.validate()
    L = pres.max_path_length
    spread = 0
    for rel in pres.relations:
        lens = [len(path) for _, path in rel]
        spread = max(spread, max(lens) - min(lens))
    L_work = L + spread

    paths, index = enumerate_paths(pres, L_work)
    n = len(paths)
    by_target = {}
    by_source = {}
    for p in paths:
        by_target.setdefault(p.target, []).append(p)
        by_source.setdefault(p.source, []).append(p)

    gens = []
    for rel in pres.relations:
        ends = pres.path_endpoints(rel[0][1])
        rsrc, rtgt = ends
        maxlen = max(len(path) for _, path in rel)
        # q is applied before the relation, p after it
        for q in by_target.get(rsrc, []):
            for p in by_source.get(rtgt, []):
                if len(q.arrows) + maxlen + len(p.arrows) > L_work:
                    continue
                vec = [fld.zero] * n
                for coeff, wpath in rel:
                    arrows = q.arrows + tuple(reversed(wpath)) + p.arrows
                    idx = index[(q.source,) + arrows]
                    vec[idx] = fld.add(vec[idx], fld.coerce(coeff))
                gens.append(vec)

    ideal = Subspace.from_rows(fld, n, gens)

    # finite-dimensionality witness: every path of length in [L, L_work] dies
    long_paths = [p for p in paths if L <= len(p.arrows) <= L_work]
    if long_paths:
        units = []
        for p in long_paths:
            v = [0] * n
            v[p.index] = 1
            units.append(v)
        try:
            ideal.coordinates(Matrix.from_columns(fld, units, nrows=n))
        except NotInSubspace:
            p = next(p for p, v in zip(long_paths, units) if not ideal.contains(Matrix.from_rows(fld, [v])))
            raise NotFiniteDimensionalWithinBound(
                f"path {p.name()} of length {len(p.arrows)} survives modulo the relations"
            ) from None

    reps = ideal.complement_coords()
    if any(len(paths[i].arrows) >= L for i in reps):
        raise InvariantViolation("a path of length >= max_path_length represents a basis element")
    return paths, ideal, reps, L_work


def ref_quiver_table(f, pres):
    """The multiplication of compile_quiver, one pair of path representatives at a time."""
    paths, ideal, reps, _ = ref_compile_presentation(pres, f)
    L = pres.max_path_length
    proj = ideal.projection_matrix()
    mult = []
    path_key = {}
    for p in paths:
        path_key[(p.source,) + p.arrows] = p.index
    for i in reps:
        p = paths[i]
        mrow = []
        for j in reps:
            q = paths[j]
            if q.target != p.source:
                mrow.append(())
                continue
            arrows = q.arrows + p.arrows  # q acts first
            if len(arrows) >= L:
                mrow.append(())
                continue
            cidx = path_key[(q.source,) + arrows]
            mrow.append(_nonzero_terms(f, proj.col(cidx)))
        mult.append(tuple(mrow))
    return tuple(mult)


def ref_opposite_table(A):
    n = A.dim
    mult = sparse_table(A)
    return tuple(tuple(mult[j][i] for j in range(n)) for i in range(n))


def tensor_product(A, B):
    """A ⊗ B over their common field, basis (b_i|b'_j) in the order i*dim B + j.

    Both factors are certified, so it inherits their associativity.  No library
    code needs it; the sl2-tensor-square spec and the derived-algebra tests
    build their tensor products here."""
    if A.field != B.field:
        raise FieldMismatch(f"{A.field} vs {B.field}")
    f = A.field
    nA, nB = A.dim, B.dim
    dim = nA * nB
    names = [f"({A.basis_names[i]}|{B.basis_names[j]})" for i in range(nA) for j in range(nB)]
    # (b_i|b'_j)(b_k|b'_l) = b_i b_k | b'_j b'_l: row (i*nA + k)*nB^2 + j*nB + l of the Kronecker
    # product of the n^2 x n reshapes, in the order of (i*nB + j)*dim + k*nB + l
    kron = A.table.reshape(nA * nA, nA).kron(B.table.reshape(nB * nB, nB))
    table = kron.take_rows([(i * nA + k) * nB * nB + j * nB + l
                            for i in range(nA) for j in range(nB) for k in range(nA) for l in range(nB)])
    # the element u ⊗ v is the row u.kron(v); rad(A ⊗ B) = rad A ⊗ B + A ⊗ rad B
    idems = [(u.kron(v), f"({la},{lb})") for u, la in A.idempotents for v, lb in B.idempotents]
    rad = A.radical().basis.kron(Matrix.identity(f, nB)).vstack(Matrix.identity(f, nA).kron(B.radical().basis))
    # both factors are certified
    return Algebra(f, names, table.reshape(dim, dim * dim), A.unit.kron(B.unit), idems,
                   radical_rows=rad, inherits=ASSOCIATIVITY)


def ref_tensor_table(A, B):
    f = A.field
    nA, nB = A.dim, B.dim
    multA, multB = sparse_table(A), sparse_table(B)

    def flat(i, j):
        return i * nB + j

    mult = []
    for i in range(nA):
        for j in range(nB):
            row = []
            for k in range(nA):
                for l in range(nB):
                    entries = []
                    for (a, ca) in multA[i][k]:
                        for (b, cb) in multB[j][l]:
                            entries.append((flat(a, b), f.mul(ca, cb)))
                    entries.sort(key=lambda t: t[0])
                    row.append(tuple(entries))
            mult.append(tuple(row))
    return tuple(mult)


def ref_trace_form_radical(A):
    f = A.field
    mult = sparse_table(A)
    # t[k] = trace of left multiplication by b_k
    t = []
    for k in range(A.dim):
        s = f.zero
        for l in range(A.dim):
            for m, c in mult[k][l]:
                if m == l:
                    s = f.add(s, c)
        t.append(s)
    rows = []
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            s = f.zero
            for k, c in mult[i][j]:
                s = f.add(s, f.mul(c, t[k]))
            row.append(s)
        rows.append(row)
    G = Matrix.from_rows(f, rows)
    K = G.transpose().kernel_basis()
    return Subspace.from_rows(f, A.dim, [K.col(j) for j in range(K.cols)])


def ref_corner_table(A, e):
    sandwich = A.left_mult_matrix(e) * A.right_mult_matrix(e)  # a |-> e a e
    S = Subspace.row_space(sandwich.transpose())

    def coords_of(img):  # coordinates of the columns of img
        C = S.coordinates(img)
        return [tuple(C.col(j)) for j in range(C.cols)]

    return _table_from_coordinates(A.field, S.dim, coords_of(A.products(S.basis, S.basis).transpose()))


def ref_quotient_table(A, e):
    J = A.two_sided_ideal(e)
    proj = J.projection_matrix()
    comp = J.complement_coords()
    qdim = len(comp)
    # the classes of b_x * b_y, for x, y running over the complement coordinates
    classes = proj * _basis_products(A, [(x, y) for x in comp for y in comp]).transpose()
    return _table_from_coordinates(A.field, qdim, [classes.col(j) for j in range(classes.cols)])


def ref_closure_table(A, vectors):
    span = A._closure(Subspace.row_space(Matrix.vcat(vectors)))

    def coords_of(img):  # coordinates of the columns of img
        C = span.coordinates(img)
        return [tuple(C.col(j)) for j in range(C.cols)]

    return _table_from_coordinates(A.field, span.dim, coords_of(A.products(span.basis, span.basis).transpose()))


# -- corpus spec files -----------------------------------------------------------------


# -- the corpus the test files share -----------------------------------------------------
# The library keeps no corpus between runs; the tests read theirs from one run, so
# each spec file is loaded once per test session.

CORPUS_RUN = Family()


def corpus():
    """Every corpus entry of the shared run, by name."""
    return _corpus.corpus(CORPUS_RUN)


def entry(name):
    """The shared run's corpus entry name."""
    return _corpus.entry(CORPUS_RUN, name)


def corpus_doc(name):
    """The JSON document of a bundled corpus spec file."""
    with open(corpus_path(name), encoding="utf-8") as fh:
        return json.load(fh)


ENDO_PATTERN = [
    (1, 1), (1, 2), (2, 2), (3, 2), (3, 3), (3, 4), (3, 5),
    (4, 2), (4, 3), (4, 4), (4, 5), (5, 5),
]


def nonbasic_endo():
    """12-dim algebra of a pattern of 5x5 matrices with multiplication opposite
    to matrix multiplication; the two idempotents E33, E44 share the label 3."""
    names = [f"E{r}{c}" for r, c in ENDO_PATTERN]
    pos = {rc: k for k, rc in enumerate(ENDO_PATTERN)}
    table = []
    # x * y = y · x in usual matrix terms: E_ab * E_cd = delta_{d,a} E_cb
    for i, (a, b) in enumerate(ENDO_PATTERN):
        for j, (c, d) in enumerate(ENDO_PATTERN):
            if d == a:
                k = pos.get((c, b))
                if k is None:
                    raise AssertionError("pattern is not multiplicatively closed")
                table.append((i, j, k, 1))
    unit = [0] * len(names)
    for r in (1, 2, 3, 4, 5):
        unit[pos[(r, r)]] = 1
    labels = {1: "1", 2: "2", 3: "3", 4: "3", 5: "4"}
    idems = []
    for r in (1, 2, 3, 4, 5):
        v = [0] * len(names)
        v[pos[(r, r)]] = 1
        idems.append((v, labels[r]))
    return structure_constant_algebra(QQ, names, table, unit, idems)


def nonbasic_endo_borel_generators(A):
    """(idempotents with labels, generators) of the 8-dim directed subalgebra "borel"."""
    pos = {rc: k for k, rc in enumerate(ENDO_PATTERN)}

    def unit_vec(*rcs):
        v = [0] * A.dim
        for rc in rcs:
            v[pos[rc]] = 1
        return A.coerce_vec(v)

    idem = [
        (unit_vec((1, 1), (4, 4)), "1"),
        (unit_vec((2, 2)), "2"),
        (unit_vec((3, 3)), "3"),
        (unit_vec((5, 5)), "4"),
    ]
    gens = [
        unit_vec((1, 2), (4, 2)),  # arrow 1 -> 2
        unit_vec((4, 3)),          # arrow 1 -> 3
        unit_vec((3, 5)),          # arrow 3 -> 4
    ]
    return idem, gens


# -- criterion c13's adjunction loop -----------------------------------------------------


def ref_adjunction_dims(A, poset):
    """The comparisons of acceptance.adjunction_dims, made by the loop that rebuilt
    every functor image inside its innermost loop."""
    from strata.functors import IdempotentContext
    from strata.modules import hom_basis, simple
    from strata.strat import strat_datum

    sd = strat_datum(A, poset)
    out = []
    for lab in A.labels:
        ev = A.idempotent_for_label(lab)
        ctx = IdempotentContext(A, ev)
        corner_mods = [(f"L_{l}", simple(ctx.corner, l)) for l in ctx.corner.labels]
        amb_mods = ([(f"Delta_{l}", sd.delta[l]) for l in A.labels]
                    + [(f"L_{l}", simple(A, l)) for l in A.labels])
        for yname, Y in corner_mods:
            for xname, X in amb_mods:
                lhs = len(hom_basis(ctx.corner_tensor(Y), X))
                rhs = len(hom_basis(Y, ctx.corner_apply(X)))
                out.append((lab, "corner_tensor -| corner_apply", xname, yname, lhs, rhs))
                lhs2 = len(hom_basis(ctx.corner_apply(X), Y))
                rhs2 = len(hom_basis(X, ctx.corner_hom(Y)))
                out.append((lab, "corner_apply -| corner_hom", xname, yname, lhs2, rhs2))
        if ctx.quotient is not None:
            quot_mods = [(f"L_{l}", simple(ctx.quotient, l)) for l in ctx.quotient.labels]
            for yname, Yq in quot_mods:
                for xname, X in amb_mods:
                    lhs = len(hom_basis(ctx.quotient_tensor(X), Yq))
                    rhs = len(hom_basis(X, ctx.inflate(Yq)))
                    out.append((lab, "quotient_tensor -| inflate", xname, yname, lhs, rhs))
                    lhs2 = len(hom_basis(ctx.inflate(Yq), X))
                    rhs2 = len(hom_basis(Yq, ctx.quotient_hom(X)))
                    out.append((lab, "inflate -| quotient_hom", xname, yname, lhs2, rhs2))
    return out
