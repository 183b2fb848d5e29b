"""Test-only reference implementations of module and algebra computations.

These are the plain textbook versions the library's faster routines are
checked against; nothing in the library calls them.  The algebra references
are the earlier loop constructions, kept verbatim over the sparse
multiplication table ``mult[i][j] = ((k, c_ij^k), ...)`` (nonzero
coefficients, k ascending) that algebras used to store; ``sparse_table``
reads that form off an algebra's integer table.
"""

from strata.errors import InvalidModule
from strata.kernel.matrix import Matrix
from strata.kernel.subspace import Subspace
from strata.quiver import compile_presentation


def hom_basis_plain(X, Y):
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
                rhs = rhs + X.action[k].scale(A.table[i, j * A.dim + k])
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


def ref_quiver_table(f, pres):
    """The multiplication of compile_quiver, one pair of path representatives at a time."""
    paths, ideal, reps, _ = compile_presentation(pres, f)
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
    span = A._closure(Subspace.from_rows(A.field, A.dim, vectors))

    def coords_of(img):  # coordinates of the columns of img
        C = span.coordinates(img)
        return [tuple(C.col(j)) for j in range(C.cols)]

    return _table_from_coordinates(A.field, span.dim, coords_of(A.products(span.basis, span.basis).transpose()))
