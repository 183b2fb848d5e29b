"""Test-only reference implementations of module computations.

These are the plain textbook versions the library's faster routines are
checked against; nothing in the library calls them.
"""

from strata.errors import InvalidModule
from strata.kernel.matrix import Matrix


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
            for k, c in A.mult[i][j]:
                rhs = rhs + X.action[k].scale(c)
            if lhs != rhs:
                raise InvalidModule(f"action incompatible with structure constants at ({i},{j})")
    return True
