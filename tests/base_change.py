"""A fixed unitriangular change of basis of an algebra, exported as structure constants.

The corpus algebras are quiver algebras on path bases, where almost every
subspace the library builds (traces, kernels, submodules, quotients) is a
coordinate subspace: a span of unit vectors.  The same algebra in the basis
b'_i = b_i + b_{i+1} (i < n - 1), b'_{n-1} = b_{n-1}, has the same verdicts
and the same Hom and Ext dimensions, but few of its subspaces are coordinate
ones, so it runs the general path of every Subspace operation.

As a script, with src on the path, it writes the copy of a spec file:

    PYTHONPATH=src python tests/base_change.py SPEC OUT

OUT is SPEC's algebra in the new basis, over SPEC's field (Q for every corpus
spec), as structure constants (specfile.export_algebra), with SPEC's order.
"""

import sys

from strata.algebra import structure_constant_algebra
from strata.kernel.matrix import Matrix
from strata.specfile import dump, export_algebra, load_spec_file


def change_of_basis(f, n):
    """The n x n upper unitriangular U over f whose row i is b'_i in the old basis."""
    return Matrix.from_integers(f, n, n, [((i, i + 1), (1, 1)) if i + 1 < n else ((i,), (1,)) for i in range(n)])


def base_changed(A):
    """A in the basis of change_of_basis, over A's field, with the same labelled idempotents."""
    n = A.dim
    U = change_of_basis(A.field, n)
    Ui = U.inverse()
    # row c*n + e: b'_c * b'_e, in the new coordinates
    products = A.products(U, U) * Ui
    table = [(row // n, row % n, k, products[row, k])
             for row, r in enumerate(products.nonzeros) if r for k in r[0]]
    idems = [((v * Ui).row(0), lab) for v, lab in A.idempotents]
    names = [f"u{i}" for i in range(n)]
    return structure_constant_algebra(A.field, names, table, (A.unit * Ui).row(0), idems)


def export_base_changed(path):
    """The spec (a dict) of the base-changed copy of the spec file at path."""
    sd = load_spec_file(path)
    return export_algebra(base_changed(sd.algebra), sd.poset,
                          meta={"base_change": "b'_i = b_i + b_{i+1}", "source": sd.meta.get("name", "")})


if __name__ == "__main__":
    src, out = sys.argv[1:]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(dump(export_base_changed(src)) + "\n")
