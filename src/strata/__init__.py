"""Exact-arithmetic stratification data for finite-dimensional algebras.

Bound quiver and structure-constant algebras, their module theory (simples,
projectives, injectives, Hom/Ext, recollement functors, induction), standard
and costandard module families with stratification and quasi-hereditary
verdicts, idempotent compatibility batteries, exact Borel subalgebra
verification, and decomposition-multiplicity matrices -- all over Q or F_p
with no floating point anywhere.
"""

__version__ = "0.1.0"

from .kernel import QQ, Matrix, PrimeField, Subspace

__all__ = ["QQ", "PrimeField", "Matrix", "Subspace", "__version__"]
