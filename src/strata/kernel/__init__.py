from .fields import QQ, PrimeField, RationalField, field_from_json
from .matrix import Matrix
from .subspace import Subspace

__all__ = [
    "QQ",
    "PrimeField",
    "RationalField",
    "Matrix",
    "Subspace",
    "field_from_json",
]
