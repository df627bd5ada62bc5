"""Exact-arithmetic verification of coalgebra-Galois extensions, algebra-Galois
coextensions, entwining structures, and quotient-coalgebra cogeneration for
finite-dimensional algebras and coalgebras given by structure constants."""

from .fields import GF, QQ, FieldSpec
from .exactlin import Matrix, QuotientPresentation, Subspace

__all__ = [
    "GF",
    "QQ",
    "FieldSpec",
    "Matrix",
    "QuotientPresentation",
    "Subspace",
]
