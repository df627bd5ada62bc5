"""Library-shaped helpers that only the tests use: the RREF of a matrix, the
sum of two subspaces, the exact inverse of a Hopf-case entwining map, the
canonical coideal of a module coalgebra, and the ground field as a
one-dimensional algebra and coalgebra.  They are built
on entwine's own primitives and conventions.  Also scripts/verify_catalogue.py
loaded as a module, for its list of catalogue variants."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from entwine.cogalois import _annihilator
from entwine.errors import DimensionMismatch, NotInvertibleError
from entwine.exactlin import (
    Matrix,
    Subspace,
    _check_same_field,
    _echelon,
    _from_index,
    _nonzero_rows,
    _sorted_index,
    _subspace,
    kron,
    tensor_permutation,
)
from entwine.fields import FieldSpec
from entwine.structures import ComoduleAlgebra, FiniteAlgebra, FiniteCoalgebra, HopfAlgebra, ModuleCoalgebra


def verify_catalogue_script():
    """scripts/verify_catalogue.py as a module: its VARIANTS name every
    catalogue variant, and applicable_suites the suites each one runs."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "verify_catalogue.py"
    spec = importlib.util.spec_from_file_location("verify_catalogue", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rref(m: Matrix) -> Matrix:
    """Unique reduced row-echelon form (leftmost pivots, exact division)."""
    _, reduced = _echelon(_nonzero_rows(m), m.cols, m.field)
    index = [_sorted_index(row) for row in reduced]
    return _from_index(m.rows, m.cols, index + [()] * (m.rows - len(index)), m.field)


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    _check_same_field(s1, s2)
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(f"ambient {s1.ambient_dim} vs {s2.ambient_dim}")
    rows = [dict(row) for row in s1.nonzeros + s2.nonzeros]
    return _subspace(s1.ambient_dim, _echelon(rows, s1.ambient_dim, s1.field)[1], s1.field)


def invert_hopf_entwining(h: HopfAlgebra, x: ComoduleAlgebra) -> Matrix:
    """The exact inverse psi^{-1}(a (x) h) = h S^{-1}(a_(1)) (x) a_(0)."""
    sinv = h.antipode_inverse
    if sinv is None:
        raise NotInvertibleError("antipode is not invertible")
    a = x.algebra
    na, nh = a.dim, h.dim
    field = a.field
    ia = a.identity_matrix
    ih = h.algebra.identity_matrix
    reverse = tensor_permutation((na, nh, nh), (2, 1, 0), field)
    return kron(h.algebra.mult_matrix, ia) @ reverse @ kron(ia, kron(sinv, ih)) @ kron(x.coaction, ih)


def canonical_coideal(x: ModuleCoalgebra) -> Subspace:
    """The coideal spanned, over all inputs c, a and functionals f, by
    act(c,a)_(1) f(act(c,a)_(2)) - c_(1) f(act(c_(2),a)).

    A functional annihilates it exactly when it is coinvariant in the dual
    comodule algebra x.dual, so it is the annihilator of those coinvariants,
    the coideal of coextension_check(x).
    """
    return _annihilator(x.dual.coinvariants)


def field_algebra(field: FieldSpec) -> FiniteAlgebra:
    """The ground field as a one-dimensional algebra."""
    return FiniteAlgebra(1, ("1",), Matrix.identity(1, field), (field.one,), field)


def field_coalgebra(field: FieldSpec) -> FiniteCoalgebra:
    """The ground field as a one-dimensional coalgebra."""
    return FiniteCoalgebra(1, ("1",), Matrix.identity(1, field), (field.one,), field)
