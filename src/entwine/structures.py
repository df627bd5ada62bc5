"""Structure-constant models of algebras, coalgebras, Hopf algebras, modules
and comodules, with validators for every defining axiom.

A structure is its structure-constant matrices, and nothing else: the
multiplication is the dim x dim^2 matrix m: A (x) A -> A, whose entry at row
k and column i*dim + j is the coefficient of e_k in e_i . e_j, and the
comultiplication is the dim^2 x dim matrix coproduct: C -> C (x) C, whose
entry at row j*dim + k and column i is the coefficient of e_j (x) e_k in
coproduct(e_i).  Both are held as nonzero-indexed ``Matrix`` values, so no
dim^3 object is ever built.  Validators return residual reports rather than
failing fast, so a violated axiom comes back with the exact witness matrix.
A report depends only on its immutable structure, so each structure caches
the report of its own axioms (``checks``, ``comodule_checks``,
``module_checks``), computed by the validator on first read, and a comodule
algebra caches its coinvariants the same way.

Each axiom is implemented on one side of a dual pair and read off on the
other by ``restated``: the check of the dual identity, its residual
transposed, under the name and statement of this side.  The algebra axioms
of A are the coalgebra axioms of A* = (A, m^T, unit), and the module axioms
of (V, A, act) are the comodule axioms of (V*, A*, act^T), so a module
coalgebra reads its module report off the comodule report of its dual,
which the dual caches for the coextension certificate and the dual bundles.
A bialgebra's coproduct is a unital algebra map exactly when H coacting on
itself by the coproduct passes ``coaction_algebra_map_checks``, restated
untransposed under the bialgebra's names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import AxiomViolation, DimensionMismatch
from .exactlin import (
    Matrix,
    NotInvertible,
    Subspace,
    apply_kron,
    column_matrix,
    kron,
    kron_apply,
    leg_product,
    row_matrix,
    swap_product,
    try_invert,
)
from .fields import FieldSpec, Scalar


@dataclass(frozen=True)
class AxiomCheck:
    """One verified identity: its name, the statement tested, and the residual."""

    name: str
    statement: str
    residual: Matrix | None
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def residual_check(name: str, statement: str, lhs: Matrix, rhs: Matrix) -> AxiomCheck:
    """The identity lhs = rhs with residual lhs - rhs; the two sides are
    compared by their indexes first, and subtracted only when they differ."""
    if lhs == rhs:
        return AxiomCheck(name, statement, Matrix.zero(lhs.rows, lhs.cols, lhs.field), True)
    residual = lhs - rhs
    return AxiomCheck(name, statement, residual, residual.is_zero)


def restated(chk: AxiomCheck, name: str, statement: str, transposed: bool = True) -> AxiomCheck:
    """chk under another name and statement: the check of the dual identity,
    whose residual is the transpose of chk's, or with transposed=False the
    same identity."""
    residual = chk.residual.transpose() if transposed and chk.residual is not None else chk.residual
    return AxiomCheck(name, statement, residual, chk.ok)


@dataclass(frozen=True)
class FiniteAlgebra:
    """Associative unital algebra given by structure constants on a named basis."""

    dim: int
    basis_names: tuple[str, ...]
    mult_matrix: Matrix  # m: A (x) A -> A on the row-major tensor basis
    unit: tuple[Scalar, ...]
    field: FieldSpec

    def __post_init__(self):
        d = self.dim
        if len(self.basis_names) != d or len(self.unit) != d:
            raise DimensionMismatch("algebra basis/unit length disagrees with dim")
        if self.mult_matrix.rows != d or self.mult_matrix.cols != d * d:
            raise DimensionMismatch("multiplication is not dim x dim^2")

    @cached_property
    def unit_matrix(self) -> Matrix:
        """eta: k -> A as a dim x 1 column."""
        return column_matrix(self.unit, self.field)

    @cached_property
    def identity_matrix(self) -> Matrix:
        return Matrix.identity(self.dim, self.field)

    @cached_property
    def checks(self) -> ValidationReport:
        """validate_algebra(self)."""
        return validate_algebra(self)


@dataclass(frozen=True)
class FiniteCoalgebra:
    """Coassociative counital coalgebra given by structure constants."""

    dim: int
    basis_names: tuple[str, ...]
    comult_matrix: Matrix  # coproduct: C -> C (x) C on the row-major tensor basis
    counit: tuple[Scalar, ...]
    field: FieldSpec

    def __post_init__(self):
        d = self.dim
        if len(self.basis_names) != d or len(self.counit) != d:
            raise DimensionMismatch("coalgebra basis/counit length disagrees with dim")
        if self.comult_matrix.rows != d * d or self.comult_matrix.cols != d:
            raise DimensionMismatch("comultiplication is not dim^2 x dim")

    @cached_property
    def counit_matrix(self) -> Matrix:
        """counit: C -> k as a 1 x dim row."""
        return row_matrix(self.counit, self.field)

    @cached_property
    def identity_matrix(self) -> Matrix:
        return Matrix.identity(self.dim, self.field)

    @cached_property
    def checks(self) -> ValidationReport:
        """validate_coalgebra(self)."""
        return validate_coalgebra(self)


@dataclass(frozen=True)
class HopfAlgebra:
    """A bialgebra on one carrier with an antipode."""

    algebra: FiniteAlgebra
    coalgebra: FiniteCoalgebra
    antipode: Matrix

    def __post_init__(self):
        if self.algebra.dim != self.coalgebra.dim:
            raise DimensionMismatch("algebra and coalgebra dims differ")
        if self.antipode.rows != self.algebra.dim or self.antipode.cols != self.algebra.dim:
            raise DimensionMismatch("antipode is not dim x dim")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @cached_property
    def antipode_inverse(self) -> Matrix | None:
        res = try_invert(self.antipode)
        return None if isinstance(res, NotInvertible) else res


@dataclass(frozen=True)
class RightComodule:
    """V with a right coaction V -> V (x) C."""

    dim: int
    over: FiniteCoalgebra
    coaction: Matrix

    def __post_init__(self):
        if self.coaction.rows != self.dim * self.over.dim or self.coaction.cols != self.dim:
            raise DimensionMismatch("coaction is not (dim*|C|) x dim")


@dataclass(frozen=True)
class RightModule:
    """V with a right action V (x) A -> V."""

    dim: int
    over: FiniteAlgebra
    action: Matrix

    def __post_init__(self):
        if self.action.rows != self.dim or self.action.cols != self.dim * self.over.dim:
            raise DimensionMismatch("action is not dim x (dim*|A|)")


@dataclass(frozen=True)
class GroupLike:
    """A vector e with coproduct(e) = e (x) e and counit(e) = 1."""

    coalgebra: FiniteCoalgebra
    coords: tuple[Scalar, ...]


@dataclass(frozen=True)
class Character:
    """A unital multiplicative functional on an algebra."""

    algebra: FiniteAlgebra
    coords: tuple[Scalar, ...]


@dataclass(frozen=True)
class ComoduleAlgebra:
    """An algebra with a right coaction; the coaction need not be an algebra map."""

    algebra: FiniteAlgebra
    coalgebra: FiniteCoalgebra
    coaction: Matrix

    def __post_init__(self):
        a, c = self.algebra.dim, self.coalgebra.dim
        if self.coaction.rows != a * c or self.coaction.cols != a:
            raise DimensionMismatch("coaction is not (|A|*|C|) x |A|")

    @property
    def comodule(self) -> RightComodule:
        return RightComodule(self.algebra.dim, self.coalgebra, self.coaction)

    @cached_property
    def comodule_checks(self) -> ValidationReport:
        """validate_comodule(self.comodule)."""
        return validate_comodule(self.comodule)

    @cached_property
    def raw_can(self) -> Matrix:
        """The canonical map (m (x) C)(A (x) coaction) on the full A (x) A."""
        na = self.algebra.dim
        return leg_product(self.algebra.mult_matrix, self.coaction, (na, na, self.coalgebra.dim))

    @cached_property
    def coinvariants(self) -> Subspace:
        """galois.coinvariants of the algebra under its coinvariant system."""
        from .galois import coinvariant_system, coinvariants  # galois builds on this module

        return coinvariants(self.algebra, coinvariant_system(self))


@dataclass(frozen=True)
class ModuleCoalgebra:
    """A coalgebra with a right action; the action need not be a coalgebra map."""

    coalgebra: FiniteCoalgebra
    algebra: FiniteAlgebra
    action: Matrix

    def __post_init__(self):
        c, a = self.coalgebra.dim, self.algebra.dim
        if self.action.rows != c or self.action.cols != c * a:
            raise DimensionMismatch("action is not |C| x (|C|*|A|)")

    @property
    def module(self) -> RightModule:
        return RightModule(self.coalgebra.dim, self.algebra, self.action)

    @cached_property
    def module_checks(self) -> ValidationReport:
        """validate_module(self.module), read off the comodule report of the
        dual, which it caches."""
        return _module_report(self.dual.comodule_checks)

    @cached_property
    def dual(self) -> ComoduleAlgebra:
        """x* = (C*, A*, act^T): the algebra C* coacted on by the coalgebra A*
        through the transposed action."""
        return ComoduleAlgebra(dualize(self.coalgebra), dualize(self.algebra), self.action.transpose())


# The coalgebra axioms of A* = (A, m^T, unit), in validate_coalgebra's
# order, as they read on A.
_ALGEBRA_AXIOMS = (
    ("associativity", "m(m (x) id) = m(id (x) m)"),
    ("left-unit", "m(unit (x) id) = id"),
    ("right-unit", "m(id (x) unit) = id"),
)


def validate_algebra(a: FiniteAlgebra) -> ValidationReport:
    """The algebra axioms of a: the coalgebra axioms of its dual, transposed."""
    dual = validate_coalgebra(dualize(a))
    checks = tuple(restated(chk, *named) for chk, named in zip(dual.checks, _ALGEBRA_AXIOMS))
    return ValidationReport("algebra", checks)


def validate_coalgebra(c: FiniteCoalgebra) -> ValidationReport:
    d, e, ident = c.comult_matrix, c.counit_matrix, c.identity_matrix
    checks = (
        residual_check(
            "coassociativity",
            "(coproduct (x) id)coproduct = (id (x) coproduct)coproduct",
            kron_apply(d, ident, d),
            kron_apply(ident, d, d),
        ),
        residual_check("left-counit", "(counit (x) id)coproduct = id", kron_apply(e, ident, d), ident),
        residual_check("right-counit", "(id (x) counit)coproduct = id", kron_apply(ident, e, d), ident),
    )
    return ValidationReport("coalgebra", checks)


def validate_comodule(v: RightComodule) -> ValidationReport:
    c = v.over
    rho = v.coaction
    iv = Matrix.identity(v.dim, c.field)
    checks = (
        residual_check(
            "coaction-coassociativity",
            "(coaction (x) C)coaction = (V (x) coproduct)coaction",
            kron_apply(rho, c.identity_matrix, rho),
            kron_apply(iv, c.comult_matrix, rho),
        ),
        residual_check(
            "coaction-counit",
            "(V (x) counit)coaction = id",
            kron_apply(iv, c.counit_matrix, rho),
            iv,
        ),
    )
    return ValidationReport("right comodule", checks)


# The comodule axioms of (V*, A*, act^T), in validate_comodule's order, as
# they read on (V, A, act).
_MODULE_AXIOMS = (
    ("action-associativity", "act(act (x) A) = act(V (x) m)"),
    ("action-unit", "act(V (x) unit) = id"),
)


def _module_report(dual: ValidationReport) -> ValidationReport:
    """A module report from the comodule report of its dual."""
    checks = tuple(restated(chk, *named) for chk, named in zip(dual.checks, _MODULE_AXIOMS))
    return ValidationReport("right module", checks)


def validate_module(v: RightModule) -> ValidationReport:
    """The module axioms of v: the comodule axioms of V* under A* through
    act^T, transposed."""
    return _module_report(validate_comodule(RightComodule(v.dim, dualize(v.over), v.action.transpose())))


def bialgebra_checks(algebra: FiniteAlgebra, coalgebra: FiniteCoalgebra) -> tuple[AxiomCheck, ...]:
    """Compatibility making (m, unit, coproduct, counit) a bialgebra: the
    coproduct is the coaction of H on itself, an algebra map into H (x) H."""
    m, u, e = algebra.mult_matrix, algebra.unit_matrix, coalgebra.counit_matrix
    itself = ComoduleAlgebra(algebra, coalgebra, coalgebra.comult_matrix)
    multiplicative, unital = coaction_algebra_map_checks(itself, algebra)
    return (
        restated(
            multiplicative, "coproduct-multiplicative", "coproduct(ab) = coproduct(a)coproduct(b)", transposed=False
        ),
        restated(unital, "coproduct-unital", "coproduct(1) = 1 (x) 1", transposed=False),
        residual_check("counit-multiplicative", "counit(ab) = counit(a)counit(b)", e @ m, kron(e, e)),
        residual_check("counit-unital", "counit(1) = 1", e @ u, Matrix.identity(1, algebra.field)),
    )


def validate_hopf(h: HopfAlgebra) -> ValidationReport:
    s = h.antipode
    ident = h.algebra.identity_matrix
    unit_counit = convolution_unit(h.coalgebra, h.algebra)
    antipode_checks = (
        residual_check(
            "antipode-left",
            "m(S (x) id)coproduct = unit counit",
            convolution(s, ident, h.coalgebra, h.algebra),
            unit_counit,
        ),
        residual_check(
            "antipode-right",
            "m(id (x) S)coproduct = unit counit",
            convolution(ident, s, h.coalgebra, h.algebra),
            unit_counit,
        ),
        AxiomCheck(
            "antipode-invertible",
            "S has an exact two-sided inverse",
            None,
            h.antipode_inverse is not None,
        ),
    )
    axioms = h.algebra.checks.checks + h.coalgebra.checks.checks
    return ValidationReport("hopf algebra", axioms + bialgebra_checks(h.algebra, h.coalgebra) + antipode_checks)


def coaction_algebra_map_checks(x: ComoduleAlgebra, coacting_algebra: FiniteAlgebra) -> tuple[AxiomCheck, ...]:
    """Whether the coaction is a unital algebra map into A (x) H.

    Needs a multiplication on the coacting space (available whenever it
    underlies a bialgebra); A (x) H carries the componentwise product through
    the middle swap.
    """
    a = x.algebra
    if coacting_algebra.dim != x.coalgebra.dim:
        raise DimensionMismatch("coacting algebra must live on the coaction's coalgebra space")
    m, u = a.mult_matrix, a.unit_matrix
    mh, uh = coacting_algebra.mult_matrix, coacting_algebra.unit_matrix
    rho = x.coaction
    na, nh = a.dim, coacting_algebra.dim
    return (
        residual_check(
            "coaction-multiplicative",
            "coaction(ab) = coaction(a)coaction(b) in A (x) H",
            rho @ m,
            swap_product(m, mh, rho, rho, (na, nh, na, nh)),
        ),
        residual_check("coaction-unital", "coaction(1) = 1 (x) 1", rho @ u, kron(u, uh)),
    )


def verify_grouplike(c: FiniteCoalgebra, coords) -> bool:
    """coproduct(e) = e (x) e and counit(e) = 1, checked exactly on the
    coordinate vector against its flat tensor square."""
    field = c.field
    p = field.p
    e = tuple(field.coerce(x) for x in coords)
    square = tuple(x * y % p for x in e for y in e) if p else tuple(x * y for x in e for y in e)
    return c.comult_matrix.apply(e) == square and c.counit_matrix.apply(e) == (field.one,)


def verify_character(a: FiniteAlgebra, coords) -> bool:
    """kappa(xy) = kappa(x)kappa(y) on all basis pairs and kappa(1) = 1,
    checked exactly in one pass over the multiplication's nonzero index."""
    if len(coords) != a.dim:
        raise DimensionMismatch(f"character of length {len(coords)} on an algebra of dimension {a.dim}")
    field = a.field
    k = [field.coerce(x) for x in coords]
    n = a.dim
    # kappa(e_i e_j) - kappa_i kappa_j at flat index i*n + j, nonzero cells only
    diff = {i * n + j: -x * y for i, x in enumerate(k) if x for j, y in enumerate(k) if y}
    for x, row in zip(k, a.mult_matrix.nonzeros):
        if x:
            for ij, c in row:
                diff[ij] = diff.get(ij, 0) + x * c
    return not any(map(field.coerce, diff.values())) and field.coerce(sum(map(field.mul, k, a.unit))) == field.one


def dualize(x):
    """Transpose structure constants: coalgebras <-> algebras.

    dualize(dualize(x)) has the same structure constants as x.
    """
    if isinstance(x, FiniteCoalgebra):
        names = tuple(f"{n}*" for n in x.basis_names)
        return FiniteAlgebra(x.dim, names, x.comult_matrix.transpose(), x.counit, x.field)
    if isinstance(x, FiniteAlgebra):
        names = tuple(f"{n}*" for n in x.basis_names)
        return FiniteCoalgebra(x.dim, names, x.mult_matrix.transpose(), x.unit, x.field)
    raise TypeError(f"cannot dualize {type(x).__name__}")


def convolution(f: Matrix, g: Matrix, source: FiniteCoalgebra, target: FiniteAlgebra) -> Matrix:
    """Convolution product m(f (x) g)coproduct of maps source -> target."""
    if f.cols != source.dim or g.cols != source.dim:
        raise DimensionMismatch("convolution factors must be maps out of the coalgebra")
    if f.rows != target.dim or g.rows != target.dim:
        raise DimensionMismatch("convolution factors must be maps into the algebra")
    return target.mult_matrix @ kron_apply(f, g, source.comult_matrix)


def convolution_unit(source: FiniteCoalgebra, target: FiniteAlgebra) -> Matrix:
    return target.unit_matrix @ source.counit_matrix


def transport_algebra(a: FiniteAlgebra, t: Matrix) -> FiniteAlgebra:
    """Conjugate the structure constants by an invertible change of basis."""
    tinv = try_invert(t)
    if isinstance(tinv, NotInvertible):
        raise AxiomViolation("change of basis must be invertible")
    m = tinv @ apply_kron(a.mult_matrix, t, t)
    return FiniteAlgebra(a.dim, a.basis_names, m, (tinv @ a.unit_matrix).column(0), a.field)


def transport_coalgebra(c: FiniteCoalgebra, t: Matrix) -> FiniteCoalgebra:
    tinv = try_invert(t)
    if isinstance(tinv, NotInvertible):
        raise AxiomViolation("change of basis must be invertible")
    dm = kron_apply(tinv, tinv, c.comult_matrix) @ t
    return FiniteCoalgebra(c.dim, c.basis_names, dm, (c.counit_matrix @ t).entries[0], c.field)
