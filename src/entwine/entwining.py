"""Entwining structures: the four compatibility identities, the bijection with
module/comodule structure-map pairs on A (x) C and C (x) A, the Hopf-case
formulas, and the entwined-module condition.

Sweedler-notation identities are compiled to matrix composites here, once, on
the library's fixed row-major tensor bases; every other module reuses these
composites instead of re-deriving index arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import AxiomViolation, DimensionMismatch
from .exactlin import Matrix, apply_kron, flip_map, kron, kron_apply, leg_product, leg_product_mirror
from .structures import (
    AxiomCheck,
    ComoduleAlgebra,
    FiniteAlgebra,
    FiniteCoalgebra,
    HopfAlgebra,
    RightComodule,
    RightModule,
    ValidationReport,
    residual_check,
    coaction_algebra_map_checks,
)


@dataclass(frozen=True)
class EntwiningStructure:
    """(A, C, psi) with psi: C (x) A -> A (x) C stored over the tensor basis."""

    algebra: FiniteAlgebra
    coalgebra: FiniteCoalgebra
    psi: Matrix

    def __post_init__(self):
        a, c = self.algebra.dim, self.coalgebra.dim
        if self.psi.rows != a * c or self.psi.cols != c * a:
            raise DimensionMismatch("psi is not (|A||C|) x (|C||A|)")

    @cached_property
    def checks(self) -> ValidationReport:
        """validate_entwining(self)."""
        return validate_entwining(self)

    @cached_property
    def mu(self) -> Matrix:
        """The right action (m (x) C)(A (x) psi): A (x) C (x) A -> A (x) C."""
        na, nc = self.algebra.dim, self.coalgebra.dim
        return leg_product(self.algebra.mult_matrix, self.psi, (na, na, nc))

    @cached_property
    def delta(self) -> Matrix:
        """The right coaction (C (x) psi)(coproduct (x) A): C (x) A -> C (x) A (x) C."""
        na, nc = self.algebra.dim, self.coalgebra.dim
        return leg_product_mirror(self.psi, self.coalgebra.comult_matrix, (na, nc, nc))


@dataclass(frozen=True)
class StructureMapPair:
    """Right action on A (x) C and right coaction on C (x) A, jointly encoding psi."""

    algebra: FiniteAlgebra
    coalgebra: FiniteCoalgebra
    mu: Matrix      # A (x) C (x) A -> A (x) C
    delta: Matrix   # C (x) A -> C (x) A (x) C

    @cached_property
    def checks(self) -> ValidationReport:
        """validate_structure_maps(self)."""
        return validate_structure_maps(self)


def validate_entwining(e: EntwiningStructure) -> ValidationReport:
    """The four defining identities, each with its exact residual matrix."""
    a, c = e.algebra, e.coalgebra
    m, u = a.mult_matrix, a.unit_matrix
    d, eps = c.comult_matrix, c.counit_matrix
    ia, ic = a.identity_matrix, c.identity_matrix
    psi = e.psi
    checks = (
        residual_check(
            "multiplication-compat",
            "psi(C (x) m) = (m (x) C)(A (x) psi)(psi (x) A)",
            apply_kron(psi, ic, m),
            apply_kron(e.mu, psi, ia),
        ),
        residual_check(
            "unit-compat",
            "psi(C (x) unit) = unit (x) C",
            apply_kron(psi, ic, u),
            kron(u, ic),
        ),
        residual_check(
            "comultiplication-compat",
            "(A (x) coproduct)psi = (psi (x) C)(C (x) psi)(coproduct (x) A)",
            kron_apply(ia, d, psi),
            kron_apply(psi, ic, e.delta),
        ),
        residual_check(
            "counit-compat",
            "(A (x) counit)psi = counit (x) A",
            kron_apply(ia, eps, psi),
            kron(eps, ia),
        ),
    )
    return ValidationReport("entwining structure", checks)


def known_entwining(e: EntwiningStructure, known: EntwiningStructure | None) -> EntwiningStructure:
    """``known`` when it equals e, else e: an equal psi over the same A and C
    is that object, so its cached checks are read rather than recomputed."""
    return known if known == e else e


def flip_entwining(algebra: FiniteAlgebra, coalgebra: FiniteCoalgebra) -> EntwiningStructure:
    """The always-valid entwining psi(c (x) a) = a (x) c."""
    if algebra.field != coalgebra.field:
        raise DimensionMismatch("algebra and coalgebra over different fields")
    return EntwiningStructure(algebra, coalgebra, flip_map(coalgebra.dim, algebra.dim, algebra.field))


def hopf_entwining(h: HopfAlgebra, x: ComoduleAlgebra) -> EntwiningStructure:
    """psi(h (x) a) = a_(0) (x) h a_(1) for a comodule algebra over a Hopf algebra.

    Requires the coaction to be a unital algebra map; raises AxiomViolation
    otherwise.
    """
    if x.coalgebra != h.coalgebra:
        raise DimensionMismatch("comodule algebra does not coact through the Hopf coalgebra")
    bad = [chk for chk in coaction_algebra_map_checks(x, h.algebra) if not chk.ok]
    if bad:
        raise AxiomViolation(f"coaction is not an algebra map ({bad[0].name})", report=bad)
    return EntwiningStructure(x.algebra, h.coalgebra, _hopf_psi(h, x))


def _hopf_psi(h: HopfAlgebra, x: ComoduleAlgebra) -> Matrix:
    """The matrix of hopf_entwining, for callers that checked its preconditions."""
    a = x.algebra
    na, nh = a.dim, h.dim
    flipped = leg_product(flip_map(nh, na, a.field), x.coaction, (nh, na, nh))
    return kron_apply(a.identity_matrix, h.algebra.mult_matrix, flipped)


def psi_to_structure_maps(e: EntwiningStructure) -> StructureMapPair:
    """The pair (e.mu, e.delta) of a valid entwining."""
    if not e.checks.ok:
        raise AxiomViolation("input does not satisfy the entwining identities", report=e.checks)
    return StructureMapPair(e.algebra, e.coalgebra, e.mu, e.delta)


def validate_structure_maps(p: StructureMapPair) -> ValidationReport:
    """Bimodule/bicomodule axioms on A (x) C and C (x) A plus the compatibility glue."""
    a, c = p.algebra, p.coalgebra
    na, nc = a.dim, c.dim
    field = a.field
    m, u = a.mult_matrix, a.unit_matrix
    d, eps = c.comult_matrix, c.counit_matrix
    ia, ic = a.identity_matrix, c.identity_matrix
    iac = Matrix.identity(na * nc, field)
    ica = Matrix.identity(nc * na, field)
    checks = (
        residual_check(
            "right-action-associative",
            "mu(mu (x) A) = mu(A (x) C (x) m)",
            apply_kron(p.mu, p.mu, ia),
            apply_kron(p.mu, iac, m),
        ),
        residual_check("right-action-unital", "mu(A (x) C (x) unit) = id", apply_kron(p.mu, iac, u), iac),
        residual_check(
            "left-linear-over-m",
            "mu(m (x) C (x) A) = (m (x) C)(A (x) mu)",
            apply_kron(p.mu, m, ica),
            leg_product(m, p.mu, (na, na, nc)),
        ),
        residual_check(
            "right-coaction-coassociative",
            "(delta (x) C)delta = (C (x) A (x) coproduct)delta",
            kron_apply(p.delta, ic, p.delta),
            kron_apply(ica, d, p.delta),
        ),
        residual_check("right-coaction-counital", "(C (x) A (x) counit)delta = id", kron_apply(ica, eps, p.delta), ica),
        residual_check(
            "left-colinear-over-coproduct",
            "(coproduct (x) A (x) C)delta = (C (x) delta)(coproduct (x) A)",
            kron_apply(d, iac, p.delta),
            leg_product_mirror(p.delta, d, (na, nc, nc)),
        ),
        residual_check(
            "pair-compatibility",
            "(counit (x) A (x) C)delta = mu(unit (x) C (x) A)",
            kron_apply(eps, iac, p.delta),
            apply_kron(p.mu, u, ica),
        ),
    )
    return ValidationReport("structure-map pair", checks)


def structure_maps_to_psi(p: StructureMapPair, known: EntwiningStructure | None = None) -> EntwiningStructure:
    """Recover psi = (counit (x) A (x) C)delta; the result is a valid entwining.

    A pair that passes its checks has mu(unit (x) C (x) A) equal to this map
    (pair-compatibility), so psi is read from delta alone.  A recovered map
    equal to ``known``, as when p was built from that entwining, is
    ``known`` itself (known_entwining).
    """
    if not p.checks.ok:
        raise AxiomViolation("structure-map pair fails its axioms", report=p.checks)
    a, c = p.algebra, p.coalgebra
    psi = kron_apply(c.counit_matrix, Matrix.identity(a.dim * c.dim, a.field), p.delta)
    e = known_entwining(EntwiningStructure(a, c, psi), known)
    if not e.checks.ok:
        raise AxiomViolation("recovered map is not an entwining", report=e.checks)
    return e


def entwined_module_check(
    module: RightModule, comodule: RightComodule, e: EntwiningStructure, product: Matrix | None = None
) -> AxiomCheck:
    """Residual of coaction(v.a) = v_(0) psi(v_(1) (x) a) for one carrier,
    whose coaction . action the caller may pass as ``product``."""
    if module.dim != comodule.dim:
        raise DimensionMismatch("module and comodule carriers differ")
    if module.over != e.algebra or comodule.over != e.coalgebra:
        raise DimensionMismatch("carrier structures do not match the entwining")
    a = e.algebra
    if module.action == a.mult_matrix:  # A under its own multiplication
        mu = e.mu
    else:
        mu = leg_product(module.action, e.psi, (module.dim, a.dim, e.coalgebra.dim))
    return residual_check(
        "entwined-module",
        "coaction . action = (action (x) C)(V (x) psi)(coaction (x) A)",
        comodule.coaction @ module.action if product is None else product,
        apply_kron(mu, comodule.coaction, a.identity_matrix),
    )
