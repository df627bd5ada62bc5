"""Algebra-Galois coextensions, the dual story: the canonical coideal of a
module coalgebra, the quotient coalgebra, the cotensor product, the canonical
map into it, the cotranslation map with its identities, the induced entwining
map with uniqueness, and the dual bundle repackaging through a character.

Domains matter on this side: the cotranslation identities live on the
cotensor product and its iterates, so those subspaces are constructed
explicitly and every identity is checked only after verifying the relevant
containment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .entwining import (
    CheckedEntwining,
    EntwiningStructure,
    check_entwining,
    entwined_module_check,
)
from .errors import (
    AxiomViolation,
    DimensionMismatch,
    ImageEscape,
    InternalCheckError,
    NotCharacter,
    NotCoideal,
    NotGaloisCoextension,
)
from .exactlin import (
    Bijectivity,
    Matrix,
    QuotientPresentation,
    Subspace,
    basis_vector,
    column_matrix,
    decide_bijection,
    image,
    kernel,
    kron,
    quotient,
    row_matrix,
    stack_rows,
)
from .galois import UniquenessReport, uniqueness_system
from .structures import (
    AxiomCheck,
    Character,
    FiniteAlgebra,
    FiniteCoalgebra,
    ModuleCoalgebra,
    RightComodule,
    RightModule,
    ValidationReport,
    residual_check,
    validate_coalgebra,
    validate_module,
    verify_character,
)


@dataclass(frozen=True)
class CoextensionCertificate:
    """Everything coextension_check establishes about one module coalgebra.

    ``cocan`` is co-restricted to the cotensor product (coordinates against
    its echelon basis); ``cotranslation`` maps those coordinates to A;
    ``entwining`` is the canonical entwining map ``psi`` with its
    validate_entwining report, present exactly when the coextension is
    Galois.
    """

    subject: ModuleCoalgebra
    coideal: Subspace
    base: FiniteCoalgebra
    base_projection: Matrix
    cotensor: Subspace
    cocan: Matrix
    rank: int
    is_coextension: bool
    cocan_inverse: Matrix | None
    cotranslation: Matrix | None
    entwining: CheckedEntwining | None
    witness: tuple | None
    checks: ValidationReport

    @property
    def psi(self) -> EntwiningStructure | None:
        return self.entwining.structure if self.entwining else None


def coideal_checks(c: FiniteCoalgebra, presentation: QuotientPresentation) -> tuple[AxiomCheck, ...]:
    """counit(I) = 0 and coproduct(I) inside C (x) I + I (x) C, for I the
    relations of the presentation of C/I.

    The second is decided through the quotient: with pi: C -> C/I,
    ker(pi (x) pi) = I (x) C + C (x) I, so it holds iff
    (pi (x) pi) . coproduct . incl_I = 0.
    """
    incl = presentation.relations.inclusion()
    counit_ok = (c.counit_matrix @ incl).is_zero
    pi = presentation.projection
    coproduct_ok = (kron(pi, pi) @ c.comult_matrix @ incl).is_zero
    return (
        AxiomCheck("coideal-counit", "counit vanishes on the coideal", None, counit_ok),
        AxiomCheck("coideal-coproduct", "coproduct(I) lies in C (x) I + I (x) C", None, coproduct_ok),
    )


def canonical_coideal(x: ModuleCoalgebra) -> Subspace:
    """The coideal spanned, over all basis inputs and dual-basis functionals, by
    act(c,a)_(1) f(act(c,a)_(2)) - c_(1) f(act(c_(2),a)).

    Letting f range over the dual basis exhausts all functionals because the
    expression is linear in f.  The action must already satisfy the module
    axioms; quotient_coalgebra decides the coideal property.
    """
    c, a = x.coalgebra, x.algebra
    field = c.field
    nc = c.dim
    d = c.comult_matrix
    vectors = []
    for j in range(a.dim):
        aj = column_matrix(basis_vector(a.dim, j, field), field)
        act_j = x.action @ kron(c.identity_matrix, aj)          # c |-> act(c, a_j)
        first = d @ act_j                                       # C -> C (x) C
        second = kron(c.identity_matrix, act_j) @ d             # c |-> c_(1) (x) act(c_(2), a_j)
        for k in range(nc):
            pick = kron(c.identity_matrix, row_matrix(basis_vector(nc, k, field), field))
            diff = pick @ first - pick @ second
            vectors.extend(diff.columns())
    return Subspace.from_spanning(vectors, nc, field)


def hopf_coideal(x: ModuleCoalgebra, hopf_algebra: FiniteAlgebra, hopf_coalgebra: FiniteCoalgebra) -> Subspace:
    """span{act(c, h) - counit(h) c} for a module coalgebra whose action is a
    coalgebra map against the given bialgebra structure on the acting space.

    The action must already satisfy the module axioms.
    """
    if hopf_algebra != x.algebra:
        raise DimensionMismatch("acting algebra differs from the module structure")
    c = x.coalgebra
    field = c.field
    checks = action_coalgebra_map_checks(x, hopf_coalgebra)
    bad = [chk for chk in checks if not chk.ok]
    if bad:
        raise AxiomViolation(f"action is not a coalgebra map ({bad[0].name})", report=checks)
    eps_h = row_matrix(hopf_coalgebra.counit, field)
    return image(x.action - kron(c.identity_matrix, eps_h))


def action_coalgebra_map_checks(x: ModuleCoalgebra, hopf_coalgebra: FiniteCoalgebra) -> tuple[AxiomCheck, ...]:
    """act is a coalgebra map C (x) H -> C (componentwise coproduct through the swap)."""
    c = x.coalgebra
    if hopf_coalgebra.dim != x.algebra.dim:
        raise DimensionMismatch("coalgebra structure must live on the acting space")
    field = c.field
    nc, nh = c.dim, hopf_coalgebra.dim
    from .exactlin import tensor_permutation

    mid_swap = tensor_permutation((nc, nc, nh, nh), (0, 2, 1, 3), field)
    return (
        residual_check(
            "action-comultiplicative",
            "coproduct(act) = (act (x) act)(C (x) swap (x) H)(coproduct (x) coproduct)",
            c.comult_matrix @ x.action,
            kron(x.action, x.action) @ mid_swap @ kron(c.comult_matrix, hopf_coalgebra.comult_matrix),
        ),
        residual_check(
            "action-counital",
            "counit(act(c,h)) = counit(c) counit(h)",
            c.counit_matrix @ x.action,
            kron(c.counit_matrix, row_matrix(hopf_coalgebra.counit, field)),
        ),
    )


def quotient_coalgebra(c: FiniteCoalgebra, coideal: Subspace) -> tuple[FiniteCoalgebra, Matrix]:
    """B = C/I with its induced coproduct and counit, plus the projection.

    The projection pi is a coalgebra map, (pi (x) pi)coproduct = D_B . pi and
    counit_B . pi = counit, exactly when I is a coideal: both sides agree off
    I, and on I the left sides are (pi (x) pi)coproduct(I) and counit(I).
    """
    field = c.field
    pres = quotient(c.dim, coideal)
    if not all(chk.ok for chk in coideal_checks(c, pres)):
        raise NotCoideal("subspace is not a coideal")
    pi, sigma = pres.projection, pres.section
    b_dim = pres.quotient_dim
    d_b = kron(pi, pi) @ c.comult_matrix @ sigma
    e_b = c.counit_matrix @ sigma
    names = tuple(f"q{i}" for i in range(b_dim))
    base = FiniteCoalgebra(b_dim, names, d_b, e_b.entries[0], field)
    if not validate_coalgebra(base).ok:
        raise InternalCheckError("quotient coalgebra failed its axioms")
    return base, pi


def cotensor(right_coaction: Matrix, left_coaction: Matrix) -> Subspace:
    """Kernel of the coaction-equalising map inside M (x) N.

    ``right_coaction``: M -> M (x) B; ``left_coaction``: N -> B (x) N.
    """
    m_dim = right_coaction.cols
    n_dim = left_coaction.cols
    if m_dim == 0 or n_dim == 0:
        return Subspace.zero_subspace(m_dim * n_dim, right_coaction.field)
    if right_coaction.rows % m_dim or left_coaction.rows % n_dim:
        raise DimensionMismatch("coaction shapes are not multiples of the carrier")
    b_dim = right_coaction.rows // m_dim
    if left_coaction.rows != b_dim * n_dim:
        raise DimensionMismatch("the two coactions disagree on the base coalgebra")
    field = right_coaction.field
    ell = kron(right_coaction, Matrix.identity(n_dim, field)) - kron(Matrix.identity(m_dim, field), left_coaction)
    return kernel(ell)


def _cotensor_square(c: FiniteCoalgebra, pi: Matrix) -> Subspace:
    rc = kron(c.identity_matrix, pi) @ c.comult_matrix
    lc = kron(pi, c.identity_matrix) @ c.comult_matrix
    return cotensor(rc, lc)


def _cotensor_cube(c: FiniteCoalgebra, pi: Matrix) -> Subspace:
    """C box_B C box_B C as the joint kernel of both equalising maps."""
    rc = kron(c.identity_matrix, pi) @ c.comult_matrix
    lc = kron(pi, c.identity_matrix) @ c.comult_matrix
    ic = c.identity_matrix
    ell = kron(rc, ic) - kron(ic, lc)
    return kernel(stack_rows([kron(ell, ic), kron(ic, ell)]))


def _decide_onto_cotensor(cocan: Matrix, web: Subspace) -> Bijectivity:
    """decide_bijection for a map in cotensor coordinates; a witness outside
    the image is reported in C (x) C rather than in those coordinates."""
    decision = decide_bijection(cocan)
    if decision.witness is not None and decision.rank == cocan.cols:
        return replace(decision, witness=web.inclusion().apply(decision.witness))
    return decision


def _raw_cocanonical_map(x: ModuleCoalgebra) -> Matrix:
    """(C (x) act)(coproduct (x) A) on the full C (x) A, landing in C (x) C."""
    c, a = x.coalgebra, x.algebra
    return kron(c.identity_matrix, x.action) @ kron(c.comult_matrix, a.identity_matrix)


def coextension_check(x: ModuleCoalgebra, module_checks: ValidationReport | None = None) -> CoextensionCertificate:
    """Build the canonical map onto the cotensor product over the quotient by
    the canonical coideal, decide bijectivity, and certify the cotranslation
    identities and canonical entwining map.  ``module_checks`` is
    validate_module(x.module) when the caller holds it."""
    report = validate_module(x.module) if module_checks is None else module_checks
    if not report.ok:
        raise AxiomViolation("action does not satisfy the module axioms", report=report)
    return _certify(x, canonical_coideal(x))


def _certify(x: ModuleCoalgebra, coideal: Subspace, known: CheckedEntwining | None = None) -> CoextensionCertificate:
    """coextension_check over the given coideal in place of the canonical one;
    the caller has established the module axioms.  Raises NotCoideal when
    ``coideal`` is not a coideal.  The canonical psi is validated unless it
    is ``known``'s structure (check_entwining)."""
    c, a = x.coalgebra, x.algebra
    base, pi = quotient_coalgebra(c, coideal)
    web = _cotensor_square(c, pi)
    incl = web.inclusion()
    coords = web.coordinates()
    projector = incl @ coords
    cocan_full = _raw_cocanonical_map(x)
    if projector @ cocan_full != cocan_full:
        raise ImageEscape("canonical map image leaves the cotensor product")
    cocan = coords @ cocan_full
    ic, ia = c.identity_matrix, a.identity_matrix
    checks = [
        AxiomCheck("cocan-into-cotensor", "the canonical map lands in the cotensor product", None, True),
        residual_check(
            "cocan-left-colinear",
            "(coproduct (x) C)cocan = (C (x) cocan)(coproduct (x) A)",
            kron(c.comult_matrix, ic) @ cocan_full,
            kron(ic, cocan_full) @ kron(c.comult_matrix, ia),
        ),
        residual_check(
            "cocan-right-linear",
            "cocan(C (x) m) = (C (x) act)(cocan (x) A)",
            cocan_full @ kron(ic, a.mult_matrix),
            kron(ic, x.action) @ kron(cocan_full, ia),
        ),
    ]
    decision = _decide_onto_cotensor(cocan, web)
    is_galois = decision.inverse is not None
    checks.append(AxiomCheck("cocan-bijective", "the canonical map is a bijection onto the cotensor product", None, is_galois))
    cert = CoextensionCertificate(
        subject=x,
        coideal=coideal,
        base=base,
        base_projection=pi,
        cotensor=web,
        cocan=cocan,
        rank=decision.rank,
        is_coextension=is_galois,
        cocan_inverse=decision.inverse,
        cotranslation=None,
        entwining=None,
        witness=decision.witness,
        checks=ValidationReport("algebra-Galois coextension", tuple(checks)),
    )
    if not is_galois:
        return cert
    cotranslation = kron(c.counit_matrix, ia) @ decision.inverse
    cert = replace(cert, cotranslation=cotranslation)
    checks.extend(_cotranslation_checks(cert))
    checked = check_entwining(canonical_entwining_dual(cert), known)
    checks.extend(checked.report.checks)
    checks.append(
        entwined_module_check(
            RightModule(c.dim, a, x.action),
            RightComodule(c.dim, c, c.comult_matrix),
            checked.structure,
        )
    )
    return replace(cert, entwining=checked, checks=ValidationReport("algebra-Galois coextension", tuple(checks)))


def _cotranslation_checks(cert: CoextensionCertificate) -> list[AxiomCheck]:
    """The cotranslation identities, each stated on its proper domain."""
    x = cert.subject
    c, a = x.coalgebra, x.algebra
    web = cert.cotensor
    incl, coords = web.inclusion(), web.coordinates()
    projector = incl @ coords
    tau = cert.cotranslation
    ic, ia = c.identity_matrix, a.identity_matrix
    d, eps = c.comult_matrix, c.counit_matrix
    checks: list[AxiomCheck] = []
    # (i) applying the cotranslation to coproduct(c) returns counit(c) 1.
    if projector @ d != d:
        raise ImageEscape("coproduct image leaves the cotensor product")
    checks.append(
        residual_check(
            "cotranslation-counit",
            "cotranslation . coproduct = unit counit",
            tau @ coords @ d,
            a.unit_matrix @ eps,
        )
    )
    # (ii) act(c_(1), cotranslation(c_(2) (x) c')) = counit(c) c' on the cotensor.
    spread = kron(d, ic) @ incl
    if kron(ic, projector) @ spread != spread:
        raise ImageEscape("(coproduct (x) C) leaves C (x) cotensor")
    checks.append(
        residual_check(
            "cotranslation-splits-action",
            "act(C (x) cotranslation)(coproduct (x) C) = counit (x) C on the cotensor",
            x.action @ kron(ic, tau @ coords) @ spread,
            kron(eps, ic) @ incl,
        )
    )
    # (iii) cotranslation(C (x) act) = m(cotranslation (x) A) on cotensor (x) A.
    acted = kron(ic, x.action) @ kron(incl, ia)
    if projector @ acted != acted:
        raise ImageEscape("the right action leaves the cotensor product")
    checks.append(
        residual_check(
            "cotranslation-right-linear",
            "cotranslation(C (x) act) = m(cotranslation (x) A) on cotensor (x) A",
            tau @ coords @ acted,
            a.mult_matrix @ kron(tau, ia),
        )
    )
    # Composite identity on the threefold cotensor:
    # m(cotranslation (x) cotranslation)(C (x) coproduct (x) C) = cotranslation(C (x) counit (x) C).
    cube = _cotensor_cube(c, cert.base_projection)
    incl2 = cube.inclusion()
    middle = kron(ic, kron(d, ic)) @ incl2
    if kron(projector, projector) @ middle != middle:
        raise ImageEscape("(C (x) coproduct (x) C) leaves cotensor (x) cotensor")
    squeezed = kron(ic, kron(eps, ic)) @ incl2
    if projector @ squeezed != squeezed:
        raise ImageEscape("(C (x) counit (x) C) leaves the cotensor product")
    checks.append(
        residual_check(
            "cotranslation-composite",
            "m(cotranslation (x) cotranslation)(C (x) coproduct (x) C) = cotranslation(C (x) counit (x) C)",
            a.mult_matrix @ kron(tau @ coords, tau @ coords) @ middle,
            tau @ coords @ squeezed,
        )
    )
    return checks


def canonical_entwining_dual(cert: CoextensionCertificate) -> EntwiningStructure:
    """psi = (cotranslation (x) C)(C (x) coproduct) . cocan."""
    if not cert.is_coextension:
        raise NotGaloisCoextension("canonical entwining requires a bijective canonical map")
    x = cert.subject
    c, a = x.coalgebra, x.algebra
    web = cert.cotensor
    incl, coords = web.inclusion(), web.coordinates()
    projector = incl @ coords
    ic = c.identity_matrix
    stretched = kron(ic, c.comult_matrix) @ incl
    if kron(projector, ic) @ stretched != stretched:
        raise ImageEscape("(C (x) coproduct) leaves cotensor (x) C")
    psi = kron(cert.cotranslation @ coords, ic) @ stretched @ cert.cocan
    return EntwiningStructure(a, c, psi)


def dual_uniqueness(cert: CoextensionCertificate) -> UniquenessReport:
    """The dual linear system: coproduct . act = (act (x) C)(C (x) psi')(coproduct (x) A)."""
    if not cert.is_coextension:
        return UniquenessReport(False, "not a Galois coextension; uniqueness is not asserted")
    x = cert.subject
    return uniqueness_system(cert.checks, x.action, x.coalgebra.comult_matrix, x.algebra.dim, x.coalgebra.dim)


@dataclass(frozen=True)
class DualBundleReport:
    """Outcome of the fixed-entwining dual bundle test for one character kappa.

    The dual bundle is the coextension certificate of the induced action
    (kappa (x) C)psi over the quotient by the induced coideal.
    """

    entwining: EntwiningStructure
    character: tuple
    certificate: CoextensionCertificate

    @property
    def coideal(self) -> Subspace:
        return self.certificate.coideal

    @property
    def is_bundle(self) -> bool:
        return self.certificate.is_coextension

    @property
    def rank(self) -> int:
        return self.certificate.rank


def dual_bundle_check(source: EntwiningStructure | CoextensionCertificate, character: Character) -> DualBundleReport:
    """I = span{(kappa (x) C)psi(c (x) a) - c kappa(a)}; dual bundle iff the
    induced canonical map onto the cotensor over C/I is bijective.

    The entwining identities and kappa a character make (kappa (x) C)psi a
    right action and I a coideal.

    ``source`` is psi, or a coextension certificate, whose psi comes with
    its entwining report.  When the induced action and I equal that
    certificate's action and coideal, the dual bundle's certificate is that
    certificate, since _certify is deterministic in them.
    """
    extension = source if isinstance(source, CoextensionCertificate) else None
    if extension is not None and not extension.is_coextension:
        raise NotGaloisCoextension("a dual bundle needs the canonical entwining of a Galois coextension")
    e = source if extension is None else extension.psi
    a, c = e.algebra, e.coalgebra
    field = a.field
    if character.algebra != a:
        raise DimensionMismatch("character lives on a different algebra")
    if not verify_character(a, character.coords):
        raise NotCharacter("supplied functional is not a character")
    checked = check_entwining(e) if extension is None else extension.entwining
    if not checked.report.ok:
        raise AxiomViolation("entwining identities fail", report=checked.report)
    kap = row_matrix(character.coords, field)
    action = kron(kap, c.identity_matrix) @ e.psi
    coideal = image(action - kron(c.identity_matrix, kap))
    carrier = ModuleCoalgebra(c, a, action)
    if extension is not None and carrier == extension.subject and coideal == extension.coideal:
        return DualBundleReport(e, tuple(character.coords), extension)
    return DualBundleReport(e, tuple(character.coords), _certify(carrier, coideal, checked))


@dataclass(frozen=True)
class DualBundleEquivalenceReport:
    """Round trip between dual bundle data and coextension data at one character."""

    applicable: bool
    note: str
    bundle: DualBundleReport | None = None
    action: Matrix | None = None
    certificate: CoextensionCertificate | None = None
    counit_normalized: bool | None = None
    psi_recovered: bool | None = None
    coideal_matches: bool | None = None
    action_forced: bool | None = None

    @property
    def ok(self) -> bool:
        if not self.applicable:
            return True
        return bool(
            self.counit_normalized
            and self.psi_recovered
            and self.coideal_matches
            and self.action_forced
            and self.certificate.checks.ok
        )


def action_forced_by_counit(action: Matrix, psi: EntwiningStructure) -> bool:
    """act = ((counit . act) (x) C)(C (x) psi)(coproduct (x) A): through psi,
    the action is determined by the functional counit . act."""
    a, c = psi.algebra, psi.coalgebra
    ic = c.identity_matrix
    eps_act = c.counit_matrix @ action
    return action == kron(eps_act, ic) @ kron(ic, psi.psi) @ kron(c.comult_matrix, a.identity_matrix)


def dual_bundle_action_equivalence(bundle: DualBundleReport) -> DualBundleEquivalenceReport:
    """Both directions of the dual correspondence at the bundle's character.

    Forward: from a verified dual bundle, act = (kappa (x) C)psi is an action
    whose coextension certificate recovers psi, with counit . act =
    counit (x) kappa.  Backward: the canonical coideal of that action is the
    bundle's coideal, so its coextension certificate is the bundle's own.  The
    uniqueness clause checks, with the certificate's psi, that the action is
    forced by counit . act.
    """
    if not bundle.is_bundle:
        return DualBundleEquivalenceReport(False, "not a dual bundle: the canonical map is not bijective", bundle=bundle)
    cert = bundle.certificate
    carrier = cert.subject
    c = carrier.coalgebra
    if not validate_module(carrier.module).ok:
        return DualBundleEquivalenceReport(False, "induced map is not an action", bundle=bundle)
    action = carrier.action
    kap = row_matrix(bundle.character, c.field)
    return DualBundleEquivalenceReport(
        True,
        "",
        bundle=bundle,
        action=action,
        certificate=cert,
        counit_normalized=c.counit_matrix @ action == kron(c.counit_matrix, kap),
        psi_recovered=cert.psi.psi == bundle.entwining.psi,
        coideal_matches=canonical_coideal(carrier) == cert.coideal,
        action_forced=action_forced_by_counit(action, cert.psi),
    )
