"""Algebra-Galois coextensions, the dual story: the canonical coideal of a
module coalgebra, the quotient coalgebra, the canonical map onto the cotensor
product, the cotranslation map with its identities, the induced entwining
map with uniqueness, and the dual bundle repackaging through a character.

A coextension is the dual of an extension, and so is its certificate: it is
the Galois certificate of the dual comodule algebra x* = (C*, A*, act^T),
read back through the transpose.  The canonical coideal annihilates the
coinvariants of x*, the cotensor product C box_B C annihilates the balancing
relations of x* over the annihilator of the coideal, and the canonical map,
its inverse, the cotranslation map, the entwining map and six of the seven
identities are the transposes of the dual's.  Only the composite
cotranslation identity, stated on the threefold cotensor product, has no
Galois counterpart and is checked here, after its containments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .entwining import EntwiningStructure, entwined_module_check, known_entwining
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
    decide_bijection,
    image,
    kernel,
    kron,
    kron_apply,
    quotient,
    row_matrix,
    stack_rows,
    swap_product,
)
from .galois import (
    UniquenessReport,
    canonical_entwining,
    canonical_map_certificate,
    uniqueness_system,
)
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
    verify_character,
)


@dataclass(frozen=True)
class CoextensionCertificate:
    """Everything coextension_check establishes about one module coalgebra.

    ``cocan`` is co-restricted to the cotensor product (coordinates against
    its echelon basis); ``cotranslation`` maps those coordinates to A;
    ``psi`` is the canonical entwining map, present exactly when the
    coextension is Galois.
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
    psi: EntwiningStructure | None
    witness: tuple | None
    checks: ValidationReport


def coideal_checks(
    c: FiniteCoalgebra, presentation: QuotientPresentation, split: Matrix | None = None
) -> tuple[AxiomCheck, ...]:
    """counit(I) = 0 and coproduct(I) inside C (x) I + I (x) C, for I the
    relations of the presentation of C/I.

    The second is decided through the quotient: with pi: C -> C/I,
    ker(pi (x) pi) = I (x) C + C (x) I, so it holds iff
    (pi (x) pi) . coproduct . incl_I = 0.  ``split`` is
    (pi (x) pi) . coproduct when the caller has formed it already.
    """
    incl = presentation.relations.inclusion()
    counit_ok = (c.counit_matrix @ incl).is_zero
    if split is None:
        split = kron_apply(presentation.projection, presentation.projection, c.comult_matrix)
    coproduct_ok = (split @ incl).is_zero
    return (
        AxiomCheck("coideal-counit", "counit vanishes on the coideal", None, counit_ok),
        AxiomCheck("coideal-coproduct", "coproduct(I) lies in C (x) I + I (x) C", None, coproduct_ok),
    )


def _annihilator(sub: Subspace) -> Subspace:
    """The functionals vanishing on ``sub``, in the dual basis: the kernel of
    the matrix whose rows are its basis."""
    return kernel(sub.inclusion().transpose())


def canonical_coideal(x: ModuleCoalgebra) -> Subspace:
    """The coideal spanned, over all inputs c, a and functionals f, by
    act(c,a)_(1) f(act(c,a)_(2)) - c_(1) f(act(c_(2),a)).

    A functional annihilates it exactly when it is coinvariant in the dual
    comodule algebra x.dual, so it is the annihilator of those coinvariants.
    The action must already satisfy the module axioms over a coalgebra;
    quotient_coalgebra decides the coideal property.
    """
    return _annihilator(x.dual.coinvariants)


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
    return (
        residual_check(
            "action-comultiplicative",
            "coproduct(act) = (act (x) act)(C (x) swap (x) H)(coproduct (x) coproduct)",
            c.comult_matrix @ x.action,
            swap_product(x.action, x.action, c.comult_matrix, hopf_coalgebra.comult_matrix, (nc, nc, nh, nh)),
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
    pi, sigma = pres.projection, pres.section
    split = kron_apply(pi, pi, c.comult_matrix)
    if not all(chk.ok for chk in coideal_checks(c, pres, split)):
        raise NotCoideal("subspace is not a coideal")
    b_dim = pres.quotient_dim
    d_b = split @ sigma
    e_b = c.counit_matrix @ sigma
    names = tuple(f"q{i}" for i in range(b_dim))
    base = FiniteCoalgebra(b_dim, names, d_b, e_b.entries[0], field)
    if not base.checks.ok:
        raise InternalCheckError("quotient coalgebra failed its axioms")
    return base, pi


def _cotensor_cube(c: FiniteCoalgebra, pi: Matrix) -> Subspace:
    """C box_B C box_B C as the joint kernel of both equalising maps."""
    rc = kron_apply(c.identity_matrix, pi, c.comult_matrix)
    lc = kron_apply(pi, c.identity_matrix, c.comult_matrix)
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


def coextension_check(x: ModuleCoalgebra) -> CoextensionCertificate:
    """Certify x over the quotient by its canonical coideal: the canonical
    map onto the cotensor product with its bijectivity decision, the
    cotranslation identities and the canonical entwining map, read off the
    Galois certificate of the dual comodule algebra.  C must satisfy the
    coalgebra axioms, as the cogalois suite checks first."""
    if not x.module_checks.ok:
        raise AxiomViolation("action does not satisfy the module axioms", report=x.module_checks)
    return _certify(x, x.dual.coinvariants)


# The dual's canonical-map checks, in its order, as they read on the
# coextension side; each keeps its residual, transposed.
_TRANSPOSED_CHECKS = (
    ("cocan-left-colinear", "(coproduct (x) C)cocan = (C (x) cocan)(coproduct (x) A)"),
    ("cocan-right-linear", "cocan(C (x) m) = (C (x) act)(cocan (x) A)"),
    ("cocan-bijective", "the canonical map is a bijection onto the cotensor product"),
    ("cotranslation-counit", "cotranslation . coproduct = unit counit"),
    ("cotranslation-splits-action", "act(C (x) cotranslation)(coproduct (x) C) = counit (x) C on the cotensor"),
    ("cotranslation-right-linear", "cotranslation(C (x) act) = m(cotranslation (x) A) on cotensor (x) A"),
)


def _certify(x: ModuleCoalgebra, balancing: Subspace, known: EntwiningStructure | None = None) -> CoextensionCertificate:
    """coextension_check over the coideal annihilated by ``balancing``, a
    subalgebra of C*, in place of the canonical one (the annihilator of the
    dual's coinvariants); the caller has established the coalgebra and module
    axioms.  Raises NotCoideal when that subspace is not a coideal.  A
    canonical psi equal to ``known`` is ``known`` (known_entwining).

    The dual x* is balanced over ``balancing``.  With P and S the
    projection and section of that balanced tensor product, the canonical
    map on the full C (x) A is raw_can(x*)^T = P^T can^T, so it lands in the
    cotensor image(P^T), and in its echelon coordinates it is T can^T with
    T = coordinates . P^T, whose inverse is S^T . inclusion.
    """
    c, a = x.coalgebra, x.algebra
    coideal = _annihilator(balancing)
    base, pi = quotient_coalgebra(c, coideal)
    dual = canonical_map_certificate(x.dual, balancing)
    web = image(dual.balanced.projection.transpose())
    cocan = web.coordinates() @ x.dual.raw_can.transpose()
    # the dual's can is defined only if raw_can(x*) vanishes on the balancing
    # relations (IllDefined otherwise), which is cocan landing in the cotensor
    checks = [AxiomCheck("cocan-into-cotensor", "the canonical map lands in the cotensor product", None, True)]
    for chk, (name, statement) in zip(dual.checks.checks, _TRANSPOSED_CHECKS):
        checks.append(AxiomCheck(name, statement, None if chk.residual is None else chk.residual.transpose(), chk.ok))
    cert = CoextensionCertificate(
        subject=x,
        coideal=coideal,
        base=base,
        base_projection=pi,
        cotensor=web,
        cocan=cocan,
        rank=dual.rank,
        is_coextension=dual.is_galois,
        cocan_inverse=None,
        cotranslation=None,
        psi=None,
        witness=None if dual.is_galois else _decide_onto_cotensor(cocan, web).witness,
        checks=ValidationReport("algebra-Galois coextension", tuple(checks)),
    )
    if not dual.is_galois:
        return cert
    from_web = dual.balanced.section.transpose() @ web.inclusion()
    cert = replace(
        cert,
        cocan_inverse=dual.can_inverse.transpose() @ from_web,
        cotranslation=dual.translation.transpose() @ from_web,
    )
    checks.append(_composite_check(cert))
    psi = known_entwining(EntwiningStructure(a, c, canonical_entwining(dual).psi.transpose()), known)
    checks.extend(psi.checks.checks)
    checks.append(
        entwined_module_check(
            RightModule(c.dim, a, x.action),
            RightComodule(c.dim, c, c.comult_matrix),
            psi,
        )
    )
    return replace(cert, psi=psi, checks=ValidationReport("algebra-Galois coextension", tuple(checks)))


def _composite_check(cert: CoextensionCertificate) -> AxiomCheck:
    """m(cotranslation (x) cotranslation)(C (x) coproduct (x) C) =
    cotranslation(C (x) counit (x) C) on the threefold cotensor, checked
    after both sides are shown to land where the cotranslation is defined."""
    x = cert.subject
    c, a = x.coalgebra, x.algebra
    web = cert.cotensor
    coords = web.coordinates()
    projector = web.inclusion() @ coords
    tau = cert.cotranslation @ coords
    ic = c.identity_matrix
    incl = _cotensor_cube(c, cert.base_projection).inclusion()
    middle = kron_apply(ic, kron(c.comult_matrix, ic), incl)
    if kron_apply(projector, projector, middle) != middle:
        raise ImageEscape("(C (x) coproduct (x) C) leaves cotensor (x) cotensor")
    squeezed = kron_apply(ic, kron(c.counit_matrix, ic), incl)
    if projector @ squeezed != squeezed:
        raise ImageEscape("(C (x) counit (x) C) leaves the cotensor product")
    return residual_check(
        "cotranslation-composite",
        "m(cotranslation (x) cotranslation)(C (x) coproduct (x) C) = cotranslation(C (x) counit (x) C)",
        a.mult_matrix @ kron_apply(tau, tau, middle),
        tau @ squeezed,
    )


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

    ``source`` is psi, or a coextension certificate, whose psi is then the
    one used.  When the induced action and I equal that certificate's action
    and coideal, the dual bundle's certificate is that certificate, since
    _certify is deterministic in them.
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
    if not e.checks.ok:
        raise AxiomViolation("entwining identities fail", report=e.checks)
    kap = row_matrix(character.coords, field)
    action = kron_apply(kap, c.identity_matrix, e.psi)
    coideal = image(action - kron(c.identity_matrix, kap))
    carrier = ModuleCoalgebra(c, a, action)
    if extension is not None and carrier == extension.subject and coideal == extension.coideal:
        return DualBundleReport(e, tuple(character.coords), extension)
    return DualBundleReport(e, tuple(character.coords), _certify(carrier, _annihilator(coideal), e))


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
    return action == kron_apply(eps_act, ic, kron_apply(ic, psi.psi, kron(c.comult_matrix, a.identity_matrix)))


def dual_bundle_action_equivalence(bundle: DualBundleReport) -> DualBundleEquivalenceReport:
    """Both directions of the dual correspondence at the bundle's character.

    Forward: from a verified dual bundle, act = (kappa (x) C)psi is an action
    whose coextension certificate recovers psi, with counit . act =
    counit (x) kappa.  Backward: the coinvariants of the dual of that action
    are the annihilator of the bundle's coideal, so its canonical coideal is
    that coideal and its coextension certificate is the bundle's own.  The
    uniqueness clause checks, with the certificate's psi, that the action is
    forced by counit . act.
    """
    if not bundle.is_bundle:
        return DualBundleEquivalenceReport(False, "not a dual bundle: the canonical map is not bijective", bundle=bundle)
    cert = bundle.certificate
    carrier = cert.subject
    c = carrier.coalgebra
    if not carrier.module_checks.ok:
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
