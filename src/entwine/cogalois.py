"""Algebra-Galois coextensions, the dual story: the canonical coideal of a
module coalgebra, the quotient coalgebra, the canonical map onto the cotensor
product, the cotranslation map with its identities, the induced entwining
map with uniqueness, and the dual bundles at a character.

A coextension is the dual of an extension, and so is everything this module
certifies about it: the certificate of a module coalgebra x keeps the Galois
certificate of the dual comodule algebra x* = (C*, A*, act^T) and reads it
back through the transpose.  The canonical coideal annihilates the
coinvariants of x*, the cotensor product C box_B C annihilates the balancing
relations of x* over the annihilator of the coideal, and the canonical map,
the cotranslation map, the entwining map with its uniqueness and the module
and entwining identities are the transposes of the dual's.
A character of A is a group-like of A*, so a dual bundle is a bundle of x*,
and the coalgebra-map test of the action is the algebra-map test of the
dual coaction.  The composite cotranslation identity, stated on the
threefold cotensor product, is a theorem of the dual's canonical-map
checks, and is reported from them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .entwining import EntwiningStructure
from .errors import (
    AxiomViolation,
    DimensionMismatch,
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
)
from . import galois
from .galois import BundleReport, GaloisCertificate, UniquenessReport, bundle_check, entwining_uniqueness
from .structures import (
    AxiomCheck,
    Character,
    FiniteAlgebra,
    FiniteCoalgebra,
    GroupLike,
    ModuleCoalgebra,
    ValidationReport,
    coaction_algebra_map_checks,
    dualize,
    restated,
    verify_character,
)


@dataclass(frozen=True)
class CoextensionCertificate:
    """Everything coextension_check establishes about one module coalgebra.

    ``dual`` is the Galois certificate of x* it is read from, and ``base_dim``
    = dim C/I is that of its balancing subalgebra B = (C/I)*.  ``cocan`` is
    co-restricted to the cotensor product (coordinates against its echelon
    basis); ``cotranslation`` maps those coordinates to A; ``psi`` is the
    canonical entwining map, present exactly when the coextension is Galois.
    """

    subject: ModuleCoalgebra
    dual: GaloisCertificate
    coideal: Subspace
    cotensor: Subspace
    cocan: Matrix
    cotranslation: Matrix | None
    psi: EntwiningStructure | None
    witness: tuple | None
    checks: ValidationReport

    @property
    def rank(self) -> int:
        return self.dual.rank

    @property
    def base_dim(self) -> int:
        return self.dual.coinvariants.dim

    @property
    def is_coextension(self) -> bool:
        return self.dual.is_galois


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


def hopf_coideal(x: ModuleCoalgebra, hopf_algebra: FiniteAlgebra, hopf_coalgebra: FiniteCoalgebra) -> Subspace:
    """span{act(c, h) - counit(h) c} for a module coalgebra whose action is a
    coalgebra map against the given bialgebra structure on the acting space.

    The action is a coalgebra map C (x) H -> C exactly when the dual
    coaction act^T is a unital algebra map into C* (x) H*: the two
    identities are each other's transposes, residual for residual.  The
    action must already satisfy the module axioms.
    """
    if hopf_algebra != x.algebra:
        raise DimensionMismatch("acting algebra differs from the module structure")
    c = x.coalgebra
    checks = coaction_algebra_map_checks(x.dual, dualize(hopf_coalgebra))
    bad = [chk for chk in checks if not chk.ok]
    if bad:
        raise AxiomViolation(f"action is not a coalgebra map (dual {bad[0].name})", report=checks)
    eps_h = row_matrix(hopf_coalgebra.counit, c.field)
    return image(x.action - kron(c.identity_matrix, eps_h))


def quotient_coalgebra(c: FiniteCoalgebra, coideal: Subspace) -> tuple[FiniteCoalgebra, Matrix]:
    """B = C/I with its induced coproduct and counit, plus the projection.

    The projection pi is a coalgebra map, (pi (x) pi)coproduct = D_B . pi and
    counit_B . pi = counit, exactly when I is a coideal: both sides agree off
    I, and on I the left sides are (pi (x) pi)coproduct(I) and counit(I).
    B then satisfies the coalgebra axioms whenever C does, which the caller
    has established.
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
    return FiniteCoalgebra(b_dim, names, d_b, e_b.entries[0], field), pi


def _decide_onto_cotensor(cocan: Matrix, web: Subspace) -> Bijectivity:
    """decide_bijection for a map in cotensor coordinates; a witness outside
    the image is reported in C (x) C rather than in those coordinates.  The
    dual's decision is on can, not on can^T, whose kernel is ker(cocan)."""
    decision = decide_bijection(cocan, Matrix.zero(cocan.rows, 0, cocan.field))
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

# Each coextension identity of psi and of C as an entwined module, and the
# dual identity it is the transpose of: psi^T trades A for C* and C for A*.
# The statement is the one the dual states under the coextension's name.
_TRANSPOSED_ENTWINING = (
    ("multiplication-compat", "comultiplication-compat"),
    ("unit-compat", "counit-compat"),
    ("comultiplication-compat", "multiplication-compat"),
    ("counit-compat", "unit-compat"),
    ("entwined-module", "entwined-module"),
)


def _certify(x: ModuleCoalgebra, balancing: Subspace) -> CoextensionCertificate:
    """coextension_check over the coideal annihilated by ``balancing``, a
    subalgebra of C*, in place of the canonical one (the annihilator of the
    dual's coinvariants); the caller has established the coalgebra and module
    axioms.  galois._certify raises NotSubalgebra when ``balancing`` is not.

    The dual x* is certified over ``balancing``.  With P and S the
    projection and section of that balanced tensor product, the canonical
    map on the full C (x) A is raw_can(x*)^T = P^T can^T, so it lands in the
    cotensor image(P^T), and in its echelon coordinates it is T can^T with
    T = coordinates . P^T, whose inverse is S^T . inclusion.

    The composite identity m(tau (x) tau)(C (x) coproduct (x) C) =
    tau(C (x) counit (x) C) on C box_B C box_B C passes exactly when the six
    transposed canonical-map checks do.  Its transpose, for the translation
    map tau(h) = can^-1(1 (x) h) = h^[1] (x)_B h^[2] of x* = (A', H), is
    h_(1)^[1] (x)_B h_(1)^[2] h_(2)^[1] (x)_B h_(2)^[2] = h^[1] (x)_B 1 (x)_B h^[2],
    whose middle product and unit insertion are well defined over B (the
    containments of both sides in the cotensors).  A' (x)_B can is defined
    and bijective, can being left A'-linear and bijective; by left
    linearity, can(tau(h)) = 1 (x) h and the right colinearity of tau, it
    sends both sides to h_(1)^[1] (x)_B h_(1)^[2] (x) h_(2).  The Hopf-Galois
    case is in Schneider, Israel J. Math. 72 (1990).
    """
    dual = galois._certify(x.dual, balancing)
    web = image(dual.balanced.projection.transpose())
    cocan = web.coordinates() @ x.dual.raw_can.transpose()
    # the dual's can is defined only if raw_can(x*) vanishes on the balancing
    # relations (IllDefined otherwise), which is cocan landing in the cotensor
    checks = [AxiomCheck("cocan-into-cotensor", "the canonical map lands in the cotensor product", None, True)]
    checks.extend(restated(chk, *named) for chk, named in zip(dual.checks.checks, _TRANSPOSED_CHECKS))
    cert = CoextensionCertificate(
        subject=x,
        dual=dual,
        coideal=_annihilator(balancing),
        cotensor=web,
        cocan=cocan,
        cotranslation=None,
        psi=None,
        witness=None if dual.is_galois else _decide_onto_cotensor(cocan, web).witness,
        checks=ValidationReport("algebra-Galois coextension", tuple(checks)),
    )
    if not dual.is_galois:
        return cert
    cert = replace(cert, cotranslation=dual.translation.transpose() @ (dual.balanced.section.transpose() @ web.inclusion()))
    composite = "m(cotranslation (x) cotranslation)(C (x) coproduct (x) C) = cotranslation(C (x) counit (x) C)"
    checks.append(AxiomCheck("cotranslation-composite", composite, None, all(chk.ok for chk in checks[1:])))
    identities = {chk.name: chk for chk in dual.checks.checks[len(_TRANSPOSED_CHECKS):]}
    checks.extend(
        restated(identities[source], name, identities[name].statement) for name, source in _TRANSPOSED_ENTWINING
    )
    psi = EntwiningStructure(x.algebra, x.coalgebra, dual.psi.psi.transpose())
    return replace(cert, psi=psi, checks=ValidationReport("algebra-Galois coextension", tuple(checks)))


def dual_uniqueness(cert: CoextensionCertificate) -> UniquenessReport:
    """entwining_uniqueness of the dual certificate: psi' |-> psi'^T is a
    linear bijection between the solutions of the coextension's system,
    coproduct . act = (act (x) C)(C (x) psi')(coproduct (x) A), and those of
    the dual's, so the solution spaces have the same dimension."""
    if not cert.is_coextension:
        return UniquenessReport(False, "not a Galois coextension; uniqueness is not asserted")
    return entwining_uniqueness(cert.dual)


def dual_bundle_check(source: EntwiningStructure | CoextensionCertificate, character: Character) -> BundleReport:
    """The dual bundle at a character kappa of A, which is the bundle of the
    dual at kappa, a group-like of A*.

    The bundle's coaction is the transpose of the induced action
    (kappa (x) C)psi, and its invariants are the annihilator of the induced
    coideal I = span{(kappa (x) C)psi(c (x) a) - c kappa(a)}, of dimension
    dim C - dim invariants.  So it is a dual bundle iff the induced canonical
    map onto the cotensor over C/I is bijective, which is the bundle's
    verdict, and bundle_coaction_equivalence is the dual equivalence.

    ``source`` is psi on (A, C), whose transpose is then the entwining of
    the dual, or a coextension certificate, whose dual certificate is then
    the source of bundle_check: the bundle's certificate is that dual
    certificate when the induced coaction and invariants equal its own.
    """
    if isinstance(source, CoextensionCertificate):
        if not source.is_coextension:
            raise NotGaloisCoextension("a dual bundle needs the canonical entwining of a Galois coextension")
        a = source.subject.algebra
        dual, a_dual = source.dual, source.dual.subject.coalgebra
    else:
        a = source.algebra
        a_dual = dualize(a)
        dual = EntwiningStructure(dualize(source.coalgebra), a_dual, source.psi.transpose())
    if character.algebra != a:
        raise DimensionMismatch("character lives on a different algebra")
    if not verify_character(a, character.coords):
        raise NotCharacter("supplied functional is not a character")
    return bundle_check(dual, GroupLike(a_dual, tuple(character.coords)))
