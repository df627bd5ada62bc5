"""Coalgebra-Galois extensions: coinvariants, the balanced tensor product, the
canonical map and its translation map, the induced canonical entwining map with
its uniqueness certificate, the exact differential sequence criterion, and the
bundle-style repackaging inside a fixed entwining structure.

Non-Galois instances are first class: galois_check always returns a
certificate, and operations that need bijectivity gate on it instead of
failing at a distance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .entwining import EntwiningStructure, _hopf_psi, entwined_module_check, known_entwining
from .errors import (
    AxiomViolation,
    DimensionMismatch,
    IllDefined,
    InternalCheckError,
    NotGalois,
    NotGroupLike,
    NotInvertibleError,
    NotSubalgebra,
)
from .exactlin import (
    Matrix,
    QuotientPresentation,
    Subspace,
    _combination,
    _from_index,
    apply_kron,
    column_matrix,
    decide_bijection,
    flip_map,
    image,
    kernel,
    kron,
    kron_apply,
    leg_product,
    leg_product_mirror,
    middle_block,
    quotient,
    tensor_subspace,
)
from .structures import (
    AxiomCheck,
    ComoduleAlgebra,
    FiniteAlgebra,
    GroupLike,
    HopfAlgebra,
    RightModule,
    ValidationReport,
    residual_check,
    verify_grouplike,
)


@dataclass(frozen=True)
class GaloisCertificate:
    """Everything galois_check establishes about one comodule algebra.

    ``coinvariants`` is the balancing subalgebra B: the coinvariants, or for
    a bundle the fixed invariants of its group-like.  ``can`` is the map the
    subject's raw_can induces on the balanced tensor product (quotient
    coordinates); ``translation`` sends C into the quotient; ``psi`` is the
    canonical entwining map, present exactly when the extension is Galois,
    except in a bare canonical_map_certificate, which carries none.
    """

    subject: ComoduleAlgebra
    coinvariants: Subspace
    balanced: QuotientPresentation
    can: Matrix
    rank: int
    is_galois: bool
    translation: Matrix | None
    psi: EntwiningStructure | None
    witness: tuple | None
    checks: ValidationReport


def coinvariant_system(x: ComoduleAlgebra) -> Matrix:
    """D = coaction . m - (m (x) C)(A (x) coaction): A (x) A -> A (x) C, whose
    second term is x.raw_can, the canonical map of x on the full A (x) A.

    b is coinvariant iff D(b (x) a) = 0 for every a.  For a quotient
    pi: C -> B, the system of the coaction (A (x) pi)coaction is
    (A (x) pi) . D, since (m (x) B)(A (x) (A (x) pi)coaction) =
    (A (x) pi)(m (x) C)(A (x) coaction).
    """
    return x.coaction_of_product - x.raw_can


def _stacked_system(system: Matrix, dim: int) -> Matrix:
    """b |-> (D(b (x) a_j))_j for D on A (x) A with dim A = ``dim``: D's
    nonzero index with column (b, j) moved to row block j."""
    rows = system.rows
    stacked: list[list] = [[] for _ in range(dim * rows)]
    for r, pairs in enumerate(system.nonzeros):
        for col, v in pairs:
            b, j = divmod(col, dim)
            stacked[j * rows + r].append((b, v))
    return _from_index(dim * rows, dim, [tuple(row) for row in stacked], system.field)


def coinvariants(a: FiniteAlgebra, system: Matrix) -> Subspace:
    """{b : D(b (x) a) = 0 for all a}, the general coinvariants
    {b : coaction(b a) = b coaction(a) for all a} of the coaction on A whose
    coinvariant system is D.

    The result is verified to be a subalgebra; a failure there would be a
    library bug, not bad input.
    """
    sub = kernel(_stacked_system(system, a.dim))
    failure = _subalgebra_failure(a, sub)
    if failure:
        raise InternalCheckError(f"the coinvariant subspace {failure}")
    return sub


def _subalgebra_failure(a: FiniteAlgebra, sub: Subspace) -> str | None:
    """Why ``sub`` is not a subalgebra of ``a``, or None when it is one: the
    product of each pair of echelon basis rows, read off the columns of the
    multiplication, stops at the first outside ``sub``.  Holding the unit,
    A itself and, when the unit is nonzero, the line k 1 need no product."""
    if not sub.contains_vector(a.unit):
        return "does not contain the unit"
    if sub.dim == a.dim or sub.dim == 1 and any(a.unit):
        return None
    products, d, p = a.mult_matrix.transpose().nonzeros, a.dim, a.field.p
    for u in sub.nonzeros:
        for v in sub.nonzeros:
            terms = [(i * d + j, x * y % p if p else x * y) for i, x in u for j, y in v]
            if not sub._reduces_to_zero(dict(_combination(terms, products, p))):
                return "is not closed under multiplication"
    return None


def _unit_coacts_by(a: FiniteAlgebra, coaction: Matrix, e_col: Matrix) -> bool:
    """coaction(1) = 1 (x) e for the group-like column e_col."""
    return tuple(coaction.apply(a.unit)) == kron(column_matrix(a.unit, a.field), e_col).column(0)


def _fixed_points(a: FiniteAlgebra, coaction: Matrix, e_col: Matrix) -> Subspace:
    """{b : coaction(b) = b (x) e} for the group-like column e_col."""
    return kernel(coaction - kron(a.identity_matrix, e_col))


@dataclass(frozen=True)
class ClassicalComparison:
    applicable: bool
    note: str
    grouplike: tuple | None = None
    agrees: bool | None = None


def classical_coinvariants_agree(cert: GaloisCertificate, algebra_map: Sequence[AxiomCheck] = ()) -> ClassicalComparison:
    """Compare the certificate's coinvariants with the fixed-point coinvariants
    {b : coaction(b) = b (x) e}.

    Applicable when the coaction is an algebra map and coaction(1) is of the
    form 1 (x) e; the comodule axioms then force e group-like.  When the
    coacting space carries an algebra (e.g. under a Hopf algebra),
    ``algebra_map`` is the subject's coaction_algebra_map_checks report.
    """
    x = cert.subject
    a, c = x.algebra, x.coalgebra
    field = a.field
    bad = [chk for chk in algebra_map if not chk.ok]
    if bad:
        return ClassicalComparison(False, f"coaction is not an algebra map ({bad[0].name})")
    unit_image = x.coaction.apply(a.unit)
    pivot = next((i for i, v in enumerate(a.unit) if v), None)
    if pivot is None:
        return ClassicalComparison(False, "algebra unit is zero")
    e = [field.div(unit_image[pivot * c.dim + j], a.unit[pivot]) for j in range(c.dim)]
    e_col = column_matrix(e, field)
    if not _unit_coacts_by(a, x.coaction, e_col):
        return ClassicalComparison(False, "coaction(1) is not of the form 1 (x) e")
    fixed = _fixed_points(a, x.coaction, e_col)
    return ClassicalComparison(True, "", grouplike=tuple(e), agrees=fixed == cert.coinvariants)


def balanced_tensor(x: ComoduleAlgebra, sub: Subspace) -> QuotientPresentation:
    """A (x)_B A: the quotient of A (x) A by the relations, the image of
    a (x) b (x) a' |-> a b (x) a' - a (x) b a' on A (x) B (x) A.

    Raises NotSubalgebra unless B = ``sub`` is a subalgebra.  The test is
    skipped only for x.coinvariants itself, which ``coinvariants`` verified
    when it built them."""
    a = x.algebra
    if sub.ambient_dim != a.dim:
        raise DimensionMismatch("subalgebra lives in the wrong ambient space")
    # x's own coinvariants were verified a subalgebra when they were computed
    if sub is not vars(x).get("coinvariants"):
        failure = _subalgebra_failure(a, sub)
        if failure:
            raise NotSubalgebra(f"balancing subspace {failure}")
    ia, incl, m = a.identity_matrix, sub.inclusion(), a.mult_matrix
    relations = image(kron(apply_kron(m, ia, incl), ia) - kron(ia, apply_kron(m, incl, ia)))
    return quotient(a.dim * a.dim, relations)


def _descend(full: Matrix, presentation: QuotientPresentation, what: str) -> Matrix:
    """Restrict a map on A (x) A to the balanced quotient, checking balance first."""
    if not (full @ presentation.relations.inclusion()).is_zero:
        raise IllDefined(f"{what} does not vanish on the balancing relations")
    return full @ presentation.section


def _quotient_left_action(x: ComoduleAlgebra, presentation: QuotientPresentation) -> Matrix:
    """A (x) (A (x)_B A) -> A (x)_B A induced by multiplication on the left leg."""
    a = x.algebra
    lift = leg_product(a.mult_matrix, presentation.section, (a.dim, a.dim, a.dim))
    return presentation.projection @ lift


def _quotient_right_action(x: ComoduleAlgebra, presentation: QuotientPresentation) -> Matrix:
    """(A (x)_B A) (x) A -> A (x)_B A induced by multiplication on the right leg."""
    a = x.algebra
    lift = leg_product_mirror(a.mult_matrix, presentation.section, (a.dim, a.dim, a.dim))
    return presentation.projection @ lift


def _quotient_coaction(x: ComoduleAlgebra, presentation: QuotientPresentation) -> Matrix:
    """A (x)_B A -> (A (x)_B A) (x) C induced by the coaction on the right leg."""
    a, c = x.algebra, x.coalgebra
    lift = kron_apply(a.identity_matrix, x.coaction, presentation.section)
    return kron_apply(presentation.projection, c.identity_matrix, lift)


def galois_check(x: ComoduleAlgebra) -> GaloisCertificate:
    """Build the canonical map on A (x)_B A over the coinvariants B, decide
    bijectivity, and certify.

    When the map is bijective the certificate carries the translation map
    tau(c) = can^-1(1 (x) c), its three defining identities, and the canonical
    entwining map together with the entwined-module property of A itself.
    """
    if not x.comodule_checks.ok:
        raise AxiomViolation("coaction does not satisfy the comodule axioms", report=x.comodule_checks)
    return _certify(x, x.coinvariants)


def canonical_map_certificate(x: ComoduleAlgebra, sub: Subspace) -> GaloisCertificate:
    """The canonical map of x balanced over the subalgebra ``sub``: the
    balanced tensor product, the map ``can`` induced by x.raw_can with its
    linearity and colinearity checks, and the bijectivity decision, which
    solves can tau = kron(unit, I_C): when ``can`` is bijective, tau is the
    translation map, with its three identities.  The caller has established
    the comodule axioms; the certificate carries no entwining."""
    a, c = x.algebra, x.coalgebra
    presentation = balanced_tensor(x, sub)
    can = _descend(x.raw_can, presentation, "the canonical map")
    left_action = _quotient_left_action(x, presentation)
    coact_q = _quotient_coaction(x, presentation)
    checks = [
        residual_check(
            "can-left-linear",
            "can(a.(x (x)_B y)) = (m (x) C)(a (x) can(x (x)_B y))",
            can @ left_action,
            leg_product(a.mult_matrix, can, (a.dim, a.dim, c.dim)),
        ),
        residual_check(
            "can-right-colinear",
            "(A (x) coproduct)can = (can (x) C)(coaction on the right leg)",
            kron_apply(a.identity_matrix, c.comult_matrix, can),
            kron_apply(can, c.identity_matrix, coact_q),
        ),
    ]
    decision = decide_bijection(can, kron(a.unit_matrix, c.identity_matrix))
    is_galois = decision.solution is not None
    checks.append(AxiomCheck("can-bijective", "the canonical map is a bijection onto A (x) C", None, is_galois))
    cert = GaloisCertificate(
        subject=x,
        coinvariants=sub,
        balanced=presentation,
        can=can,
        rank=decision.rank,
        is_galois=is_galois,
        translation=decision.solution,
        psi=None,
        witness=decision.witness,
        checks=ValidationReport("coalgebra-Galois extension", tuple(checks)),
    )
    if not is_galois:
        return cert
    checks.extend(_translation_checks(cert, left_action, coact_q))
    return replace(cert, checks=ValidationReport("coalgebra-Galois extension", tuple(checks)))


def _certify(x: ComoduleAlgebra, sub: Subspace, known: EntwiningStructure | None = None) -> GaloisCertificate:
    """galois_check balanced over the given subalgebra ``sub`` in place of the
    coinvariants: the canonical map certificate, and when it is Galois the
    canonical psi with the entwined-module property of A.  A canonical psi
    equal to ``known`` is ``known`` (known_entwining)."""
    cert = canonical_map_certificate(x, sub)
    if not cert.is_galois:
        return cert
    a = x.algebra
    psi = known_entwining(canonical_entwining(cert), known)
    module = entwined_module_check(RightModule(a.dim, a, a.mult_matrix), x.comodule, psi, x.coaction_of_product)
    checks = cert.checks.checks + psi.checks.checks + (module,)
    return replace(cert, psi=psi, checks=ValidationReport("coalgebra-Galois extension", checks))


def _translation_checks(cert: GaloisCertificate, left_action: Matrix, coact_q: Matrix) -> list[AxiomCheck]:
    """The three translation-map identities, stated on the quotient, whose
    left action and coaction the canonical map certificate has built."""
    x = cert.subject
    a, c = x.algebra, x.coalgebra
    tau = cert.translation
    presentation = cert.balanced
    descended_mult = a.mult_matrix @ presentation.section
    unit_right = apply_kron(presentation.projection, a.unit_matrix, a.identity_matrix)
    return [
        residual_check(
            "translation-product",
            "multiplying the two legs of translation(c) gives counit(c) 1",
            descended_mult @ tau,
            a.unit_matrix @ c.counit_matrix,
        ),
        residual_check(
            "translation-splits-coaction",
            "a_(0) . translation(a_(1)) = 1 (x)_B a",
            left_action @ kron_apply(a.identity_matrix, tau, x.coaction),
            unit_right,
        ),
        residual_check(
            "translation-colinear",
            "coacting on the right leg of translation = (translation (x) C)coproduct",
            coact_q @ tau,
            kron_apply(tau, c.identity_matrix, c.comult_matrix),
        ),
    ]


def canonical_entwining(cert: GaloisCertificate) -> EntwiningStructure:
    """psi = can . (right multiplication on A (x)_B A) . (translation (x) A),
    through the (A (x)_B A) x (C (x) A) product of the right two factors."""
    if not cert.is_galois:
        raise NotGalois("canonical entwining requires a bijective canonical map")
    x = cert.subject
    right_action = _quotient_right_action(x, cert.balanced)
    psi = cert.can @ apply_kron(right_action, cert.translation, x.algebra.identity_matrix)
    return EntwiningStructure(x.algebra, x.coalgebra, psi)


@dataclass(frozen=True)
class UniquenessReport:
    applicable: bool
    note: str
    solution_space_dim: int | None = None
    psi_solves: bool | None = None

    @property
    def unique(self) -> bool | None:
        if not self.applicable:
            return None
        return self.solution_space_dim == 0 and bool(self.psi_solves)


def entwining_uniqueness(cert: GaloisCertificate) -> UniquenessReport:
    """Linear system forcing psi: the entwined-module condition on A.

    coaction . m = (m (x) C)(A (x) psi')(coaction (x) A) is linear in
    psi': C (x) A -> A (x) C.  Its homogeneous map is a_dim c_dim copies of
    middle_block(m, coaction, a_dim, c_dim), so the solution space has
    a_dim c_dim times its kernel dimension; psi solves the system exactly
    when the certificate's own entwined-module check holds.  Uniqueness is
    a zero-dimensional solution space.
    """
    if not cert.is_galois:
        return UniquenessReport(False, "not a Galois extension; uniqueness is not asserted")
    x = cert.subject
    a_dim, c_dim = x.algebra.dim, x.coalgebra.dim
    block = middle_block(x.algebra.mult_matrix, x.coaction, a_dim, c_dim)
    solves = next(chk.ok for chk in cert.checks.checks if chk.name == "entwined-module")
    return UniquenessReport(True, "", solution_space_dim=a_dim * c_dim * kernel(block).dim, psi_solves=solves)


@dataclass(frozen=True)
class DifferentialSequenceReport:
    """Exactness data for 0 -> A(dB)A -> dA -> A (x) C+ -> 0 with dA = Ker m."""

    universal_forms: Subspace
    horizontal_forms: Subspace
    augmented_target: Subspace
    image_fills_target: bool
    kernel_matches_horizontal: bool
    exact: bool
    galois: bool

    @property
    def agrees_with_galois(self) -> bool:
        return self.exact == self.galois


def differential_sequence(cert: GaloisCertificate) -> DifferentialSequenceReport:
    """Exactness of the universal-calculus sequence, cross-checked with the
    certificate's Galois verdict.

    The horizontal forms A(dB)A are the relations of A (x)_B A.  For A
    associative and unital and B a unital subalgebra, with db = 1 (x) b -
    b (x) 1, a (db) a' is minus the relation of a (x) b (x) a'; and Omega_B
    is spanned by the b db', so A.Omega_B.A by the a (b db') a' = (ab)(db')a'.
    The kernel of raw_can on Omega_A is incl(Ker(raw_can incl)).
    """
    x = cert.subject
    a, c = x.algebra, x.coalgebra
    omega_a = kernel(a.mult_matrix)
    target = tensor_subspace(Subspace.full(a.dim, a.field), kernel(c.counit_matrix))
    horizontal = cert.balanced.relations
    restricted = x.raw_can @ omega_a.inclusion()
    image_ok = image(restricted) == target
    kernel_ok = omega_a.embed(kernel(restricted)) == horizontal
    return DifferentialSequenceReport(
        universal_forms=omega_a,
        horizontal_forms=horizontal,
        augmented_target=target,
        image_fills_target=image_ok,
        kernel_matches_horizontal=kernel_ok,
        exact=image_ok and kernel_ok,
        galois=cert.is_galois,
    )


@dataclass(frozen=True)
class BundleReport:
    """Outcome of the fixed-entwining bundle test for one group-like e.

    The bundle is the Galois certificate of the induced coaction
    a |-> psi(e (x) a), balanced over the fixed invariants.
    """

    entwining: EntwiningStructure
    grouplike: tuple
    certificate: GaloisCertificate

    @property
    def invariants(self) -> Subspace:
        return self.certificate.coinvariants

    @property
    def is_bundle(self) -> bool:
        return self.certificate.is_galois

    @property
    def rank(self) -> int:
        return self.certificate.rank


def bundle_check(source: EntwiningStructure | GaloisCertificate, grouplike: GroupLike) -> BundleReport:
    """B = {b : psi(e (x) b) = b (x) e}; bundle iff a psi(e (x) a') is bijective.

    The entwining identities and e group-like make a |-> psi(e (x) a) a
    coaction, and B is balanced because psi(e (x) b a) = b psi(e (x) a).

    ``source`` is psi, or a Galois certificate, whose psi is then the one
    used.  When the induced coaction and B equal that certificate's coaction
    and coinvariants, the bundle's certificate is that certificate, since
    _certify is deterministic in them.
    """
    extension = source if isinstance(source, GaloisCertificate) else None
    if extension is not None and not extension.is_galois:
        raise NotGalois("a bundle needs the canonical entwining of a Galois extension")
    e = source if extension is None else extension.psi
    a, c = e.algebra, e.coalgebra
    if grouplike.coalgebra != c:
        raise DimensionMismatch("group-like lives in a different coalgebra")
    if not verify_grouplike(c, grouplike.coords):
        raise NotGroupLike("supplied vector is not group-like")
    if not e.checks.ok:
        raise AxiomViolation("entwining identities fail", report=e.checks)
    e_col = column_matrix(grouplike.coords, a.field)
    coaction = apply_kron(e.psi, e_col, a.identity_matrix)
    invariants = _fixed_points(a, coaction, e_col)
    carrier = ComoduleAlgebra(a, c, coaction)
    if extension is not None and carrier == extension.subject and invariants == extension.coinvariants:
        return BundleReport(e, tuple(grouplike.coords), extension)
    return BundleReport(e, tuple(grouplike.coords), _certify(carrier, invariants, e))


@dataclass(frozen=True)
class BundleEquivalenceReport:
    """Round trip between bundle data and Galois data for one group-like."""

    applicable: bool
    note: str
    bundle: BundleReport | None = None
    coaction: Matrix | None = None
    certificate: GaloisCertificate | None = None
    unit_normalized: bool | None = None
    psi_recovered: bool | None = None
    coinvariants_match: bool | None = None
    coaction_forced: bool | None = None

    @property
    def ok(self) -> bool:
        if not self.applicable:
            return True
        return bool(
            self.unit_normalized
            and self.psi_recovered
            and self.coinvariants_match
            and self.coaction_forced
            and self.certificate.checks.ok
        )


def coaction_forced_by_unit(coaction: Matrix, psi: EntwiningStructure) -> bool:
    """coaction(a) = (m (x) C)(A (x) psi)(coaction(1) (x) a): through psi, the
    coaction is determined by its value on 1."""
    a = psi.algebra
    rho_one = column_matrix(coaction.apply(a.unit), a.field)
    return coaction == apply_kron(psi.mu, rho_one, a.identity_matrix)


def bundle_coaction_equivalence(bundle: BundleReport) -> BundleEquivalenceReport:
    """Both directions of the bundle/Galois correspondence at the bundle's group-like.

    Forward: from a verified bundle, a |-> psi(e (x) a) is a coaction whose
    Galois certificate recovers psi, with coaction(1) = 1 (x) e.  Backward:
    the coinvariants of that coaction are the bundle's invariants, so its
    Galois certificate is the bundle's own.  The uniqueness clause checks,
    with the certificate's psi, that the coaction is forced by its value on 1.
    """
    if not bundle.is_bundle:
        return BundleEquivalenceReport(False, "not a bundle: the canonical map is not bijective", bundle=bundle)
    cert = bundle.certificate
    carrier = cert.subject
    a = carrier.algebra
    if not carrier.comodule_checks.ok:
        return BundleEquivalenceReport(False, "induced map is not a coaction", bundle=bundle)
    coaction = carrier.coaction
    e_col = column_matrix(bundle.grouplike, a.field)
    return BundleEquivalenceReport(
        True,
        "",
        bundle=bundle,
        coaction=coaction,
        certificate=cert,
        unit_normalized=_unit_coacts_by(a, coaction, e_col),
        psi_recovered=cert.psi.psi == bundle.entwining.psi,
        coinvariants_match=carrier.coinvariants == cert.coinvariants,
        coaction_forced=coaction_forced_by_unit(coaction, cert.psi),
    )


@dataclass(frozen=True)
class LeftCanonicalReport:
    can_left: Matrix
    composite_matches: bool
    left_bijective: bool

    @property
    def ok(self) -> bool:
        return self.composite_matches and self.left_bijective


def left_canonical_check(h: HopfAlgebra, cert: GaloisCertificate, algebra_map: Sequence[AxiomCheck]) -> LeftCanonicalReport:
    """can_L(a (x)_B a') = S^{-1}(a_(1)) (x) a_(0) a' satisfies psi . can_L = can,
    with psi the Hopf-case entwining map psi(h (x) a) = a_(0) (x) h a_(1).

    ``algebra_map`` is the coaction_algebra_map_checks report of the
    certificate's subject against h.  When psi . can_L = can and can is
    invertible, can^-1 psi is a left inverse of the square can_L (both sides
    have the dimension of A (x) C), so only otherwise is can_L inverted.
    """
    x = cert.subject
    if x.coalgebra != h.coalgebra:
        raise DimensionMismatch("comodule algebra does not coact through the Hopf coalgebra")
    bad = [chk for chk in algebra_map if not chk.ok]
    if bad:
        raise AxiomViolation("left canonical map needs an algebra-map coaction", report=bad)
    sinv = h.antipode_inverse
    if sinv is None:
        raise NotInvertibleError("antipode is not invertible")
    a = x.algebra
    nh = h.dim
    field = a.field
    # kron(I_H, m) @ kron(flip (A (x) S^-1) coaction, I_A)
    flipped = flip_map(a.dim, nh, field) @ kron_apply(a.identity_matrix, sinv, x.coaction)
    can_left_full = leg_product_mirror(a.mult_matrix, flipped, (a.dim, a.dim, nh))
    can_left = _descend(can_left_full, cert.balanced, "the left canonical map")
    composite = _hopf_psi(h, x) @ can_left == cert.can
    verdict_only = Matrix.zero(can_left.rows, 0, field)
    return LeftCanonicalReport(
        can_left=can_left,
        composite_matches=composite,
        left_bijective=(composite and cert.is_galois) or decide_bijection(can_left, verdict_only).solution is not None,
    )
