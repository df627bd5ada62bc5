"""Verification suites over structure documents.

Each suite turns the relevant document sections into library structures and
runs the corresponding battery of exact checks, producing an ordered
SuiteReport.  A suite raises MissingSection when a section it needs is
absent; the ``all`` suite runs every sub-suite whose inputs are present.
The document caches its structures and each structure its axiom reports,
so the sub-suites of ``all`` validate each structure once.
"""

from __future__ import annotations

from dataclasses import replace

from .cogalois import coextension_check, coideal_checks, dual_bundle_check, dual_uniqueness, hopf_coideal, quotient_coalgebra
from .cogenerate import COGENERATES, cogeneration_check, coinvariant_intersection_check
from .docformat import StructureDocument
from .entwining import psi_to_structure_maps, structure_maps_to_psi
from .errors import AxiomViolation, EntwineError, MissingSection, NotCoideal, NotInvertibleError
from .exactlin import quotient
from .galois import (
    bundle_check,
    bundle_coaction_equivalence,
    classical_coinvariants_agree,
    differential_sequence,
    entwining_uniqueness,
    galois_check,
    left_canonical_check,
)
from .reports import SuiteReport, formatted_rows, matrix_detail, subspace_detail, vector_detail
from .structures import (
    Character,
    GroupLike,
    coaction_algebra_map_checks,
    validate_hopf,
    verify_character,
    verify_grouplike,
)

SUITES = ("structures", "entwining", "galois", "cogalois", "cogenerate", "all")


def _add_validation(report: SuiteReport, prefix: str, validation):
    for chk in validation.checks:
        detail = None
        if not chk.ok and chk.residual is not None:
            detail = {"residual": formatted_rows(chk.residual.nonzeros, chk.residual.cols, str)}
        report.add(f"{prefix}.{chk.name}", chk.statement, chk.ok, detail)


def _gate(report: SuiteReport, prefix: str, validation) -> bool:
    """Add only the failing checks of an input validation; True when it passes."""
    _add_validation(report, prefix, replace(validation, checks=validation.failures()))
    return validation.ok


def _add_uniqueness(report: SuiteReport, prefix: str, uniq):
    """The entry for a uniqueness report of the compatible entwining map: its
    solution-space dimension, or the note of why the system does not apply."""
    check_id = f"{prefix}.entwining-unique"
    if uniq.applicable:
        report.add(
            check_id,
            "the compatible entwining map is unique (solution space dimension 0)",
            bool(uniq.unique),
            {"solution_space_dim": uniq.solution_space_dim},
        )
    else:
        report.skip(check_id, "the compatible entwining map is unique", uniq.note)


def _require(doc: StructureDocument, suite: str, **needs):
    for section, present in needs.items():
        if not present:
            raise MissingSection(section, suite)


def run_structures(doc: StructureDocument) -> SuiteReport:
    report = SuiteReport("structures")
    if doc.algebra is None and doc.coalgebra is None:
        raise MissingSection("algebra or coalgebra", "structures")
    if doc.algebra is not None:
        _add_validation(report, "structures.algebra", doc.algebra.checks)
    if doc.coalgebra is not None:
        _add_validation(report, "structures.coalgebra", doc.coalgebra.checks)
    if doc.antipode is not None:
        hopf = doc.hopf
        if hopf is None:
            raise MissingSection("algebra and coalgebra on the antipode's space", "structures")
        _add_validation(report, "structures.hopf", validate_hopf(hopf))
    if doc.coaction is not None:
        comodule = doc.comodule_algebra
        if comodule is None:
            raise MissingSection("algebra and coalgebra for the coaction", "structures")
        _add_validation(report, "structures.comodule", comodule.comodule_checks)
    if doc.action is not None:
        module = doc.module_coalgebra
        if module is None:
            raise MissingSection("algebra and coalgebra for the action", "structures")
        _add_validation(report, "structures.module", module.module_checks)
    for name, coords in doc.grouplikes:
        if doc.coalgebra is None:
            raise MissingSection("coalgebra", "structures")
        report.add(
            f"structures.grouplike.{name}",
            "coproduct(e) = e (x) e and counit(e) = 1",
            verify_grouplike(doc.coalgebra, coords),
            {"coords": vector_detail(doc.field, coords)},
        )
    for name, coords in doc.characters:
        if doc.algebra is None:
            raise MissingSection("algebra", "structures")
        report.add(
            f"structures.character.{name}",
            "kappa(ab) = kappa(a)kappa(b) and kappa(1) = 1",
            verify_character(doc.algebra, coords),
            {"coords": vector_detail(doc.field, coords)},
        )
    if doc.coideals and doc.coalgebra is None:
        raise MissingSection("coalgebra", "structures")
    for (name, _), sub in zip(doc.coideals, doc.coideal_subspaces()):
        for chk in coideal_checks(doc.coalgebra, quotient(doc.coalgebra.dim, sub)):
            report.add(f"structures.coideal.{name}.{chk.name}", chk.statement, chk.ok)
    return report


def run_entwining(doc: StructureDocument) -> SuiteReport:
    _require(doc, "entwining", algebra=doc.algebra is not None, coalgebra=doc.coalgebra is not None, psi=doc.psi is not None)
    report = SuiteReport("entwining")
    e = doc.entwining
    _add_validation(report, "entwining", e.checks)
    if not e.checks.ok:
        report.skip("entwining.structure-maps", "round trip through the structure-map pair", "entwining identities fail")
        return report
    pair = psi_to_structure_maps(e)
    _add_validation(report, "entwining.pair", pair.checks)
    recovered = structure_maps_to_psi(pair, e)
    report.add(
        "entwining.round-trip",
        "structure maps recover the same entwining map",
        recovered.psi == e.psi,
    )
    return report


def run_galois(doc: StructureDocument) -> SuiteReport:
    _require(
        doc,
        "galois",
        algebra=doc.algebra is not None,
        coalgebra=doc.coalgebra is not None,
        coaction=doc.coaction is not None,
    )
    report = SuiteReport("galois")
    if not _gate(report, "galois.algebra", doc.algebra.checks):
        return report
    x = doc.comodule_algebra
    _add_validation(report, "galois.comodule", x.comodule_checks)
    if not x.comodule_checks.ok:
        report.skip("galois.certificate", "coalgebra-Galois certificate", "coaction axioms fail")
        return report
    cert = galois_check(x)
    report.add(
        "galois.coinvariants",
        "coinvariants form a unital subalgebra",
        True,
        subspace_detail(doc.field, cert.coinvariants),
    )
    _add_validation(report, "galois", cert.checks)
    detail = {"rank": cert.rank, "can": matrix_detail(doc.field, cert.can)}
    if cert.witness is not None:
        detail["witness"] = vector_detail(doc.field, cert.witness)
    if cert.is_galois:
        detail["translation"] = matrix_detail(doc.field, cert.translation)
        detail["psi"] = matrix_detail(doc.field, cert.psi.psi)
    report.add("galois.verdict", "the extension is coalgebra-Galois", cert.is_galois, detail)
    _add_uniqueness(report, "galois", entwining_uniqueness(cert))
    seq = differential_sequence(cert)
    report.add(
        "galois.differential-sequence",
        "the universal-calculus sequence is exact iff the extension is Galois",
        seq.agrees_with_galois,
        {
            "exact": seq.exact,
            "forms_dim": seq.universal_forms.dim,
            "horizontal_dim": seq.horizontal_forms.dim,
            "target_dim": seq.augmented_target.dim,
        },
    )
    hopf = doc.hopf
    if hopf is not None:
        algebra_map = coaction_algebra_map_checks(x, hopf.algebra)
        classical = classical_coinvariants_agree(cert, algebra_map)
        if classical.applicable:
            report.add(
                "galois.classical-coinvariants",
                "general coinvariants match the fixed-point coinvariants",
                bool(classical.agrees),
            )
        else:
            report.skip("galois.classical-coinvariants", "general coinvariants match the fixed-point coinvariants", classical.note)
        try:
            left = left_canonical_check(hopf, cert, algebra_map)
            report.add(
                "galois.left-canonical",
                "psi composed with the left canonical map equals the canonical map",
                left.ok,
            )
        except (AxiomViolation, NotInvertibleError) as exc:
            report.skip("galois.left-canonical", "psi composed with the left canonical map equals the canonical map", str(exc))
    if cert.is_galois and doc.grouplikes:
        for name, coords in doc.grouplikes:
            bundle = bundle_check(cert, GroupLike(doc.coalgebra, coords))
            report.add(
                f"galois.bundle.{name}",
                "the canonical map of the bundle at this group-like is bijective",
                bundle.is_bundle,
                {"invariants_dim": bundle.invariants.dim, "rank": bundle.rank},
            )
            eq = bundle_coaction_equivalence(bundle)
            if eq.applicable:
                report.add(
                    f"galois.bundle-equivalence.{name}",
                    "bundle data and Galois data reproduce each other at this group-like",
                    eq.ok,
                )
            else:
                report.skip(
                    f"galois.bundle-equivalence.{name}",
                    "bundle data and Galois data reproduce each other at this group-like",
                    eq.note,
                )
    return report


def run_cogalois(doc: StructureDocument) -> SuiteReport:
    _require(
        doc,
        "cogalois",
        coalgebra=doc.coalgebra is not None,
        algebra=doc.algebra is not None,
        action=doc.action is not None,
    )
    report = SuiteReport("cogalois")
    if not _gate(report, "cogalois.coalgebra", doc.coalgebra.checks):
        return report
    x = doc.module_coalgebra
    _add_validation(report, "cogalois.module", x.module_checks)
    if not x.module_checks.ok:
        report.skip("cogalois.certificate", "algebra-Galois coextension certificate", "action axioms fail")
        return report
    cert = coextension_check(x)
    report.add(
        "cogalois.coideal",
        "the canonical subspace is a coideal",
        True,
        subspace_detail(doc.field, cert.coideal),
    )
    hopf = doc.hopf
    if hopf is not None:
        # hopf_coideal refuses an action that is not a coalgebra map
        try:
            module_form = hopf_coideal(x, hopf.algebra, hopf.coalgebra)
        except AxiomViolation:
            report.skip(
                "cogalois.coideal-module-form",
                "the coalgebra-map coideal span{act(c,h) - counit(h) c} agrees",
                "action is not a coalgebra map",
            )
        else:
            report.add(
                "cogalois.coideal-module-form",
                "the coalgebra-map coideal span{act(c,h) - counit(h) c} agrees",
                module_form == cert.coideal,
            )
    _add_validation(report, "cogalois", cert.checks)
    detail = {
        "rank": cert.rank,
        "cotensor_dim": cert.cotensor.dim,
        "base_dim": cert.base_dim,
        "cocan": matrix_detail(doc.field, cert.cocan),
    }
    if cert.witness is not None:
        detail["witness"] = vector_detail(doc.field, cert.witness)
    if cert.is_coextension:
        detail["cotranslation"] = matrix_detail(doc.field, cert.cotranslation)
        detail["psi"] = matrix_detail(doc.field, cert.psi.psi)
    report.add("cogalois.verdict", "the coextension is algebra-Galois", cert.is_coextension, detail)
    _add_uniqueness(report, "cogalois", dual_uniqueness(cert))
    if cert.is_coextension and doc.characters:
        for name, coords in doc.characters:
            # the bundle of x* at kappa; its invariants annihilate the coideal
            bundle = dual_bundle_check(cert, Character(doc.algebra, coords))
            report.add(
                f"cogalois.dual-bundle.{name}",
                "the canonical map of the dual bundle at this character is bijective",
                bundle.is_bundle,
                {"coideal_dim": doc.coalgebra.dim - bundle.invariants.dim, "rank": bundle.rank},
            )
            eq = bundle_coaction_equivalence(bundle)
            if eq.applicable:
                report.add(
                    f"cogalois.dual-bundle-equivalence.{name}",
                    "dual bundle data and coextension data reproduce each other at this character",
                    eq.ok,
                )
            else:
                report.skip(
                    f"cogalois.dual-bundle-equivalence.{name}",
                    "dual bundle data and coextension data reproduce each other at this character",
                    "induced map is not an action" if bundle.is_bundle else "not a dual bundle: the canonical map is not bijective",
                )
    return report


def run_cogenerate(doc: StructureDocument, cutoff: int | None = None) -> SuiteReport:
    _require(doc, "cogenerate", coalgebra=doc.coalgebra is not None)
    if len(doc.coideals) < 2:
        raise MissingSection("coideals (two are needed)", "cogenerate")
    report = SuiteReport("cogenerate")
    if not _gate(report, "cogenerate.coalgebra", doc.coalgebra.checks):
        return report
    quotients = []
    for (name, _), sub in zip(doc.coideals, doc.coideal_subspaces()):
        ok = True
        try:
            quotients.append(quotient_coalgebra(doc.coalgebra, sub))
        except NotCoideal:
            ok = False
        report.add(f"cogenerate.coideal.{name}", "the subspace is a coideal", ok, subspace_detail(doc.field, sub))
        if not ok:
            return report
    result = cogeneration_check(doc.coalgebra, quotients[0], quotients[1], cutoff)
    profile = [k.dim for k in result.kernels_by_length]
    report.add(
        "cogenerate.kernel-profile",
        "per-length chain kernels decrease weakly",
        all(a >= b for a, b in zip(profile, profile[1:])),
        {"profile": profile, "verdict": result.verdict, "cutoff": result.cutoff},
    )
    if doc.coaction is not None and doc.algebra is not None:
        x = doc.comodule_algebra
        if not _gate(report, "cogenerate.comodule", x.comodule_checks):
            return report
        pr = coinvariant_intersection_check(x, result)
        report.add(
            "cogenerate.coinvariant-inclusion",
            "coinvariants over C lie in the intersection of the quotient coinvariants",
            pr.inclusion_holds,
            {
                "full_dim": pr.full_coinvariants.dim,
                "intersection_dim": pr.intersection.dim,
            },
        )
        if pr.cogeneration.verdict == COGENERATES:
            report.add(
                "cogenerate.coinvariant-equality",
                "cogenerating quotients give equality of coinvariants",
                pr.equality_holds,
            )
        else:
            report.skip(
                "cogenerate.coinvariant-equality",
                "cogenerating quotients give equality of coinvariants",
                pr.note,
            )
    return report


def run_suite(doc: StructureDocument, suite: str, cutoff: int | None = None) -> SuiteReport:
    if suite == "structures":
        return run_structures(doc)
    if suite == "entwining":
        return run_entwining(doc)
    if suite == "galois":
        return run_galois(doc)
    if suite == "cogalois":
        return run_cogalois(doc)
    if suite == "cogenerate":
        return run_cogenerate(doc, cutoff)
    if suite == "all":
        report = SuiteReport("all")
        report.extend(run_structures(doc))
        if doc.psi is not None:
            report.extend(run_entwining(doc))
        if doc.coaction is not None and doc.algebra is not None and doc.coalgebra is not None:
            report.extend(run_galois(doc))
        if doc.action is not None and doc.algebra is not None and doc.coalgebra is not None:
            report.extend(run_cogalois(doc))
        if doc.coalgebra is not None and len(doc.coideals) >= 2:
            report.extend(run_cogenerate(doc, cutoff))
        return report
    raise EntwineError(f"unknown suite {suite!r}; choose from {SUITES}")
