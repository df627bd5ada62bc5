"""A bundle is the certificate of its induced (co)action.

bundle_check certifies a |-> psi(e (x) a) over the fixed invariants, and
dual_bundle_check is bundle_check of the dual at a character kappa, whose
coaction is the transposed action (kappa (x) C)psi and whose invariants
annihilate the induced coideal.  Whenever those equal the coinvariants of
the carrier (resp. the coinvariants of the carrier's dual), the bundle
certificate must equal the one galois_check (resp. the dual certificate
coextension_check) builds for the carrier from scratch, which is the oracle.

Given the extension's certificate in place of its psi, a bundle whose
carrier and invariants equal the extension's (resp. its dual's) is that
certificate, and a carrier whose canonical psi equals the given psi has that
psi, with its cached report; both must agree with the oracle, on the
catalogue bases and on random GF(7) bases.  Every cached report equals a
fresh call of its validator, and the module report the direct form of the
module axioms.
"""

import random

import pytest

from dense_oracles import NotInvertible, module_axioms_on_the_action, try_invert
import entwine.galois as galois
from entwine.catalogue import build, group_algebra, group_self_coextension, self_extension, sweedler_hopf_algebra
from entwine.cogalois import _annihilator, coextension_check, dual_bundle_check
from entwine.docformat import document_from_example
from entwine.entwining import (
    EntwiningStructure,
    flip_entwining,
    psi_to_structure_maps,
    validate_entwining,
    validate_structure_maps,
)
from entwine.errors import NotGalois
from entwine.exactlin import Matrix, column_matrix, kron
from entwine.fields import GF, QQ
from entwine.galois import bundle_check, coinvariant_system, coinvariants, galois_check
from entwine.structures import (
    Character,
    ComoduleAlgebra,
    GroupLike,
    ModuleCoalgebra,
    ValidationReport,
    transport_algebra,
    transport_coalgebra,
    validate_algebra,
    validate_coalgebra,
    validate_comodule,
    validate_module,
)
from subgroup_coextensions import subgroup_coextension
from support import canonical_coideal

GF7 = GF(7)

# the catalogue variants of scripts/verify_catalogue.py that carry group-likes or characters
VARIANTS = [
    ("group-algebra", {}),
    ("group-algebra", {"group": "Z3"}),
    ("group-algebra", {"group": "Z4"}),
    ("group-algebra", {"group": "S3"}),
    ("group-algebra", {"group": "Z3", "p": 7}),
    ("dual-group-algebra", {}),
    ("dual-group-algebra", {"group": "S3"}),
    ("sweedler-h4", {}),
    ("sweedler-h4", {"p": 5}),
    ("trivial-hopf-galois", {}),
    ("trivial-hopf-galois", {"group": "Z3"}),
    ("trivial-hopf-galois", {"group": "Z4"}),
    ("quadratic-field-extension", {"d": 2}),
    ("quadratic-field-extension", {"d": 3}),
    ("quadratic-field-extension", {"d": -1}),
    ("group-coextension", {}),
    ("group-coextension", {"group": "Z3"}),
]
WITH_GROUPLIKES = [v for v in VARIANTS if v[0] != "group-coextension"]
WITH_CHARACTERS = [v for v in VARIANTS if v[0] != "quadratic-field-extension"]
# the native-Q variants of dimension <= 4, moved to GF(7): S3 on a random basis
# has almost no zero entries and takes tens of seconds per certificate
TRANSPORTED = [v for v in VARIANTS if "p" not in v[1] and v[1].get("group") != "S3"]


def coinvariants_of(x):
    """The coinvariants of a comodule algebra, from its one coinvariant system."""
    return coinvariants(x.algebra, coinvariant_system(x))


def _assert_bundle_is_galois_certificate(bundle):
    carrier = bundle.certificate.subject
    assert coinvariants_of(carrier) == bundle.invariants
    assert bundle.certificate == galois_check(carrier)


@pytest.mark.parametrize("name,params", WITH_GROUPLIKES)
def test_bundle_certificate_matches_galois_check(name, params):
    structures = build(name, params).structures
    x = structures.get("comodule_algebra") or self_extension(structures["hopf"])
    psi = galois_check(x).psi
    for grouplike in structures["grouplikes"]:
        _assert_bundle_is_galois_certificate(bundle_check(psi, grouplike))


@pytest.mark.parametrize("algebra", ["Z2", "Z3"])
@pytest.mark.parametrize("coalgebra", ["Z2", "Z3"])
def test_flip_bundle_certificate_matches_galois_check(algebra, coalgebra):
    a = group_algebra({"group": algebra}).algebra
    c = group_algebra({"group": coalgebra}).coalgebra
    e = flip_entwining(a, c)
    for j in range(c.dim):
        grouplike = GroupLike(c, tuple(c.field.one if i == j else c.field.zero for i in range(c.dim)))
        bundle = bundle_check(e, grouplike)
        assert not bundle.is_bundle
        _assert_bundle_is_galois_certificate(bundle)


@pytest.mark.parametrize("name,params", WITH_CHARACTERS)
def test_dual_bundle_certificate_matches_coextension_check(name, params):
    structures = build(name, params).structures
    x = structures.get("module_coalgebra") or group_self_coextension(structures["hopf"])
    psi = coextension_check(x).psi
    for character in structures["characters"]:
        bundle = dual_bundle_check(psi, character)
        carrier = _action_of(x, bundle)
        assert canonical_coideal(carrier) == _annihilator(bundle.invariants)
        assert bundle.certificate == coextension_check(carrier).dual


def _action_of(x, bundle):
    """The module coalgebra on x's spaces whose dual is the bundle's carrier."""
    return ModuleCoalgebra(x.coalgebra, x.algebra, bundle.certificate.subject.coaction.transpose())


def _random_basis(n, rng):
    """A seeded random invertible n x n matrix over GF(7) with its inverse."""
    while True:
        t = Matrix.from_rows([[rng.randrange(7) for _ in range(n)] for _ in range(n)], GF7)
        inverse = try_invert(t)
        if not isinstance(inverse, NotInvertible):
            return t, inverse


def _transported(name, params, seed):
    """The GF(7) instance with A and C on independent random bases: new
    coordinates are T^-1 times old, so a functional f becomes f T."""
    structures = build(name, {**params, "p": 7}).structures
    hopf = structures.get("hopf")
    x = structures.get("comodule_algebra") or (hopf and self_extension(hopf))
    y = structures.get("module_coalgebra") or (hopf and group_self_coextension(hopf))
    a, c = (x.algebra, x.coalgebra) if x else (y.algebra, y.coalgebra)
    rng = random.Random(f"{name}:{sorted(params.items())}:{seed}")
    ta, ta_inv = _random_basis(a.dim, rng)
    tc, tc_inv = _random_basis(c.dim, rng)
    a2, c2 = transport_algebra(a, ta), transport_coalgebra(c, tc)
    moved_x = x and ComoduleAlgebra(a2, c2, kron(ta_inv, tc_inv) @ x.coaction @ ta)
    moved_y = y and ModuleCoalgebra(c2, a2, tc_inv @ y.action @ kron(tc, ta))
    grouplikes = [GroupLike(c2, tc_inv.apply(g.coords)) for g in structures.get("grouplikes", ())]
    characters = [
        Character(a2, (Matrix.from_rows([k.coords], GF7) @ ta).entries[0]) for k in structures.get("characters", ())
    ]
    return moved_x, grouplikes, moved_y, characters


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name,params", [v for v in TRANSPORTED if v in WITH_GROUPLIKES])
def test_transported_bundles_reuse_the_extension_certificate(name, params, seed):
    x, grouplikes, _, _ = _transported(name, params, seed)
    cert = galois_check(x)
    assert cert.is_galois
    for grouplike in grouplikes:
        bundle = bundle_check(cert, grouplike)
        e_col = column_matrix(grouplike.coords, GF7)
        coaction = cert.psi.psi @ kron(e_col, x.algebra.identity_matrix)
        # the extension's certificate is reused exactly when the inputs equal its own
        reused = coaction == x.coaction and bundle.invariants == cert.coinvariants
        assert (bundle.certificate is cert) == reused
        assert bundle.certificate == galois_check(bundle.certificate.subject)
        assert bundle == bundle_check(cert.psi, grouplike)
        _assert_bundle_is_galois_certificate(bundle)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name,params", [v for v in TRANSPORTED if v in WITH_CHARACTERS])
def test_transported_dual_bundles_reuse_the_extension_certificate(name, params, seed):
    _, _, y, characters = _transported(name, params, seed)
    cert = coextension_check(y)
    assert cert.is_coextension
    for character in characters:
        bundle = dual_bundle_check(cert, character)
        kap = Matrix.from_rows([character.coords], GF7)
        action = kron(kap, y.coalgebra.identity_matrix) @ cert.psi.psi
        # the dual certificate is reused exactly when the inputs equal its own
        reused = action == y.action and _annihilator(bundle.invariants) == cert.coideal
        assert (bundle.certificate is cert.dual) == reused
        carrier = _action_of(y, bundle)
        assert carrier.action == action
        assert canonical_coideal(carrier) == _annihilator(bundle.invariants)
        assert bundle.certificate == coextension_check(carrier).dual
        assert bundle == dual_bundle_check(cert.psi, character)


def test_sweedler_g_bundle_gets_its_own_certificate():
    h = sweedler_hopf_algebra()
    x = self_extension(h)
    cert = galois_check(x)
    bundle = bundle_check(cert, GroupLike(h.coalgebra, (0, 1, 0, 0)))
    carrier = bundle.certificate.subject
    # a |-> psi(g (x) a) is not the coaction of x, so nothing is reused
    assert carrier != x
    assert bundle.certificate is not cert
    assert bundle.certificate == galois_check(carrier)
    # its canonical psi equals the given one, so it is that object
    assert bundle.certificate.psi is cert.psi


def test_bundle_needs_a_galois_certificate():
    h = group_algebra({"group": "Z2"})
    e = h.coalgebra.field.one, h.coalgebra.field.zero
    x = ComoduleAlgebra(h.algebra, h.coalgebra, kron(h.algebra.identity_matrix, column_matrix(e, h.coalgebra.field)))
    cert = galois_check(x)
    assert not cert.is_galois
    with pytest.raises(NotGalois):
        bundle_check(cert, GroupLike(h.coalgebra, e))


def _with_report(e, report):
    """e with ``report`` in place of its cached checks, to show which report a
    certificate reads."""
    vars(e)["checks"] = report
    return e


def test_canonical_psi_reads_a_known_report_only_when_equal():
    x = self_extension(group_algebra({"group": "Z2"}))
    cert = galois_check(x)
    stand_in = ValidationReport("stand-in", ())
    known = _with_report(EntwiningStructure(x.algebra, x.coalgebra, cert.psi.psi), stand_in)
    same = galois._certify(x, cert.coinvariants, known)
    assert same.psi is known
    assert same.checks.checks == tuple(c for c in cert.checks.checks if c not in cert.psi.checks.checks)
    flip = _with_report(flip_entwining(x.algebra, x.coalgebra), stand_in)
    assert flip != cert.psi
    fresh = galois._certify(x, cert.coinvariants, flip)
    assert fresh.psi is not flip
    assert fresh.psi.checks == validate_entwining(cert.psi)
    assert fresh == cert


def test_dual_bundle_psi_reads_a_known_report_only_when_equal():
    # at the sign character of k[Z2], the dual bundle of k[Z4] acted on by
    # k[Z2] has an action of its own, whose canonical psi is the given one
    y = subgroup_coextension("Z4", "g2", QQ)
    sign = Character(y.algebra, (1, -1))
    cert = coextension_check(y)
    validated = dual_bundle_check(cert, sign).certificate
    assert validated is not cert.dual
    stand_in = ValidationReport("stand-in", ())
    known = _with_report(cert.dual.psi, stand_in)
    same = dual_bundle_check(cert, sign).certificate
    assert same.psi is known
    assert same.checks.checks == tuple(c for c in validated.checks.checks if c not in validate_entwining(known).checks)
    carrier = same.subject
    flip = _with_report(flip_entwining(carrier.algebra, carrier.coalgebra), stand_in)
    assert flip != known
    fresh = galois._certify(carrier, same.coinvariants, flip)
    assert fresh.psi is not flip
    assert fresh.psi.checks == validate_entwining(known)
    assert fresh == validated


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize(
    "name,params", [v for v in VARIANTS if "p" not in v[1]] + [("coset-coideal", {"group": "S3"}), ("flip-entwining", {})]
)
def test_cached_reports_equal_fresh_validation(name, params, p):
    doc = document_from_example(build(name, {**params, "p": p}))
    assert doc.algebra.checks == validate_algebra(doc.algebra)
    assert doc.coalgebra.checks == validate_coalgebra(doc.coalgebra)
    entwinings = []
    if doc.comodule_algebra is not None:
        x = doc.comodule_algebra
        assert x.comodule_checks == validate_comodule(x.comodule)
        entwinings.append(galois_check(x).psi)
    if doc.module_coalgebra is not None:
        y = doc.module_coalgebra
        assert y.module_checks == validate_module(y.module) == module_axioms_on_the_action(y.module)
        entwinings.append(coextension_check(y).psi)
    if doc.entwining is not None:
        entwinings.append(doc.entwining)
    for e in entwinings:
        assert e.checks == validate_entwining(e)
        pair = psi_to_structure_maps(e)
        assert pair.checks == validate_structure_maps(pair)
