"""A bundle is the certificate of its induced (co)action.

bundle_check certifies a |-> psi(e (x) a) over the fixed invariants, and
dual_bundle_check certifies (kappa (x) C)psi over the induced coideal.
Whenever those equal the coinvariants (resp. the canonical coideal) of the
carrier, the bundle certificate must equal the one galois_check (resp.
coextension_check) builds for the carrier from scratch, which is the oracle.
"""

import pytest

from entwine.catalogue import build, group_algebra, group_self_coextension, self_extension
from entwine.cogalois import canonical_coideal, coextension_check, dual_bundle_check
from entwine.entwining import flip_entwining
from entwine.galois import _raw_canonical_map, bundle_check, coinvariant_system, coinvariants, galois_check
from entwine.structures import GroupLike

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


def coinvariants_of(x):
    """The coinvariants of a comodule algebra, from its one coinvariant system."""
    return coinvariants(x.algebra, coinvariant_system(x, _raw_canonical_map(x)))


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
        carrier = bundle.certificate.subject
        assert canonical_coideal(carrier) == bundle.coideal
        assert bundle.certificate == coextension_check(carrier)
