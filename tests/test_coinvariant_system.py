"""One coinvariant system per comodule algebra.

galois.coinvariants reads the coinvariants off the kernel of one system,
D = coaction . m - (m (x) C)(A (x) coaction), and a quotient pi: C -> B
reuses it as (A (x) pi) . D.  The oracle is the per-basis-vector loop it
replaced, ``dense_oracles.coinvariants_by_basis``, which builds one block
per basis vector of A from scratch.  The quotient systems of the 34 coset
pairs are tested in test_cogenerate.py.

The relations of A (x)_B A are checked against the per-b block loop they
replaced, ``dense_oracles.balanced_relations_by_blocks``, over the
catalogue's coinvariants, over B = k.1 and over B = A, and on k[Z4] and
k[S3] coacting on themselves by a |-> a (x) 1, whose coinvariants are A.

The horizontal forms A(dB)A over those coinvariants B are checked against
``dense_oracles.horizontal_forms_by_triple_loop`` on the same instances, where
Omega_B = 0, and on k[G] coacting through a quotient by a coset coideal,
where B is a proper subalgebra with Omega_B != 0 (its relations are checked
against the block loop there as well), and on the trivial
coactions, where B = A and A(dB)A is all of Omega_A; Omega_B is cut from
B (x) B spanned one Kronecker product at a time, and the target A (x) C+
is checked against ``dense_oracles.augmented_target_by_vectors``.

The whole differential sequence report, whose horizontal forms are the
relations of A (x)_B A and whose restriction kernel is one kernel on
Omega_A, is checked field by field against the route through Omega_B that it
replaced, ``dense_oracles.differential_sequence_by_ideals``, on every golden
document the galois suite certifies and on the quotient and trivial
coactions.  On every golden Hopf document, and on the non-Galois k[Z4]
coacting by a |-> a (x) 1, the left canonical map's bijectivity, read off the
certificate when psi . can_L = can and can is invertible, is checked against
its elimination.  On every golden Galois document, the translation map,
which the certificate solves for in the elimination of [can | kron(unit,
I_C)], is can^-1 kron(unit, I_C) with can^-1 from the whole augmented
system [can | I].
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracles as dense
from entwine.catalogue import build, coset_coideal, group_algebra, self_extension, sweedler_hopf_algebra
from entwine.cogalois import quotient_coalgebra
from entwine.errors import AxiomViolation, NotInvertibleError
from entwine.exactlin import Matrix, Subspace, column_matrix, decide_bijection, intersect, kernel, kron
from entwine.fields import GF, QQ
from entwine.galois import (
    _stacked_system,
    balanced_tensor,
    coinvariant_system,
    coinvariants,
    differential_sequence,
    galois_check,
    left_canonical_check,
)
from entwine.structures import ComoduleAlgebra, coaction_algebra_map_checks
from support import field_algebra
from test_golden_reports import _documents as golden_documents

GF7 = GF(7)

# every catalogue instance that carries a comodule algebra, or a Hopf algebra
# coacting on itself
CATALOGUE = [
    ("group-algebra", {"group": "Z2"}),
    ("group-algebra", {"group": "Z3"}),
    ("group-algebra", {"group": "Z4"}),
    ("group-algebra", {"group": "S3"}),
    ("dual-group-algebra", {"group": "Z2"}),
    ("dual-group-algebra", {"group": "S3"}),
    ("sweedler-h4", {}),
    ("trivial-hopf-galois", {"group": "Z2"}),
    ("trivial-hopf-galois", {"group": "Z3"}),
    ("trivial-hopf-galois", {"group": "Z4"}),
    ("quadratic-field-extension", {"d": 2}),
    ("quadratic-field-extension", {"d": 3}),
    ("quadratic-field-extension", {"d": -1}),
    ("coset-coideal", {"group": "S3"}),
    ("coset-coideal", {"group": "Z4"}),
]


def system(x):
    return coinvariant_system(x)


def _comodule_algebra(name, params):
    structures = build(name, params).structures
    return structures.get("comodule_algebra") or self_extension(structures["hopf"])


def _trivial_coaction(group, field):
    """k[G] coacting on itself by a |-> a (x) 1: an algebra map, not Galois,
    whose coinvariants are all of A."""
    h = group_algebra({"group": group}, field)
    n = h.dim
    coaction = Matrix.from_triples(n * n, n, ((a * n, a, 1) for a in range(n)), field)
    return ComoduleAlgebra(h.algebra, h.coalgebra, coaction)


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("name,params", CATALOGUE)
def test_catalogue_balanced_relations_match_the_per_b_blocks(name, params, p):
    x = _comodule_algebra(name, params if p is None else {**params, "p": p})
    a = x.algebra
    unit_line = Subspace.from_spanning([a.unit], a.dim, a.field)
    for sub in (x.coinvariants, unit_line, Subspace.full(a.dim, a.field)):
        assert balanced_tensor(x, sub).relations == dense.balanced_relations_by_blocks(a, sub)


@pytest.mark.parametrize("field", [QQ, GF7])
@pytest.mark.parametrize("group", ["Z4", "S3"])
def test_trivial_coaction_balances_over_all_of_a(group, field):
    x = _trivial_coaction(group, field)
    a = x.algebra
    assert x.coinvariants == Subspace.full(a.dim, field)
    presentation = balanced_tensor(x, x.coinvariants)
    assert presentation.relations == dense.balanced_relations_by_blocks(a, x.coinvariants)
    assert presentation.quotient_dim == a.dim  # A (x)_A A = A


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("name,params", CATALOGUE)
def test_catalogue_coinvariants_match_the_per_basis_blocks(name, params, p):
    x = _comodule_algebra(name, params if p is None else {**params, "p": p})
    assert coinvariants(x.algebra, system(x)) == dense.coinvariants_by_basis(x)


def _entry(rnd, field, density):
    if rnd.random() >= density:
        return 0
    if field.is_prime_field:
        return rnd.randrange(1, 7)
    return Fraction(rnd.choice([-2, -1, 1, 2, 3]), rnd.choice([1, 2]))


def _random_matrix(rnd, field, rows, cols, density):
    data = [[_entry(rnd, field, density) for _ in range(cols)] for _ in range(rows)]
    return Matrix(rows, cols, Matrix.from_rows(data, field).entries, field)


@st.composite
def random_coactions(draw):
    """An algebra and a coalgebra of dimension 1 to 4 with an arbitrary linear
    map A -> A (x) C, the zero map included, and a linear map pi: C -> B."""
    field = draw(st.sampled_from([QQ, GF7]))
    algebra = draw(st.sampled_from(["k", "Z2", "Z3", "H4"]))
    if algebra == "k":
        a = field_algebra(field)
    elif algebra == "H4":
        a = sweedler_hopf_algebra(field).algebra
    else:
        a = group_algebra({"group": algebra}, field).algebra
    c = group_algebra({"group": draw(st.sampled_from(["Z1", "Z2", "Z3", "Z4"]))}, field).coalgebra
    b = group_algebra({"group": draw(st.sampled_from(["Z1", "Z2", "Z3"]))}, field).coalgebra
    density = draw(st.sampled_from([0.5, 0.2, 1.0, 0.0]))
    rnd = draw(st.randoms(use_true_random=False))
    coaction = _random_matrix(rnd, field, a.dim * c.dim, a.dim, density)
    pi = _random_matrix(rnd, field, b.dim, c.dim, draw(st.sampled_from([0.5, 1.0, 0.0])))
    return ComoduleAlgebra(a, c, coaction), b, pi


@settings(max_examples=80, deadline=None)
@given(random_coactions())
def test_random_coactions_kernel_matches_the_per_basis_blocks(data):
    x, b, pi = data
    a = x.algebra
    d = system(x)
    assert kernel(_stacked_system(d, a.dim)) == dense.coinvariants_by_basis(x)
    pushed_x = ComoduleAlgebra(a, b, kron(a.identity_matrix, pi) @ x.coaction)
    pushed = kron(a.identity_matrix, pi) @ d
    assert pushed == system(pushed_x)
    assert kernel(_stacked_system(pushed, a.dim)) == dense.coinvariants_by_basis(pushed_x)


def _assert_horizontal_forms_match_the_triple_loop(x):
    cert = galois_check(x)
    report = differential_sequence(cert)
    field = x.algebra.field
    b = cert.coinvariants.basis
    squares = [kron(column_matrix(u, field), column_matrix(v, field)).column(0) for u in b for v in b]
    omega_b = intersect(Subspace.from_spanning(squares, x.algebra.dim**2, field), report.universal_forms)
    assert report.horizontal_forms == dense.horizontal_forms_by_triple_loop(x.algebra, omega_b)
    assert report.augmented_target == dense.augmented_target_by_vectors(x.algebra, x.coalgebra)
    return omega_b.dim


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("name,params", CATALOGUE)
def test_catalogue_horizontal_forms_match_the_triple_loop(name, params, p):
    _assert_horizontal_forms_match_the_triple_loop(_comodule_algebra(name, params if p is None else {**params, "p": p}))


def _quotient_coaction(group, generator, p):
    """k[G] coacting through its quotient by the coset coideal of
    <generator>; its coinvariants are k[<generator>]."""
    params = {"group": group} if p is None else {"group": group, "p": p}
    field = QQ if p is None else GF7
    h = group_algebra(params, field)
    base, pi = quotient_coalgebra(h.coalgebra, coset_coideal(params, generator, field))
    return ComoduleAlgebra(h.algebra, base, kron(h.algebra.identity_matrix, pi) @ h.coalgebra.comult_matrix)


QUOTIENT_COACTIONS = [("Z4", "g2"), ("Z4", "g"), ("S3", "(123)")]


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("group,generator", QUOTIENT_COACTIONS)
def test_quotient_coaction_balanced_relations_match_the_per_b_blocks(group, generator, p):
    x = _quotient_coaction(group, generator, p)
    b = x.coinvariants
    assert b.dim > 1
    assert balanced_tensor(x, b).relations == dense.balanced_relations_by_blocks(x.algebra, b)


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("group,generator", QUOTIENT_COACTIONS)
def test_quotient_coaction_horizontal_forms_match_the_triple_loop(group, generator, p):
    assert _assert_horizontal_forms_match_the_triple_loop(_quotient_coaction(group, generator, p)) > 0


@pytest.mark.parametrize("field", [QQ, GF7])
@pytest.mark.parametrize("group", ["Z4", "S3"])
def test_trivial_coaction_horizontal_forms_match_the_triple_loop(group, field):
    x = _trivial_coaction(group, field)
    assert _assert_horizontal_forms_match_the_triple_loop(x) == x.algebra.dim**2 - x.algebra.dim
    report = differential_sequence(galois_check(x))
    assert report.horizontal_forms == report.universal_forms and not report.exact


def _golden_galois_certificates():
    """(label, document, certificate) for every golden document whose galois
    suite reaches the certificate."""
    for label, doc in golden_documents():
        if doc.coaction is None or not doc.algebra.checks.ok:
            continue
        x = doc.comodule_algebra
        if x.comodule_checks.ok:
            yield label, doc, galois_check(x)


def test_golden_differential_sequences_match_the_ideal_route():
    verdicts = set()
    for label, _, cert in _golden_galois_certificates():
        assert differential_sequence(cert) == dense.differential_sequence_by_ideals(cert), label
        verdicts.add(cert.is_galois)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("group,generator", QUOTIENT_COACTIONS)
def test_quotient_coaction_differential_sequence_matches_the_ideal_route(group, generator, p):
    cert = galois_check(_quotient_coaction(group, generator, p))
    assert differential_sequence(cert) == dense.differential_sequence_by_ideals(cert)


@pytest.mark.parametrize("field", [QQ, GF7])
@pytest.mark.parametrize("group", ["Z4", "S3"])
def test_trivial_coaction_differential_sequence_matches_the_ideal_route(group, field):
    cert = galois_check(_trivial_coaction(group, field))
    assert differential_sequence(cert) == dense.differential_sequence_by_ideals(cert)


def test_golden_translation_is_the_inverse_on_one_tensor_c():
    galois = 0
    for label, _, cert in _golden_galois_certificates():
        if cert.is_galois:
            x = cert.subject
            inverse = dense.try_invert(cert.can)
            assert cert.translation == inverse @ kron(x.algebra.unit_matrix, x.coalgebra.identity_matrix), label
            galois += 1
    assert galois >= 10


def _assert_left_bijectivity_is_decided(h, cert):
    """left_canonical_check's verdict on can_L equals the elimination's; the
    report (or None when the check does not apply)."""
    try:
        left = left_canonical_check(h, cert, coaction_algebra_map_checks(cert.subject, h.algebra))
    except (AxiomViolation, NotInvertibleError):
        return None
    can_left = left.can_left
    decision = decide_bijection(can_left, Matrix.zero(can_left.rows, 0, can_left.field))
    assert left.left_bijective == (decision.solution is not None)
    return left


def test_golden_left_bijectivity_matches_the_elimination():
    deduced = 0
    for label, doc, cert in _golden_galois_certificates():
        if doc.hopf is not None:
            left = _assert_left_bijectivity_is_decided(doc.hopf, cert)
            deduced += left is not None and left.composite_matches and cert.is_galois
    assert deduced >= 10


@pytest.mark.parametrize("field", [QQ, GF7])
def test_non_galois_left_bijectivity_is_decided_by_elimination(field):
    # k[Z4] coacting on itself by a |-> a (x) 1: can is not invertible, so
    # the left inverse of can_L cannot be read off it
    cert = galois_check(_trivial_coaction("Z4", field))
    assert not cert.is_galois
    left = _assert_left_bijectivity_is_decided(group_algebra({"group": "Z4"}, field), cert)
    assert left is not None and not left.left_bijective
