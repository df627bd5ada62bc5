from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracles as dense
from support import field_algebra, field_coalgebra
from entwine.catalogue import (
    dual_group_algebra,
    group_algebra,
    quadratic_field_extension,
    self_extension,
    sweedler_hopf_algebra,
)
from entwine.entwining import EntwiningStructure, flip_entwining, hopf_entwining, validate_entwining
from entwine.errors import IllDefined, NotGalois, NotGroupLike, NotSubalgebra
from entwine.exactlin import Matrix, Subspace, kron, column_matrix
from entwine.fields import GF, QQ
from entwine.galois import (
    _descend,
    _subalgebra_failure,
    balanced_tensor,
    bundle_check,
    bundle_coaction_equivalence,
    canonical_entwining,
    coaction_forced_by_unit,
    classical_coinvariants_agree,
    coinvariant_system,
    coinvariants,
    differential_sequence,
    entwining_uniqueness,
    galois_check,
    left_canonical_check,
)
from entwine.structures import (
    ComoduleAlgebra,
    coaction_algebra_map_checks,
    GroupLike,
    transport_algebra,
    transport_coalgebra,
)
from test_coinvariant_system import CATALOGUE
from test_coinvariant_system import _comodule_algebra as catalogue_comodule_algebra

GF7 = GF(7)


def coinvariants_of(x):
    """The coinvariants of a comodule algebra, from its one coinvariant system."""
    return coinvariants(x.algebra, coinvariant_system(x))


def trivial_comodule_algebra(coalgebra, grouplike_coords):
    """A = k with coaction 1 |-> 1 (x) e."""
    a = field_algebra(coalgebra.field)
    coaction = column_matrix(grouplike_coords, coalgebra.field)
    return ComoduleAlgebra(a, coalgebra, coaction)


class TestCoinvariants:
    def test_z2_self_extension(self, z2_self_extension):
        sub = coinvariants_of(z2_self_extension)
        assert sub.dim == 1
        assert sub.basis == ((Fraction(1), Fraction(0)),)

    def test_trivial_coaction_gives_everything(self, z2_hopf):
        # coaction a |-> a (x) e with e group-like fixes every element
        a = z2_hopf.algebra
        e = column_matrix((0, 1), QQ)
        x = ComoduleAlgebra(a, z2_hopf.coalgebra, kron(a.identity_matrix, e))
        assert coinvariants_of(x) == Subspace.full(2, QQ)

    def test_quadratic_extension(self, quadratic):
        sub = coinvariants_of(quadratic)
        assert sub.dim == 1 and sub.basis == ((Fraction(1), Fraction(0)),)

    def test_classical_comparison_on_self_extension(self, z2_hopf, z2_self_extension):
        report = classical_coinvariants_agree(
            galois_check(z2_self_extension), coaction_algebra_map_checks(z2_self_extension, z2_hopf.algebra)
        )
        assert report.applicable and report.agrees
        assert report.grouplike == (Fraction(1), Fraction(0))  # coaction(1) = 1 (x) 1

    def test_classical_comparison_on_quadratic(self, quadratic):
        dual = dual_group_algebra({"group": "Z2"})
        report = classical_coinvariants_agree(galois_check(quadratic), coaction_algebra_map_checks(quadratic, dual.algebra))
        assert report.applicable and report.agrees
        assert report.grouplike == (Fraction(1), Fraction(1))  # unit of the dual algebra

    def test_classical_comparison_trivial_coaction(self, z2_hopf):
        # a |-> a (x) g: a comodule whose coacting space needs no product;
        # the comparison applies on the normalized-unit condition alone.
        a = z2_hopf.algebra
        e = column_matrix((0, 1), QQ)
        x = ComoduleAlgebra(a, z2_hopf.coalgebra, kron(a.identity_matrix, e))
        report = classical_coinvariants_agree(galois_check(x))
        assert report.applicable and report.agrees
        assert report.grouplike == (Fraction(0), Fraction(1))
        assert coinvariants_of(x) == Subspace.full(2, QQ)

    def test_classical_gated_when_coaction_not_algebra_map(self, z2_hopf):
        # the same coaction fails multiplicativity against the group product
        # (g.g = 1, not g), so supplying the Hopf structure gates the check
        a = z2_hopf.algebra
        e = column_matrix((0, 1), QQ)
        x = ComoduleAlgebra(a, z2_hopf.coalgebra, kron(a.identity_matrix, e))
        report = classical_coinvariants_agree(galois_check(x), coaction_algebra_map_checks(x, z2_hopf.algebra))
        assert not report.applicable
        assert "not an algebra map" in report.note


class TestBalancedTensor:
    def test_trivial_subalgebra(self, z2_self_extension):
        pres = balanced_tensor(z2_self_extension, Subspace.from_spanning([[1, 0]], 2, QQ))
        assert pres.quotient_dim == 4 and pres.relations.dim == 0

    def test_full_subalgebra(self, z2_self_extension):
        pres = balanced_tensor(z2_self_extension, Subspace.full(2, QQ))
        assert pres.quotient_dim == 2  # A (x)_A A = A

    def test_quadratic_over_rationals(self, quadratic):
        pres = balanced_tensor(quadratic, Subspace.from_spanning([[1, 0]], 2, QQ))
        assert pres.quotient_dim == 4

    def test_not_subalgebra_rejected(self, z2_self_extension):
        with pytest.raises(NotSubalgebra, match="^balancing subspace does not contain the unit$"):
            balanced_tensor(z2_self_extension, Subspace.from_spanning([[0, 1]], 2, QQ))

    def test_unital_subspace_that_is_not_closed_rejected(self):
        # span{1, g} in k[Z3]: g . g = g^2 lies outside it
        x = self_extension(group_algebra({"group": "Z3"}, QQ))
        with pytest.raises(NotSubalgebra, match="^balancing subspace is not closed under multiplication$"):
            balanced_tensor(x, Subspace.from_spanning([[1, 0, 0], [0, 1, 0]], 3, QQ))

    def test_descending_a_map_that_does_not_vanish_on_the_relations_fails(self, z2_self_extension):
        # over B = A the relations are nonzero, and the identity of A (x) A
        # does not vanish on them
        pres = balanced_tensor(z2_self_extension, Subspace.full(2, QQ))
        assert pres.relations.dim == 2
        with pytest.raises(IllDefined, match="^the identity does not vanish on the balancing relations$"):
            _descend(Matrix.identity(4, QQ), pres, "the identity")


class TestGaloisCheck:
    def test_z2_certificate(self, z2_hopf, z2_self_extension):
        cert = galois_check(z2_self_extension)
        assert cert.is_galois and cert.rank == 4
        assert cert.checks.ok
        # translation values: tau(1) = 1 (x) 1, tau(g) = g (x) g
        assert cert.translation.column(0) == (1, 0, 0, 0)
        assert cert.translation.column(1) == (0, 0, 0, 1)
        # canonical psi equals the Hopf-case formula entrywise
        assert cert.psi.psi == hopf_entwining(z2_hopf, z2_self_extension).psi

    def test_quadratic_is_galois(self, quadratic):
        cert = galois_check(quadratic)
        assert cert.is_galois and cert.rank == 4
        assert cert.checks.ok
        assert validate_entwining(cert.psi).ok

    def test_sweedler_is_galois(self, sweedler, sweedler_self_extension):
        cert = galois_check(sweedler_self_extension)
        assert cert.is_galois and cert.rank == 16
        assert cert.checks.ok
        assert cert.psi.psi == hopf_entwining(sweedler, sweedler_self_extension).psi

    def test_non_galois_dimension_count(self, z2_hopf):
        x = trivial_comodule_algebra(z2_hopf.coalgebra, (1, 0))
        cert = galois_check(x)
        assert not cert.is_galois
        assert cert.rank == 1
        assert cert.witness is not None
        assert cert.psi is None and cert.translation is None

    def test_canonical_entwining_gated(self, z2_hopf):
        x = trivial_comodule_algebra(z2_hopf.coalgebra, (1, 0))
        with pytest.raises(NotGalois):
            canonical_entwining(galois_check(x))

    @pytest.mark.parametrize("p", [None, 7])
    @pytest.mark.parametrize("name,params", CATALOGUE)
    def test_psi_matches_the_wide_product_order(self, name, params, p):
        # can . (right action . (translation (x) A)), as canonical_entwining
        # multiplies it, against (can . right action) . (translation (x) A)
        cert = galois_check(catalogue_comodule_algebra(name, params if p is None else {**params, "p": p}))
        assert cert.is_galois
        assert cert.psi.psi == dense.psi_through_the_wide_product(cert)

    def test_psi_unit_columns(self, quadratic):
        cert = galois_check(quadratic)
        a, c = quadratic.algebra, quadratic.coalgebra
        for ci in range(c.dim):
            col = cert.psi.psi.column(ci * a.dim + 0)
            expected = [QQ.zero] * (a.dim * c.dim)
            for ai, v in enumerate(a.unit):
                expected[ai * c.dim + ci] = v
            assert list(col) == expected


class TestUniqueness:
    def test_z2(self, z2_self_extension):
        report = entwining_uniqueness(galois_check(z2_self_extension))
        assert report.applicable and report.unique
        assert report.solution_space_dim == 0 and report.psi_solves

    def test_quadratic(self, quadratic):
        report = entwining_uniqueness(galois_check(quadratic))
        assert report.unique and report.solution_space_dim == 0

    def test_gated_on_non_galois(self, z2_hopf):
        x = trivial_comodule_algebra(z2_hopf.coalgebra, (1, 0))
        report = entwining_uniqueness(galois_check(x))
        assert not report.applicable
        assert report.unique is None
        assert "not a Galois extension" in report.note


class TestDifferentialSequence:
    def test_z2_dimensions(self, z2_self_extension):
        report = differential_sequence(galois_check(z2_self_extension))
        assert report.exact and report.agrees_with_galois
        assert report.universal_forms.dim == 2
        assert report.augmented_target.dim == 2
        assert report.horizontal_forms.dim == 0

    def test_non_galois_not_exact(self, z2_hopf):
        x = trivial_comodule_algebra(z2_hopf.coalgebra, (1, 0))
        report = differential_sequence(galois_check(x))
        assert not report.exact and not report.galois
        assert report.agrees_with_galois
        assert not report.image_fills_target
        assert report.universal_forms.dim == 0 and report.augmented_target.dim == 1

    def test_quadratic_exact(self, quadratic):
        report = differential_sequence(galois_check(quadratic))
        assert report.exact and report.agrees_with_galois

    def test_full_coinvariant_instance_agrees(self, z2_hopf):
        # trivial coaction a |-> a (x) g: B = A, sequence exact iff Galois
        a = z2_hopf.algebra
        e = column_matrix((0, 1), QQ)
        x = ComoduleAlgebra(a, z2_hopf.coalgebra, kron(a.identity_matrix, e))
        report = differential_sequence(galois_check(x))
        assert report.agrees_with_galois

    def test_sweedler_agrees(self, sweedler_self_extension):
        report = differential_sequence(galois_check(sweedler_self_extension))
        assert report.exact and report.agrees_with_galois


class TestBundles:
    def test_z2_unit_bundle(self, z2_hopf, z2_self_extension):
        psi = hopf_entwining(z2_hopf, z2_self_extension)
        report = bundle_check(psi, GroupLike(z2_hopf.coalgebra, (1, 0)))
        assert report.is_bundle
        assert report.invariants.dim == 1
        assert report.invariants.basis == ((Fraction(1), Fraction(0)),)

    def test_sweedler_unit_bundle(self, sweedler, sweedler_self_extension):
        psi = hopf_entwining(sweedler, sweedler_self_extension)
        report = bundle_check(psi, GroupLike(sweedler.coalgebra, (1, 0, 0, 0)))
        assert report.is_bundle and report.invariants.dim == 1

    def test_flip_bundle_dimension_count(self, z2_hopf):
        e = flip_entwining(z2_hopf.algebra, z2_hopf.coalgebra)
        report = bundle_check(e, GroupLike(z2_hopf.coalgebra, (1, 0)))
        # flip fixes everything, so B = A and A (x)_A A has dim 2 < dim A (x) C = 4
        assert report.invariants == Subspace.full(2, QQ)
        assert not report.is_bundle
        assert report.certificate.balanced.quotient_dim == 2

    def test_flip_bundle_trivial_coalgebra(self, z2_hopf):
        e = flip_entwining(z2_hopf.algebra, field_coalgebra(QQ))
        report = bundle_check(e, GroupLike(field_coalgebra(QQ), (1,)))
        assert report.is_bundle  # dim C = 1 makes A (x)_A A = A = A (x) C

    def test_rejects_non_grouplike(self, z2_hopf, z2_self_extension):
        psi = hopf_entwining(z2_hopf, z2_self_extension)
        with pytest.raises(NotGroupLike):
            bundle_check(psi, GroupLike(z2_hopf.coalgebra, (1, 1)))


class TestBundleEquivalence:
    def test_z2_round_trip(self, z2_hopf, z2_self_extension):
        psi = hopf_entwining(z2_hopf, z2_self_extension)
        report = bundle_coaction_equivalence(bundle_check(psi, GroupLike(z2_hopf.coalgebra, (1, 0))))
        assert report.applicable and report.ok
        assert report.coaction == z2_self_extension.coaction  # reproduced bit-exactly
        assert report.certificate.psi.psi == psi.psi

    def test_sweedler_round_trip(self, sweedler, sweedler_self_extension):
        psi = hopf_entwining(sweedler, sweedler_self_extension)
        report = bundle_coaction_equivalence(bundle_check(psi, GroupLike(sweedler.coalgebra, (1, 0, 0, 0))))
        assert report.ok
        assert report.coaction == sweedler_self_extension.coaction

    def test_gated_when_not_bundle(self, z2_hopf):
        e = flip_entwining(z2_hopf.algebra, z2_hopf.coalgebra)
        report = bundle_coaction_equivalence(bundle_check(e, GroupLike(z2_hopf.coalgebra, (1, 0))))
        assert not report.applicable
        assert "not a bundle" in report.note

    def test_forced_clause_reads_psi(self, z2_hopf, z2_self_extension):
        # rho(a) = (m (x) C)(A (x) psi)(rho(1) (x) a) holds for the certificate's psi ...
        psi = galois_check(z2_self_extension).psi
        assert coaction_forced_by_unit(z2_self_extension.coaction, psi)
        # ... and fails once psi(1 (x) 1), which rho(1) = 1 (x) 1 reaches, is perturbed
        rows = [list(r) for r in psi.psi.entries]
        rows[0][0] += 1
        perturbed = EntwiningStructure(psi.algebra, psi.coalgebra, Matrix.from_rows(rows, QQ))
        assert not coaction_forced_by_unit(z2_self_extension.coaction, perturbed)

    def test_verdict_reads_the_certificate_checks(self, z2_hopf, z2_self_extension):
        psi = hopf_entwining(z2_hopf, z2_self_extension)
        report = bundle_coaction_equivalence(bundle_check(psi, GroupLike(z2_hopf.coalgebra, (1, 0))))
        assert report.ok
        cert = report.certificate
        first, *rest = cert.checks.checks
        broken = replace(cert.checks, checks=(replace(first, ok=False), *rest))
        assert not replace(report, certificate=replace(cert, checks=broken)).ok


class TestLeftCanonical:
    def test_z2(self, z2_hopf, z2_self_extension):
        report = left_canonical_check(
            z2_hopf, galois_check(z2_self_extension), coaction_algebra_map_checks(z2_self_extension, z2_hopf.algebra)
        )
        assert report.composite_matches and report.left_bijective

    def test_sweedler_16_by_16(self, sweedler, sweedler_self_extension):
        report = left_canonical_check(
            sweedler,
            galois_check(sweedler_self_extension),
            coaction_algebra_map_checks(sweedler_self_extension, sweedler.algebra),
        )
        assert report.can_left.rows == 16 and report.can_left.cols == 16
        assert report.composite_matches and report.left_bijective

    def test_trivial_coalgebra_collapses_to_multiplication(self):
        h = group_algebra({"group": "Z1"})
        x = self_extension(h)
        report = left_canonical_check(h, galois_check(x), coaction_algebra_map_checks(x, h.algebra))
        assert report.composite_matches and report.left_bijective


ALGEBRAS = (
    lambda field: group_algebra({"group": "Z4"}, field).algebra,
    lambda field: group_algebra({"group": "S3"}, field).algebra,
    lambda field: dual_group_algebra({"group": "S3"}, field).algebra,
    lambda field: sweedler_hopf_algebra(field).algebra,
    lambda field: quadratic_field_extension(-1, field).algebra,
)


def generated_subalgebra(a, vectors) -> Subspace:
    """The subalgebra generated by the vectors: the span with the unit,
    closed under products of its echelon basis."""
    sub = Subspace.from_spanning([a.unit, *vectors], a.dim, a.field)
    while True:
        products = [dense.multiply(a, u, v) for u in sub.basis for v in sub.basis]
        closed = Subspace.from_spanning([*sub.basis, *products], a.dim, a.field)
        if closed == sub:
            return sub
        sub = closed


@st.composite
def algebra_subspaces(draw):
    """(algebra, subspace, kind) over Q or GF(7): the span of up to three
    random vectors, that span with the unit, or the subalgebra it generates."""
    field = draw(st.sampled_from([QQ, GF7]))
    a = draw(st.sampled_from(ALGEBRAS))(field)
    vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=a.dim, max_size=a.dim), max_size=3))
    kind = draw(st.sampled_from(["span", "unital span", "generated"]))
    if kind == "generated":
        return a, generated_subalgebra(a, vectors), kind
    spanning = [a.unit, *vectors] if kind == "unital span" else vectors
    return a, Subspace.from_spanning(spanning, a.dim, field), kind


class TestSubalgebraTest:
    """_subalgebra_failure, the product of each pair of sparse echelon basis
    rows, against the pair loop over the dense echelon basis."""

    @settings(max_examples=150, deadline=None)
    @given(algebra_subspaces())
    def test_matches_the_pair_loop(self, case):
        a, sub, kind = case
        failure = _subalgebra_failure(a, sub)
        assert failure == dense.subalgebra_failure_by_pairs(a, sub)
        if kind == "generated":
            assert failure is None

    @pytest.mark.parametrize("field", [QQ, GF7])
    def test_each_verdict(self, field):
        a = group_algebra({"group": "S3"}, field).algebra
        g = [0, 0, 0, 0, 1, 0]  # (123), whose square (132) is not in span{1, g}
        cases = (
            (Subspace.from_spanning([g], 6, field), "does not contain the unit"),
            (Subspace.from_spanning([a.unit, g], 6, field), "is not closed under multiplication"),
            (generated_subalgebra(a, [g]), None),
            (Subspace.full(6, field), None),
        )
        for sub, verdict in cases:
            assert _subalgebra_failure(a, sub) == dense.subalgebra_failure_by_pairs(a, sub) == verdict
        # with a zero unit (not an algebra) every line holds the unit, and
        # the line of g is no subalgebra
        zero_unit, line = replace(a, unit=(field.zero,) * 6), Subspace.from_spanning([g], 6, field)
        assert _subalgebra_failure(zero_unit, line) == dense.subalgebra_failure_by_pairs(zero_unit, line)
        assert _subalgebra_failure(zero_unit, line) == "is not closed under multiplication"


class TestCoinvariantProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["Z1", "Z2", "Z3"]),
        st.lists(st.integers(0, 6), min_size=9, max_size=9),
    )
    def test_random_transports_keep_subalgebra_property(self, group, entries):
        h = group_algebra({"group": group}, GF7)
        x = self_extension(h)
        dim = h.dim
        t = Matrix.from_rows([entries[i * dim : (i + 1) * dim] for i in range(dim)], GF7)
        from dense_oracles import NotInvertible, try_invert

        if isinstance(try_invert(t), NotInvertible):
            t = Matrix.identity(dim, GF7)
        tinv = try_invert(t)
        algebra = transport_algebra(h.algebra, t)
        coalgebra = transport_coalgebra(h.coalgebra, t)
        coaction = kron(tinv, tinv) @ h.coalgebra.comult_matrix @ t
        moved = ComoduleAlgebra(algebra, coalgebra, coaction)
        sub = coinvariants_of(moved)  # raises InternalCheckError if not unital/closed
        assert sub.contains_vector(algebra.unit)

    def test_gf7_galois_pipeline(self):
        h = group_algebra({"group": "Z3"}, GF7)
        cert = galois_check(self_extension(h))
        assert cert.is_galois and cert.checks.ok
        assert entwining_uniqueness(cert).unique
