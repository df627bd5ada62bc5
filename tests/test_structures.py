from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from dense_oracles import (
    character_by_products,
    comult_tensor,
    grouplike_by_products,
    module_axioms_on_the_action,
    mult_matrix_from_tensor,
    mult_tensor,
    multiply,
    swap_product_formed,
    validate_algebra_direct,
)
from support import field_algebra, field_coalgebra
from test_golden_reports import _documents as golden_documents
from entwine.catalogue import dual_group_algebra, group_algebra, sweedler_hopf_algebra
from entwine.errors import DimensionMismatch
from entwine.exactlin import Matrix, kron, row_matrix, try_invert
from entwine.fields import GF, QQ
from entwine.structures import (
    Character,
    FiniteAlgebra,
    FiniteCoalgebra,
    GroupLike,
    HopfAlgebra,
    RightComodule,
    RightModule,
    bialgebra_checks,
    coaction_algebra_map_checks,
    convolution,
    convolution_unit,
    dualize,
    transport_algebra,
    transport_coalgebra,
    validate_algebra,
    validate_coalgebra,
    validate_comodule,
    validate_hopf,
    validate_module,
    verify_character,
    verify_grouplike,
    residual_check,
)

GF7 = GF(7)

# Independent multiplication table for the 4-dim Hopf algebra on 1, g, x, gx,
# derived by hand from g^2 = 1, x^2 = 0, xg = -gx.  Entries: (i, j) -> {k: c}.
SWEEDLER_PRODUCTS = {
    (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
    (1, 0): {1: 1}, (1, 1): {0: 1}, (1, 2): {3: 1}, (1, 3): {2: 1},
    (2, 0): {2: 1}, (2, 1): {3: -1}, (2, 2): {}, (2, 3): {},
    (3, 0): {3: 1}, (3, 1): {2: -1}, (3, 2): {}, (3, 3): {},
}
# coproduct(e_i) as {(j, k): c}
SWEEDLER_COPRODUCT = {
    0: {(0, 0): 1},
    1: {(1, 1): 1},
    2: {(2, 0): 1, (1, 2): 1},
    3: {(3, 1): 1, (0, 3): 1},
}
SWEEDLER_COUNIT = {0: 1, 1: 1, 2: 0, 3: 0}
SWEEDLER_ANTIPODE = {0: {0: 1}, 1: {1: 1}, 2: {3: -1}, 3: {2: 1}}


def oracle_product(x: dict, y: dict) -> dict:
    out: dict = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in SWEEDLER_PRODUCTS[(i, j)].items():
                out[k] = out.get(k, 0) + a * b * c
    return {k: v for k, v in out.items() if v}


def oracle_antipode(x: dict) -> dict:
    out: dict = {}
    for i, a in x.items():
        for k, c in SWEEDLER_ANTIPODE[i].items():
            out[k] = out.get(k, 0) + a * c
    return {k: v for k, v in out.items() if v}


class TestAlgebraValidation:
    def test_group_algebra_passes(self, z2_hopf):
        assert validate_algebra(z2_hopf.algebra).ok

    def test_trivial_algebra(self):
        assert validate_algebra(field_algebra(QQ)).ok

    def test_bad_unit_caught(self, z2_hopf):
        a = z2_hopf.algebra
        broken = FiniteAlgebra(a.dim, a.basis_names, a.mult_matrix, (Fraction(0), Fraction(1)), a.field)
        report = validate_algebra(broken)
        assert not report.ok
        failing = {c.name for c in report.failures()}
        assert failing == {"left-unit", "right-unit"}
        assert any(not c.residual.is_zero for c in report.failures())

    def test_broken_associativity(self):
        # e1 e0 = 0 but e1 e1 = e0, so (e1 e1) e1 = e1 while e1 (e1 e1) = 0
        mult = [[[1, 0], [0, 1]], [[0, 0], [1, 0]]]
        a = FiniteAlgebra(2, ("1", "g"), mult_matrix_from_tensor(mult, QQ), (QQ.one, QQ.zero), QQ)
        report = validate_algebra(a)
        assert not report.ok
        assert "associativity" in {c.name for c in report.failures()}
        assert report == validate_algebra_direct(a)

    def test_every_catalogue_algebra_matches_the_direct_axioms(self):
        # validate_algebra reads the coalgebra axioms of A* = (A, m^T, unit),
        # transposed; the direct form states them on m, residual for residual
        seen = 0
        for _, doc in golden_documents():
            for a in (doc.algebra, doc.coalgebra and dualize(doc.coalgebra)):
                if a is not None:
                    assert validate_algebra(a) == validate_algebra_direct(a)
                    seen += 1
        assert seen >= 60

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_arbitrary_structure_constants_match_the_direct_axioms(self, data):
        # neither associative nor unital in general; with the unit e_0 acting
        # as one on both sides, the unit axioms pass and associativity need not
        field = data.draw(st.sampled_from([QQ, GF(2), GF7, GF(2**61 - 1)]))
        d = data.draw(st.integers(1, 3))
        if field.p:
            scalar = st.one_of(st.just(0), st.integers(-2 * field.p, 2 * field.p))
        else:
            scalar = st.one_of(st.just(0), st.fractions(min_value=-3, max_value=3, max_denominator=3))
        rows = data.draw(st.lists(st.lists(scalar, min_size=d * d, max_size=d * d), min_size=d, max_size=d))
        unit = data.draw(st.lists(scalar, min_size=d, max_size=d))
        if data.draw(st.booleans()):
            unit = [1] + [0] * (d - 1)
            for i in range(d):
                for k in range(d):
                    rows[k][i] = rows[k][i * d] = int(k == i)
        names = tuple(f"e{i}" for i in range(d))
        a = FiniteAlgebra(d, names, Matrix.from_rows(rows, field), tuple(map(field.coerce, unit)), field)
        report = validate_algebra(a)
        assert report == validate_algebra_direct(a)
        assert [chk.name for chk in report.checks] == ["associativity", "left-unit", "right-unit"]
        assert all(chk.residual.is_zero == chk.ok for chk in report.checks)


class TestCoalgebraValidation:
    def test_group_coalgebra_passes(self, z2_hopf):
        assert validate_coalgebra(z2_hopf.coalgebra).ok

    def test_trivial_coalgebra(self):
        assert validate_coalgebra(field_coalgebra(QQ)).ok

    def test_broken_counit(self, z2_hopf):
        c = z2_hopf.coalgebra
        broken = FiniteCoalgebra(c.dim, c.basis_names, c.comult_matrix, (Fraction(1), Fraction(0)), c.field)
        report = validate_coalgebra(broken)
        assert not report.ok


class TestHopfValidation:
    def test_z2_with_identity_antipode(self, z2_hopf):
        report = validate_hopf(z2_hopf)
        assert report.ok
        assert z2_hopf.antipode.is_identity  # g^-1 = g
        assert z2_hopf.antipode_inverse is not None

    def test_sweedler_passes_with_noninvolutive_antipode(self, sweedler):
        report = validate_hopf(sweedler)
        assert report.ok
        assert sweedler.antipode_inverse is not None
        s2 = sweedler.antipode @ sweedler.antipode
        assert not s2.is_identity
        assert (s2 @ s2).is_identity

    def test_sweedler_against_brute_force_oracle(self, sweedler):
        # all 16 products
        for i in range(4):
            for j in range(4):
                expected = SWEEDLER_PRODUCTS[(i, j)]
                got = mult_tensor(sweedler.algebra)[i][j]
                assert {k: v for k, v in enumerate(got) if v} == {k: Fraction(v) for k, v in expected.items()}
        # both antipode composites, expanded through the frozen tables
        for i in range(4):
            acc: dict = {}
            for (j, k), c in SWEEDLER_COPRODUCT[i].items():
                for out, v in oracle_product(oracle_antipode({j: 1}), {k: 1}).items():
                    acc[out] = acc.get(out, 0) + c * v
            acc = {k: v for k, v in acc.items() if v}
            expected = {0: SWEEDLER_COUNIT[i]} if SWEEDLER_COUNIT[i] else {}
            assert acc == expected

    def test_sweedler_wrong_antipode_sign_fails(self, sweedler):
        bad_s = Matrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], QQ
        )  # S(x) = +gx
        report = validate_hopf(HopfAlgebra(sweedler.algebra, sweedler.coalgebra, bad_s))
        failing = {c.name for c in report.failures()}
        assert "antipode-left" in failing or "antipode-right" in failing

    @pytest.mark.parametrize("field", [QQ, GF7])
    def test_bialgebra_checks_keep_their_names_and_residuals(self, field, sweedler):
        # the coproduct's checks are those of H coacting on itself, restated;
        # the direct form multiplies in H (x) H through the formed middle swap
        h = sweedler if field is QQ else sweedler_hopf_algebra(field)
        shear = Matrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], field)
        moved = transport_coalgebra(h.coalgebra, shear)
        for coalgebra in (h.coalgebra, moved):
            m, u, d, n = h.algebra.mult_matrix, h.algebra.unit_matrix, coalgebra.comult_matrix, h.dim
            multiplicative, unital = bialgebra_checks(h.algebra, coalgebra)[:2]
            assert multiplicative == residual_check(
                "coproduct-multiplicative",
                "coproduct(ab) = coproduct(a)coproduct(b)",
                d @ m,
                swap_product_formed(m, m, d, d, (n, n, n, n)),
            )
            assert unital == residual_check("coproduct-unital", "coproduct(1) = 1 (x) 1", d @ u, kron(u, u))
        assert not multiplicative.ok

    def test_dual_group_algebra_is_hopf(self):
        for group in ("Z2", "Z3", "Z4", "S3"):
            assert validate_hopf(dual_group_algebra({"group": group})).ok


class TestComoduleModule:
    def test_self_coaction(self, z2_hopf):
        v = RightComodule(2, z2_hopf.coalgebra, z2_hopf.coalgebra.comult_matrix)
        assert validate_comodule(v).ok

    def test_self_action(self, z2_hopf):
        v = RightModule(2, z2_hopf.algebra, z2_hopf.algebra.mult_matrix)
        assert validate_module(v).ok

    def test_broken_coaction(self, z2_hopf):
        v = RightComodule(2, z2_hopf.coalgebra, Matrix.zero(4, 2, QQ))
        assert not validate_comodule(v).ok

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_module_axioms_are_the_transposed_comodule_axioms(self, data):
        # validate_module reads the comodule axioms of (V*, A*, act^T); the
        # direct form states them on act, residual for residual
        field = data.draw(st.sampled_from([QQ, GF7]))
        h = data.draw(st.sampled_from([group_algebra({"group": g}, field) for g in ("Z2", "Z3")] + [sweedler_hopf_algebra(field)]))
        a = h.algebra
        scalar = st.integers(0, 6) if field.p else st.fractions(min_value=-2, max_value=2, max_denominator=2)
        kind = data.draw(st.sampled_from(["random", "regular", "scalar"]))
        if kind == "random":
            dim = data.draw(st.integers(1, 3))
            action = Matrix.from_rows(data.draw(st.lists(st.lists(scalar, min_size=dim * a.dim, max_size=dim * a.dim), min_size=dim, max_size=dim)), field)
        elif kind == "regular":
            dim, action = a.dim, a.mult_matrix
        else:
            dim = data.draw(st.integers(1, 3))
            action = kron(Matrix.identity(dim, field), row_matrix(h.coalgebra.counit, field))
        if kind != "random" and data.draw(st.booleans()):
            rows = [list(r) for r in action.entries]
            rows[data.draw(st.integers(0, dim - 1))][data.draw(st.integers(0, dim * a.dim - 1))] += 1
            action = Matrix.from_rows(rows, field)
        v = RightModule(dim, a, action)
        assert validate_module(v) == module_axioms_on_the_action(v)

    def test_both_module_verdicts_occur(self, z2_hopf):
        a = z2_hopf.algebra
        assert validate_module(RightModule(2, a, a.mult_matrix)).ok
        broken = RightModule(2, a, Matrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 0]], QQ))
        report = validate_module(broken)
        assert not report.ok and report == module_axioms_on_the_action(broken)
        assert [chk.name for chk in report.checks] == ["action-associativity", "action-unit"]

    def test_coaction_algebra_map(self, z2_hopf, z2_self_extension):
        assert all(chk.ok for chk in coaction_algebra_map_checks(z2_self_extension, z2_hopf.algebra))

    def test_quadratic_coaction_is_algebra_map(self, quadratic):
        dual = dual_group_algebra({"group": "Z2"})
        assert all(chk.ok for chk in coaction_algebra_map_checks(quadratic, dual.algebra))


class TestDualize:
    def test_involution_on_sweedler(self, sweedler):
        a, c = sweedler.algebra, sweedler.coalgebra
        assert mult_tensor(dualize(dualize(a))) == mult_tensor(a)
        assert dualize(dualize(a)).unit == a.unit
        assert comult_tensor(dualize(dualize(c))) == comult_tensor(c)

    def test_dual_of_group_coalgebra_is_idempotent_algebra(self, z2_hopf):
        dual = dualize(z2_hopf.coalgebra)
        assert validate_algebra(dual).ok
        # group-like coproduct dualizes to orthogonal idempotents
        e0 = (QQ.one, QQ.zero)
        e1 = (QQ.zero, QQ.one)
        assert multiply(dual, e0, e0) == e0
        assert multiply(dual, e1, e1) == e1
        assert multiply(dual, e0, e1) == (QQ.zero, QQ.zero)

    def test_dual_of_field(self):
        assert comult_tensor(dualize(field_algebra(QQ))) == comult_tensor(field_coalgebra(QQ))

    def test_dual_structures_validate(self, sweedler):
        assert validate_coalgebra(dualize(sweedler.algebra)).ok
        assert validate_algebra(dualize(sweedler.coalgebra)).ok


class TestGroupLikeCharacter:
    def test_g_is_grouplike(self, z2_hopf):
        assert verify_grouplike(z2_hopf.coalgebra, (0, 1))

    def test_sum_is_not_grouplike(self, z2_hopf):
        assert not verify_grouplike(z2_hopf.coalgebra, (1, 1))

    def test_counit_is_character(self, z2_hopf, sweedler):
        for h in (z2_hopf, sweedler):
            assert verify_character(h.algebra, h.coalgebra.counit)

    def test_nonmultiplicative_functional_rejected(self, sweedler):
        assert not verify_character(sweedler.algebra, (1, 1, 1, 0))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_vector_identities_match_the_matrix_products(self, data):
        field = data.draw(st.sampled_from([QQ, GF7]))
        h = data.draw(
            st.sampled_from(
                [
                    group_algebra({"group": "S3"}, field),
                    dual_group_algebra({"group": "S3"}, field),
                    dual_group_algebra({"group": "Z4"}, field),
                    sweedler_hopf_algebra(field),
                ]
            )
        )
        n = h.algebra.dim
        scalar = st.integers(0, 6) if field.p else st.fractions(min_value=-2, max_value=2, max_denominator=2)
        # basis vectors, their scaled sums and indicator functionals hit both
        # verdicts; a random vector almost never passes
        support = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        coords = data.draw(
            st.one_of(
                st.just(tuple(1 if i in support else 0 for i in range(n))),
                st.lists(scalar, min_size=n, max_size=n).map(tuple),
            )
        )
        assert verify_grouplike(h.coalgebra, coords) == grouplike_by_products(h.coalgebra, coords)
        assert verify_character(h.algebra, coords) == character_by_products(h.algebra, coords)

    def test_both_verdicts_occur_over_both_fields(self):
        for field in (QQ, GF7):
            h, d = group_algebra({"group": "S3"}, field), dual_group_algebra({"group": "S3"}, field)
            e = tuple(1 if i == 2 else 0 for i in range(6))
            assert verify_grouplike(h.coalgebra, e) and not verify_grouplike(h.coalgebra, (0, 0, 1, 1, 0, 0))
            assert verify_character(d.algebra, e) and not verify_character(d.algebra, (0, 0, 1, 1, 0, 0))
            assert verify_character(h.algebra, (1,) * 6) and not verify_character(h.algebra, (2,) * 6)
        # 8 = 1 (mod 7): the coordinates are reduced before the test
        assert verify_grouplike(group_algebra({"group": "Z2"}, GF7).coalgebra, (0, 8))

    @pytest.mark.parametrize("length", [0, 3, 5])
    def test_a_vector_of_the_wrong_length_raises(self, sweedler, length):
        with pytest.raises(DimensionMismatch):
            verify_grouplike(sweedler.coalgebra, (1,) * length)
        with pytest.raises(DimensionMismatch):
            verify_character(sweedler.algebra, (1,) * length)



class TestConvolution:
    def test_counit_is_convolution_unit(self, z2_hopf):
        c, a = z2_hopf.coalgebra, field_algebra(QQ)
        eps = c.counit_matrix
        assert convolution(eps, eps, c, a) == eps

    def test_pointwise_square_on_grouplike(self, z2_hopf):
        c, a = z2_hopf.coalgebra, field_algebra(QQ)
        f = row_matrix([2, 3], QQ)
        conv = convolution(f, f, c, a)
        # coproduct(g) = g (x) g, so (f*f)(g) = f(g)^2
        assert conv.entries[0][1] == Fraction(9)
        assert conv.entries[0][0] == Fraction(4)

    def test_antipode_is_convolution_inverse_of_identity(self, sweedler):
        h = sweedler
        conv = convolution(h.antipode, Matrix.identity(4, QQ), h.coalgebra, h.algebra)
        assert conv == convolution_unit(h.coalgebra, h.algebra)
        conv2 = convolution(Matrix.identity(4, QQ), h.antipode, h.coalgebra, h.algebra)
        assert conv2 == convolution_unit(h.coalgebra, h.algebra)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 6), min_size=4, max_size=4),
        st.lists(st.integers(0, 6), min_size=4, max_size=4),
        st.lists(st.integers(0, 6), min_size=4, max_size=4),
    )
    def test_convolution_associative_gf7(self, f, g, h):
        hopf = sweedler_hopf_algebra(GF7)
        c, a = hopf.coalgebra, field_algebra(GF7)
        fm, gm, hm = (row_matrix(v, GF7) for v in (f, g, h))
        left = convolution(convolution(fm, gm, c, a), hm, c, a)
        right = convolution(fm, convolution(gm, hm, c, a), c, a)
        assert left == right


def invertible_gf7(dim, seed_entries):
    """Deterministic invertible matrix from hypothesis-provided entries."""
    m = Matrix.from_rows([seed_entries[i * dim : (i + 1) * dim] for i in range(dim)], GF7)
    from entwine.exactlin import NotInvertible

    if isinstance(try_invert(m), NotInvertible):
        return None
    return m


class TestTransport:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=4, max_size=4))
    def test_transport_preserves_validity(self, entries):
        t = invertible_gf7(2, entries)
        if t is None:
            return
        h = group_algebra({"group": "Z2"}, GF7)
        a2 = transport_algebra(h.algebra, t)
        c2 = transport_coalgebra(h.coalgebra, t)
        assert validate_algebra(a2).ok
        assert validate_coalgebra(c2).ok
