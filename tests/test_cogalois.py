import random
from dataclasses import replace
from fractions import Fraction

import pytest

from dense_oracles import (
    action_coalgebra_map_checks,
    action_forced_by_counit,
    canonical_coideal_by_basis,
    certify_by_cotensor,
    columns,
    comult_tensor,
    cotensor,
    dual_bundle_action_equivalence,
    dual_bundle_by_coextension,
    uniqueness_dim_by_action,
)
from entwine.catalogue import (
    coset_coideal,
    dual_group_algebra,
    group_algebra,
    group_self_coextension,
    quadratic_field_extension,
    self_extension,
    sweedler_hopf_algebra,
)
import entwine.cogalois as cogalois
from entwine.cogalois import (
    coextension_check,
    coideal_checks,
    dual_bundle_check,
    dual_uniqueness,
    hopf_coideal,
    quotient_coalgebra,
)
from entwine.entwining import EntwiningStructure, validate_entwining
from entwine.errors import AxiomViolation, NotCharacter, NotCoideal
from entwine.exactlin import Matrix, Subspace, kernel, kron, middle_block, quotient
from entwine.fields import GF, QQ
from entwine.galois import bundle_coaction_equivalence, coaction_forced_by_unit
from entwine.structures import Character, ModuleCoalgebra, coaction_algebra_map_checks, dualize, transport_coalgebra
from support import canonical_coideal, field_algebra, field_coalgebra
from subgroup_coextensions import (
    random_basis,
    subgroup_coextension,
    subgroup_hopf,
    transport_character,
    transport_coextension,
    trivial_coextension,
    upper_unitriangular,
)
from test_golden_reports import _SCRIPT, _documents

GF7 = GF(7)


def trivial_module_coalgebra(coalgebra):
    """A = k acting by scalars."""
    a = field_algebra(coalgebra.field)
    return ModuleCoalgebra(coalgebra, a, coalgebra.identity_matrix)


class TestCanonicalCoideal:
    def test_scalar_action_gives_zero(self, z2_hopf):
        x = trivial_module_coalgebra(z2_hopf.coalgebra)
        assert canonical_coideal(x).dim == 0

    def test_z2_self_action(self, z2_coextension):
        sub = canonical_coideal(z2_coextension)
        assert sub.dim == 1
        assert sub.basis == ((Fraction(1), Fraction(-1)),)  # spans g - 1

    def test_agrees_with_module_form_on_z2(self, z2_hopf, z2_coextension):
        assert canonical_coideal(z2_coextension) == hopf_coideal(
            z2_coextension, z2_hopf.algebra, z2_hopf.coalgebra
        )

    def test_sweedler_module_coideal(self, sweedler):
        x = group_self_coextension(sweedler)
        sub = hopf_coideal(x, sweedler.algebra, sweedler.coalgebra)
        assert sub.dim == 3  # spanned by g - 1, x, gx
        ok_counit, _ = coideal_checks(sweedler.coalgebra, quotient(4, sub))
        assert ok_counit.ok
        assert canonical_coideal(x) == sub

    def test_trivial_action_through_counit(self, z2_hopf):
        # act(c, h) = counit(h) c gives the zero coideal
        c = z2_hopf.coalgebra
        action = kron(c.identity_matrix, c.counit_matrix)
        x = ModuleCoalgebra(c, z2_hopf.algebra, action)
        assert hopf_coideal(x, z2_hopf.algebra, z2_hopf.coalgebra).dim == 0
        assert canonical_coideal(x).dim == 0


class TestQuotientCoalgebra:
    @pytest.mark.parametrize("field", [QQ, GF7])
    @pytest.mark.parametrize("group", ["S3", "Z4"])
    def test_every_coset_quotient_is_a_coalgebra(self, group, field):
        # quotient_coalgebra trusts the coalgebra axioms of its input
        c = group_algebra({"group": group}, field).coalgebra
        for generator in c.basis_names:
            base, _ = quotient_coalgebra(c, coset_coideal({"group": group}, generator, field))
            assert base.checks.ok

    def test_zero_coideal_identity(self, z2_hopf):
        base, pi = quotient_coalgebra(z2_hopf.coalgebra, Subspace.zero_subspace(2, QQ))
        assert base.dim == 2 and pi.is_identity

    def test_z2_collapse(self, z2_hopf):
        sub = Subspace.from_spanning([[1, -1]], 2, QQ)
        base, pi = quotient_coalgebra(z2_hopf.coalgebra, sub)
        assert base.dim == 1
        # the image of a group-like is group-like
        assert comult_tensor(base)[0][0][0] == QQ.one and base.counit[0] == QQ.one

    def test_s3_cosets(self, s3_hopf):
        sub = coset_coideal({"group": "S3"}, "(12)")
        base, pi = quotient_coalgebra(s3_hopf.coalgebra, sub)
        assert base.dim == 3

    def test_rejects_non_coideal(self, z2_hopf):
        with pytest.raises(NotCoideal):
            quotient_coalgebra(z2_hopf.coalgebra, Subspace.from_spanning([[0, 1]], 2, QQ))

    def test_coideal_checks_reject_bad_counit(self, z2_hopf):
        sub = Subspace.from_spanning([[1, 0]], 2, QQ)
        counit, _ = coideal_checks(z2_hopf.coalgebra, quotient(2, sub))
        assert not counit.ok


class TestCotensor:
    def test_trivial_base_full_space(self, z2_hopf):
        c = z2_hopf.coalgebra
        sub = Subspace.from_spanning([[1, -1]], 2, QQ)
        base, pi = quotient_coalgebra(c, sub)
        rc = kron(c.identity_matrix, pi) @ c.comult_matrix
        lc = kron(pi, c.identity_matrix) @ c.comult_matrix
        assert cotensor(rc, lc).dim == 4  # base is one-dimensional here

    def test_self_cotensor_of_group_coalgebra(self, z2_hopf):
        c = z2_hopf.coalgebra
        rc = c.comult_matrix
        lc = c.comult_matrix
        web = cotensor(rc, lc)
        assert web.dim == 2
        assert web.basis == (
            (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
        )  # spanned by 1 (x) 1 and g (x) g

    def test_z4_over_index_two_subgroup(self):
        h = group_algebra({"group": "Z4"})
        sub = coset_coideal({"group": "Z4"}, "g2")
        base, pi = quotient_coalgebra(h.coalgebra, sub)
        c = h.coalgebra
        rc = kron(c.identity_matrix, pi) @ c.comult_matrix
        lc = kron(pi, c.identity_matrix) @ c.comult_matrix
        assert cotensor(rc, lc).dim == 8


class TestCoextensionCheck:
    def test_z2_certificate(self, z2_coextension):
        cert = coextension_check(z2_coextension)
        assert cert.is_coextension and cert.checks.ok
        assert cert.base_dim == 1
        assert cert.cotensor.dim == 4  # all of C (x) C
        # cocan(g_i (x) g_j) = g_i (x) g_{i+j}, a permutation
        for row in cert.cocan.entries:
            assert sorted(row) == [0, 0, 0, 1]

    def test_z2_cotranslation_values(self, z2_coextension):
        cert = coextension_check(z2_coextension)
        tau = cert.cotranslation
        # cotensor here is all of C (x) C in basis order 1x1, 1xg, gx1, gxg;
        # cotranslation(g_i (x) g_j) = g_i^{-1} g_j = g_{i+j}
        assert tau.column(0) == (1, 0)
        assert tau.column(1) == (0, 1)
        assert tau.column(2) == (0, 1)
        assert tau.column(3) == (1, 0)

    def test_z2_dual_psi_formula(self, z2_coextension):
        cert = coextension_check(z2_coextension)
        psi = cert.psi.psi
        # psi(g_i (x) g_j) = g_j (x) g_{i+j}
        for i in range(2):
            for j in range(2):
                col = psi.column(i * 2 + j)
                expected = [Fraction(0)] * 4
                expected[j * 2 + (i + j) % 2] = Fraction(1)
                assert list(col) == expected

    def test_trivial_algebra_instance(self, z2_hopf):
        x = trivial_module_coalgebra(z2_hopf.coalgebra)
        cert = coextension_check(x)
        assert cert.is_coextension and cert.checks.ok
        assert cert.coideal.dim == 0
        # cocan: C -> C box_C C is the coproduct onto its image
        assert cert.cotensor.dim == 2
        assert cert.psi.psi.is_identity  # flip on C (x) k

    def test_sweedler_coextension(self, sweedler):
        x = group_self_coextension(sweedler)
        cert = coextension_check(x)
        assert cert.base_dim == 1
        assert cert.is_coextension and cert.checks.ok
        assert validate_entwining(cert.psi).ok

    def test_non_coextension_witness(self, z2_hopf):
        # C = k acted on by A = k[Z2] through the trivial character:
        # cocan: C (x) A (dim 2) -> C box C (dim 1) cannot be injective
        c = field_coalgebra(QQ)
        action = Matrix.from_rows([[1, 1]], QQ)
        x = ModuleCoalgebra(c, z2_hopf.algebra, action)
        cert = coextension_check(x)
        assert not cert.is_coextension
        assert cert.rank == 1
        assert cert.witness is not None
        assert cert.psi is None

    def test_dual_uniqueness_gated(self, z2_hopf):
        c = field_coalgebra(QQ)
        action = Matrix.from_rows([[1, 1]], QQ)
        cert = coextension_check(ModuleCoalgebra(c, z2_hopf.algebra, action))
        report = dual_uniqueness(cert)
        assert not report.applicable and report.unique is None


class TestCotensorWitness:
    def test_missed_cotensor_vector_is_reported_in_the_tensor_square(self):
        from entwine.cogalois import _decide_onto_cotensor

        web = Subspace.from_spanning([[1, 1, 0, 0], [0, 0, 1, 0]], 4, QQ)
        cocan = Matrix.from_rows([[1], [0]], QQ)  # injective, misses the second cotensor coordinate
        decision = _decide_onto_cotensor(cocan, web)
        assert decision.rank == 1 and decision.solution is None
        assert decision.witness == (0, 0, 1, 0)


class TestDualUniqueness:
    def test_z2(self, z2_coextension):
        report = dual_uniqueness(coextension_check(z2_coextension))
        assert report.applicable and report.unique
        assert report.solution_space_dim == 0

    def test_trivial_algebra(self, z2_hopf):
        x = trivial_module_coalgebra(z2_hopf.coalgebra)
        report = dual_uniqueness(coextension_check(x))
        assert report.unique and report.solution_space_dim == 0


class TestDualBundle:
    def test_z2_with_counit_character(self, z2_hopf, z2_coextension):
        cert = coextension_check(z2_coextension)
        kappa = Character(z2_hopf.algebra, (1, 1))
        report = dual_bundle_check(cert.psi, kappa)
        assert report.is_bundle
        # the invariants are the counit, whose annihilator spans g - 1
        assert cogalois._annihilator(report.invariants).basis == ((Fraction(1), Fraction(-1)),)

    def test_flip_dimension_count(self, z2_hopf):
        from entwine.entwining import flip_entwining

        e = flip_entwining(z2_hopf.algebra, z2_hopf.coalgebra)
        kappa = Character(z2_hopf.algebra, (1, 1))
        report = dual_bundle_check(e, kappa)
        # induced action c.a = kappa(a) c gives I = 0, so every functional
        # is invariant and the cotensor is C box_C C of dim 2 while C (x) A
        # has dim 4
        assert report.invariants.dim == 2
        assert not report.is_bundle

    def test_sweedler_with_counit_character(self, sweedler):
        x = group_self_coextension(sweedler)
        cert = coextension_check(x)
        kappa = Character(sweedler.algebra, tuple(sweedler.coalgebra.counit))
        report = dual_bundle_check(cert.psi, kappa)
        assert report.is_bundle
        assert report.invariants == cert.dual.coinvariants
        assert cogalois._annihilator(report.invariants) == cert.coideal

    def test_rejects_non_character(self, z2_hopf, z2_coextension):
        cert = coextension_check(z2_coextension)
        with pytest.raises(NotCharacter):
            dual_bundle_check(cert.psi, Character(z2_hopf.algebra, (1, 2)))


class TestDualBundleEquivalence:
    def test_z2_round_trip(self, z2_hopf, z2_coextension):
        cert = coextension_check(z2_coextension)
        kappa = Character(z2_hopf.algebra, (1, 1))
        report = bundle_coaction_equivalence(dual_bundle_check(cert.psi, kappa))
        assert report.applicable and report.ok
        assert report.coaction.transpose() == z2_coextension.action  # recovered bit-exactly
        assert report.certificate.coinvariants == cert.dual.coinvariants

    def test_trivial_instance(self, z2_hopf):
        x = trivial_module_coalgebra(z2_hopf.coalgebra)
        cert = coextension_check(x)
        kappa = Character(field_algebra(QQ), (1,))
        report = bundle_coaction_equivalence(dual_bundle_check(cert.psi, kappa))
        assert report.applicable and report.ok

    def test_gated_when_not_bundle(self, z2_hopf):
        from entwine.entwining import flip_entwining

        e = flip_entwining(z2_hopf.algebra, z2_hopf.coalgebra)
        report = bundle_coaction_equivalence(dual_bundle_check(e, Character(z2_hopf.algebra, (1, 1))))
        assert not report.applicable

    def test_forced_clause_reads_psi(self, z2_coextension):
        # act = ((counit . act) (x) C)(C (x) psi)(coproduct (x) A) holds for the
        # certificate's psi, and its dual clause, coaction forced by its value on
        # 1 through psi^T, reads the same ...
        x = z2_coextension
        psi = coextension_check(x).psi
        assert action_forced_by_counit(x.action, psi)
        assert coaction_forced_by_unit(x.dual.coaction, EntwiningStructure(x.dual.algebra, x.dual.coalgebra, psi.psi.transpose()))
        # ... and both fail once an entry of psi that the composite reads is perturbed
        rows = [list(r) for r in psi.psi.entries]
        rows[0][0] += 1
        perturbed = Matrix.from_rows(rows, QQ)
        assert not action_forced_by_counit(x.action, EntwiningStructure(psi.algebra, psi.coalgebra, perturbed))
        assert not coaction_forced_by_unit(x.dual.coaction, EntwiningStructure(x.dual.algebra, x.dual.coalgebra, perturbed.transpose()))

    def test_verdict_reads_the_certificate_checks(self, z2_hopf, z2_coextension):
        psi = coextension_check(z2_coextension).psi
        report = bundle_coaction_equivalence(dual_bundle_check(psi, Character(z2_hopf.algebra, (1, 1))))
        assert report.ok
        cert = report.certificate
        first, *rest = cert.checks.checks
        broken = replace(cert.checks, checks=(replace(first, ok=False), *rest))
        assert not replace(report, certificate=replace(cert, checks=broken)).ok


class TestDualityCrossCheck:
    def test_dualized_extension_is_coextension(self, z2_hopf, z2_self_extension):
        from entwine.galois import galois_check

        primal = galois_check(z2_self_extension)
        assert primal.is_galois
        dual_c = dualize(z2_self_extension.algebra)
        dual_a = dualize(z2_self_extension.coalgebra)
        dual_action = z2_self_extension.coaction.transpose()
        dual_x = ModuleCoalgebra(dual_c, dual_a, dual_action)
        cert = coextension_check(dual_x)
        assert cert.is_coextension and cert.checks.ok
        # the dual canonical entwining map is the transpose of the primal one
        assert cert.psi.psi == primal.psi.psi.transpose()

    def test_dualized_gf7_extension(self):
        from entwine.galois import galois_check

        h = group_algebra({"group": "Z3"}, GF7)
        x = self_extension(h)
        primal = galois_check(x)
        dual_x = ModuleCoalgebra(dualize(x.algebra), dualize(x.coalgebra), x.coaction.transpose())
        cert = coextension_check(dual_x)
        assert cert.is_coextension
        assert cert.psi.psi == primal.psi.psi.transpose()


def _dual_of(x):
    """The module coalgebra dual to a comodule algebra."""
    return ModuleCoalgebra(dualize(x.algebra), dualize(x.coalgebra), x.coaction.transpose())


def _on_dense_basis(x, acting, seed):
    """x, its trivial character and the coalgebra on its acting space, moved
    to seeded random bases over GF(7)."""
    rng = random.Random(seed)
    t = random_basis(x.coalgebra.dim, GF7, rng)
    s = random_basis(x.algebra.dim, GF7, rng)
    return transport_coextension(x, t, s), transport_character((GF7.one,) * x.algebra.dim, s), transport_coalgebra(acting, s)


def _coextension_inputs():
    """(label, module coalgebra, character of its algebra or None, coalgebra
    on the acting space for which the action is a coalgebra map)."""
    inputs = []
    for group in ("Z2", "Z3", "Z4", "S3"):
        h = group_algebra({"group": group}, QQ)
        inputs.append((f"group-coextension {group}", group_self_coextension(h), (QQ.one,) * h.dim, h.coalgebra))
    h = group_algebra({"group": "Z3"}, GF7)
    inputs.append(("group-coextension Z3 GF(7)", group_self_coextension(h), (GF7.one,) * h.dim, h.coalgebra))
    sweedler = sweedler_hopf_algebra(QQ)
    inputs.append(("sweedler-h4", group_self_coextension(sweedler), tuple(sweedler.coalgebra.counit), sweedler.coalgebra))
    z2 = group_algebra({"group": "Z2"}, QQ)
    z2_dual = dual_group_algebra({"group": "Z2"}, QQ)
    inputs.append(("dual of quadratic-field-extension", _dual_of(quadratic_field_extension(2, QQ)), None, dualize(z2_dual.algebra)))
    s3 = group_algebra({"group": "S3"}, QQ)
    inputs.append(("dual of trivial-hopf-galois S3", _dual_of(self_extension(s3)), None, dualize(s3.algebra)))
    collapsed = ModuleCoalgebra(field_coalgebra(QQ), z2.algebra, Matrix.from_rows([[1, 1]], QQ))
    inputs.append(("collapsed action", collapsed, None, z2.coalgebra))
    for group, generator in (("Z4", "g2"), ("S3", "(12)"), ("S3", "(123)")):
        for build, kind in ((subgroup_coextension, "subgroup"), (trivial_coextension, "trivial")):
            x = build(group, generator, QQ)
            acting = subgroup_hopf(group, generator, QQ)[0].coalgebra
            inputs.append((f"{kind} {group}>{generator}", x, (QQ.one,) * x.algebra.dim, acting))
            for seed in (1, 2):
                acting = subgroup_hopf(group, generator, GF7)[0].coalgebra
                y, kappa, moved = _on_dense_basis(build(group, generator, GF7), acting, seed)
                inputs.append((f"{kind} {group}>{generator} GF(7) seed {seed}", y, kappa, moved))
    return inputs


_INPUTS = _coextension_inputs()


def _fields(cert) -> dict:
    """Every field of a coextension certificate, with its checks as (name, status)."""
    return {
        "coideal": cert.coideal,
        "base_dim": cert.base_dim,
        "cotensor": cert.cotensor,
        "cocan": cert.cocan,
        "rank": cert.rank,
        "is_coextension": cert.is_coextension,
        "cotranslation": cert.cotranslation,
        "psi": cert.psi.psi if cert.psi else None,
        "witness": cert.witness,
        "checks": [(chk.name, chk.ok) for chk in cert.checks.checks],
    }


def _assert_same_certificate(cert, oracle):
    mine, theirs = _fields(cert), _fields(oracle)
    assert [key for key in mine if mine[key] != theirs[key]] == []


def _assert_matches_the_oracle(x, cert, oracle):
    """The certificate equals the oracle's field by field, so the composite
    identity, which the library reports from the dual's canonical-map
    checks, has the verdict the oracle evaluates on the threefold cotensor;
    and the certificate's coideal is a coideal whose quotient coalgebra
    (NotCoideal, resp. InternalCheckError otherwise) has dimension base_dim."""
    _assert_same_certificate(cert, oracle)
    base, _ = quotient_coalgebra(x.coalgebra, cert.coideal)
    assert base.dim == cert.base_dim


def _assert_dual_bundle_matches(psi, kappa, bundle):
    """The bundle of the dual at a character kappa against the cotensor
    certificate of the action (kappa (x) C)psi over the induced coideal."""
    oracle = dual_bundle_by_coextension(psi, kappa)
    assert psi.coalgebra.dim - bundle.invariants.dim == oracle.coideal.dim
    assert (bundle.rank, bundle.is_bundle) == (oracle.rank, oracle.is_bundle)
    carrier = ModuleCoalgebra(psi.coalgebra, psi.algebra, bundle.certificate.subject.coaction.transpose())
    assert carrier == oracle.certificate.subject
    # read on the coextension side, the bundle is a coextension certificate
    # over the annihilator of its invariants
    own = cogalois._certify(carrier, bundle.invariants)
    assert own.dual == bundle.certificate
    _assert_same_certificate(own, oracle.certificate)
    ours, theirs = bundle_coaction_equivalence(bundle), dual_bundle_action_equivalence(oracle)
    assert (ours.applicable, ours.ok) == (theirs.applicable, theirs.ok)


class TestAgainstTheCotensorOracle:
    """The certificate read off the dual's Galois certificate equals the one
    built on the cotensor product, field by field, and so do the uniqueness,
    the dual bundles and the coalgebra-map gate read off the dual."""

    @pytest.mark.parametrize("label, x, kappa, acting", _INPUTS, ids=[label for label, *_ in _INPUTS])
    def test_certificate_fields_match(self, label, x, kappa, acting):
        coideal = canonical_coideal(x)
        assert coideal == canonical_coideal_by_basis(x)
        cert = coextension_check(x)
        oracle = certify_by_cotensor(x, coideal)
        _assert_matches_the_oracle(x, cert, oracle)
        # the coextension's uniqueness block is the dual's, permuted:
        # B'[(k,p),(j,y)] = B[(p,k),(y,j)]
        a_dim, c_dim = x.algebra.dim, x.coalgebra.dim
        mine = middle_block(x.action, x.coalgebra.comult_matrix, a_dim, c_dim).entries
        theirs = middle_block(x.dual.algebra.mult_matrix, x.dual.coaction, c_dim, a_dim).entries
        assert all(
            mine[k * c_dim + p][j * c_dim + y] == theirs[p * c_dim + k][y * a_dim + j]
            for k in range(c_dim)
            for p in range(c_dim)
            for j in range(a_dim)
            for y in range(c_dim)
        )
        uniqueness = dual_uniqueness(cert)
        assert uniqueness.applicable == cert.is_coextension
        if cert.is_coextension:
            assert uniqueness.solution_space_dim == uniqueness_dim_by_action(x)
            (module,) = [chk for chk in oracle.checks.checks if chk.name == "entwined-module"]
            assert uniqueness.psi_solves == module.ok
            if kappa is not None:
                character = Character(x.algebra, kappa)
                bundle = dual_bundle_check(cert, character)
                _assert_dual_bundle_matches(cert.psi, kappa, bundle)
                assert bundle == dual_bundle_check(cert.psi, character)

    @pytest.mark.parametrize("label, x, kappa, acting", _INPUTS, ids=[label for label, *_ in _INPUTS])
    def test_coalgebra_map_gate_matches(self, label, x, kappa, acting):
        # the action is a coalgebra map for ``acting``, and in general not for
        # ``acting`` on another basis; either way the dual algebra-map test
        # gives the verdicts and, transposed, the residuals of the direct one
        moved = transport_coalgebra(acting, upper_unitriangular(acting.dim, acting.field))
        verdicts = []
        for coalgebra in (acting, moved):
            direct = action_coalgebra_map_checks(x, coalgebra)
            dual = coaction_algebra_map_checks(x.dual, dualize(coalgebra))
            assert [chk.ok for chk in dual] == [chk.ok for chk in direct]
            assert [chk.residual.transpose() for chk in dual] == [chk.residual for chk in direct]
            ok = all(chk.ok for chk in direct)
            if ok:
                expected = Subspace.from_spanning(
                    columns(x.action - kron(x.coalgebra.identity_matrix, Matrix.from_rows([coalgebra.counit], x.coalgebra.field))),
                    x.coalgebra.dim,
                    x.coalgebra.field,
                )
                assert hopf_coideal(x, x.algebra, coalgebra) == expected
            else:
                with pytest.raises(AxiomViolation):
                    hopf_coideal(x, x.algebra, coalgebra)
            verdicts.append(ok)
        assert verdicts[0]

    def test_the_gate_fails_on_some_input(self):
        # so that the comparison above reaches failing residuals
        def fails(x, acting):
            moved = transport_coalgebra(acting, upper_unitriangular(acting.dim, acting.field))
            return not all(chk.ok for chk in action_coalgebra_map_checks(x, moved))

        assert any(fails(x, acting) for _, x, _, acting in _INPUTS)

    def test_golden_coextensions_match(self):
        # every document of the golden gate that the cogalois suite
        # certifies; the two that are not Galois state a kernel witness of
        # cocan, which the dual's decision on can (not can^T) does not give
        galois, shapes = 0, {}
        for label, doc in _documents():
            if "cogalois" not in _SCRIPT.applicable_suites(doc):
                continue
            x = doc.module_coalgebra
            cert = coextension_check(x)
            _assert_matches_the_oracle(x, cert, certify_by_cotensor(x, cert.coideal))
            if cert.is_coextension:
                galois += 1
            else:
                assert cert.witness == kernel(cert.cocan).basis[0]
                shapes[label] = (cert.cocan.rows, cert.cocan.cols, cert.rank)
        assert galois == 6
        assert shapes == {"collapsed-action-Z2": (1, 2, 1), "sign-action-Z2": (2, 4, 2)}

    def test_inputs_reach_every_base_dimension_and_the_witness(self):
        certs = {label: coextension_check(x) for label, x, *_ in _INPUTS}
        dense = {cert.base_dim for label, cert in certs.items() if "GF(7)" in label}
        assert {2, 3, 6} <= dense
        assert any(cert.witness is not None for label, cert in certs.items() if "GF(7)" in label)

    def test_a_dual_bundle_of_another_action_matches(self):
        # at the sign character of k[Z2] the induced action is not k[Z4]'s own
        x = subgroup_coextension("Z4", "g2", QQ)
        cert = coextension_check(x)
        bundle = dual_bundle_check(cert, Character(x.algebra, (1, -1)))
        assert bundle.certificate is not cert.dual and bundle.is_bundle
        _assert_dual_bundle_matches(cert.psi, (1, -1), bundle)

    def test_flip_dual_bundle_matches(self, z2_hopf):
        from entwine.entwining import flip_entwining

        e = flip_entwining(z2_hopf.algebra, z2_hopf.coalgebra)
        bundle = dual_bundle_check(e, Character(z2_hopf.algebra, (1, 1)))
        assert not bundle.is_bundle
        _assert_dual_bundle_matches(e, (1, 1), bundle)
