from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import NotInvertible, comult_tensor, mult_tensor, try_invert
from support import field_algebra, field_coalgebra, invert_hopf_entwining
from entwine.catalogue import group_algebra
from entwine.entwining import (
    EntwiningStructure,
    StructureMapPair,
    entwined_module_check,
    flip_entwining,
    hopf_entwining,
    psi_to_structure_maps,
    structure_maps_to_psi,
    validate_entwining,
    validate_structure_maps,
)
from entwine.errors import AxiomViolation
from entwine.exactlin import Matrix, kron
from entwine.fields import GF, QQ
from entwine.structures import (
    ComoduleAlgebra,
    RightComodule,
    RightModule,
    transport_algebra,
    transport_coalgebra,
    validate_comodule,
    validate_module,
)

GF7 = GF(7)


def perturb(m: Matrix, i: int, j: int) -> Matrix:
    rows = [list(r) for r in m.entries]
    rows[i][j] = m.field.add(rows[i][j], m.field.one)
    return Matrix(m.rows, m.cols, tuple(tuple(r) for r in rows), m.field)


class TestFlip:
    def test_one_dimensional(self):
        e = flip_entwining(field_algebra(QQ), field_coalgebra(QQ))
        assert e.psi == Matrix.identity(1, QQ)
        assert validate_entwining(e).ok

    def test_shape_2_by_3(self):
        a = group_algebra({"group": "Z2"}).algebra
        c = group_algebra({"group": "Z3"}).coalgebra
        e = flip_entwining(a, c)
        assert e.psi.rows == 6 and e.psi.cols == 6
        # permutation matrix: each row and column has exactly one 1
        for row in e.psi.entries:
            assert sorted(row) == [0] * 5 + [1]
        assert validate_entwining(e).ok

    def test_perturbed_flip_reports_failing_axiom(self, z2_hopf):
        a, c = z2_hopf.algebra, z2_hopf.coalgebra
        e = flip_entwining(a, c)
        broken = EntwiningStructure(a, c, perturb(e.psi, 0, 3))
        report = validate_entwining(broken)
        assert not report.ok
        assert {chk.name for chk in report.failures()} <= {
            "multiplication-compat",
            "unit-compat",
            "comultiplication-compat",
            "counit-compat",
        }
        assert any(not chk.residual.is_zero for chk in report.failures())


class TestHopfEntwining:
    def test_z2_formula(self, z2_hopf, z2_self_extension):
        e = hopf_entwining(z2_hopf, z2_self_extension)
        assert validate_entwining(e).ok
        # psi(g (x) g) = g (x) g.g = g (x) 1: column (c=1,a=1)=3, row (a=1,c=0)=2
        assert e.psi.entries[2][3] == Fraction(1)

    def test_unit_column_forced(self, z2_hopf, z2_self_extension, sweedler, sweedler_self_extension):
        for h, x in ((z2_hopf, z2_self_extension), (sweedler, sweedler_self_extension)):
            e = hopf_entwining(h, x)
            n = h.dim
            for c_idx in range(n):
                col = e.psi.column(c_idx * n + 0)  # psi(c (x) 1)
                expected = kron(
                    Matrix.from_rows([[v] for v in x.algebra.unit], QQ),
                    Matrix.from_rows([[QQ.one if i == c_idx else QQ.zero] for i in range(n)], QQ),
                ).column(0)
                assert col == expected

    def test_sweedler_against_direct_evaluation(self, sweedler, sweedler_self_extension):
        e = hopf_entwining(sweedler, sweedler_self_extension)
        h = sweedler
        # oracle: psi(e_i (x) e_j) = sum over coproduct terms of e_j (x) e_i * (...)
        n = 4
        for i in range(n):
            for j in range(n):
                expected = [Fraction(0)] * (n * n)
                for left in range(n):
                    for right in range(n):
                        coeff = comult_tensor(h.coalgebra)[j][left][right]
                        if not coeff:
                            continue
                        prod = mult_tensor(h.algebra)[i][right]
                        for k, pk in enumerate(prod):
                            if pk:
                                expected[left * n + k] += coeff * pk
                assert list(e.psi.column(i * n + j)) == expected

    def test_rejects_non_algebra_map_coaction(self, sweedler):
        twisted = Matrix.from_rows(
            [[1 if (r, c) == (0, 0) else 0 for c in range(4)] for r in range(16)], QQ
        )
        x = ComoduleAlgebra(sweedler.algebra, sweedler.coalgebra, twisted)
        with pytest.raises(AxiomViolation):
            hopf_entwining(sweedler, x)

    def test_entwined_module_on_carrier(self, sweedler, sweedler_self_extension):
        e = hopf_entwining(sweedler, sweedler_self_extension)
        module = RightModule(4, sweedler.algebra, sweedler.algebra.mult_matrix)
        comodule = RightComodule(4, sweedler.coalgebra, sweedler.coalgebra.comult_matrix)
        assert validate_module(module).ok and validate_comodule(comodule).ok
        assert entwined_module_check(module, comodule, e).ok

    def test_flip_fails_entwined_module_on_noncommutative_carrier(self, sweedler):
        e = flip_entwining(sweedler.algebra, sweedler.coalgebra)
        assert validate_entwining(e).ok
        module = RightModule(4, sweedler.algebra, sweedler.algebra.mult_matrix)
        comodule = RightComodule(4, sweedler.coalgebra, sweedler.coalgebra.comult_matrix)
        chk = entwined_module_check(module, comodule, e)
        assert not chk.ok and not chk.residual.is_zero

    def test_trivial_carrier_entwines(self, z2_hopf):
        # V = k over A = k with a group-like-valued coaction into C
        a = field_algebra(QQ)
        e = flip_entwining(a, z2_hopf.coalgebra)
        module = RightModule(1, a, Matrix.identity(1, QQ))
        comodule = RightComodule(1, z2_hopf.coalgebra, Matrix.from_rows([[0], [1]], QQ))
        assert validate_module(module).ok and validate_comodule(comodule).ok
        assert entwined_module_check(module, comodule, e).ok


class TestHopfInverse:
    def test_z2_inverse(self, z2_hopf, z2_self_extension):
        psi = hopf_entwining(z2_hopf, z2_self_extension).psi
        inv = invert_hopf_entwining(z2_hopf, z2_self_extension)
        assert (psi @ inv).is_identity and (inv @ psi).is_identity
        assert inv == psi.transpose()  # permutation here

    def test_sweedler_inverse_16(self, sweedler, sweedler_self_extension):
        psi = hopf_entwining(sweedler, sweedler_self_extension).psi
        inv = invert_hopf_entwining(sweedler, sweedler_self_extension)
        assert (psi @ inv) == Matrix.identity(16, QQ)
        assert (inv @ psi) == Matrix.identity(16, QQ)

    def test_trivial_comodule(self, z2_hopf):
        a = field_algebra(QQ)
        coaction = Matrix.from_rows([[1], [0]], QQ)  # 1 |-> 1 (x) 1
        x = ComoduleAlgebra(a, z2_hopf.coalgebra, coaction)
        psi = hopf_entwining(z2_hopf, x).psi
        inv = invert_hopf_entwining(z2_hopf, x)
        flip = flip_entwining(a, z2_hopf.coalgebra).psi
        assert psi == flip
        assert inv == flip.transpose()


class TestStructureMapCorrespondence:
    def test_flip_round_trip(self, z2_hopf):
        e = flip_entwining(z2_hopf.algebra, z2_hopf.coalgebra)
        pair = psi_to_structure_maps(e)
        assert validate_structure_maps(pair).ok
        back = structure_maps_to_psi(pair)
        assert back.psi == e.psi

    def test_flip_action_multiplies_outer_legs(self, z2_hopf):
        e = flip_entwining(z2_hopf.algebra, z2_hopf.coalgebra)
        pair = psi_to_structure_maps(e)
        # mu(a (x) c (x) a') = a a' (x) c for the flip
        a = z2_hopf.algebra
        for i in range(2):
            for c in range(2):
                for j in range(2):
                    src = i * 4 + c * 2 + j
                    col = pair.mu.column(src)
                    prod = mult_tensor(a)[i][j]
                    expected = [Fraction(0)] * 4
                    for k, v in enumerate(prod):
                        expected[k * 2 + c] = v
                    assert list(col) == expected

    def test_hopf_round_trip(self, z2_hopf, z2_self_extension):
        e = hopf_entwining(z2_hopf, z2_self_extension)
        pair = psi_to_structure_maps(e)
        assert validate_structure_maps(pair).ok
        assert structure_maps_to_psi(pair).psi == e.psi

    def test_trivial_coalgebra_gives_multiplication(self, z2_hopf):
        a = z2_hopf.algebra
        c = field_coalgebra(QQ)
        e = flip_entwining(a, c)
        pair = psi_to_structure_maps(e)
        assert pair.mu == a.mult_matrix
        assert structure_maps_to_psi(pair).psi == e.psi

    def test_corrupted_pair_rejected_with_difference(self, z2_hopf):
        e = flip_entwining(z2_hopf.algebra, z2_hopf.coalgebra)
        pair = psi_to_structure_maps(e)
        rows = [list(r) for r in pair.mu.entries]
        rows[0][0] = Fraction(5)
        bad = StructureMapPair(pair.algebra, pair.coalgebra, Matrix(pair.mu.rows, pair.mu.cols, tuple(tuple(r) for r in rows), QQ), pair.delta)
        with pytest.raises(AxiomViolation) as err:
            structure_maps_to_psi(bad)
        assert err.value.report is not None


def random_transport(dim, entries):
    m = Matrix.from_rows([entries[i * dim : (i + 1) * dim] for i in range(dim)], GF7)
    return None if isinstance(try_invert(m), NotInvertible) else m


class TestFlipProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["Z1", "Z2", "Z3"]),
        st.sampled_from(["Z1", "Z2", "Z3"]),
        st.lists(st.integers(0, 6), min_size=9, max_size=9),
        st.lists(st.integers(0, 6), min_size=9, max_size=9),
    )
    def test_flip_valid_on_random_structures(self, ga, gc, ta, tc):
        ha = group_algebra({"group": ga}, GF7)
        hc = group_algebra({"group": gc}, GF7)
        mat_a = random_transport(ha.dim, ta)
        mat_c = random_transport(hc.dim, tc)
        algebra = transport_algebra(ha.algebra, mat_a) if mat_a is not None else ha.algebra
        coalgebra = transport_coalgebra(hc.coalgebra, mat_c) if mat_c is not None else hc.coalgebra
        e = flip_entwining(algebra, coalgebra)
        assert validate_entwining(e).ok

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(["Z1", "Z2", "Z3"]),
        st.sampled_from(["Z1", "Z2", "Z3"]),
        st.lists(st.integers(0, 6), min_size=9, max_size=9),
        st.lists(st.integers(0, 6), min_size=9, max_size=9),
    )
    def test_pair_round_trip_identities(self, ga, gc, ta, tc):
        ha = group_algebra({"group": ga}, GF7)
        hc = group_algebra({"group": gc}, GF7)
        mat_a = random_transport(ha.dim, ta)
        mat_c = random_transport(hc.dim, tc)
        algebra = transport_algebra(ha.algebra, mat_a) if mat_a is not None else ha.algebra
        coalgebra = transport_coalgebra(hc.coalgebra, mat_c) if mat_c is not None else hc.coalgebra
        e = flip_entwining(algebra, coalgebra)
        pair = psi_to_structure_maps(e)
        assert structure_maps_to_psi(pair).psi == e.psi
