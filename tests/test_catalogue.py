import pytest

from dense_oracles import dual_group_algebra_by_table
from entwine.catalogue import (
    EXAMPLE_NAMES,
    build,
    coset_coideal,
    dual_group_algebra,
    group_algebra,
    subgroup_closure,
    validate_cayley_table,
)
from entwine.cogalois import coideal_checks
from entwine.errors import BadParams, UnknownExample
from entwine.exactlin import quotient
from entwine.fields import GF, QQ
from entwine.galois import galois_check
from entwine.structures import (
    validate_comodule,
    validate_hopf,
    validate_module,
    verify_character,
    verify_grouplike,
)


class TestGroups:
    def test_s3_table_is_a_group(self, s3_hopf):
        assert s3_hopf.dim == 6
        assert validate_hopf(s3_hopf).ok

    def test_subgroup_closure(self):
        from entwine.catalogue import GROUPS

        _, table, _ = GROUPS["S3"]
        assert subgroup_closure(table, [1]) == (0, 1)          # <(12)>
        assert len(subgroup_closure(table, [4])) == 3          # <(123)>
        assert len(subgroup_closure(table, [1, 4])) == 6       # together generate S3

    def test_validate_cayley_table_rejects_nonassociative(self):
        with pytest.raises(BadParams):
            validate_cayley_table([[0, 1], [1, 1]])

    def test_validate_cayley_table_rejects_no_identity(self):
        with pytest.raises(BadParams):
            validate_cayley_table([[1, 1], [1, 1]])

    def test_custom_table_must_list_identity_first(self):
        # a relabeled Z2 whose identity is element 1 is rejected as input
        with pytest.raises(BadParams):
            group_algebra({"table": [[1, 0], [0, 1]]})

    def test_custom_table_accepted(self):
        h = group_algebra({"table": [[0, 1], [1, 0]], "names": ["1", "t"]})
        assert validate_hopf(h).ok


class TestBuild:
    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_every_example_builds_validated_structures(self, name):
        ex = build(name)
        for key, value in ex.structures.items():
            if key == "hopf":
                assert validate_hopf(value).ok
            elif key == "comodule_algebra":
                assert validate_comodule(value.comodule).ok
            elif key == "module_coalgebra":
                assert validate_module(value.module).ok
            elif key == "entwining":
                from entwine.entwining import validate_entwining

                assert validate_entwining(value).ok
            elif key == "grouplikes":
                for g in value:
                    assert verify_grouplike(g.coalgebra, g.coords)
            elif key == "characters":
                for k in value:
                    assert verify_character(k.algebra, k.coords)
            elif key == "coideals":
                coalgebra = ex.structures["hopf"].coalgebra
                for sub in value:
                    assert all(chk.ok for chk in coideal_checks(coalgebra, quotient(coalgebra.dim, sub)))

    def test_deterministic(self):
        a = build("sweedler-h4")
        b = build("sweedler-h4")
        assert a.structures["hopf"] == b.structures["hopf"]
        ca = build("coset-coideal", {"group": "S3"})
        cb = build("coset-coideal", {"group": "S3"})
        assert ca.structures["coideals"] == cb.structures["coideals"]

    def test_group_algebra_over_prime_field(self):
        ex = build("group-algebra", {"group": "Z3", "p": 7})
        assert ex.field == GF(7)
        assert validate_hopf(ex.structures["hopf"]).ok

    def test_quadratic_field_extension_galois(self):
        ex = build("quadratic-field-extension", {"d": 2})
        cert = galois_check(ex.structures["comodule_algebra"])
        assert cert.is_galois and cert.rank == 4

    def test_quadratic_rejects_zero(self):
        with pytest.raises(BadParams):
            build("quadratic-field-extension", {"d": 0})

    def test_sweedler_rejects_characteristic_two(self):
        with pytest.raises(BadParams):
            build("sweedler-h4", {"p": 2})

    def test_unknown_example(self):
        with pytest.raises(UnknownExample):
            build("nonexistent")

    def test_unknown_group(self):
        with pytest.raises(BadParams):
            build("group-algebra", {"group": "Q8"})

    def test_bad_prime(self):
        with pytest.raises(BadParams):
            build("group-algebra", {"p": 6})


class TestDualGroupAlgebra:
    def test_unit_is_grouplike_in_dual(self):
        h = dual_group_algebra({"group": "Z3"})
        assert verify_grouplike(h.coalgebra, h.algebra.unit)

    def test_counit_is_character_in_dual(self):
        h = dual_group_algebra({"group": "S3"})
        assert verify_character(h.algebra, h.coalgebra.counit)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
    @pytest.mark.parametrize(
        "params",
        [
            {"group": "Z1"},
            {"group": "Z2"},
            {"group": "Z3"},
            {"group": "Z4"},
            {"group": "S3"},
            {"table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], "names": "e,a,b,ab"},
        ],
        ids=["Z1", "Z2", "Z3", "Z4", "S3", "table"],
    )
    def test_dual_of_group_algebra_matches_the_table(self, params, field):
        # names, structure constants, unit, counit and antipode
        assert dual_group_algebra(params, field) == dual_group_algebra_by_table(params, field)


class TestCosetCoideal:
    def test_z2(self, z2_hopf):
        sub = coset_coideal({"group": "Z2"}, "g")
        assert sub.dim == 1
        assert all(chk.ok for chk in coideal_checks(z2_hopf.coalgebra, quotient(2, sub)))

    def test_s3_dims(self, s3_hopf):
        assert coset_coideal({"group": "S3"}, "(12)").dim == 3
        assert coset_coideal({"group": "S3"}, "(123)").dim == 4

    def test_unknown_element(self):
        with pytest.raises(BadParams):
            coset_coideal({"group": "S3"}, "(14)")
