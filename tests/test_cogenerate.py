import pytest

import dense_oracles as dense
from dense_oracles import chain_projection_matrix
from entwine.catalogue import GROUPS, coset_coideal, dual_group_algebra, group_algebra, self_extension, subgroup_closure
from entwine.cogalois import quotient_coalgebra
from entwine.cogenerate import (
    COGENERATES,
    DOES_NOT_COGENERATE,
    INCONCLUSIVE,
    cogeneration_check,
    coinvariant_intersection_check,
)
from entwine.errors import DimensionMismatch, NotCoideal
from entwine.exactlin import Subspace, kernel, kron
from entwine.fields import QQ
from entwine.galois import coinvariant_system
from entwine.structures import ComoduleAlgebra

# The coset-coideal generators of the cogenerate benchmark: 25 + 9 ordered pairs.
COSET_GENERATORS = {"S3": ("e", "(12)", "(13)", "(23)", "(123)"), "Z4": ("1", "g2", "g")}
COSET_PAIRS = [(group, a, b) for group, names in COSET_GENERATORS.items() for a in names for b in names]


def cogenerate(c, coideal_1, coideal_2, cutoff=None):
    return cogeneration_check(c, quotient_coalgebra(c, coideal_1), quotient_coalgebra(c, coideal_2), cutoff)


@pytest.fixture(scope="module")
def s3_coideals():
    return (
        coset_coideal({"group": "S3"}, "(12)"),
        coset_coideal({"group": "S3"}, "(123)"),
    )


@pytest.fixture(scope="module")
def z4_coideal():
    return coset_coideal({"group": "Z4"}, "g2")


class TestChainMatrix:
    def test_single_projection_zero_coideal(self, z2_hopf):
        zero = Subspace.zero_subspace(2, QQ)
        w = chain_projection_matrix(z2_hopf.coalgebra, zero, zero, [1])
        assert w.is_identity

    def test_single_projection_kernel(self, z2_hopf):
        sub = coset_coideal({"group": "Z2"}, "g")
        w = chain_projection_matrix(z2_hopf.coalgebra, sub, sub, [1])
        assert kernel(w) == sub

    def test_s3_mixed_chain_shrinks_kernel(self, s3_hopf, s3_coideals):
        i1, i2 = s3_coideals
        single_1 = chain_projection_matrix(s3_hopf.coalgebra, i1, i2, [1])
        single_2 = chain_projection_matrix(s3_hopf.coalgebra, i1, i2, [2])
        mixed = chain_projection_matrix(s3_hopf.coalgebra, i1, i2, [1, 2])
        k1, k2, km = kernel(single_1), kernel(single_2), kernel(mixed)
        assert km.dim < k1.dim and km.dim < k2.dim

    def test_rejects_bad_chain(self, z2_hopf):
        zero = Subspace.zero_subspace(2, QQ)
        with pytest.raises(DimensionMismatch):
            chain_projection_matrix(z2_hopf.coalgebra, zero, zero, [])
        with pytest.raises(DimensionMismatch):
            chain_projection_matrix(z2_hopf.coalgebra, zero, zero, [3])

    def test_rejects_non_coideal(self, z2_hopf):
        bad = Subspace.from_spanning([[1, 0]], 2, QQ)
        with pytest.raises(NotCoideal):
            quotient_coalgebra(z2_hopf.coalgebra, bad)


class TestCogeneration:
    def test_s3_generating_subgroups(self, s3_hopf, s3_coideals):
        report = cogenerate(s3_hopf.coalgebra, *s3_coideals, cutoff=7)
        assert report.verdict == COGENERATES
        assert report.stabilized_at == 2
        assert dense.final_kernel(report).dim == 0

    def test_z4_non_generating_subgroup(self, z4_coideal):
        h = group_algebra({"group": "Z4"})
        report = cogenerate(h.coalgebra, z4_coideal, z4_coideal)
        assert report.verdict == DOES_NOT_COGENERATE
        assert dense.invariance_by_spanning(h.coalgebra, (z4_coideal, z4_coideal), dense.final_kernel(report))
        assert dense.final_kernel(report).dim == 2

    def test_zero_coideals_cogenerate_at_length_one(self, z2_hopf):
        zero = Subspace.zero_subspace(2, QQ)
        report = cogenerate(z2_hopf.coalgebra, zero, zero)
        assert report.verdict == COGENERATES
        assert report.stabilized_at == 1

    def test_kernels_weakly_decreasing(self, s3_hopf, s3_coideals):
        report = cogenerate(s3_hopf.coalgebra, *s3_coideals, cutoff=3)
        dims = [k.dim for k in report.kernels_by_length]
        assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_two_transpositions_decide_at_length_three(self):
        # functions on S3: words of length three in two transpositions reach all of S3
        c = dual_group_algebra({"group": "S3"}).coalgebra
        report = cogenerate(c, _subgroup_annihilator("S3", "(12)"), _subgroup_annihilator("S3", "(13)"))
        assert [k.dim for k in report.kernels_by_length] == [3, 1, 0]
        assert report.verdict == COGENERATES and report.stabilized_at == 3

    def test_cutoff_one_inconclusive_when_kernel_nonzero(self, s3_hopf, s3_coideals):
        report = cogenerate(s3_hopf.coalgebra, *s3_coideals, cutoff=1)
        assert report.verdict == INCONCLUSIVE
        assert dense.final_kernel(report).dim > 0


def _profile(report):
    return list(report.kernels_by_length), report.verdict, report.stabilized_at


def _against_chains(c, coideal_1, coideal_2):
    """The fixed point agrees with the chain enumeration at every cutoff up to
    dim C + 1 and decides at the default cutoff."""
    for cutoff in range(1, c.dim + 2):
        assert _profile(cogenerate(c, coideal_1, coideal_2, cutoff)) == dense.chain_kernels(
            c, coideal_1, coideal_2, cutoff
        )
    assert cogenerate(c, coideal_1, coideal_2).verdict != INCONCLUSIVE


def _subgroup_annihilator(group, generator):
    """Functions on G vanishing on <generator>: a coideal of the dual group
    algebra, with quotient the functions on the subgroup."""
    names, table, _ = GROUPS[group]
    members = subgroup_closure(table, [names.index(generator)])
    n = len(names)
    return Subspace.from_spanning([[int(k == i) for k in range(n)] for i in range(n) if i not in members], n, QQ)


class TestFixedPointAgainstChains:
    @pytest.mark.parametrize("group,first,second", COSET_PAIRS)
    def test_coset_pairs(self, group, first, second):
        c = group_algebra({"group": group}).coalgebra
        _against_chains(c, coset_coideal({"group": group}, first), coset_coideal({"group": group}, second))

    @pytest.mark.parametrize("first,second", [("(12)", "(13)"), ("(12)", "(123)"), ("(123)", "(132)"), ("e", "(23)")])
    def test_dual_s3_subgroup_pairs(self, first, second):
        c = dual_group_algebra({"group": "S3"}).coalgebra
        _against_chains(c, _subgroup_annihilator("S3", first), _subgroup_annihilator("S3", second))


class TestCoinvariantIntersection:
    def test_s3_equality(self, s3_hopf, s3_coideals):
        x = self_extension(s3_hopf)
        report = coinvariant_intersection_check(x, cogenerate(x.coalgebra, *s3_coideals, cutoff=7))
        assert report.inclusion_holds and report.equality_holds
        assert dense.consistent(report)
        assert report.full_coinvariants.dim == 1
        # the quotient by the normal subgroup keeps its three cosets invariant
        assert {s.dim for s in report.quotient_coinvariants} == {1, 3}

    def test_z4_strict_inclusion(self, z4_coideal):
        h = group_algebra({"group": "Z4"})
        x = self_extension(h)
        report = coinvariant_intersection_check(x, cogenerate(x.coalgebra, z4_coideal, z4_coideal))
        assert report.inclusion_holds
        assert not report.equality_holds
        assert dense.consistent(report)
        assert "hypothesis absent" in report.note
        assert report.full_coinvariants.dim == 1
        assert report.intersection.dim == 2

    @pytest.mark.parametrize("group,first,second", COSET_PAIRS)
    def test_quotient_systems_are_pushed_through_the_quotients(self, group, first, second):
        h = group_algebra({"group": group})
        x = self_extension(h)
        a = x.algebra
        quotients = [quotient_coalgebra(h.coalgebra, coset_coideal({"group": group}, g)) for g in (first, second)]
        report = coinvariant_intersection_check(x, cogeneration_check(h.coalgebra, *quotients))
        assert report.full_coinvariants == dense.coinvariants_by_basis(x)
        system = coinvariant_system(x)
        for (base, pi), sub in zip(quotients, report.quotient_coinvariants):
            quotient_x = ComoduleAlgebra(a, base, kron(a.identity_matrix, pi) @ x.coaction)
            # (A (x) pi) . D is the system built from the quotient coaction itself
            assert kron(a.identity_matrix, pi) @ system == coinvariant_system(quotient_x)
            assert sub == dense.coinvariants_by_basis(quotient_x)

    def test_zero_coideal_collapses(self, z2_hopf, z2_self_extension):
        zero = Subspace.zero_subspace(2, QQ)
        report = coinvariant_intersection_check(z2_self_extension, cogenerate(z2_hopf.coalgebra, zero, zero))
        assert report.equality_holds and report.inclusion_holds
        assert report.full_coinvariants == report.intersection
