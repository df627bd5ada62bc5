from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import middle_linear_system, vectorize
from support import rref, subspace_sum
from entwine.errors import DimensionMismatch, FieldMismatch
from entwine.exactlin import (
    Bijectivity,
    Matrix,
    Subspace,
    basis_vector,
    decide_bijection,
    flip_map,
    image,
    intersect,
    kernel,
    kron,
    quotient,
    stack_rows,
    tensor_permutation,
)
from entwine.fields import GF, QQ

GF2 = GF(2)
GF7 = GF(7)


def M(rows, field=QQ):
    return Matrix.from_rows(rows, field)


class TestRref:
    def test_identity_already_reduced(self):
        assert rref(Matrix.identity(3, QQ)) == Matrix.identity(3, QQ)

    def test_rank_one_rational(self):
        # hand elimination: second row is half the first
        assert rref(M([[2, 4], [1, 2]])) == M([[1, 2], [0, 0]])

    def test_rank_one_gf2(self):
        # hand elimination mod 2
        assert rref(M([[1, 1], [1, 1]], GF2)) == M([[1, 1], [0, 0]], GF2)

    def test_deterministic(self):
        m = M([[0, 2, 1], [3, 1, 1], [3, 3, 2]])
        assert rref(m) == rref(m)


class TestKernel:
    def test_zero_map_full_kernel(self):
        assert kernel(Matrix.zero(2, 2, QQ)) == Subspace.full(2, QQ)

    def test_identity_zero_kernel(self):
        assert kernel(Matrix.identity(2, QQ)).dim == 0

    def test_difference_functional(self):
        # hand solve of x - y = 0
        assert kernel(M([[1, -1]])).basis == ((Fraction(1), Fraction(1)),)


class TestImageSumIntersect:
    def test_image_of_identity(self):
        assert image(Matrix.identity(3, QQ)) == Subspace.full(3, QQ)

    def test_intersect_axes(self):
        e1 = Subspace.from_spanning([[1, 0]], 2, QQ)
        e2 = Subspace.from_spanning([[0, 1]], 2, QQ)
        assert intersect(e1, e2).dim == 0

    def test_sum_spans_plane(self):
        e1 = Subspace.from_spanning([[1, 0]], 2, QQ)
        diag = Subspace.from_spanning([[1, 1]], 2, QQ)
        assert subspace_sum(e1, diag) == Subspace.full(2, QQ)

    def test_contains(self):
        s = Subspace.from_spanning([[1, 0, 1], [0, 1, 1]], 3, QQ)
        assert s.contains_vector((1, 1, 2))
        assert not s.contains_vector((1, 1, 1))

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            intersect(Subspace.full(2, QQ), Subspace.full(2, GF7))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_sum(Subspace.full(2, QQ), Subspace.full(3, QQ))


def inverse(m: Matrix) -> Matrix | None:
    return decide_bijection(m, Matrix.identity(m.rows, m.field)).solution


class TestInvert:
    def test_identity(self):
        assert inverse(Matrix.identity(4, QQ)) == Matrix.identity(4, QQ)

    def test_involution(self):
        swap = M([[0, 1], [1, 0]])
        assert inverse(swap) == swap

    def test_singular_carries_witness(self):
        res = decide_bijection(M([[1, 1], [1, 1]]), Matrix.identity(2, QQ))
        assert res == Bijectivity(1, None, (Fraction(1), Fraction(-1)))

    def test_not_square(self):
        assert inverse(Matrix.zero(2, 3, QQ)) is None

    def test_exact_two_sided(self):
        m = M([[2, 1], [1, 1]])
        inv = inverse(m)
        assert (m @ inv).is_identity and (inv @ m).is_identity


class TestDecideBijection:
    def test_bijective_carries_the_solution(self):
        m = M([[2, 1], [1, 1]])
        rhs = M([[1], [3]])
        decision = decide_bijection(m, rhs)
        assert decision.rank == 2 and decision.witness is None
        assert m @ decision.solution == rhs

    def test_zero_width_rhs_decides_alone(self):
        decision = decide_bijection(M([[2, 1], [1, 1]]), Matrix.zero(2, 0, QQ))
        assert decision == Bijectivity(2, Matrix.zero(2, 0, QQ), None)

    def test_singular_square_gives_kernel_witness(self):
        decision = decide_bijection(M([[1, 1], [1, 1]]), Matrix.zero(2, 0, QQ))
        assert decision.rank == 1 and decision.solution is None
        assert decision.witness == (Fraction(1), Fraction(-1))

    def test_wide_map_gives_kernel_witness(self):
        m = M([[1, 0, 1], [0, 1, 1]])
        decision = decide_bijection(m, Matrix.identity(2, QQ))
        assert decision.rank == 2 and decision.solution is None
        assert all(not x for x in m.apply(decision.witness))

    def test_injective_tall_map_gives_first_missed_basis_vector(self):
        decision = decide_bijection(M([[1], [0], [0]]), Matrix.identity(3, QQ))
        assert decision.rank == 1 and decision.solution is None
        assert decision.witness == basis_vector(3, 1, QQ)

    def test_empty_map_is_bijective(self):
        decision = decide_bijection(Matrix.zero(0, 0, QQ), Matrix.zero(0, 0, QQ))
        assert decision.rank == 0 and decision.solution == Matrix.zero(0, 0, QQ)


class TestKron:
    def test_id_kron_id(self):
        assert kron(Matrix.identity(2, QQ), Matrix.identity(3, QQ)) == Matrix.identity(6, QQ)

    def test_scalars(self):
        assert kron(M([[2]]), M([[3]])) == M([[6]])

    def test_block_selection(self):
        # projecting off the second factor of a 2-dim left slot
        assert kron(M([[1, 0]]), Matrix.identity(2, QQ)) == M([[1, 0, 0, 0], [0, 1, 0, 0]])

    def test_index_convention(self):
        # e_i (x) e_j  |->  flat index i*dim2 + j
        f = M([[0, 1], [1, 0]])
        g = Matrix.identity(2, QQ)
        v = [0, 1, 0, 0]  # e_0 (x) e_1
        assert kron(f, g).apply(v) == (0, 0, 0, 1)  # e_1 (x) e_1

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            kron(Matrix.identity(2, QQ), Matrix.identity(2, GF7))


class TestQuotient:
    def test_no_relations(self):
        q = quotient(3, Subspace.zero_subspace(3, QQ))
        assert q.quotient_dim == 3
        assert q.projection == Matrix.identity(3, QQ)

    def test_full_relations(self):
        q = quotient(2, Subspace.full(2, QQ))
        assert q.quotient_dim == 0

    def test_line_relation(self):
        rel = Subspace.from_spanning([[1, -1]], 2, QQ)
        q = quotient(2, rel)
        assert q.quotient_dim == 1
        # both basis vectors land on the same generator
        assert q.projection.column(0) == q.projection.column(1)

    def test_projection_section_identity(self):
        rel = Subspace.from_spanning([[1, 2, 0], [0, 0, 1]], 3, QQ)
        q = quotient(3, rel)
        assert (q.projection @ q.section).is_identity
        assert kernel(q.projection) == rel


class TestPermutations:
    def test_flip_squares_to_identity(self):
        f = flip_map(2, 3, QQ)
        g = flip_map(3, 2, QQ)
        assert (g @ f).is_identity

    def test_three_factor_reversal(self):
        p = tensor_permutation((2, 3, 2), (2, 1, 0), QQ)
        v = [0] * 12
        v[1 * 6 + 2 * 2 + 1] = 1  # e_1 (x) e_2 (x) e_1
        out = p.apply(v)
        assert out[1 * 6 + 2 * 2 + 1] == 1

    def test_middle_swap(self):
        p = tensor_permutation((2, 2, 2, 2), (0, 2, 1, 3), QQ)
        v = [0] * 16
        v[0b0110] = 1  # e_0 e_1 e_1 e_0
        assert p.apply(v)[0b0110] == 1
        w = [0] * 16
        w[0b0100] = 1  # e_0 e_1 e_0 e_0 -> e_0 e_0 e_1 e_0
        assert p.apply(w)[0b0010] == 1


class TestMiddleLinearSystem:
    def test_matches_direct_composite(self):
        left = M([[1, 2, 0, 1], [0, 1, 1, 0]])  # 2 x (2*2)
        right = M([[1, 0], [2, 1], [0, 3], [1, 1]])  # (2*2) x 2
        unknown = M([[1, 5], [2, 0]])
        big = middle_linear_system(left, right, 2, 2, 2)
        direct = left @ kron(Matrix.identity(2, QQ), unknown) @ right
        assert big.apply(vectorize(unknown)) == vectorize(direct)


def gf7_matrices(max_dim=8):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, 6), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(lambda rows: Matrix.from_rows(rows, GF7))
        )
    )


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(gf7_matrices())
    def test_rank_nullity(self, m):
        assert kernel(m).dim + image(m).dim == m.cols

    @settings(max_examples=40, deadline=None)
    @given(gf7_matrices(max_dim=5))
    def test_invert_is_two_sided(self, m):
        if m.rows != m.cols:
            return
        decision = decide_bijection(m, Matrix.identity(m.rows, GF7))
        res = decision.solution
        if res is None:
            assert decision.rank < m.rows
            assert decision.witness is not None
            assert all(not x for x in m.apply(decision.witness))
        else:
            assert (m @ res).is_identity and (res @ m).is_identity

    @settings(max_examples=40, deadline=None)
    @given(gf7_matrices(max_dim=5))
    def test_quotient_invariants(self, m):
        rel = image(m) if m.rows == m.cols else kernel(m)
        q = quotient(rel.ambient_dim, rel)
        assert (q.projection @ q.section).is_identity
        assert kernel(q.projection) == rel
        delta = q.section @ q.projection - Matrix.identity(rel.ambient_dim, GF7)
        assert image(delta).dim <= rel.dim and rel.contains_subspace(image(delta))

    @settings(max_examples=30, deadline=None)
    @given(gf7_matrices(max_dim=3), gf7_matrices(max_dim=3), gf7_matrices(max_dim=2))
    def test_kron_associative(self, a, b, c):
        assert kron(kron(a, b), c) == kron(a, kron(b, c))

    @settings(max_examples=30, deadline=None)
    @given(gf7_matrices(max_dim=4))
    def test_rref_idempotent(self, m):
        assert rref(rref(m)) == rref(m)

    @settings(max_examples=30, deadline=None)
    @given(gf7_matrices(max_dim=4), gf7_matrices(max_dim=4))
    def test_kron_multiplicative(self, a, b):
        ata = a.transpose() @ a
        btb = b.transpose() @ b
        assert kron(ata, btb) == kron(a.transpose(), b.transpose()) @ kron(a, b)


class TestBasics:
    def test_stack_rows(self):
        s = stack_rows([Matrix.identity(2, QQ), Matrix.zero(1, 2, QQ)])
        assert s.rows == 3 and s.column(0) == (1, 0, 0)

    def test_basis_vector(self):
        assert basis_vector(3, 1, QQ) == (0, 1, 0)

    def test_rank(self):
        assert image(M([[1, 2], [2, 4], [0, 1]])).dim == 2

    def test_empty_matrix_shapes(self):
        z = Matrix.zero(0, 3, QQ)
        assert z.transpose().rows == 3 and z.transpose().cols == 0
