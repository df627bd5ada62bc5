"""The nonzero-indexed kernels of exactlin (and residual checks and report
details) against the dense oracles, over QQ and GF(7), on random densities, zero rows
and columns, repeated rows, empty shapes and singular inputs; the packed
accumulator against the dict one, at the limits of its slots and on
unreduced entries, and the products that pick it against the dense oracles,
over GF(2), GF(7), GF(2^31 - 1) and GF(2^61 - 1); the products by operands
whose rows are empty or one term, which place rows when every term is a
unit, against the dense oracles over QQ, GF(2), GF(7) and GF(2^61 - 1);
the Kronecker products applied
without an identity factor and the leg products against kron_dense and the
dense product, and the product in a tensor product against its formed
middle swap, over QQ, GF(7) and GF(2), with unreduced entries over GF(2),
GF(7) and GF(2^61 - 1); the tensor product of subspaces against the image of the
Kronecker product of their inclusions; the
quotient forms of the coideal and invariance tests against their
spanning-set forms; the block uniqueness system against the full one; and
every rational kernel against the all-Fraction form of its input."""

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracles as dense
from dense_oracles import middle_linear_system, vectorize
from support import rref
from entwine.catalogue import (
    coset_coideal,
    dual_group_algebra,
    group_algebra,
    group_self_coextension,
    quadratic_field_extension,
    self_extension,
    sweedler_hopf_algebra,
)
from entwine.cogalois import coextension_check, coideal_checks, dual_uniqueness
from entwine import exactlin
from entwine.cogenerate import _kernel_step
from entwine.errors import DimensionMismatch, FieldMismatch
from entwine.exactlin import (
    Matrix,
    NotInvertible,
    QuotientPresentation,
    Subspace,
    _combination,
    _combiner,
    _packing,
    _slot,
    apply_kron,
    basis_vector,
    column_matrix,
    image,
    intersect,
    kernel,
    kron,
    kron_apply,
    leg_product,
    leg_product_mirror,
    middle_block,
    quotient,
    rank,
    stack_rows,
    swap_product,
    tensor_permutation,
    tensor_subspace,
    try_invert,
)
from entwine.galois import entwining_uniqueness, galois_check
from entwine.fields import GF, QQ
from entwine.reports import matrix_detail, subspace_detail
from entwine.structures import residual_check
from entwine.suites import run_suite
from test_golden_reports import _documents as golden_documents

GF7 = GF(7)
GF2 = GF(2)
FIELDS = st.sampled_from([QQ, GF7])


def recomputed(rows) -> tuple:
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)


def assert_indexed(m: Matrix):
    """The index a kernel attached agrees with its dense entries and holds
    canonical scalars only."""
    assert m.nonzeros == recomputed(m.entries)
    assert len(m.entries) == m.rows and all(len(row) == m.cols for row in m.entries)
    assert all(m.field.coerce(x) == x for row in m.nonzeros for _, x in row)


def assert_subspace_indexed(s: Subspace):
    assert s.nonzeros == recomputed(s.basis)
    assert s.pivots == tuple(row.index(next(x for x in row if x)) for row in s.basis)


@st.composite
def scalars(draw, field):
    if field.is_prime_field:
        return draw(st.integers(0, 6))
    return draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))


def _nonzero(rnd, field):
    if field.is_prime_field:
        return rnd.randrange(1, 7)
    return Fraction(rnd.choice([-3, -2, -1, 1, 2, 3]), rnd.choice([1, 1, 2, 3]))


@st.composite
def matrices(draw, field, rows=None, cols=None):
    """Random density, with some rows and columns forced to zero."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    density = draw(st.sampled_from([0.5, 1.0, 0.2, 0.0]))  # hypothesis favours the first
    rnd = draw(st.randoms(use_true_random=False))
    zero_rows = {i for i in range(rows) if rnd.random() < 0.15}
    zero_cols = {j for j in range(cols) if rnd.random() < 0.15}
    data = [
        [
            _nonzero(rnd, field) if i not in zero_rows and j not in zero_cols and rnd.random() < density else 0
            for j in range(cols)
        ]
        for i in range(rows)
    ]
    # from_rows cannot tell the width of a matrix without rows
    return Matrix(rows, cols, Matrix.from_rows(data, field).entries, field)


@st.composite
def products(draw):
    field = draw(FIELDS)
    inner = draw(st.integers(0, 6))
    return draw(matrices(field, cols=inner)), draw(matrices(field, rows=inner))


@st.composite
def squares(draw, field=None):
    """Square matrices, some made singular by repeating a row."""
    field = draw(FIELDS) if field is None else field
    n = draw(st.integers(0, 6))
    m = draw(matrices(field, rows=n, cols=n))
    if n > 1 and draw(st.booleans()):
        rows = list(m.entries)
        rows[draw(st.integers(1, n - 1))] = rows[0]
        m = Matrix(n, n, tuple(rows), field)
    return m


@st.composite
def any_matrix(draw):
    return draw(matrices(draw(FIELDS)))


class TestProducts:
    @settings(max_examples=150, deadline=None)
    @given(products())
    def test_matmul_matches_dense(self, pair):
        a, b = pair
        out = a @ b
        assert (out.rows, out.cols) == (a.rows, b.cols)
        assert out.entries == dense.matmul(a, b)
        assert_indexed(out)

    @settings(max_examples=100, deadline=None)
    @given(FIELDS.flatmap(lambda f: st.tuples(matrices(f), matrices(f))))
    def test_kron_matches_dense(self, pair):
        a, b = pair
        out = kron(a, b)
        assert (out.rows, out.cols) == (a.rows * b.rows, a.cols * b.cols)
        assert out.entries == dense.kron_dense(a, b)
        assert_indexed(out)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_apply_matches_dense(self, data):
        m = data.draw(any_matrix())
        vec = data.draw(st.lists(scalars(m.field), min_size=m.cols, max_size=m.cols))
        vec = tuple(m.field.coerce(x) for x in vec)
        assert m.apply(vec) == dense.apply_dense(m, vec)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_multiply_matches_the_kronecker_column(self, data):
        field = data.draw(FIELDS)
        a = data.draw(
            st.sampled_from(
                [
                    group_algebra({"group": "Z1"}, field).algebra,
                    group_algebra({"group": "S3"}, field).algebra,
                    sweedler_hopf_algebra(field).algebra,
                ]
            )
        )
        x, y = (tuple(data.draw(st.lists(scalars(field), min_size=a.dim, max_size=a.dim))) for _ in range(2))
        product = dense.multiply(a, x, y)
        assert product == dense.apply_dense(a.mult_matrix, kron(column_matrix(x, field), column_matrix(y, field)).column(0))
        assert all(field.coerce(v) == v for v in product)

    def test_multiply_rejects_factors_of_the_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            dense.multiply(group_algebra({"group": "Z3"}).algebra, (1, 0), (1, 0, 0))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sum_difference_and_negation(self, data):
        field = data.draw(FIELDS)
        a = data.draw(matrices(field))
        b = data.draw(matrices(field, rows=a.rows, cols=a.cols))
        for out, op in ((a + b, field.add), (a - b, field.sub)):
            assert out.entries == tuple(tuple(op(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries))
            assert_indexed(out)
        assert_indexed(-a)
        assert (a - b).is_zero == (a == b)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=2, max_size=3).flatmap(
        lambda rows: st.tuples(FIELDS, st.integers(0, 4), st.just(rows))))
    def test_stack_and_transpose(self, args):
        field, cols, heights = args
        mats = [Matrix.from_rows([[(i + 2 * j) % 3 for j in range(cols)] for i in range(h)], field) for h in heights]
        mats = [m if m.rows else Matrix(0, cols, (), field) for m in mats]
        stacked = stack_rows(mats)
        assert stacked.entries == tuple(row for m in mats for row in m.entries)
        assert_indexed(stacked)
        flipped = stacked.transpose()
        assert (flipped.rows, flipped.cols) == (cols, stacked.rows)
        assert flipped.entries == tuple(tuple(row[j] for row in stacked.entries) for j in range(cols))
        assert_indexed(flipped)


    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_middle_linear_system_is_the_map_it_names(self, data):
        field = data.draw(FIELDS)
        f, r, c = (data.draw(st.integers(1, 3)) for _ in range(3))
        left = data.draw(matrices(field, cols=f * r))
        right = data.draw(matrices(field, rows=f * c))
        x = data.draw(matrices(field, rows=r, cols=c))
        system = middle_linear_system(left, right, f, r, c)
        assert_indexed(system)
        assert system.apply(vectorize(x)) == vectorize(left @ kron(Matrix.identity(f, field), x) @ right)


def dense_product(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.rows, b.cols, dense.matmul(a, b), a.field)


def dense_kron(x: Matrix, y: Matrix) -> Matrix:
    return Matrix(x.rows * y.rows, x.cols * y.cols, dense.kron_dense(x, y), x.field)


@st.composite
def kron_products(draw, fields=st.sampled_from([QQ, GF7, GF2])):
    """Factors x, y and matrices m, n over one field for kron(x, y) @ m and
    n @ kron(x, y); any dimension may be zero."""
    field = draw(fields)
    r1, c1, r2, c2, k = (draw(st.integers(0, 4)) for _ in range(5))
    x = draw(matrices(field, rows=r1, cols=c1))
    y = draw(matrices(field, rows=r2, cols=c2))
    return x, y, draw(matrices(field, rows=c1 * c2, cols=k)), draw(matrices(field, rows=k, cols=r1 * r2))


@st.composite
def identity_kron_products(draw, fields=st.sampled_from([QQ, GF7, GF2])):
    """As kron_products, with x, y or both an identity of any size from 0;
    m and n have empty rows and non-unit coefficients."""
    field = draw(fields)
    identities = draw(st.sampled_from(["x", "y", "both"]))
    r1, c1, r2, c2, k = (draw(st.integers(0, 4)) for _ in range(5))
    x = Matrix.identity(r1, field) if identities != "y" else draw(matrices(field, rows=r1, cols=c1))
    y = Matrix.identity(r2, field) if identities != "x" else draw(matrices(field, rows=r2, cols=c2))
    return x, y, draw(matrices(field, rows=x.cols * y.cols, cols=k)), draw(matrices(field, rows=k, cols=x.rows * y.rows))


class TestFusedKroneckerProducts:
    """kron_apply and apply_kron against the products with kron(x, y) formed first."""

    @settings(max_examples=200, deadline=None)
    @given(kron_products())
    def test_match_the_formed_kronecker_product(self, args):
        x, y, m, n = args
        left = kron_apply(x, y, m)
        assert left == dense_product(dense_kron(x, y), m)
        assert (left.rows, left.cols) == (x.rows * y.rows, m.cols)
        assert_indexed(left)
        right = apply_kron(n, x, y)
        assert right == dense_product(n, dense_kron(x, y))
        assert (right.rows, right.cols) == (n.rows, x.cols * y.cols)
        assert_indexed(right)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_two_factors_with_unreduced_entries(self, data):
        # two non-identity factors: the products are their definitions,
        # checked against kron(x, y) formed cell by cell and the dense product,
        # with every shape from 0 x n and n x 0 and entries from -3p to 3p
        field = GF(data.draw(st.sampled_from([2, 7, 2**61 - 1])))
        rnd = data.draw(st.randoms(use_true_random=False))
        r1, c1, r2, c2, k = (data.draw(st.integers(0, 3)) for _ in range(5))
        x, y = raw_matrix(rnd, field, r1, c1), raw_matrix(rnd, field, r2, c2)
        formed = dense_kron(x, y)
        m, n = raw_matrix(rnd, field, c1 * c2, k), raw_matrix(rnd, field, k, r1 * r2)
        left, right = kron_apply(x, y, m), apply_kron(n, x, y)
        assert reduced(left) == dense.matmul(formed, m)
        assert (left.rows, left.cols) == (r1 * r2, k)
        assert reduced(right) == dense.matmul(n, formed)
        assert (right.rows, right.cols) == (k, c1 * c2)

    @settings(max_examples=200, deadline=None)
    @given(identity_kron_products())
    def test_identity_factors_match_the_formed_kronecker_product(self, args):
        x, y, m, n = args
        left = kron_apply(x, y, m)
        assert left == dense_product(dense_kron(x, y), m)
        assert_indexed(left)
        right = apply_kron(n, x, y)
        assert right == dense_product(n, dense_kron(x, y))
        assert_indexed(right)

    @pytest.mark.parametrize("field", [QQ, GF7, GF2])
    def test_identity_factors_of_size_zero(self, field):
        i0, i2 = Matrix.identity(0, field), Matrix.identity(2, field)
        x = Matrix.from_rows([[3, 1], [0, 0], [1, 0]], field)
        for a, b in ((i0, x), (x, i0), (i0, i0), (i0, i2), (i2, i0)):
            m, n = Matrix.zero(a.cols * b.cols, 2, field), Matrix.zero(2, a.rows * b.rows, field)
            assert kron_apply(a, b, m) == dense_product(dense_kron(a, b), m)
            assert apply_kron(n, a, b) == dense_product(n, dense_kron(a, b))

    @pytest.mark.parametrize("field", [QQ, GF7, GF2])
    def test_two_identity_factors_share_the_rows_of_m(self, field):
        m = Matrix.from_rows([[1, 2], [0, 0], [3, 1], [0, 5], [4, 4], [1, 0]], field)
        out = kron_apply(Matrix.identity(2, field), Matrix.identity(3, field), m)
        assert out == m
        assert all(out.nonzeros[k] is m.nonzeros[k] for k in range(m.rows))

    @pytest.mark.parametrize("field", [QQ, GF7, GF2])
    @pytest.mark.parametrize("dims", [(0, 2, 2, 3), (2, 0, 3, 2), (2, 3, 0, 2), (3, 2, 2, 0), (0, 0, 0, 0)])
    def test_zero_row_and_zero_column_factors(self, field, dims):
        r1, c1, r2, c2 = dims

        def filled(rows, cols):
            return Matrix.from_triples(rows, cols, [(i, j, 1 + i + 2 * j) for i in range(rows) for j in range(cols)], field)

        x, y, m, n = filled(r1, c1), filled(r2, c2), filled(c1 * c2, 2), filled(2, r1 * r2)
        assert kron_apply(x, y, m) == dense_product(dense_kron(x, y), m)
        assert apply_kron(n, x, y) == dense_product(n, dense_kron(x, y))

    @pytest.mark.parametrize("field", [QQ, GF7, GF2])
    def test_empty_rows_and_non_unit_coefficients(self, field):
        x = Matrix.from_rows([[0, 0], [3, 1]], field)
        y = Matrix.from_rows([[1, 5], [0, 0], [2, 0]], field)
        m = Matrix.from_rows([[1, 2], [0, 3], [4, 0], [5, 5]], field)
        n = Matrix.from_rows([[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 2, 0], [1, 3, 0, 6, 1, 1]], field)
        out = kron_apply(x, y, m)
        assert out == dense_product(dense_kron(x, y), m)
        assert out.nonzeros[:3] == ((), (), ())  # the empty row of x
        assert apply_kron(n, x, y) == dense_product(n, dense_kron(x, y))

    def test_unit_products_mod_p_share_or_copy_rows(self):
        # 3 * 5 = 15 = 1 (mod 7): the one-term row of kron(x, y) @ m is row 0 of m
        x, y = Matrix.from_rows([[3]], GF7), Matrix.from_rows([[5]], GF7)
        m = Matrix.from_rows([[2, 0, 6]], GF7)
        out = kron_apply(x, y, m)
        assert out == dense_product(dense_kron(x, y), m) == m
        assert out.nonzeros[0] is m.nonzeros[0]
        n = Matrix.from_rows([[3]], GF7)
        assert apply_kron(n, Matrix.from_rows([[5]], GF7), Matrix.from_rows([[4, 0, 2]], GF7)) == Matrix.from_rows(
            [[4, 0, 2]], GF7
        )

    def test_bad_shapes_raise(self):
        x, y = Matrix.identity(2, QQ), Matrix.identity(3, QQ)
        with pytest.raises(DimensionMismatch):
            kron_apply(x, y, Matrix.zero(5, 1, QQ))
        with pytest.raises(DimensionMismatch):
            apply_kron(Matrix.zero(1, 5, QQ), x, y)
        with pytest.raises(FieldMismatch):
            kron_apply(x, Matrix.identity(3, GF7), Matrix.zero(6, 1, QQ))


@st.composite
def leg_products(draw, fields=st.sampled_from([QQ, GF7, GF2])):
    """x, z and legs (K, A, W) over one field, each leg of size 0 to 3, for
    kron(x, I_W) @ kron(I_K, z) (x has K*A columns, z has A*W rows) and,
    with the same shapes, kron(I_W, x) @ kron(z, I_K)."""
    field = draw(fields)
    k, a, w, rows, cols = (draw(st.integers(0, 3)) for _ in range(5))
    return draw(matrices(field, rows=rows, cols=k * a)), draw(matrices(field, rows=a * w, cols=cols)), (k, a, w)


def formed_leg_product(x: Matrix, z: Matrix, dims) -> Matrix:
    k, _, w = dims
    return dense_product(dense_kron(x, Matrix.identity(w, x.field)), kron(Matrix.identity(k, x.field), z))


def formed_mirror(x: Matrix, z: Matrix, dims) -> Matrix:
    k, _, w = dims
    return dense_product(dense_kron(Matrix.identity(w, x.field), x), kron(z, Matrix.identity(k, x.field)))


def s4_mult(field) -> Matrix:
    """The multiplication of k[S4] from its Cayley table, identity first."""
    perms = list(permutations(range(4)))
    index = {q: i for i, q in enumerate(perms)}
    table = [[index[tuple(g[h[i]] for i in range(4))] for h in perms] for g in perms]
    return group_algebra({"table": table}, field).algebra.mult_matrix


class TestLegProducts:
    """leg_product and leg_product_mirror against the products with both
    identity Kronecker factors formed first."""

    @settings(max_examples=300, deadline=None)
    @given(leg_products())
    def test_match_the_formed_factors(self, args):
        x, z, dims = args
        k, a, w = dims
        out = leg_product(x, z, dims)
        assert out == formed_leg_product(x, z, dims)
        assert (out.rows, out.cols) == (x.rows * w, k * z.cols)
        assert_indexed(out)
        mirrored = leg_product_mirror(x, z, dims)
        assert mirrored == formed_mirror(x, z, dims)
        assert (mirrored.rows, mirrored.cols) == (w * x.rows, z.cols * k)
        assert_indexed(mirrored)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_dense_products_mod_p_match_the_formed_factors(self, data):
        field = GF(data.draw(PRIMES))
        k, a, w, rows, cols = (data.draw(st.integers(1, 3)) for _ in range(5))
        x = data.draw(matrices_mod_p(field, rows, k * a))
        z = data.draw(matrices_mod_p(field, a * w, cols))
        for product, formed in ((leg_product, formed_leg_product), (leg_product_mirror, formed_mirror)):
            out = product(x, z, (k, a, w))
            assert out == formed(x, z, (k, a, w))
            assert_indexed(out)

    @pytest.mark.parametrize("field", [QQ, GF7, GF2])
    @pytest.mark.parametrize("dims", [(0, 2, 2), (2, 0, 2), (2, 2, 0), (0, 0, 0), (1, 3, 1), (3, 1, 2)])
    def test_legs_of_size_zero_and_one(self, field, dims):
        k, a, w = dims

        def filled(rows, cols):
            return Matrix.from_triples(rows, cols, [(i, j, 1 + i + 3 * j) for i in range(rows) for j in range(cols)], field)

        x, z = filled(2, k * a), filled(a * w, 3)
        assert leg_product(x, z, dims) == formed_leg_product(x, z, dims)
        assert leg_product_mirror(x, z, dims) == formed_mirror(x, z, dims)

    @pytest.mark.parametrize("field", [QQ, GF7])
    def test_empty_rows_and_non_unit_coefficients(self, field):
        x = Matrix.from_rows([[0, 0, 0, 0], [3, 0, 0, 2], [0, 5, 1, 0]], field)
        z = Matrix.from_rows([[1, 4, 0], [0, 0, 0], [2, 0, 6], [0, 3, 3]], field)
        for dims in ((2, 2, 2), (1, 4, 1)):
            assert leg_product(x, z, dims) == formed_leg_product(x, z, dims)
            assert leg_product_mirror(x, z, dims) == formed_mirror(x, z, dims)
        x2 = Matrix.from_rows([[0, 2], [4, 0]], field)
        assert leg_product(x2, z, (1, 2, 2)) == formed_leg_product(x2, z, (1, 2, 2))
        assert leg_product_mirror(x2, z, (1, 2, 2)) == formed_mirror(x2, z, (1, 2, 2))
        assert leg_product(x, z, (2, 2, 2)).nonzeros[:2] == ((), ())  # the empty row of x

    def test_bad_shapes_raise(self):
        x, z = Matrix.zero(2, 6, QQ), Matrix.zero(6, 1, QQ)
        with pytest.raises(DimensionMismatch):
            leg_product(x, z, (2, 3, 3))
        with pytest.raises(DimensionMismatch):
            leg_product_mirror(x, z, (3, 2, 2))
        with pytest.raises(FieldMismatch):
            leg_product(x, Matrix.zero(6, 1, GF7), (2, 3, 2))

    def test_a_sparse_s4_shaped_product_keeps_the_dict_kernel(self):
        # m and m with its legs swapped: each block of K = 24 columns holds
        # one or two terms, each row 24 to 48, and every row of z two
        # entries of 24.  Per block the terms touch 2 to 4 entries, under
        # the width, so the dict kernel serves; counted per output row they
        # would reach it and pick the packed kernel.
        m = s4_mult(GF7)
        swapped = m @ tensor_permutation((24, 24), (1, 0), GF7)
        x = m + swapped + swapped
        z = Matrix.from_triples(576, 24, [(r, c, 1 + r % 5) for r in range(576) for c in (r % 24, (r * 7 + 3) % 24)], GF7)
        assert exactlin._combiner(7, 24, z.nonzeros, x.nonzeros, blocks=24)[0] is _combination
        assert exactlin._combiner(7, 24, z.nonzeros, x.nonzeros)[0] is not _combination
        with packed_kernel_calls() as calls:
            out = leg_product(x, z, (24, 24, 24))
        assert calls == []
        assert out == formed_leg_product(x, z, (24, 24, 24))


PRIMES = st.sampled_from([2, 7, 2**31 - 1])


@st.composite
def index_rows(draw, cols, values):
    """One row of a nonzero index of width cols."""
    if not cols:
        return ()
    return tuple((j, draw(values)) for j in sorted(draw(st.sets(st.integers(0, cols - 1)))))


@st.composite
def row_combinations(draw):
    """(terms, rows, p, cols) for a row kernel over GF(p): reduced nonzero
    coefficients, unit ones often, some rows empty, widths from 0 to 70 and
    moduli from 2 to 2^61 - 1, past the widest slot."""
    p = draw(st.sampled_from([2, 7, 2**31 - 1, 2**61 - 1]))
    cols = draw(st.integers(0, 70))
    values = st.one_of(st.just(1), st.integers(1, p - 1))
    rows = draw(st.lists(index_rows(cols, values), max_size=6))
    terms = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), values), max_size=6)) if rows else []
    return terms, rows, p, cols


@st.composite
def matrices_mod_p(draw, field, rows, cols):
    """Dense random matrices over GF(p): every entry drawn from the whole field."""
    density = draw(st.sampled_from([1.0, 0.7, 0.3]))
    rnd = draw(st.randoms(use_true_random=False))
    data = [[rnd.randrange(1, field.p) if rnd.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    return Matrix(rows, cols, Matrix.from_rows(data, field).entries, field)


@contextmanager
def packed_kernel_calls():
    """The moduli of the calls made inside the block to _unpacked, which
    reads every packed row sum of two or more terms (and every output row
    of a packed leg product) of the products that pick the packed
    accumulator."""
    calls = []
    real = exactlin._unpacked

    def counted(acc, p, s, cols):
        calls.append(p)
        return real(acc, p, s, cols)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactlin, "_unpacked", counted)
        yield calls


def raw_matrix(rnd, field, rows, cols) -> Matrix:
    """A matrix over GF(p) built from unreduced entries, from -3p to 3p,
    most of them nonzero and some of them multiples of p."""
    p = field.p
    return Matrix(rows, cols, tuple(tuple(rnd.randrange(-3 * p, 3 * p) for _ in range(cols)) for _ in range(rows)), field)


def reduced(m: Matrix) -> tuple:
    return tuple(tuple(x % m.field.p for x in row) for row in m.entries)


class TestPackedAccumulator:
    """The packed accumulator against _combination, at and past the limits
    of its slots and on unreduced entries, and the products that pick it
    against the dense oracles."""

    @settings(max_examples=300, deadline=None)
    @given(row_combinations())
    def test_matches_the_dict_accumulator(self, case):
        terms, rows, p, cols = case
        kernel, pairs = _packing(p, cols, rows)
        assert (kernel is _combination) == (_slot(p, len(rows)) == 0)
        out = kernel(terms, pairs, p)
        assert out == _combination(terms, rows, p)
        assert all(0 < x < p for _, x in out)
        assert [j for j, _ in out] == sorted({j for j, _ in out})

    @pytest.mark.parametrize(
        "p, n, s",
        [(2, 2**16 - 1, 16), (2, 2**16, 32), (17, 255, 16), (17, 256, 32), (2**31 - 1, 4, 64), (2**31 - 1, 5, 0), (2**61 - 1, 2, 0)],
    )
    def test_a_cell_at_the_limit_of_its_slot(self, p, n, s):
        # every cell of x @ b sums n products (p - 1)^2: n (p - 1)^2 is
        # 2^16 - 1 or 2^16 for the first four cases, and past 2^64 for the
        # last two, where the dict kernel serves.  The entries are -1 and
        # 2p - 1, unreduced, so a slot holds the sum only if both are
        # reduced first.
        field = GF(p)
        assert _slot(p, n) == s
        top = ((0, 2 * p - 1), (1, 2 * p - 1), (2, 2 * p - 1))
        x = exactlin._from_index(1, n, [tuple((k, -1) for k in range(n))], field)
        b = exactlin._from_index(n, 3, [top] * n, field)
        cell = n * (p - 1) ** 2 % p
        with packed_kernel_calls() as calls:
            assert (x @ b).nonzeros == (((0, cell), (1, cell), (2, cell)) if cell else (),)
        assert calls == ([p] if s else [])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_unreduced_entries_in_every_product(self, data):
        field = GF(data.draw(st.sampled_from([2, 7, 2**31 - 1])))
        rnd = data.draw(st.randoms(use_true_random=False))
        k, a, w, r = (data.draw(st.integers(1, 3)) for _ in range(4))

        def raw(rows, cols):
            return raw_matrix(rnd, field, rows, cols)

        def formed(left, right):
            return Matrix(left.rows * right.rows, left.cols * right.cols, dense.kron_dense(left, right), field)

        ident_k, ident_w = Matrix.identity(k, field), Matrix.identity(w, field)
        x, m = raw(r, k * a), raw(k * a, 4)
        assert reduced(x @ m) == dense.matmul(x, m)
        z = raw(a * w, 5)
        assert reduced(leg_product(x, z, (k, a, w))) == dense.matmul(formed(x, ident_w), formed(ident_k, z))
        x, z = raw(r, a * k), raw(w * a, 5)
        assert reduced(leg_product_mirror(x, z, (k, a, w))) == dense.matmul(formed(ident_w, x), formed(z, ident_k))
        y = raw(w, 2)
        for left, right in ((x, y), (x, Matrix.identity(2, field)), (Matrix.identity(r, field), y)):
            kron_xy = formed(left, right)
            m, n = raw(kron_xy.cols, 4), raw(3, kron_xy.rows)
            assert reduced(kron_apply(left, right, m)) == dense.matmul(kron_xy, m)
            assert reduced(apply_kron(n, left, right)) == dense.matmul(n, kron_xy)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_products_match_the_dense_oracles(self, data):
        field = GF(data.draw(PRIMES))
        r1, c1, r2, c2, k = (data.draw(st.integers(0, 4)) for _ in range(5))
        x = data.draw(matrices_mod_p(field, r1, c1))
        y = data.draw(matrices_mod_p(field, r2, c2))
        b = data.draw(matrices_mod_p(field, c1, k))
        assert x @ b == dense_product(x, b)
        ix, iy = Matrix.identity(r1, field), Matrix.identity(r2, field)
        for left, right in ((x, y), (ix, y), (x, iy)):
            m = data.draw(matrices_mod_p(field, left.cols * right.cols, k))
            n = data.draw(matrices_mod_p(field, k, left.rows * right.rows))
            out = kron_apply(left, right, m)
            assert out == dense_product(dense_kron(left, right), m)
            assert_indexed(out)
            assert apply_kron(n, left, right) == dense_product(n, dense_kron(left, right))

    @pytest.mark.parametrize("p", [2, 7, 2**31 - 1])
    def test_both_combiners_run(self, p):
        field = GF(p)

        def filled(rows, cols):
            return Matrix.from_triples(rows, cols, [(i, j, 1 + i * j) for i in range(rows) for j in range(cols)], field)

        full, ident = filled(4, 4), Matrix.identity(2, field)
        with packed_kernel_calls() as calls:
            for out, expected in (
                (full @ full, dense_product(full, full)),
                (kron_apply(full, ident, filled(8, 3)), dense_product(dense_kron(full, ident), filled(8, 3))),
                (kron_apply(ident, full, filled(8, 3)), dense_product(dense_kron(ident, full), filled(8, 3))),
                (kron_apply(full, full, filled(16, 2)), dense_product(dense_kron(full, full), filled(16, 2))),
            ):
                assert out == expected
                assert_indexed(out)
        assert len(calls) >= 4 and set(calls) == {p}
        swap = tensor_permutation((2, 2), (1, 0), field)
        sparse = Matrix.from_rows([[1, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 0], [0, 1, 0, 0]], field)
        with packed_kernel_calls() as calls:
            assert swap @ sparse == dense_product(swap, sparse)
            assert kron_apply(swap, ident, kron(sparse, ident)) == dense_product(dense_kron(swap, ident), kron(sparse, ident))
        assert calls == []

    def test_the_rule(self):
        # 2 coefficients per output row times 2 entries per row of m reach a width of 4
        rows = (((0, 1), (1, 2)), ((2, 3), (3, 4)))
        twice = (((0, 1), (1, 1)),)
        once = (((0, 1),),)
        assert _combiner(7, 4, rows, twice)[0] is not _combination
        assert _combiner(7, 5, rows, twice) == (_combination, rows)
        assert _combiner(7, 4, rows, once) == (_combination, rows)
        assert _combiner(7, 4, rows, twice, twice)[0] is not _combination
        assert _combiner(None, 1, rows, twice) == (_combination, rows)

    @pytest.mark.parametrize("p", [2, 7, 2**31 - 1])
    def test_a_one_term_unit_row_is_shared_on_the_packed_path(self, p):
        field = GF(p)
        a = Matrix.from_rows([[1, 0], [1, 1]], field)
        b = Matrix.from_rows([[1, 1], [1, 1]], field)
        assert _combiner(p, b.cols, b.nonzeros, a.nonzeros)[0] is not _combination
        out = a @ b
        assert out == dense_product(a, b)
        assert out.nonzeros[0] is b.nonzeros[0]
        rows = (((0, 1),), ((1, 1),))
        kernel, pairs = _packing(p, 2, rows)
        assert kernel([(1, 1)], pairs, p) is rows[1]

    def test_no_rational_product_picks_the_list_accumulator(self):
        """On every golden document the packed accumulator runs only over GF(p)."""
        used = 0
        for label, doc in golden_documents():
            with packed_kernel_calls() as calls:
                run_suite(doc, "all")
            if doc.field.is_prime_field:
                assert set(calls) <= {doc.field.p}, label
                used += len(calls)
            else:
                assert calls == [], label
        assert used  # the GF(p) documents do reach it


# GF(2^61 - 1): no packed slot holds a sum of two products of its residues
GF61 = GF(2**61 - 1)
ROW_KINDS = ("empty", "unit", "scaled", "mixed")


@st.composite
def monomial_matrices(draw, field, rows, cols, kinds=ROW_KINDS):
    """rows x cols matrices whose rows are each of a kind drawn from kinds:
    empty, one term with coefficient 1, one term with another coefficient
    (which over GF(2) reduces to 1 or 0), or two or more terms."""
    data = []
    for _ in range(rows):
        row = [0] * cols
        kind = draw(st.sampled_from(kinds)) if cols else "empty"
        if kind != "empty":
            terms = draw(st.integers(2, cols)) if kind == "mixed" and cols > 1 else 1
            for j in draw(st.lists(st.integers(0, cols - 1), min_size=terms, max_size=terms, unique=True)):
                row[j] = 1 if kind == "unit" else draw(st.sampled_from([2, 3, -1, Fraction(1, 3)]))
        data.append(row)
    return Matrix(rows, cols, Matrix.from_rows(data, field).entries, field)


@contextmanager
def row_kernel_calls():
    """The names of the calls made inside the block to _combination and
    _packed, the row kernels and the packing of combined rows."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_combination", "_packed"):
            real = getattr(exactlin, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            patch.setattr(exactlin, name, counted)
        yield calls


class TestPlacement:
    """Products whose combining operand has rows that are empty or one term
    with coefficient 1 place the other operand's rows, and match the dense
    oracles like every other product."""

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_products_by_monomial_operands_match_the_dense_oracles(self, data):
        field = data.draw(st.sampled_from([QQ, GF2, GF7, GF61]))
        kinds = data.draw(st.sampled_from([("empty", "unit"), ("unit",), ("scaled",), ROW_KINDS]))
        r, c, k, w = (data.draw(st.integers(0, 3)) for _ in range(4))
        x = data.draw(monomial_matrices(field, r, c, kinds))
        one, ident = Matrix.identity(1, field), Matrix.identity(w, field)
        b = data.draw(matrices(field, c, k))
        products = [(x @ b, dense_product(x, b))]
        for left, right in ((x, ident), (ident, x), (x, one), (one, x), (x, x)):
            m = data.draw(matrices(field, left.cols * right.cols, k))
            products.append((kron_apply(left, right, m), dense_product(dense_kron(left, right), m)))
            n = data.draw(matrices(field, k, left.rows * right.rows))
            products.append((apply_kron(n, left, right), dense_product(n, dense_kron(left, right))))
        # x combining: m @ kron(I_1, y) and m @ kron(y, I_1) are leg products with K = 1
        products.append((apply_kron(x, one, b), dense_product(x, dense_kron(one, b))))
        products.append((apply_kron(x, b, one), dense_product(x, dense_kron(b, one))))
        z = data.draw(matrices(field, c * w, k))
        products.append((leg_product(x, z, (1, c, w)), dense_product(dense_kron(x, ident), z)))
        products.append((leg_product_mirror(x, z, (1, c, w)), dense_product(dense_kron(ident, x), z)))
        for out, expected in products:
            assert out == expected
            assert_indexed(out)

    @pytest.mark.parametrize("field", [QQ, GF2, GF7, GF61])
    def test_empty_shapes(self, field):
        for r, c in ((0, 3), (3, 0), (0, 0)):
            x, ident = Matrix.zero(r, c, field), Matrix.identity(2, field)
            b, z = Matrix.zero(c, 2, field), Matrix.zero(2 * c, 2, field)
            assert x @ b == Matrix.zero(r, 2, field)
            assert kron_apply(x, ident, Matrix.zero(2 * c, 2, field)) == Matrix.zero(2 * r, 2, field)
            assert kron_apply(ident, x, Matrix.zero(2 * c, 2, field)) == Matrix.zero(2 * r, 2, field)
            assert leg_product(x, z, (1, c, 2)) == Matrix.zero(2 * r, 2, field)
            assert leg_product_mirror(x, z, (1, c, 2)) == Matrix.zero(2 * r, 2, field)

    @pytest.mark.parametrize("field", [QQ, GF2, GF7, GF61])
    def test_placed_products_call_no_row_kernel(self, field):
        perm = tensor_permutation((2, 3), (1, 0), field)
        picks = Matrix.from_rows([[0, 0, 0, 1, 0, 0], [0] * 6, [1, 0, 0, 0, 0, 0]], field)
        filled = Matrix.from_triples(12, 5, [(i, j, 1 + i + 2 * j) for i in range(12) for j in range(5)], field)
        block, ident = Matrix.from_rows(filled.entries[:6], field), Matrix.identity(2, field)
        with row_kernel_calls() as calls:
            products = [
                (perm @ block, dense_product(perm, block)),
                (picks @ block, dense_product(picks, block)),
                (kron_apply(picks, ident, filled), dense_product(dense_kron(picks, ident), filled)),
                (kron_apply(ident, perm, filled), dense_product(dense_kron(ident, perm), filled)),
                (leg_product(picks, filled, (1, 6, 2)), dense_product(dense_kron(picks, ident), filled)),
                (leg_product_mirror(perm, filled, (1, 6, 2)), dense_product(dense_kron(ident, perm), filled)),
            ]
        assert calls == []
        for out, expected in products:
            assert out == expected
        # the placed rows are the other operand's, shared
        assert (picks @ block).nonzeros[0] is block.nonzeros[3]
        # a row of two terms takes a row kernel: over GF(2), GF(7) and Q
        # the one _combiner picks, and over GF(2^61 - 1) _combination
        with row_kernel_calls() as calls:
            assert Matrix.from_rows([[1, 1, 0, 0, 0, 0]], field) @ block == dense_product(
                Matrix.from_rows([[1, 1, 0, 0, 0, 0]], field), block
            )
        assert calls


@st.composite
def swap_products(draw, dims=None, fields=st.sampled_from([QQ, GF7, GF2])):
    """Factors x, y, f, g over one field for kron(x, y) @ mid_swap @ kron(f, g),
    with the four factor dimensions drawn independently from 0..3."""
    field = draw(fields)
    p1, q1, p2, q2 = dims if dims is not None else (draw(st.integers(0, 3)) for _ in range(4))
    v, w, rx, ry = (draw(st.integers(0, 3)) for _ in range(4))
    f = draw(matrices(field, rows=p1 * q1, cols=v))
    g = draw(matrices(field, rows=p2 * q2, cols=w))
    x = draw(matrices(field, rows=rx, cols=p1 * p2))
    y = draw(matrices(field, rows=ry, cols=q1 * q2))
    return x, y, f, g, (p1, q1, p2, q2)


class TestSwapProduct:
    """swap_product against the product with the middle swap and kron(f, g) formed first."""

    @settings(max_examples=300, deadline=None)
    @given(swap_products())
    def test_matches_the_formed_composite(self, args):
        x, y, f, g, dims = args
        out = swap_product(x, y, f, g, dims)
        assert out == dense.swap_product_formed(x, y, f, g, dims)
        assert (out.rows, out.cols) == (x.rows * y.rows, f.cols * g.cols)
        assert_indexed(out)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("dims", [(1, 2, 3, 2), (3, 1, 2, 3), (2, 3, 1, 1), (0, 1, 2, 3), (3, 2, 1, 0)])
    def test_distinct_factor_dimensions(self, dims, data):
        x, y, f, g, dims = data.draw(swap_products(dims))
        assert swap_product(x, y, f, g, dims) == dense.swap_product_formed(x, y, f, g, dims)

    @pytest.mark.parametrize("field", [QQ, GF7, GF2])
    def test_empty_rows_and_non_unit_coefficients(self, field):
        # dims (P, Q, P2, Q2) = (2, 1, 1, 2): f on P (x) Q, g on P2 (x) Q2
        f = Matrix.from_rows([[3, 0], [0, 0]], field)
        g = Matrix.from_rows([[5, 2, 0], [0, 4, 6]], field)
        x = Matrix.from_rows([[0, 0], [2, 3], [1, 0]], field)
        y = Matrix.from_rows([[0, 0], [6, 5]], field)
        out = swap_product(x, y, f, g, (2, 1, 1, 2))
        assert out == dense.swap_product_formed(x, y, f, g, (2, 1, 1, 2))
        assert out.nonzeros[:2] == ((), ())  # the empty row of x
        assert_indexed(out)

    @pytest.mark.parametrize("field", [QQ, GF7])
    def test_catalogue_products_in_a_tensor_product(self, field):
        # the three call sites: m (x) m on coproduct (x) coproduct, m (x) m_H
        # on coaction (x) coaction, and act (x) act on coproduct_C (x) coproduct_H
        for h in (group_algebra({"group": "S3"}, field), dual_group_algebra({"group": "S3"}, field)):
            m, d, n = h.algebra.mult_matrix, h.coalgebra.comult_matrix, h.algebra.dim
            assert swap_product(m, m, d, d, (n,) * 4) == dense.swap_product_formed(m, m, d, d, (n,) * 4)
        h = sweedler_hopf_algebra(field)
        x = self_extension(h)
        m, rho, n = h.algebra.mult_matrix, x.coaction, h.algebra.dim
        assert swap_product(m, m, rho, rho, (n,) * 4) == dense.swap_product_formed(m, m, rho, rho, (n,) * 4)
        x = group_self_coextension(group_algebra({"group": "Z3"}, field))
        act, dc, n = x.action, x.coalgebra.comult_matrix, x.coalgebra.dim
        assert swap_product(act, act, dc, dc, (n,) * 4) == dense.swap_product_formed(act, act, dc, dc, (n,) * 4)

    def test_disagreeing_shapes_raise(self):
        one, two = Matrix.identity(1, QQ), Matrix.identity(2, QQ)
        f = Matrix.zero(4, 1, QQ)  # P (x) Q = 2 (x) 2
        with pytest.raises(DimensionMismatch):
            swap_product(two, two, f, f, (2, 2, 1, 2))  # g has 4 rows, not P2 Q2 = 2
        with pytest.raises(DimensionMismatch):
            swap_product(one, Matrix.identity(4, QQ), f, f, (2, 2, 2, 2))  # x on 1, not P P2 = 4
        with pytest.raises(DimensionMismatch):
            swap_product(Matrix.identity(4, QQ), two, f, f, (2, 2, 2, 2))  # y on 2, not Q Q2 = 4
        # a zero-dimensional factor: Q = 0 leaves P to the argument, not to f
        x, y = Matrix.identity(2, QQ), Matrix.zero(3, 0, QQ)
        f, g = Matrix.zero(0, 2, QQ), Matrix.zero(1, 1, QQ)
        assert swap_product(x, y, f, g, (2, 0, 1, 1)) == Matrix.zero(6, 2, QQ)
        with pytest.raises(DimensionMismatch):
            swap_product(x, y, f, g, (3, 0, 1, 1))

    def test_mixed_fields_raise(self):
        i1 = Matrix.identity(1, QQ)
        for k in range(4):
            args = [i1] * 4
            args[k] = Matrix.identity(1, GF7)
            with pytest.raises(FieldMismatch):
                swap_product(*args, (1, 1, 1, 1))


@st.composite
def repeated_rows(draw):
    """A matrix with some of its rows repeated and empty rows added, shuffled."""
    m = draw(any_matrix())
    rows = list(m.entries)
    for k in draw(st.lists(st.integers(-1, m.rows - 1), max_size=5)):
        rows.append(rows[k] if k >= 0 else (m.field.zero,) * m.cols)
    rows = draw(st.permutations(rows))
    return Matrix(len(rows), m.cols, tuple(rows), m.field)


class TestElimination:
    @settings(max_examples=150, deadline=None)
    @given(repeated_rows())
    def test_repeated_and_empty_rows_match_dense(self, m):
        assert rref(m).entries == dense.rref_dense(m)
        assert rank(m) == dense.rank_dense(m)
        assert kernel(m).basis == dense.kernel_dense(m)
        assert image(m).basis == dense.span_basis(dense.columns(m), m.rows, m.field)

    @pytest.mark.parametrize(
        "field, rows, rank_, witness",
        [
            (QQ, [[1, 2, 3, 0], [0, 1, 4, 2], [0, 0, 0, 0], [1, 2, 3, 0]], 2, (1, 0, Fraction(-1, 3), Fraction(2, 3))),
            (QQ, [[2, 0, 1], [0, 3, 5], [2, 0, 1]], 2, (1, Fraction(10, 3), -2)),
            (GF7, [[1, 2, 3, 0], [0, 1, 4, 2], [0, 0, 0, 0], [1, 2, 3, 0]], 2, (1, 0, 2, 3)),
            (GF7, [[2, 0, 1], [0, 3, 5], [2, 0, 1]], 2, (1, 1, 5)),
        ],
    )
    def test_try_invert_of_equal_rows(self, field, rows, rank_, witness):
        assert try_invert(Matrix.from_rows(rows, field)) == NotInvertible(rank=rank_, witness=witness)

    @settings(max_examples=150, deadline=None)
    @given(any_matrix())
    def test_rref_and_rank_match_dense(self, m):
        out = rref(m)
        assert out.entries == dense.rref_dense(m)
        assert_indexed(out)
        assert rank(m) == dense.rank_dense(m)

    @settings(max_examples=150, deadline=None)
    @given(any_matrix())
    def test_kernel_matches_dense(self, m):
        ker = kernel(m)
        assert ker.basis == dense.kernel_dense(m)
        assert_subspace_indexed(ker)
        assert ker.dim == m.cols - dense.rank_dense(m)

    @settings(max_examples=100, deadline=None)
    @given(any_matrix())
    def test_image_matches_span_of_columns(self, m):
        img = image(m)
        assert img.basis == dense.span_basis(dense.columns(m), m.rows, m.field)
        assert_subspace_indexed(img)

    @settings(max_examples=150, deadline=None)
    @given(squares())
    def test_try_invert_matches_dense(self, m):
        expected = dense.try_invert_dense(m)
        out = try_invert(m)
        if expected is None:
            assert isinstance(out, NotInvertible)
            assert out.rank == dense.rank_dense(m)
            if out.witness is not None:
                assert not any(m.apply(out.witness))
        else:
            assert out.entries == expected
            assert_indexed(out)
            assert (m @ out).is_identity

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_subspace_operations_match_spans(self, data):
        field = data.draw(FIELDS)
        n = data.draw(st.integers(1, 7))
        raw1, raw2 = (data.draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n), max_size=5)) for _ in range(2))
        s1 = Subspace.from_spanning(raw1, n, field)
        s2 = Subspace.from_spanning(raw2, n, field)
        assert s1.basis == dense.span_basis(raw1, n, field)
        assert_subspace_indexed(s1)
        meet = intersect(s1, s2)
        assert_subspace_indexed(meet)
        assert s1.contains_subspace(meet) and s2.contains_subspace(meet)
        both = Matrix(s1.dim + s2.dim, n, s1.basis + s2.basis, field)
        assert meet.dim == s1.dim + s2.dim - dense.rank_dense(both)
        for v in raw2:
            extended = Matrix(s1.dim + 1, n, s1.basis + (tuple(field.coerce(x) for x in v),), field)
            assert s1.contains_vector(v) == (dense.rank_dense(extended) == s1.dim)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_quotient_is_indexed(self, data):
        field = data.draw(FIELDS)
        n = data.draw(st.integers(1, 6))
        rel = Subspace.from_spanning(data.draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n), max_size=4)), n, field)
        q = quotient(n, rel)
        assert_indexed(q.projection)
        assert_indexed(q.section)
        assert kernel(q.projection) == rel
        assert (q.projection @ q.section).is_identity


@st.composite
def spanning_sets(draw):
    """(field, n, vectors): random vectors of k^n, none (the zero space), or
    the standard basis (the full space), over Q, GF(7) and GF(2)."""
    field = draw(st.sampled_from([QQ, GF7, GF2]))
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["random", "zero", "full"]))
    if kind == "zero":
        return field, n, []
    if kind == "full":
        return field, n, [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return field, n, draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n), max_size=5))


class TestIndexFirstSubspace:
    """A subspace is the nonzero index of its echelon basis; the dense basis
    is read off it only on demand, and every route to the same span gives
    the same index."""

    @staticmethod
    def routes(field, n, vectors):
        """The span of vectors built by from_spanning, as an image, as a
        kernel (of its annihilator) and as an intersection."""
        spanned = Subspace.from_spanning(vectors, n, field)
        columns = Matrix.from_triples(n, len(vectors), [(i, j, x) for j, v in enumerate(vectors) for i, x in enumerate(v)], field)
        imaged = image(columns)
        annihilator = kernel(columns.transpose()).inclusion().transpose()
        kerneled = kernel(annihilator)
        met = intersect(imaged, kerneled)
        return spanned, imaged, kerneled, met

    @settings(max_examples=150, deadline=None)
    @given(spanning_sets(), st.data())
    def test_routes_agree_and_match_the_dense_span(self, case, data):
        field, n, vectors = case
        spanned, *built = self.routes(field, n, vectors)
        for sub in built:
            assert "basis" not in sub.__dict__
        expected = dense.span_basis(vectors, n, field)
        probes = [[field.coerce(x) for x in v] for v in vectors]
        probes += data.draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n), max_size=3))
        other = Subspace.from_spanning(probes[-2:], n, field)
        for sub in (spanned, *built):
            assert sub.basis == expected
            assert_subspace_indexed(sub)
            assert sub == spanned and hash(sub) == hash(spanned)
            assert sub.dim == len(expected) and sub.pivots == spanned.pivots
            assert sub.inclusion() == spanned.inclusion() and sub.coordinates() == spanned.coordinates()
            assert (sub.coordinates() @ sub.inclusion()).is_identity
            for v in probes:
                stacked = Matrix(sub.dim + 1, n, expected + (tuple(field.coerce(x) for x in v),), field)
                assert sub.contains_vector(v) == (dense.rank_dense(stacked) == sub.dim)
            both = Matrix(sub.dim + other.dim, n, expected + other.basis, field)
            assert sub.contains_subspace(other) == (dense.rank_dense(both) == sub.dim)
            assert all(sub.contains_subspace(t) for t in built)

    @pytest.mark.parametrize("field", [QQ, GF7, GF2])
    def test_zero_and_full_spaces(self, field):
        for n in (0, 1, 4):
            zero, full = Subspace.zero_subspace(n, field), Subspace.full(n, field)
            assert self.routes(field, n, []) == (zero,) * 4
            identity = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
            assert self.routes(field, n, identity) == (full,) * 4
            assert zero.dim == 0 and full.dim == n and full.pivots == tuple(range(n))
            assert full.contains_subspace(zero) and zero.contains_subspace(zero)
            assert zero.contains_subspace(full) == (n == 0)

    def test_mismatched_ambient_dimensions_raise(self):
        with pytest.raises(DimensionMismatch):
            Subspace.full(3, QQ).contains_subspace(Subspace.zero_subspace(2, QQ))
        with pytest.raises(DimensionMismatch):
            Subspace.full(3, QQ).contains_columns(Matrix.zero(2, 1, QQ))
        with pytest.raises(FieldMismatch):
            tensor_subspace(Subspace.full(1, QQ), Subspace.full(1, GF7))

    @settings(max_examples=150, deadline=None)
    @given(spanning_sets(), st.data())
    def test_tensor_products_are_read_off_the_two_indexes(self, case, data):
        field, n, vectors = case
        s = Subspace.from_spanning(vectors, n, field)
        m = data.draw(st.integers(0, 4))
        t = Subspace.from_spanning(data.draw(st.lists(st.lists(scalars(field), min_size=m, max_size=m), max_size=4)), m, field)
        product = tensor_subspace(s, t)
        expected = image(kron(s.inclusion(), t.inclusion()))
        assert product == expected
        assert (product.ambient_dim, product.dim) == (n * m, s.dim * t.dim)
        assert "basis" not in product.__dict__
        assert_subspace_indexed(product)

    @settings(max_examples=100, deadline=None)
    @given(spanning_sets(), st.data())
    def test_contains_columns_tests_every_column(self, case, data):
        field, n, vectors = case
        sub = Subspace.from_spanning(vectors, n, field)
        k = data.draw(st.integers(0, 4))
        inside = sub.inclusion() @ data.draw(matrices(field, rows=sub.dim, cols=k))
        assert sub.contains_columns(inside)
        m = data.draw(matrices(field, rows=n, cols=k))
        assert sub.contains_columns(m) == all(sub.contains_vector(col) for col in dense.columns(m))


def all_fraction(m: Matrix) -> Matrix:
    """m with every entry a Fraction, the form rational matrices had before
    integral scalars became ints."""
    return Matrix(m.rows, m.cols, tuple(tuple(Fraction(x) for x in row) for row in m.entries), QQ)


def _report_text(value) -> str:
    """The report strings of an output, as the reports format them."""
    if isinstance(value, Matrix):
        return repr((value.rows, value.cols, [[QQ.format(x) for x in row] for row in value.entries]))
    if isinstance(value, Subspace):
        return repr((value.ambient_dim, [[QQ.format(x) for x in row] for row in value.basis]))
    if isinstance(value, NotInvertible):
        return repr((value.rank, None if value.witness is None else [QQ.format(x) for x in value.witness]))
    if isinstance(value, QuotientPresentation):
        return repr([_report_text(part) for part in (value.relations, value.projection, value.section)])
    return repr(value)


class TestAgainstTheAllFractionForm:
    """Integral rational scalars are ints; the all-Fraction form of the same
    matrices, which the library used before, gives equal outputs and report
    strings from every kernel."""

    @staticmethod
    def outputs(a, b, x, y, m, n, e, sq):
        return (
            a @ b,
            kron(a, b),
            kron_apply(x, y, m),
            apply_kron(n, x, y),
            kernel(a),
            image(a),
            intersect(image(a), kernel(e)),
            try_invert(sq),
            rank(a),
            quotient(a.rows, image(a)),
        )

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_outputs_equal(self, data):
        def dim(top=4):
            return data.draw(st.integers(0, top))

        r, k = dim(), dim()
        a = data.draw(matrices(QQ, rows=r, cols=k))
        b = data.draw(matrices(QQ, rows=k, cols=dim()))
        x = data.draw(matrices(QQ, rows=dim(3), cols=dim(3)))
        y = data.draw(matrices(QQ, rows=dim(3), cols=dim(3)))
        m = data.draw(matrices(QQ, rows=x.cols * y.cols, cols=dim(3)))
        n = data.draw(matrices(QQ, rows=dim(3), cols=x.rows * y.rows))
        e = data.draw(matrices(QQ, rows=dim(), cols=r))
        sq = data.draw(squares(QQ))
        canonical = (a, b, x, y, m, n, e, sq)
        assert all(type(v) is int or v.denominator > 1 for t in canonical for row in t.nonzeros for _, v in row)
        old = self.outputs(*map(all_fraction, canonical))
        new = self.outputs(*canonical)
        assert new == old
        assert [_report_text(v) for v in new] == [_report_text(v) for v in old]


class TestPermutations:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=4).flatmap(
        lambda dims: st.tuples(st.just(dims), st.permutations(range(len(dims))), FIELDS)))
    def test_tensor_permutation_matches_dense(self, args):
        dims, perm, field = args
        out = tensor_permutation(dims, perm, field)
        assert out.entries == dense.tensor_permutation_dense(dims, perm, field)
        assert_indexed(out)

    def test_empty_factor_list(self):
        assert tensor_permutation((), (), QQ) == Matrix.identity(1, QQ)


class TestEmptyShapes:
    def test_zero_by_n_and_n_by_zero(self):
        for field in (QQ, GF7):
            a = Matrix(0, 3, (), field)
            b = Matrix(3, 0, ((), (), ()), field)
            assert (a @ b) == Matrix(0, 0, (), field)
            assert (b @ a).entries == ((field.zero,) * 3,) * 3
            assert kernel(a) == Subspace.full(3, field)
            assert kernel(b).dim == 0 and image(b).dim == 0
            assert kron(a, b).rows == 0 and kron(a, b).cols == 0
            assert rank(a) == rank(b) == 0
            assert try_invert(Matrix(0, 0, (), field)) == Matrix(0, 0, (), field)
            for m in (a @ b, b @ a, kron(b, a), rref(b)):
                assert_indexed(m)


# -- the quotient forms of the coideal and invariance tests


# (coalgebra, whether its basis is group-like)
COALGEBRAS = [
    pair
    for field in (QQ, GF7)
    for pair in (
        (group_algebra({"group": "S3"}, field).coalgebra, True),
        (group_algebra({"group": "Z4"}, field).coalgebra, True),
        (dual_group_algebra({"group": "S3"}, field).coalgebra, False),
        (sweedler_hopf_algebra(field).coalgebra, False),
    )
]


def _differences(n: int, pairs) -> list[list[int]]:
    """The vectors e_i - e_j; on a group-like basis their span is a coideal."""
    return [[1 if k == i else -1 if k == j else 0 for k in range(n)] for i, j in pairs]


@st.composite
def coalgebra_subspaces(draw):
    """A coalgebra and a subspace: spans of differences of group-likes (always
    coideals) on group coalgebras, or of random vectors."""
    c, grouplike_basis = draw(st.sampled_from(COALGEBRAS))
    n = c.dim
    if grouplike_basis and draw(st.booleans()):
        vectors = _differences(n, draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=4)))
    else:
        vectors = draw(st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n), max_size=3))
    return c, Subspace.from_spanning(vectors, n, c.field)


class TestCoidealThroughQuotient:
    @settings(max_examples=120, deadline=None)
    @given(coalgebra_subspaces())
    def test_matches_spanning_form(self, pair):
        c, sub = pair
        counit, coproduct = coideal_checks(c, quotient(c.dim, sub))
        assert coproduct.ok == dense.coproduct_in_mixed_span(c, sub)
        assert counit.ok == all(not x for v in sub.basis for x in c.counit_matrix.apply(v))

    def test_coset_coideals_pass(self):
        c = group_algebra({"group": "S3"}, QQ).coalgebra
        for gen in ("(12)", "(123)"):
            assert all(chk.ok for chk in coideal_checks(c, quotient(c.dim, coset_coideal({"group": "S3"}, gen))))


class TestInvarianceThroughQuotient:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_spanning_form(self, data):
        c, _ = data.draw(st.sampled_from([pair for pair in COALGEBRAS if pair[1]]))
        n = c.dim
        pairs = list(combinations(range(n), 2))
        # I_2 contains I_1, so the meet is large enough to hold non-coideals
        first = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))
        second = first + data.draw(st.lists(st.sampled_from(pairs), max_size=2))
        coideals = [Subspace.from_spanning(_differences(n, chosen), n, c.field) for chosen in (first, second)]
        meet = intersect(*coideals)
        # random combinations of the meet's basis: often not coideals themselves
        combos = data.draw(st.lists(st.lists(st.integers(-1, 2), min_size=meet.dim, max_size=meet.dim), min_size=1, max_size=2))
        k = Subspace.from_spanning(
            [[sum(a * v[j] for a, v in zip(combo, meet.basis)) for j in range(n)] for combo in combos], n, c.field
        )
        projections = [quotient(n, sub).projection for sub in coideals]
        assert _kernel_step(c, projections, k).contains_subspace(k) == dense.invariance_by_spanning(c, coideals, k)


@st.composite
def factors(draw, field, rows, cols):
    """A random factor, about half the time of rank at most one."""
    if draw(st.booleans()):
        return draw(matrices(field, rows=rows, cols=1)) @ draw(matrices(field, rows=1, cols=cols))
    return draw(matrices(field, rows=rows, cols=cols))


def _full_system(left, right, a_dim, c_dim):
    """The (a c)^2-unknown system in psi': C (x) A -> A (x) C."""
    a_id, c_id = Matrix.identity(a_dim, left.field), Matrix.identity(c_dim, left.field)
    return middle_linear_system(kron(left, c_id), kron(right, a_id), left.cols // a_dim, a_dim * c_dim, c_dim * a_dim)


class TestUniquenessBlock:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_block_kernel_matches_full_system(self, data):
        field = data.draw(FIELDS)
        f, j, y, g, h = (data.draw(st.integers(1, 3)) for _ in range(5))
        left = data.draw(factors(field, data.draw(st.integers(1, 3)), f * j))
        right = data.draw(factors(field, f * y, data.draw(st.integers(1, 3))))
        block = middle_block(left, right, j, y)
        assert_indexed(block)
        full = middle_linear_system(
            kron(left, Matrix.identity(g, field)), kron(right, Matrix.identity(h, field)), f, j * g, y * h
        )
        assert g * h * kernel(block).dim == kernel(full).dim
        # the full system is block diagonal: one copy of the block per (z, v)
        out, p = left.rows, right.cols
        for z in range(g):
            for v in range(h):
                rows = [(k * g + z) * p * h + q * h + v for k in range(out) for q in range(p)]
                cols = [(jj * g + z) * y * h + yy * h + v for jj in range(j) for yy in range(y)]
                assert tuple(tuple(full.entries[r][col] for col in cols) for r in rows) == block.entries
        assert sum(map(len, full.nonzeros)) == g * h * sum(map(len, block.nonzeros))

    def test_catalogue_instances_match_full_system(self):
        s3 = group_algebra({"group": "S3"})
        extensions = [
            self_extension(group_algebra({"group": "Z3"})),
            self_extension(s3),
            self_extension(sweedler_hopf_algebra(QQ)),
            quadratic_field_extension(2, QQ),
        ]
        for x in extensions:
            a, c = x.algebra, x.coalgebra
            cert = galois_check(x)
            report = entwining_uniqueness(cert)
            full = _full_system(a.mult_matrix, x.coaction, a.dim, c.dim)
            assert report.solution_space_dim == kernel(full).dim == 0
            assert report.psi_solves == (full.apply(vectorize(cert.psi.psi)) == vectorize(x.coaction @ a.mult_matrix))
        for x in (group_self_coextension(group_algebra({"group": "Z3"})), group_self_coextension(s3)):
            a, c = x.algebra, x.coalgebra
            cert = coextension_check(x)
            report = dual_uniqueness(cert)
            full = _full_system(x.action, c.comult_matrix, a.dim, c.dim)
            assert report.solution_space_dim == kernel(full).dim == 0
            assert report.psi_solves == (full.apply(vectorize(cert.psi.psi)) == vectorize(c.comult_matrix @ x.action))

    def test_trivial_coaction_kernels(self):
        # a -> a (x) e, not Galois, so the solution spaces are large
        for group, expected in (("Z2", 8), ("Z3", 54)):
            h = group_algebra({"group": group})
            a, c = h.algebra, h.coalgebra
            coaction = kron(a.identity_matrix, column_matrix(basis_vector(c.dim, 0, QQ), QQ))
            block = middle_block(a.mult_matrix, coaction, a.dim, c.dim)
            assert a.dim * c.dim * kernel(block).dim == kernel(_full_system(a.mult_matrix, coaction, a.dim, c.dim)).dim
            assert kernel(_full_system(a.mult_matrix, coaction, a.dim, c.dim)).dim == expected


@st.composite
def residual_pairs(draw):
    """Two sides of one shape, equal (as separately built matrices) or drawn apart."""
    field = draw(FIELDS)
    lhs = draw(matrices(field))
    if draw(st.booleans()):
        return lhs, Matrix(lhs.rows, lhs.cols, tuple(lhs.entries), field)
    return lhs, draw(matrices(field, rows=lhs.rows, cols=lhs.cols))


class TestFromTheIndex:
    """Residual checks compare the two sides before subtracting, and report
    details format from the nonzero index; both agree with the dense forms."""

    @settings(max_examples=150, deadline=None)
    @given(residual_pairs())
    @example((Matrix.zero(0, 3, QQ), Matrix.zero(0, 3, QQ)))
    @example((Matrix.zero(3, 0, GF7), Matrix.zero(3, 0, GF7)))
    @example((Matrix.zero(0, 0, QQ), Matrix.zero(0, 0, QQ)))
    @example((Matrix.identity(2, GF7), Matrix.zero(2, 2, GF7)))
    def test_residual_check_matches_the_difference(self, pair):
        lhs, rhs = pair
        chk = residual_check("name", "statement", lhs, rhs)
        assert chk.residual == lhs - rhs
        assert chk.ok == (lhs == rhs) == chk.residual.is_zero
        assert_indexed(chk.residual)

    @settings(max_examples=100, deadline=None)
    @given(any_matrix())
    def test_details_match_the_dense_formatting(self, m):
        field = m.field
        assert matrix_detail(field, m) == {
            "rows": m.rows,
            "cols": m.cols,
            "entries": [[field.format(x) for x in row] for row in m.entries],
        }
        sub = Subspace.from_spanning(m.entries, m.cols, field)
        assert subspace_detail(field, sub) == {
            "ambient_dim": sub.ambient_dim,
            "dim": sub.dim,
            "basis": [[field.format(x) for x in row] for row in sub.basis],
        }
