"""Exact linear algebra over the rationals and GF(p) on nonzero-indexed matrices.

Everything else in the library reduces to the operations here: canonical
reduced row-echelon forms, kernels and images with canonical bases, the
bijectivity decision with its exact solution, Kronecker products under a
fixed row-major tensor convention, and quotient presentations of vector
spaces.

A ``Matrix`` has two views of its cells, each computed at most once, on
first use: the dense ``entries`` and a per-row nonzero index, ``nonzeros``,
which lists for each row the ``(column, value)`` pairs of its nonzero
entries in increasing column order.  Every operation here that builds a
matrix or a subspace attaches the index it already knows, so its output is
never scanned, and its dense entries are materialised only if something
reads them.

``@`` and the products below sum a * rows[k] over each combination's terms
with one of two row kernels, picked once per product from its operands'
nonzero indexes.  ``_combination`` accumulates in a dict and sorts the
columns.  Over GF(p), when the average combination touches at least as
many entries as it has columns, the product packs each combined row once
into an int, column j in the slot of S bits at bit j S: a combination is
one multiply-add of ints per term, and its row is read off the cells once,
each reduced mod p (word packing with delayed reduction: Dumas, Fousse and
Salvy, J. Symb. Comput. 46, 2011; Dumas, Giorgi and Pernet, ACM TOMS 35,
2008).  S is the least of 16, 32 and 64 with room for a sum of len(rows)
products of residues; with none the dict kernel serves, as it always does
over Q.  Neither runs when every row of the combining operand is empty or
one term with coefficient 1 (``Matrix.places``), as in a monomial map like
g -> g (x) g: ``@`` then places the other operand's rows, shared, and a leg
product relabels the other operand's indexes (in a row-by-row product,
Gustavson, ACM TOMS 4(3), 1978, combining by unit entries is a relabelling).

Elimination works on sparse rows (dicts from column to value) into the
unique reduced row-echelon form.  ``kernel`` eliminates each distinct
nonzero row once, since repeated and zero rows add nothing to the row
space.  ``decide_bijection(m, rhs)`` eliminates [m | rhs] from every row of
a square m, as a zero row of m may carry a row of rhs: m is bijective
exactly when the first n columns hold all n pivots, and then the rhs
columns of the RREF are m^-1 rhs.  A kernel is one elimination on the
reversed columns: each reduced row is then zero right of its pivot, so the
null vector of a free column f is 1 at f and elsewhere nonzero only at
pivots right of f, and by increasing f these are the kernel's RREF basis.

A ``Subspace`` is its echelon index: the nonzero index of its unique
reduced row-echelon basis, and nothing else.  Equality and hashing compare
the index, ``dim`` counts its rows, membership reduces against it, and the
dense ``basis`` is materialised only if something reads it.
``tensor_subspace`` needs no elimination: the rows r_i (x) s_j of two
echelon indexes, ordered by (i, j), are already the echelon index of
S (x) T.

``kron(f, g)`` is the matrix of f (x) g.  ``kron_apply(x, y, m) ==
kron(x, y) @ m`` and ``apply_kron(m, x, y) == m @ kron(x, y)`` form no
identity factor: by the mixed-product rule kron(x, y) = kron(x, I) kron(I,
y) (Van Loan, "The ubiquitous Kronecker product", J. Comput. Appl. Math.
123, 2000), a product with one identity factor is a leg product below with
K = 1 (``kron_apply``) or W = 1 (``apply_kron``), and one with two is m.
With two other factors each is its definition.

The leg product is the shape of every map on three tensor legs that acts
on two of them at a time: the structure maps mu = (m (x) C)(A (x) psi) and
delta = (C (x) psi)(coproduct (x) A) of an entwining, the canonical map
(m (x) C)(A (x) coaction), and the actions on A (x)_B A.  With legs
(K, A, W), ``leg_product(x, z, (K, A, W)) == kron(x, I_W) @ kron(I_K, z)``
and ``leg_product_mirror(x, z, (K, A, W)) == kron(I_W, x) @ kron(z,
I_K)``.  The leg product splits each row of x into K blocks of A columns,
and block k combines the strided slice of every W-th row of z, its result
landing at column offset k cols(z).  The mirror accumulates, for each
entry of a row of x at column a K + k, the scaled row of z in block a with
its column c moved to c K + k.

``swap_product(x, y, f, g, dims) == kron(x, y) @ mid_swap @ kron(f, g)``
is the product in a tensor product, the identity behind every "is an
algebra (coalgebra) map into a tensor product" check, where mid_swap is
the four-factor ``tensor_permutation(dims, (0, 2, 1, 3))``.  It forms
neither mid_swap, whose n^4 rows are mostly idle, nor kron(f, g): it
contracts g with y first, then f, then x, column by column on the factors'
transposes.  Over GF(p), on sums as dense as the row kernels' that a slot
holds, it contracts f with x and g with y on packed ints, x's columns at
stride rows(y), so that a product of the two is a Kronecker product
(Kronecker substitution); else it sums in dicts, each cell reduced once.

Conventions, fixed once for the whole library:

* matrices act on column vectors, so a linear map V -> W is a
  dim(W) x dim(V) matrix and composition is matrix product;
* the basis vector e_i (x) e_j of V (x) W has flat index i*dim(W) + j
  (left factor major), so ``kron(f, g)`` is the matrix of f (x) g.

All values are immutable; all operations are pure and deterministic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .fields import FieldSpec, Scalar

# One row of a nonzero index: (column, nonzero value) pairs by increasing column.
IndexRow = tuple[tuple[int, Scalar], ...]


def _check_same_field(a: "Matrix | Subspace", b: "Matrix | Subspace"):
    if a.field is not b.field and a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")


def _dense(index: Sequence[IndexRow], cols: int, field: FieldSpec) -> tuple[tuple[Scalar, ...], ...]:
    """Dense rows of a nonzero index; all empty rows share one tuple."""
    zero = field.zero
    blank = (zero,) * cols
    out = []
    for pairs in index:
        if pairs:
            row = [zero] * cols
            for j, x in pairs:
                row[j] = x
            out.append(tuple(row))
        else:
            out.append(blank)
    return tuple(out)


def _sorted_index(row: dict[int, Scalar]) -> IndexRow:
    return tuple(sorted(row.items()))


def _index_row(acc: dict[int, Scalar], p: int | None) -> IndexRow:
    """The index row of accumulated column sums: reduced mod p (unless p is
    None, over Q), zeros dropped, by increasing column."""
    if p:
        return tuple([(j, x) for j, x in sorted([(j, x % p) for j, x in acc.items()]) if x])
    return tuple([(j, x) for j, x in sorted(acc.items()) if x])


def _combination(terms: Sequence[tuple[int, Scalar]], rows: Sequence[IndexRow], p: int | None) -> IndexRow:
    """The index row of the sum of a * rows[k] over the (k, a) terms, whose
    coefficients are nonzero and, over GF(p), reduced.  A one-term sum with
    a == 1 is rows[k] itself, and an empty sum is ()."""
    if not terms:
        return ()
    if len(terms) == 1:
        k, a = terms[0]
        if a == 1:
            return rows[k]
        if p:
            return tuple([(j, a * b % p) for j, b in rows[k]])
        return tuple([(j, a * b) for j, b in rows[k]])
    # accumulate, then (over GF(p)) reduce once per output cell
    acc: dict[int, Scalar] = {}
    get = acc.get
    for k, a in terms:
        for j, b in rows[k]:
            acc[j] = get(j, 0) + a * b
    return _index_row(acc, p)


_CELLS = {16: "H", 32: "I", 64: "Q"}


def _slot(p: int, n: int) -> int:
    """The bits S of a packed cell: the least of 16, 32 and 64 with
    n (p - 1)^2 < 2^S, so that n products of two residues mod p sum in a
    cell without carrying into the next; 0 when none is, or on a big-endian
    host."""
    bound = n * (p - 1) ** 2
    for s in _CELLS:
        if bound >> s == 0 and sys.byteorder == "little":
            return s
    return 0


def _packed(rows: Sequence[IndexRow], p: int, s: int, stride: int = 1) -> list[int]:
    """Each index row's values mod p packed into one int, column j in the
    cell of s bits at bit j * stride * s."""
    s *= stride
    out = []
    for row in rows:
        acc = 0
        for j, b in row:
            acc |= b % p << j * s
        out.append(acc)
    return out


def _unpacked(acc: int, p: int, s: int, cols: int) -> IndexRow:
    """The index row of the cols cells of acc, s bits each, reduced mod p:
    read through its bytes, or by shifts when there are at most 8."""
    if cols > 8:
        cells = memoryview(acc.to_bytes(cols * s >> 3, "little")).cast(_CELLS[s])
        return tuple([(j, r) for j, x in enumerate(cells) if (r := x % p)])
    out, mask, j = [], (1 << s) - 1, 0
    while acc:
        if r := (acc & mask) % p:
            out.append((j, r))
        acc >>= s
        j += 1
    return tuple(out)


def _packing(p: int, cols: int, rows: Sequence[IndexRow], stride: int = 1) -> tuple[Callable[..., IndexRow], Sequence]:
    """The packed row kernel over GF(p) for rows of width cols, called as
    kernel(terms, pairs, p) on ``pairs``: each row of the index ``rows``
    with its int from _packed, in slots of _slot(p, len(rows)) bits.  It
    sums a * rows[k] over the terms with one multiply-add of packed ints
    per term, each coefficient reduced first, and reads the cells off
    once; one-term and empty sums as in _combination.  When no slot is
    wide enough the kernel is _combination, with rows as they are."""
    s = _slot(p, len(rows))
    if not s:
        return _combination, rows

    def combine(terms: Sequence[tuple[int, Scalar]], rows: Sequence, p: int) -> IndexRow:
        if len(terms) == 1:
            k, a = terms[0]
            return rows[k][0] if a == 1 else tuple([(j, a * b % p) for j, b in rows[k][0]])
        acc = 0
        for k, a in terms:
            acc += a % p * rows[k][1]
        return _unpacked(acc, p, s, cols)

    return combine, list(zip(rows, _packed(rows, p, s, stride)))


def _dense_enough(cols: int, *indexes: Sequence[IndexRow], blocks: int = 1) -> bool:
    """Whether the sums of a product, one term from a row of each index, the
    first index's rows split in ``blocks``, touch on average (the product of
    the entries per row of each index, over ``blocks``) at least cols entries."""
    touched, count = 1, blocks
    for index in indexes:
        touched *= sum(map(len, index))
        count *= len(index)
    return touched > 0 and touched >= cols * count


def _combiner(
    p: int | None, cols: int, rows: Sequence[IndexRow], *coefficients: Sequence[IndexRow], blocks: int = 1, stride: int = 1
) -> tuple[Callable[..., IndexRow], Sequence]:
    """The row kernel of a product whose combinations sum rows of the index
    ``rows`` (of width cols), with one coefficient per term from each index
    in ``coefficients``, whose rows each split into ``blocks`` combinations;
    returned with the rows it combines, as for _packing.  It is _packing's
    over GF(p) when they are _dense_enough, and otherwise _combination."""
    if p and _dense_enough(cols, rows, *coefficients, blocks=blocks):
        return _packing(p, cols, rows, stride)
    return _combination, rows


def _from_index(rows: int, cols: int, index: Sequence[IndexRow], field: FieldSpec) -> "Matrix":
    """The matrix with the given nonzero index; its dense entries are
    materialised only if something reads them."""
    m = object.__new__(Matrix)
    m.__dict__.update(rows=rows, cols=cols, field=field, nonzeros=tuple(index))
    return m


def _subspace(ambient_dim: int, reduced: list[dict[int, Scalar]], field: FieldSpec) -> "Subspace":
    """The subspace whose basis is the given RREF rows."""
    return Subspace(ambient_dim, tuple(_sorted_index(row) for row in reduced), field)


class Matrix:
    """An immutable rows x cols matrix over ``field``.

    It has two views, each computed at most once: the dense ``entries`` (a
    tuple of row tuples) and the nonzero index ``nonzeros``.  A matrix
    constructed from its entries computes the index on first use; one built
    here from an index materialises its entries on first use.
    """

    rows: int
    cols: int
    field: FieldSpec

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[Scalar, ...], ...], field: FieldSpec):
        if len(entries) != rows:
            raise DimensionMismatch(f"expected {rows} rows, got {len(entries)}")
        for row in entries:
            if len(row) != cols:
                raise DimensionMismatch(f"expected {cols} columns, got {len(row)}")
        self.__dict__.update(rows=rows, cols=cols, entries=entries, field=field)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Matrix")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Matrix")

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r}, field={self.field!r})"

    @cached_property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        return _dense(self.nonzeros, self.cols, self.field)

    @cached_property
    def nonzeros(self) -> tuple[IndexRow, ...]:
        """Per row, the (column, value) pairs of its nonzero entries by increasing column."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.field) == (other.rows, other.cols, other.field) and (
            self.nonzeros == other.nonzeros
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.field, self.nonzeros))

    @staticmethod
    def from_rows(data: Iterable[Iterable], field: FieldSpec) -> "Matrix":
        rows = tuple(tuple(field.coerce(x) for x in row) for row in data)
        ncols = len(rows[0]) if rows else 0
        return Matrix(len(rows), ncols, rows, field)

    @staticmethod
    def from_triples(rows: int, cols: int, triples: Iterable[tuple[int, int, object]], field: FieldSpec) -> "Matrix":
        """The matrix with value c at (i, j) for each triple (i, j, c), zero
        elsewhere, built straight into its nonzero index.  Values are coerced
        into the field, a later triple for a cell replaces an earlier one, and
        cells whose value is zero stay out of the index."""
        coerce = field.coerce
        cells: dict[tuple[int, int], Scalar] = {}
        for i, j, c in triples:
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatch(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            cells[i, j] = coerce(c)
        by_row: dict[int, list[tuple[int, Scalar]]] = {}
        for (i, j), c in sorted(cells.items()):
            if c:
                by_row.setdefault(i, []).append((j, c))
        return _from_index(rows, cols, [tuple(by_row[i]) if i in by_row else () for i in range(rows)], field)

    @staticmethod
    def zero(rows: int, cols: int, field: FieldSpec) -> "Matrix":
        return _from_index(rows, cols, ((),) * rows, field)

    @staticmethod
    def identity(n: int, field: FieldSpec) -> "Matrix":
        one = field.one
        return _from_index(n, n, [((i, one),) for i in range(n)], field)

    @property
    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    @cached_property
    def places(self) -> bool:
        """Whether every row is empty or one term with coefficient 1: a
        product combining by this matrix places rows of the other operand."""
        nz = self.nonzeros
        return max(map(len, nz), default=0) <= 1 and all([row[0][1] == 1 for row in nz if row])

    @cached_property
    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(len(row) == 1 and row[0][0] == i and row[0][1] == 1 for i, row in enumerate(self.nonzeros))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self, other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        p = self.field.p
        anz, bnz = self.nonzeros, other.nonzeros
        if self.places:
            return _from_index(self.rows, other.cols, [bnz[row[0][0]] if row else () for row in anz], self.field)
        combine, bnz = _combiner(p, other.cols, bnz, anz)
        return _from_index(self.rows, other.cols, [combine(arow, bnz, p) for arow in anz], self.field)

    def _combine(self, other: "Matrix", sign: int, what: str) -> "Matrix":
        """self + sign * other, row by row over both indexes."""
        _check_same_field(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"matrix {what} shape mismatch")
        p = self.field.p
        out = []
        for ra, rb in zip(self.nonzeros, other.nonzeros):
            if not rb:
                out.append(ra)
                continue
            acc = dict(ra)
            for j, b in rb:
                if sign < 0:
                    b = -b
                acc[j] = acc[j] + b if j in acc else b
            out.append(_index_row(acc, p))
        return _from_index(self.rows, self.cols, out, self.field)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1, "subtraction")

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return _from_index(self.rows, self.cols, [tuple((j, neg(x)) for j, x in row) for row in self.nonzeros], self.field)

    def transpose(self) -> "Matrix":
        cols: list[list[tuple[int, Scalar]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nonzeros):
            for j, x in row:
                cols[j].append((i, x))
        return _from_index(self.cols, self.rows, [tuple(c) for c in cols], self.field)

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(row[j] for row in self.entries)

    def apply(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.cols} columns")
        field = self.field
        zero = field.zero
        out = []
        for row in self.nonzeros:
            acc = zero
            for j, a in row:
                v = vec[j]
                if v:
                    acc += a * v
            out.append(acc)
        if field.is_prime_field:
            return tuple(x % field.p for x in out)
        return tuple(out)


@dataclass(frozen=True)
class Subspace:
    """A subspace of k^n, stored as the nonzero index of its unique reduced
    row-echelon basis (per basis row, its (column, value) pairs as for
    Matrix.nonzeros).

    Canonical form makes subspace equality a syntactic comparison of the
    index: pivot columns strictly increase, pivots are 1, and pivot columns
    are otherwise zero.  The dense ``basis`` is materialised on first read.
    """

    ambient_dim: int
    nonzeros: tuple[IndexRow, ...]
    field: FieldSpec

    @staticmethod
    def from_spanning(vectors: Iterable[Sequence[Scalar]], ambient_dim: int, field: FieldSpec) -> "Subspace":
        coerce = field.coerce
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch(f"vector length {len(v)} in ambient dimension {ambient_dim}")
            row = {}
            for j, x in enumerate(v):
                if x:
                    y = coerce(x)
                    if y:
                        row[j] = y
            rows.append(row)
        return _subspace(ambient_dim, _echelon(rows, ambient_dim, field)[1], field)

    @staticmethod
    def zero_subspace(ambient_dim: int, field: FieldSpec) -> "Subspace":
        return Subspace(ambient_dim, (), field)

    @staticmethod
    def full(ambient_dim: int, field: FieldSpec) -> "Subspace":
        one = field.one
        return _subspace(ambient_dim, [{i: one} for i in range(ambient_dim)], field)

    @cached_property
    def basis(self) -> tuple[tuple[Scalar, ...], ...]:
        """The echelon basis as dense vectors."""
        return _dense(self.nonzeros, self.ambient_dim, self.field)

    @property
    def dim(self) -> int:
        return len(self.nonzeros)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(row[0][0] for row in self.nonzeros)

    def _reduces_to_zero(self, v: dict[int, Scalar]) -> bool:
        """Whether the sparse vector v (consumed) lies in the span.  Pivot
        rows are zero at every other pivot, so one pass clears them all."""
        p = self.field.p
        for row, piv in zip(self.nonzeros, self.pivots):
            c = v.get(piv)
            if c is not None:
                _subtract(v, c, row, p)
        return not v

    def contains_vector(self, vec: Sequence[Scalar]) -> bool:
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch(f"vector length {len(vec)} vs ambient {self.ambient_dim}")
        coerce = self.field.coerce
        v = {}
        for j, x in enumerate(vec):
            if x:
                y = coerce(x)
                if y:
                    v[j] = y
        return self._reduces_to_zero(v)

    def contains_subspace(self, other: "Subspace") -> bool:
        _check_same_field(self, other)
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch(f"ambient {other.ambient_dim} vs {self.ambient_dim}")
        return all(self._reduces_to_zero(dict(row)) for row in other.nonzeros)

    def inclusion(self) -> Matrix:
        """ambient x dim matrix whose columns are the basis vectors."""
        cols: list[list[tuple[int, Scalar]]] = [[] for _ in range(self.ambient_dim)]
        for q, row in enumerate(self.nonzeros):
            for j, x in row:
                cols[j].append((q, x))
        return _from_index(self.ambient_dim, self.dim, [tuple(c) for c in cols], self.field)

    def embed(self, coords: "Subspace") -> "Subspace":
        """inclusion() applied to coords, a subspace of k^dim, uneliminated: a
        row of coords' RREF with pivot f maps to a vector led by 1 at the f-th
        pivot here, 0 at those of coords' other pivots: the images are RREF."""
        rows: list[dict[int, Scalar]] = [{} for _ in coords.nonzeros]
        for v, row in zip(rows, coords.nonzeros):
            for q, a in row:
                _subtract(v, -a, self.nonzeros[q], self.field.p)
        return _subspace(self.ambient_dim, rows, self.field)

    def coordinates(self) -> Matrix:
        """dim x ambient matrix giving coordinates on this subspace.

        Rows select the pivot positions; the result is only meaningful on
        vectors that lie in the subspace (coordinates . inclusion = id).
        """
        one = self.field.one
        return _from_index(self.dim, self.ambient_dim, [((p, one),) for p in self.pivots], self.field)


@dataclass(frozen=True)
class QuotientPresentation:
    """A quotient k^n / relations with a deterministic section.

    The quotient basis is indexed by the non-pivot coordinates of the
    relations' echelon basis; projection . section is the identity and
    kernel(projection) equals the relations.
    """

    ambient_dim: int
    relations: Subspace
    quotient_dim: int
    projection: Matrix
    section: Matrix


def _subtract(row: dict[int, Scalar], f: Scalar, other: Iterable[tuple[int, Scalar]], p: int | None):
    """row -= f * other in place, over the (column, value) pairs of other;
    entries that cancel are dropped.  ``p`` is the modulus, None over Q."""
    if p:
        for j, y in other:
            if j in row:
                x = (row[j] - f * y) % p
                if x:
                    row[j] = x
                else:
                    del row[j]
            else:
                row[j] = -f * y % p
    else:
        for j, y in other:
            if j in row:
                x = row[j] - f * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            else:
                row[j] = -f * y


def _echelon(rows: Iterable[dict[int, Scalar]], ncols: int, field: FieldSpec, lead=min) -> tuple[list[int], list[dict[int, Scalar]]]:
    """Reduced row echelon form of sparse rows (dicts from column to nonzero value).

    Returns the pivot columns in increasing order and the nonzero rows of the
    unique RREF (``lead=max``: of the reversed columns) in the same order.
    Rows are inserted one at a time against the pivot rows found so far,
    each of which is zero at every other pivot column: clearing a new row
    takes one membership test per entry and one update over each pivot
    row's nonzeros.  ``holders`` maps each non-pivot column to a superset of
    the pivot rows holding it, so a new pivot revisits only those rows.  The
    input dicts are consumed.
    """
    p = field.p
    invert = field.invert
    coerce = field.coerce
    pivot_rows: dict[int, dict[int, Scalar]] = {}
    holders: dict[int, set[int]] = {}
    for row in rows:
        if len(pivot_rows) == ncols:
            break
        for c in [c for c in row if c in pivot_rows]:
            _subtract(row, row[c], pivot_rows[c].items(), p)
        if not row:
            continue
        c = lead(row)
        head = row[c]
        if head != 1:
            inv = invert(head)
            if p:
                row = {j: x * inv % p for j, x in row.items()}
            else:  # integral quotients back to ints
                row = {j: coerce(x * inv) for j, x in row.items()}
        cleared = [c]
        for k in holders.pop(c, ()):
            other = pivot_rows[k]
            f = other.get(c)
            if f is not None:  # else an earlier update cancelled column c there
                _subtract(other, f, row.items(), p)
                cleared.append(k)
        for j in row:
            if j != c:
                holders.setdefault(j, set()).update(cleared)
        pivot_rows[c] = row
    pivots = sorted(pivot_rows)
    return pivots, [pivot_rows[c] for c in pivots]


def _nonzero_rows(m: Matrix) -> list[dict[int, Scalar]]:
    """The distinct nonzero rows of m as sparse rows: they span its row space."""
    return [dict(row) for row in dict.fromkeys(m.nonzeros) if row]


def _null_rows(ncols: int, pivots: Sequence[int], rows: Iterable, field: FieldSpec) -> list[dict[int, Scalar]]:
    """The null vector of each free column f, by increasing f, of the RREF with
    these pivots and (column, value) rows: 1 at f, -row[f] at each pivot."""
    one = field.one
    p = field.p
    pivot_set = set(pivots)
    vecs = {f: {f: one} for f in range(ncols) if f not in pivot_set}
    for piv, row in zip(pivots, rows):
        for j, x in row:
            if j != piv:
                vecs[j][piv] = -x % p if p else -x
    return list(vecs.values())


def _kernel_rows(rows: Iterable[dict[int, Scalar]], ncols: int, field: FieldSpec) -> list[dict[int, Scalar]]:
    """RREF basis rows of the null space of the matrix with the given sparse rows."""
    pivots, reduced = _echelon(rows, ncols, field, max)
    return _null_rows(ncols, pivots, [row.items() for row in reduced], field)


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the null space {v : m v = 0}."""
    return _subspace(m.cols, _kernel_rows(_nonzero_rows(m), m.cols, m.field), m.field)


def image(m: Matrix) -> Subspace:
    """Canonical basis of the column space, as a subspace of k^rows."""
    cols: list[dict[int, Scalar]] = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.nonzeros):
        for j, x in row:
            cols[j][i] = x
    return _subspace(m.rows, _echelon(cols, m.rows, m.field)[1], m.field)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """s1 cap s2 as s1.embed of the kernel of c |-> the remainder of
    sum c_q u_q against s2's basis, a linear map zero exactly on s2."""
    _check_same_field(s1, s2)
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(f"ambient {s1.ambient_dim} vs {s2.ambient_dim}")
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero_subspace(s1.ambient_dim, s1.field)
    stacked: list[dict[int, Scalar]] = [{} for _ in range(s1.ambient_dim)]
    for q, row in enumerate(s1.nonzeros):
        remainder = dict(row)
        s2._reduces_to_zero(remainder)
        for j, x in remainder.items():
            stacked[j][q] = x
    return s1.embed(_subspace(s1.dim, _kernel_rows(stacked, s1.dim, s1.field), s1.field))


@dataclass(frozen=True)
class Bijectivity:
    """rank of a linear map m, m^-1 rhs when m is bijective, and otherwise a
    witness: a kernel vector, or, for an injective map (rank == cols), the
    first standard basis vector of the target outside the image."""

    rank: int
    solution: Matrix | None
    witness: tuple[Scalar, ...] | None


def decide_bijection(m: Matrix, rhs: Matrix) -> Bijectivity:
    """The one bijectivity decision: for square m, one elimination of
    [m | rhs] over every row, since a zero row of m may carry rhs."""
    _check_same_field(m, rhs)
    if rhs.rows != m.rows:
        raise DimensionMismatch(f"rhs has {rhs.rows} rows, the map {m.rows}")
    if m.rows == m.cols:
        n = m.rows
        aug = [dict(row + tuple((n + j, x) for j, x in extra)) for row, extra in zip(m.nonzeros, rhs.nonzeros)]
        pivots, reduced = _echelon(aug, n + rhs.cols, m.field)
        if pivots != list(range(n)):
            return Bijectivity(sum(1 for p in pivots if p < n), None, next(iter(kernel(m).basis), None))
        solution = [tuple((j - n, x) for j, x in sorted(row.items()) if j >= n) for row in reduced]
        return Bijectivity(n, _from_index(n, rhs.cols, solution, m.field), None)
    if m.cols > m.rows:  # wide: one elimination finds the kernel, and the rank with it
        ker = kernel(m)
        return Bijectivity(m.cols - ker.dim, None, ker.basis[0])
    img = image(m)  # tall: the kernel is needed only when the rank is short
    if img.dim < m.cols:
        return Bijectivity(img.dim, None, kernel(m).basis[0])
    missed = (basis_vector(m.rows, i, m.field) for i in range(m.rows))
    return Bijectivity(img.dim, None, next(v for v in missed if not img.contains_vector(v)))


def kron(m1: Matrix, m2: Matrix) -> Matrix:
    """Kronecker product: the matrix of f (x) g on row-major tensor bases."""
    _check_same_field(m1, m2)
    field = m1.field
    p = field.p
    c2 = m2.cols
    nz2 = m2.nonzeros
    out = []
    for row1 in m1.nonzeros:
        blocks = [(j1 * c2, a, a == 1) for j1, a in row1]
        for row2 in nz2:
            pairs: list[tuple[int, Scalar]] = []
            for base, a, unit in blocks:
                if unit:
                    pairs.extend((base + j2, b) for j2, b in row2)
                elif p:
                    pairs.extend((base + j2, a * b % p) for j2, b in row2)
                else:
                    pairs.extend((base + j2, a * b) for j2, b in row2)
            out.append(tuple(pairs))
    return _from_index(m1.rows * m2.rows, m1.cols * c2, out, field)


def tensor_subspace(s: Subspace, t: Subspace) -> Subspace:
    """S (x) T in the tensor product of the ambient spaces, read off the two
    echelon indexes: the rows r_i (x) s_j of the RREF bases, ordered by
    (i, j), are its RREF basis.  Row (i, j) has its pivot 1 at column
    p_i * n + q_j, which increases with (i, j), and every other row is zero
    there, since r_i' or s_j' is zero at p_i or q_j."""
    _check_same_field(s, t)
    field = s.field
    rows = kron(_from_index(s.dim, s.ambient_dim, s.nonzeros, field), _from_index(t.dim, t.ambient_dim, t.nonzeros, field))
    return Subspace(s.ambient_dim * t.ambient_dim, rows.nonzeros, field)


def kron_apply(x: Matrix, y: Matrix, m: Matrix) -> Matrix:
    """kron(x, y) @ m, forming no identity factor: with y = I_n it is
    leg_product(x, m, (1, cols(x), n)), with x = I_n
    leg_product_mirror(y, m, (1, cols(y), n)), and with both m itself."""
    _check_same_field(x, y)
    _check_same_field(x, m)
    if x.cols * y.cols != m.rows:
        raise DimensionMismatch(f"kron({x.rows}x{x.cols}, {y.rows}x{y.cols}) @ {m.rows}x{m.cols}")
    if y.is_identity:
        return m if x.is_identity else leg_product(x, m, (1, x.cols, y.rows))
    if x.is_identity:
        return leg_product_mirror(y, m, (1, y.cols, x.rows))
    return kron(x, y) @ m


def apply_kron(m: Matrix, x: Matrix, y: Matrix) -> Matrix:
    """m @ kron(x, y), forming no identity factor: by the mixed-product rule
    kron(x, y) = kron(I, y) kron(x, I), with x = I it is leg_product(m, y,
    (rows(x), rows(y), 1)), with y = I leg_product_mirror(m, x, (rows(y),
    rows(x), 1)), and with both m itself."""
    _check_same_field(m, x)
    _check_same_field(m, y)
    if m.cols != x.rows * y.rows:
        raise DimensionMismatch(f"{m.rows}x{m.cols} @ kron({x.rows}x{x.cols}, {y.rows}x{y.cols})")
    if y.is_identity:
        return m if x.is_identity else leg_product_mirror(m, x, (y.rows, x.rows, 1))
    if x.is_identity:
        return leg_product(m, y, (x.rows, y.rows, 1))
    return m @ kron(x, y)


def _check_legs(x: Matrix, z: Matrix, dims: Sequence[int], x_cols: int, z_rows: int, what: str):
    _check_same_field(x, z)
    if (x.cols, z.rows) != (x_cols, z_rows):
        raise DimensionMismatch(f"{what} of {x.rows}x{x.cols} and {z.rows}x{z.cols} over legs {tuple(dims)}")


def leg_product(x: Matrix, z: Matrix, dims: Sequence[int]) -> Matrix:
    """kron(x, I_W) @ kron(I_K, z) with dims = (K, A, W), forming neither
    factor: x has K*A columns and z has A*W rows.

    Output row i*W + w splits row i of x, in column order, into K blocks of
    width A.  Block k combines the strided slice of rows w, W + w, ... of z
    by its coefficients, and the result lands at column offset k*cols(z).
    A placed operand (Matrix.places) relabels the other's indexes: a placed
    x, at any K, makes the output row row a*W + w of z, for the entry of row
    i of x at k*A + a, with its columns moved up by k*cols(z), shared when
    k = 0; a placed z, with K > 1, sends entry k*A + a of row i of x to
    column k*cols(z) + c, for c the one column of row a*W + w of z, drops it
    where that row is empty, and _summed sums the entries that meet.  With
    K = 1 the output row is one combination, by the row kernel of
    _combiner, which shares the row of a one-term unit combination.  With
    K > 1, when _combiner picks the packed kernel for the blocks (over
    GF(p)), the packed sums of the blocks, each shifted to its offset, add
    into one int per output row; else each block is taken only to the
    slices where one of its rows of z is nonzero, and a one-term block is
    that row, scaled, with no call to the row kernel.
    """
    k_, a_, w_ = dims
    _check_legs(x, z, dims, k_ * a_, a_ * w_, "leg product")
    p = x.field.p
    width = z.cols
    znz, out = z.nonzeros, []
    if x.places:
        for row in x.nonzeros:
            k, a = divmod(row[0][0], a_) if row else (0, None)
            rows = znz[a * w_ : (a + 1) * w_] if row else ((),) * w_
            out.extend([tuple([(k * width + c, b) for c, b in y]) if y else () for y in rows] if k else rows)
        return _from_index(x.rows * w_, k_ * width, out, x.field)
    if k_ > 1 and z.places:
        # per w, the one column of row a*W + w of z by a, None where it is empty
        picks = [[row[0][0] if row else None for row in znz[w::w_]] for w in range(w_)]
        for xrow in x.nonzeros:
            for cols in picks:
                out.append(_summed([(j // a_ * width + c, v) for j, v in xrow if (c := cols[j % a_]) is not None], p))
        return _from_index(x.rows * w_, k_ * width, out, x.field)
    combine, znz = _combiner(p, width, z.nonzeros, x.nonzeros, blocks=k_)
    slices = [znz[w::w_] for w in range(w_)]
    if k_ == 1:
        out = [combine(xrow, rows, p) for xrow in x.nonzeros for rows in slices]
        return _from_index(x.rows * w_, width, out, x.field)
    if combine is not _combination:
        s = _slot(p, z.rows)
        for xrow in x.nonzeros:
            blocks = [(k * width * s, terms) for k, terms in _blocks(xrow, a_)]
            for rows in slices:
                acc = 0
                for shift, terms in blocks:
                    block = 0
                    for a, v in terms:
                        block += v % p * rows[a][1]
                    acc += block << shift
                out.append(_unpacked(acc, p, s, k_ * width))
        return _from_index(x.rows * w_, k_ * width, out, x.field)
    # per a, the slices w where row a*W + w of z is nonzero, with that row
    reach = [[(w, row) for w, row in enumerate(znz[a * w_ : (a + 1) * w_]) if row] for a in range(a_)]
    for xrow in x.nonzeros:
        built: list[list[tuple[int, Scalar]]] = [[] for _ in range(w_)]
        for k, terms in _blocks(xrow, a_):
            base = k * width
            if len(terms) == 1:
                a, v = terms[0]
                for w, y in reach[a]:
                    built[w].extend(_moved(y, base, v, p))
            else:
                for w in {w for a, _ in terms for w, _ in reach[a]}:
                    built[w].extend(_moved(_combination(terms, slices[w], p), base, 1, p))
        out.extend([tuple(row) for row in built])
    return _from_index(x.rows * w_, k_ * width, out, x.field)


def leg_product_mirror(x: Matrix, z: Matrix, dims: Sequence[int]) -> Matrix:
    """kron(I_W, x) @ kron(z, I_K) with dims = (K, A, W), forming neither
    factor: x has A*K columns and z has W*A rows.  The identity legs sit on
    the other side of each factor from leg_product.

    Output row w*rows(x) + i accumulates, for each entry v at column
    a*K + k of row i of x, v times row w*A + a of z with its column c moved
    to c*K + k: the outer product of that row of z with the entry.  A
    placed operand relabels the other's indexes, as in leg_product: a
    placed x, at any K, makes the output row row w*A + a of z with its
    columns c moved to c*K + k, shared when K = 1; a placed z, with K > 1,
    sends entry a*K + k of row i of x to column c*K + k, for c the one
    column of row w*A + a of z.  With K = 1, output row w*rows(x) + i is
    row i of x applied, by the row kernel of _combiner, to the block of rows
    from w*A of z.  With K > 1, when _combiner picks the packed kernel (over
    GF(p), per block of K columns), z is packed at stride K and x at stride
    1, and block a of a row of x, K cells, times row w*A + a of z is that
    outer product for the whole block in one multiply (Kronecker
    substitution).  Otherwise the entries are sorted, and summed in a dict
    only if two share a column.  Each cell is reduced mod p once.
    """
    k_, a_, w_ = dims
    _check_legs(x, z, dims, a_ * k_, w_ * a_, "mirror leg product")
    p = x.field.p
    znz, out = z.nonzeros, []
    if x.places:
        picks = [divmod(row[0][0], k_) if row else None for row in x.nonzeros]
        out = [() if pick is None else znz[w * a_ + pick[0]] for w in range(w_) for pick in picks]
        if k_ > 1:  # an empty row stays empty, and reads no pick
            out = [tuple([(c * k_ + pick[1], b) for c, b in y]) if y else () for y, pick in zip(out, picks * w_)]
        return _from_index(w_ * x.rows, z.cols * k_, out, x.field)
    if k_ > 1 and z.places:
        # per w, the one column c of row w*A + a of z by a, as c*K, None where it is empty
        picks = [[row[0][0] * k_ if row else None for row in znz[w * a_ : (w + 1) * a_]] for w in range(w_)]
        for cols in picks:
            for xrow in x.nonzeros:
                out.append(_summed([(c + j % k_, v) for j, v in xrow if (c := cols[j // k_]) is not None], p))
        return _from_index(w_ * x.rows, z.cols * k_, out, x.field)
    combine, znz = _combiner(p, z.cols, z.nonzeros, x.nonzeros, blocks=k_, stride=k_)
    if k_ == 1:
        blocks = [znz[w * a_ : (w + 1) * a_] for w in range(w_)]
        out = [combine(xrow, rows, p) for rows in blocks for xrow in x.nonzeros]
        return _from_index(w_ * x.rows, z.cols, out, x.field)
    width = z.cols * k_
    built: list[list[IndexRow]] = [[] for _ in range(w_)]
    if combine is not _combination:
        s = _slot(p, z.rows)
        # per a, the shift of block a in a packed row of x, and the (w, row
        # w*A + a of z packed at stride K) where that row is nonzero
        reach = [(a * k_ * s, [(w, y) for w, (row, y) in enumerate(znz[a::a_]) if row]) for a in range(a_)]
        mask = (1 << k_ * s) - 1
        for xrow in _packed(x.nonzeros, p, s):
            cells = [0] * w_
            for shift, targets in reach:
                # block a of the row times a row at stride K: the outer
                # product, each cell c*K + k once (Kronecker substitution)
                v = xrow >> shift & mask
                if v:
                    for w, y in targets:
                        cells[w] += v * y
            for w, acc in enumerate(cells):
                built[w].append(_unpacked(acc, p, s, width))
        return _from_index(w_ * x.rows, width, [row for rows in built for row in rows], x.field)
    # per a, the w where row w*A + a of z is nonzero, with that row's
    # columns c moved to c*K
    based = [tuple([(c * k_, b) for c, b in row]) for row in znz]
    reach = [[(w, row) for w, row in enumerate(based[a::a_]) if row] for a in range(a_)]
    for xrow in x.nonzeros:
        start = end = 0  # the columns of the block a = j // K of the current entry
        found: list[list[tuple[int, Scalar]]] = [[] for _ in range(w_)]
        for j, v in xrow:
            if j >= end:
                start = j - j % k_
                end, targets = start + k_, reach[start // k_]
            for w, y in targets:
                k, pairs = j - start, found[w]
                for base, b in y:
                    pairs.append((base + k, v * b))
        for w, pairs in enumerate(found):
            built[w].append(_summed(pairs, p))
    return _from_index(w_ * x.rows, width, [row for rows in built for row in rows], x.field)


def _summed(pairs: list[tuple[int, Scalar]], p: int | None) -> IndexRow:
    """The index row of the (column, value) pairs, summed by column and,
    over GF(p), reduced; every value is nonzero when reduced."""
    if len(pairs) > 1:
        if len({j for j, _ in pairs}) < len(pairs):
            sums: dict[int, Scalar] = {}
            get = sums.get
            for j, v in pairs:
                sums[j] = get(j, 0) + v
            return _index_row(sums, p)
        pairs.sort()
    if p:
        return tuple([(j, v % p) for j, v in pairs])
    return tuple(pairs)


def _moved(row: IndexRow, shift: int, v: Scalar, p: int | None) -> IndexRow:
    """The index row v * row with its columns moved up by shift, reduced mod
    p (unless p is None); row itself when v == 1 and shift == 0."""
    if v == 1:
        return tuple([(shift + j, b) for j, b in row]) if shift else row
    if p:
        return tuple([(shift + j, v * b % p) for j, b in row])
    return tuple([(shift + j, v * b) for j, b in row])


def _blocks(row: IndexRow, width: int) -> list[tuple[int, list[tuple[int, Scalar]]]]:
    """The row's entries in column order, split into blocks of ``width``
    columns: (k, [(column - k * width, value), ...]) for each block k that
    holds an entry."""
    out: list[tuple[int, list[tuple[int, Scalar]]]] = []
    start = end = 0
    for j, v in row:
        if j >= end:
            k = j // width
            start, end, terms = k * width, (k + 1) * width, []
            out.append((k, terms))
        terms.append((j - start, v))
    return out


def _swap_packed(xcols, ycols, fcols, gcols, dims, p: int, s: int, yrows: int, cells: int) -> list[IndexRow]:
    """swap_product's columns over GF(p), in packed cells of s bits.  With
    y's columns packed once and x's at stride rows(y), z_wbc and t_vbc, the
    sum over a of f[(a, b), v] x[:, (a, c)], are multiply-adds of them, and
    column (v, w) is the sum over (b, c) of t_vbc z_wbc, read off once."""
    q1, p2, q2 = dims[1:]
    ys, xs = _packed(ycols, p, s), _packed(xcols, p, s, yrows)
    zs = []  # per column w of g, z_wbc at b * P2 + c
    for gcol in gcols:
        z = [0] * (q1 * p2)
        for r, gv in gcol:
            c, d = divmod(r, q2)
            for b in range(q1):
                z[b * p2 + c] += gv % p * ys[b * q2 + d]
        zs.append(z)
    out = []
    for fcol in fcols:
        t = [0] * (q1 * p2)  # t_vbc at b * P2 + c
        for r, fv in fcol:
            a, b = divmod(r, q1)
            for c in range(p2):
                t[b * p2 + c] += fv % p * xs[a * p2 + c]
        out.extend([_unpacked(sum(map(mul, t, z)), p, s, cells) for z in zs])
    return out


def swap_product(x: Matrix, y: Matrix, f: Matrix, g: Matrix, dims: Sequence[int]) -> Matrix:
    """kron(x, y) @ tensor_permutation(dims, (0, 2, 1, 3)) @ kron(f, g),
    the product in a tensor product, without forming either factor.

    With dims = (P, Q, P2, Q2), f: V -> P (x) Q and g: W -> P2 (x) Q2, x acts
    on P (x) P2 and y on Q (x) Q2.  Column (v, w) of the product is the sum
    over (a, c) of x[:, (a, c)] (x) u_ac, where u_ac is the sum over b of
    f[(a, b), v] z_wbc and z_wbc the sum over d of g[(c, d), w] y[:, (b, d)].
    The contraction runs in that order, g with y first, so z, which does not
    depend on v, is formed once per w.  The columns come from the factors'
    transposes.  Over GF(p), if the sums are _dense_enough for a column of
    rows(x) rows(y) cells and a _slot holds P Q P2 Q2 (p - 1)^4, _swap_packed
    forms the columns; else dicts do, each output cell reduced once.
    """
    for m in (y, f, g):
        _check_same_field(x, m)
    p1, q1, p2, q2 = dims
    if (f.rows, g.rows, x.cols, y.cols) != (p1 * q1, p2 * q2, p1 * p2, q1 * q2):
        raise DimensionMismatch(
            f"kron({x.rows}x{x.cols}, {y.rows}x{y.cols}) swap{tuple(dims)} kron({f.rows}x{f.cols}, {g.rows}x{g.cols})"
        )
    p = x.field.p
    xcols, ycols, fcols, gcols = (m.transpose().nonzeros for m in (x, y, f, g))
    yrows, cells = y.rows, x.rows * y.rows
    if s := p and _dense_enough(cells, ycols, xcols, fcols, gcols) and _slot(p, p1 * q1 * p2 * q2 * (p - 1) ** 2):
        out = _swap_packed(xcols, ycols, fcols, gcols, dims, p, s, yrows, cells)
        return _from_index(f.cols * g.cols, cells, out, x.field).transpose()
    # per column w of g, per b: z_wbc as {c: {row of y: value}}
    zs = []
    for gcol in gcols:
        zw: list[dict[int, dict[int, Scalar]]] = [{} for _ in range(q1)]
        for r, gv in gcol:
            c, d = divmod(r, q2)
            for b in range(q1):
                ycol = ycols[b * q2 + d]
                if ycol:
                    tgt = zw[b].setdefault(c, {})
                    for i2, yv in ycol:
                        tgt[i2] = tgt.get(i2, 0) + gv * yv
        zs.append(zw)
    # f[(a, b), v] as (a * P2, b, value)
    fterms = [[(r // q1 * p2, r % q1, fv) for r, fv in col] for col in fcols]
    out: list[IndexRow] = []
    for fcol in fterms:
        for zw in zs:
            u: dict[int, dict[int, Scalar]] = {}
            for abase, b, fv in fcol:
                for c, z in zw[b].items():
                    tgt = u.setdefault(abase + c, {})
                    for i2, zv in z.items():
                        tgt[i2] = tgt.get(i2, 0) + fv * zv
            acc: dict[int, Scalar] = {}
            get = acc.get
            for ac, uac in u.items():
                for i1, xv in xcols[ac]:
                    base = i1 * yrows
                    for i2, uv in uac.items():
                        acc[base + i2] = get(base + i2, 0) + xv * uv
            out.append(_index_row(acc, p))
    return _from_index(f.cols * g.cols, cells, out, x.field).transpose()


def tensor_permutation(dims: Sequence[int], perm: Sequence[int], field: FieldSpec) -> Matrix:
    """Matrix reordering tensor factors: output factor k is input factor perm[k].

    Built from its index map: output basis vector number r (row-major over the
    permuted factors) is input basis vector number sources[r].
    """
    if sorted(perm) != list(range(len(dims))):
        raise DimensionMismatch(f"{perm!r} is not a permutation of {len(dims)} factors")
    strides = [1] * len(dims)
    for k in range(len(dims) - 2, -1, -1):
        strides[k] = strides[k + 1] * dims[k + 1]
    sources = [0]
    for k in perm:
        stride = strides[k]
        sources = [s + i * stride for s in sources for i in range(dims[k])]
    one = field.one
    n = len(sources)
    return _from_index(n, n, [((s, one),) for s in sources], field)


def flip_map(dim1: int, dim2: int, field: FieldSpec) -> Matrix:
    """The flip V (x) W -> W (x) V on row-major tensor bases."""
    return tensor_permutation((dim1, dim2), (1, 0), field)


def quotient(ambient_dim: int, relations: Subspace) -> QuotientPresentation:
    """Present k^ambient / relations on the non-pivot coordinates."""
    if relations.ambient_dim != ambient_dim:
        raise DimensionMismatch(f"relations ambient {relations.ambient_dim} vs {ambient_dim}")
    field = relations.field
    # the null vector of the q-th free column f has its other entries left of f
    proj = [_sorted_index(v) for v in _null_rows(ambient_dim, relations.pivots, relations.nonzeros, field)]
    sect: list[IndexRow] = [()] * ambient_dim
    for q, row in enumerate(proj):
        sect[row[-1][0]] = ((q, field.one),)
    return QuotientPresentation(
        ambient_dim=ambient_dim,
        relations=relations,
        quotient_dim=len(proj),
        projection=_from_index(len(proj), ambient_dim, proj, field),
        section=_from_index(ambient_dim, len(proj), sect, field),
    )


def stack_rows(mats: Sequence[Matrix]) -> Matrix:
    """Stack matrices vertically (shared column count)."""
    if not mats:
        raise DimensionMismatch("nothing to stack")
    cols = mats[0].cols
    field = mats[0].field
    for m in mats:
        _check_same_field(m, mats[0])
        if m.cols != cols:
            raise DimensionMismatch("stack_rows column mismatch")
    return _from_index(sum(m.rows for m in mats), cols, [row for m in mats for row in m.nonzeros], field)


def column_matrix(vec: Sequence[Scalar], field: FieldSpec) -> Matrix:
    return Matrix(len(vec), 1, tuple((field.coerce(x),) for x in vec), field)


def row_matrix(vec: Sequence[Scalar], field: FieldSpec) -> Matrix:
    return Matrix(1, len(vec), (tuple(field.coerce(x) for x in vec),), field)


def basis_vector(n: int, i: int, field: FieldSpec) -> tuple[Scalar, ...]:
    return tuple(field.one if j == i else field.zero for j in range(n))


def middle_block(left: Matrix, right: Matrix, row_dim: int, col_dim: int) -> Matrix:
    """The diagonal block of X |-> kron(left, I_g) @ kron(I_f, X) @ kron(right, I_h).

    With left: k^f (x) k^row_dim -> k^K and right: k^P -> k^f (x) k^col_dim,
    the map sends a (row_dim g) x (col_dim h) unknown X to a (K g) x (P h)
    matrix.  It leaves the g and h indices of X alone, so it is g h copies of
    B[(k, p), (j, y)] = sum_i left[k, (i, j)] right[(i, y), p], the block
    returned here, and its kernel has dimension g h dim ker B.
    """
    if left.cols * col_dim != right.rows * row_dim:
        raise DimensionMismatch("left and right factors disagree on the middle factor")
    _check_same_field(left, right)
    field = left.field
    rnz = right.nonzeros
    out_cols = right.cols
    block: list[dict[int, Scalar]] = [{} for _ in range(left.rows * out_cols)]
    for k, lrow in enumerate(left.nonzeros):
        base = k * out_cols
        for idx, lv in lrow:
            i, j = divmod(idx, row_dim)
            for y in range(col_dim):
                col = j * col_dim + y
                for q, rv in rnz[i * col_dim + y]:
                    tgt = block[base + q]
                    tgt[col] = tgt.get(col, 0) + lv * rv
    return _from_index(len(block), row_dim * col_dim, [_index_row(row, field.p) for row in block], field)
