"""Exact linear algebra over the rationals and GF(p) on nonzero-indexed matrices.

Everything else in the library reduces to the operations here: canonical
reduced row-echelon forms, kernels and images with canonical bases, exact
inverses, Kronecker products under a fixed row-major tensor convention, and
quotient presentations of vector spaces.

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
one term with coefficient 1, as in a monomial map like g -> g (x) g: ``@``
and the leg products with K = 1 then place the other operand's rows,
shared.

Elimination works on sparse rows (dicts from column to value) into the
unique reduced row-echelon form.  ``kernel`` and ``rank`` eliminate each
distinct nonzero row once, since repeated and zero rows add nothing to the
row space; ``try_invert`` takes every row, because row i of its augmented
system [m | I] carries e_i.

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
transposes, and over GF(p) reduces each output cell once.

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
from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch, NotSquare
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


def _combiner(
    p: int | None, cols: int, rows: Sequence[IndexRow], *coefficients: Sequence[IndexRow], blocks: int = 1, stride: int = 1
) -> tuple[Callable[..., IndexRow], Sequence]:
    """The row kernel of a product whose combinations sum rows of the index
    ``rows`` (of width cols), with one coefficient per term from each index
    in ``coefficients``, whose rows each split into ``blocks``
    combinations; returned with the rows it combines, as for _packing.
    Over GF(p), when the average combination touches at least cols entries,
    and some touch one, that is the packed kernel of _packing; otherwise,
    and always over Q, it is _combination.  The average is the product of
    the entries per row of each index, over ``blocks``."""
    if p:
        touched, count = sum(map(len, rows)), len(rows) * blocks
        for index in coefficients:
            touched *= sum(map(len, index))
            count *= len(index)
        if touched and touched >= cols * count:
            return _packing(p, cols, rows, stride)
    return _combination, rows


def _placed(index: Sequence[IndexRow]) -> bool:
    """Whether every row of the index is empty or one term with coefficient
    1: a product combining by it places rows of the other operand."""
    return max(map(len, index), default=0) <= 1 and all([row[0][1] == 1 for row in index if row])


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
        if _placed(anz):
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
class NotInvertible:
    """Returned by try_invert for singular input: rank plus a kernel witness."""

    rank: int
    witness: tuple[Scalar, ...] | None


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

    def contains_columns(self, m: Matrix) -> bool:
        """Whether every column of m, a vector of the ambient space, lies in
        the span."""
        _check_same_field(self, m)
        if m.rows != self.ambient_dim:
            raise DimensionMismatch(f"{m.rows} rows vs ambient {self.ambient_dim}")
        cols: list[dict[int, Scalar]] = [{} for _ in range(m.cols)]
        for i, row in enumerate(m.nonzeros):
            for j, x in row:
                cols[j][i] = x
        return all(self._reduces_to_zero(col) for col in cols)

    def inclusion(self) -> Matrix:
        """ambient x dim matrix whose columns are the basis vectors."""
        cols: list[list[tuple[int, Scalar]]] = [[] for _ in range(self.ambient_dim)]
        for q, row in enumerate(self.nonzeros):
            for j, x in row:
                cols[j].append((q, x))
        return _from_index(self.ambient_dim, self.dim, [tuple(c) for c in cols], self.field)

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


def _echelon(rows: Iterable[dict[int, Scalar]], ncols: int, field: FieldSpec) -> tuple[list[int], list[dict[int, Scalar]]]:
    """Reduced row echelon form of sparse rows (dicts from column to nonzero value).

    Returns the pivot columns in increasing order and the nonzero rows of the
    unique RREF in the same order.  Rows are inserted one at a time against
    the pivot rows found so far, each of which is zero at every other pivot
    column: clearing a new row takes one membership test per entry and one
    update over each pivot row's nonzeros.  ``holders`` maps each non-pivot
    column to a superset of the pivot rows holding it, so a new pivot
    revisits only those rows.  The input dicts are consumed.
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
        c = min(row)
        lead = row[c]
        if lead != 1:
            inv = invert(lead)
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


def rank(m: Matrix) -> int:
    return len(_echelon(_nonzero_rows(m), m.cols, m.field)[0])


def _kernel_rows(rows: Iterable[dict[int, Scalar]], ncols: int, field: FieldSpec) -> list[dict[int, Scalar]]:
    """RREF basis rows of the null space of the matrix with the given sparse rows."""
    pivots, reduced = _echelon(rows, ncols, field)
    pivot_set = set(pivots)
    one = field.one
    p = field.p
    vecs = {f: {f: one} for f in range(ncols) if f not in pivot_set}
    for piv, row in zip(pivots, reduced):
        for j, x in row.items():
            if j != piv:
                vecs[j][piv] = -x % p if p else -x
    return _echelon(vecs.values(), ncols, field)[1]


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
    _check_same_field(s1, s2)
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(f"ambient {s1.ambient_dim} vs {s2.ambient_dim}")
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero_subspace(s1.ambient_dim, s1.field)
    field = s1.field
    p = field.p
    # Solve sum a_i u_i = sum b_j w_j via the kernel of [U | -W] (columns).
    n = s1.ambient_dim
    cols1 = s1.dim
    stacked: list[dict[int, Scalar]] = [{} for _ in range(n)]
    for q, row in enumerate(s1.nonzeros):
        for j, x in row:
            stacked[j][q] = x
    for q, row in enumerate(s2.nonzeros):
        for j, x in row:
            stacked[j][cols1 + q] = -x % p if p else -x
    vecs = []
    for kv in _kernel_rows(stacked, cols1 + s2.dim, field):
        v: dict[int, Scalar] = {}
        for q, a in kv.items():
            if q < cols1:
                _subtract(v, -a, s1.nonzeros[q], p)
        vecs.append(v)
    return _subspace(n, _echelon(vecs, n, field)[1], field)


def try_invert(m: Matrix):
    """Exact two-sided inverse, or NotInvertible with rank and kernel witness."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols} matrix")
    n = m.rows
    field = m.field
    one = field.one
    aug = [dict(row) for row in m.nonzeros]  # every row: row i carries e_i
    for i, row in enumerate(aug):
        row[n + i] = one
    pivots, reduced = _echelon(aug, 2 * n, field)
    if pivots != list(range(n)):
        ker = kernel(m)
        witness = ker.basis[0] if ker.dim else None
        return NotInvertible(rank=sum(1 for p in pivots if p < n), witness=witness)
    return _from_index(n, n, [tuple((j - n, x) for j, x in sorted(row.items()) if j >= n) for row in reduced], field)


@dataclass(frozen=True)
class Bijectivity:
    """rank of a linear map, its inverse when it is bijective, and otherwise a
    witness: a kernel vector, or, for an injective map (rank == cols), the
    first standard basis vector of the target outside the image."""

    rank: int
    inverse: Matrix | None
    witness: tuple[Scalar, ...] | None


def decide_bijection(m: Matrix) -> Bijectivity:
    """The one bijectivity decision behind every canonical map certificate."""
    if m.rows == m.cols:
        attempt = try_invert(m)
        if isinstance(attempt, NotInvertible):
            return Bijectivity(attempt.rank, None, attempt.witness)
        return Bijectivity(m.rows, attempt, None)
    img = image(m)
    ker = kernel(m)
    if ker.dim:
        return Bijectivity(img.dim, None, ker.basis[0])
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
    With K = 1 the output row is that one combination, by the row kernel of
    _combiner, or placed when _placed(x).  Otherwise, when _combiner picks
    the packed kernel for the blocks (over GF(p)), the packed sums of the
    blocks, each shifted to its offset, add into one int per output row;
    else each block is taken only to the slices where one of its rows of z
    is nonzero, and a one-term block is that row, scaled, with no call to
    the row kernel.
    """
    k_, a_, w_ = dims
    _check_legs(x, z, dims, k_ * a_, a_ * w_, "leg product")
    p = x.field.p
    width = z.cols
    if k_ == 1 and _placed(x.nonzeros):
        znz, blank, out = z.nonzeros, ((),) * w_, []
        for row in x.nonzeros:
            out.extend(znz[row[0][0] * w_ : (row[0][0] + 1) * w_] if row else blank)
        return _from_index(x.rows * w_, width, out, x.field)
    combine, znz = _combiner(p, width, z.nonzeros, x.nonzeros, blocks=k_)
    slices = [znz[w::w_] for w in range(w_)]
    if k_ == 1:
        out = [combine(xrow, rows, p) for xrow in x.nonzeros for rows in slices]
        return _from_index(x.rows * w_, width, out, x.field)
    out = []
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
    to c*K + k: the outer product of that row of z with the entry.  When
    _combiner picks the packed kernel (over GF(p), per block of K columns),
    z is packed at stride K and x at stride 1, and block a of a row of x,
    K cells, times row w*A + a of z is that outer product for the whole
    block in one multiply (Kronecker substitution).  Otherwise the entries
    are sorted, and summed in a dict only if two share a column.  Each cell
    is reduced mod p once.
    With K = 1 no column moves, and output row w*rows(x) + i is row i of x
    applied, by the row kernel of _combiner or placed when _placed(x), to
    the block of rows from w*A of z.
    """
    k_, a_, w_ = dims
    _check_legs(x, z, dims, a_ * k_, w_ * a_, "mirror leg product")
    p = x.field.p
    if k_ == 1 and _placed(x.nonzeros):
        znz, picks = z.nonzeros, [row[0][0] if row else None for row in x.nonzeros]
        out = [() if a is None else znz[w * a_ + a] for w in range(w_) for a in picks]
        return _from_index(w_ * x.rows, z.cols, out, x.field)
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


def swap_product(x: Matrix, y: Matrix, f: Matrix, g: Matrix, dims: Sequence[int]) -> Matrix:
    """kron(x, y) @ tensor_permutation(dims, (0, 2, 1, 3)) @ kron(f, g),
    the product in a tensor product, without forming either factor.

    With dims = (P, Q, P2, Q2), f: V -> P (x) Q and g: W -> P2 (x) Q2, x acts
    on P (x) P2 and y on Q (x) Q2.  Column (v, w) of the product is the sum
    over (a, c) of x[:, (a, c)] (x) u_ac, where u_ac is the sum over b of
    f[(a, b), v] z_wbc and z_wbc the sum over d of g[(c, d), w] y[:, (b, d)].
    The contraction runs in that order, g with y first, so z, which does not
    depend on v, is formed once per w.  The columns come from the factors'
    transposes, and over GF(p) each output cell is reduced once.
    """
    for m in (y, f, g):
        _check_same_field(x, m)
    p1, q1, p2, q2 = dims
    if (f.rows, g.rows, x.cols, y.cols) != (p1 * q1, p2 * q2, p1 * p2, q1 * q2):
        raise DimensionMismatch(
            f"kron({x.rows}x{x.cols}, {y.rows}x{y.cols}) swap{tuple(dims)} kron({f.rows}x{f.cols}, {g.rows}x{g.cols})"
        )
    p = x.field.p
    xcols = x.transpose().nonzeros
    ycols = y.transpose().nonzeros
    yrows = y.rows
    # per column w of g, per b: z_wbc as {c: {row of y: value}}
    zs = []
    for gcol in g.transpose().nonzeros:
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
    fcols = [[(r // q1 * p2, r % q1, fv) for r, fv in col] for col in f.transpose().nonzeros]
    out: list[IndexRow] = []
    for fcol in fcols:
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
    return _from_index(f.cols * g.cols, x.rows * yrows, out, x.field).transpose()


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
    one = field.one
    p = field.p
    pivot_set = set(relations.pivots)
    nonpiv = [j for j in range(ambient_dim) if j not in pivot_set]
    qdim = len(nonpiv)
    position = {col: q for q, col in enumerate(nonpiv)}
    proj: list[list[tuple[int, Scalar]]] = [[(col, one)] for col in nonpiv]
    for piv, row in zip(relations.pivots, relations.nonzeros):
        for j, x in row:
            if j != piv:
                proj[position[j]].append((piv, -x % p if p else -x))
    sect: list[IndexRow] = [()] * ambient_dim
    for q, col in enumerate(nonpiv):
        sect[col] = ((q, one),)
    return QuotientPresentation(
        ambient_dim=ambient_dim,
        relations=relations,
        quotient_dim=qdim,
        projection=_from_index(qdim, ambient_dim, [tuple(sorted(r)) for r in proj], field),
        section=_from_index(ambient_dim, qdim, sect, field),
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
