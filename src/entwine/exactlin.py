"""Dense exact linear algebra over the rationals and GF(p).

Everything else in the library reduces to the operations here: canonical
reduced row-echelon forms, kernels and images with canonical bases, exact
inverses, Kronecker products under a fixed row-major tensor convention, and
quotient presentations of vector spaces.

Conventions, fixed once for the whole library:

* matrices act on column vectors, so a linear map V -> W is a
  dim(W) x dim(V) matrix and composition is matrix product;
* the basis vector e_i (x) e_j of V (x) W has flat index i*dim(W) + j
  (left factor major), so ``kron(f, g)`` is the matrix of f (x) g.

All values are immutable; all operations are pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch, NotSquare
from .fields import FieldSpec, Scalar


def _check_same_field(a: "Matrix | Subspace", b: "Matrix | Subspace"):
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple[tuple[Scalar, ...], ...]
    field: FieldSpec

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise DimensionMismatch(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionMismatch(f"expected {self.cols} columns, got {len(row)}")

    @staticmethod
    def from_rows(data: Iterable[Iterable], field: FieldSpec) -> "Matrix":
        rows = tuple(tuple(field.coerce(x) for x in row) for row in data)
        ncols = len(rows[0]) if rows else 0
        return Matrix(len(rows), ncols, rows, field)

    @staticmethod
    def zero(rows: int, cols: int, field: FieldSpec) -> "Matrix":
        z = field.zero
        return Matrix(rows, cols, tuple((z,) * cols for _ in range(rows)), field)

    @staticmethod
    def identity(n: int, field: FieldSpec) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix(n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)), field)

    @property
    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    @property
    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one = self.field.one
        return all(x == (one if i == j else 0) for i, row in enumerate(self.entries) for j, x in enumerate(row))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self, other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        field = self.field
        prime = field.is_prime_field
        p = field.p
        zero = field.zero
        out = [[zero] * other.cols for _ in range(self.rows)]
        bent = other.entries
        for i, arow in enumerate(self.entries):
            orow = out[i]
            for k, a in enumerate(arow):
                if not a:
                    continue
                for j, b in enumerate(bent[k]):
                    if b:
                        orow[j] += a * b
            if prime:
                out[i] = [x % p for x in orow]
        return Matrix(self.rows, other.cols, tuple(tuple(r) for r in out), field)

    def __add__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        add = self.field.add
        return Matrix(
            self.rows,
            self.cols,
            tuple(tuple(add(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
            self.field,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        sub = self.field.sub
        return Matrix(
            self.rows,
            self.cols,
            tuple(tuple(sub(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
            self.field,
        )

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.rows, self.cols, tuple(tuple(neg(a) for a in row) for row in self.entries), self.field)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.rows and self.cols else tuple(() for _ in range(self.cols)), self.field)

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[Scalar, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def apply(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.cols} columns")
        field = self.field
        out = []
        for row in self.entries:
            acc = field.zero
            for a, v in zip(row, vec):
                if a and v:
                    acc += a * v
            out.append(acc % field.p if field.is_prime_field else acc)
        return tuple(out)


@dataclass(frozen=True)
class NotInvertible:
    """Returned by try_invert for singular input: rank plus a kernel witness."""

    rank: int
    witness: tuple[Scalar, ...] | None


@dataclass(frozen=True)
class Subspace:
    """A subspace of k^n with its unique reduced row-echelon basis.

    Canonical form makes subspace equality a syntactic comparison: pivot
    columns strictly increase, pivots are 1, and pivot columns are otherwise
    zero.
    """

    ambient_dim: int
    basis: tuple[tuple[Scalar, ...], ...]
    field: FieldSpec

    @staticmethod
    def from_spanning(vectors: Iterable[Sequence[Scalar]], ambient_dim: int, field: FieldSpec) -> "Subspace":
        rows = [[field.coerce(x) for x in v] for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise DimensionMismatch(f"vector length {len(v)} in ambient dimension {ambient_dim}")
        reduced, pivots = _echelon(rows, ambient_dim, field)
        return Subspace(ambient_dim, tuple(tuple(reduced[i]) for i in range(len(pivots))), field)

    @staticmethod
    def zero_subspace(ambient_dim: int, field: FieldSpec) -> "Subspace":
        return Subspace(ambient_dim, (), field)

    @staticmethod
    def full(ambient_dim: int, field: FieldSpec) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim, field).entries, field)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.basis)

    def contains_vector(self, vec: Sequence[Scalar]) -> bool:
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch(f"vector length {len(vec)} vs ambient {self.ambient_dim}")
        field = self.field
        v = [field.coerce(x) for x in vec]
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                for j, r in enumerate(row):
                    if r:
                        v[j] = field.sub(v[j], field.mul(c, r))
        return all(not x for x in v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains_vector(v) for v in other.basis)

    def inclusion(self) -> Matrix:
        """ambient x dim matrix whose columns are the basis vectors."""
        cols = self.dim
        ent = tuple(tuple(self.basis[q][i] for q in range(cols)) for i in range(self.ambient_dim))
        return Matrix(self.ambient_dim, cols, ent, self.field)

    def coordinates(self) -> Matrix:
        """dim x ambient matrix giving coordinates on this subspace.

        Rows select the pivot positions; the result is only meaningful on
        vectors that lie in the subspace (coordinates . inclusion = id).
        """
        z, o = self.field.zero, self.field.one
        piv = self.pivots
        ent = tuple(tuple(o if j == p else z for j in range(self.ambient_dim)) for p in piv)
        return Matrix(self.dim, self.ambient_dim, ent, self.field)


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


def _echelon(rows: list[list[Scalar]], ncols: int, field: FieldSpec) -> tuple[list[list[Scalar]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = field.invert(rows[r][c])
        if inv != field.one:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref(m: Matrix) -> Matrix:
    """Unique reduced row-echelon form (leftmost pivots, exact division)."""
    rows = [list(r) for r in m.entries]
    reduced, _ = _echelon(rows, m.cols, m.field)
    return Matrix(m.rows, m.cols, tuple(tuple(r) for r in reduced), m.field)


def rank(m: Matrix) -> int:
    rows = [list(r) for r in m.entries]
    _, pivots = _echelon(rows, m.cols, m.field)
    return len(pivots)


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the null space {v : m v = 0}."""
    rows = [list(r) for r in m.entries]
    reduced, pivots = _echelon(rows, m.cols, m.field)
    field = m.field
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    vecs = []
    for f in free:
        v = [field.zero] * m.cols
        v[f] = field.one
        for i, p in enumerate(pivots):
            v[p] = field.neg(reduced[i][f])
        vecs.append(v)
    return Subspace.from_spanning(vecs, m.cols, field)


def image(m: Matrix) -> Subspace:
    """Canonical basis of the column space, as a subspace of k^rows."""
    return Subspace.from_spanning(m.columns(), m.rows, m.field)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    _check_same_field(s1, s2)
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(f"ambient {s1.ambient_dim} vs {s2.ambient_dim}")
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero_subspace(s1.ambient_dim, s1.field)
    field = s1.field
    # Solve sum a_i u_i = sum b_j w_j via the kernel of [U | -W] (columns).
    n = s1.ambient_dim
    cols1, cols2 = s1.dim, s2.dim
    inc1, inc2 = s1.inclusion().entries, s2.inclusion().entries
    ent = tuple(tuple(list(inc1[i]) + [field.neg(x) for x in inc2[i]]) for i in range(n))
    stacked = Matrix(n, cols1 + cols2, ent, field)
    vecs = []
    for kv in kernel(stacked).basis:
        coeffs = kv[:cols1]
        v = [field.zero] * n
        for a, u in zip(coeffs, s1.basis):
            if a:
                for j, x in enumerate(u):
                    if x:
                        v[j] = field.add(v[j], field.mul(a, x))
        vecs.append(v)
    return Subspace.from_spanning(vecs, n, field)


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    _check_same_field(s1, s2)
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(f"ambient {s1.ambient_dim} vs {s2.ambient_dim}")
    return Subspace.from_spanning(list(s1.basis) + list(s2.basis), s1.ambient_dim, s1.field)


def try_invert(m: Matrix):
    """Exact two-sided inverse, or NotInvertible with rank and kernel witness."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols} matrix")
    n = m.rows
    field = m.field
    ident = Matrix.identity(n, field)
    aug = [list(r) + list(i) for r, i in zip(m.entries, ident.entries)]
    reduced, pivots = _echelon(aug, 2 * n, field)
    if pivots != list(range(n)):
        ker = kernel(m)
        witness = ker.basis[0] if ker.dim else None
        return NotInvertible(rank=sum(1 for p in pivots if p < n), witness=witness)
    inv = Matrix(n, n, tuple(tuple(row[n:]) for row in reduced), field)
    return inv


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
    rows = m1.rows * m2.rows
    cols = m1.cols * m2.cols
    zero = field.zero
    prime = field.is_prime_field
    p = field.p
    out = [[zero] * cols for _ in range(rows)]
    for i1, row1 in enumerate(m1.entries):
        base_r = i1 * m2.rows
        for j1, a in enumerate(row1):
            if not a:
                continue
            base_c = j1 * m2.cols
            for i2, row2 in enumerate(m2.entries):
                orow = out[base_r + i2]
                for j2, b in enumerate(row2):
                    if b:
                        orow[base_c + j2] = (a * b) % p if prime else a * b
    return Matrix(rows, cols, tuple(tuple(r) for r in out), field)


def tensor_permutation(dims: Sequence[int], perm: Sequence[int], field: FieldSpec) -> Matrix:
    """Matrix reordering tensor factors: output factor k is input factor perm[k]."""
    n = 1
    for d in dims:
        n *= d
    if sorted(perm) != list(range(len(dims))):
        raise DimensionMismatch(f"{perm!r} is not a permutation of {len(dims)} factors")
    out_dims = [dims[k] for k in perm]
    zero, one = field.zero, field.one
    ent = [[zero] * n for _ in range(n)]
    for flat_in in range(n):
        idx = []
        rem = flat_in
        for d in reversed(dims):
            idx.append(rem % d)
            rem //= d
        idx.reverse()
        flat_out = 0
        for k, d in zip(perm, out_dims):
            flat_out = flat_out * d + idx[k]
        ent[flat_out][flat_in] = one
    return Matrix(n, n, tuple(tuple(r) for r in ent), field)


def flip_map(dim1: int, dim2: int, field: FieldSpec) -> Matrix:
    """The flip V (x) W -> W (x) V on row-major tensor bases."""
    return tensor_permutation((dim1, dim2), (1, 0), field)


def quotient(ambient_dim: int, relations: Subspace) -> QuotientPresentation:
    """Present k^ambient / relations on the non-pivot coordinates."""
    if relations.ambient_dim != ambient_dim:
        raise DimensionMismatch(f"relations ambient {relations.ambient_dim} vs {ambient_dim}")
    field = relations.field
    piv = relations.pivots
    pivot_set = set(piv)
    nonpiv = [j for j in range(ambient_dim) if j not in pivot_set]
    qdim = len(nonpiv)
    zero, one = field.zero, field.one
    proj = [[zero] * ambient_dim for _ in range(qdim)]
    for q, np_col in enumerate(nonpiv):
        proj[q][np_col] = one
        for i, p in enumerate(piv):
            proj[q][p] = field.neg(relations.basis[i][np_col])
    sect = [[zero] * qdim for _ in range(ambient_dim)]
    for q, np_col in enumerate(nonpiv):
        sect[np_col][q] = one
    return QuotientPresentation(
        ambient_dim=ambient_dim,
        relations=relations,
        quotient_dim=qdim,
        projection=Matrix(qdim, ambient_dim, tuple(tuple(r) for r in proj), field),
        section=Matrix(ambient_dim, qdim, tuple(tuple(r) for r in sect), field),
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
    ent = tuple(row for m in mats for row in m.entries)
    return Matrix(sum(m.rows for m in mats), cols, ent, field)


def column_matrix(vec: Sequence[Scalar], field: FieldSpec) -> Matrix:
    return Matrix(len(vec), 1, tuple((field.coerce(x),) for x in vec), field)


def row_matrix(vec: Sequence[Scalar], field: FieldSpec) -> Matrix:
    return Matrix(1, len(vec), (tuple(field.coerce(x) for x in vec),), field)


def basis_vector(n: int, i: int, field: FieldSpec) -> tuple[Scalar, ...]:
    return tuple(field.one if j == i else field.zero for j in range(n))


def middle_linear_system(left: Matrix, right: Matrix, factor_dim: int, unknown_rows: int, unknown_cols: int) -> Matrix:
    """Matrix of the linear map X |-> left @ kron(I_factor_dim, X) @ right.

    The unknown X has shape unknown_rows x unknown_cols and is vectorised
    row-major; the output is vectorised row-major over
    (left.rows x right.cols).  Used to pose entwining-uniqueness questions as
    plain linear systems.
    """
    if left.cols != factor_dim * unknown_rows:
        raise DimensionMismatch("left factor width does not match I (x) X")
    if right.rows != factor_dim * unknown_cols:
        raise DimensionMismatch("right factor height does not match I (x) X")
    _check_same_field(left, right)
    field = left.field
    prime = field.is_prime_field
    p = field.p
    out_rows = left.rows * right.cols
    out_cols = unknown_rows * unknown_cols
    big = [[field.zero] * out_cols for _ in range(out_rows)]
    for u, lrow in enumerate(left.entries):
        for idx, lv in enumerate(lrow):
            if not lv:
                continue
            i, r = divmod(idx, unknown_rows)
            for s in range(unknown_cols):
                rrow = right.entries[i * unknown_cols + s]
                col = r * unknown_cols + s
                for v, rv in enumerate(rrow):
                    if rv:
                        tgt = big[u * right.cols + v]
                        tgt[col] = (tgt[col] + lv * rv) % p if prime else tgt[col] + lv * rv
    return Matrix(out_rows, out_cols, tuple(tuple(r) for r in big), field)


def vectorize(m: Matrix) -> tuple[Scalar, ...]:
    """Row-major flattening, matching middle_linear_system's conventions."""
    return tuple(x for row in m.entries for x in row)
