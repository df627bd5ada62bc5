"""Dense oracles for the nonzero-indexed kernels of entwine.exactlin.

These are the cell-by-cell kernels exactlin used before its matrices carried
a nonzero index, kept only to test the sparse kernels against: every one of
them scans every cell.  Each takes ``Matrix`` arguments and returns dense row
tuples (or, for elimination, rows and pivots), so results compare directly
with ``Matrix.entries`` and ``Subspace.basis``.  With them are the kernel
and intersection as exactlin computed them before a kernel took a single
elimination: the null vectors read off the RREF eliminated a second time,
and an intersection's mapped-back vectors a third.  ``try_invert`` is the
inverse as exactlin computed it before ``decide_bijection`` solved for the
columns its caller reads: the whole augmented system [m | I], its result a
Matrix or ``NotInvertible`` with the rank and the first kernel vector.

With them is the product in a tensor product, which exactlin.swap_product
computes without forming a Kronecker product: here the middle swap and
kron(f, g) are formed first and then multiplied, on the sparse kernels.
The group-like and character tests
follow in the matrix-product form they had before they became identities
of vectors.

Next come the dense structure tensors that algebras and coalgebras were
stored as before their structure-constant matrices became their only form:
the cell-by-cell tensor -> matrix conversions, and readers that rebuild
the tensor from a structure's matrix.

Then come the spanning-set forms of the coideal and invariance tests, which
cogalois and cogenerate decide through quotients, and the two larger
formulations the library replaced with smaller ones: the full (ac)^2-unknown
uniqueness system, of which the library solves one diagonal block, the
enumeration of all 2^L projection chains per length, which the library
replaced with a kernel fixed point, the per-basis-vector coinvariant
blocks, which the library reads off one coinvariant system, the
relations of A (x)_B A stacked one block per basis vector b of B, which
the library reads off the image of one map on A (x) B (x) A, the
horizontal forms with one operator rebuilt per (w, i, j), and the route
through Omega_B = (B (x) B) cap Omega_A, the right ideal of its left ideal
A.Omega_B and the intersection Omega_A cap Ker raw_can, where the library
reads the horizontal forms off the relations of A (x)_B A and the
restriction kernel off one kernel on Omega_A,
A (x) C+ spanned one Kronecker product of vectors at a time, which the
library reads off the echelon indexes of A and C+, the canonical psi
multiplied through the wide product of can and the right action on
A (x)_B A, which the library multiplies through the small one of the right
action and translation (x) A, and the subalgebra test
with one product per pair of basis vectors, which the library reads off the
one product m (incl (x) incl).

Last comes the coextension certificate built on the cotensor product
C box_B C itself: the canonical coideal spanned over basis inputs and
dual-basis functionals, the cotensor as the kernel of the equalising map,
the canonical map co-restricted to it, the cotranslation identities each
checked after its containment, the composite one on the threefold cotensor
C box_B C box_B C, and the dual entwining formula.  The library reads all
of it off the Galois certificate of the dual comodule algebra, the
composite identity as a theorem of its canonical-map checks.
With it come the coextension-side forms the library now reads off the dual
as well: the dual bundle as that certificate of the induced action over the
induced coideal, with its equivalence and the action forced by its counit,
the uniqueness system in the action, and the module axioms and the
coalgebra-map test stated directly on the action.  The algebra axioms
stated directly on the multiplication, which the library reads off the
coalgebra axioms of the dual, follow them.

Four readers that only tests use sit with the dense kernels: the dense
columns of a matrix, the product of two coordinate vectors of an algebra,
the last kernel of a cogeneration report, and whether a coinvariant
intersection report asserts what its cogeneration verdict allows.

The document reader that docformat replaced with one pass into per-row
dicts closes the module: each sparse entry checked key by key into an
(index..., c) tuple, its coefficient parsed on its own, and the tuples
remapped to cells and handed to ``Matrix.from_triples``, which re-checks
every range and sorts all cells at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from entwine.cogalois import _decide_onto_cotensor, quotient_coalgebra
from entwine.cogenerate import COGENERATES, DOES_NOT_COGENERATE, INCONCLUSIVE
from entwine.entwining import EntwiningStructure, entwined_module_check, validate_entwining
from entwine.errors import DimensionMismatch, FieldParseError, InternalCheckError, NotGaloisCoextension
from entwine.exactlin import (
    Matrix,
    Subspace,
    _echelon,
    _from_index,
    _nonzero_rows,
    _subspace,
    apply_kron,
    basis_vector,
    column_matrix,
    image,
    intersect,
    kernel,
    kron,
    leg_product,
    leg_product_mirror,
    middle_block,
    row_matrix,
    stack_rows,
    tensor_permutation,
    tensor_subspace,
)
from entwine.galois import DifferentialSequenceReport, _quotient_right_action
from entwine.structures import (
    AxiomCheck,
    ModuleCoalgebra,
    RightComodule,
    RightModule,
    ValidationReport,
    residual_check,
)
from support import subspace_sum


def matmul(a: Matrix, b: Matrix) -> tuple:
    field = a.field
    prime = field.is_prime_field
    p = field.p
    out = [[field.zero] * b.cols for _ in range(a.rows)]
    for i, arow in enumerate(a.entries):
        orow = out[i]
        for k, x in enumerate(arow):
            if not x:
                continue
            for j, y in enumerate(b.entries[k]):
                if y:
                    orow[j] += x * y
        if prime:
            out[i] = [x % p for x in orow]
    return tuple(tuple(r) for r in out)


def columns(m: Matrix) -> list[tuple]:
    """The dense columns of m."""
    return [m.column(j) for j in range(m.cols)]


def multiply(a, x, y) -> tuple:
    """The product in the algebra a of two coordinate vectors, contracted
    over the nonzero structure constants."""
    d = a.dim
    if len(x) != d or len(y) != d:
        raise DimensionMismatch(f"factors of length {len(x)} and {len(y)} in an algebra of dimension {d}")
    out = []
    for row in a.mult_matrix.nonzeros:
        acc = a.field.zero
        for ij, c in row:
            i, j = divmod(ij, d)
            if x[i] and y[j]:
                acc += c * x[i] * y[j]
        out.append(acc)
    p = a.field.p
    return tuple(v % p for v in out) if p else tuple(out)


def final_kernel(report) -> Subspace:
    """The last per-length kernel of a cogeneration report."""
    return report.kernels_by_length[-1]


def consistent(report) -> bool:
    """Whether a coinvariant intersection report holds what its
    cogeneration verdict allows: the inclusion always, and equality too
    when the quotients cogenerate."""
    if report.cogeneration.verdict == COGENERATES:
        return report.inclusion_holds and report.equality_holds
    return report.inclusion_holds


def kron_dense(m1: Matrix, m2: Matrix) -> tuple:
    field = m1.field
    prime = field.is_prime_field
    p = field.p
    out = [[field.zero] * (m1.cols * m2.cols) for _ in range(m1.rows * m2.rows)]
    for i1, row1 in enumerate(m1.entries):
        for j1, a in enumerate(row1):
            if not a:
                continue
            for i2, row2 in enumerate(m2.entries):
                orow = out[i1 * m2.rows + i2]
                for j2, b in enumerate(row2):
                    if b:
                        orow[j1 * m2.cols + j2] = (a * b) % p if prime else a * b
    return tuple(tuple(r) for r in out)


def swap_product_formed(x: Matrix, y: Matrix, f: Matrix, g: Matrix, dims) -> Matrix:
    """kron(x, y) @ mid_swap @ kron(f, g) with the four-factor permutation
    mid_swap = tensor_permutation(dims, (0, 2, 1, 3)) and kron(f, g) formed."""
    mid_swap = tensor_permutation(dims, (0, 2, 1, 3), x.field)
    return kron(x, y) @ mid_swap @ kron(f, g)


def grouplike_by_products(c, coords) -> bool:
    """coproduct(e) = e (x) e and counit(e) = 1 on e as a column matrix."""
    field = c.field
    e = column_matrix([field.coerce(x) for x in coords], field)
    return (c.comult_matrix @ e == kron(e, e)) and (c.counit_matrix @ e) == Matrix.identity(1, field)


def character_by_products(a, coords) -> bool:
    """kappa m = kappa (x) kappa and kappa(1) = 1 on kappa as a row matrix."""
    field = a.field
    k = row_matrix([field.coerce(x) for x in coords], field)
    return (k @ a.mult_matrix == kron(k, k)) and (k @ a.unit_matrix) == Matrix.identity(1, field)


def apply_dense(m: Matrix, vec) -> tuple:
    field = m.field
    out = []
    for row in m.entries:
        acc = field.zero
        for a, v in zip(row, vec):
            if a and v:
                acc += a * v
        out.append(acc % field.p if field.is_prime_field else acc)
    return tuple(out)


def echelon(rows: list[list], ncols: int, field) -> tuple[list[list], list[int]]:
    """Column-by-column Gauss-Jordan elimination in place; (rows, pivots)."""
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = field.invert(rows[r][c])
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


def rref_dense(m: Matrix) -> tuple:
    rows, _ = echelon([list(r) for r in m.entries], m.cols, m.field)
    return tuple(tuple(r) for r in rows)


def rank_dense(m: Matrix) -> int:
    return len(echelon([list(r) for r in m.entries], m.cols, m.field)[1])


def span_basis(vectors, ambient_dim: int, field) -> tuple:
    """RREF basis of the span of dense vectors."""
    rows, pivots = echelon([[field.coerce(x) for x in v] for v in vectors], ambient_dim, field)
    return tuple(tuple(rows[i]) for i in range(len(pivots)))


def kernel_dense(m: Matrix) -> tuple:
    """RREF basis of the null space."""
    field = m.field
    reduced, pivots = echelon([list(r) for r in m.entries], m.cols, field)
    vecs = []
    for f in (j for j in range(m.cols) if j not in set(pivots)):
        v = [field.zero] * m.cols
        v[f] = field.one
        for i, p in enumerate(pivots):
            v[p] = field.neg(reduced[i][f])
        vecs.append(v)
    return span_basis(vecs, m.cols, field)


def _meet_system(s1: Subspace, s2: Subspace) -> Matrix:
    """[U | -W]: the echelon bases of s1 and s2 as columns, W's negated."""
    field = s1.field
    rows = [[field.zero] * (s1.dim + s2.dim) for _ in range(s1.ambient_dim)]
    for q, u in enumerate(s1.basis):
        for j, x in enumerate(u):
            rows[j][q] = x
    for q, w in enumerate(s2.basis):
        for j, x in enumerate(w):
            rows[j][s1.dim + q] = field.neg(x)
    return Matrix(s1.ambient_dim, s1.dim + s2.dim, tuple(tuple(r) for r in rows), field)


def _through_first(s1: Subspace, kernel_vectors) -> list[list]:
    """Each kernel vector of [U | -W] mapped back through U."""
    field = s1.field
    vectors = []
    for kv in kernel_vectors:
        v = [field.zero] * s1.ambient_dim
        for a, u in zip(kv, s1.basis):
            if a:
                v = [field.add(x, field.mul(a, y)) for x, y in zip(v, u)]
        vectors.append(v)
    return vectors


def intersect_dense(s1: Subspace, s2: Subspace) -> tuple:
    """RREF basis of the intersection, through dense kernel vectors."""
    return span_basis(_through_first(s1, kernel_dense(_meet_system(s1, s2))), s1.ambient_dim, s1.field)


def kernel_by_two_eliminations(m: Matrix) -> Subspace:
    """The null space as exactlin computed it before a kernel took one
    elimination: the RREF of the distinct nonzero rows, the null vector of
    each free column read off it (1 at the column, nonzero elsewhere only at
    pivots left of it), and those vectors eliminated again into the
    canonical basis."""
    field = m.field
    pivots, reduced = _echelon(_nonzero_rows(m), m.cols, field)
    pivot_set = set(pivots)
    vecs = {f: {f: field.one} for f in range(m.cols) if f not in pivot_set}
    for piv, row in zip(pivots, reduced):
        for j, x in row.items():
            if j != piv:
                vecs[j][piv] = field.neg(x)
    return _subspace(m.cols, _echelon(vecs.values(), m.cols, field)[1], field)


def intersect_by_two_eliminations(s1: Subspace, s2: Subspace) -> Subspace:
    """The intersection as exactlin computed it before: the kernel of
    [U | -W] by two eliminations, mapped back through U, and the images
    eliminated a third time."""
    kernel_vectors = kernel_by_two_eliminations(_meet_system(s1, s2)).basis
    return Subspace.from_spanning(_through_first(s1, kernel_vectors), s1.ambient_dim, s1.field)


def non_square_decision_by_two_eliminations(m: Matrix) -> tuple:
    """(rank, witness) of a non-square m as decide_bijection gave them
    before it eliminated once: image(m) and kernel(m) both, the witness the
    first kernel vector, or for an injective m the first standard basis
    vector of the target outside the image."""
    img, ker = image(m), kernel(m)
    if ker.dim:
        return img.dim, ker.basis[0]
    missed = (basis_vector(m.rows, i, m.field) for i in range(m.rows))
    return img.dim, next(v for v in missed if not img.contains_vector(v))


@dataclass(frozen=True)
class NotInvertible:
    """Returned by try_invert for singular input: rank plus a kernel witness."""

    rank: int
    witness: tuple | None


def try_invert(m: Matrix):
    """Exact two-sided inverse, or NotInvertible with rank and kernel witness,
    from one elimination of [m | I] over every row."""
    if m.rows != m.cols:
        raise DimensionMismatch(f"{m.rows}x{m.cols} matrix is not square")
    n = m.rows
    field = m.field
    aug = [dict(row) for row in m.nonzeros]  # every row: row i carries e_i
    for i, row in enumerate(aug):
        row[n + i] = field.one
    pivots, reduced = _echelon(aug, 2 * n, field)
    if pivots != list(range(n)):
        witness = next(iter(kernel(m).basis), None)
        return NotInvertible(rank=sum(1 for p in pivots if p < n), witness=witness)
    return _from_index(n, n, [tuple((j - n, x) for j, x in sorted(row.items()) if j >= n) for row in reduced], field)


def try_invert_dense(m: Matrix) -> tuple | None:
    """Dense rows of the inverse, or None for a singular matrix."""
    n = m.rows
    field = m.field
    ident = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    reduced, pivots = echelon([list(r) + ident[i] for i, r in enumerate(m.entries)], 2 * n, field)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced)


def tensor_permutation_dense(dims, perm, field) -> tuple:
    n = 1
    for d in dims:
        n *= d
    out_dims = [dims[k] for k in perm]
    ent = [[field.zero] * n for _ in range(n)]
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
        ent[flat_out][flat_in] = field.one
    return tuple(tuple(r) for r in ent)


def mult_matrix_from_tensor(mult, field) -> Matrix:
    """m: A (x) A -> A from the tensor with e_i e_j = sum_k mult[i][j][k] e_k."""
    d = len(mult)
    ent = tuple(tuple(field.coerce(mult[i][j][k]) for i in range(d) for j in range(d)) for k in range(d))
    return Matrix(d, d * d, ent, field)


def comult_matrix_from_tensor(comult, field) -> Matrix:
    """coproduct: C -> C (x) C from the tensor with
    coproduct(e_i) = sum_{j,k} comult[i][j][k] e_j (x) e_k."""
    d = len(comult)
    ent = tuple(tuple(field.coerce(comult[i][j][k]) for i in range(d)) for j in range(d) for k in range(d))
    return Matrix(d * d, d, ent, field)


def mult_tensor(algebra) -> tuple:
    """mult[i][j][k], the coefficient of e_k in e_i e_j, read from mult_matrix."""
    d = algebra.dim
    ent = algebra.mult_matrix.entries
    return tuple(tuple(tuple(ent[k][i * d + j] for k in range(d)) for j in range(d)) for i in range(d))


def comult_tensor(coalgebra) -> tuple:
    """comult[i][j][k], the coefficient of e_j (x) e_k in coproduct(e_i), read
    from comult_matrix."""
    d = coalgebra.dim
    ent = coalgebra.comult_matrix.entries
    return tuple(tuple(tuple(ent[j * d + k][i] for k in range(d)) for j in range(d)) for i in range(d))


def _tensor_vector(u, v, field) -> tuple:
    return kron(column_matrix(u, field), column_matrix(v, field)).column(0)


def coproduct_in_mixed_span(c, sub: Subspace) -> bool:
    """coproduct(I) inside C (x) I + I (x) C, against the span of the
    2 * dim C * dim I vectors e_i (x) v and v (x) e_i."""
    field = c.field
    mixed_vectors = []
    for i in range(c.dim):
        e_i = basis_vector(c.dim, i, field)
        for v in sub.basis:
            mixed_vectors.append(_tensor_vector(e_i, v, field))
            mixed_vectors.append(_tensor_vector(v, e_i, field))
    mixed = Subspace.from_spanning(mixed_vectors, c.dim * c.dim, field)
    return all(mixed.contains_vector(c.comult_matrix.apply(v)) for v in sub.basis)


def invariance_by_spanning(c, coideals, k: Subspace) -> bool:
    """K inside every I_i and coproduct(K) inside I_i (x) C + C (x) K, against
    spanning sets of the two summands."""
    field = c.field
    if not all(sub.contains_subspace(k) for sub in coideals):
        return False
    n = c.dim
    full_vectors = [basis_vector(n, i, field) for i in range(n)]
    right_part = Subspace.from_spanning([_tensor_vector(e, v, field) for e in full_vectors for v in k.basis], n * n, field)
    for sub in coideals:
        left = Subspace.from_spanning([_tensor_vector(v, e, field) for v in sub.basis for e in full_vectors], n * n, field)
        allowed = subspace_sum(left, right_part)
        if not all(allowed.contains_vector(c.comult_matrix.apply(v)) for v in k.basis):
            return False
    return True


def middle_linear_system(left: Matrix, right: Matrix, factor_dim: int, unknown_rows: int, unknown_cols: int) -> Matrix:
    """Matrix of the linear map X |-> left @ kron(I_factor_dim, X) @ right.

    The unknown X has shape unknown_rows x unknown_cols and is vectorised
    row-major; the output is vectorised row-major over
    (left.rows x right.cols).
    """
    if left.cols != factor_dim * unknown_rows:
        raise DimensionMismatch("left factor width does not match I (x) X")
    if right.rows != factor_dim * unknown_cols:
        raise DimensionMismatch("right factor height does not match I (x) X")
    field = left.field
    rcols = right.cols
    out_cols = unknown_rows * unknown_cols
    big = [[field.zero] * out_cols for _ in range(left.rows * rcols)]
    for u, lrow in enumerate(left.entries):
        for idx, lv in enumerate(lrow):
            if not lv:
                continue
            i, r = divmod(idx, unknown_rows)
            for s in range(unknown_cols):
                for v, rv in enumerate(right.entries[i * unknown_cols + s]):
                    if not rv:
                        continue
                    tgt = big[u * rcols + v]
                    tgt[r * unknown_cols + s] = field.add(tgt[r * unknown_cols + s], field.mul(lv, rv))
    return Matrix(len(big), out_cols, tuple(tuple(row) for row in big), field)


def vectorize(m: Matrix) -> tuple:
    """Row-major flattening, matching middle_linear_system's conventions."""
    return tuple(x for row in m.entries for x in row)


def chain_projection_matrix(c, coideal_1: Subspace, coideal_2: Subspace, chain) -> Matrix:
    """Matrix of one projection chain against the canonical quotient bases;
    raises NotCoideal when either subspace is not a coideal."""
    if not chain or any(i not in (1, 2) for i in chain):
        raise DimensionMismatch("chain must be a nonempty sequence over {1, 2}")
    pi = [quotient_coalgebra(c, sub)[1] for sub in (coideal_1, coideal_2)]
    current = pi[chain[0] - 1]
    for idx in chain[1:]:
        current = kron(current, pi[idx - 1]) @ c.comult_matrix
    return current


def chain_kernels(c, coideal_1: Subspace, coideal_2: Subspace, cutoff: int) -> tuple[list, str, int | None]:
    """(kernels by length, verdict, deciding length) by intersecting the
    kernels of all 2^L chains of each length L up to the cutoff.  Kernel zero
    decides; so does a repeated nonzero kernel that passes
    invariance_by_spanning."""
    coideals = (coideal_1, coideal_2)
    pi = [quotient_coalgebra(c, sub)[1] for sub in coideals]
    running = Subspace.full(c.dim, c.field)
    kernels = []
    level = list(pi)
    for length in range(1, cutoff + 1):
        if length > 1:
            level = [kron(w, p) @ c.comult_matrix for w in level for p in pi]
        for w in level:
            running = intersect(running, kernel(w))
        kernels.append(running)
        if running.dim == 0:
            return kernels, COGENERATES, length
        if length > 1 and kernels[-2] == running and invariance_by_spanning(c, coideals, running):
            return kernels, DOES_NOT_COGENERATE, length
    return kernels, INCONCLUSIVE, None


def coinvariants_by_basis(x) -> Subspace:
    """The kernel of the stacked blocks, one per basis vector a_j,

        coaction . m . (A (x) a_j) - (m (x) C)(A (x) coaction(a_j)),

    each built from scratch.  These are the coinvariants of x whenever x is
    a comodule algebra; no unit or closure check is made."""
    a, c = x.algebra, x.coalgebra
    field = a.field
    ia, ic = a.identity_matrix, c.identity_matrix
    rho, m = x.coaction, a.mult_matrix
    blocks = []
    for j in range(a.dim):
        aj = column_matrix(basis_vector(a.dim, j, field), field)
        blocks.append(rho @ m @ kron(ia, aj) - kron(m, ic) @ kron(ia, rho @ aj))
    return kernel(stack_rows(blocks))


def left_multiplication(a, x) -> Matrix:
    """The operator a' |-> x . a' of the algebra a."""
    return apply_kron(a.mult_matrix, column_matrix(x, a.field), a.identity_matrix)


def right_multiplication(a, x) -> Matrix:
    """The operator a' |-> a' . x of the algebra a."""
    return apply_kron(a.mult_matrix, a.identity_matrix, column_matrix(x, a.field))


def balanced_relations_by_blocks(a, sub: Subspace) -> Subspace:
    """The relations a b (x) a' - a (x) b a' of A (x)_B A, one block
    kron(R_b, A) - kron(A, L_b) per basis vector b of B, with R_b = - . b
    and L_b = b . -: the blocks are transposed, stacked, and transposed back,
    and the relations are the span of their columns."""
    blocks = []
    for b in sub.basis:
        lmul = right_multiplication(a, b)
        rmul = left_multiplication(a, b)
        blocks.append((kron(lmul, a.identity_matrix) - kron(a.identity_matrix, rmul)).transpose())
    n2 = a.dim * a.dim
    return image(stack_rows(blocks).transpose() if blocks else Matrix.zero(n2, 0, a.field))


def subalgebra_failure_by_pairs(a, sub: Subspace) -> str | None:
    """Why ``sub`` is not a subalgebra of ``a``, or None: the unit, then the
    product u v of every pair of dense echelon basis vectors, one
    FiniteAlgebra.multiply each."""
    if not sub.contains_vector(a.unit):
        return "does not contain the unit"
    for u in sub.basis:
        for v in sub.basis:
            if not sub.contains_vector(multiply(a, u, v)):
                return "is not closed under multiplication"
    return None


def horizontal_forms_by_triple_loop(a, omega_b: Subspace) -> Subspace:
    """A(dB)A as the span of (L_i (x) A)(A (x) R_j)w over w in Omega_B and
    basis vectors a_i, a_j, with L_i = a_i . - and R_j = - . a_j rebuilt
    for every (w, i, j)."""
    field = a.field
    vectors = []
    for w in omega_b.basis:
        for i in range(a.dim):
            li = kron(left_multiplication(a, basis_vector(a.dim, i, field)), a.identity_matrix)
            for j in range(a.dim):
                rj = kron(a.identity_matrix, right_multiplication(a, basis_vector(a.dim, j, field)))
                vectors.append((li @ rj).apply(w))
    return Subspace.from_spanning(vectors, a.dim * a.dim, field)


def differential_sequence_by_ideals(cert) -> DifferentialSequenceReport:
    """The differential sequence as galois computed it before it read the
    horizontal forms off the balancing relations: Omega_B = (B (x) B) cap
    Omega_A, its left ideal A.Omega_B, that ideal's right ideal
    (A.Omega_B).A as A(dB)A, and the restriction kernel as Omega_A cap
    Ker raw_can."""
    x = cert.subject
    a, c = x.algebra, x.coalgebra
    m = a.mult_matrix
    omega_a = kernel(m)
    target = tensor_subspace(Subspace.full(a.dim, a.field), kernel(c.counit_matrix))
    omega_b = intersect(tensor_subspace(cert.coinvariants, cert.coinvariants), omega_a)
    legs = (a.dim, a.dim, a.dim)
    left = image(leg_product(m, omega_b.inclusion(), legs))
    horizontal = image(leg_product_mirror(m, left.inclusion(), legs))
    image_ok = image(x.raw_can @ omega_a.inclusion()) == target
    kernel_ok = intersect(omega_a, kernel(x.raw_can)) == horizontal
    return DifferentialSequenceReport(
        universal_forms=omega_a,
        horizontal_forms=horizontal,
        augmented_target=target,
        image_fills_target=image_ok,
        kernel_matches_horizontal=kernel_ok,
        exact=image_ok and kernel_ok,
        galois=cert.is_galois,
    )


def augmented_target_by_vectors(a, c) -> Subspace:
    """A (x) C+ spanned one Kronecker product at a time by e_i (x) w, for e_i
    the basis of A and w the echelon basis of C+ = Ker counit."""
    field = a.field
    cplus = kernel(c.counit_matrix)
    vectors = [
        kron(column_matrix(basis_vector(a.dim, i, field), field), column_matrix(w, field)).column(0)
        for i in range(a.dim)
        for w in cplus.basis
    ]
    return Subspace.from_spanning(vectors, a.dim * c.dim, field)


def psi_through_the_wide_product(cert) -> Matrix:
    """The canonical psi of a Galois certificate multiplied in the other
    order: can . (right multiplication on A (x)_B A) first, an
    (A (x) C) x ((A (x)_B A) (x) A) matrix, then (translation (x) A)."""
    x = cert.subject
    right_action = _quotient_right_action(x, cert.balanced)
    return apply_kron(cert.can @ right_action, cert.translation, x.algebra.identity_matrix)


def canonical_coideal_by_basis(x) -> Subspace:
    """The coideal spanned, over all basis inputs and dual-basis functionals, by
    act(c,a)_(1) f(act(c,a)_(2)) - c_(1) f(act(c_(2),a)).

    Letting f range over the dual basis exhausts all functionals because the
    expression is linear in f."""
    c, a = x.coalgebra, x.algebra
    field = c.field
    nc = c.dim
    d = c.comult_matrix
    vectors = []
    for j in range(a.dim):
        aj = column_matrix(basis_vector(a.dim, j, field), field)
        act_j = x.action @ kron(c.identity_matrix, aj)          # c |-> act(c, a_j)
        first = d @ act_j                                       # C -> C (x) C
        second = kron(c.identity_matrix, act_j) @ d             # c |-> c_(1) (x) act(c_(2), a_j)
        for k in range(nc):
            pick = kron(c.identity_matrix, row_matrix(basis_vector(nc, k, field), field))
            diff = pick @ first - pick @ second
            vectors.extend(columns(diff))
    return Subspace.from_spanning(vectors, nc, field)


def cotensor(right_coaction: Matrix, left_coaction: Matrix) -> Subspace:
    """Kernel of the coaction-equalising map inside M (x) N.

    ``right_coaction``: M -> M (x) B; ``left_coaction``: N -> B (x) N.
    """
    m_dim = right_coaction.cols
    n_dim = left_coaction.cols
    if m_dim == 0 or n_dim == 0:
        return Subspace.zero_subspace(m_dim * n_dim, right_coaction.field)
    if right_coaction.rows % m_dim or left_coaction.rows % n_dim:
        raise DimensionMismatch("coaction shapes are not multiples of the carrier")
    b_dim = right_coaction.rows // m_dim
    if left_coaction.rows != b_dim * n_dim:
        raise DimensionMismatch("the two coactions disagree on the base coalgebra")
    field = right_coaction.field
    ell = kron(right_coaction, Matrix.identity(n_dim, field)) - kron(Matrix.identity(m_dim, field), left_coaction)
    return kernel(ell)


class ImageEscape(InternalCheckError):
    """An image left the subspace the theory confines it to."""


def _cotensor_square(c, pi: Matrix) -> Subspace:
    rc = kron(c.identity_matrix, pi) @ c.comult_matrix
    lc = kron(pi, c.identity_matrix) @ c.comult_matrix
    return cotensor(rc, lc)


def _cotensor_cube(c, pi: Matrix) -> Subspace:
    """C box_B C box_B C as the joint kernel of both equalising maps."""
    rc = kron(c.identity_matrix, pi) @ c.comult_matrix
    lc = kron(pi, c.identity_matrix) @ c.comult_matrix
    ic = c.identity_matrix
    ell = kron(rc, ic) - kron(ic, lc)
    return kernel(stack_rows([kron(ell, ic), kron(ic, ell)]))


def _raw_cocanonical_map(x) -> Matrix:
    """(C (x) act)(coproduct (x) A) on the full C (x) A, landing in C (x) C."""
    c, a = x.coalgebra, x.algebra
    return kron(c.identity_matrix, x.action) @ kron(c.comult_matrix, a.identity_matrix)


@dataclass(frozen=True)
class CotensorCertificate:
    """A coextension certificate built on the cotensor product, every field
    its own: the fields of entwine's CoextensionCertificate, with the rank
    and the verdict in place of the dual certificate they are read from."""

    subject: ModuleCoalgebra
    coideal: Subspace
    base: object
    base_projection: Matrix
    cotensor: Subspace
    cocan: Matrix
    rank: int
    is_coextension: bool
    cotranslation: Matrix | None
    psi: EntwiningStructure | None
    witness: tuple | None
    checks: ValidationReport

    @property
    def base_dim(self) -> int:
        return self.base.dim


def certify_by_cotensor(x, coideal: Subspace) -> CotensorCertificate:
    """The coextension certificate over ``coideal``, built on the cotensor
    product: the canonical map must land in it, and the cotranslation
    identities are stated on it and its iterates."""
    c, a = x.coalgebra, x.algebra
    base, pi = quotient_coalgebra(c, coideal)
    web = _cotensor_square(c, pi)
    incl = web.inclusion()
    coords = web.coordinates()
    projector = incl @ coords
    cocan_full = _raw_cocanonical_map(x)
    if projector @ cocan_full != cocan_full:
        raise ImageEscape("canonical map image leaves the cotensor product")
    cocan = coords @ cocan_full
    ic, ia = c.identity_matrix, a.identity_matrix
    checks = [
        AxiomCheck("cocan-into-cotensor", "the canonical map lands in the cotensor product", None, True),
        residual_check(
            "cocan-left-colinear",
            "(coproduct (x) C)cocan = (C (x) cocan)(coproduct (x) A)",
            kron(c.comult_matrix, ic) @ cocan_full,
            kron(ic, cocan_full) @ kron(c.comult_matrix, ia),
        ),
        residual_check(
            "cocan-right-linear",
            "cocan(C (x) m) = (C (x) act)(cocan (x) A)",
            cocan_full @ kron(ic, a.mult_matrix),
            kron(ic, x.action) @ kron(cocan_full, ia),
        ),
    ]
    decision = _decide_onto_cotensor(cocan, web)
    is_galois = decision.solution is not None
    checks.append(AxiomCheck("cocan-bijective", "the canonical map is a bijection onto the cotensor product", None, is_galois))
    cert = CotensorCertificate(
        subject=x,
        coideal=coideal,
        base=base,
        base_projection=pi,
        cotensor=web,
        cocan=cocan,
        rank=decision.rank,
        is_coextension=is_galois,
        cotranslation=None,
        psi=None,
        witness=decision.witness,
        checks=ValidationReport("algebra-Galois coextension", tuple(checks)),
    )
    if not is_galois:
        return cert
    cotranslation = kron(c.counit_matrix, ia) @ try_invert(cocan)
    cert = replace(cert, cotranslation=cotranslation)
    checks.extend(_cotranslation_checks(cert))
    psi = canonical_entwining_dual(cert)
    checks.extend(validate_entwining(psi).checks)
    checks.append(
        entwined_module_check(
            RightModule(c.dim, a, x.action),
            RightComodule(c.dim, c, c.comult_matrix),
            psi,
        )
    )
    return replace(cert, psi=psi, checks=ValidationReport("algebra-Galois coextension", tuple(checks)))


def _cotranslation_checks(cert: CotensorCertificate) -> list:
    """The cotranslation identities, each stated on its proper domain."""
    x = cert.subject
    c, a = x.coalgebra, x.algebra
    web = cert.cotensor
    incl, coords = web.inclusion(), web.coordinates()
    projector = incl @ coords
    tau = cert.cotranslation
    ic, ia = c.identity_matrix, a.identity_matrix
    d, eps = c.comult_matrix, c.counit_matrix
    checks = []
    # (i) applying the cotranslation to coproduct(c) returns counit(c) 1.
    if projector @ d != d:
        raise ImageEscape("coproduct image leaves the cotensor product")
    checks.append(
        residual_check(
            "cotranslation-counit",
            "cotranslation . coproduct = unit counit",
            tau @ coords @ d,
            a.unit_matrix @ eps,
        )
    )
    # (ii) act(c_(1), cotranslation(c_(2) (x) c')) = counit(c) c' on the cotensor.
    spread = kron(d, ic) @ incl
    if kron(ic, projector) @ spread != spread:
        raise ImageEscape("(coproduct (x) C) leaves C (x) cotensor")
    checks.append(
        residual_check(
            "cotranslation-splits-action",
            "act(C (x) cotranslation)(coproduct (x) C) = counit (x) C on the cotensor",
            x.action @ kron(ic, tau @ coords) @ spread,
            kron(eps, ic) @ incl,
        )
    )
    # (iii) cotranslation(C (x) act) = m(cotranslation (x) A) on cotensor (x) A.
    acted = kron(ic, x.action) @ kron(incl, ia)
    if projector @ acted != acted:
        raise ImageEscape("the right action leaves the cotensor product")
    checks.append(
        residual_check(
            "cotranslation-right-linear",
            "cotranslation(C (x) act) = m(cotranslation (x) A) on cotensor (x) A",
            tau @ coords @ acted,
            a.mult_matrix @ kron(tau, ia),
        )
    )
    # Composite identity on the threefold cotensor.
    cube = _cotensor_cube(c, cert.base_projection)
    incl2 = cube.inclusion()
    middle = kron(ic, kron(d, ic)) @ incl2
    if kron(projector, projector) @ middle != middle:
        raise ImageEscape("(C (x) coproduct (x) C) leaves cotensor (x) cotensor")
    squeezed = kron(ic, kron(eps, ic)) @ incl2
    if projector @ squeezed != squeezed:
        raise ImageEscape("(C (x) counit (x) C) leaves the cotensor product")
    checks.append(
        residual_check(
            "cotranslation-composite",
            "m(cotranslation (x) cotranslation)(C (x) coproduct (x) C) = cotranslation(C (x) counit (x) C)",
            a.mult_matrix @ kron(tau @ coords, tau @ coords) @ middle,
            tau @ coords @ squeezed,
        )
    )
    return checks


def canonical_entwining_dual(cert: CotensorCertificate) -> EntwiningStructure:
    """psi = (cotranslation (x) C)(C (x) coproduct) . cocan."""
    if not cert.is_coextension:
        raise NotGaloisCoextension("canonical entwining requires a bijective canonical map")
    x = cert.subject
    c, a = x.coalgebra, x.algebra
    web = cert.cotensor
    incl, coords = web.inclusion(), web.coordinates()
    projector = incl @ coords
    ic = c.identity_matrix
    stretched = kron(ic, c.comult_matrix) @ incl
    if kron(projector, ic) @ stretched != stretched:
        raise ImageEscape("(C (x) coproduct) leaves cotensor (x) C")
    psi = kron(cert.cotranslation @ coords, ic) @ stretched @ cert.cocan
    return EntwiningStructure(a, c, psi)


@dataclass(frozen=True)
class DualBundleReport:
    """The dual bundle at a character kappa: the cotensor certificate of the
    induced action (kappa (x) C)psi over the induced coideal."""

    entwining: EntwiningStructure
    character: tuple
    certificate: CotensorCertificate

    @property
    def coideal(self) -> Subspace:
        return self.certificate.coideal

    @property
    def is_bundle(self) -> bool:
        return self.certificate.is_coextension

    @property
    def rank(self) -> int:
        return self.certificate.rank


def dual_bundle_by_coextension(e: EntwiningStructure, coords) -> DualBundleReport:
    """I = span{(kappa (x) C)psi(c (x) a) - c kappa(a)}, and the coextension
    certificate of the induced action over C/I."""
    a, c = e.algebra, e.coalgebra
    kap = row_matrix(coords, a.field)
    action = kron(kap, c.identity_matrix) @ e.psi
    coideal = image(action - kron(c.identity_matrix, kap))
    carrier = ModuleCoalgebra(c, a, action)
    return DualBundleReport(e, tuple(coords), certify_by_cotensor(carrier, coideal))


@dataclass(frozen=True)
class DualBundleEquivalenceReport:
    """Round trip between dual bundle data and coextension data at one character."""

    applicable: bool
    note: str
    counit_normalized: bool | None = None
    psi_recovered: bool | None = None
    coideal_matches: bool | None = None
    action_forced: bool | None = None
    certificate_ok: bool | None = None

    @property
    def ok(self) -> bool:
        if not self.applicable:
            return True
        return bool(
            self.counit_normalized
            and self.psi_recovered
            and self.coideal_matches
            and self.action_forced
            and self.certificate_ok
        )


def action_forced_by_counit(action: Matrix, psi: EntwiningStructure) -> bool:
    """act = ((counit . act) (x) C)(C (x) psi)(coproduct (x) A): through psi,
    the action is determined by the functional counit . act."""
    a, c = psi.algebra, psi.coalgebra
    ic = c.identity_matrix
    eps_act = c.counit_matrix @ action
    return action == kron(eps_act, ic) @ kron(ic, psi.psi) @ kron(c.comult_matrix, a.identity_matrix)


def dual_bundle_action_equivalence(bundle: DualBundleReport) -> DualBundleEquivalenceReport:
    """Both directions of the dual correspondence at the bundle's character:
    the induced action is an action, normalised by counit . act =
    counit (x) kappa and forced by it through psi, and its certificate
    recovers psi over its canonical coideal."""
    if not bundle.is_bundle:
        return DualBundleEquivalenceReport(False, "not a dual bundle: the canonical map is not bijective")
    cert = bundle.certificate
    carrier = cert.subject
    c = carrier.coalgebra
    if not module_axioms_on_the_action(carrier.module).ok:
        return DualBundleEquivalenceReport(False, "induced map is not an action")
    kap = row_matrix(bundle.character, c.field)
    return DualBundleEquivalenceReport(
        True,
        "",
        counit_normalized=c.counit_matrix @ carrier.action == kron(c.counit_matrix, kap),
        psi_recovered=cert.psi.psi == bundle.entwining.psi,
        coideal_matches=canonical_coideal_by_basis(carrier) == cert.coideal,
        action_forced=action_forced_by_counit(carrier.action, cert.psi),
        certificate_ok=cert.checks.ok,
    )


def uniqueness_dim_by_action(x) -> int:
    """The solution space dimension of coproduct . act =
    (act (x) C)(C (x) psi')(coproduct (x) A) in psi', one diagonal block of
    the system per (a, c)."""
    a_dim, c_dim = x.algebra.dim, x.coalgebra.dim
    return a_dim * c_dim * kernel(middle_block(x.action, x.coalgebra.comult_matrix, a_dim, c_dim)).dim


def module_axioms_on_the_action(v: RightModule) -> ValidationReport:
    """The right module axioms stated on the action itself."""
    a = v.over
    act = v.action
    iv = Matrix.identity(v.dim, a.field)
    checks = (
        residual_check(
            "action-associativity",
            "act(act (x) A) = act(V (x) m)",
            apply_kron(act, act, a.identity_matrix),
            apply_kron(act, iv, a.mult_matrix),
        ),
        residual_check("action-unit", "act(V (x) unit) = id", apply_kron(act, iv, a.unit_matrix), iv),
    )
    return ValidationReport("right module", checks)


def action_coalgebra_map_checks(x, hopf_coalgebra) -> tuple[AxiomCheck, ...]:
    """act is a coalgebra map C (x) H -> C (componentwise coproduct through
    the formed middle swap)."""
    c = x.coalgebra
    if hopf_coalgebra.dim != x.algebra.dim:
        raise DimensionMismatch("coalgebra structure must live on the acting space")
    nc, nh = c.dim, hopf_coalgebra.dim
    return (
        residual_check(
            "action-comultiplicative",
            "coproduct(act) = (act (x) act)(C (x) swap (x) H)(coproduct (x) coproduct)",
            c.comult_matrix @ x.action,
            swap_product_formed(x.action, x.action, c.comult_matrix, hopf_coalgebra.comult_matrix, (nc, nc, nh, nh)),
        ),
        residual_check(
            "action-counital",
            "counit(act(c,h)) = counit(c) counit(h)",
            c.counit_matrix @ x.action,
            kron(c.counit_matrix, row_matrix(hopf_coalgebra.counit, c.field)),
        ),
    )


def validate_algebra_direct(a) -> ValidationReport:
    """The algebra axioms stated on the multiplication itself."""
    m, u, ident = a.mult_matrix, a.unit_matrix, a.identity_matrix
    checks = (
        residual_check(
            "associativity",
            "m(m (x) id) = m(id (x) m)",
            apply_kron(m, m, ident),
            apply_kron(m, ident, m),
        ),
        residual_check("left-unit", "m(unit (x) id) = id", apply_kron(m, u, ident), ident),
        residual_check("right-unit", "m(id (x) unit) = id", apply_kron(m, ident, u), ident),
    )
    return ValidationReport("algebra", checks)


def read_sparse_by_triples(reader, field, value, path, dims, shape=None, at=None) -> Matrix:
    """The matrix docformat's reader.sparse_matrix(field, value, path, dims,
    shape, at) reads, with the same problems recorded on reader, in the same
    order: the entries in document order as (index..., coefficient) tuples,
    then Matrix.from_triples on the cells at(index...)."""
    lst = reader.expect_list(value, path)
    keys = ("i", "j", "k")[: len(dims)]
    allowed = {*keys, "c"}
    entries = []
    for n, entry in enumerate(lst or ()):
        if not isinstance(entry, dict):
            reader.fail(f"{path}[{n}]", f"expected an object, got {type(entry).__name__}")
            continue
        if not entry.keys() <= allowed:
            reader.fail(f"{path}[{n}]", f"unknown keys {sorted(entry.keys() - allowed)}")
            continue
        idx = []
        for key, bound in zip(keys, dims):
            if key not in entry:
                reader.fail(f"{path}[{n}]", f"missing index {key!r}")
                break
            got = entry[key]
            if not isinstance(got, int) or isinstance(got, bool) or not 0 <= got < bound:
                reader.fail(f"{path}[{n}].{key}", f"expected an index in 0..{bound - 1}, got {got!r}")
                break
            idx.append(got)
        else:
            if "c" not in entry:
                reader.fail(f"{path}[{n}]", "missing coefficient 'c'")
                continue
            try:
                c = field.parse(entry["c"])
            except ValueError as exc:
                reader.fail(f"{path}[{n}].c", str(exc), FieldParseError)
                c = field.zero
            entries.append((*idx, c))
    rows, cols = shape or dims
    return Matrix.from_triples(rows, cols, ((*(at(*e[:-1]) if at else e[:-1]), e[-1]) for e in entries), field)
