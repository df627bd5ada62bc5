"""Cogeneration of a coalgebra by two quotient coalgebras, and the coinvariant
intersection theorem it supports.

A chain (i_1, ..., i_L) over {1, 2} names the composite
C -> C^(x L) -> C/I_{i_1} (x) ... (x) C/I_{i_L} (iterated coproduct followed
by one projection per tensor factor; chains are named by their full factor
count, so the single-factor chains are the bare projections).  The quotients
cogenerate C when the kernels of all such composites intersect to zero.

The defining intersection ranges over all finite chains, so the check runs to
a cutoff.  Reaching kernel zero at any length is conclusive.  A nonzero
kernel K that has stabilised is also conclusive once the invariance
certificate coproduct(K) in I_i (x) C + C (x) K holds for i = 1, 2: by
induction on chain length K then lies in every chain kernel, so the full
intersection is nonzero.  Otherwise the verdict is inconclusive at the
cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, InternalCheckError
from .exactlin import (
    Matrix,
    Subspace,
    intersect,
    kernel,
    kron,
    quotient,
)
from .galois import coinvariants
from .structures import ComoduleAlgebra, FiniteCoalgebra
from .cogalois import quotient_coalgebra


COGENERATES = "cogenerates"
DOES_NOT_COGENERATE = "does-not-cogenerate"
INCONCLUSIVE = "inconclusive-at-cutoff"


def _quotients(c: FiniteCoalgebra, coideals: Sequence[Subspace]) -> list[tuple[FiniteCoalgebra, Matrix]]:
    """The quotient coalgebras C/I with their projections; raises NotCoideal."""
    for sub in coideals:
        if sub.ambient_dim != c.dim:
            raise DimensionMismatch("coideal lives in the wrong ambient space")
    return [quotient_coalgebra(c, sub) for sub in coideals]


def chain_projection_matrix(c: FiniteCoalgebra, coideal_1: Subspace, coideal_2: Subspace, chain: Sequence[int]) -> Matrix:
    """Matrix of one projection chain against the canonical quotient bases."""
    if not chain or any(i not in (1, 2) for i in chain):
        raise DimensionMismatch("chain must be a nonempty sequence over {1, 2}")
    pi = [p for _, p in _quotients(c, (coideal_1, coideal_2))]
    current = pi[chain[0] - 1]
    for idx in chain[1:]:
        current = kron(current, pi[idx - 1]) @ c.comult_matrix
    return current


@dataclass(frozen=True)
class CogenerationReport:
    """Cumulative per-length kernels, the verdict, and how it was reached,
    with the quotient coalgebras C/I_1 and C/I_2 and their projections."""

    coalgebra: FiniteCoalgebra
    quotients: tuple[tuple[FiniteCoalgebra, Matrix], ...]
    kernels_by_length: tuple[Subspace, ...]
    cutoff: int
    verdict: str
    stabilized_at: int | None
    invariance_certified: bool

    @property
    def final_kernel(self) -> Subspace:
        return self.kernels_by_length[-1]


def _invariance_certificate(
    c: FiniteCoalgebra, coideals: Sequence[Subspace], projections: Sequence[Matrix], k: Subspace
) -> bool:
    """coproduct(K) in I_i (x) C + C (x) K for i = 1, 2 (and K in I_1, I_2).

    ``projections`` are the quotient maps pi_i: C -> C/I_i.  With
    q: C -> C/K, ker(pi_i (x) q) = I_i (x) C + C (x) K, so the containment
    holds iff (pi_i (x) q) . coproduct . incl_K = 0.  Together with K
    surviving the single projections this pushes K through every longer
    chain, so a stable nonzero K certifies non-cogeneration.
    """
    if not all(sub.contains_subspace(k) for sub in coideals):
        return False
    q = quotient(c.dim, k).projection
    spread = c.comult_matrix @ k.inclusion()
    return all((kron(pi, q) @ spread).is_zero for pi in projections)


def cogeneration_check(
    c: FiniteCoalgebra,
    coideal_1: Subspace,
    coideal_2: Subspace,
    cutoff: int | None = None,
) -> CogenerationReport:
    """Intersect chain kernels length by length up to the cutoff.

    The per-length kernels are weakly decreasing; the verdict is sound in
    both conclusive directions and labelled inconclusive otherwise.
    """
    if cutoff is None:
        cutoff = c.dim + 1
    if cutoff < 1:
        raise DimensionMismatch("cutoff must be at least 1")
    quotients = _quotients(c, (coideal_1, coideal_2))
    pi = [p for _, p in quotients]
    field = c.field
    running = Subspace.full(c.dim, field)
    kernels: list[Subspace] = []
    level = [pi[0], pi[1]]
    stabilized = None
    verdict = INCONCLUSIVE
    certified = False
    for length in range(1, cutoff + 1):
        if length > 1:
            level = [kron(w, p) @ c.comult_matrix for w in level for p in pi]
        for w in level:
            running = intersect(running, kernel(w))
        kernels.append(running)
        if running.dim == 0:
            verdict = COGENERATES
            stabilized = length
            break
        if length > 1 and kernels[-2] == running:
            if _invariance_certificate(c, (coideal_1, coideal_2), pi, running):
                verdict = DOES_NOT_COGENERATE
                stabilized = length
                certified = True
                break
    for earlier, later in zip(kernels, kernels[1:]):
        if not earlier.contains_subspace(later):
            raise InternalCheckError("per-length kernels failed to decrease")
    return CogenerationReport(
        coalgebra=c,
        quotients=tuple(quotients),
        kernels_by_length=tuple(kernels),
        cutoff=cutoff,
        verdict=verdict,
        stabilized_at=stabilized,
        invariance_certified=certified,
    )


@dataclass(frozen=True)
class CoinvariantIntersectionReport:
    """Coinvariants of C against those of both quotients, with the one-way gate."""

    full_coinvariants: Subspace
    quotient_coinvariants: tuple[Subspace, Subspace]
    intersection: Subspace
    inclusion_holds: bool
    equality_holds: bool
    cogeneration: CogenerationReport
    note: str

    @property
    def consistent(self) -> bool:
        if self.cogeneration.verdict == COGENERATES:
            return self.inclusion_holds and self.equality_holds
        return self.inclusion_holds


def coinvariant_intersection_check(x: ComoduleAlgebra, cogeneration: CogenerationReport) -> CoinvariantIntersectionReport:
    """Compare coinvariants over C with those over the two quotients of a
    cogeneration report on C.

    The inclusion of the full coinvariants in the intersection holds
    unconditionally; equality is asserted exactly when the quotients are
    certified to cogenerate.
    """
    if cogeneration.coalgebra != x.coalgebra:
        raise DimensionMismatch("cogeneration report is about a different coalgebra")
    sub_1, sub_2 = (
        coinvariants(ComoduleAlgebra(x.algebra, base, kron(x.algebra.identity_matrix, p) @ x.coaction))
        for base, p in cogeneration.quotients
    )
    full = coinvariants(x)
    meet = intersect(sub_1, sub_2)
    inclusion = meet.contains_subspace(full)
    equality = full == meet
    if cogeneration.verdict == COGENERATES:
        note = "quotients cogenerate: equality is asserted"
    elif cogeneration.verdict == DOES_NOT_COGENERATE:
        note = "hypothesis absent: quotients certified not to cogenerate, only the inclusion is asserted"
    else:
        note = "hypothesis undecided at cutoff: only the inclusion is asserted"
    return CoinvariantIntersectionReport(
        full_coinvariants=full,
        quotient_coinvariants=(sub_1, sub_2),
        intersection=meet,
        inclusion_holds=inclusion,
        equality_holds=equality,
        cogeneration=cogeneration,
        note=note,
    )
