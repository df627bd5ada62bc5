"""Cogeneration of a coalgebra by two quotient coalgebras, and the coinvariant
intersection theorem it supports.

A chain (i_1, ..., i_L) over {1, 2} names the composite
C -> C^(x L) -> C/I_{i_1} (x) ... (x) C/I_{i_L} (iterated coproduct followed
by one projection per tensor factor).  The quotients cogenerate C when the
kernels of all such composites intersect to zero.

The intersection K_L over the chains of length at most L is computed as a
fixed point.  K_1, the meet of I_1 and I_2, is the joint kernel of the two
projections, and with q_K: C -> C/K, K_{L+1} is the joint kernel of

    (pi_1 (x) q_{K_L}) . coproduct  and  (pi_2 (x) q_{K_L}) . coproduct.

By coassociativity the stacked chains of length at most L factor injectively
through q_{K_L}, so this is the intersection at length L + 1; the step is
monotone and K_2 lies in K_1 because the counit factors through q_{K_1}, so
the kernels decrease.  A step that returns its input K is the invariance
coproduct(K) in I_i (x) C + C (x) K for i = 1, 2, which pushes K through every
longer chain: a nonzero fixed point means the quotients do not cogenerate,
kernel zero means they do, and the fixed point is reached within dim C + 1
steps.  The cutoff bounds the number of steps; a verdict not reached within
it is reported inconclusive.

The coinvariants over C and over both quotients come from one coinvariant
system D = coaction . m - (m (x) C)(A (x) coaction): the quotient coaction
(A (x) pi)coaction has the system (A (x) pi) . D.  Both need valid input,
and the cogenerate suite gates on it: it validates the coalgebra before it
presents any quotient, and the comodule axioms of the coaction before it
compares coinvariants.  A failing axiom is reported as a failed
``cogenerate.coalgebra.<axiom>`` or ``cogenerate.comodule.<axiom>`` check
with its residual, and the suite stops there.
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
    kron_apply,
    quotient,
    stack_rows,
)
from .galois import coinvariant_system, coinvariants
from .structures import ComoduleAlgebra, FiniteCoalgebra


COGENERATES = "cogenerates"
DOES_NOT_COGENERATE = "does-not-cogenerate"
INCONCLUSIVE = "inconclusive-at-cutoff"


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


def _kernel_step(c: FiniteCoalgebra, projections: Sequence[Matrix], k: Subspace) -> Subspace:
    """The common kernel of (pi_i (x) q_K) . coproduct over the projections
    pi_i, where q_K: C -> C/K; ker(pi_i (x) q_K) = I_i (x) C + C (x) K."""
    q = quotient(c.dim, k).projection
    return kernel(stack_rows([kron_apply(pi, q, c.comult_matrix) for pi in projections]))


def cogeneration_check(
    c: FiniteCoalgebra,
    quotient_1: tuple[FiniteCoalgebra, Matrix],
    quotient_2: tuple[FiniteCoalgebra, Matrix],
    cutoff: int | None = None,
) -> CogenerationReport:
    """Iterate the chain-kernel fixed point for at most ``cutoff`` steps.

    The quotients are quotient_coalgebra results (C/I, pi) for the two
    coideals.  The first step starts from the kernel of the counit, the
    quotient map of the empty chain, and gives K_1, the meet of I_1 and I_2.
    """
    if cutoff is None:
        cutoff = c.dim + 1
    if cutoff < 1:
        raise DimensionMismatch("cutoff must be at least 1")
    quotients = (quotient_1, quotient_2)
    projections = [pi for _, pi in quotients]
    if any(pi.cols != c.dim for pi in projections):
        raise DimensionMismatch("quotient map leaves from the wrong space")
    running = kernel(c.counit_matrix)
    kernels: list[Subspace] = []
    stabilized = None
    verdict = INCONCLUSIVE
    for length in range(1, cutoff + 1):
        running = _kernel_step(c, projections, running)
        kernels.append(running)
        if running.dim == 0 or (length > 1 and kernels[-2] == running):
            verdict = COGENERATES if running.dim == 0 else DOES_NOT_COGENERATE
            stabilized = length
            break
    for earlier, later in zip(kernels, kernels[1:]):
        if not earlier.contains_subspace(later):
            raise InternalCheckError("per-length kernels failed to decrease")
    return CogenerationReport(
        coalgebra=c,
        quotients=quotients,
        kernels_by_length=tuple(kernels),
        cutoff=cutoff,
        verdict=verdict,
        stabilized_at=stabilized,
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


def coinvariant_intersection_check(x: ComoduleAlgebra, cogeneration: CogenerationReport) -> CoinvariantIntersectionReport:
    """Compare coinvariants over C with those over the two quotients of a
    cogeneration report on C.

    The inclusion of the full coinvariants in the intersection holds
    unconditionally; equality is asserted exactly when the quotients are
    certified to cogenerate.
    """
    if cogeneration.coalgebra != x.coalgebra:
        raise DimensionMismatch("cogeneration report is about a different coalgebra")
    a = x.algebra
    system = coinvariant_system(x)
    full = coinvariants(a, system)
    # the system of the quotient coaction (A (x) pi)coaction is (A (x) pi) . D
    sub_1, sub_2 = (coinvariants(a, kron_apply(a.identity_matrix, pi, system)) for _, pi in cogeneration.quotients)
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
