"""Coextensions with a base coalgebra of dimension at least two.

Every catalogue coextension collapses C onto a one-dimensional base.  Here
k[G] is acted on by a subgroup algebra k[H] through right multiplication,
so the canonical coideal identifies right cosets and the base k[G/H] has
dimension |G|/|H|; with the trivial action through the counit of k[H] the
coideal is zero and the base is all of C.  ``transport_coextension`` moves
both sides to another basis, where the cotensor's echelon coordinates no
longer line up with the basis of the quotient.
"""

from __future__ import annotations

import random

from entwine.catalogue import GROUPS, group_algebra, subgroup_closure
from dense_oracles import NotInvertible, try_invert
from entwine.exactlin import Matrix, kron, row_matrix
from entwine.fields import FieldSpec
from entwine.structures import ModuleCoalgebra, transport_algebra, transport_coalgebra


def subgroup_hopf(group: str, generator: str, field: FieldSpec):
    """The Hopf algebra k[H] for H generated by one element of G, with H's
    elements in G's order; also returns the indices of H inside G."""
    names, table, _ = GROUPS[group]
    members = subgroup_closure(table, [names.index(generator)])
    position = {g: i for i, g in enumerate(members)}
    sub_table = [[position[table[g][h]] for h in members] for g in members]
    return group_algebra({"table": sub_table, "names": [names[g] for g in members]}, field), members


def subgroup_coextension(group: str, generator: str, field: FieldSpec) -> ModuleCoalgebra:
    """k[G] acted on by k[H] through right multiplication, act(g, h) = g h."""
    _, table, _ = GROUPS[group]
    c = group_algebra({"group": group}, field).coalgebra
    sub, members = subgroup_hopf(group, generator, field)
    a = sub.algebra
    m = len(members)
    triples = ((table[g][h], g * m + j, field.one) for g in range(c.dim) for j, h in enumerate(members))
    return ModuleCoalgebra(c, a, Matrix.from_triples(c.dim, c.dim * m, triples, field))


def trivial_coextension(group: str, generator: str, field: FieldSpec) -> ModuleCoalgebra:
    """k[G] acted on by k[H] through the counit, act(g, h) = g: not Galois once |H| > 1."""
    c = group_algebra({"group": group}, field).coalgebra
    a = subgroup_hopf(group, generator, field)[0].algebra
    return ModuleCoalgebra(c, a, kron(c.identity_matrix, row_matrix((field.one,) * a.dim, field)))


def transport_coextension(x: ModuleCoalgebra, t: Matrix, s: Matrix) -> ModuleCoalgebra:
    """x in the basis where t: C' -> C and s: A' -> A are the changes of basis."""
    c = transport_coalgebra(x.coalgebra, t)
    a = transport_algebra(x.algebra, s)
    return ModuleCoalgebra(c, a, try_invert(t) @ x.action @ kron(t, s))


def transport_character(coords, s: Matrix) -> tuple:
    """The character kappa . s of the transported algebra."""
    return (row_matrix(coords, s.field) @ s).entries[0]


def random_basis(n: int, field: FieldSpec, rng: random.Random) -> Matrix:
    """A uniformly drawn invertible n x n matrix over a prime field."""
    while True:
        t = Matrix.from_rows([[rng.randrange(field.p) for _ in range(n)] for _ in range(n)], field)
        if not isinstance(try_invert(t), NotInvertible):
            return t


def upper_unitriangular(n: int, field: FieldSpec) -> Matrix:
    """The fixed non-diagonal basis change with ones on and above the diagonal."""
    return Matrix.from_rows([[field.one if j >= i else field.zero for j in range(n)] for i in range(n)], field)
