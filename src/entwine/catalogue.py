"""Built-in exact instances: group algebras and their duals for Z2, Z3, Z4, S3,
the four-dimensional Sweedler Hopf algebra, a quadratic field extension with
its diagonal coaction, group self-(co)extensions, coset coideals, and flip
entwinings.  These are the shared fixtures for the test suite and the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Any, Mapping

from .entwining import flip_entwining
from .errors import BadParams, UnknownExample
from .exactlin import Matrix, Subspace
from .fields import QQ, FieldSpec
from .structures import (
    Character,
    ComoduleAlgebra,
    FiniteAlgebra,
    FiniteCoalgebra,
    GroupLike,
    HopfAlgebra,
    ModuleCoalgebra,
)


def _permutation_compose(s, t):
    # (s . t)(i) = s(t(i))
    return tuple(s[t[i]] for i in range(len(s)))


def _cyclic_group(n: int):
    names = tuple("1" if i == 0 else ("g" if i == 1 and n > 1 else f"g{i}") for i in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inverse = tuple((-i) % n for i in range(n))
    return names, table, inverse


def _symmetric_group_3():
    perms = [
        (0, 1, 2),   # e
        (1, 0, 2),   # (12)
        (2, 1, 0),   # (13)
        (0, 2, 1),   # (23)
        (1, 2, 0),   # (123)
        (2, 0, 1),   # (132)
    ]
    names = ("e", "(12)", "(13)", "(23)", "(123)", "(132)")
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[_permutation_compose(perms[i], perms[j])] for j in range(6)) for i in range(6))
    inverse = []
    for i, p in enumerate(perms):
        q = [0, 0, 0]
        for a, b in enumerate(p):
            q[b] = a
        inverse.append(index[tuple(q)])
    return names, table, tuple(inverse)


_Z1 = _cyclic_group(1)
_Z2 = _cyclic_group(2)
_Z3 = _cyclic_group(3)
_Z4 = _cyclic_group(4)
_S3 = _symmetric_group_3()

GROUPS: dict[str, tuple[tuple[str, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]] = {
    "Z1": _Z1,
    "Z2": _Z2,
    "Z3": _Z3,
    "Z4": _Z4,
    "S3": _S3,
}


def validate_cayley_table(table) -> tuple[int, tuple[int, ...]]:
    """Check a Cayley table is a group; returns (identity index, inverse list)."""
    n = len(table)
    if any(len(row) != n for row in table):
        raise BadParams("Cayley table must be square")
    if any(not (0 <= x < n) for row in table for x in row):
        raise BadParams("Cayley table entries must index elements")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise BadParams(f"Cayley table is not associative at ({i},{j},{k})")
    identity = None
    for e in range(n):
        if all(table[e][i] == i and table[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise BadParams("Cayley table has no identity")
    inverse = []
    for i in range(n):
        inv = [j for j in range(n) if table[i][j] == identity]
        if not inv:
            raise BadParams(f"element {i} has no inverse")
        inverse.append(inv[0])
    return identity, tuple(inverse)


def _group_data(params: Mapping[str, Any]):
    if "table" in params:
        # from the command line a table is JSON text and names a comma-separated list
        table = params["table"]
        if isinstance(table, str):
            try:
                table = json.loads(table)
            except (ValueError, RecursionError):
                raise BadParams("Cayley table must be a JSON list of rows") from None
        try:
            table = tuple(tuple(int(x) for x in row) for row in table)
        except (TypeError, ValueError):
            raise BadParams("Cayley table entries must be integers") from None
        identity, inverse = validate_cayley_table(table)
        if identity != 0:
            raise BadParams("custom Cayley table must list the identity first")
        names = params.get("names", tuple(f"g{i}" for i in range(len(table))))
        if isinstance(names, str):
            names = [name.strip() for name in names.split(",")]
        names = tuple(names)
        if len(names) != len(table):
            raise BadParams("names length must match table size")
        return names, table, inverse
    name = str(params.get("group", "Z2"))
    if name not in GROUPS:
        raise BadParams(f"unknown group {name!r}; choose from {sorted(GROUPS)}")
    return GROUPS[name]


def group_algebra(params: Mapping[str, Any], field: FieldSpec = QQ) -> HopfAlgebra:
    """k[G]: basis the group elements, grouplike coproduct, antipode g -> g^-1."""
    names, table, inverse = _group_data(params)
    n = len(names)
    zero, one = field.zero, field.one
    # e_i e_j = e_(table[i][j]) and coproduct(e_i) = e_i (x) e_i
    mult = Matrix.from_triples(n, n * n, ((table[i][j], i * n + j, one) for i in range(n) for j in range(n)), field)
    comult = Matrix.from_triples(n * n, n, ((i * n + i, i, one) for i in range(n)), field)
    unit = tuple(one if i == 0 else zero for i in range(n))
    antipode = Matrix.from_triples(n, n, ((inverse[j], j, one) for j in range(n)), field)
    algebra = FiniteAlgebra(n, names, mult, unit, field)
    coalgebra = FiniteCoalgebra(n, names, comult, (one,) * n, field)
    return HopfAlgebra(algebra, coalgebra, antipode)


def dual_group_algebra(params: Mapping[str, Any], field: FieldSpec = QQ) -> HopfAlgebra:
    """Functions on G: orthogonal idempotents p_g, coproduct splitting products."""
    names, table, inverse = _group_data(params)
    n = len(names)
    zero, one = field.zero, field.one
    # p_i p_i = p_i and coproduct(p_g) = sum of p_i (x) p_j over ij = g
    mult = Matrix.from_triples(n, n * n, ((i, i * n + i, one) for i in range(n)), field)
    comult = Matrix.from_triples(n * n, n, ((i * n + j, table[i][j], one) for i in range(n) for j in range(n)), field)
    counit = tuple(one if i == 0 else zero for i in range(n))
    antipode = Matrix.from_triples(n, n, ((i, inverse[i], one) for i in range(n)), field)
    dual_names = tuple(f"p[{x}]" for x in names)
    algebra = FiniteAlgebra(n, dual_names, mult, (one,) * n, field)
    coalgebra = FiniteCoalgebra(n, dual_names, comult, counit, field)
    return HopfAlgebra(algebra, coalgebra, antipode)


def sweedler_hopf_algebra(field: FieldSpec = QQ) -> HopfAlgebra:
    """The four-dimensional Hopf algebra on 1, g, x, gx with g^2 = 1, x^2 = 0,
    xg = -gx; the smallest Hopf algebra whose antipode does not square to the
    identity.  Needs characteristic other than 2."""
    if field.is_prime_field and field.p == 2:
        raise BadParams("this instance degenerates in characteristic 2")
    zero, one = field.zero, field.one
    minus = field.neg(one)
    names = ("1", "g", "x", "gx")
    n = 4
    # (i, j, k, c): e_i e_j = ... + c e_k
    products = (
        (0, 0, 0, one),
        (0, 1, 1, one),
        (0, 2, 2, one),
        (0, 3, 3, one),
        (1, 0, 1, one),
        (1, 1, 0, one),     # g g = 1
        (1, 2, 3, one),     # g x = gx
        (1, 3, 2, one),     # g gx = x
        (2, 0, 2, one),
        (2, 1, 3, minus),   # x g = -gx
        (3, 0, 3, one),
        (3, 1, 2, minus),   # gx g = -x
    )  # x x = x gx = gx x = gx gx = 0
    # (i, j, k, c): coproduct(e_i) = ... + c e_j (x) e_k
    coproducts = (
        (0, 0, 0, one),     # 1 -> 1 (x) 1
        (1, 1, 1, one),     # g -> g (x) g
        (2, 2, 0, one),     # x -> x (x) 1 + g (x) x
        (2, 1, 2, one),
        (3, 3, 1, one),     # gx -> gx (x) g + 1 (x) gx
        (3, 0, 3, one),
    )
    mult = Matrix.from_triples(n, n * n, ((k, i * n + j, c) for i, j, k, c in products), field)
    comult = Matrix.from_triples(n * n, n, ((j * n + k, i, c) for i, j, k, c in coproducts), field)
    counit = (one, one, zero, zero)
    unit = (one, zero, zero, zero)
    antipode = Matrix.from_rows(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],   # S(gx) = x
            [0, 0, -1, 0],  # S(x) = -gx
        ],
        field,
    )
    algebra = FiniteAlgebra(n, names, mult, unit, field)
    coalgebra = FiniteCoalgebra(n, names, comult, counit, field)
    return HopfAlgebra(algebra, coalgebra, antipode)


def self_extension(h: HopfAlgebra) -> ComoduleAlgebra:
    """A = H coacting on itself by its own coproduct."""
    return ComoduleAlgebra(h.algebra, h.coalgebra, h.coalgebra.comult_matrix)


def quadratic_field_extension(d, field: FieldSpec = QQ) -> ComoduleAlgebra:
    """k[s]/(s^2 - d) graded by the order-two dual group coalgebra.

    The coaction sends a to id(a) (x) p[1] + conj(a) (x) p[g] where conj flips
    the sign of s; over Q with non-square d this is the classical quadratic
    Galois extension in coalgebra form.
    """
    try:
        d = field.coerce(d)
    except (ValueError, ZeroDivisionError):
        raise BadParams(f"parameter d is not a valid scalar: {d!r}") from None
    if not d:
        raise BadParams("parameter d must be nonzero")
    zero, one = field.zero, field.one
    names = ("1", "s")
    # 1 1 = 1, 1 s = s 1 = s, s s = d
    mult = Matrix.from_triples(2, 4, ((0, 0, one), (1, 1, one), (1, 2, one), (0, 3, d)), field)
    algebra = FiniteAlgebra(2, names, mult, (one, zero), field)
    dual = dual_group_algebra({"group": "Z2"}, field)
    # rows of the coaction are indexed by (a-basis, c-basis) pairs
    coaction = Matrix.from_rows(
        [
            [1, 0],   # 1 (x) p[1]
            [1, 0],   # 1 (x) p[g]
            [0, 1],   # s (x) p[1]
            [0, -1],  # s (x) p[g]: conj(s) = -s
        ],
        field,
    )
    return ComoduleAlgebra(algebra, dual.coalgebra, coaction)


def group_self_coextension(h: HopfAlgebra) -> ModuleCoalgebra:
    """C = H acting on itself by its own multiplication."""
    return ModuleCoalgebra(h.coalgebra, h.algebra, h.algebra.mult_matrix)


def subgroup_closure(table, generators) -> tuple[int, ...]:
    members = {0}
    frontier = set(generators)
    while frontier:
        members |= frontier
        frontier = {table[a][b] for a in members for b in members} - members
    return tuple(sorted(members))


def coset_coideal(params: Mapping[str, Any], generator_name: str, field: FieldSpec = QQ) -> Subspace:
    """The coideal identifying group-likes in the same right coset of <generator>."""
    names, table, _ = _group_data(params)
    if generator_name not in names:
        raise BadParams(f"unknown element {generator_name!r} in group")
    gen = names.index(generator_name)
    subgroup = subgroup_closure(table, [gen])
    n = len(names)
    vectors = []
    for g in range(n):
        for hh in subgroup:
            v = [field.zero] * n
            v[table[g][hh]] = field.add(v[table[g][hh]], field.one)
            v[g] = field.sub(v[g], field.one)
            vectors.append(v)
    return Subspace.from_spanning(vectors, n, field)


def trivial_character(algebra_dim: int, field: FieldSpec) -> tuple:
    return tuple(field.one for _ in range(algebra_dim))


@dataclass(frozen=True)
class ExampleSpec:
    """A named catalogue instance with its validated structures."""

    name: str
    params: tuple[tuple[str, Any], ...]
    field: FieldSpec
    structures: dict[str, Any] = dc_field(compare=False)


EXAMPLE_NAMES = (
    "group-algebra",
    "dual-group-algebra",
    "sweedler-h4",
    "trivial-hopf-galois",
    "quadratic-field-extension",
    "group-coextension",
    "coset-coideal",
    "flip-entwining",
)


def _field_from_params(params: Mapping[str, Any]) -> FieldSpec:
    p = params.get("p")
    if p is None:
        return QQ
    try:
        return FieldSpec("prime", int(p))
    except ValueError as exc:
        raise BadParams(str(exc)) from None


def build(name: str, params: Mapping[str, Any] | None = None) -> ExampleSpec:
    """Construct a catalogue instance; deterministic for fixed (name, params)."""
    params = dict(params or {})
    field = _field_from_params(params)
    structures: dict[str, Any] = {}
    if name == "group-algebra":
        h = group_algebra(params, field)
        structures["hopf"] = h
        structures["grouplikes"] = [
            GroupLike(h.coalgebra, tuple(field.one if i == j else field.zero for i in range(h.dim)))
            for j in range(h.dim)
        ]
        structures["characters"] = [Character(h.algebra, trivial_character(h.dim, field))]
    elif name == "dual-group-algebra":
        h = dual_group_algebra(params, field)
        structures["hopf"] = h
        structures["grouplikes"] = [GroupLike(h.coalgebra, tuple(h.algebra.unit))]
        structures["characters"] = [Character(h.algebra, tuple(h.coalgebra.counit))]
    elif name == "sweedler-h4":
        h = sweedler_hopf_algebra(field)
        structures["hopf"] = h
        structures["comodule_algebra"] = self_extension(h)
        structures["grouplikes"] = [
            GroupLike(h.coalgebra, (field.one, field.zero, field.zero, field.zero)),
            GroupLike(h.coalgebra, (field.zero, field.one, field.zero, field.zero)),
        ]
        structures["characters"] = [Character(h.algebra, tuple(h.coalgebra.counit))]
    elif name == "trivial-hopf-galois":
        h = group_algebra(params, field)
        structures["hopf"] = h
        structures["comodule_algebra"] = self_extension(h)
        structures["grouplikes"] = [GroupLike(h.coalgebra, tuple(h.algebra.unit))]
        structures["characters"] = [Character(h.algebra, trivial_character(h.dim, field))]
    elif name == "quadratic-field-extension":
        x = quadratic_field_extension(params.get("d", 2), field)
        structures["comodule_algebra"] = x
        structures["grouplikes"] = [GroupLike(x.coalgebra, tuple(field.one for _ in range(x.coalgebra.dim)))]
    elif name == "group-coextension":
        h = group_algebra(params, field)
        structures["hopf"] = h
        structures["module_coalgebra"] = group_self_coextension(h)
        structures["characters"] = [Character(h.algebra, trivial_character(h.dim, field))]
    elif name == "coset-coideal":
        h = group_algebra(params, field)
        generators = params.get("generators")
        if generators is None:
            generators = {"S3": ["(12)", "(123)"], "Z4": ["g2", "g2"]}.get(str(params.get("group", "Z2")), ["1", "1"])
        if isinstance(generators, str):
            generators = [g.strip() for g in generators.split(",")]
        structures["hopf"] = h
        structures["comodule_algebra"] = self_extension(h)
        structures["coideals"] = [coset_coideal(params, g, field) for g in generators]
    elif name == "flip-entwining":
        ha = group_algebra({"group": params.get("algebra", "Z2")}, field)
        hc = group_algebra({"group": params.get("coalgebra", "Z2")}, field)
        structures["algebra"] = ha.algebra
        structures["coalgebra"] = hc.coalgebra
        structures["entwining"] = flip_entwining(ha.algebra, hc.coalgebra)
    else:
        raise UnknownExample(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    return ExampleSpec(name=name, params=tuple(sorted(params.items())), field=field, structures=structures)
