"""Benchmark inputs: the documents and checks of each workload.

A check is one ``entwine check FILE --suite S --report json`` call.  Native
documents come straight from the catalogue.  The ``dense-gfp`` documents are
the small catalogue documents over GF(P) after a seeded random change of
basis, which makes their matrices dense while leaving every basis-independent
outcome (check ids, statuses, ranks, dimensions) unchanged.

Importing this module needs ``entwine`` on ``sys.path``; ``run.py`` and the
tests arrange that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from entwine.catalogue import ExampleSpec, build, group_algebra
from entwine.docformat import StructureDocument, document_from_example, document_to_text, parse_document
from entwine.exactlin import Matrix
from entwine.fields import GF, QQ, FieldSpec
from entwine.structures import ComoduleAlgebra, transport_algebra, transport_coalgebra

WORKLOADS = ("extensions-q", "dense-gfp", "hopf-cogen-q")

# The prime of the dense-gfp workload.
P = 7

# (document key, catalogue name, parameters, suite).  "trivial-coaction" is
# not in the catalogue: it is built by trivial_coaction_example below.
_EXTENSIONS = (
    ("sweedler-h4", "sweedler-h4", {}, "galois"),
    ("trivial-hopf-galois.Z2", "trivial-hopf-galois", {"group": "Z2"}, "galois"),
    ("trivial-hopf-galois.Z3", "trivial-hopf-galois", {"group": "Z3"}, "galois"),
    ("trivial-hopf-galois.Z4", "trivial-hopf-galois", {"group": "Z4"}, "galois"),
    ("quadratic-field-extension.d=2", "quadratic-field-extension", {"d": 2}, "galois"),
    ("quadratic-field-extension.d=-1", "quadratic-field-extension", {"d": -1}, "galois"),
    ("group-coextension.Z2", "group-coextension", {"group": "Z2"}, "cogalois"),
    ("group-coextension.Z3", "group-coextension", {"group": "Z3"}, "cogalois"),
    ("group-coextension.Z4", "group-coextension", {"group": "Z4"}, "cogalois"),
    ("coset-coideal.S3", "coset-coideal", {"group": "S3"}, "galois"),
    ("flip-entwining.Z2-Z2", "flip-entwining", {}, "entwining"),
    ("flip-entwining.Z3-Z2", "flip-entwining", {"algebra": "Z3", "coalgebra": "Z2"}, "entwining"),
    ("trivial-coaction.Z4", "trivial-coaction", {"group": "Z4"}, "galois"),
)

# The dense-gfp documents: those of dimension <= 4, which is all but S3 (6).
_SMALL_EXTENSIONS = tuple(spec for spec in _EXTENSIONS if spec[1] != "coset-coideal")

# Documents whose algebra and coalgebra get independent changes of basis.
_SEPARATE_SPACES = {"quadratic-field-extension", "flip-entwining"}

_COSET_GENERATORS = {
    "S3": ("e", "(12)", "(13)", "(23)", "(123)"),
    "Z4": ("1", "g2", "g"),
}

# The document whose latency is reported as largest_ms.
LARGEST = {
    "extensions-q": "coset-coideal.S3/galois",
    "dense-gfp": "sweedler-h4/galois",
    "hopf-cogen-q": "group-algebra.S3/structures",
}


@dataclass(frozen=True)
class Check:
    check_id: str
    doc_key: str
    suite: str
    text: str

    @property
    def file_name(self) -> str:
        return self.check_id.replace("/", "__") + ".json"


def trivial_coaction_example(params, field: FieldSpec) -> ExampleSpec:
    """k[G] coacting on itself by a -> a (x) 1: coinvariants are all of k[G],
    so the extension is not Galois for any nontrivial G."""
    h = group_algebra(params, field)
    n = h.dim
    rows = [[field.zero] * n for _ in range(n * n)]
    for a in range(n):
        rows[a * n][a] = field.one  # row (a, 1): the unit 1 is basis element 0
    coaction = Matrix(n * n, n, tuple(tuple(r) for r in rows), field)
    structures = {"hopf": h, "comodule_algebra": ComoduleAlgebra(h.algebra, h.coalgebra, coaction)}
    return ExampleSpec(name="trivial-coaction", params=tuple(sorted(params.items())), field=field, structures=structures)


def native_document(name: str, params, field: FieldSpec) -> StructureDocument:
    if name == "trivial-coaction":
        return document_from_example(trivial_coaction_example(params, field))
    if field.is_prime_field:
        params = {**params, "p": field.p}
    return document_from_example(build(name, params))


def round_trip(doc: StructureDocument) -> str:
    """Emit a document and check that parsing and re-emitting reproduces it."""
    text = document_to_text(doc)
    if document_to_text(parse_document(text)) != text:
        raise RuntimeError("generated document does not survive a parse round trip")
    return text


def native_checks(workload: str) -> list[Check]:
    """The checks of extensions-q or hopf-cogen-q, in canonical order."""
    checks = []
    if workload == "extensions-q":
        for key, name, params, suite in _EXTENSIONS:
            checks.append(Check(f"{key}/{suite}", key, suite, round_trip(native_document(name, params, QQ))))
    elif workload == "hopf-cogen-q":
        for group, names in _COSET_GENERATORS.items():
            for first in names:
                for second in names:
                    key = f"coset-coideal.{group}.{first},{second}"
                    doc = native_document("coset-coideal", {"group": group, "generators": f"{first},{second}"}, QQ)
                    checks.append(Check(f"{key}/cogenerate", key, "cogenerate", round_trip(doc)))
        for key, name, params in (
            ("group-algebra.S3", "group-algebra", {"group": "S3"}),
            ("dual-group-algebra.S3", "dual-group-algebra", {"group": "S3"}),
            ("sweedler-h4", "sweedler-h4", {}),
        ):
            checks.append(Check(f"{key}/structures", key, "structures", round_trip(native_document(name, params, QQ))))
    else:
        raise ValueError(f"{workload!r} has no native checks")
    return checks


def dense_gfp_checks(seed: int, pass_index: int, native: bool = False) -> list[Check]:
    """The dense-gfp documents of one pass, each under its own seeded basis
    change; with ``native``, on their catalogue bases (the reference)."""
    field = GF(P)
    rng = random.Random(f"dense-gfp:{seed}:{pass_index}")
    checks = []
    for key, name, params, suite in _SMALL_EXTENSIONS:
        doc = native_document(name, params, field)
        if not native:
            doc = conjugate(doc, rng, separate=name in _SEPARATE_SPACES)
        checks.append(Check(f"{key}/{suite}", key, suite, round_trip(doc)))
    return checks


# --- arithmetic mod p for the basis changes; independent of entwine.exactlin


def _mm(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _kron(a, b, p):
    return [[(x * y) % p for x in ra for y in rb] for ra in a for rb in b]


def _inverse(m, p):
    """Gauss-Jordan inverse mod p, or None when m is singular."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] % p), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [(x * inv) % p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def random_invertible(n: int, rng: random.Random, p: int):
    """A uniformly random invertible n x n matrix mod p, with its inverse."""
    while True:
        t = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        tinv = _inverse(t, p)
        if tinv is not None:
            return t, tinv


def _rows(m: Matrix):
    return [list(r) for r in m.entries]


def _matrix(rows, field: FieldSpec) -> Matrix:
    return Matrix(len(rows), len(rows[0]) if rows else 0, tuple(tuple(r) for r in rows), field)


def conjugate(doc: StructureDocument, rng: random.Random, separate: bool) -> StructureDocument:
    """The same structures on a random basis: new coordinates are T^-1 times old.

    The algebra space gets T_A and the coalgebra space T_C; they coincide
    unless ``separate`` (or the two spaces are declared separately).
    """
    field = doc.field
    p = field.p
    da, dc = doc.algebra.dim, doc.coalgebra.dim
    ta, ta_inv = random_invertible(da, rng, p)
    if separate or doc.algebra_space != doc.coalgebra_space:
        tc, tc_inv = random_invertible(dc, rng, p)
    else:
        tc, tc_inv = ta, ta_inv
    out = StructureDocument(field=field, spaces=dict(doc.spaces))
    out.algebra_space, out.coalgebra_space = doc.algebra_space, doc.coalgebra_space
    out.algebra = transport_algebra(doc.algebra, _matrix(ta, field))
    out.coalgebra = transport_coalgebra(doc.coalgebra, _matrix(tc, field))
    if doc.antipode is not None:
        out.antipode = _matrix(_mm(_mm(ta_inv, _rows(doc.antipode), p), ta, p), field)
    if doc.coaction is not None:  # A -> A (x) C
        out.coaction = _matrix(_mm(_mm(_kron(ta_inv, tc_inv, p), _rows(doc.coaction), p), ta, p), field)
    if doc.action is not None:  # C (x) A -> C
        out.action = _matrix(_mm(_mm(tc_inv, _rows(doc.action), p), _kron(tc, ta, p), p), field)
    if doc.psi is not None:  # C (x) A -> A (x) C
        out.psi = _matrix(_mm(_mm(_kron(ta_inv, tc_inv, p), _rows(doc.psi), p), _kron(tc, ta, p), p), field)
    out.grouplikes = tuple((name, _apply(tc_inv, coords, p)) for name, coords in doc.grouplikes)
    out.characters = tuple((name, tuple(_mm([list(coords)], ta, p)[0])) for name, coords in doc.characters)
    out.coideals = tuple(
        (name, tuple(_apply(tc_inv, v, p) for v in vectors)) for name, vectors in doc.coideals
    )
    return out


def _apply(m, vec, p):
    return tuple(sum(x * v for x, v in zip(row, vec)) % p for row in m)


def checks_for(workload: str, seed: int, pass_index: int) -> list[Check]:
    """The checks of one pass, in canonical order (the runner shuffles them)."""
    if workload == "dense-gfp":
        return dense_gfp_checks(seed, pass_index)
    return native_checks(workload)
