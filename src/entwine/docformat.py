"""The JSON structure-document format: parsing with positioned errors, and
canonical emission (sorted keys, coefficients in lowest terms with positive
denominator, sparse tensor entries sorted by index, byte-stable round trips).

Structure tensors are sparse quadruple lists {i, j, k, c} and matrices sparse
triple lists {i, j, c}; omitted entries are zero, and of two entries for one
cell the later wins.  Both are read in one pass straight into the nonzero
index: each entry lands at its cell in a per-row dict, each row is sorted
once, and each distinct coefficient string is parsed once per document.
Vector-valued data (units, counits, group-like coordinates, character
coordinates, coideal basis vectors) are dense coefficient lists.

Each kind of section is read by one reader and written by one writer, both
driven by a section table: the six matrix sections by _MATRIX_SECTIONS,
and group-likes, characters and coideals by _ITEM_SECTIONS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .catalogue import ExampleSpec
from .errors import FieldParseError, InvalidDocument, SchemaError
from .exactlin import Matrix, Subspace, _from_index
from .fields import PRIME, QQ, RATIONAL, FieldSpec, Scalar
from .structures import (
    ComoduleAlgebra,
    FiniteAlgebra,
    FiniteCoalgebra,
    HopfAlgebra,
    ModuleCoalgebra,
)

SECTIONS = (
    "field",
    "spaces",
    "algebra",
    "coalgebra",
    "antipode",
    "coaction",
    "action",
    "grouplikes",
    "characters",
    "coideals",
    "psi",
)


@dataclass(frozen=True)
class SpaceDecl:
    name: str
    dim: int
    basis_names: tuple[str, ...]


@dataclass
class StructureDocument:
    """Parsed, shape-checked document contents; sections absent are None/empty.

    The structures built from the sections are cached, so every suite run on
    one document reads the same objects and their cached reports; set the
    sections before reading them.
    """

    field: FieldSpec
    spaces: dict[str, SpaceDecl]
    algebra: FiniteAlgebra | None = None
    algebra_space: str | None = None
    coalgebra: FiniteCoalgebra | None = None
    coalgebra_space: str | None = None
    antipode: Matrix | None = None
    coaction: Matrix | None = None
    action: Matrix | None = None
    grouplikes: tuple[tuple[str, tuple], ...] = ()
    characters: tuple[tuple[str, tuple], ...] = ()
    coideals: tuple[tuple[str, tuple[tuple, ...]], ...] = ()
    psi: Matrix | None = None

    @cached_property
    def hopf(self) -> HopfAlgebra | None:
        if self.algebra is None or self.coalgebra is None or self.antipode is None:
            return None
        if self.algebra_space != self.coalgebra_space:
            return None
        return HopfAlgebra(self.algebra, self.coalgebra, self.antipode)

    @cached_property
    def comodule_algebra(self) -> ComoduleAlgebra | None:
        if self.algebra is None or self.coalgebra is None or self.coaction is None:
            return None
        return ComoduleAlgebra(self.algebra, self.coalgebra, self.coaction)

    @cached_property
    def module_coalgebra(self) -> ModuleCoalgebra | None:
        if self.algebra is None or self.coalgebra is None or self.action is None:
            return None
        return ModuleCoalgebra(self.coalgebra, self.algebra, self.action)

    @cached_property
    def entwining(self):
        if self.algebra is None or self.coalgebra is None or self.psi is None:
            return None
        from .entwining import EntwiningStructure

        return EntwiningStructure(self.algebra, self.coalgebra, self.psi)

    def coideal_subspaces(self) -> tuple[Subspace, ...]:
        return tuple(
            Subspace.from_spanning(vectors, self.coalgebra.dim, self.field)
            for _, vectors in self.coideals
        )


class _Reader:
    """Shape- and field-checks JSON content, accumulating positioned problems."""

    def __init__(self, obj):
        self.obj = obj
        self.problems = []
        self.parsed = {}  # valid coefficient -> scalar, read for strings only

    def fail(self, path, reason, exc=SchemaError):
        self.problems.append(exc(path, reason))

    def expect_dict(self, value, path):
        if not isinstance(value, dict):
            self.fail(path, f"expected an object, got {type(value).__name__}")
            return None
        return value

    def expect_list(self, value, path):
        if not isinstance(value, list):
            self.fail(path, f"expected a list, got {type(value).__name__}")
            return None
        return value

    def expect_str(self, value, path):
        if not isinstance(value, str):
            self.fail(path, f"expected a string, got {type(value).__name__}")
            return None
        return value

    def vector(self, field, value, path, dim):
        lst = self.expect_list(value, path)
        if lst is None:
            return tuple(field.zero for _ in range(dim))
        if len(lst) != dim:
            self.fail(path, f"expected {dim} coefficients, got {len(lst)}")
            return tuple(field.zero for _ in range(dim))
        return tuple([self.scalar(field, x, path, i) for i, x in enumerate(lst)])

    def scalar(self, field, raw, path, n, suffix=""):
        """raw parsed into the field, each distinct string once per document;
        zero, with the problem recorded at path[n]suffix, if malformed."""
        memo = self.parsed
        if type(raw) is str and raw in memo:
            return memo[raw]
        try:
            memo[raw] = x = field.parse(raw)
        except ValueError as exc:
            self.fail(f"{path}[{n}]{suffix}", str(exc), FieldParseError)
            return field.zero
        return x

    def sparse_matrix(self, field, value, path, dims, shape=None, at=None):
        """The matrix of the sparse entries {i, j, k, c} (3 indices) or
        {i, j, c} (2), bounded by dims, read in one pass: entry (i, j, k, c)
        is c at the cell at(i, j, k) of a matrix of the given shape, and
        entry (i, j, c) is c at (i, j) of a dims matrix."""
        keys = ("i", "j", "k")[: len(dims)]
        fields, width = itemgetter(*keys, "c"), len(dims) + 1
        by_row: dict[int, dict[int, Scalar]] = {}
        for n, entry in enumerate(self.expect_list(value, path) or ()):
            try:
                *idx, c = fields(entry)
                ok = len(entry) == width and all([type(x) is int and 0 <= x < b for x, b in zip(idx, dims)])
            except (TypeError, KeyError):
                ok = False
            if not ok:
                self.entry_problem(entry, f"{path}[{n}]", keys, dims)
                continue
            row, col = idx if at is None else at(*idx)
            by_row.setdefault(row, {})[col] = self.scalar(field, c, path, n, ".c")
        shape = shape or dims
        index = [()] * shape[0]
        for row, cells in by_row.items():
            index[row] = tuple(sorted([(j, x) for j, x in cells.items() if x]))
        return _from_index(*shape, index, field)

    def entry_problem(self, entry, here, keys, dims):
        """Record the first problem of a malformed sparse entry: its type,
        its keys, each index in turn, then its coefficient."""
        allowed = {*keys, "c"}
        if not isinstance(entry, dict):
            return self.fail(here, f"expected an object, got {type(entry).__name__}")
        if not entry.keys() <= allowed:
            return self.fail(here, f"unknown keys {sorted(entry.keys() - allowed)}")
        for key, bound in zip(keys, dims):
            if key not in entry:
                return self.fail(here, f"missing index {key!r}")
            got = entry[key]
            if not isinstance(got, int) or isinstance(got, bool) or not 0 <= got < bound:
                return self.fail(f"{here}.{key}", f"expected an index in 0..{bound - 1}, got {got!r}")
        self.fail(here, "missing coefficient 'c'")


def _parse_field(reader: _Reader) -> FieldSpec:
    raw = reader.obj.get("field")
    section = reader.expect_dict(raw, "field")
    if section is None:
        return QQ
    kind = section.get("kind")
    if kind == RATIONAL:
        if "p" in section:
            reader.fail("field.p", "rational field carries no modulus")
        return QQ
    if kind == PRIME:
        try:
            return FieldSpec(PRIME, section.get("p"))
        except (ValueError, TypeError) as exc:
            reader.fail("field.p", str(exc))
            return QQ
    reader.fail("field.kind", f"expected 'rational' or 'prime', got {kind!r}")
    return QQ


def _parse_spaces(reader: _Reader) -> dict[str, SpaceDecl]:
    spaces = {}
    section = reader.expect_dict(reader.obj.get("spaces"), "spaces")
    if section is None:
        return spaces
    for name in sorted(section):
        decl = reader.expect_dict(section[name], f"spaces.{name}")
        if decl is None:
            continue
        dim = decl.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            reader.fail(f"spaces.{name}.dim", f"expected a nonnegative integer, got {dim!r}")
            continue
        basis = decl.get("basis")
        if basis is None:
            names = tuple(f"e{i}" for i in range(dim))
        else:
            lst = reader.expect_list(basis, f"spaces.{name}.basis")
            if lst is None or len(lst) != dim or not all(isinstance(x, str) for x in lst):
                reader.fail(f"spaces.{name}.basis", f"expected {dim} name strings")
                names = tuple(f"e{i}" for i in range(dim))
            else:
                names = tuple(lst)
        spaces[name] = SpaceDecl(name, dim, names)
    return spaces


def _space_ref(reader: _Reader, spaces, section, key, path) -> SpaceDecl | None:
    name = reader.expect_str(section.get(key), f"{path}.{key}")
    if name is None:
        return None
    if name not in spaces:
        reader.fail(f"{path}.{key}", f"unknown space {name!r}")
        return None
    return spaces[name]


# The sections that hold one sparse matrix between declared spaces, in
# reading order: the section, the key of its entries, its space keys (each
# with the one or two document spaces it must equal, the first emitted as
# its value, and the problem when it does not), the reading of its entries
# from the keyed spaces' dimensions (index bounds; for a structure tensor
# also the matrix shape and the cell of entry (i, j, k)), and the unit or
# counit key and structure of the algebra and coalgebra, which own a space.
_MATRIX_SECTIONS = (
    (
        "algebra",
        "mult",
        (("space", ("algebra_space",), None),),
        lambda d: ((d, d, d), (d, d * d), lambda i, j, k: (k, i * d + j)),
        ("unit", FiniteAlgebra),
    ),
    (
        "coalgebra",
        "comult",
        (("space", ("coalgebra_space",), None),),
        lambda d: ((d, d, d), (d * d, d), lambda i, j, k: (j * d + k, i)),
        ("counit", FiniteCoalgebra),
    ),
    (
        "antipode",
        "entries",
        (("space", ("algebra_space", "coalgebra_space"), "antipode needs algebra and coalgebra on its space"),),
        lambda h: ((h, h),),
        (None, None),
    ),
    (
        "coaction",
        "entries",
        (
            ("space", ("algebra_space",), "coaction must act on the algebra's space"),
            ("coalgebra", ("coalgebra_space",), "coaction must land in the coalgebra's space"),
        ),
        lambda a, c: ((a * c, a),),
        (None, None),
    ),
    (
        "action",
        "entries",
        (
            ("space", ("coalgebra_space",), "action must act on the coalgebra's space"),
            ("algebra", ("algebra_space",), "action must use the algebra's space"),
        ),
        lambda c, a: ((c, c * a),),
        (None, None),
    ),
    (
        "psi",
        "entries",
        (
            ("algebra", ("algebra_space",), "psi must use the algebra's space"),
            ("coalgebra", ("coalgebra_space",), "psi must use the coalgebra's space"),
        ),
        lambda a, c: ((a * c, c * a),),
        (None, None),
    ),
)

# The sections that list named items: the document space each item must
# live on, the key of its coordinates (one vector, or the vectors spanning
# a subspace), and the prefix and first number of its default name.
_ITEM_SECTIONS = (
    ("grouplikes", "coalgebra_space", "coords", "grouplike", 0),
    ("characters", "algebra_space", "coords", "character", 0),
    ("coideals", "coalgebra_space", "vectors", "I", 1),
)


def _read_matrix_sections(reader: _Reader, doc: StructureDocument) -> None:
    obj, spaces, field = reader.obj, doc.spaces, doc.field
    for name, entries, keys, reading, (vector_key, structure) in _MATRIX_SECTIONS:
        if name not in obj:
            continue
        section = reader.expect_dict(obj[name], name)
        if section is None:
            continue
        refs = [_space_ref(reader, spaces, section, key, name) for key, _, _ in keys]
        if None in refs:
            continue
        for (key, must_equal, problem), space in zip(keys, refs):
            if problem is not None and not getattr(doc, must_equal[0]) == getattr(doc, must_equal[-1]) == space.name:
                reader.fail(f"{name}.{key}", problem)
        matrix = reader.sparse_matrix(
            field, section.get(entries, []), f"{name}.{entries}", *reading(*[space.dim for space in refs])
        )
        if structure is None:
            setattr(doc, name, matrix)
            continue
        (space,) = refs
        vector = reader.vector(field, section.get(vector_key, [0] * space.dim), f"{name}.{vector_key}", space.dim)
        setattr(doc, name, structure(space.dim, space.basis_names, matrix, vector, field))
        setattr(doc, f"{name}_space", space.name)


def _read_item_sections(reader: _Reader, doc: StructureDocument) -> None:
    """An item's name is a string that no earlier item of its section
    carries, since it names the item's checks."""
    obj, spaces, field = reader.obj, doc.spaces, doc.field
    for key, own, data, prefix, first in _ITEM_SECTIONS:
        if key not in obj:
            continue
        items = []
        for n, item in enumerate(reader.expect_list(obj[key], key) or ()):
            here = f"{key}[{n}]"
            entry = reader.expect_dict(item, here)
            if entry is None:
                continue
            space = _space_ref(reader, spaces, entry, "space", here)
            if space is None:
                continue
            expected = getattr(doc, own)
            if expected is not None and space.name != expected:
                reader.fail(f"{here}.space", f"must live on {expected!r}")
                continue
            name = reader.expect_str(entry.get("name", f"{prefix}{n + first}"), f"{here}.name")
            if name is not None and any(name == other for other, _ in items):
                reader.fail(f"{here}.name", f"repeated name {name!r}")
            if data == "coords":
                value = reader.vector(field, entry.get(data), f"{here}.{data}", space.dim)
            else:
                vectors = enumerate(reader.expect_list(entry.get(data), f"{here}.{data}") or ())
                value = tuple([reader.vector(field, v, f"{here}.{data}[{vn}]", space.dim) for vn, v in vectors])
            items.append((name, value))
        setattr(doc, key, tuple(items))


def parse_document(text: str) -> StructureDocument:
    """Parse and validate a document; raises InvalidDocument with all problems."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise InvalidDocument([SchemaError("$", f"not valid JSON: {exc}")]) from None
    except RecursionError:
        raise InvalidDocument([SchemaError("$", "not valid JSON: nested too deeply")]) from None
    if not isinstance(obj, dict):
        raise InvalidDocument([SchemaError("$", "document root must be an object")])
    reader = _Reader(obj)
    for key in obj:
        if key not in SECTIONS:
            reader.fail(key, "unknown section")
    field = _parse_field(reader)
    doc = StructureDocument(field=field, spaces=_parse_spaces(reader))
    _read_matrix_sections(reader, doc)
    _read_item_sections(reader, doc)
    if reader.problems:
        raise InvalidDocument(reader.problems)
    return doc


def _format_matrix_entries(field, matrix: Matrix):
    return [{"i": i, "j": j, "c": field.format(c)} for i, row in enumerate(matrix.nonzeros) for j, c in row]


def _format_tensor_entries(field, dim: int, transposed: Matrix):
    """Entries {i, j, k, c} of a structure tensor on a space of dimension
    dim, read from the transpose of its matrix.  Both transposes (d^2 x d of
    m, d x d^2 of the coproduct) put entry (i, j, k) at flat index
    i*d^2 + j*d + k, so their index lists the entries in (i, j, k) order."""
    out = []
    cols = transposed.cols
    for r, row in enumerate(transposed.nonzeros):
        for s, c in row:
            i, jk = divmod(r * cols + s, dim * dim)
            j, k = divmod(jk, dim)
            out.append({"i": i, "j": j, "k": k, "c": field.format(c)})
    return out


def document_to_obj(doc: StructureDocument) -> dict:
    """Canonical plain-JSON object for a document."""
    field = doc.field

    def vector(coords):
        return [field.format(x) for x in coords]

    obj: dict = {
        "field": {"kind": field.kind} if not field.is_prime_field else {"kind": field.kind, "p": field.p},
        "spaces": {
            name: {"dim": decl.dim, "basis": list(decl.basis_names)} for name, decl in sorted(doc.spaces.items())
        },
    }
    for name, entries, keys, _, (vector_key, _) in _MATRIX_SECTIONS:
        x = getattr(doc, name)
        if x is None:
            continue
        section = obj[name] = {key: getattr(doc, must_equal[0]) for key, must_equal, _ in keys}
        if vector_key is None:
            section[entries] = _format_matrix_entries(field, x)
        else:
            section[entries] = _format_tensor_entries(field, x.dim, getattr(x, f"{entries}_matrix").transpose())
            section[vector_key] = vector(getattr(x, vector_key))
    for key, own, data, _, _ in _ITEM_SECTIONS:
        if getattr(doc, key):
            obj[key] = [
                {"space": getattr(doc, own), "name": name, data: vector(v) if data == "coords" else [*map(vector, v)]}
                for name, v in getattr(doc, key)
            ]
    return obj


def document_to_text(doc: StructureDocument) -> str:
    return json.dumps(document_to_obj(doc), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def document_from_example(example: ExampleSpec) -> StructureDocument:
    """Flatten a catalogue instance into document sections."""
    s = example.structures
    algebra: FiniteAlgebra | None = s.get("algebra")
    coalgebra: FiniteCoalgebra | None = s.get("coalgebra")
    matrices = {}
    for key, section in (
        ("hopf", "antipode"), ("comodule_algebra", "coaction"), ("module_coalgebra", "action"), ("entwining", "psi")
    ):
        if (x := s.get(key)) is not None:
            algebra, coalgebra, matrices[section] = x.algebra, x.coalgebra, getattr(x, section)
    same_space = s.get("hopf") is not None or (
        algebra is not None and coalgebra is not None and algebra.basis_names == coalgebra.basis_names
    )
    algebra_space = None if algebra is None else "H" if same_space else "A"
    coalgebra_space = None if coalgebra is None else "H" if same_space else "C"
    spaces: dict[str, SpaceDecl] = {}
    for x, name in ((algebra, algebra_space), (coalgebra, coalgebra_space)):
        if x is not None and name not in spaces:
            spaces[name] = SpaceDecl(name, x.dim, x.basis_names)
    return StructureDocument(
        field=example.field,
        spaces=spaces,
        algebra=algebra,
        algebra_space=algebra_space,
        coalgebra=coalgebra,
        coalgebra_space=coalgebra_space,
        grouplikes=tuple((f"e{i}", tuple(g.coords)) for i, g in enumerate(s.get("grouplikes", ()))),
        characters=tuple((f"k{i}", tuple(k.coords)) for i, k in enumerate(s.get("characters", ()))),
        coideals=tuple((f"I{i + 1}", tuple(sub.basis)) for i, sub in enumerate(s.get("coideals", ()))),
        **matrices,
    )
