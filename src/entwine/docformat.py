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


def _item_name(reader: _Reader, entry, here, default, items) -> str | None:
    """The entry's name, default when absent: a string that no earlier item
    carries, since it names the item's checks."""
    name = reader.expect_str(entry.get("name", default), f"{here}.name")
    if name is not None and any(name == other for other, _ in items):
        reader.fail(f"{here}.name", f"repeated name {name!r}")
    return name


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
    spaces = _parse_spaces(reader)
    doc = StructureDocument(field=field, spaces=spaces)

    if "algebra" in obj:
        section = reader.expect_dict(obj["algebra"], "algebra")
        if section is not None:
            space = _space_ref(reader, spaces, section, "space", "algebra")
            if space is not None:
                d = space.dim
                mult = reader.sparse_matrix(
                    field, section.get("mult", []), "algebra.mult", (d, d, d), (d, d * d), lambda i, j, k: (k, i * d + j)
                )
                unit = reader.vector(field, section.get("unit", [0] * d), "algebra.unit", d)
                doc.algebra = FiniteAlgebra(d, space.basis_names, mult, unit, field)
                doc.algebra_space = space.name

    if "coalgebra" in obj:
        section = reader.expect_dict(obj["coalgebra"], "coalgebra")
        if section is not None:
            space = _space_ref(reader, spaces, section, "space", "coalgebra")
            if space is not None:
                d = space.dim
                comult = reader.sparse_matrix(
                    field, section.get("comult", []), "coalgebra.comult", (d, d, d), (d * d, d), lambda i, j, k: (j * d + k, i)
                )
                counit = reader.vector(field, section.get("counit", [0] * d), "coalgebra.counit", d)
                doc.coalgebra = FiniteCoalgebra(d, space.basis_names, comult, counit, field)
                doc.coalgebra_space = space.name

    if "antipode" in obj:
        section = reader.expect_dict(obj["antipode"], "antipode")
        if section is not None:
            space = _space_ref(reader, spaces, section, "space", "antipode")
            if space is not None:
                if doc.algebra_space != space.name or doc.coalgebra_space != space.name:
                    reader.fail("antipode.space", "antipode needs algebra and coalgebra on its space")
                d = space.dim
                doc.antipode = reader.sparse_matrix(field, section.get("entries", []), "antipode.entries", (d, d))

    if "coaction" in obj:
        section = reader.expect_dict(obj["coaction"], "coaction")
        if section is not None:
            space = _space_ref(reader, spaces, section, "space", "coaction")
            cspace = _space_ref(reader, spaces, section, "coalgebra", "coaction")
            if space is not None and cspace is not None:
                if doc.algebra_space != space.name:
                    reader.fail("coaction.space", "coaction must act on the algebra's space")
                if doc.coalgebra_space != cspace.name:
                    reader.fail("coaction.coalgebra", "coaction must land in the coalgebra's space")
                rows, cols = space.dim * cspace.dim, space.dim
                doc.coaction = reader.sparse_matrix(field, section.get("entries", []), "coaction.entries", (rows, cols))

    if "action" in obj:
        section = reader.expect_dict(obj["action"], "action")
        if section is not None:
            space = _space_ref(reader, spaces, section, "space", "action")
            aspace = _space_ref(reader, spaces, section, "algebra", "action")
            if space is not None and aspace is not None:
                if doc.coalgebra_space != space.name:
                    reader.fail("action.space", "action must act on the coalgebra's space")
                if doc.algebra_space != aspace.name:
                    reader.fail("action.algebra", "action must use the algebra's space")
                rows, cols = space.dim, space.dim * aspace.dim
                doc.action = reader.sparse_matrix(field, section.get("entries", []), "action.entries", (rows, cols))

    if "psi" in obj:
        section = reader.expect_dict(obj["psi"], "psi")
        if section is not None:
            aspace = _space_ref(reader, spaces, section, "algebra", "psi")
            cspace = _space_ref(reader, spaces, section, "coalgebra", "psi")
            if aspace is not None and cspace is not None:
                if doc.algebra_space != aspace.name:
                    reader.fail("psi.algebra", "psi must use the algebra's space")
                if doc.coalgebra_space != cspace.name:
                    reader.fail("psi.coalgebra", "psi must use the coalgebra's space")
                rows, cols = aspace.dim * cspace.dim, cspace.dim * aspace.dim
                doc.psi = reader.sparse_matrix(field, section.get("entries", []), "psi.entries", (rows, cols))

    def named_vectors(key, expect_space_of):
        items = []
        if key not in obj:
            return tuple(items)
        lst = reader.expect_list(obj[key], key)
        if lst is None:
            return tuple(items)
        for n, item in enumerate(lst):
            here = f"{key}[{n}]"
            entry = reader.expect_dict(item, here)
            if entry is None:
                continue
            space = _space_ref(reader, spaces, entry, "space", here)
            if space is None:
                continue
            if expect_space_of is not None and space.name != expect_space_of:
                reader.fail(f"{here}.space", f"must live on {expect_space_of!r}")
                continue
            name = _item_name(reader, entry, here, f"{key[:-1]}{n}", items)
            coords = reader.vector(field, entry.get("coords"), f"{here}.coords", space.dim)
            items.append((name, coords))
        return tuple(items)

    doc.grouplikes = named_vectors("grouplikes", doc.coalgebra_space)
    doc.characters = named_vectors("characters", doc.algebra_space)

    if "coideals" in obj:
        lst = reader.expect_list(obj["coideals"], "coideals")
        items = []
        if lst is not None:
            for n, item in enumerate(lst):
                here = f"coideals[{n}]"
                entry = reader.expect_dict(item, here)
                if entry is None:
                    continue
                space = _space_ref(reader, spaces, entry, "space", here)
                if space is None:
                    continue
                if doc.coalgebra_space is not None and space.name != doc.coalgebra_space:
                    reader.fail(f"{here}.space", f"must live on {doc.coalgebra_space!r}")
                    continue
                name = _item_name(reader, entry, here, f"I{n + 1}", items)
                vec_list = reader.expect_list(entry.get("vectors"), f"{here}.vectors")
                vectors = []
                if vec_list is not None:
                    for vn, vec in enumerate(vec_list):
                        vectors.append(reader.vector(field, vec, f"{here}.vectors[{vn}]", space.dim))
                items.append((name, tuple(vectors)))
        doc.coideals = tuple(items)

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
    obj: dict = {
        "field": {"kind": field.kind} if not field.is_prime_field else {"kind": field.kind, "p": field.p},
        "spaces": {
            name: {"dim": decl.dim, "basis": list(decl.basis_names)} for name, decl in sorted(doc.spaces.items())
        },
    }
    if doc.algebra is not None:
        obj["algebra"] = {
            "space": doc.algebra_space,
            "mult": _format_tensor_entries(field, doc.algebra.dim, doc.algebra.mult_matrix.transpose()),
            "unit": [field.format(x) for x in doc.algebra.unit],
        }
    if doc.coalgebra is not None:
        obj["coalgebra"] = {
            "space": doc.coalgebra_space,
            "comult": _format_tensor_entries(field, doc.coalgebra.dim, doc.coalgebra.comult_matrix.transpose()),
            "counit": [field.format(x) for x in doc.coalgebra.counit],
        }
    if doc.antipode is not None:
        obj["antipode"] = {
            "space": doc.algebra_space,
            "entries": _format_matrix_entries(field, doc.antipode),
        }
    if doc.coaction is not None:
        obj["coaction"] = {
            "space": doc.algebra_space,
            "coalgebra": doc.coalgebra_space,
            "entries": _format_matrix_entries(field, doc.coaction),
        }
    if doc.action is not None:
        obj["action"] = {
            "space": doc.coalgebra_space,
            "algebra": doc.algebra_space,
            "entries": _format_matrix_entries(field, doc.action),
        }
    if doc.grouplikes:
        obj["grouplikes"] = [
            {"space": doc.coalgebra_space, "name": name, "coords": [field.format(x) for x in coords]}
            for name, coords in doc.grouplikes
        ]
    if doc.characters:
        obj["characters"] = [
            {"space": doc.algebra_space, "name": name, "coords": [field.format(x) for x in coords]}
            for name, coords in doc.characters
        ]
    if doc.coideals:
        obj["coideals"] = [
            {
                "space": doc.coalgebra_space,
                "name": name,
                "vectors": [[field.format(x) for x in vec] for vec in vectors],
            }
            for name, vectors in doc.coideals
        ]
    if doc.psi is not None:
        obj["psi"] = {
            "algebra": doc.algebra_space,
            "coalgebra": doc.coalgebra_space,
            "entries": _format_matrix_entries(field, doc.psi),
        }
    return obj


def document_to_text(doc: StructureDocument) -> str:
    return json.dumps(document_to_obj(doc), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def document_from_example(example: ExampleSpec) -> StructureDocument:
    """Flatten a catalogue instance into document sections."""
    field = example.field
    s = example.structures
    hopf: HopfAlgebra | None = s.get("hopf")
    algebra: FiniteAlgebra | None = s.get("algebra")
    coalgebra: FiniteCoalgebra | None = s.get("coalgebra")
    antipode = None
    coaction = None
    action = None
    psi = None
    comodule: ComoduleAlgebra | None = s.get("comodule_algebra")
    module: ModuleCoalgebra | None = s.get("module_coalgebra")
    if hopf is not None:
        algebra = hopf.algebra
        coalgebra = hopf.coalgebra
        antipode = hopf.antipode
    if comodule is not None:
        algebra = comodule.algebra
        coalgebra = comodule.coalgebra
        coaction = comodule.coaction
    if module is not None:
        algebra = module.algebra
        coalgebra = module.coalgebra
        action = module.action
    entwining = s.get("entwining")
    if entwining is not None:
        algebra = entwining.algebra
        coalgebra = entwining.coalgebra
        psi = entwining.psi

    spaces: dict[str, SpaceDecl] = {}
    same_space = algebra is not None and coalgebra is not None and algebra.basis_names == coalgebra.basis_names
    if hopf is not None:
        same_space = True
    if same_space:
        spaces["H"] = SpaceDecl("H", algebra.dim, algebra.basis_names)
        algebra_space = coalgebra_space = "H"
    else:
        algebra_space = coalgebra_space = None
        if algebra is not None:
            spaces["A"] = SpaceDecl("A", algebra.dim, algebra.basis_names)
            algebra_space = "A"
        if coalgebra is not None:
            spaces["C"] = SpaceDecl("C", coalgebra.dim, coalgebra.basis_names)
            coalgebra_space = "C"

    doc = StructureDocument(field=field, spaces=spaces)
    if algebra is not None:
        doc.algebra = algebra
        doc.algebra_space = algebra_space
    if coalgebra is not None:
        doc.coalgebra = coalgebra
        doc.coalgebra_space = coalgebra_space
    doc.antipode = antipode
    doc.coaction = coaction
    doc.action = action
    doc.psi = psi
    doc.grouplikes = tuple((f"e{i}", tuple(g.coords)) for i, g in enumerate(s.get("grouplikes", ())))
    doc.characters = tuple((f"k{i}", tuple(k.coords)) for i, k in enumerate(s.get("characters", ())))
    doc.coideals = tuple((f"I{i + 1}", tuple(sub.basis)) for i, sub in enumerate(s.get("coideals", ())))
    return doc
