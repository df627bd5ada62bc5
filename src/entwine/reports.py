"""Suite reports: an ordered list of checks, each naming the mathematical
statement it verified, with JSON and plain-text renderers.  Reports are
deterministic byte for byte for identical inputs.

Report matrices and subspaces are written out from their nonzero index, so
formatting costs one call per nonzero entry plus one list per row.  The JSON
text is that of ``json.dumps(obj, sort_keys=True, indent=2,
ensure_ascii=False)``, written in one recursive pass over the values a report
holds (dicts with string keys, lists, strings, ints, booleans and None); with
``indent`` set, ``json.dumps`` runs its pure-Python encoder one value at a
time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring as _encode_str

from .exactlin import Matrix, Subspace
from .fields import FieldSpec

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True)
class CheckEntry:
    check_id: str
    statement: str
    status: str
    detail: dict | None = None


@dataclass
class SuiteReport:
    suite: str
    entries: list[CheckEntry] = dc_field(default_factory=list)

    def add(self, check_id: str, statement: str, ok: bool, detail: dict | None = None):
        self.entries.append(CheckEntry(check_id, statement, PASS if ok else FAIL, detail))

    def skip(self, check_id: str, statement: str, note: str):
        self.entries.append(CheckEntry(check_id, statement, SKIP, {"note": note}))

    def extend(self, other: "SuiteReport"):
        self.entries.extend(other.entries)

    @property
    def verdict(self) -> str:
        return FAIL if any(e.status == FAIL for e in self.entries) else PASS

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "verdict": self.verdict,
            "checks": [
                {
                    "id": e.check_id,
                    "statement": e.statement,
                    "status": e.status,
                    **({"detail": e.detail} if e.detail else {}),
                }
                for e in self.entries
            ],
        }

    def to_json(self) -> str:
        return json_document(self.to_obj())

    def render_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        width = max((len(e.check_id) for e in self.entries), default=0)
        for e in self.entries:
            lines.append(f"  [{e.status.upper():4s}] {e.check_id:<{width}}  {e.statement}")
            if e.detail and e.status != PASS:
                for key, value in sorted(e.detail.items()):
                    lines.append(f"          {key}: {_compact(value)}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def _compact(value) -> str:
    """``json.dumps(value, sort_keys=True)`` (a string as it is) cut to 200
    characters; the encoding stops once more than 200 characters are out."""
    if isinstance(value, str):
        text = value
    else:
        chunks: list[str] = []
        size = 0
        for chunk in json.JSONEncoder(sort_keys=True).iterencode(value):
            chunks.append(chunk)
            size += len(chunk)
            if size > 200:
                break
        text = "".join(chunks)
    return text if len(text) <= 200 else text[:197] + "..."


def json_document(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)``
    and a final newline; raises TypeError on a type no report holds."""
    out: list[str] = []
    _write_json(value, "", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, indent: str, out: list[str]):
    """Append the JSON text of a value nested at ``indent`` to ``out``."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is dict or kind is list:
        inner = indent + "  "
        sep = ",\n" + inner
        if not value:
            out.append("{}" if kind is dict else "[]")
        elif kind is dict:
            # _encode_str refuses a key that is not a string
            head = "{\n" + inner
            for key in sorted(value):
                out.append(head + _encode_str(key) + ": ")
                head = sep
                _write_json(value[key], inner, out)
            out.append("\n" + indent + "}")
        else:
            types = set(map(type, value))
            if types == {str}:  # a formatted matrix row over Q
                out.append("[\n" + inner + sep.join(map(_encode_str, value)) + "\n" + indent + "]")
            elif types == {int}:  # a formatted matrix row over GF(p)
                out.append("[\n" + inner + sep.join(map(int.__repr__, value)) + "\n" + indent + "]")
            else:
                head = "[\n" + inner
                for item in value:
                    out.append(head)
                    head = sep
                    _write_json(item, inner, out)
                out.append("\n" + indent + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def formatted_rows(index, cols: int, fmt) -> list[list]:
    """The dense rows, as lists of ``fmt`` values, of a nonzero index with
    ``cols`` columns; every zero cell holds one shared ``fmt(0)``."""
    zero = fmt(0)
    rows = []
    for pairs in index:
        row = [zero] * cols
        for j, x in pairs:
            row[j] = fmt(x)
        rows.append(row)
    return rows


def matrix_detail(field: FieldSpec, m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": formatted_rows(m.nonzeros, m.cols, field.format),
    }


def subspace_detail(field: FieldSpec, s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "dim": s.dim,
        "basis": formatted_rows(s.nonzeros, s.ambient_dim, field.format),
    }


def vector_detail(field: FieldSpec, v) -> list:
    return [field.format(x) for x in v]
