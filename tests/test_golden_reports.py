"""Byte-identity gate for suite reports.

Every catalogue variant of ``scripts/verify_catalogue.py``, plus a few
non-Galois, non-algebra-map and non-coideal documents that exercise
witnesses, skip notes and gates, and subgroup coextensions whose base
coalgebra has dimension two or three, is run through each applicable suite and
through ``all`` with the CLI default cutoff.
The sha256 of each JSON report must equal the digest recorded in
``golden_reports.json``.  A refactor that changes any report byte fails here.

``golden_documents.json`` pins the document format the same way: the sha256
of each golden document's canonical text, and the problem list (type, path,
message, in order) of malformed documents that break each section's space
references, shapes and entries.  Each golden document is also read back from
its text, and every suite on the parsed document must give the recorded
report digest.

Re-record both files (only when a report or format change is intended):

    PYTHONPATH=src python tests/test_golden_reports.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from entwine.catalogue import ExampleSpec, build, coset_coideal, group_algebra, self_extension
from entwine.docformat import document_from_example, document_to_text, parse_document
from entwine.errors import InvalidDocument
from entwine.exactlin import Matrix, Subspace
from entwine.fields import QQ
from entwine.structures import Character, ComoduleAlgebra, ModuleCoalgebra
from support import field_algebra, field_coalgebra, verify_catalogue_script
from entwine.suites import run_suite
from subgroup_coextensions import (
    subgroup_coextension,
    transport_character,
    transport_coextension,
    upper_unitriangular,
)

DIGESTS = Path(__file__).with_name("golden_reports.json")
DOCUMENTS = Path(__file__).with_name("golden_documents.json")


_SCRIPT = verify_catalogue_script()


def _extra_examples():
    """Documents outside the catalogue that reach the failure paths or a
    base coalgebra of dimension above one."""
    z2 = group_algebra({"group": "Z2"}, QQ)
    z4 = group_algebra({"group": "Z4"}, QQ)
    # k coacted on by k[Z2] through 1 |-> 1 (x) 1: the canonical map is not onto
    field_over_z2 = ComoduleAlgebra(field_algebra(QQ), z2.coalgebra, Matrix.from_rows([[1], [0]], QQ))
    # k[Z4] coacting on itself by a |-> a (x) 1: an algebra map, not Galois
    trivial_rows = [[0] * 4 for _ in range(16)]
    for a in range(4):
        trivial_rows[a * 4][a] = 1
    trivial = ComoduleAlgebra(z4.algebra, z4.coalgebra, Matrix.from_rows(trivial_rows, QQ))
    # k[Z2] coacting on itself by a |-> a (x) g: not an algebra map
    shifted_rows = [[0] * 2 for _ in range(4)]
    for a in range(2):
        shifted_rows[a * 2 + 1][a] = 1
    shifted = ComoduleAlgebra(z2.algebra, z2.coalgebra, Matrix.from_rows(shifted_rows, QQ))
    # k acted on by k[Z2] through the trivial character: not a coextension
    collapsed = ModuleCoalgebra(field_coalgebra(QQ), z2.algebra, Matrix.from_rows([[1, 1]], QQ))
    # k[Z2] acted on by itself through the sign character: not a coalgebra map
    sign = ModuleCoalgebra(z2.coalgebra, z2.algebra, Matrix.from_rows([[1, -1, 0, 0], [0, 0, 1, -1]], QQ))
    # coideal documents over k[Z4]: span{1} fails the counit condition and
    # span{g + g2 - 2} the coproduct condition
    z4_self = self_extension(z4)
    cosets = {g: coset_coideal({"group": "Z4"}, g) for g in ("g", "g2")}
    unit_line = Subspace.from_spanning([[1, 0, 0, 0]], 4, QQ)
    no_coproduct = Subspace.from_spanning([[-2, 1, 1, 0]], 4, QQ)

    def cogenerate_doc(*coideals):
        return {"hopf": z4, "comodule_algebra": z4_self, "coideals": list(coideals)}

    # subgroup coextensions k[G] acted on by k[H]: the base k[G/H] has
    # dimension two or three, the last one on a non-diagonal basis
    def subgroup_doc(group, generator, basis_change=False):
        x = subgroup_coextension(group, generator, QQ)
        kappa = (QQ.one,) * x.algebra.dim
        if basis_change:
            s = upper_unitriangular(x.algebra.dim, QQ)
            x = transport_coextension(x, upper_unitriangular(x.coalgebra.dim, QQ), s)
            kappa = transport_character(kappa, s)
        return {"module_coalgebra": x, "characters": [Character(x.algebra, kappa)]}

    # k[Z4] acted on by k[Z2] with the sign character (1, -1) besides the
    # trivial one: its dual bundle has an action other than the document's
    z4_z2 = subgroup_coextension("Z4", "g2", QQ)
    two_characters = [Character(z4_z2.algebra, (QQ.one, QQ.one)), Character(z4_z2.algebra, (QQ.one, -QQ.one))]

    return {
        "field-over-Z2": {"comodule_algebra": field_over_z2},
        "trivial-coaction-Z4": {"hopf": z4, "comodule_algebra": trivial},
        "shifted-coaction-Z2": {"hopf": z2, "comodule_algebra": shifted},
        "collapsed-action-Z2": {"module_coalgebra": collapsed},
        "sign-action-Z2": {"hopf": z2, "module_coalgebra": sign},
        "first-not-coideal-Z4": cogenerate_doc(unit_line, cosets["g2"]),
        "second-not-coideal-Z4": cogenerate_doc(cosets["g2"], no_coproduct),
        "third-not-coideal-Z4": cogenerate_doc(cosets["g2"], cosets["g"], no_coproduct),
        "three-coideals-Z4": cogenerate_doc(cosets["g2"], cosets["g"], cosets["g2"]),
        "subgroup-Z4-Z2": subgroup_doc("Z4", "g2"),
        "subgroup-S3-Z3": subgroup_doc("S3", "(123)"),
        "subgroup-S3-Z2-basis": subgroup_doc("S3", "(12)", basis_change=True),
        "subgroup-Z4-Z2-two-characters": {"module_coalgebra": z4_z2, "characters": two_characters},
    }


def _documents():
    for name in _SCRIPT.EXAMPLE_NAMES:
        for params in _SCRIPT.VARIANTS[name]:
            yield f"{name} {json.dumps(params, sort_keys=True)}", document_from_example(build(name, params))
    for name, structures in _extra_examples().items():
        yield name, document_from_example(ExampleSpec(name, (), QQ, structures))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _suite_digests(label, doc) -> dict[str, str]:
    return {f"{label}/{suite}": _sha256(run_suite(doc, suite).to_json()) for suite in _SCRIPT.applicable_suites(doc) + ["all"]}


def report_digests() -> dict[str, str]:
    digests = {}
    for label, doc in _documents():
        digests.update(_suite_digests(label, doc))
    return digests


def document_digests() -> dict[str, str]:
    return {label: _sha256(document_to_text(doc)) for label, doc in _documents()}


def _malformation_base() -> dict:
    """A well-formed document with every section, on a space H of dimension
    two; spaces K of dimension three and L of dimension one are declared but
    unused."""
    h2 = [{"i": i, "j": j, "c": "1"} for i, j in ((0, 0), (1, 1))]
    return {
        "field": {"kind": "rational"},
        "spaces": {"H": {"dim": 2, "basis": ["1", "g"]}, "K": {"dim": 3}, "L": {"dim": 1}},
        "algebra": {
            "space": "H",
            "mult": [{"i": i, "j": j, "k": (i + j) % 2, "c": "1"} for i in range(2) for j in range(2)],
            "unit": ["1", "0"],
        },
        "coalgebra": {"space": "H", "comult": [{"i": i, "j": i, "k": i, "c": "1"} for i in range(2)], "counit": ["1", "1"]},
        "antipode": {"space": "H", "entries": h2},
        "coaction": {"space": "H", "coalgebra": "H", "entries": [{"i": 0, "j": 0, "c": "1"}, {"i": 3, "j": 1, "c": "1"}]},
        "action": {"space": "H", "algebra": "H", "entries": [{"i": 0, "j": 0, "c": "1"}, {"i": 1, "j": 3, "c": "1"}]},
        "psi": {"algebra": "H", "coalgebra": "H", "entries": [{"i": i, "j": i, "c": "1"} for i in range(4)]},
        "grouplikes": [{"space": "H", "name": "g", "coords": ["0", "1"]}],
        "characters": [{"space": "H", "name": "k", "coords": ["1", "1"]}],
        "coideals": [{"space": "H", "name": "I", "vectors": [["1", "-1"]]}],
    }


_DROP = object()

# (label, edits): each edit sets the value at a path of keys and list
# indexes, or drops it when the value is _DROP
_MALFORMATIONS = [
    ("field-kind", [(("field", "kind"), "complex")]),
    ("field-modulus", [(("field",), {"kind": "prime", "p": 6})]),
    ("rational-modulus", [(("field", "p"), 7)]),
    ("spaces-dim", [(("spaces", "K", "dim"), -1)]),
    ("spaces-basis", [(("spaces", "H", "basis"), ["1"])]),
    ("unknown-section", [(("extra",), {})]),
]
for _section, _keys, _entries, _vector in [
    ("algebra", ("space",), "mult", "unit"),
    ("coalgebra", ("space",), "comult", "counit"),
    ("antipode", ("space",), "entries", None),
    ("coaction", ("space", "coalgebra"), "entries", None),
    ("action", ("space", "algebra"), "entries", None),
    ("psi", ("algebra", "coalgebra"), "entries", None),
]:
    _MALFORMATIONS += [
        (f"{_section}-not-an-object", [((_section,), [])]),
        *[(f"{_section}.{key}-missing", [((_section, key), _DROP)]) for key in _keys],
        *[(f"{_section}.{key}-not-a-string", [((_section, key), 1)]) for key in _keys],
        *[(f"{_section}.{key}-unknown", [((_section, key), "X")]) for key in _keys],
        *[(f"{_section}.{key}-other-space", [((_section, key), "K")]) for key in _keys],
        *[(f"{_section}.{key}-smaller-space", [((_section, key), "L")]) for key in _keys],
        (f"{_section}.{_entries}-not-a-list", [((_section, _entries), {})]),
        (f"{_section}.{_entries}-row-out-of-shape", [((_section, _entries, 0, "i"), 4)]),
        (f"{_section}.{_entries}-column-out-of-shape", [((_section, _entries, 0, "j"), 4)]),
        (f"{_section}.{_entries}-entry", [((_section, _entries, 1, "c"), _DROP), ((_section, _entries, 0, "x"), 0)]),
        (f"{_section}.{_entries}-coefficient", [((_section, _entries, 1, "c"), "1/0")]),
    ]
    if _vector is not None:
        _MALFORMATIONS += [
            (f"{_section}.{_vector}-length", [((_section, _vector), ["1"])]),
            (f"{_section}.{_vector}-not-a-list", [((_section, _vector), "1")]),
            (f"{_section}.{_vector}-coefficient", [((_section, _vector, 1), "x")]),
        ]
for _section, _data, _second in [
    ("grouplikes", "coords", "grouplike1"),
    ("characters", "coords", "character1"),
    ("coideals", "vectors", "I2"),
]:
    _MALFORMATIONS += [
        # the second item's default name repeats the first item's name
        (
            f"{_section}.name-default-repeated",
            [((_section, 1), {"space": "H", _data: []}), ((_section, 0, "name"), _second)],
        ),
        (f"{_section}-not-a-list", [((_section,), {})]),
        (f"{_section}-item-not-an-object", [((_section,), [[]])]),
        (f"{_section}.space-missing", [((_section, 0, "space"), _DROP)]),
        (f"{_section}.space-unknown", [((_section, 0, "space"), "X")]),
        (f"{_section}.space-other-space", [((_section, 0, "space"), "K")]),
        (f"{_section}.name-repeated", [((_section, 1), {"space": "H", "name": "x", _data: []}), ((_section, 0, "name"), "x")]),
        (f"{_section}.{_data}-missing", [((_section, 0, _data), _DROP)]),
        (f"{_section}.{_data}-length", [((_section, 0, _data), [["1"]] if _data == "vectors" else ["1"])]),
        (f"{_section}.{_data}-coefficient", [((_section, 0, _data), [["1", "1/x"]] if _data == "vectors" else ["1", "1/x"])]),
    ]
_MALFORMATIONS += [
    ("prime-field-string-coefficients", [(("field",), {"kind": "prime", "p": 7})]),
    ("every-section", [edit for label, edits in _MALFORMATIONS if label.endswith(("-entry", "-length")) for edit in edits]),
]


def _malformed(edits) -> str:
    obj = _malformation_base()
    for path, value in edits:
        *parents, last = path
        node = obj
        for key in parents:
            node = node[key]
        if value is _DROP:
            del node[last]
        elif isinstance(node, list) and last == len(node):
            node.append(value)
        else:
            node[last] = value
    return json.dumps(obj)


def problem_lists() -> dict[str, list[list[str]]]:
    lists = {}
    for label, edits in _MALFORMATIONS:
        try:
            parse_document(_malformed(edits))
            lists[label] = []
        except InvalidDocument as err:
            lists[label] = [[type(p).__name__, p.path, p.reason] for p in err.problems]
    return lists


def format_record() -> dict:
    return {"documents": document_digests(), "problems": problem_lists()}


@pytest.fixture(scope="module")
def digests():
    return report_digests()


@pytest.fixture(scope="module")
def recorded_format():
    return json.loads(DOCUMENTS.read_text(encoding="utf-8"))


def test_every_report_matches_its_recorded_digest(digests):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(digests) == sorted(recorded)
    changed = [key for key in recorded if digests[key] != recorded[key]]
    assert not changed


def test_every_document_text_matches_its_recorded_digest(recorded_format):
    assert document_digests() == recorded_format["documents"]


def test_every_parsed_document_gives_the_recorded_reports():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for label, doc in _documents():
        text = document_to_text(doc)
        parsed = parse_document(text)
        assert document_to_text(parsed) == text
        assert _suite_digests(label, parsed) == {key: v for key, v in recorded.items() if key.rsplit("/", 1)[0] == label}


def test_every_malformed_document_gives_its_recorded_problems(recorded_format):
    lists = problem_lists()
    assert lists == recorded_format["problems"]
    assert all(lists.values())


def test_gate_covers_every_suite(digests):
    suites = {key.rsplit("/", 1)[1] for key in digests}
    assert suites == {"structures", "entwining", "galois", "cogalois", "cogenerate", "all"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_reports.py --record")
    DIGESTS.write_text(json.dumps(report_digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    DOCUMENTS.write_text(json.dumps(format_record(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
