"""Byte-identity gate for suite reports.

Every catalogue variant of ``scripts/verify_catalogue.py``, plus a few
non-Galois, non-algebra-map and non-coideal documents that exercise
witnesses, skip notes and gates, and subgroup coextensions whose base
coalgebra has dimension two or three, is run through each applicable suite and
through ``all`` with the CLI default cutoff.
The sha256 of each JSON report must equal the digest recorded in
``golden_reports.json``.  A refactor that changes any report byte fails here.

Re-record (only when a report change is intended):

    PYTHONPATH=src python tests/test_golden_reports.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from entwine.catalogue import ExampleSpec, build, coset_coideal, group_algebra, self_extension
from entwine.docformat import document_from_example
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


def report_digests() -> dict[str, str]:
    digests = {}
    for label, doc in _documents():
        for suite in _SCRIPT.applicable_suites(doc) + ["all"]:
            text = run_suite(doc, suite).to_json()
            digests[f"{label}/{suite}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests():
    return report_digests()


def test_every_report_matches_its_recorded_digest(digests):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(digests) == sorted(recorded)
    changed = [key for key in recorded if digests[key] != recorded[key]]
    assert not changed


def test_gate_covers_every_suite(digests):
    suites = {key.rsplit("/", 1)[1] for key in digests}
    assert suites == {"structures", "entwining", "galois", "cogalois", "cogenerate", "all"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_reports.py --record")
    DIGESTS.write_text(json.dumps(report_digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
