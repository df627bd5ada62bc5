"""Each suite builds each certificate once and passes it to its consumers,
and each structure computes each of its cached reports once.

Counting wrappers replace every binding of the named functions across the
``entwine`` modules (``from .galois import coinvariants`` gives each
importing module its own binding), or the named cached property on its
class, then one suite runs on one document.
"""

import argparse
import sys
from collections import Counter
from functools import cached_property
from itertools import permutations

import pytest

import entwine.cli as cli
import entwine.cogalois as cogalois
import entwine.cogenerate as cogenerate
import entwine.entwining as entwining
import entwine.exactlin as exactlin
import entwine.galois as galois
import entwine.structures as structures
from entwine.catalogue import build, coset_coideal, group_algebra
from entwine.docformat import document_from_example, document_to_text
from entwine.exactlin import Matrix, apply_kron, kron_apply
from entwine.fields import QQ
from entwine.suites import run_suite


@pytest.fixture
def count_calls(monkeypatch):
    counts = Counter()

    def install(*functions):
        modules = [m for n, m in sys.modules.items() if n == "entwine" or n.startswith("entwine.")]
        for original in functions:
            if isinstance(original, cached_property):
                _install_property(original)
                continue

            def wrapper(*args, _original=original, **kwargs):
                counts[_original.__name__] += 1
                return _original(*args, **kwargs)

            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)
        return counts

    def _install_property(original):
        """Count the computations of a cached property, once per structure."""
        name = original.attrname
        owner = getattr(sys.modules[original.func.__module__], original.func.__qualname__.split(".")[0])

        def compute(self):
            counts[name] += 1
            return original.func(self)

        prop = cached_property(compute)
        prop.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, prop)

    return install


def _run(name, params, suite):
    doc = document_from_example(build(name, params))
    report = run_suite(doc, suite)
    assert report.ok
    return doc, report


def test_s3_galois_builds_each_certificate_once(count_calls):
    counts = count_calls(
        galois.galois_check,
        galois.coinvariants,
        galois.coinvariant_system,
        structures.ComoduleAlgebra.raw_can,
        entwining.validate_entwining,
        structures.coaction_algebra_map_checks,
        structures.validate_comodule,
    )
    _run("coset-coideal", {"group": "S3"}, "galois")
    # coinvariants and the certificate share one (m (x) C)(A (x) coaction),
    # and galois_check reads the comodule report the suite computed
    assert counts == {
        "galois_check": 1,
        "coinvariants": 1,
        "coinvariant_system": 1,
        "raw_can": 1,
        "validate_entwining": 1,
        "coaction_algebra_map_checks": 1,
        "validate_comodule": 1,
    }


def test_bundle_report_is_passed_to_the_equivalence(count_calls):
    counts = count_calls(
        galois.bundle_check,
        galois.galois_check,
        galois.balanced_tensor,
        galois.coinvariants,
        structures.ComoduleAlgebra.raw_can,
        entwining.validate_entwining,
        structures.validate_comodule,
    )
    doc, _ = _run("trivial-hopf-galois", {"group": "Z3"}, "galois")
    # the bundle at the unit induces the extension's own coaction and
    # coinvariants, so its certificate is the extension's, and the
    # equivalence reads the raw canonical map, comodule report and
    # coinvariants of its subject, the document's comodule algebra
    assert counts == {
        "bundle_check": len(doc.grouplikes),
        "galois_check": 1,
        "balanced_tensor": 1,
        "coinvariants": 1,
        "raw_can": 1,
        "validate_entwining": 1,
        "validate_comodule": 1,
    }


def test_sweedler_bundles_validate_psi_once(count_calls):
    counts = count_calls(galois.bundle_check, galois.balanced_tensor, entwining.validate_entwining)
    doc, _ = _run("sweedler-h4", {}, "galois")
    # the g bundle has a carrier of its own, whose canonical psi is the given psi
    assert counts == {"bundle_check": len(doc.grouplikes), "balanced_tensor": 2, "validate_entwining": 1}


def test_dual_bundle_report_is_passed_to_the_equivalence(count_calls):
    counts = count_calls(
        cogalois.dual_bundle_check,
        galois.bundle_check,
        structures.coaction_algebra_map_checks,
        entwining.validate_entwining,
    )
    doc, _ = _run("group-coextension", {"group": "Z3"}, "cogalois")
    # a dual bundle is one bundle of the dual, and the coalgebra-map gate of
    # hopf_coideal is the algebra-map test of the dual coaction
    assert counts == {
        "dual_bundle_check": len(doc.characters),
        "bundle_check": len(doc.characters),
        "coaction_algebra_map_checks": 1,
        "validate_entwining": 1,
    }


@pytest.mark.parametrize("params", [{}, {"algebra": "Z3", "coalgebra": "Z2"}])
def test_entwining_suite_validates_psi_once(count_calls, params):
    counts = count_calls(entwining.validate_entwining, entwining.validate_structure_maps)
    _run("flip-entwining", params, "entwining")
    # the structure maps are built from, and recover, the validated psi, and
    # the recovery reads the suite's report on the pair
    assert counts == {"validate_entwining": 1, "validate_structure_maps": 1}


@pytest.mark.parametrize(
    "params",
    [{"group": "Z4"}, {"group": "Z4", "generators": "g,g2"}, {"group": "S3", "generators": "(12),(13)"}],
)
def test_cogeneration_report_is_passed_to_the_intersection(count_calls, params):
    counts = count_calls(
        cogenerate.cogeneration_check, cogalois.quotient_coalgebra, exactlin.quotient, cogenerate._kernel_step
    )
    _, report = _run("coset-coideal", params, "cogenerate")
    assert counts["cogeneration_check"] == 1
    # one quotient coalgebra per coideal, which is also its coideal gate
    assert counts["quotient_coalgebra"] == 2
    (profile,) = [e.detail["profile"] for e in report.entries if e.check_id == "cogenerate.kernel-profile"]
    assert counts["_kernel_step"] == len(profile)
    assert counts["quotient"] == 2 + len(profile)


@pytest.mark.parametrize(
    "params",
    [{"group": "Z4"}, {"group": "Z4", "generators": "g,g2"}, {"group": "S3", "generators": "(12),(13)"}],
)
def test_one_coinvariant_system_per_cogenerate_check(count_calls, params):
    counts = count_calls(galois.coinvariant_system, structures.ComoduleAlgebra.raw_can, galois.coinvariants)
    _run("coset-coideal", params, "cogenerate")
    # the full system is built once; both quotient systems are pushed from it
    assert counts == {"coinvariant_system": 1, "raw_can": 1, "coinvariants": 3}


@pytest.mark.parametrize(
    "params",
    [{"group": "Z4"}, {"group": "Z4", "generators": "g,g2"}, {"group": "S3", "generators": "(12),(13)"}],
)
def test_cogenerate_validates_only_the_coalgebra(count_calls, params):
    counts = count_calls(structures.validate_coalgebra)
    _run("coset-coideal", params, "cogenerate")
    # the suite's gate on C; a quotient by a coideal that passed its gate is
    # a coalgebra, so the two quotients are not validated again
    assert counts == {"validate_coalgebra": 1}


def test_galois_builds_the_quotient_maps_once(count_calls):
    counts = count_calls(galois._quotient_left_action, galois._quotient_coaction)
    _run("trivial-hopf-galois", {"group": "Z3"}, "galois")
    # the canonical map's checks and the translation identities share them
    assert counts == {"_quotient_left_action": 1, "_quotient_coaction": 1}


def test_quotient_coalgebra_presents_the_quotient_once(count_calls):
    c = group_algebra({"group": "S3"}).coalgebra
    counts = count_calls(exactlin.quotient)
    cogalois.quotient_coalgebra(c, coset_coideal({"group": "S3"}, "(12)"))
    assert counts == {"quotient": 1}


def test_group_coextension_quotient_count(count_calls):
    counts = count_calls(
        cogalois.coextension_check,
        cogalois._annihilator,
        galois.coinvariants,
        exactlin.quotient,
        cogalois.quotient_coalgebra,
        structures.validate_coalgebra,
        structures.validate_module,
        structures.validate_comodule,
        galois.balanced_tensor,
        structures.ComoduleAlgebra.raw_can,
        entwining.validate_entwining,
        entwining.entwined_module_check,
        structures.coaction_algebra_map_checks,
    )
    _run("group-coextension", {"group": "Z3"}, "cogalois")
    assert counts["coextension_check"] == 1
    # the one quotient is the dual's balanced tensor product: the base
    # coalgebra C/I is never built, its dimension is that of the dual's
    # coinvariants, and the composite identity is read off the dual's checks
    assert counts["quotient"] == 1
    assert counts["quotient_coalgebra"] == 0
    # the suite's coalgebra gate
    assert counts["validate_coalgebra"] == 1
    # the suite's gate reads the comodule report of the dual, which
    # coextension_check and the dual bundle equivalence read again: one
    # axiom validation of the action
    assert counts["validate_module"] == 0
    assert counts["validate_comodule"] == 1
    # the certificate keeps the dual's one Galois certificate, and the dual
    # bundle at the trivial character is that certificate
    assert counts["balanced_tensor"] == 1
    assert counts["validate_entwining"] == 1
    assert counts["entwined_module_check"] == 1
    assert counts["coaction_algebra_map_checks"] == 1
    # the dual's raw canonical map, shared by its coinvariants and certificate
    assert counts["raw_can"] == 1
    # the certificate annihilates the coinvariants of the dual once, for its
    # coideal; the dual bundle compares its invariants with them, and the
    # equivalence reads them from the dual
    assert counts["_annihilator"] == 1
    assert counts["coinvariants"] == 1


@pytest.mark.parametrize(
    "name, params, suite", [("group-algebra", {"group": "S3"}, "structures"), ("group-coextension", {"group": "Z3"}, "cogalois")]
)
def test_no_middle_swap_is_formed(count_calls, name, params, suite):
    # coproduct-multiplicative and action-comultiplicative multiply in a
    # tensor product through exactlin.swap_product, not through a formed
    # four-factor permutation
    counts = count_calls(exactlin.tensor_permutation)
    _run(name, params, suite)
    assert counts["tensor_permutation"] == 0


def test_all_validates_each_structure_once(count_calls):
    counts = count_calls(
        structures.validate_algebra,
        structures.validate_coalgebra,
        structures.validate_hopf,
        structures.validate_comodule,
    )
    _run("sweedler-h4", {}, "all")
    # every sub-suite reads the document's structures, and validate_hopf reads
    # the algebra and coalgebra reports; the second coalgebra is the
    # algebra's dual, whose axioms validate_algebra reads transposed, and the
    # second comodule is the carrier of the g bundle
    assert counts == {"validate_algebra": 1, "validate_coalgebra": 2, "validate_hopf": 1, "validate_comodule": 2}


def test_all_validates_the_comodule_algebra_once(count_calls):
    counts = count_calls(structures.validate_comodule)
    _run("coset-coideal", {"group": "S3"}, "all")
    # structures, galois and cogenerate read one comodule report
    assert counts == {"validate_comodule": 1}


def test_one_parser_per_process(monkeypatch, tmp_path, capsys):
    built = Counter()
    original = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built["ArgumentParser"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    path = tmp_path / "doc.json"
    path.write_text(document_to_text(document_from_example(build("sweedler-h4", {}))), encoding="utf-8")
    try:
        codes = [
            cli.main(["check", str(path), "--suite", "structures"]),
            cli.main(["check", str(path), "--suite", "galois", "--report", "json"]),
            cli.main(["example", "group-algebra", "--param", "group=Z3"]),
            cli.main(["check", str(path), "--suite", "all"]),
            cli.main(["example", "sweedler-h4"]),
            cli.main(["check", str(path), "--suite", "structures", "--report", "json"]),
        ]
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert codes == [0] * 6
    # the root parser and its two subcommand parsers, built on the first call
    assert built == {"ArgumentParser": 3}


def test_s3_galois_forms_no_identity_kronecker_factor(monkeypatch):
    kron, matmul, transpose = exactlin.kron, exactlin.Matrix.__matmul__, exactlin.Matrix.transpose
    formed, factors, counts = [], [], Counter()

    def recorded(m1, m2):
        out = kron(m1, m2)
        formed.append((m1, m2, out))
        return out

    def multiplied(self, other):
        factors.extend((self, other))
        return matmul(self, other)

    def counted(self):
        counts["transpose"] += 1
        return transpose(self)

    for module in [m for n, m in sys.modules.items() if n == "entwine" or n.startswith("entwine.")]:
        if getattr(module, "kron", None) is kron:
            monkeypatch.setattr(module, "kron", recorded)
    monkeypatch.setattr(exactlin.Matrix, "__matmul__", multiplied)
    monkeypatch.setattr(exactlin.Matrix, "transpose", counted)
    _run("coset-coideal", {"group": "S3"}, "galois")
    # the structure maps, the canonical map and its actions, the ideals of
    # the differential sequence and the left canonical map multiply through
    # leg_product and leg_product_mirror, which form no kron(I, z), and
    # apply_kron transposes nothing.  A Kronecker product is formed as a
    # factor only with two non-identity factors, as kron(incl, incl) in the
    # subalgebra test; the ones with an identity factor are compared, not
    # multiplied: the relations of A (x)_B A, the subspace tensor products
    # and the expected sides of residual checks.
    in_products = {id(m) for m in factors}
    assert any(id(out) in in_products for _, _, out in formed)
    for m1, m2, out in formed:
        assert not (m1.is_identity or m2.is_identity) or id(out) not in in_products
    # the transposes are those of one swap_product and of the algebra
    # axioms, read off the dual coalgebra: its structure map and three
    # residuals
    assert counts["transpose"] <= 9


@pytest.mark.parametrize(
    ("name", "params", "suite"),
    [
        ("coset-coideal", {"group": "S3"}, "galois"),
        ("trivial-hopf-galois", {"group": "Z3"}, "galois"),
        ("group-coextension", {"group": "Z3"}, "cogalois"),
    ],
)
def test_the_coinvariants_are_tested_for_a_subalgebra_once(count_calls, name, params, suite):
    counts = count_calls(galois._subalgebra_failure)
    _run(name, params, suite)
    # coinvariants verifies x.coinvariants when it computes them, and
    # balanced_tensor does not test them again
    assert counts == {"_subalgebra_failure": 1}


def test_s3_cogenerate_row_kernel_calls(count_calls):
    counts = count_calls(exactlin._combination, exactlin._packed)
    _run("coset-coideal", {"group": "S3", "generators": "(12),(13)"}, "cogenerate")
    # the structure maps of k[S3] are monomial (g -> g (x) g, g (x) h -> gh),
    # so the products that combine by them place rows and call no row
    # kernel; 1066 calls before they did
    assert counts == {"_combination": 166}


def test_s4_cogalois_over_gf7_packs_no_operand(count_calls):
    perms = list(permutations(range(4)))
    index = {q: i for i, q in enumerate(perms)}
    table = [[index[tuple(g[h[i]] for i in range(4))] for h in perms] for g in perms]
    counts = count_calls(exactlin._combination, exactlin._packed)
    _run("group-coextension", {"table": table, "p": 7}, "cogalois")
    # the one product that packed a 24-row operand combined every row by one
    # unit term; 173 592 row kernel calls before placement
    assert counts["_packed"] == 0
    assert counts["_combination"] <= 96


def test_is_identity_is_computed_once_per_matrix(count_calls):
    counts = count_calls(exactlin.Matrix.is_identity)
    x, y = Matrix.identity(2, QQ), Matrix.from_rows([[1, 1], [0, 1]], QQ)
    m, n = Matrix.zero(4, 3, QQ), Matrix.zero(3, 4, QQ)
    for _ in range(3):
        kron_apply(x, y, m)
        apply_kron(n, x, y)
    assert counts == {"is_identity": 2}
