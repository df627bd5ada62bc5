import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from entwine import cli
from entwine.cli import main
from entwine.docformat import document_from_example, document_to_text, parse_document
from entwine.catalogue import build
from entwine.suites import run_suite


def emit_to(tmp_path, name, params=None, filename="doc.json"):
    text = document_to_text(document_from_example(build(name, params)))
    path = tmp_path / filename
    path.write_text(text, encoding="utf-8")
    return path


class TestCheckCommand:
    def test_galois_suite_passes(self, tmp_path, capsys):
        path = emit_to(tmp_path, "trivial-hopf-galois")
        code = main(["check", str(path), "--suite", "galois"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out
        assert "galois.verdict" in out

    def test_json_report_includes_matrices(self, tmp_path, capsys):
        path = emit_to(tmp_path, "trivial-hopf-galois")
        code = main(["check", str(path), "--suite", "galois", "--report", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"
        verdict_entry = next(e for e in report["checks"] if e["id"] == "galois.verdict")
        assert "translation" in verdict_entry["detail"]
        assert "psi" in verdict_entry["detail"]

    def test_non_galois_fails_with_witness(self, tmp_path, capsys):
        doc = {
            "field": {"kind": "rational"},
            "spaces": {"H": {"dim": 2, "basis": ["1", "g"]}, "A": {"dim": 1, "basis": ["1"]}},
            "algebra": {"space": "A", "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}], "unit": ["1"]},
            "coalgebra": {
                "space": "H",
                "comult": [{"i": 0, "j": 0, "k": 0, "c": "1"}, {"i": 1, "j": 1, "k": 1, "c": "1"}],
                "counit": ["1", "1"],
            },
            "coaction": {"space": "A", "coalgebra": "H", "entries": [{"i": 0, "j": 0, "c": "1"}]},
        }
        path = tmp_path / "non_galois.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["check", str(path), "--suite", "galois", "--report", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        verdict_entry = next(e for e in out["checks"] if e["id"] == "galois.verdict")
        assert verdict_entry["status"] == "fail"
        assert verdict_entry["detail"]["rank"] == 1
        assert "witness" in verdict_entry["detail"]

    def test_missing_section_exit_two(self, tmp_path, capsys):
        path = emit_to(tmp_path, "group-algebra")
        code = main(["check", str(path), "--suite", "cogalois"])
        err = capsys.readouterr().err
        assert code == 2
        assert "MissingSection" in err and "action" in err

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"field": {"kind": "rational"}, "spaces": {"A": {"dim": 1}}, '
                        '"algebra": {"space": "A", "mult": [{"i":0,"j":0,"k":0,"c":"1/0"}], "unit": ["1"]}}',
                        encoding="utf-8")
        code = main(["check", str(path), "--suite", "structures"])
        err = capsys.readouterr().err
        assert code == 2
        assert "algebra.mult[0].c" in err

    def test_unreadable_file_exit_two(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "missing.json"), "--suite", "all"])
        assert code == 2

    def test_all_suite_on_coset_document(self, tmp_path, capsys):
        path = emit_to(tmp_path, "coset-coideal", {"group": "S3"})
        code = main(["check", str(path), "--suite", "all", "--cutoff", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cogenerate.kernel-profile" in out
        assert "galois.verdict" in out

    def test_deterministic_reports(self, tmp_path, capsys):
        path = emit_to(tmp_path, "sweedler-h4")
        main(["check", str(path), "--suite", "all", "--report", "json"])
        first = capsys.readouterr().out
        main(["check", str(path), "--suite", "all", "--report", "json"])
        second = capsys.readouterr().out
        assert first == second


class TestExampleCommand:
    def test_emit_to_stdout(self, capsys):
        code = main(["example", "sweedler-h4"])
        out = capsys.readouterr().out
        assert code == 0
        doc = parse_document(out)
        assert doc.hopf is not None

    def test_emit_to_file(self, tmp_path):
        target = tmp_path / "out.json"
        code = main(["example", "group-algebra", "--param", "group=S3", "--emit", str(target)])
        assert code == 0
        doc = parse_document(target.read_text(encoding="utf-8"))
        assert doc.algebra.dim == 6

    def test_unknown_example_exit_two(self, capsys):
        code = main(["example", "does-not-exist"])
        assert code == 2
        assert "UnknownExample" in capsys.readouterr().err

    def test_bad_param_exit_two(self, capsys):
        code = main(["example", "group-algebra", "--param", "group"])
        assert code == 2

    def test_emitted_s3_document_passes_structures(self, tmp_path, capsys):
        target = tmp_path / "s3.json"
        assert main(["example", "group-algebra", "--param", "group=S3", "--emit", str(target)]) == 0
        assert main(["check", str(target), "--suite", "structures"]) == 0


def _call(argv, capsys):
    """(exit code, stdout, stderr) of one in-process call; an argparse usage
    error exits through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestOneParserPerProcess:
    def test_every_call_is_served_as_if_made_alone(self, tmp_path, capsys):
        coset = str(emit_to(tmp_path, "coset-coideal", {"group": "S3"}, "coset.json"))
        sweedler = str(emit_to(tmp_path, "sweedler-h4", None, "sweedler.json"))
        calls = [
            ["check", coset, "--suite", "all", "--report", "json", "--cutoff", "7"],
            ["example", "group-algebra", "--param", "group=S3"],
            ["check", sweedler, "--suite", "galois"],
            ["check", sweedler, "--suite", "bogus"],  # usage error
            ["example", "group-algebra"],  # a stale --param would build S3 here
            ["check", coset, "--suite", "cogenerate", "--cutoff", "1", "--report", "text"],
            ["example", "group-algebra", "--param", "group=Z3"],
            ["check", sweedler, "--suite", "structures", "--report", "json"],
            ["check", coset, "--suite", "cogenerate"],
        ]
        alone = []
        for argv in calls:
            cli._parser.cache_clear()
            alone.append(_call(argv, capsys))
        cli._parser.cache_clear()
        together = [_call(argv, capsys) for argv in calls]
        assert cli._parser.cache_info().misses == 1
        assert [code for code, _, _ in together] == [0, 0, 0, 2, 0, 0, 0, 0, 0]
        assert together == alone
        assert "invalid choice: 'bogus'" in together[3][2]
        assert parse_document(together[4][1]).algebra.dim == 2


class TestSuiteComposition:
    def test_entwining_suite_requires_psi(self, tmp_path):
        from entwine.errors import MissingSection

        doc = parse_document((emit_to(tmp_path, "group-algebra")).read_text(encoding="utf-8"))
        with pytest.raises(MissingSection):
            run_suite(doc, "entwining")

    def test_flip_document_entwining_suite(self, tmp_path):
        doc = parse_document(emit_to(tmp_path, "flip-entwining").read_text(encoding="utf-8"))
        report = run_suite(doc, "entwining")
        assert report.ok
        ids = [e.check_id for e in report.entries]
        assert "entwining.round-trip" in ids

    def test_unknown_suite(self, tmp_path):
        from entwine.errors import EntwineError

        doc = parse_document(emit_to(tmp_path, "group-algebra").read_text(encoding="utf-8"))
        with pytest.raises(EntwineError):
            run_suite(doc, "bogus")


def _run_cli(*args):
    """Run the CLI in a fresh interpreter, as a user would."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run(
        [sys.executable, "-m", "entwine", *args], capture_output=True, text=True, env=env, timeout=120
    )


def _z1_document(field, coefficient):
    return {
        "field": field,
        "spaces": {"A": {"dim": 1}},
        "algebra": {"space": "A", "mult": [{"i": 0, "j": 0, "k": 0, "c": coefficient}], "unit": [coefficient]},
    }


class TestInputContract:
    def test_large_prime_modulus_is_accepted(self, tmp_path, capsys):
        path = emit_to(tmp_path, "group-algebra", {"group": "Z2", "p": "2305843009213693951"})
        assert main(["check", str(path), "--suite", "structures"]) == 0

    @pytest.mark.parametrize("p", [561, 3215031751])
    def test_pseudoprime_modulus_is_refused(self, tmp_path, capsys, p):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_z1_document({"kind": "prime", "p": p}, 1)), encoding="utf-8")
        assert main(["check", str(path), "--suite", "structures"]) == 2
        assert f"field.p: field modulus must be prime, got {p}" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [7.0, 43.0])
    def test_float_modulus_is_refused(self, tmp_path, p):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_z1_document({"kind": "prime", "p": p}, 1)), encoding="utf-8")
        proc = _run_cli("check", str(path), "--suite", "structures")
        assert proc.returncode == 2
        assert f"field.p: field modulus must be an integer, got {p}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_modulus_beyond_exact_primality_is_refused(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_z1_document({"kind": "prime", "p": 2**89 - 1}, 1)), encoding="utf-8")
        assert main(["check", str(path), "--suite", "structures"]) == 2
        assert "field.p: field modulus must be below" in capsys.readouterr().err

    @pytest.mark.parametrize("coefficient", ["1e5000", "1.5", " 1", "+1", "1_0", "1/-2"])
    def test_coefficient_outside_the_grammar_is_refused(self, tmp_path, coefficient):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_z1_document({"kind": "rational"}, coefficient)), encoding="utf-8")
        proc = _run_cli("check", str(path), "--suite", "structures")
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "malformed rational coefficient" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("coefficient", ["1" * 5000, "1/" + "1" * 5000], ids=["numerator", "denominator"])
    def test_oversized_rational_string_is_refused(self, tmp_path, coefficient):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_z1_document({"kind": "rational"}, coefficient)), encoding="utf-8")
        proc = _run_cli("check", str(path), "--suite", "structures")
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "malformed rational coefficient" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_oversized_json_integer_is_refused(self, tmp_path):
        path = tmp_path / "doc.json"
        text = json.dumps(_z1_document({"kind": "rational"}, "1")).replace('"c": "1"', '"c": 1' + "0" * 5000)
        path.write_text(text, encoding="utf-8")
        proc = _run_cli("check", str(path), "--suite", "structures")
        assert proc.returncode == 2
        assert "error: $: not valid JSON" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cogenerate_reports_an_invalid_coalgebra_before_any_quotient(self, tmp_path):
        doc = json.loads(emit_to(tmp_path, "coset-coideal", {"group": "Z4"}).read_text(encoding="utf-8"))
        doc["coalgebra"]["comult"].append({"c": "1", "i": 3, "j": 0, "k": 1})
        for coideal in doc["coideals"]:
            coideal["vectors"] = []
        path = tmp_path / "bad_coalgebra.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = _run_cli("check", str(path), "--suite", "cogenerate", "--report", "json")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "InternalCheckError" not in proc.stderr
        checks = json.loads(proc.stdout)["checks"]
        assert [c["id"] for c in checks] == [
            "cogenerate.coalgebra.coassociativity",
            "cogenerate.coalgebra.left-counit",
            "cogenerate.coalgebra.right-counit",
        ]
        assert all(c["status"] == "fail" and "residual" in c["detail"] for c in checks)

    def test_cogenerate_reports_an_invalid_coaction_before_the_coinvariants(self, tmp_path):
        doc = json.loads(emit_to(tmp_path, "coset-coideal", {"group": "Z4"}).read_text(encoding="utf-8"))
        for entry in doc["coaction"]["entries"]:
            entry["c"] = "2"
        path = tmp_path / "bad_coaction.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = _run_cli("check", str(path), "--suite", "cogenerate", "--report", "json")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        checks = json.loads(proc.stdout)["checks"]
        failing = [c["id"] for c in checks if c["status"] == "fail"]
        assert failing == ["cogenerate.comodule.coaction-coassociativity", "cogenerate.comodule.coaction-counit"]
        assert not any(c["id"].startswith("cogenerate.coinvariant") for c in checks)

    @pytest.mark.parametrize("group", ["Z2", "Z3"])
    def test_cogalois_reports_an_invalid_coalgebra_before_the_coideal(self, tmp_path, group):
        doc = json.loads(emit_to(tmp_path, "group-coextension", {"group": group}).read_text(encoding="utf-8"))
        doc["coalgebra"]["comult"].append({"c": "1", "i": 1, "j": 0, "k": 1})
        path = tmp_path / "bad_coalgebra.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = _run_cli("check", str(path), "--suite", "cogalois", "--report", "json")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "NotCoideal" not in proc.stderr
        checks = json.loads(proc.stdout)["checks"]
        assert checks and all(c["id"].startswith("cogalois.coalgebra.") for c in checks)
        assert all(c["status"] == "fail" and "residual" in c["detail"] for c in checks)

    def test_galois_reports_an_invalid_algebra_before_the_certificate(self, tmp_path):
        doc = json.loads(emit_to(tmp_path, "trivial-hopf-galois", {"group": "Z3"}).read_text(encoding="utf-8"))
        doc["algebra"]["mult"].append({"c": "1", "i": 1, "j": 1, "k": 1})
        path = tmp_path / "bad_algebra.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = _run_cli("check", str(path), "--suite", "galois", "--report", "json")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "AxiomViolation" not in proc.stderr
        checks = json.loads(proc.stdout)["checks"]
        assert checks and all(c["id"].startswith("galois.algebra.") for c in checks)
        assert all(c["status"] == "fail" and "residual" in c["detail"] for c in checks)

    @pytest.mark.parametrize(
        "stage", ["entwine.cli.parse_document", "entwine.cli.run_suite", "entwine.reports.SuiteReport.to_json"]
    )
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch, stage):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(stage, exhausted)
        path = emit_to(tmp_path, "group-algebra")
        assert main(["check", str(path), "--suite", "structures", "--report", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: MemoryError") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, param",
        [
            ("quadratic-field-extension", "d=x"),
            ("quadratic-field-extension", "d=1/0"),
            ("group-algebra", "table=abc"),
            ("group-algebra", "table=[[0,1],[1,0]"),
            ("group-algebra", "table=5"),
            ("group-algebra", "table=" + "[" * 100000),
        ],
    )
    def test_malformed_example_parameter_is_refused(self, name, param):
        proc = _run_cli("example", name, "--param", param)
        assert proc.returncode == 2
        assert "error: BadParams" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cayley_table_and_names_from_the_command_line(self):
        custom = _run_cli("example", "group-algebra", "--param", "table=[[0,1],[1,0]]", "--param", "names=1,g")
        named = _run_cli("example", "group-algebra", "--param", "group=Z2")
        assert custom.returncode == named.returncode == 0
        assert custom.stdout == named.stdout

    def test_deeply_nested_document_is_refused(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("[" * 200000, encoding="utf-8")
        proc = _run_cli("check", str(path), "--suite", "structures")
        assert proc.returncode == 2
        assert "error: $: not valid JSON: nested too deeply" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_a_coideal_name_that_is_not_a_string_is_refused(self, tmp_path):
        # the name becomes a check id, cogenerate.coideal.<name>
        doc = json.loads(emit_to(tmp_path, "coset-coideal", {"group": "S3"}).read_text(encoding="utf-8"))
        doc["coideals"][0]["name"] = {"x": [1, 2]}
        path = tmp_path / "named.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = _run_cli("check", str(path), "--suite", "cogenerate")
        assert proc.returncode == 2
        assert proc.stderr == "error: coideals[0].name: expected a string, got dict\n"

    def test_two_grouplikes_of_one_name_are_refused(self, tmp_path, capsys):
        # each group-like of the Sweedler algebra names its own bundle checks
        doc = json.loads(emit_to(tmp_path, "sweedler-h4").read_text(encoding="utf-8"))
        doc["grouplikes"][1]["name"] = doc["grouplikes"][0]["name"]
        path = tmp_path / "named.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path), "--suite", "galois"]) == 2
        assert capsys.readouterr().err == "error: grouplikes[1].name: repeated name 'e0'\n"
