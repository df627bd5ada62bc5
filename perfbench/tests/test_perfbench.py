"""Tests of the benchmark itself: inputs, expected outcomes, tracer, contract.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import outcomes
import tracer as tracing
import workloads
from entwine import cli
from entwine.docformat import parse_document
from entwine.suites import run_suite

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".perfbench" / "tests"


@pytest.fixture(scope="module")
def workdir():
    WORKDIR.mkdir(parents=True, exist_ok=True)
    yield WORKDIR
    shutil.rmtree(WORKDIR, ignore_errors=True)


def _run(check, directory: Path) -> tuple[int, str]:
    path = directory / check.file_name
    path.write_text(check.text, encoding="utf-8")
    return outcomes.run_cli(cli.main, str(path), check.suite)


def test_generator_is_deterministic_for_a_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.checks_for(workload, 7, 3) == workloads.checks_for(workload, 7, 3)
    texts = lambda seed, k: [c.text for c in workloads.checks_for("dense-gfp", seed, k)]  # noqa: E731
    assert texts(1, 0) != texts(2, 0)
    assert texts(1, 0) != texts(1, 1)


def test_workload_sizes():
    assert len(workloads.checks_for("extensions-q", 0, 0)) == 13
    assert len(workloads.checks_for("dense-gfp", 0, 0)) == 12
    cogen = [c for c in workloads.checks_for("hopf-cogen-q", 0, 0) if c.suite == "cogenerate"]
    assert len(cogen) == 34
    for check in workloads.checks_for("dense-gfp", 0, 0):
        doc = parse_document(check.text)
        assert doc.field.p == workloads.P
        assert max(doc.algebra.dim, doc.coalgebra.dim) <= 4


def test_conjugation_makes_matrices_dense():
    native = {c.check_id: c for c in workloads.dense_gfp_checks(0, 0, native=True)}
    for check in workloads.checks_for("dense-gfp", 3, 0):
        if check.doc_key == "sweedler-h4":
            before = parse_document(native[check.check_id].text).coaction
            after = parse_document(check.text).coaction
            nonzero = lambda m: sum(1 for row in m.entries for x in row if x)  # noqa: E731
            assert nonzero(after) > 2 * nonzero(before)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_conjugated_verdicts_match_native(seed, workdir):
    native = {}
    for check in workloads.dense_gfp_checks(0, 0, native=True):
        code, out = _run(check, workdir)
        native[check.check_id] = (code, outcomes.invariants(out))
    expected = outcomes.load_expected()["dense-gfp"]
    for check in workloads.checks_for("dense-gfp", seed, 0):
        code, out = _run(check, workdir)
        assert (code, outcomes.invariants(out)) == native[check.check_id], check.check_id
        assert outcomes.mismatch(expected[check.check_id], code, out) is None


def test_every_native_report_is_the_direct_report_and_recorded(workdir):
    expected = outcomes.load_expected()
    for workload in ("extensions-q", "hopf-cogen-q"):
        for check in workloads.checks_for(workload, 0, 0):
            code, out = _run(check, workdir)
            direct = run_suite(parse_document(check.text), check.suite)
            assert out == direct.to_json(), check.check_id
            assert code == (0 if direct.ok else 1)
            assert outcomes.mismatch(expected[workload][check.check_id], code, out) is None
    assert expected["extensions-q"]["trivial-coaction.Z4/galois"]["exit"] == 1


def test_reference_kernel_leaves_the_collector_as_it_was():
    import gc

    import reference

    assert gc.isenabled()
    assert reference.kernel_seconds() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        reference.kernel_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_mismatch_is_detected():
    expected = {"exit": 0, "sha256": outcomes.digest("a")}
    assert outcomes.mismatch(expected, 0, "a") is None
    assert outcomes.mismatch(expected, 1, "a") is not None
    assert outcomes.mismatch(expected, 0, "b") is not None


def _bindings():
    import entwine.exactlin as exactlin
    import entwine.reports as reports

    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "entwine" or name.startswith("entwine."):
            for key, value in vars(module).items():
                seen[name, key] = value
    for cls in (exactlin.Matrix, exactlin.Subspace, reports.SuiteReport):
        for key, value in vars(cls).items():
            seen[cls.__name__, key] = value
    return seen


def test_tracer_restores_every_binding():
    import entwine.galois as galois

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert galois.kernel is not before["entwine.exactlin", "kernel"]
        assert sum(1 for k in before if during[k] is not before[k]) > len(tracing.TARGETS)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced(checks, workdir):
    tracer = tracing.Tracer()
    paths = []
    for check in checks:
        path = workdir / check.file_name
        path.write_text(check.text, encoding="utf-8")
        paths.append((check, str(path)))
    tracer.install()
    try:
        start = time.perf_counter()
        for check, path in paths:
            tracer.check_id = check.check_id
            outcomes.run_cli(cli.main, path, check.suite)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, wall


def test_self_times_sum_to_no_more_than_wall_time(workdir):
    checks = [c for c in workloads.checks_for("dense-gfp", 4, 0) if c.doc_key != "sweedler-h4"]
    tracer, wall = _traced(checks, workdir)
    total_self = sum(stat.self_s for stat in tracer.stats.values())
    top = [s for s in tracer.spans if s[3] == -1]
    assert {s[0] for s in top} == {"cli.main"}
    assert len(top) == len(checks)
    assert 0 < total_self <= sum(end - start for _, start, end, _, _ in top) <= wall
    for name, start, end, parent, _ in tracer.spans:
        if parent != -1:
            _, pstart, pend, _, _ = tracer.spans[parent]
            assert pstart <= start <= end <= pend, name


def test_tracer_counts_match_an_independent_profiler(workdir):
    """Calls seen by the wrappers equal calls seen by sys.setprofile."""
    native = {c.check_id: c for c in workloads.checks_for("hopf-cogen-q", 0, 0)}
    native.update({c.check_id: c for c in workloads.checks_for("extensions-q", 0, 0)})
    picked = [native["coset-coideal.Z4.g,g2/cogenerate"], native["sweedler-h4/galois"]]
    tracer, _ = _traced(picked, workdir)

    import entwine.cogenerate as cogenerate
    import entwine.galois as galois

    codes = {galois.galois_check.__code__: "galois.galois_check",
             cogenerate.cogeneration_check.__code__: "cogenerate.cogeneration_check"}
    counts = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] = counts.get(codes[frame.f_code], 0) + 1

    for check in picked:
        path = workdir / check.file_name
        sys.setprofile(profile)
        try:
            outcomes.run_cli(cli.main, str(path), check.suite)
        finally:
            sys.setprofile(None)
    for name, n in counts.items():
        assert tracer.stats[name].calls == n
    assert counts["cogenerate.cogeneration_check"] >= 1
    assert counts["galois.galois_check"] >= 1


def test_result_line_carries_exactly_the_declared_metrics(workdir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dense-gfp", "--seed", "5", "--seconds", "0.1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(workdir):
    bare = workdir / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-gfp", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
