"""Expected outcomes of every check, and the comparison against them.

Native-basis checks must reproduce their recorded exit code and the sha256 of
their JSON report byte for byte.  A ``dense-gfp`` check runs on a randomly
conjugated document, so its report differs from the native one in every
coordinate; it must reproduce the native document's exit code and, check by
check, the id, the status and every basis-independent integer.

    python3 perfbench/outcomes.py --record    # rewrite expected.json

Recording runs the program under test, so do it only on a commit whose
reports are known to be right; ROADMAP requires reports to stay
byte-identical across performance work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().with_name("expected.json")

# Report detail keys whose values do not depend on the choice of basis.
_INVARIANT_KEYS = {"rank", "dim", "profile", "verdict", "exact"}


def run_cli(main, path: str, suite: str) -> tuple[int, str]:
    """One ``entwine check PATH --suite SUITE --report json`` call, in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", path, "--suite", suite, "--report", "json"])
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _collect(detail, path: str, out: dict):
    if isinstance(detail, dict):
        for key in sorted(detail):
            value = detail[key]
            here = f"{path}.{key}" if path else key
            if key in _INVARIANT_KEYS or key.endswith("_dim"):
                out[here] = value
            elif isinstance(value, dict):
                _collect(value, here, out)


def invariants(report_text: str) -> list:
    """[[check id, status, {detail path: basis-independent value}], ...]"""
    report = json.loads(report_text)
    rows = []
    for entry in report["checks"]:
        found: dict = {}
        _collect(entry.get("detail") or {}, "", found)
        rows.append([entry["id"], entry["status"], found])
    return rows


def mismatch(expected: dict, code: int, out: str) -> str | None:
    """Why a check's outcome differs from the expected one, or None."""
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    if "sha256" in expected and digest(out) != expected["sha256"]:
        return "JSON report differs from the recorded one"
    if "invariants" in expected:
        try:
            got = invariants(out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc}"
        if got != expected["invariants"]:
            return "check ids, statuses or basis-independent integers differ from the native basis"
    return None


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def record(work_dir: Path) -> dict:
    import workloads
    from entwine import cli

    work_dir.mkdir(parents=True, exist_ok=True)
    expected: dict = {}

    def outcome(check):
        path = work_dir / check.file_name
        path.write_text(check.text, encoding="utf-8")
        return run_cli(cli.main, str(path), check.suite)

    for workload in ("extensions-q", "hopf-cogen-q"):
        expected[workload] = {}
        for check in workloads.native_checks(workload):
            code, out = outcome(check)
            expected[workload][check.check_id] = {"exit": code, "sha256": digest(out)}
    expected["dense-gfp"] = {}
    for check in workloads.dense_gfp_checks(0, 0, native=True):
        code, out = outcome(check)
        expected["dense-gfp"][check.check_id] = {"exit": code, "invariants": invariants(out)}
    return expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/outcomes.py --record")
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]
    work = root / ".perfbench" / "record"
    try:
        data = record(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")
