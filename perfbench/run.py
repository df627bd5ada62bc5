#!/usr/bin/env python3
"""The entwine benchmark: closed-loop ``entwine check`` calls on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``entwine`` from ``src/`` of
that checkout and nowhere else.  One client runs one check at a time, in
process, through ``entwine.cli.main``, and every check's output is compared
with its expected outcome.  Passes over the workload's checks repeat until
``--seconds`` have been measured (at least one pass).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, which alternates untraced and traced passes so it can report its
own overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120


def _import_entwine():
    """Import entwine from this checkout's src/, refusing any other copy."""
    if not (SRC / "entwine" / "__init__.py").is_file():
        raise SystemExit(f"error: no entwine sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import entwine

    if Path(entwine.__file__).resolve().parent != (SRC / "entwine").resolve():
        raise SystemExit(f"error: imported entwine from {entwine.__file__}, not from {SRC}")


def _normalised(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` as they would be with the host at nominal speed."""
    return seconds * reference.NOMINAL_S * 2 / (kernel_before + kernel_after)


def _measure_setup(workload: str, seed: int, work: Path) -> list[tuple[float, float]]:
    """(seconds, normalised seconds) of set-up in fresh processes: import
    entwine, generate and write the documents."""
    times = []
    for k in range(SETUP_REPEATS):
        out_dir = work / f"setup-{k}"
        before = reference.kernel_seconds()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_once.py"), workload, str(seed), str(out_dir)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
        after = reference.kernel_seconds()
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{proc.stderr}")
        seconds = float(proc.stdout.strip().splitlines()[-1])
        times.append((seconds, _normalised(seconds, before, after)))
        shutil.rmtree(out_dir)
    return times


class Runner:
    """Runs passes of one workload and keeps every latency and mismatch."""

    def __init__(self, workload: str, seed: int, work: Path):
        import outcomes
        import workloads
        from entwine import cli

        self.workload = workload
        self.seed = seed
        self.work = work
        self.cli = cli
        self.expected = outcomes.load_expected()[workload]
        self.rng = random.Random(f"order:{workload}:{seed}")
        self.pass_index = 0
        # per pass: (check id, seconds, normalised seconds) of each check
        self.passes: list[list[tuple[str, float, float]]] = []
        self.pass_wall: list[float] = []
        self.kernel_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._native = None if workload == "dense-gfp" else self._write(workloads.checks_for(workload, seed, 0), "native")

    def _write(self, checks, label: str):
        pass_dir = self.work / label
        pass_dir.mkdir(parents=True, exist_ok=True)
        planned = []
        for check in checks:
            path = pass_dir / check.file_name
            path.write_text(check.text, encoding="utf-8")
            planned.append((check, str(path)))
        return planned

    def _plan(self):
        """This pass's checks and files, shuffled; generated outside the timed region."""
        import workloads

        if self._native is not None:
            planned = list(self._native)
        else:
            old = self.work / f"pass-{self.pass_index - 1}"
            if old.exists():
                shutil.rmtree(old)
            checks = workloads.checks_for(self.workload, self.seed, self.pass_index)
            planned = self._write(checks, f"pass-{self.pass_index}")
        self.rng.shuffle(planned)
        return planned

    def run_pass(self, tracer=None) -> list[tuple[str, float, float]]:
        """One pass over the checks; the reference kernel runs between every two."""
        import outcomes

        planned = self._plan()
        clock = time.perf_counter
        main = self.cli.main
        kernel_start, kernel_s = [], []  # every kernel run of this pass
        timed = []  # (check id, start, seconds, index of the kernel run just before)

        def run_kernel():
            kernel_start.append(clock())
            kernel_s.append(reference.kernel_seconds())

        wall_start = clock()
        run_kernel()
        for check, path in planned:
            self.attempted += 1
            if tracer is not None:
                tracer.check_id = check.check_id
            start = clock()
            try:
                code, out = outcomes.run_cli(main, path, check.suite)
                why = outcomes.mismatch(self.expected[check.check_id], code, out)
            except (Exception, SystemExit) as exc:  # a raising check fails; the run goes on
                why = f"raised {type(exc).__name__}: {exc}"
            timed.append((check.check_id, start, clock() - start, len(kernel_s) - 1))
            run_kernel()
            if why is not None:
                self.failures.append(f"{check.check_id}: {why}")
        self.pass_wall.append(clock() - wall_start)
        samples = []
        for check_id, start, seconds, before in timed:
            # The host's speed is taken over a span comparable to the check's
            # own: the kernel runs within a quarter of its duration of it, and
            # at least the two adjacent ones.
            margin = seconds / 4
            lo = min(before, bisect.bisect_left(kernel_start, start - margin))
            hi = max(before + 2, bisect.bisect_right(kernel_start, start + seconds + margin))
            host = statistics.fmean(kernel_s[lo:hi])
            samples.append((check_id, seconds, seconds * reference.NOMINAL_S / host))
        self.kernel_s.extend(kernel_s)
        self.pass_index += 1
        self.passes.append(samples)
        return samples

    @property
    def checks_per_pass(self) -> int:
        return len(self.expected)


def _no_time_for_another(start: float, seconds: float, pass_seconds: list[float]) -> bool:
    """Stop when one more pass of median length would end after ``seconds``."""
    return time.perf_counter() - start + statistics.median(pass_seconds) > seconds


def _end_to_end(runner: Runner, setup: list[tuple[float, float]]) -> dict:
    """Every time metric is normalised to nominal host speed (reference.py);
    the comment line before the result also gives the raw figures."""
    import workloads

    largest = workloads.LARGEST[runner.workload]
    by_check: dict[str, list[tuple[float, float]]] = {}
    for samples in runner.passes:
        for check_id, seconds, normalised in samples:
            by_check.setdefault(check_id, []).append((seconds, normalised))

    def summary(k: int) -> dict:  # k = 0: raw, k = 1: normalised
        pass_s = statistics.median(sum(sample[k + 1] for sample in p) for p in runner.passes)
        return {
            "setup_s": statistics.median(t[k] for t in setup),
            "docs_per_s": runner.checks_per_pass / pass_s,
            # the median over checks of each check's median latency: a slow
            # moment of the host moves one sample of a check, not its median
            "check_ms.p50": statistics.median(statistics.median(t[k] for t in v) * 1000 for v in by_check.values()),
            "largest_ms": statistics.median(t[k] for t in by_check[largest]) * 1000,
        }

    raw, normalised = summary(0), summary(1)
    units = {"setup_s": "s", "docs_per_s": "1/s", "check_ms.p50": "ms", "largest_ms": "ms"}
    samples = sum(len(v) for v in by_check.values())
    print(
        f"# {runner.workload}: {len(runner.passes)} passes of {runner.checks_per_pass} checks, {samples} samples, "
        f"{len(by_check[largest])} of {largest}; {len(setup)} set-ups; "
        f"reference kernel median {statistics.median(runner.kernel_s) * 1000:.2f} ms "
        f"(nominal {reference.NOMINAL_S * 1000:g} ms)"
    )
    print("# raw: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in normalised.items()}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    return metrics


def _per_layer(tracer, traced_s: list[float], untraced_s: list[float], checks: int) -> dict:
    import tracer as tracing

    traced_passes = len(traced_s)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, _, _ in tracing.TARGETS:
        stat = tracer.stats.get(name) or tracing.Stat()
        put(f"{name}.calls", stat.calls / traced_passes, "count")
        put(f"{name}.self_s", stat.self_s / traced_passes, "s")
        if name in tracing.CELLS:
            put(f"{name}.max_cells", stat.max_cells, "count")
        if name in tracing.ZEROS:
            put(f"{name}.zero_share", stat.zeros / stat.cells if stat.cells else 0.0, "ratio")
        if name in tracing.PER_CHECK:
            calls = [n for (span, _), n in tracer.calls_by_check.items() if span == name]
            # calls per check and pass, over the checks that make the call at all
            per_check = sum(calls) / (len(calls) * traced_passes) if calls else 0.0
            put(f"{name}.per_check", per_check, "count")
        if name == "docformat.parse_document":
            put(f"{name}.bytes_in", stat.bytes / traced_passes, "bytes")
        if name == "reports.to_json":
            put(f"{name}.bytes_out", stat.bytes / traced_passes, "bytes")
    put("trace.docs_per_s_traced", checks / statistics.median(traced_s), "1/s")
    put("trace.docs_per_s_untraced", checks / statistics.median(untraced_s), "1/s")
    return metrics


def _write_spans(tracer, path: Path):
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, check_id in tracer.spans:
            handle.write(json.dumps([name, start, end, parent, check_id]) + "\n")


def _traced_run(runner: Runner, args) -> dict:
    """Alternate untraced and traced passes; per-layer figures are per traced pass."""
    import tracer as tracing

    tracer = tracing.Tracer()
    traced_s, untraced_s = [], []

    def check_seconds(samples):
        return sum(seconds for _, seconds, _ in samples)

    start = time.perf_counter()
    while True:
        untraced_s.append(check_seconds(runner.run_pass()))
        tracer.install()
        try:
            traced_s.append(check_seconds(runner.run_pass(tracer)))
        finally:
            tracer.uninstall()
        pairs = [u + t for u, t in zip(runner.pass_wall[::2], runner.pass_wall[1::2])]
        if _no_time_for_another(start, args.seconds, pairs):
            break
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
    _write_spans(tracer, spans_path)
    metrics = _per_layer(tracer, traced_s, untraced_s, runner.checks_per_pass)
    _print_duplication(tracer, len(traced_s))
    print(f"# spans written to {spans_path.relative_to(ROOT)}; traced passes {len(traced_s)}")
    return metrics


def _print_duplication(tracer, traced_passes: int):
    """Per-check call counts of the functions that build certificates (ROADMAP item 1)."""
    import tracer as tracing

    by_check: dict = {}
    for (span, check_id), n in tracer.calls_by_check.items():
        if span in tracing.PER_CHECK:
            by_check.setdefault(span, set()).add((check_id, n / traced_passes))
    for span in sorted(by_check):
        counts = sorted(by_check[span])
        summary = ", ".join(f"{cid}={n:g}" for cid, n in counts)
        print(f"# {span} calls per check: {summary}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("extensions-q", "dense-gfp", "hopf-cogen-q"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_entwine()
    work = WORK / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        setup = _measure_setup(args.workload, args.seed, work) if not args.trace else []
        runner = Runner(args.workload, args.seed, work)
        if args.trace:
            metrics = _traced_run(runner, args)
        else:
            start = time.perf_counter()
            while True:
                runner.run_pass()
                if _no_time_for_another(start, args.seconds, runner.pass_wall):
                    break
            metrics = _end_to_end(runner, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in runner.failures:
        print(f"# FAILED {line}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
