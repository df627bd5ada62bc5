#!/usr/bin/env python3
"""Time the frontier inputs: S4 (dimension 24) and S4 x Z2 (dimension 48),
each built from its Cayley table.

    PYTHONPATH=src python3 scripts/frontier.py

Runs eight inputs, each in a fresh child process so that its peak resident
set is its own: S4 ``trivial-hopf-galois`` through the ``galois`` suite and
S4 ``group-coextension`` through the ``cogalois`` suite, each over Q and over
GF(7), then S4 ``group-algebra`` through the ``structures`` suite over Q, and
S4 ``trivial-coaction`` through the ``galois`` suite over Q: k[S4] coacting on
itself by a |-> a (x) 1, built here by formula, whose coinvariants are all
of A (B = A); last, S4 x Z2 ``trivial-hopf-galois`` through ``galois`` and
S4 x Z2 ``group-coextension`` through ``cogalois``, both over GF(7).  The
dimension-48 reports are about 180 MB each.
``--one K`` runs input K alone, numbered from 0 in that order.  Prints one
JSON line per input with the seconds taken by ``run_suite`` and by the JSON
report, the report's size and sha256, the child's peak ``ru_maxrss`` in MB
after the checks (``checks_maxrss_mb``, before the report is written) and
after the report (``ru_maxrss_mb``), and the verdict.
Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time
from itertools import permutations

INPUTS = (
    ("S4", "trivial-hopf-galois", "galois", None),
    ("S4", "trivial-hopf-galois", "galois", 7),
    ("S4", "group-coextension", "cogalois", None),
    ("S4", "group-coextension", "cogalois", 7),
    ("S4", "group-algebra", "structures", None),
    ("S4", "trivial-coaction", "galois", None),
    ("S4 x Z2", "trivial-hopf-galois", "galois", 7),
    ("S4 x Z2", "group-coextension", "cogalois", 7),
)


def s4_table() -> tuple[tuple[int, ...], ...]:
    """The Cayley table of S4 with the identity first: entry (i, j) is the
    index of the composite permutation perms[i] . perms[j]."""
    perms = list(permutations(range(4)))
    index = {p: k for k, p in enumerate(perms)}
    return tuple(tuple(index[tuple(p[q[i]] for i in range(4))] for q in perms) for p in perms)


def s4_z2_table() -> tuple[tuple[int, ...], ...]:
    """The Cayley table of S4 x Z2 with the identity first: element 2k + e
    is (perms[k], e), and the product of (s, e) and (t, f) is (s . t, e + f)."""
    s4 = s4_table()
    return tuple(
        tuple(2 * s4[i // 2][j // 2] + (i + j) % 2 for j in range(2 * len(s4))) for i in range(2 * len(s4))
    )


TABLES = {"S4": s4_table, "S4 x Z2": s4_z2_table}


def _example(name: str, params: dict):
    """The catalogue instance ``name``, or ``trivial-coaction``: the group
    algebra coacting on itself by a |-> a (x) 1, an algebra map that is not
    Galois."""
    from entwine.catalogue import ExampleSpec, build, group_algebra
    from entwine.exactlin import Matrix
    from entwine.structures import ComoduleAlgebra

    if name != "trivial-coaction":
        return build(name, params)
    h = group_algebra(params)
    n = h.dim
    coaction = Matrix.from_triples(n * n, n, ((a * n, a, 1) for a in range(n)), h.field)
    structures = {"hopf": h, "comodule_algebra": ComoduleAlgebra(h.algebra, h.coalgebra, coaction)}
    return ExampleSpec(name, (), h.field, structures)


def _maxrss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def run_one(k: int) -> dict:
    from entwine.docformat import document_from_example
    from entwine.suites import run_suite

    group, name, suite, p = INPUTS[k]
    params = {"table": TABLES[group]()}
    if p is not None:
        params["p"] = p
    doc = document_from_example(_example(name, params))
    start = time.perf_counter()
    report = run_suite(doc, suite)
    checked = time.perf_counter()
    checks_maxrss = _maxrss_mb()
    text = report.to_json()
    done = time.perf_counter()
    return {
        "input": f"{group} {name}",
        "suite": suite,
        "field": "Q" if p is None else f"GF({p})",
        "seconds": round(checked - start, 3),
        "report_seconds": round(done - checked, 3),
        "report_bytes": len(text.encode("utf-8")),
        "report_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "checks_maxrss_mb": checks_maxrss,
        "ru_maxrss_mb": _maxrss_mb(),
        "verdict": "pass" if report.ok else "fail",
    }


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--one":
        print(json.dumps(run_one(int(argv[1]))))
        return 0
    if argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = 0
    for k in range(len(INPUTS)):
        child = subprocess.run([sys.executable, __file__, "--one", str(k)], capture_output=True, text=True)
        if child.returncode != 0:
            print(child.stderr, file=sys.stderr, end="")
            status = 1
            continue
        print(child.stdout.strip(), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
