"""Spans around the public functions of each entwine module, from outside.

``Tracer.install`` rebinds every ``entwine.*`` module attribute that *is* one
of the traced functions (``from .exactlin import kernel`` gives each importing
module its own binding, so they are found by identity) and three class
attributes; ``Tracer.uninstall`` restores every binding.  Nothing under
``src/`` changes.

Each span records its name, start, end, parent span and the check it ran
under.  Self time is a span's duration minus the time covered by its child
spans, taken from the span stack, so nested calls such as
``try_invert -> kernel -> from_spanning`` are counted once.  Extra
measurements (matrix cells, zero entries, bytes) are taken outside every
span's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute).  A dotted attribute is a class attribute.
TARGETS = (
    ("exactlin.matmul", "entwine.exactlin", "Matrix.__matmul__"),
    ("exactlin.kron", "entwine.exactlin", "kron"),
    ("exactlin.kernel", "entwine.exactlin", "kernel"),
    ("exactlin.image", "entwine.exactlin", "image"),
    ("exactlin.try_invert", "entwine.exactlin", "try_invert"),
    ("exactlin.intersect", "entwine.exactlin", "intersect"),
    ("exactlin.from_spanning", "entwine.exactlin", "Subspace.from_spanning"),
    ("exactlin.quotient", "entwine.exactlin", "quotient"),
    ("exactlin.tensor_permutation", "entwine.exactlin", "tensor_permutation"),
    ("exactlin.middle_linear_system", "entwine.exactlin", "middle_linear_system"),
    ("structures.validate_algebra", "entwine.structures", "validate_algebra"),
    ("structures.validate_coalgebra", "entwine.structures", "validate_coalgebra"),
    ("structures.validate_hopf", "entwine.structures", "validate_hopf"),
    ("structures.validate_comodule", "entwine.structures", "validate_comodule"),
    ("structures.validate_module", "entwine.structures", "validate_module"),
    ("entwining.validate_entwining", "entwine.entwining", "validate_entwining"),
    ("entwining.psi_to_structure_maps", "entwine.entwining", "psi_to_structure_maps"),
    ("entwining.validate_structure_maps", "entwine.entwining", "validate_structure_maps"),
    ("entwining.structure_maps_to_psi", "entwine.entwining", "structure_maps_to_psi"),
    ("galois.galois_check", "entwine.galois", "galois_check"),
    ("galois.coinvariants", "entwine.galois", "coinvariants"),
    ("galois.balanced_tensor", "entwine.galois", "balanced_tensor"),
    ("galois.entwining_uniqueness", "entwine.galois", "entwining_uniqueness"),
    ("galois.differential_sequence", "entwine.galois", "differential_sequence"),
    ("galois.classical_coinvariants_agree", "entwine.galois", "classical_coinvariants_agree"),
    ("galois.left_canonical_check", "entwine.galois", "left_canonical_check"),
    ("galois.bundle_check", "entwine.galois", "bundle_check"),
    ("galois.bundle_coaction_equivalence", "entwine.galois", "bundle_coaction_equivalence"),
    ("cogalois.coextension_check", "entwine.cogalois", "coextension_check"),
    ("cogalois.dual_uniqueness", "entwine.cogalois", "dual_uniqueness"),
    ("cogalois.hopf_coideal", "entwine.cogalois", "hopf_coideal"),
    ("cogalois.coideal_checks", "entwine.cogalois", "coideal_checks"),
    ("cogalois.dual_bundle_check", "entwine.cogalois", "dual_bundle_check"),
    ("cogalois.dual_bundle_action_equivalence", "entwine.cogalois", "dual_bundle_action_equivalence"),
    ("cogenerate.cogeneration_check", "entwine.cogenerate", "cogeneration_check"),
    ("cogenerate.coinvariant_intersection_check", "entwine.cogenerate", "coinvariant_intersection_check"),
    ("suites.run_structures", "entwine.suites", "run_structures"),
    ("suites.run_entwining", "entwine.suites", "run_entwining"),
    ("suites.run_galois", "entwine.suites", "run_galois"),
    ("suites.run_cogalois", "entwine.suites", "run_cogalois"),
    ("suites.run_cogenerate", "entwine.suites", "run_cogenerate"),
    ("docformat.parse_document", "entwine.docformat", "parse_document"),
    ("reports.to_json", "entwine.reports", "SuiteReport.to_json"),
    ("cli.main", "entwine.cli", "main"),
)

# Spans whose largest matrix is recorded; the two whose zero outputs are counted.
CELLS = {name for name, module, _ in TARGETS if module == "entwine.exactlin"}
ZEROS = {"exactlin.matmul", "exactlin.kron"}
# Spans whose calls per check are reported: the functions that build certificates.
PER_CHECK = {
    "galois.galois_check",
    "galois.coinvariants",
    "cogalois.coextension_check",
    "cogenerate.cogeneration_check",
}


def _cells(value) -> int:
    """rows x cols of a matrix-like value (matrix, subspace basis, quotient)."""
    rows = getattr(value, "rows", None)
    if isinstance(rows, int):
        return rows * value.cols
    basis = getattr(value, "basis", None)
    if isinstance(basis, tuple):
        return len(basis) * value.ambient_dim
    projection = getattr(value, "projection", None)
    if projection is not None:
        return _cells(projection) + _cells(value.section)
    return 0


_RAISED = object()


def _measure(name: str, stat: "Stat", args, result):
    if name in CELLS:
        if name == "exactlin.from_spanning":
            cells = len(args[0]) * args[1] if len(args) > 1 else 0
        else:
            cells = max([_cells(a) for a in args] + [0])
        stat.max_cells = max(stat.max_cells, cells, _cells(result))
        if name in ZEROS:
            for row in result.entries:
                stat.cells += len(row)
                stat.zeros += len(row) - len(list(filter(None, row)))
    elif name == "docformat.parse_document":
        stat.bytes += len(args[0].encode("utf-8"))
    elif name == "reports.to_json":
        stat.bytes += len(result.encode("utf-8"))


class Stat:
    __slots__ = ("calls", "self_s", "max_cells", "cells", "zeros", "bytes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.max_cells = 0
        self.cells = 0
        self.zeros = 0
        self.bytes = 0


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, check id)
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.calls_by_check: Counter = Counter()  # (span name, check id) -> calls
        self.check_id: str | None = None
        self._stack: list[list] = []  # [span index, time covered by children]
        self._saved: list = []  # (owner, attribute, original value)

    # -- installing and restoring bindings

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "entwine" or n.startswith("entwine.")]
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(member)
                if raw is None:
                    continue  # the program no longer has this function
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._saved.append((cls, member, raw))
                setattr(cls, member, wrapped)
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    # -- recording

    def _wrap(self, name, fn):
        spans, stack, stats, by_check = self.spans, self._stack, self.stats, self.calls_by_check
        clock = time.perf_counter
        tracer = self
        materialize = name == "exactlin.from_spanning"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialize and args and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.check_id)
                stat = stats[name]
                stat.calls += 1
                stat.self_s += (end - start) - frame[1]
                by_check[name, tracer.check_id] += 1
                if result is not _RAISED:
                    _measure(name, stat, args, result)
                if stack:
                    # the parent's self time excludes this span and its measurement
                    stack[-1][1] += clock() - start
            return result

        return wrapper
