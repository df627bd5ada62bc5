"""Command-line front end.

    entwine check FILE --suite NAME [--report json|text] [--cutoff N]
    entwine example NAME [--param key=value ...] [--emit PATH]

``--cutoff`` is the fixed-point step budget of the cogenerate suite, one
step per chain length (default dim C + 1, within which the fixed point is
always reached); no other suite takes a cutoff.

The argparse parser is built once per process, on the first call of
``main``, and reused by every later call.  It holds only the command-line
grammar, nothing derived from a document or an earlier call's arguments, so
every check is served exactly as in a fresh process.

Exit codes: 0 every check passed, 1 at least one check failed, 2 input error
(malformed document, missing section, unknown example or suite, a prime
modulus too large for exact primality testing, a document too large to check
or report in the memory available).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .catalogue import EXAMPLE_NAMES, build
from .docformat import document_from_example, document_to_text, parse_document
from .errors import BadParams, EntwineError, InvalidDocument, UnknownExample
from .suites import SUITES, run_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entwine",
        description="Exact verification of Galois-type coalgebra extensions and coextensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a verification suite over a structure document")
    check.add_argument("file", help="path to a JSON structure document")
    check.add_argument("--suite", default="all", choices=SUITES, help="which battery to run")
    check.add_argument("--report", default="text", choices=("json", "text"), help="report format")
    check.add_argument("--cutoff", type=int, default=None, help="fixed-point step budget for cogeneration")

    example = sub.add_parser("example", help="emit a built-in example as a structure document")
    example.add_argument("name", help=f"one of {', '.join(EXAMPLE_NAMES)}")
    example.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="example parameter, e.g. --param group=S3 (repeatable)",
    )
    example.add_argument("--emit", metavar="PATH", default=None, help="write the document here instead of stdout")
    return parser


def _parse_params(pairs):
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise BadParams(f"parameter {pair!r} is not KEY=VALUE")
        key, value = pair.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _cmd_check(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        doc = parse_document(text)
        report = run_suite(doc, args.suite, args.cutoff)
        out = report.to_json() if args.report == "json" else report.render_text()
    except InvalidDocument as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_INPUT
    except EntwineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: MemoryError: not enough memory to check and report this document", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(out)
    return EXIT_PASS if report.ok else EXIT_FAIL


def _cmd_example(args) -> int:
    try:
        params = _parse_params(args.param)
        example = build(args.name, params)
        text = document_to_text(document_from_example(example))
    except (UnknownExample, BadParams) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.emit:
        try:
            with open(args.emit, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.emit}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "example":
        return _cmd_example(args)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
