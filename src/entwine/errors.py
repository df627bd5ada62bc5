"""Exception taxonomy shared by every module."""

from __future__ import annotations


class EntwineError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(EntwineError):
    pass


class FieldMismatch(EntwineError):
    pass


class NotInvertibleError(EntwineError):
    pass


class AxiomViolation(EntwineError):
    """A validated precondition does not hold for the supplied structure."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InternalCheckError(EntwineError):
    """An invariant the theory guarantees failed; indicates a library bug."""


class IllDefined(InternalCheckError):
    """A map did not vanish on balancing relations before descending."""


class NotSubalgebra(EntwineError):
    pass


class NotCoideal(EntwineError):
    pass


class NotGroupLike(EntwineError):
    pass


class NotCharacter(EntwineError):
    pass


class NotGalois(EntwineError):
    pass


class NotGaloisCoextension(EntwineError):
    pass


class UnknownExample(EntwineError):
    pass


class BadParams(EntwineError):
    pass


class DocumentError(EntwineError):
    """Input document problem, located by a JSON-ish path."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class SchemaError(DocumentError):
    pass


class InvalidDocument(EntwineError):
    """Carries every positioned problem found while parsing a document."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(str(p) for p in self.problems))


class FieldParseError(DocumentError):
    pass


class MissingSection(DocumentError):
    def __init__(self, section, suite):
        super().__init__(section, f"suite '{suite}' requires this section")
        self.section = section
        self.suite = suite
