"""The canonical rational scalar: an ``int`` when integral, a lowest-terms
``Fraction`` with denominator > 1 otherwise.  Field operations return it,
elimination keeps pivot rows in it, and every catalogue document over Q
parses to integer structure constants."""

from fractions import Fraction

import pytest

from entwine.catalogue import EXAMPLE_NAMES, build
from entwine.docformat import document_from_example, document_to_text, parse_document
from entwine.exactlin import Subspace, _echelon, kernel
from entwine.fields import GF, PRIME, QQ, FieldSpec
from support import verify_catalogue_script


def assert_canonical(x, value):
    """x is the canonical rational scalar equal to value."""
    assert x == value
    if Fraction(value).denominator == 1:
        assert type(x) is int
    else:
        assert type(x) is Fraction and x.denominator > 1


class TestCanonicalScalars:
    def test_zero_and_one_are_ints(self):
        for field in (QQ, GF(7)):
            assert type(field.zero) is int and field.zero == 0
            assert type(field.one) is int and field.one == 1

    @pytest.mark.parametrize(
        "value, expected",
        [
            (3, 3),
            (-5, -5),
            (True, 1),
            (Fraction(4, 2), 2),
            (Fraction(0), 0),
            (Fraction(1, 3), Fraction(1, 3)),
            ("6/4", Fraction(3, 2)),
            ("-8/4", -2),
        ],
    )
    def test_coerce(self, value, expected):
        assert_canonical(QQ.coerce(value), expected)

    def test_coerce_returns_an_int_unchanged(self):
        big = 10**50 + 1
        assert QQ.coerce(big) is big

    @pytest.mark.parametrize(
        "raw, expected",
        [(7, 7), ("12", 12), ("-3", -3), ("1/3", Fraction(1, 3)), ("-6/4", Fraction(-3, 2)), ("9/3", 3)],
    )
    def test_parse(self, raw, expected):
        assert_canonical(QQ.parse(raw), expected)

    @pytest.mark.parametrize("raw", ["4/2", "-0", "007", "0/5", "-10/5"])
    def test_parse_keeps_the_value_and_its_report_string(self, raw):
        # Fraction(raw) is the value a document coefficient had as a Fraction
        x = QQ.parse(raw)
        assert x == Fraction(raw) and type(x) is int
        assert QQ.format(x) == str(Fraction(raw))

    @pytest.mark.parametrize(
        "a, expected",
        [
            (1, 1),
            (-1, -1),
            (2, Fraction(1, 2)),
            (-3, Fraction(-1, 3)),
            (Fraction(1, 2), 2),
            (Fraction(-2, 3), Fraction(-3, 2)),
        ],
    )
    def test_invert(self, a, expected):
        assert_canonical(QQ.invert(a), expected)

    def test_invert_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QQ.invert(0)

    def test_format_is_the_lowest_terms_string(self):
        assert [QQ.format(x) for x in (0, -4, Fraction(3, 6), Fraction(-7, 2))] == ["0", "-4", "1/2", "-7/2"]


class TestPivotScaling:
    def test_integral_quotients_are_ints(self):
        pivots, rows = _echelon([{0: 2, 1: 4}], 2, QQ)
        assert pivots == [0]
        assert rows == [{0: 1, 1: 2}]
        assert all(type(x) is int for x in rows[0].values())

    def test_non_integral_quotients_stay_fractions(self):
        _, rows = _echelon([{0: 2, 1: 3}], 2, QQ)
        assert_canonical(rows[0][0], 1)
        assert_canonical(rows[0][1], Fraction(3, 2))

    def test_subspace_basis_of_an_integer_span(self):
        s = Subspace.from_spanning([(2, 4, 0), (0, 3, 6)], 3, QQ)
        assert s.basis == ((1, 0, -4), (0, 1, 2))
        assert all(type(x) is int for row in s.basis for x in row)
        # the RREF basis of the annihilator, (4, -2, 1), is scaled by 1/4
        (row,) = kernel(s.inclusion().transpose()).basis
        for x, value in zip(row, (1, Fraction(-1, 2), Fraction(1, 4))):
            assert_canonical(x, value)


class TestModulus:
    @pytest.mark.parametrize("p", [7.0, 43.0, True, "7"])
    def test_a_modulus_that_is_not_an_int_is_refused(self, p):
        # 7.0 passes the trial division by 7, and 43.0 reaches pow()
        with pytest.raises(ValueError, match="field modulus must be an integer"):
            FieldSpec(PRIME, p)

    def test_an_int_modulus_is_accepted(self):
        assert FieldSpec(PRIME, 7) == GF(7)


def _variants():
    """(name, params) of every catalogue variant over Q that
    scripts/verify_catalogue.py checks."""
    variants = verify_catalogue_script().VARIANTS
    return [(name, params) for name in EXAMPLE_NAMES for params in variants[name] if "p" not in params]


@pytest.mark.parametrize("name, params", _variants())
def test_catalogue_documents_over_q_hold_only_ints(name, params):
    doc = parse_document(document_to_text(document_from_example(build(name, params))))
    assert doc.field == QQ
    a, c = doc.algebra, doc.coalgebra
    matrices = [a and a.mult_matrix, c and c.comult_matrix, doc.antipode, doc.coaction, doc.action, doc.psi]
    values = [x for m in matrices if m is not None for row in m.nonzeros for _, x in row]
    assert values
    vectors = [a.unit if a else (), c.counit if c else ()]
    vectors += [coords for _, coords in doc.grouplikes + doc.characters]
    vectors += [v for _, vs in doc.coideals for v in vs]
    values += [x for v in vectors for x in v]
    assert all(type(x) is int for x in values)
