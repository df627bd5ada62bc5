import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import comult_matrix_from_tensor, mult_matrix_from_tensor, read_sparse_by_triples
from entwine.catalogue import EXAMPLE_NAMES, build
from entwine.docformat import (
    _Reader,
    document_from_example,
    document_to_text,
    parse_document,
)
from entwine.errors import FieldParseError, InvalidDocument, SchemaError
from entwine.exactlin import Matrix
from entwine.fields import GF, QQ
from entwine.structures import dualize


def emit_example(name, params=None):
    return document_to_text(document_from_example(build(name, params)))


class TestRoundTrips:
    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_emit_parse_emit_is_byte_identical(self, name):
        text = emit_example(name)
        assert document_to_text(parse_document(text)) == text

    def test_parse_recovers_structures(self, z2_hopf):
        doc = parse_document(emit_example("trivial-hopf-galois"))
        assert doc.algebra == z2_hopf.algebra
        assert doc.coalgebra == z2_hopf.coalgebra
        assert doc.hopf == z2_hopf
        assert doc.comodule_algebra is not None

    def test_prime_field_document(self):
        text = emit_example("group-algebra", {"group": "Z3", "p": 7})
        doc = parse_document(text)
        assert doc.field == GF(7)
        assert document_to_text(doc) == text

    def test_sorted_keys_and_trailing_newline(self):
        text = emit_example("sweedler-h4")
        assert text.endswith("\n")
        obj = json.loads(text)
        assert list(obj) == sorted(obj)


class TestParseErrors:
    def test_not_json(self):
        with pytest.raises(InvalidDocument) as err:
            parse_document("not json at all {")
        assert any(isinstance(p, SchemaError) for p in err.value.problems)

    def test_zero_denominator_is_positioned(self):
        text = json.dumps(
            {
                "field": {"kind": "rational"},
                "spaces": {"A": {"dim": 1}},
                "algebra": {"space": "A", "mult": [{"i": 0, "j": 0, "k": 0, "c": "1/0"}], "unit": ["1"]},
            }
        )
        with pytest.raises(InvalidDocument) as err:
            parse_document(text)
        problems = err.value.problems
        assert any(isinstance(p, FieldParseError) and p.path == "algebra.mult[0].c" for p in problems)

    def test_out_of_range_index_is_schema_error(self):
        text = json.dumps(
            {
                "field": {"kind": "rational"},
                "spaces": {"A": {"dim": 2}},
                "algebra": {"space": "A", "mult": [{"i": 0, "j": 0, "k": 5, "c": "1"}], "unit": ["1", "0"]},
            }
        )
        with pytest.raises(InvalidDocument) as err:
            parse_document(text)
        assert any(p.path == "algebra.mult[0].k" for p in err.value.problems)

    def test_unknown_space_reference(self):
        text = json.dumps(
            {
                "field": {"kind": "rational"},
                "spaces": {"A": {"dim": 1}},
                "algebra": {"space": "B", "mult": [], "unit": []},
            }
        )
        with pytest.raises(InvalidDocument) as err:
            parse_document(text)
        assert any(p.path == "algebra.space" for p in err.value.problems)

    def test_unknown_section(self):
        with pytest.raises(InvalidDocument):
            parse_document(json.dumps({"field": {"kind": "rational"}, "spaces": {}, "bogus": 1}))

    def test_bad_field_kind(self):
        with pytest.raises(InvalidDocument) as err:
            parse_document(json.dumps({"field": {"kind": "real"}, "spaces": {}}))
        assert any(p.path == "field.kind" for p in err.value.problems)

    def test_non_prime_modulus(self):
        with pytest.raises(InvalidDocument) as err:
            parse_document(json.dumps({"field": {"kind": "prime", "p": 6}, "spaces": {}}))
        assert any(p.path == "field.p" for p in err.value.problems)

    def test_multiple_problems_collected(self):
        text = json.dumps(
            {
                "field": {"kind": "rational"},
                "spaces": {"A": {"dim": 1}},
                "algebra": {
                    "space": "A",
                    "mult": [{"i": 0, "j": 0, "k": 0, "c": "x"}, {"i": 3, "j": 0, "k": 0, "c": "1"}],
                    "unit": ["1"],
                },
            }
        )
        with pytest.raises(InvalidDocument) as err:
            parse_document(text)
        assert len(err.value.problems) >= 2

    def test_prime_field_rejects_string_coefficients(self):
        text = json.dumps(
            {
                "field": {"kind": "prime", "p": 5},
                "spaces": {"A": {"dim": 1}},
                "algebra": {"space": "A", "mult": [{"i": 0, "j": 0, "k": 0, "c": "2"}], "unit": [1]},
            }
        )
        with pytest.raises(InvalidDocument):
            parse_document(text)

    def test_wrong_vector_length(self):
        text = json.dumps(
            {
                "field": {"kind": "rational"},
                "spaces": {"A": {"dim": 2}},
                "algebra": {"space": "A", "mult": [], "unit": ["1"]},
            }
        )
        with pytest.raises(InvalidDocument) as err:
            parse_document(text)
        assert any(p.path == "algebra.unit" for p in err.value.problems)


    def test_problem_list_of_a_mixed_document_is_pinned(self):
        # valid entries interleaved with each malformed kind; the problems,
        # their order, paths and messages are part of the format's contract
        doc = {
            "field": {"kind": "rational"},
            "spaces": {"H": {"dim": 2}},
            "algebra": {
                "space": "H",
                "mult": [
                    {"i": 0, "j": 0, "k": 0, "c": "1"},
                    {"i": True, "j": 0, "k": 0, "c": "1"},
                    {"i": 0, "j": 2, "k": 0, "c": "1"},
                    "entry",
                    {"i": 1, "j": 1, "k": 0, "c": "-1/2"},
                ],
                "unit": ["1", "1/x"],
            },
            "coalgebra": {"space": "H", "comult": [{"i": 0, "j": 0, "k": 0, "c": 1}], "counit": ["1", "0"]},
            "antipode": {
                "space": "H",
                "entries": [
                    {"i": 0, "j": 0, "c": "1"},
                    {"i": 1, "c": "1"},
                    {"i": 1, "j": 1},
                    {"i": 0, "j": 1, "c": "2/0"},
                ],
            },
            "coaction": {
                "space": "H",
                "coalgebra": "H",
                "entries": [
                    {"i": 0, "j": 0, "c": "1"},
                    {"i": 0, "j": 1, "k": 0, "c": "1"},
                    {"i": 0, "j": False, "c": "1"},
                    {"i": 4, "j": 0, "c": "1"},
                    {"i": 1, "j": 1, "c": "1.5"},
                    [0, 0, 1],
                    {"j": 0, "c": "1"},
                    {"i": 3, "j": 1, "c": 2},
                ],
            },
        }
        with pytest.raises(InvalidDocument) as err:
            parse_document(json.dumps(doc))
        assert [(type(p), p.path, p.reason) for p in err.value.problems] == [
            (SchemaError, "algebra.mult[1].i", "expected an index in 0..1, got True"),
            (SchemaError, "algebra.mult[2].j", "expected an index in 0..1, got 2"),
            (SchemaError, "algebra.mult[3]", "expected an object, got str"),
            (FieldParseError, "algebra.unit[1]", "malformed rational coefficient '1/x': expected an integer or n/d"),
            (SchemaError, "antipode.entries[1]", "missing index 'j'"),
            (SchemaError, "antipode.entries[2]", "missing coefficient 'c'"),
            (FieldParseError, "antipode.entries[3].c", "malformed rational coefficient '2/0': Fraction(2, 0)"),
            (SchemaError, "coaction.entries[1]", "unknown keys ['k']"),
            (SchemaError, "coaction.entries[2].j", "expected an index in 0..1, got False"),
            (SchemaError, "coaction.entries[3].i", "expected an index in 0..3, got 4"),
            (FieldParseError, "coaction.entries[4].c", "malformed rational coefficient '1.5': expected an integer or n/d"),
            (SchemaError, "coaction.entries[5]", "expected an object, got list"),
            (SchemaError, "coaction.entries[6]", "missing index 'i'"),
        ]


class TestDocumentShape:
    def test_coideals_and_grouplikes_present(self):
        doc = parse_document(emit_example("coset-coideal", {"group": "S3"}))
        assert len(doc.coideals) == 2
        subs = doc.coideal_subspaces()
        assert subs[0].dim == 3 and subs[1].dim == 4
        assert doc.comodule_algebra is not None

    def test_flip_entwining_document(self):
        doc = parse_document(emit_example("flip-entwining"))
        assert doc.psi is not None
        assert doc.entwining is not None

    def test_quadratic_has_two_spaces(self):
        doc = parse_document(emit_example("quadratic-field-extension"))
        assert set(doc.spaces) == {"A", "C"}
        assert doc.algebra_space == "A" and doc.coalgebra_space == "C"


def _coefficients(field):
    """Document coefficients with explicit zeros and, over GF(7), c = p."""
    if field.is_prime_field:
        return st.sampled_from([0, 1, 3, 6, 7, 8, 14, -1])
    return st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "0/5", 0, 5])


@st.composite
def sparse_documents(draw):
    """A document on one space H whose every section is a random sparse list,
    with duplicated cells, explicit zeros and coefficients equal to p."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    n = draw(st.integers(1, 3))
    coeff = _coefficients(field)
    index = st.integers(0, n - 1)

    def quadruples():
        return draw(st.lists(st.tuples(index, index, index, coeff), max_size=3 * n * n))

    def triples(rows, cols):
        return draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), coeff), max_size=2 * n * n))

    sections = {
        "mult": quadruples(),
        "comult": quadruples(),
        "antipode": triples(n, n),
        "coaction": triples(n * n, n),
        "action": triples(n, n * n),
        "psi": triples(n * n, n * n),
    }
    vector = [draw(coeff) for _ in range(n)]

    def listed(name):
        return [dict(zip("ijkc" if name.endswith("mult") else "ijc", entry)) for entry in sections[name]]

    obj = {
        "field": {"kind": "prime", "p": 7} if field.is_prime_field else {"kind": "rational"},
        "spaces": {"H": {"dim": n}},
        "algebra": {"space": "H", "unit": vector, "mult": listed("mult")},
        "coalgebra": {"space": "H", "counit": vector, "comult": listed("comult")},
        "antipode": {"space": "H", "entries": listed("antipode")},
        "coaction": {"space": "H", "coalgebra": "H", "entries": listed("coaction")},
        "action": {"space": "H", "algebra": "H", "entries": listed("action")},
        "psi": {"algebra": "H", "coalgebra": "H", "entries": listed("psi")},
    }
    return field, n, sections, json.dumps(obj)


def _dense_tensor(field, n, quadruples):
    tensor = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in quadruples:
        tensor[i][j][k] = field.parse(c)
    return tensor


def _dense_matrix(field, rows, cols, triples):
    ent = [[field.zero] * cols for _ in range(rows)]
    for i, j, c in triples:
        ent[i][j] = field.parse(c)
    return Matrix(rows, cols, tuple(tuple(r) for r in ent), field)


class TestSparseParsing:
    @settings(max_examples=60, deadline=None)
    @given(sparse_documents())
    def test_parsed_matrices_match_the_dense_oracle(self, drawn):
        field, n, sections, text = drawn
        doc = parse_document(text)
        # the last entry for a cell wins, and zeros stay out of the index
        assert doc.algebra.mult_matrix == mult_matrix_from_tensor(_dense_tensor(field, n, sections["mult"]), field)
        assert doc.coalgebra.comult_matrix == comult_matrix_from_tensor(
            _dense_tensor(field, n, sections["comult"]), field
        )
        assert doc.antipode == _dense_matrix(field, n, n, sections["antipode"])
        assert doc.coaction == _dense_matrix(field, n * n, n, sections["coaction"])
        assert doc.action == _dense_matrix(field, n, n * n, sections["action"])
        assert doc.psi == _dense_matrix(field, n * n, n * n, sections["psi"])

        text2 = document_to_text(doc)
        again = parse_document(text2)
        assert (again.algebra, again.coalgebra) == (doc.algebra, doc.coalgebra)
        assert hash(again.algebra) == hash(doc.algebra) and hash(again.coalgebra) == hash(doc.coalgebra)
        for name in ("antipode", "coaction", "action", "psi"):
            assert getattr(again, name) == getattr(doc, name)
        assert document_to_text(again) == text2

        assert dualize(dualize(doc.algebra)).mult_matrix == doc.algebra.mult_matrix
        assert dualize(dualize(doc.coalgebra)).comult_matrix == doc.coalgebra.comult_matrix

    @staticmethod
    def _one_term_document(dim, extra_terms=()):
        terms = [{"i": 0, "j": 0, "k": 0, "c": "1"}, *extra_terms]
        basis_vector = ["1"] + ["0"] * (dim - 1)
        return json.dumps(
            {
                "field": {"kind": "rational"},
                "spaces": {"H": {"dim": dim}},
                "algebra": {"space": "H", "mult": terms, "unit": basis_vector},
                "coalgebra": {"space": "H", "comult": terms, "counit": basis_vector},
            }
        )

    def test_parse_allocates_no_dim_cubed_cells(self):
        text = self._one_term_document(200)
        tracemalloc.start()
        try:
            doc = parse_document(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 200^3 cells are 8 million pointers, 64 MB, before any scalar
        assert peak < 4 * 2**20
        assert doc.algebra.mult_matrix.nonzeros[0] == ((0, QQ.one),)
        assert doc.coalgebra.comult_matrix.nonzeros[0] == ((0, QQ.one),)

    def test_explicit_zero_term_equals_an_omitted_one(self):
        zero_terms = [{"i": 1, "j": 2, "k": 3, "c": "0"}, {"i": 3, "j": 3, "k": 3, "c": "-0/7"}]
        with_zeros = parse_document(self._one_term_document(4, zero_terms))
        without = parse_document(self._one_term_document(4))
        assert with_zeros.algebra == without.algebra and with_zeros.coalgebra == without.coalgebra
        assert document_to_text(with_zeros) == document_to_text(without)


def _problems(reader):
    return [(type(p), p.path, p.reason) for p in reader.problems]


def _read_both(field, entries, dims, shape=None, at=None):
    """The matrices and problem lists of the one-pass reader and of the
    reader it replaced, on one sparse section."""
    new, old = _Reader({}), _Reader({})
    got = new.sparse_matrix(field, entries, "s", dims, shape, at)
    want = read_sparse_by_triples(old, field, entries, "s", dims, shape, at)
    return got, want, _problems(new), _problems(old)


def _mult_cell(i, j, k):
    return (k, i * 2 + j)


# (case, entries of a section with 2 or 3 indices over a 2 x 2 x 2 or a
# 3 x 2 shape, the problems it must have)
_SECTIONS = [
    ("well formed", [{"i": 0, "j": 1, "k": 1, "c": 3}, {"i": 1, "j": 1, "k": 0, "c": 1}], 0),
    ("non-dict entry", [{"i": 0, "j": 0, "k": 0, "c": 1}, "entry", [0, 0, 0, 1], None, 5], 4),
    ("unknown key", [{"i": 0, "j": 0, "k": 0, "c": 1, "x": 2}, {"i": 0, "j": 0, "c": 1, "l": 0}], 2),
    ("missing index", [{"j": 0, "k": 0, "c": 1}, {"i": 0, "k": 1, "c": 1}, {"c": 1}], 3),
    ("bool index", [{"i": True, "j": 0, "k": 0, "c": 1}, {"i": 0, "j": False, "k": 0, "c": 1}], 2),
    ("out-of-range index", [{"i": 3, "j": 0, "k": 0, "c": 1}, {"i": 0, "j": -1, "k": 0, "c": 1}], 2),
    ("non-int index", [{"i": 1.0, "j": 0, "k": 0, "c": 1}, {"i": "0", "j": 0, "k": 0, "c": 1}], 2),
    ("missing c", [{"i": 0, "j": 0, "k": 0}, {"i": 1, "j": 1, "k": 1, "c": 2}], 1),
    ("malformed coefficient", [{"i": 0, "j": 0, "k": 0, "c": "1/x"}, {"i": 1, "j": 0, "k": 0, "c": 1.5}], 2),
    ("repeated cell", [{"i": 1, "j": 0, "k": 1, "c": 2}, {"i": 1, "j": 0, "k": 1, "c": 5}], 0),
    ("zero value", [{"i": 0, "j": 1, "k": 0, "c": 0}, {"i": 1, "j": 1, "k": 1, "c": 4}, {"i": 1, "j": 1, "k": 1, "c": 0}], 0),
    ("earlier problems first", [{"i": 0, "j": 9, "k": 0, "x": 1}, {"i": True, "c": 1}, {"i": 0, "j": 9, "k": 0}], 3),
]


class TestOnePassReader:
    """sparse_matrix against the reader it replaced, read_sparse_by_triples
    in dense_oracles: the same matrix and the same problems, in order."""

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
    @pytest.mark.parametrize("case, entries, problems", _SECTIONS, ids=[case for case, _, _ in _SECTIONS])
    def test_sections_match_the_replaced_reader(self, field, case, entries, problems):
        got, want, new, old = _read_both(field, entries, (2, 2, 2), (2, 4), _mult_cell)
        assert got == want and new == old
        assert len(new) == problems
        # the same entries without "k", as a 3 x 2 matrix section
        flat = [{key: v for key, v in e.items() if key != "k"} if isinstance(e, dict) else e for e in entries]
        got, want, new, old = _read_both(field, flat, (3, 2))
        assert got == want and new == old

    def test_the_later_entry_for_a_cell_wins(self):
        sections = {case: entries for case, entries, _ in _SECTIONS}
        got, _, _, _ = _read_both(QQ, sections["repeated cell"], (2, 2, 2), (2, 4), _mult_cell)
        assert got.nonzeros == ((), ((2, 5),))
        got, _, _, _ = _read_both(QQ, sections["zero value"], (2, 2, 2), (2, 4), _mult_cell)
        assert got.nonzeros == ((), ())

    def test_a_section_that_is_not_a_list(self):
        got, want, new, old = _read_both(QQ, {"i": 0}, (2, 2))
        assert got == want == Matrix.zero(2, 2, QQ) and new == old == [(SchemaError, "s", "expected a list, got dict")]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_sections_match_the_replaced_reader(self, data):
        field = data.draw(st.sampled_from([QQ, GF(7), GF(2)]))
        three = data.draw(st.booleans())
        d = data.draw(st.integers(1, 3))
        keys = "ijkc" if three else "ijc"
        index = st.one_of(st.integers(-1, d), st.booleans(), st.just(1.0), st.just("0"))
        value = st.one_of(
            st.integers(-8, 8), st.sampled_from(["0", "1", "-1", "2/3", "1/0", "x", "1.5"]), st.booleans(), st.none()
        )
        good = st.fixed_dictionaries({key: st.integers(0, d - 1) for key in keys[:-1]} | {"c": value})
        messy = st.dictionaries(st.sampled_from([*keys, "x"]), st.one_of(index, value), max_size=5)
        entries = data.draw(st.lists(st.one_of(good, good, messy, st.integers(), st.lists(st.integers(), max_size=2)), max_size=12))
        if three:
            got, want, new, old = _read_both(field, entries, (d, d, d), (d * d, d), lambda i, j, k: (j * d + k, i))
        else:
            got, want, new, old = _read_both(field, entries, (d + 1, d))
        assert got == want and new == old
        assert got.nonzeros == tuple(tuple(sorted(row)) for row in got.nonzeros)


def _with_item(example, params, key, entries):
    obj = json.loads(emit_example(example, params))
    obj[key] = [{**obj[key][0], **entry} for entry in entries]
    return json.dumps(obj)


class TestItemNames:
    """The names of group-likes, characters and coideals name their checks:
    each is a string, and no two items of one section share one."""

    @pytest.mark.parametrize(
        "example, params, key",
        [
            ("trivial-hopf-galois", {"group": "Z2"}, "grouplikes"),
            ("group-coextension", {"group": "Z2"}, "characters"),
            ("coset-coideal", {"group": "S3"}, "coideals"),
        ],
    )
    def test_non_string_and_repeated_names_are_refused(self, example, params, key):
        text = _with_item(example, params, key, [{"name": {"x": [1, 2]}}, {"name": 7}, {"name": "a"}, {"name": "a"}])
        with pytest.raises(InvalidDocument) as err:
            parse_document(text)
        assert _problems(err.value) == [
            (SchemaError, f"{key}[0].name", "expected a string, got dict"),
            (SchemaError, f"{key}[1].name", "expected a string, got int"),
            (SchemaError, f"{key}[3].name", "repeated name 'a'"),
        ]

    def test_a_default_name_counts(self):
        obj = json.loads(_with_item("coset-coideal", {"group": "S3"}, "coideals", [{}, {"name": "I1"}]))
        del obj["coideals"][0]["name"]  # the first coideal is named I1 by default
        with pytest.raises(InvalidDocument) as err:
            parse_document(json.dumps(obj))
        assert _problems(err.value) == [(SchemaError, "coideals[1].name", "repeated name 'I1'")]

    def test_distinct_string_names_are_kept(self):
        doc = parse_document(_with_item("coset-coideal", {"group": "S3"}, "coideals", [{"name": "x"}, {"name": "y"}]))
        assert [name for name, _ in doc.coideals] == ["x", "y"]
