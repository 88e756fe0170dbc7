import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rep_oracle import action
from ternalg import catalog, representations, schema
from ternalg.errors import InternalError, SchemaError
from ternalg.linalg import Matrix, Vec
from ternalg.schema import (
    document_to_obj,
    dumps,
    load_document,
    parse_document,
    parse_scalar,
    report_to_obj,
)
from ternalg.representations import BiRep, LinRep, RepBundle, check_representation
from ternalg.structures import check_axioms

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def roundtrip(obj):
    doc, _ = parse_document(dumps(obj))
    return doc


def test_roundtrip_structural_equality_all_catalog():
    for name in catalog.CATALOG_DOC:
        obj = catalog.catalog_document(name)
        doc = roundtrip(obj)
        again = document_to_obj(
            doc.bundle,
            rep=doc.rep,
            maps=doc.maps or None,
            form=doc.form,
        )
        assert again == obj, name


def test_serialize_parse_serialize_byte_identical():
    obj = catalog.catalog_document("fil4")
    text = dumps(obj)
    doc, _ = parse_document(text)
    text2 = dumps(document_to_obj(doc.bundle))
    assert text == text2


def test_zero_tensor_vs_absent_tensor():
    doc, _ = parse_document(
        json.dumps({"schema_version": 1, "dim": 2, "product": []})
    )
    assert doc.bundle.product is not None and doc.bundle.product.is_zero()
    assert doc.bundle.bracket is None


def test_int_and_string_scalars_accepted():
    doc, _ = parse_document(
        json.dumps(
            {
                "schema_version": 1,
                "dim": 2,
                "product": [
                    {"indices": [0, 0, 0], "value": 1},
                    {"indices": [0, 1, 1], "value": "1/2"},
                ],
            }
        )
    )
    b = doc.bundle
    from fractions import Fraction

    assert b.mul(b.basis(0), b.basis(1)) == Vec([0, Fraction(1, 2)])


def test_index_out_of_range_names_field():
    with pytest.raises(SchemaError, match=r"product\[0\].indices\[2\]"):
        parse_document(
            json.dumps(
                {
                    "schema_version": 1,
                    "dim": 2,
                    "product": [{"indices": [0, 0, 5], "value": 1}],
                }
            )
        )


def test_bad_rational_rejected():
    with pytest.raises(SchemaError, match="value"):
        parse_document(
            json.dumps(
                {
                    "schema_version": 1,
                    "dim": 2,
                    "product": [{"indices": [0, 0, 0], "value": "x/y"}],
                }
            )
        )
    with pytest.raises(SchemaError):
        parse_document(
            json.dumps(
                {
                    "schema_version": 1,
                    "dim": 2,
                    "product": [{"indices": [0, 0, 0], "value": 1.5}],
                }
            )
        )


def product_doc(value):
    return json.dumps({"schema_version": 1, "dim": 2,
                       "product": [{"indices": [0, 0, 0], "value": value}]})


@pytest.mark.parametrize("text", ["1e100000", "1e3", "1.5", ".5", "1/0", "-2/00", " 3",
                                  "1_000", "0x10", "inf", "nan", "3/-2", "1/2/3", "",
                                  "\u0663"])
def test_only_integer_and_fraction_strings_accepted(text):
    # "1e100000" would be a 100,001-digit integer; exponents are refused
    # before any digits are expanded
    with pytest.raises(SchemaError, match=r"product\[0\]\.value"):
        parse_document(product_doc(text))


@pytest.mark.parametrize("text, value", [("3", 3), ("+3", 3), ("-3/2", Fraction(-3, 2)),
                                         ("007", 7), ("10/4", Fraction(5, 2)), ("-0/5", 0)])
def test_integer_and_fraction_strings_parse(text, value):
    b = parse_document(product_doc(text))[0].bundle
    assert b.product[0, 0, 0] == value


@pytest.mark.parametrize("obj, field", [
    ({"schema_version": 1, "dim": 17, "product": []}, "dim"),
    ({"schema_version": 1, "dim": 2, "rep": {"module_dim": 17, "mu": []}}, "rep.module_dim"),
])
def test_dimension_cap_checked_before_tables_are_built(obj, field):
    with pytest.raises(SchemaError, match=rf"^{field}: 17 exceeds the dimension cap 16"):
        parse_document(json.dumps(obj))


KEYS = ["schema_version", "dim", "basis", "unit", "product", "bracket", "binary_bracket",
        "rep", "module_dim", "mu", "rho", "index", "indices", "value", "matrix", "maps",
        "name", "form"]
LEAVES = (st.none() | st.booleans() | st.integers(-2, 5) | st.floats()
          | st.sampled_from(["1", "-3/2", "1/0", "1e100000", "1.5", "x", "", "T"])
          | st.text(max_size=4))
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                max_size=5),
    max_leaves=25,
)


@st.composite
def documents(draw):
    """A version-1 document of dimension 1-3 with up to six keys set to
    generated JSON, so that most inputs get past the header checks."""
    doc = {"schema_version": 1, "dim": draw(st.integers(1, 3))}
    doc.update(draw(st.dictionaries(st.sampled_from(KEYS), JSON, max_size=6)))
    return doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents() | JSON, st.booleans(), st.booleans())
def test_parse_document_raises_only_schema_error(obj, as_text, complete_skew):
    try:
        parse_document(json.dumps(obj) if as_text else obj, complete_skew=complete_skew)
    except SchemaError:
        pass


@pytest.mark.parametrize("module, constructor, fixture", [
    (schema, "AlgebraBundle", "fil4"),
    (representations, "RepBundle", "fil4_adjoint"),
], ids=["algebra", "rep"])
def test_library_faults_in_a_bundle_constructor_are_not_bad_input(
        monkeypatch, module, constructor, fixture):
    """Only a `TernalgError` from a constructor is the document's fault; any
    other exception is a library fault and leaves `parse_document` as it
    is, so the CLI does not report it as bad input."""
    def fault(*args, **kwargs):
        raise InternalError("an invariant failed")

    monkeypatch.setattr(module, constructor, fault)
    with pytest.raises(InternalError, match="^an invariant failed$"):
        parse_document((FIXTURES / f"{fixture}.json").read_text())


@pytest.mark.parametrize("change, message", [
    ({"product": None}, "bundle: unit given but bundle has no product"),
    ({"unit": 1}, "bundle: unit fails x*1 = 1*x = x at basis vector 0"),
])
def test_bundle_errors_are_schema_errors(change, message):
    obj = json.loads((FIXTURES / "trunc2.json").read_text())
    obj.update(change)
    obj = {k: v for k, v in obj.items() if v is not None}
    with pytest.raises(SchemaError) as exc:
        parse_document(obj)
    assert str(exc.value) == message


def test_wrong_schema_version():
    with pytest.raises(SchemaError, match="schema_version"):
        parse_document(json.dumps({"schema_version": 2, "dim": 2}))


def test_unit_index_parses():
    doc, _ = parse_document((FIXTURES / "trunc3.json").read_text())
    assert doc.bundle.unit == Vec.basis(3, 0)


def test_complete_skew_fills_and_conflicts():
    base = {
        "schema_version": 1,
        "dim": 3,
        "bracket": [{"indices": [0, 1, 2, 0], "value": 1}],
    }
    doc, filled = parse_document(json.dumps(base), complete_skew=True)
    assert filled == 5
    b = doc.bundle
    assert b.br3(b.basis(1), b.basis(0), b.basis(2)) == -b.basis(0)
    bad = dict(base)
    bad["bracket"] = base["bracket"] + [{"indices": [1, 0, 2, 0], "value": 1}]
    with pytest.raises(SchemaError, match="conflict"):
        parse_document(json.dumps(bad), complete_skew=True)


@pytest.mark.parametrize("key, entries, message", [
    ("bracket", [([0, 1, 2, 0], 1), ([1, 0, 2, 0], 1)],
     "bracket: entries at [0, 1, 2, 0] and [1, 0, 2, 0] conflict under skew-symmetric "
     "completion"),
    ("bracket", [([0, 1, 0, 0], 1)],
     "bracket: completion of [0, 1, 0, 0] conflicts at [1, 0, 0, 0]"),
], ids=["two-entries", "one-entry"])
def test_complete_skew_conflict_messages(key, entries, message):
    doc = {"schema_version": 1, "dim": 3,
           key: [{"indices": idx, "value": v} for idx, v in entries]}
    with pytest.raises(SchemaError) as exc:
        parse_document(doc, complete_skew=True)
    assert str(exc.value) == message


def test_complete_skew_fills_binary_bracket():
    doc = {"schema_version": 1, "dim": 3,
           "binary_bracket": [{"indices": [0, 1, 2], "value": "1/2"}]}
    doc, filled = parse_document(doc, complete_skew=True)
    assert filled == 1
    b = doc.bundle
    assert b.br2(b.basis(1), b.basis(0)) == Vec([0, 0, Fraction(-1, 2)])


def test_rep_block_roundtrip():
    doc, _ = parse_document((FIXTURES / "r_int3.json").read_text())
    rep = doc.require_rep()
    assert rep.module_dim == 3
    t = doc.require_map("T")
    assert t.src_dim == 3 and t.dst_dim == 3
    assert check_axioms("comm-assoc", doc.bundle).passed


def seeded_rep(seed, n, m):
    """A representation of trunc(n) on a module of dim m: seeded sparse
    rational matrices, about a third of them zero."""
    rng = random.Random(seed)

    def mat():
        if rng.random() < 0.3:
            return Matrix.zero(m, m)
        return Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5
                        else 0 for _ in range(m)] for _ in range(m)])

    rho = action(BiRep, tuple(tuple(mat() for _ in range(n)) for _ in range(n)))
    mu = action(LinRep, tuple(mat() for _ in range(n)))
    return RepBundle(algebra=catalog.trunc(n), rho=rho, mu=mu)


@pytest.mark.parametrize("n, m", [(4, 2), (2, 4)])
def test_rep_block_roundtrip_with_module_dim_other_than_dim(n, m):
    """Actions on a module smaller and larger than the algebra parse back
    equal, check the same, and dump the same bytes."""
    rep = seeded_rep(n * 10 + m, n, m)
    assert any(not x.is_zero() for x in rep.mu.mats)
    assert any(not x.is_zero() for row in rep.rho.mats for x in row)
    text = dumps(document_to_obj(rep.algebra, rep=rep))
    back = roundtrip(json.loads(text)).require_rep()
    assert back.rho == rep.rho and back.mu == rep.mu
    assert back.rho.mats == rep.rho.mats and back.mu.mats == rep.mu.mats
    assert dumps(document_to_obj(back.algebra, rep=back)) == text
    for kind in ("three-lie-rep", "comm-assoc-rep", "ternary-fmanifold-rep"):
        assert (check_representation(kind, back, max_counterexamples=3)
                == check_representation(kind, rep, max_counterexamples=3))


def test_trace_helper():
    doc, _ = parse_document((FIXTURES / "gl2_trace.json").read_text())
    tau = doc.trace()
    assert tau.apply(doc.bundle.basis(3)) == 1


def test_missing_blocks_raise():
    doc, _ = parse_document(json.dumps({"schema_version": 1, "dim": 1}))
    with pytest.raises(SchemaError):
        doc.require_rep()
    with pytest.raises(SchemaError):
        doc.require_map("T")
    with pytest.raises(SchemaError):
        doc.require_form()


def test_load_document_errors_are_schema_errors(tmp_path):
    # an unreadable path and undecodable bytes raise the same error
    missing, bad = tmp_path / "missing.json", tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    with pytest.raises(SchemaError) as got:
        load_document(missing)
    assert str(got.value).startswith(f"cannot read {missing}: [Errno 2]")
    with pytest.raises(SchemaError) as got:
        load_document(bad)
    assert str(got.value).startswith(f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


def test_report_document_shape():
    report = check_axioms("comm-assoc", catalog.trunc(2))
    obj = report_to_obj(report)
    assert obj["verdict"] == "pass"
    assert obj["counterexamples"] == []
    assert "timing_ms" not in obj
    obj2 = report_to_obj(report, timing_ms=1.25)
    assert obj2["timing_ms"] == 1.25


@pytest.mark.parametrize("x", [0, "0", False, "00", "0/0", "-0", 0.0, [0]])
def test_rep_matrix_zeros_keep_their_outcomes(x):
    """The entries 0 and "0" skip the scalar parser in a matrix; every other
    spelling of zero parses, or is refused with its message, as
    `parse_scalar` alone would have it."""
    obj = {"schema_version": 1, "dim": 2, "product": [],
           "rep": {"module_dim": 2, "mu": [{"index": 0, "matrix": [[x, 0], ["0", "1/2"]]}],
                   "rho": []}}
    where = "rep.mu[0].matrix[0][0]"
    try:
        want = parse_scalar(x, where)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            parse_document(obj)
        assert str(got.value) == str(exc)
        return
    assert want == 0
    mu = parse_document(obj)[0].require_rep().mu
    assert mu.tensor.nonzeros() == (((0, 1, 1), Fraction(1, 2)),)
