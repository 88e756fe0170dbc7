import pathlib

import pytest

from ternalg import catalog
from ternalg.constructions import check_trace, trace_induced
from ternalg.errors import SchemaError
from ternalg.operators import check_relative_rb, check_relative_rb_comm
from ternalg.representations import adjoint_rep
from ternalg.structures import check_axioms

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_fil4_bracket_values():
    f = catalog.fil4()
    e = f.basis_vectors()
    assert f.br3(e[0], e[1], e[2]) == e[3]
    assert f.br3(e[0], e[2], e[1]) == -e[3]
    assert f.br3(e[0], e[0], e[1]).is_zero()
    assert f.br3(e[0], e[1], e[3]) == e[2]
    assert f.br3(e[0], e[2], e[3]) == e[1]
    assert f.br3(e[1], e[2], e[3]) == e[0]


def test_fil4_passes_documented_checkers():
    f = catalog.fil4()
    assert check_axioms("3-lie", f).passed
    assert check_axioms("ternary-f-manifold", f).passed


def test_trunc_values():
    t = catalog.trunc(3)
    assert t.mul(t.basis(1), t.basis(1)) == t.basis(2)
    assert t.mul(t.basis(1), t.basis(2)).is_zero()
    assert catalog.trunc(1).dim == 1
    assert check_axioms("comm-assoc", catalog.trunc(4)).passed
    assert check_axioms("ternary-f-manifold", catalog.trunc(4)).passed


def test_trunc_is_unital():
    t = catalog.trunc(3)
    assert t.unit == t.basis(0)


def test_r_int_values():
    R = catalog.r_int(3)
    t = catalog.trunc(3)
    assert R.apply(t.basis(0)) == t.basis(1)
    assert R.apply(t.basis(2)).is_zero()
    assert check_relative_rb_comm(catalog.r_int(4), adjoint_rep(catalog.trunc(4))).passed


@pytest.mark.parametrize("n", [3, 4, 5])
def test_r_int_full_relative_rb(n):
    assert check_relative_rb(catalog.r_int(n), adjoint_rep(catalog.trunc(n))).passed


def test_heisenberg_trace_entry():
    b, tau = catalog.heisenberg_trace()
    assert check_trace(b, tau).passed
    assert check_axioms("lie", b).passed


def test_gl2_trace_entry():
    b, tau = catalog.gl2_trace()
    assert check_trace(b, tau).passed
    out = trace_induced(b, tau)
    assert out.br3(b.basis(3), b.basis(1), b.basis(2)) == b.basis(0)
    assert check_axioms("3-lie", out).passed


def test_fil4_rb_and_symplectic_entries():
    assert check_relative_rb(catalog.fil4_rb(), catalog.fil4_adjoint()).passed
    B = catalog.fil4_symplectic()
    assert B.is_skew()


def test_catalog_doc_names_cover_fixtures():
    names = set(catalog.CATALOG_DOC)
    for required in ("fil4", "trunc3", "r_int3", "gl2_trace"):
        assert required in names
    fixture_names = {p.stem for p in FIXTURES.glob("*.json")}
    assert fixture_names == names


def test_fixtures_match_emitted_documents():
    from ternalg.schema import dumps

    for name in catalog.CATALOG_DOC:
        want = dumps(catalog.catalog_document(name))
        got = (FIXTURES / f"{name}.json").read_text(encoding="utf-8")
        assert got == want, f"fixture {name} is stale"


@pytest.mark.parametrize("name", ["trunc", "truncx", "trunc7", "r_int1", "r_int9", "fil5", ""])
def test_unknown_catalog_entry_is_a_schema_error(name):
    """Only the listed names build a document, as the CLI allows."""
    with pytest.raises(SchemaError, match="unknown catalog entry"):
        catalog.catalog_document(name)
