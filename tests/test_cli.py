import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ternalg
from cli_runner import invoke
from ternalg import cli
from ternalg.catalog import fil4, r_int, trunc
from ternalg.linalg import Matrix
from ternalg.operators import BilinearForm
from ternalg.representations import RepKind, adjoint_rep, semidirect
from ternalg.schema import document_to_obj, dumps, load_document
from ternalg.structures import StructureKind

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SRC = ROOT / "src"


def fixture(name):
    return FIXTURES / f"{name}.json"


# -- check ------------------------------------------------------------------

def test_check_fil4_three_lie():
    r = invoke("check", "--kind", "3-lie", fixture("fil4"))
    assert r.exit_code == 0
    report = json.loads(r.stdout)
    assert report["verdict"] == "pass"
    assert report["kind"] == "3-lie"


def test_check_fil4_comm_assoc():
    r = invoke("check", "--kind", "comm-assoc", fixture("fil4"))
    assert r.exit_code == 0


def test_check_malformed_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = invoke("check", "--kind", "3-lie", bad)
    assert r.exit_code == 2
    assert "error:" in r.stderr


def test_check_missing_tensor_exits_2():
    r = invoke("check", "--kind", "lie", fixture("fil4"))
    assert r.exit_code == 2


STRUCTURE_CHOICES = ("['comm-assoc', 'zinbiel', 'lie', '3-lie', '3-pre-lie', 'f-manifold', "
                     "'ternary-f-manifold', 'ternary-nambu-poisson', 'ternary-pre-f-manifold', "
                     "'ternary-pre-nambu-poisson', 'coherence']")
REP_CHOICES = ("['comm-assoc-rep', 'lie-rep', 'three-lie-rep', 'fmanifold-rep', "
               "'ternary-fmanifold-rep', 'dual-conditions']")


def test_check_unknown_kind_exits_2():
    # a rep kind is refused before the rep block is read: fil4 has none
    for args, line in [
        (["--kind", "frobnitz", "fil4"],
         f"error: unknown structure kind 'frobnitz' (choices: {STRUCTURE_CHOICES})"),
        (["--rep", "--kind", "frobnitz", "fil4_adjoint"],
         f"error: unknown representation kind 'frobnitz' (choices: {REP_CHOICES})"),
        (["--rep", "--kind", "frobnitz", "fil4"],
         f"error: unknown representation kind 'frobnitz' (choices: {REP_CHOICES})"),
    ]:
        r = invoke("check", *args[:-1], fixture(args[-1]))
        assert (r.exit_code, r.stdout, r.stderr) == (2, "", line + "\n"), args


def test_check_failure_exits_1_with_counterexample(tmp_path):
    doc = json.loads(fixture("fil4").read_text())
    doc["bracket"][0]["value"] = "2"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    r = invoke("check", "--kind", "3-lie", p)
    assert r.exit_code == 1
    report = json.loads(r.stdout)
    assert report["verdict"] == "fail"
    assert report["counterexamples"][0]["identity"] == "skew3"


def test_check_rep_kind():
    r = invoke("check", "--kind", "ternary-fmanifold-rep", "--rep",
               fixture("fil4_adjoint"))
    assert r.exit_code == 0


def test_check_coherence_kind():
    r = invoke("check", "--kind", "coherence", fixture("fil4"))
    assert r.exit_code == 0


def test_check_timing_flag():
    r = invoke("check", "--kind", "comm-assoc", "--timing", fixture("trunc2"))
    assert "timing_ms" in json.loads(r.stdout)
    r2 = invoke("check", "--kind", "comm-assoc", fixture("trunc2"))
    assert "timing_ms" not in json.loads(r2.stdout)


def test_check_complete_skew(tmp_path):
    doc = {
        "schema_version": 1,
        "dim": 4,
        "product": [],
        "bracket": [
            {"indices": [0, 1, 2, 3], "value": "1"},
            {"indices": [0, 1, 3, 2], "value": "1"},
            {"indices": [0, 2, 3, 1], "value": "1"},
            {"indices": [1, 2, 3, 0], "value": "1"},
        ],
    }
    p = tmp_path / "gen.json"
    p.write_text(json.dumps(doc))
    assert invoke("check", "--kind", "3-lie", p).exit_code == 1
    r = invoke("check", "--kind", "3-lie", "--complete-skew", p)
    assert r.exit_code == 0
    assert "completed 20 skew orientations" in r.stderr


# -- derive -----------------------------------------------------------------

def test_derive_semidirect_then_check(tmp_path):
    out = tmp_path / "sd.json"
    r = invoke("derive", "semidirect", fixture("fil4_adjoint"), "-o", out)
    assert r.exit_code == 0
    r = invoke("check", "--kind", "ternary-f-manifold", out)
    assert r.exit_code == 0


def test_derive_trace_induce_then_check(tmp_path):
    out = tmp_path / "ti.json"
    assert invoke("derive", "trace-induce", fixture("gl2_trace"),
                  "-o", out).exit_code == 0
    assert invoke("check", "--kind", "3-lie", out).exit_code == 0


def test_derive_direct_sum_and_tensor(tmp_path):
    ds = tmp_path / "ds.json"
    assert invoke("derive", "direct-sum", fixture("fil4"), fixture("trunc3"),
                  "-o", ds).exit_code == 0
    assert invoke("check", "--kind", "ternary-f-manifold", ds).exit_code == 0
    tp = tmp_path / "tp.json"
    assert invoke("derive", "tensor", fixture("fil4"), fixture("trunc2"),
                  "-o", tp).exit_code == 0
    assert invoke("check", "--kind", "ternary-f-manifold", tp).exit_code == 0


def test_derive_fix_slot(tmp_path):
    out = tmp_path / "fx.json"
    assert invoke("derive", "fix-slot", fixture("fil4"), "--anchor", "e4",
                  "-o", out).exit_code == 0
    assert invoke("check", "--kind", "f-manifold", out).exit_code == 0
    out2 = tmp_path / "fx2.json"
    assert invoke("derive", "fix-slot", fixture("fil4"), "--anchor", "0,0,0,1",
                  "-o", out2).exit_code == 0
    assert out.read_text() == out2.read_text()


@pytest.mark.parametrize("anchor", ["1/0,1", "x,1", "1e9,1"])
def test_derive_fix_slot_bad_anchor_exits_2(tmp_path, anchor):
    r = invoke("derive", "fix-slot", fixture("trunc2"), "--anchor", anchor,
               "-o", tmp_path / "fx.json")
    assert r.exit_code == 2
    assert r.stderr.startswith("error: --anchor[0]: cannot parse rational")
    assert not (tmp_path / "fx.json").exists()


def test_derive_induce_pre_chain(tmp_path):
    out = tmp_path / "pre.json"
    assert invoke("derive", "induce-pre", fixture("r_int3"),
                  "-o", out).exit_code == 0
    assert invoke("check", "--kind", "ternary-pre-f-manifold",
                  out).exit_code == 0


def test_derive_dual_rep(tmp_path):
    out = tmp_path / "dual.json"
    assert invoke("derive", "dual-rep", fixture("fil4_adjoint"),
                  "-o", out).exit_code == 0
    assert invoke("check", "--kind", "ternary-fmanifold-rep", "--rep",
                  out).exit_code == 0


def test_derive_lift_nijenhuis(tmp_path):
    out = tmp_path / "lift.json"
    assert invoke("derive", "lift-nijenhuis", fixture("r_int3"),
                  "-o", out).exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 6
    assert doc["maps"][0]["name"] == "N_T"


def test_derive_deform_reads_lift_nijenhuis_output(tmp_path):
    lift = tmp_path / "lift.json"
    assert invoke("derive", "lift-nijenhuis", fixture("r_int3"),
                  "-o", lift).exit_code == 0
    out = tmp_path / "deformed.json"
    r = invoke("derive", "deform", lift, "-o", out)
    assert r.exit_code == 0, r.output
    assert json.loads(out.read_text())["dim"] == 6


def test_derive_symplectic_pre(tmp_path):
    out = tmp_path / "sp.json"
    assert invoke("derive", "symplectic-pre", fixture("fil4_symplectic"),
                  "-o", out).exit_code == 0
    assert invoke("check", "--kind", "ternary-pre-f-manifold",
                  out).exit_code == 0


def dual(docs):
    rep = ternalg.dual_rep(docs[0].require_rep())
    return rep.algebra, rep


def lift(docs):
    rep = docs[0].require_rep()
    return ternalg.semidirect(rep), None, {
        "N_T": ternalg.lift_nijenhuis(docs[0].require_map("T"), rep)}


def lifted():
    return document_to_obj(*lift([load_document(fixture("r_int3"))[0]]))


# Each derive case: its construction, its inputs (a fixture's name, or a
# function that makes the document), its options, and document_to_obj's
# arguments for the output the library's builders give on the parsed inputs.
DERIVED = {
    "direct-sum": ("direct-sum", ["fil4", "trunc3"], [],
                   lambda d: (ternalg.direct_sum(d[0].bundle, d[1].bundle),)),
    "tensor": ("tensor", ["fil4", "trunc2"], [],
               lambda d: (ternalg.tensor_with_comm_assoc(d[0].bundle, d[1].bundle),)),
    "fix-slot": ("fix-slot", ["fil4"], ["--anchor", "e4"],
                 lambda d: (ternalg.fix_slot_bracket(d[0].bundle, d[0].bundle.basis(3)),)),
    "trace-induce": ("trace-induce", ["gl2_trace"], [],
                     lambda d: (ternalg.trace_induced(d[0].bundle, d[0].trace()),)),
    "semidirect": ("semidirect", ["fil4_adjoint"], [],
                   lambda d: (ternalg.semidirect(d[0].require_rep()),)),
    "dual-rep": ("dual-rep", ["fil4_adjoint"], [], dual),
    "induce-pre-rep": ("induce-pre", ["r_int3"], [], lambda d: (
        ternalg.induced_pre_fmanifold(d[0].require_map("T"), d[0].require_rep()),)),
    "induce-pre-map": ("induce-pre", [lambda: document_to_obj(trunc(5), maps={"R": r_int(5)})],
                       [], lambda d: (ternalg.rb_induced_pre(r_int(5), trunc(5)),)),
    "deform": ("deform", [lifted], [],
               lambda d: (ternalg.deform(d[0].require_map("N_T"), d[0].bundle),)),
    "lift-nijenhuis": ("lift-nijenhuis", ["r_int3"], [], lift),
    "symplectic-pre": ("symplectic-pre", ["fil4_symplectic"], [], lambda d: (
        ternalg.symplectic_induced_pre(d[0].require_form(), d[0].bundle),)),
}


@pytest.mark.parametrize("case", DERIVED)
def test_derive_output_bytes_equal_the_library_builders(tmp_path, case):
    construction, inputs, options, expected = DERIVED[case]
    paths = []
    for i, spec in enumerate(inputs):
        if isinstance(spec, str):
            paths.append(fixture(spec))
        else:
            paths.append(tmp_path / f"in{i}.json")
            paths[-1].write_text(dumps(spec()))
    out = tmp_path / "out.json"
    r = invoke("derive", construction, *paths, *options, "-o", out)
    assert (r.exit_code, r.stdout, r.stderr) == (0, "", f"wrote {out}\n")
    docs = [load_document(p)[0] for p in paths]
    assert out.read_text() == dumps(document_to_obj(*expected(docs)))


def test_derive_byte_pins_cover_every_construction():
    assert {construction for construction, *_ in DERIVED.values()} == set(cli._CONSTRUCTIONS)


def symplectic_documents():
    """Documents whose form fails one precondition of symplectic-pre, with
    the exit code and report kind (None: no report) derive gives them."""
    pairing = [[1 if j == i + 1 and i % 2 == 0 else -1 if i == j + 1 and j % 2 == 0 else 0
                for j in range(8)] for i in range(8)]
    return {
        "non-skew": (document_to_obj(fil4(), form=BilinearForm(Matrix.identity(4))), 2, None),
        "non-cocycle": (document_to_obj(trunc(2), form=BilinearForm(Matrix([[0, 1], [-1, 0]]))),
                        1, "cyclic-2cocycle"),
        "non-symplectic": (document_to_obj(semidirect(adjoint_rep(fil4())),
                                           form=BilinearForm(Matrix(pairing))), 1, "symplectic"),
        "singular": (document_to_obj(fil4(), form=BilinearForm(Matrix.zero(4, 4))), 2, None),
    }


@pytest.mark.parametrize("case", ["non-skew", "non-cocycle", "non-symplectic", "singular"])
def test_derive_symplectic_pre_precondition_exit_codes(tmp_path, case):
    doc, code, kind = symplectic_documents()[case]
    p = tmp_path / "form.json"
    p.write_text(json.dumps(doc))
    r = invoke("derive", "symplectic-pre", p, "-o", tmp_path / "x.json")
    assert r.exit_code == code
    assert r.stderr.startswith("error: ")
    assert not (tmp_path / "x.json").exists()
    if kind is None:
        assert r.stdout == ""
    else:
        report = json.loads(r.stdout)
        assert (report["kind"], report["verdict"]) == (kind, "fail")


def test_derive_deform_rejects_non_nijenhuis(tmp_path):
    doc = json.loads(fixture("trunc3").read_text())
    doc["maps"] = [{"name": "N",
                    "matrix": [["0", "1", "0"], ["0", "0", "0"], ["1", "0", "0"]]}]
    p = tmp_path / "badn.json"
    p.write_text(json.dumps(doc))
    r = invoke("derive", "deform", p, "-o", tmp_path / "x.json")
    assert r.exit_code == 1
    report = json.loads(r.stdout)
    assert report["kind"] == "nijenhuis"
    assert report["verdict"] == "fail"


def test_derive_wrong_arity_exits_2(tmp_path):
    r = invoke("derive", "tensor", fixture("fil4"), "-o", tmp_path / "x.json")
    assert r.exit_code == 2


def test_derive_options_before_between_and_after_inputs(tmp_path, monkeypatch):
    outs = [tmp_path / f"ds{i}.json" for i in range(3)]
    fil4, trunc3 = fixture("fil4"), fixture("trunc3")
    assert invoke("derive", "direct-sum", fil4, trunc3, "-o", outs[0]).exit_code == 0
    assert invoke("derive", "-o", outs[1], "--complete-skew", "direct-sum",
                  fil4, trunc3).exit_code == 0
    assert invoke("derive", "direct-sum", fil4, "-o", outs[2], trunc3).exit_code == 0
    assert outs[0].read_text() == outs[1].read_text() == outs[2].read_text()
    # an option's value may start with a minus sign
    monkeypatch.chdir(tmp_path)
    assert invoke("derive", "fix-slot", "--anchor", "-1,0,0,1", fil4,
                  "-o", "-fx.json").exit_code == 0
    assert invoke("derive", "fix-slot", fil4, "--anchor=-1,0,0,1",
                  "-o", "fx.json").exit_code == 0
    assert (tmp_path / "-fx.json").read_text() == (tmp_path / "fx.json").read_text()


# each exits 2 with the usage line, as every usage error does
USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "no-input-path": ["check", "--kind", "3-lie"],
    "no-kind-value": ["check", "{fil4}", "--kind"],
    "k-not-an-integer": ["check", "--kind", "3-lie", "-k", "x", "{fil4}"],
    "unknown-option": ["check", "--frobnicate", "--kind", "3-lie", "{fil4}"],
    "abbreviated-option": ["check", "--complete", "--kind", "3-lie", "{fil4}"],
    "unknown-construction": ["derive", "frobnicate", "{fil4}", "-o", "{out}"],
    "derive-no-output": ["derive", "semidirect", "{fil4}"],
    "catalog-no-command": ["catalog"],
    "catalog-extra-argument": ["catalog", "list", "fil4"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exits_2(tmp_path, case):
    out = tmp_path / "x.json"
    r = invoke(*(a.format(fil4=fixture("fil4"), out=out) for a in USAGE_ERRORS[case]))
    assert (r.exit_code, r.exception, r.stdout) == (2, None, "")
    assert r.stderr.startswith("usage: ternalg")
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_help_exits_0():
    r = invoke("--help")
    assert (r.exit_code, r.stderr) == (0, "")
    for command in ("check", "derive", "catalog"):
        assert command in r.stdout
    r = invoke("check", "--help")
    assert r.exit_code == 0
    assert "--max-counterexamples" in r.stdout


def test_check_negative_k_counts_as_1(tmp_path):
    r = invoke("check", "--kind", "3-lie", "-k", "-1", fixture("fil4"))
    assert r.exit_code == 0
    doc = json.loads(fixture("fil4").read_text())
    doc["bracket"][0]["value"] = "2"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    r = invoke("check", "--kind", "3-lie", "-k", "-1", p)
    assert r.exit_code == 1
    assert len(json.loads(r.stdout)["counterexamples"]) == 1


# -- catalog ------------------------------------------------------------------

def test_catalog_list():
    r = invoke("catalog", "list")
    assert r.exit_code == 0
    for name in ("fil4", "trunc3", "r_int3", "gl2_trace"):
        assert name in r.stdout


def test_catalog_emit_roundtrips_byte_identical(tmp_path):
    out = tmp_path / "fil4.json"
    assert invoke("catalog", "emit", "fil4", "-o", out).exit_code == 0
    text = out.read_text()
    from ternalg.schema import document_to_obj, dumps, parse_document

    doc, _ = parse_document(text)
    assert dumps(document_to_obj(doc.bundle)) == text
    assert invoke("check", "--kind", "3-lie", out).exit_code == 0


def test_catalog_emit_unknown_exits_2(tmp_path):
    r = invoke("catalog", "emit", "nope", "-o", tmp_path / "x.json")
    assert r.exit_code == 2


def test_derive_unwritable_output_exits_2(tmp_path):
    out = tmp_path / "missing" / "x.json"
    r = invoke("derive", "semidirect", fixture("fil4_adjoint"), "-o", out)
    assert r.exit_code == 2
    assert r.stderr.startswith(f"error: cannot write {out}:")
    assert "Traceback" not in r.output


@pytest.mark.parametrize("args", [
    ["check", "--kind", "3-lie", "{bad}"],
    ["derive", "semidirect", "{bad}", "-o", "{out}"],
], ids=["check", "derive"])
def test_input_not_utf8_exits_2(tmp_path, args):
    # a decoding error is an input error, not a failed check
    bad, out = tmp_path / "bad.json", tmp_path / "x.json"
    bad.write_bytes(b"\xff\xfe")
    r = invoke(*(a.format(bad=bad, out=out) for a in args))
    assert (r.exit_code, r.exception, r.stdout) == (2, None, "")
    assert r.stderr.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")
    assert r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_catalog_emit_to_directory_exits_2(tmp_path):
    r = invoke("catalog", "emit", "fil4", "-o", tmp_path)
    assert r.exit_code == 2
    assert r.stderr.startswith(f"error: cannot write {tmp_path}:")
    assert "Traceback" not in r.output


# sha256 of `catalog emit NAME` output, pinned when the documents were still
# built in the CLI module
EMITTED = {
    "fil4": "977a6004af914e3ec4ec239395d7459199f8f8c8054c72477d2cc95a3c6506af",
    "fil4_adjoint": "9a71e5dd204ff02d38bd0a5a46015cab5687fbbe29265fe14d43afc9b782388d",
    "fil4_rb": "50d37158689f7eff4503d02f02d5bb120b05391d85a3f7df16ea0a9b417918fb",
    "fil4_symplectic": "7798e05b63c044eeec8a24687b7c512577fc28fb774d1c5a6f8c8af12bbe845a",
    "gl2_trace": "08b915c08ede8132eee868cca32879f707e0791d032c24819861e64cc9ac00d8",
    "heisenberg_trace": "d34d9ef6b9dc2de5c9c96893ec3e92c9d4dfab9451e27e4f27773bf2f263e73a",
    "r_int3": "ebc73b00977169c2caaa358c0f3a64db16f7102df02f6a2c9cd0ee28a7d6e4c6",
    "r_int4": "99ae368d9d581775e0b3846821c7cbac8edbe2e166c790f06cba75f077999281",
    "r_int5": "ad8f80864abc8b44ac1eef93d98d2fdb10fd574ef97c9ede894d3306422ed092",
    "trunc2": "e67ef6413128cfd4def7ad5be824ad71792e87651fdcdd0a672d417ec893a933",
    "trunc3": "520aa9834f5a3396f2ce4cf859a9f5a324f9b2c0acabe8ab4fffe3aa49968f77",
    "trunc4": "3e41f779b4f082d19a3f4a4279184076c0bd60a8be546833adfb100ee9663011",
}


def test_catalog_emit_bytes_pinned(tmp_path):
    from ternalg.catalog import CATALOG_DOC

    assert sorted(EMITTED) == sorted(CATALOG_DOC)
    for name, digest in EMITTED.items():
        out = tmp_path / f"{name}.json"
        assert invoke("catalog", "emit", name, "-o", out).exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name


# -- check on generated documents -------------------------------------------------

# one value in 37 is malformed, so that most documents parse
VALUES = st.sampled_from(["1", "-1", "2", "1/2", "-3/2", "0"] * 12 + ["1/0", "x"])
# one document in six is corrupted, each corruption equally likely
CORRUPTIONS = [None] * 30 + [("schema_version", 2), ("dim", 0), ("dim", "3"), ("unit", 7),
                             ("product", "x"), ("bracket", [{"indices": [0, 0, 0, 9]}])]


def weighted(*choices):
    """Draw from one of the (strategy, weight) choices, picked by weight."""
    return st.sampled_from([s for s, w in choices for _ in range(w)]).flatmap(lambda s: s)


def matrices(m, cols=None):
    """An m x cols (default m x m) matrix of document scalars nine times in
    ten; otherwise one a row or a column off, or not a nested list of the
    right shape."""
    cols = m if cols is None else cols

    def grid(rows, cols):
        return st.lists(st.lists(VALUES, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows)

    off = [(m + 1, cols + 1), (m, cols + 1), (m + 1, cols), (m - 1, cols)]
    broken = ["x", None, [], ["1"] * cols, [["1"] * cols, ["1"]]]
    return weighted((grid(m, cols), 81), *((grid(*shape), 1) for shape in off),
                    (st.sampled_from(broken), 5))


def skew_matrices(n):
    """An n x n skew-symmetric matrix of small integers."""
    def fill(upper):
        entries = dict(zip(((i, j) for i in range(n) for j in range(i + 1, n)), upper))
        return [[str(entries.get((i, j), -entries.get((j, i), 0))) for j in range(n)]
                for i in range(n)]

    return st.lists(st.integers(-2, 2), min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2).map(fill)


MAP_NAMES = ["N", "N_T", "R", "T", "tau"]


@st.composite
def maps_blocks(draw, n, m, name=None):
    """One to three named maps, `name` among them when given, each sized for
    the construction that reads it (T: n x m, R and N: n x n, tau: 1 x n) or
    a row or column off, now and then malformed; now and then a name
    repeated or missing."""
    shapes = {"T": (n, m), "R": (n, n), "N": (n, n), "N_T": (n, n), "tau": (1, n)}
    names = draw(st.lists(st.sampled_from(MAP_NAMES), min_size=1, max_size=3, unique=True))
    if name is not None and name not in names:
        names[0] = name
    block = [{"name": key, "matrix": draw(matrices(*shapes[key]))} for key in names]
    broken = draw(st.sampled_from([None] * 8 + ["repeat", "nameless", "not-a-list"]))
    if broken == "repeat":
        block.append(block[0])
    elif broken == "nameless":
        block.append({"matrix": [["1"]]})
    elif broken == "not-a-list":
        block = {"T": [["1"]]}
    return block


@st.composite
def rep_blocks(draw, n):
    """A rep block on a module of dim 1-3 with a few mu and rho entries,
    their indices now and then out of range."""
    m = draw(st.integers(1, 3))
    block = {"module_dim": m}
    if draw(st.booleans()):
        block["mu"] = draw(st.lists(st.fixed_dictionaries({
            "index": st.integers(0, n), "matrix": matrices(m)}), max_size=3))
    if draw(st.booleans()):
        block["rho"] = draw(st.lists(st.fixed_dictionaries({
            "indices": st.lists(st.integers(0, n - 1), min_size=2, max_size=2),
            "matrix": matrices(m)}), max_size=3))
    return block


# the blocks each construction of the derive test reads, besides the bundle
READS = {"deform": ("N", "N_T"), "induce-pre": ("R", "T"), "lift-nijenhuis": ("rep", "T"),
         "symplectic-pre": ("form",), "trace-induce": ("tau",)}


@st.composite
def bundle_documents(draw, construction=None):
    """Documents of dimension 1-3 with a few structure constants per tensor,
    no index tuple repeated, some values malformed, now and then a rep
    block, a maps block and a form block (always those that `construction`
    reads), and one document in six with one broken field."""
    reads = READS.get(construction, ())
    some = st.sampled_from([True, False, False])
    n = draw(st.integers(1, 3))
    doc = {"schema_version": 1, "dim": n}
    for key, arity in (("product", 3), ("bracket", 4), ("binary_bracket", 3)):
        if draw(st.sampled_from([True, True, False])):
            doc[key] = draw(st.lists(st.fixed_dictionaries({
                "indices": st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity),
                "value": VALUES}), max_size=4, unique_by=lambda e: tuple(e["indices"])))
    if "rep" in reads or draw(some):
        doc["rep"] = draw(rep_blocks(n))
    names = [r for r in reads if r in MAP_NAMES]
    if names or draw(some):
        m = doc["rep"]["module_dim"] if "rep" in doc else n
        doc["maps"] = draw(maps_blocks(n, m, draw(st.sampled_from(names)) if names else None))
    if "form" in reads or draw(some):
        doc["form"] = draw(weighted((st.fixed_dictionaries({"matrix": matrices(n)}), 4),
                                    (st.fixed_dictionaries({"matrix": skew_matrices(n)}), 4),
                                    (st.sampled_from(["x", {}]), 1)))
    corruption = draw(st.sampled_from(CORRUPTIONS))
    if corruption:
        doc[corruption[0]] = corruption[1]
    return doc


CHECK_KINDS = sorted(k.value for k in StructureKind) + ["no-such-kind"]
REP_CHECK_KINDS = sorted(k.value for k in RepKind) + ["no-such-kind"]


def exits_cleanly(doc, args):
    """`check` with args on doc exits 0, 1 or 2, with no traceback, and a
    report whose verdict matches the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "doc.json")
        path.write_text(json.dumps(doc))
        r = invoke("check", *args, path)
    assert r.exception is None, r.exception
    assert r.exit_code in (0, 1, 2)
    if r.exit_code in (0, 1):
        assert json.loads(r.stdout)["verdict"] == ("pass" if r.exit_code == 0 else "fail")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bundle_documents(), st.sampled_from(CHECK_KINDS), st.integers(-1, 3), st.booleans())
def test_check_on_generated_documents_exits_cleanly(doc, kind, k, complete_skew):
    exits_cleanly(doc, ["--kind", kind, "-k", str(k)]
                  + (["--complete-skew"] if complete_skew else []))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bundle_documents(), st.sampled_from(REP_CHECK_KINDS), st.integers(-1, 3))
def test_check_rep_on_generated_documents_exits_cleanly(doc, kind, k):
    exits_cleanly(doc, ["--kind", kind, "--rep", "-k", str(k)])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(READS)).flatmap(
    lambda c: st.tuples(st.just(c), bundle_documents(c))))
def test_derive_on_generated_documents_exits_cleanly(construction_and_doc):
    # exit 0, 1 or 2 with no traceback; a written document parses again
    construction, doc = construction_and_doc
    with tempfile.TemporaryDirectory() as tmp:
        path, out = pathlib.Path(tmp, "doc.json"), pathlib.Path(tmp, "out.json")
        path.write_text(json.dumps(doc))
        r = invoke("derive", construction, path, "-o", out)
        assert r.exception is None, r.exception
        assert r.exit_code in (0, 1, 2)
        if r.exit_code == 0:
            load_document(out)
        else:
            assert not out.exists()


# -- console script wiring -------------------------------------------------------

def test_console_script_smoke(tmp_path):
    # Run this checkout's package in a real process, installed or not.
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run(
        [sys.executable, "-m", "ternalg",
         "check", "--kind", "3-lie", str(fixture("fil4"))],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"


def test_jobs_option_is_gone():
    # scans run in one thread; the --jobs/-j option and TERNALG_JOBS are removed
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run(
        [sys.executable, "-m", "ternalg",
         "check", "--jobs", "2", "--kind", "3-lie", str(fixture("fil4"))],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "unrecognized arguments: --jobs" in proc.stderr


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"]["ternalg"] == "ternalg.cli:main"
