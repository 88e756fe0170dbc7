import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

from ternalg.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SRC = ROOT / "src"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def fixture(name):
    return FIXTURES / f"{name}.json"


# -- check ------------------------------------------------------------------

def test_check_fil4_three_lie(runner):
    r = invoke(runner, "check", "--kind", "3-lie", fixture("fil4"))
    assert r.exit_code == 0
    report = json.loads(r.stdout)
    assert report["verdict"] == "pass"
    assert report["kind"] == "3-lie"


def test_check_fil4_comm_assoc(runner):
    r = invoke(runner, "check", "--kind", "comm-assoc", fixture("fil4"))
    assert r.exit_code == 0


def test_check_malformed_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = invoke(runner, "check", "--kind", "3-lie", bad)
    assert r.exit_code == 2
    assert "error:" in r.stderr


def test_check_missing_tensor_exits_2(runner):
    r = invoke(runner, "check", "--kind", "lie", fixture("fil4"))
    assert r.exit_code == 2


def test_check_unknown_kind_exits_2(runner):
    r = invoke(runner, "check", "--kind", "frobnitz", fixture("fil4"))
    assert r.exit_code == 2


def test_check_failure_exits_1_with_counterexample(runner, tmp_path):
    doc = json.loads(fixture("fil4").read_text())
    doc["bracket"][0]["value"] = "2"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    r = invoke(runner, "check", "--kind", "3-lie", p)
    assert r.exit_code == 1
    report = json.loads(r.stdout)
    assert report["verdict"] == "fail"
    assert report["counterexamples"][0]["identity"] == "skew3"


def test_check_rep_kind(runner):
    r = invoke(runner, "check", "--kind", "ternary-fmanifold-rep", "--rep",
               fixture("fil4_adjoint"))
    assert r.exit_code == 0


def test_check_coherence_kind(runner):
    r = invoke(runner, "check", "--kind", "coherence", fixture("fil4"))
    assert r.exit_code == 0


def test_check_timing_flag(runner):
    r = invoke(runner, "check", "--kind", "comm-assoc", "--timing", fixture("trunc2"))
    assert "timing_ms" in json.loads(r.stdout)
    r2 = invoke(runner, "check", "--kind", "comm-assoc", fixture("trunc2"))
    assert "timing_ms" not in json.loads(r2.stdout)


def test_check_complete_skew(runner, tmp_path):
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
    assert invoke(runner, "check", "--kind", "3-lie", p).exit_code == 1
    r = invoke(runner, "check", "--kind", "3-lie", "--complete-skew", p)
    assert r.exit_code == 0
    assert "completed 20 skew orientations" in r.stderr


# -- derive -----------------------------------------------------------------

def test_derive_semidirect_then_check(runner, tmp_path):
    out = tmp_path / "sd.json"
    r = invoke(runner, "derive", "semidirect", fixture("fil4_adjoint"), "-o", out)
    assert r.exit_code == 0
    r = invoke(runner, "check", "--kind", "ternary-f-manifold", out)
    assert r.exit_code == 0


def test_derive_trace_induce_then_check(runner, tmp_path):
    out = tmp_path / "ti.json"
    assert invoke(runner, "derive", "trace-induce", fixture("gl2_trace"),
                  "-o", out).exit_code == 0
    assert invoke(runner, "check", "--kind", "3-lie", out).exit_code == 0


def test_derive_direct_sum_and_tensor(runner, tmp_path):
    ds = tmp_path / "ds.json"
    assert invoke(runner, "derive", "direct-sum", fixture("fil4"), fixture("trunc3"),
                  "-o", ds).exit_code == 0
    assert invoke(runner, "check", "--kind", "ternary-f-manifold", ds).exit_code == 0
    tp = tmp_path / "tp.json"
    assert invoke(runner, "derive", "tensor", fixture("fil4"), fixture("trunc2"),
                  "-o", tp).exit_code == 0
    assert invoke(runner, "check", "--kind", "ternary-f-manifold", tp).exit_code == 0


def test_derive_fix_slot(runner, tmp_path):
    out = tmp_path / "fx.json"
    assert invoke(runner, "derive", "fix-slot", fixture("fil4"), "--anchor", "e4",
                  "-o", out).exit_code == 0
    assert invoke(runner, "check", "--kind", "f-manifold", out).exit_code == 0
    out2 = tmp_path / "fx2.json"
    assert invoke(runner, "derive", "fix-slot", fixture("fil4"), "--anchor", "0,0,0,1",
                  "-o", out2).exit_code == 0
    assert out.read_text() == out2.read_text()


@pytest.mark.parametrize("anchor", ["1/0,1", "x,1", "1e9,1"])
def test_derive_fix_slot_bad_anchor_exits_2(runner, tmp_path, anchor):
    r = invoke(runner, "derive", "fix-slot", fixture("trunc2"), "--anchor", anchor,
               "-o", tmp_path / "fx.json")
    assert r.exit_code == 2
    assert r.stderr.startswith("error: --anchor[0]: cannot parse rational")
    assert not (tmp_path / "fx.json").exists()


def test_derive_induce_pre_chain(runner, tmp_path):
    out = tmp_path / "pre.json"
    assert invoke(runner, "derive", "induce-pre", fixture("r_int3"),
                  "-o", out).exit_code == 0
    assert invoke(runner, "check", "--kind", "ternary-pre-f-manifold",
                  out).exit_code == 0


def test_derive_dual_rep(runner, tmp_path):
    out = tmp_path / "dual.json"
    assert invoke(runner, "derive", "dual-rep", fixture("fil4_adjoint"),
                  "-o", out).exit_code == 0
    assert invoke(runner, "check", "--kind", "ternary-fmanifold-rep", "--rep",
                  out).exit_code == 0


def test_derive_lift_nijenhuis(runner, tmp_path):
    out = tmp_path / "lift.json"
    assert invoke(runner, "derive", "lift-nijenhuis", fixture("r_int3"),
                  "-o", out).exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 6
    assert doc["maps"][0]["name"] == "N_T"


def test_derive_deform_reads_lift_nijenhuis_output(runner, tmp_path):
    lift = tmp_path / "lift.json"
    assert invoke(runner, "derive", "lift-nijenhuis", fixture("r_int3"),
                  "-o", lift).exit_code == 0
    out = tmp_path / "deformed.json"
    r = invoke(runner, "derive", "deform", lift, "-o", out)
    assert r.exit_code == 0, r.output
    assert json.loads(out.read_text())["dim"] == 6


def test_derive_symplectic_pre(runner, tmp_path):
    out = tmp_path / "sp.json"
    assert invoke(runner, "derive", "symplectic-pre", fixture("fil4_symplectic"),
                  "-o", out).exit_code == 0
    assert invoke(runner, "check", "--kind", "ternary-pre-f-manifold",
                  out).exit_code == 0


def test_derive_deform_rejects_non_nijenhuis(runner, tmp_path):
    doc = json.loads(fixture("trunc3").read_text())
    doc["maps"] = [{"name": "N",
                    "matrix": [["0", "1", "0"], ["0", "0", "0"], ["1", "0", "0"]]}]
    p = tmp_path / "badn.json"
    p.write_text(json.dumps(doc))
    r = invoke(runner, "derive", "deform", p, "-o", tmp_path / "x.json")
    assert r.exit_code == 1
    report = json.loads(r.stdout)
    assert report["kind"] == "nijenhuis"
    assert report["verdict"] == "fail"


def test_derive_wrong_arity_exits_2(runner, tmp_path):
    r = invoke(runner, "derive", "tensor", fixture("fil4"), "-o", tmp_path / "x.json")
    assert r.exit_code == 2


# -- catalog ------------------------------------------------------------------

def test_catalog_list(runner):
    r = invoke(runner, "catalog", "list")
    assert r.exit_code == 0
    for name in ("fil4", "trunc3", "r_int3", "gl2_trace"):
        assert name in r.stdout


def test_catalog_emit_roundtrips_byte_identical(runner, tmp_path):
    out = tmp_path / "fil4.json"
    assert invoke(runner, "catalog", "emit", "fil4", "-o", out).exit_code == 0
    text = out.read_text()
    from ternalg.schema import document_to_obj, dumps, parse_document

    doc, _ = parse_document(text)
    assert dumps(document_to_obj(doc.bundle)) == text
    assert invoke(runner, "check", "--kind", "3-lie", out).exit_code == 0


def test_catalog_emit_unknown_exits_2(runner, tmp_path):
    r = invoke(runner, "catalog", "emit", "nope", "-o", tmp_path / "x.json")
    assert r.exit_code == 2


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
    assert "No such option" in proc.stderr


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"]["ternalg"] == "ternalg.cli:main"
