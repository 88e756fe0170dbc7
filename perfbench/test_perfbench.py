"""Self-tests of the benchmark's generator, correctness gate and calibration sampler.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import itertools
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calib  # noqa: E402
import gate  # noqa: E402
import gen  # noqa: E402
from ternalg import catalog as cat  # noqa: E402
from ternalg import schema  # noqa: E402
from ternalg.linalg import Tensor3, Tensor4  # noqa: E402
from ternalg.structures import AlgebraBundle, check_axioms  # noqa: E402


def test_generator_is_deterministic_per_seed():
    first, again, other = gen.documents(5), gen.documents(5), gen.documents(6)
    assert first == again
    seeded = gen.SEEDED_DOCS + (gen.MALFORMED,)
    for name in first:
        assert (first[name] != other[name]) == (name in seeded), name


def test_write_gives_byte_identical_files(tmp_path):
    for sub in ("a", "b"):
        gen.write(gen.documents(9), str(tmp_path / sub))
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_basis_change_preserves_verdict_of_fil4():
    fil4 = cat.fil4()
    n = fil4.dim
    pattern = list(itertools.combinations(range(n), 2))
    p, q = gen.unipotent(random.Random(3), n, pattern)
    assert all(sum(p[i][k] * q[k][j] for k in range(n)) == (i == j)
               for i in range(n) for j in range(n))
    bracket = gen.change_basis(fil4.bracket.nonzeros(), p, q)
    assert bracket != dict(fil4.bracket.nonzeros())
    assert any(v.denominator > 1 for v in bracket.values())
    moved = AlgebraBundle(n, product=Tensor3.zero(n),
                          bracket=Tensor4.from_nonzeros(n, bracket))
    for kind in ("3-lie", "ternary-f-manifold"):
        assert check_axioms(kind, fil4).passed
        assert check_axioms(kind, moved).passed


def test_dense8_passes_and_every_near_miss_fails():
    for seed in (1, 2):
        docs = gen.documents(seed)
        dense = schema.parse_document(docs["dense8"])[0].bundle
        assert check_axioms("ternary-f-manifold", dense).passed
        for name in ("nearmiss_a", "nearmiss_b"):
            bundle = schema.parse_document(docs[name])[0].bundle
            report = check_axioms("ternary-f-manifold", bundle, max_counterexamples=100)
            assert not report.passed
            assert {ce.identity for ce in report.counterexamples} <= gate.QUINTIC


def _case(out, exit_code=None, kind=("golden",)):
    return {"gate": list(kind), "runs": 1, "differ": 0, "raised": 0,
            "first": {"exit": exit_code, "out": out, "err": ""}}


def test_gate_flags_an_altered_report():
    goldens = gate.load_goldens()
    out = goldens["coherence.sd"]["out"]
    assert gate.evaluate({"coherence.sd": _case(out)}, goldens, {})[:2] == (1, 0)
    altered = out.replace('"tuple_count": 164928', '"tuple_count": 164929')
    assert altered != out
    assert gate.evaluate({"coherence.sd": _case(altered)}, goldens, {})[:2] == (1, 1)


def test_gate_checks_seeded_reports_independently():
    docs = gen.documents(4)
    dense = schema.parse_document(docs["dense8"])[0].bundle
    report = schema.report_to_obj(check_axioms("ternary-f-manifold", dense))
    passing = _case(schema.dumps(report), kind=("passes", "ternary-f-manifold", 8))
    assert gate.judge("x", passing, {}, docs) is None
    report["tuple_count"] += 1
    wrong = _case(schema.dumps(report), kind=("passes", "ternary-f-manifold", 8))
    assert "tuple_count" in gate.judge("x", wrong, {}, docs)

    bundle = schema.parse_document(docs["nearmiss_b"])[0].bundle
    report = schema.report_to_obj(
        check_axioms("ternary-f-manifold", bundle, max_counterexamples=5))
    failing = _case(schema.dumps(report), kind=("nearmiss", "nearmiss_b"))
    assert gate.judge("x", failing, {}, docs) is None
    residual = report["counterexamples"][2]["residual"]
    residual[0] = str(Fraction(residual[0]) + 1)
    bad = _case(schema.dumps(report), kind=("nearmiss", "nearmiss_b"))
    assert "eval_defect" in gate.judge("x", bad, {}, docs)


def test_gate_requires_exit_2_for_malformed_input():
    ok = _case("", exit_code=2, kind=("malformed",))
    ok["first"]["err"] = "error: schema_version: expected 1, got 2\n"
    assert gate.judge("x", ok, {}, {}) is None
    crashed = _case("", exit_code=1, kind=("malformed",))
    crashed["first"]["err"] = "Traceback (most recent call last):\n"
    assert gate.judge("x", crashed, {}, {}) is not None


def test_ref_seconds_drops_chunks_and_rescales():
    sampler = calib.Sampler()
    # Two chunks inside [0, 10], at half and at the reference speed, one after.
    sampler.starts, sampler.ends = [2.0, 6.0, 11.0], [2.5, 6.25, 11.5]
    sampler.factors = [0.5, 1.0, 3.0]
    assert sampler.ref_seconds(0.0, 10.0) == (10.0 - 0.75) * 0.75
    # An interval holding no chunk takes the nearest one on each side.
    assert sampler.ref_seconds(7.0, 9.0) == 2.0 * 2.0


def test_sampler_samples_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with calib.Sampler(0.005) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            calib.chunk()
        t1 = time.perf_counter()
    assert len(sampler.factors) >= 5
    assert 0 < sampler.ref_seconds(t0, t1)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
