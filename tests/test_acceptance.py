"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import itertools
import json
import pathlib
import random
import time
from fractions import Fraction

import pytest

from cli_runner import invoke
from rep_oracle import action
from ternalg.catalog import (
    fil4,
    fil4_adjoint,
    fil4_symplectic,
    gl2_trace,
    r_int,
    trunc,
)
from ternalg.constructions import (
    direct_sum,
    fix_slot_bracket,
    subadjacent_ternary_fmanifold,
    symmetrize_zinbiel,
    tensor_with_comm_assoc,
    trace_induced,
)
from ternalg.linalg import InterMap, Matrix, Tensor, Vec, invert
from ternalg.operators import (
    BilinearForm,
    check_cyclic_2cocycle,
    check_nijenhuis,
    check_relative_rb,
    check_symplectic,
    deform,
    induced_pre_fmanifold,
    induced_rep_on_A,
    induced_zinbiel,
    lift_nijenhuis,
)
from ternalg.representations import (
    BiRep,
    RepBundle,
    adjoint_rep,
    check_coherence,
    check_representation,
    dual_rep,
    l1,
    l2,
    l3,
    semidirect,
)
from ternalg.structures import (
    IDENTITIES,
    AlgebraBundle,
    check_axioms,
    check_homomorphism,
    eval_defect,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# structure checks that passed in criteria 1-8, sampled again in criterion 9
PASSING = {}


def record(label, bundle, report):
    assert report.passed, f"{label}: {report.counterexamples[:1]}"
    PASSING[label] = (bundle, report.checked_identities)


def done(n, text):
    print(f"ACCEPTANCE criterion {n}: PASS ({text})")


def test_c01_fil4_three_lie():
    start = time.perf_counter()
    report = check_axioms("3-lie", fil4())
    elapsed = time.perf_counter() - start
    assert report.passed
    assert report.tuple_count == 4**3 + 4**5  # skew scan + 1024 fundamental tuples
    assert elapsed < 1.0
    record("fil4/3-lie", fil4(), report)
    done(1, f"fil4 3-Lie in {elapsed * 1000:.0f} ms")


def test_c02_closure_suite():
    start = time.perf_counter()
    ds = direct_sum(fil4(), trunc(3))
    r_ds = check_axioms("ternary-f-manifold", ds)
    tp = tensor_with_comm_assoc(fil4(), trunc(2))
    r_tp = check_axioms("ternary-f-manifold", tp)
    fx = fix_slot_bracket(fil4(), Vec.basis(4, 3))
    r_fx = check_axioms("f-manifold", fx)
    g, tau = gl2_trace()
    ti = trace_induced(g, tau)
    r_ti = check_axioms("3-lie", ti)
    elapsed = time.perf_counter() - start
    assert ds.dim == 7 and tp.dim == 8
    record("direct-sum/tfm", ds, r_ds)
    record("tensor/tfm", tp, r_tp)
    record("fix-slot/f-manifold", fx, r_fx)
    record("trace-induced/3-lie", ti, r_ti)
    assert elapsed < 30.0
    done(2, f"closure suite in {elapsed:.2f} s")


def _perturbed_adjoint(rng):
    adj = fil4_adjoint()
    i, j = rng.sample(range(4), 2)
    row, col = rng.randrange(4), rng.randrange(4)
    mats = [list(r) for r in adj.rho.mats]
    grid = [list(r) for r in mats[i][j].entries]
    grid[row][col] = grid[row][col] + Fraction(rng.randint(1, 3))
    mats[i][j] = Matrix(grid)
    if rng.random() < 0.5:
        mats[j][i] = -mats[i][j]
    rho = action(BiRep, mats)
    return RepBundle(algebra=adj.algebra, rho=rho, mu=adj.mu)


def test_c03_semidirect_iff():
    adj = fil4_adjoint()
    assert check_representation("ternary-fmanifold-rep", adj).passed
    sd = semidirect(adj)
    r_sd = check_axioms("ternary-f-manifold", sd)
    assert sd.dim == 8
    record("semidirect/tfm", sd, r_sd)
    rng = random.Random(2024)
    for k in range(5):
        bad = _perturbed_adjoint(rng)
        rep_report = check_representation("ternary-fmanifold-rep", bad)
        sd_report = check_axioms("ternary-f-manifold", semidirect(bad))
        assert not rep_report.passed, f"perturbation {k} unexpectedly passed rep check"
        assert not sd_report.passed, f"perturbation {k} semidirect passed structure check"
    done(3, "semidirect iff with 5 failing perturbations")


def test_c04_rota_baxter_pipeline():
    for n in (3, 4, 5):
        rep = adjoint_rep(trunc(n))
        t = r_int(n)
        assert check_relative_rb(t, rep).passed
        z = induced_zinbiel(t, rep)
        r_z = check_axioms("zinbiel", z)
        record(f"r_int{n}/zinbiel", z, r_z)
        sym = symmetrize_zinbiel(z)
        timg = [t.matrix.column(p) for p in range(n)]
        amb = trunc(n)
        for p, q in itertools.product(range(n), repeat=2):
            want = amb.mul(timg[p], amb.basis(q)) + amb.mul(timg[q], amb.basis(p))
            assert sym.mul(sym.basis(p), sym.basis(q)) == want
        pre = induced_pre_fmanifold(t, rep)
        r_pre = check_axioms("ternary-pre-f-manifold", pre)
        record(f"r_int{n}/pre-f-manifold", pre, r_pre)
        sub = subadjacent_ternary_fmanifold(pre)
        r_sub = check_axioms("ternary-f-manifold", sub)
        record(f"r_int{n}/sub-adjacent-tfm", sub, r_sub)
        assert check_homomorphism(t, sub, amb).passed
        e = pre.basis_vectors()
        for p, q in itertools.product(range(n), repeat=2):
            lhs = t.apply(pre.mul(e[p], e[q]) + pre.mul(e[q], e[p]))
            assert lhs == amb.mul(t.apply(e[p]), t.apply(e[q]))
        for p, q, s in itertools.product(range(n), repeat=3):
            cyc = (
                pre.br3(e[p], e[q], e[s])
                + pre.br3(e[q], e[s], e[p])
                + pre.br3(e[s], e[p], e[q])
            )
            assert t.apply(cyc) == amb.br3(t.apply(e[p]), t.apply(e[q]), t.apply(e[s]))
    done(4, "relative Rota-Baxter pipeline for n = 3, 4, 5")


def test_c05_nijenhuis_suite():
    t3 = trunc(3)
    mult_t = InterMap(
        Matrix.from_columns([t3.mul(t3.basis(1), t3.basis(k)) for k in range(3)])
    )
    candidates = [
        ("zero", InterMap.zero(3, 3)),
        ("identity", InterMap.identity(3)),
        ("2-identity", InterMap(Matrix.identity(3).scale(2))),
        ("mult-by-t", mult_t),
    ]
    for name, nop in candidates:
        assert check_nijenhuis(nop, t3).passed, name
        out = deform(nop, t3)
        r_out = check_axioms("ternary-f-manifold", out)
        record(f"deform-{name}/tfm", out, r_out)
    rng = random.Random(99)
    bad = InterMap(Matrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]))
    report = check_nijenhuis(bad, t3)
    assert not report.passed
    assert len(report.counterexamples[0].indices) == 2  # a basis pair
    done(5, "Nijenhuis family accepted, random candidate rejected with a pair")


def test_c06_lift_and_induced_rep():
    rep = adjoint_rep(trunc(3))
    t = r_int(3)
    nt = lift_nijenhuis(t, rep)
    assert (nt.matrix @ nt.matrix).is_zero()
    sd = semidirect(rep)
    assert check_nijenhuis(nt, sd).passed
    rep_a = induced_rep_on_A(t, rep)
    assert check_representation("ternary-fmanifold-rep", rep_a).passed

    # block-expansion: deform(N_T, semidirect) equals the induced operations
    deformed = deform(nt, sd)
    alg_v = subadjacent_ternary_fmanifold(induced_pre_fmanifold(t, rep))
    n = m = 3

    expected_product = {}  # (i, j, k) -> constant; later writes win, as on a dense array
    for p, q in itertools.product(range(m), repeat=2):
        w = alg_v.mul(alg_v.basis(p), alg_v.basis(q))
        for k in range(m):
            expected_product[n + p, n + q, n + k] = w[k]
    for p, i in itertools.product(range(m), range(n)):
        w = rep_a.mu.mats[p].column(i)
        for k in range(n):
            expected_product[n + p, i, k] = w[k]
            expected_product[i, n + p, k] = w[k]
    assert deformed.product == Tensor(n + m, 3, expected_product)

    expected_bracket = {}
    for p, q, s in itertools.product(range(m), repeat=3):
        w = alg_v.br3(alg_v.basis(p), alg_v.basis(q), alg_v.basis(s))
        for k in range(m):
            expected_bracket[n + p, n + q, n + s, n + k] = w[k]
    for p, q, i in itertools.product(range(m), range(m), range(n)):
        w = rep_a.rho.mats[p][q].column(i)
        for k in range(n):
            expected_bracket[n + p, n + q, i, k] = w[k]      # [u,v,x] -> rho_T(u,v)x
            expected_bracket[n + q, i, n + p, k] = -w[k]     # [v,x,u] = -[v,u,x]
            expected_bracket[i, n + p, n + q, k] = w[k]      # [x,u,v] -> rho_T(u,v)x
    assert deformed.bracket == Tensor(n + m, 4, expected_bracket)
    done(6, "N_T lift, induced representation, block expansion")


def test_c07_dual_and_coherence():
    adj = fil4_adjoint()
    dd = dual_rep(dual_rep(adj))
    assert dd.mu.mats == adj.mu.mats
    assert dd.rho.mats == adj.rho.mats

    co = dual_rep(adj)
    a = adj.algebra
    e = a.basis_vectors()
    vb = [Vec.basis(4, p) for p in range(4)]

    def mat(fn, rep, x, y, z):
        return Matrix.from_columns([fn(rep, x, y, z, u) for u in vb])

    for idx in itertools.product(range(4), repeat=3):
        x, y, z = (e[i] for i in idx)
        assert mat(l1, co, x, y, z) == mat(l1, adj, x, y, z).T
        assert mat(l2, co, x, y, z) == -mat(l3, adj, x, y, z).T

    r_coh = check_coherence(a)
    record("fil4/coherence", a, r_coh)
    assert check_representation("ternary-fmanifold-rep", co).passed
    done(7, "dual involution, pairing identities, coherence, coadjoint")


def test_c08_symplectic_suite():
    z2 = AlgebraBundle(2, product=Tensor(2, 3, {}), bracket=Tensor(2, 4, {}))
    B = BilinearForm(Matrix([[0, 1], [-1, 0]]))
    assert check_cyclic_2cocycle(B, z2).passed
    assert check_symplectic(B, z2).passed
    co = dual_rep(adjoint_rep(z2))
    sharp_inv = InterMap(invert(B.musical()))
    assert check_relative_rb(sharp_inv, co).passed
    from ternalg.operators import symplectic_induced_pre

    out = symplectic_induced_pre(B, z2)
    r_out = check_axioms("ternary-pre-f-manifold", out)
    record("symplectic-z2/pre-f-manifold", out, r_out)
    sub = subadjacent_ternary_fmanifold(out)
    assert sub.product == z2.product and sub.bracket == z2.bracket

    # the same pipeline with a nonzero bracket
    f = fil4()
    Bf = fil4_symplectic()
    assert check_cyclic_2cocycle(Bf, f).passed
    assert check_symplectic(Bf, f).passed
    cof = dual_rep(adjoint_rep(f))
    assert check_relative_rb(InterMap(invert(Bf.musical())), cof).passed
    outf = symplectic_induced_pre(Bf, f)
    r_outf = check_axioms("ternary-pre-f-manifold", outf)
    record("symplectic-fil4/pre-f-manifold", outf, r_outf)
    subf = subadjacent_ternary_fmanifold(outf)
    assert subf.product == f.product and subf.bracket == f.bracket

    # the cocycle counterexample on trunc(2)
    t2 = trunc(2)
    report = check_cyclic_2cocycle(B, t2)
    assert not report.passed
    ce = report.counterexamples[0]
    one, t = t2.basis(0), t2.basis(1)
    hand = (
        B.value(t2.mul(one, t), one)
        + B.value(t2.mul(t, one), one)
        + B.value(t2.mul(one, one), t)
    )
    assert hand == Fraction(-1)
    args = tuple(t2.basis(i) for i in ce.indices)
    direct = (
        B.value(t2.mul(args[0], args[1]), args[2])
        + B.value(t2.mul(args[1], args[2]), args[0])
        + B.value(t2.mul(args[2], args[0]), args[1])
    )
    assert Vec([direct]) == ce.residual
    done(8, "symplectic pipeline on the zero algebra and fil4; cocycle rejection")


def test_c09_basis_sufficiency_sampling():
    assert PASSING, "criteria 1-8 must run first"

    def rand_vec(rng, n):
        return Vec([Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)])

    import zlib

    for label, (bundle, identities) in sorted(PASSING.items()):
        rng = random.Random(zlib.crc32(label.encode()))
        for name in identities:
            arity = IDENTITIES[name].arity
            for _ in range(100):
                args = tuple(rand_vec(rng, bundle.dim) for _ in range(arity))
                d = eval_defect(name, bundle, args)
                assert d.is_zero(), (label, name)
    done(9, f"100 random tuples x {sum(len(i) for _, i in PASSING.values())} "
            f"identity lists over {len(PASSING)} passing checks")


def test_c10_cli_contract(tmp_path):
    from ternalg.schema import document_to_obj, dumps, parse_document

    # round-trip on every fixture
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        doc, _ = parse_document(text)
        again = dumps(
            document_to_obj(doc.bundle, rep=doc.rep, maps=doc.maps or None,
                            form=doc.form)
        )
        assert again == text, path.name

    # exit codes
    assert invoke("check", "--kind", "3-lie", FIXTURES / "fil4.json").exit_code == 0
    broken = json.loads((FIXTURES / "fil4.json").read_text())
    broken["bracket"][0]["value"] = "2"
    bp = tmp_path / "broken.json"
    bp.write_text(json.dumps(broken))
    assert invoke("check", "--kind", "3-lie", bp).exit_code == 1
    mp = tmp_path / "malformed.json"
    mp.write_text("{")
    assert invoke("check", "--kind", "3-lie", mp).exit_code == 2

    # determinism: two runs on every fixture with an applicable check
    for path in sorted(FIXTURES.glob("*.json")):
        doc, _ = parse_document(path.read_text())
        kind = "3-lie" if doc.bundle.bracket is not None else "comm-assoc"
        outs = [invoke("check", "--kind", kind, path).stdout for _ in range(2)]
        assert outs[0] == outs[1], path.name

    # end-to-end derive -> check pipelines
    sd = tmp_path / "sd.json"
    assert invoke("derive", "semidirect", FIXTURES / "fil4_adjoint.json",
                  "-o", sd).exit_code == 0
    assert invoke("check", "--kind", "ternary-f-manifold", sd).exit_code == 0
    ti = tmp_path / "ti.json"
    assert invoke("derive", "trace-induce", FIXTURES / "gl2_trace.json",
                  "-o", ti).exit_code == 0
    assert invoke("check", "--kind", "3-lie", ti).exit_code == 0
    done(10, "round-trip, exit codes, determinism, derive pipelines")
