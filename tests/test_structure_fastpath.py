"""The generated integer sweeps against the dense exact oracle.

`check_axioms` and `check_coherence` scan on integer-rescaled sparse tables
with loops generated from each identity's data; `structure_oracle` states
every identity as a hand-written dense `Fraction` formula.  Their reports
must be equal: verdict, counterexample indices and residuals, and
`tuple_count`.  The integer path is sound because every map's generated
scan is one integer L times its exact value, which is checked here for every
map of every registry on random rational tensors.
"""

import hashlib
import itertools
import logging
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest

import structure_oracle as oracle
from rep_oracle import action
from ternalg import schema
from ternalg.catalog import (
    _alternating_tensor4,
    fil4,
    fil4_adjoint,
    fil4_rb,
    gl2_trace,
    heisenberg_trace,
    r_int,
    trunc,
)
from ternalg.constructions import direct_sum, tensor_with_comm_assoc
from ternalg.errors import DimensionMismatch, InternalError
from ternalg.linalg import Matrix, Tensor, Vec, nested_rows
from ternalg.operators import check_relative_rb, induced_pre_fmanifold
from ternalg.representations import (
    REP_CONDITIONS,
    BiRep,
    LinRep,
    RepBundle,
    adjoint_rep,
    check_coherence,
    check_representation,
    fix_slot_rep,
    l1,
    semidirect,
)
from ternalg import structures
from ternalg.structures import (
    IDENTITIES,
    KINDS,
    AlgebraBundle,
    Counterexample,
    StructureKind,
    check_axioms,
    eval_defect,
    f1,
    f2,
    k_op,
    leibnizator2,
    leibnizator3,
    run_conditions,
)

KS = (1, 5, 100)
# every tensor of a random bundle gets non-unit denominators only
DENS = {"product": (2, 3), "bracket": (5, 4), "binary_bracket": (7, 3)}


def rand_q(rng, dens, density):
    if rng.random() > density:
        return 0
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.choice(dens))


def random_bundle(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3, 3))
    density = rng.choice((0.1, 0.25, 0.6))

    def tensor(order, dens):  # one draw per cell, in index order
        cells = list(itertools.product(range(n), repeat=order))
        t = Tensor(n, order, {idx: rand_q(rng, dens, density) for idx in cells})
        if t.is_zero():
            t = Tensor(n, order, {idx: Fraction(int(sum(idx) == 1), dens[0]) for idx in cells})
        return t

    return AlgebraBundle(n, product=tensor(3, DENS["product"]),
                         bracket=tensor(4, DENS["bracket"]),
                         binary_bracket=tensor(3, DENS["binary_bracket"]))


def scaled(b, lam=Fraction(2, 3), mu=Fraction(3, 5), nu=Fraction(5, 7)):
    """b with product, bracket and binary bracket times lam, mu and nu: every
    identity is homogeneous in each tensor, so verdicts do not change."""
    return AlgebraBundle(b.dim, product=_rebuild(b.product, lam),
                         bracket=_rebuild(b.bracket, mu),
                         binary_bracket=_rebuild(b.binary_bracket, nu))


def _rebuild(t, c):
    if t is None:
        return None
    return Tensor(t.dim, t.order, {k: c * v for k, v in t.nonzeros()})


def perturb(b, rng, slot=None):
    """Add a non-unit rational to one orbit of one tensor (a random one by
    default), keeping the symmetry (product) or skew symmetry (brackets), so
    failures land past the comm and skew identities."""
    n = b.dim
    q = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((2, 3, 7)))
    slots = [s for s in ("product", "bracket", "binary_bracket") if getattr(b, s) is not None]
    slot = slot or rng.choice(slots)
    t = getattr(b, slot)
    nz = dict(t.nonzeros())
    if slot == "bracket":
        i, j, k = sorted(rng.sample(range(n), 3))
        l = rng.randrange(n)
        orbit = _alternating_tensor4(n, {(i, j, k): {l: q}}).nonzeros()
    else:
        i, j, l = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        sign = 1 if slot == "product" else -1
        orbit = [((i, j, l), q), ((j, i, l), sign * q)] if i != j or sign == 1 else []
        if i == j:
            orbit = orbit[:1]
    for key, v in orbit:
        nz[key] = nz.get(key, 0) + v
    tensors = {s: getattr(b, s) for s in ("product", "bracket", "binary_bracket")}
    tensors[slot] = Tensor(n, t.order, nz)
    return AlgebraBundle(n, **tensors)


KIND_LABELS = {k.value for k in StructureKind}


def kinds():
    return [(k.value, KINDS[k.value]) for k in StructureKind]


def check(label, names, b, k):
    """The structure kind `label`'s check of b, or the scan of the named
    identities as a test kind of their own."""
    if label in KIND_LABELS:
        return check_axioms(label, b, max_counterexamples=k)
    with mock.patch.dict(KINDS, {label: tuple(names)}):
        return run_conditions(label, b, k)


SLOT_OF = {"mul": "product", "br3": "bracket", "br2": "binary_bracket"}


def assert_agrees(b, label, names):
    if any(getattr(b, SLOT_OF[t]) is None for n in names for t in IDENTITIES[n].tensors):
        return None
    expected = oracle.reports(b, names, label, KS)
    for k in KS:
        assert check(label, names, b, k) == expected[k], (label, k)
    return expected[max(KS)]


# -- random rational bundles -------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_random_bundles_every_kind(seed):
    b = random_bundle(seed)
    for label, names in kinds():
        assert_agrees(b, label, names)


@pytest.mark.parametrize("seed", range(6, 12))
def test_random_bundles_each_identity_alone(seed):
    b = random_bundle(seed)
    verdicts = set()
    for name in IDENTITIES:
        verdicts.add(assert_agrees(b, name, (name,)).passed)
    assert False in verdicts


# -- near-misses of catalog passes -------------------------------------------------

def noncoherent_tfm(prod, gens):
    """A 4-dimensional ternary F-manifold algebra that is not coherent."""
    return AlgebraBundle(4, product=Tensor(4, 3, prod),
                         bracket=_alternating_tensor4(4, gens))


NONCOHERENT_A = ({(0, 0, 1): 1, (0, 1, 2): 2, (1, 0, 2): 2}, {(0, 2, 3): {2: 1}})
NONCOHERENT_B = ({(0, 0, 1): 1, (0, 1, 2): -1, (1, 0, 2): -1},
                 {(0, 1, 3): {3: -1}, (0, 2, 3): {3: -1}})

PASSES = {
    "fil4": (fil4, ("3-lie", "ternary-f-manifold", "ternary-nambu-poisson", "coherence")),
    "trunc3": (lambda: AlgebraBundle(3, product=trunc(3).product, bracket=Tensor(3, 4, {})),
               ("comm-assoc", "ternary-f-manifold", "coherence")),
    "gl2": (lambda: gl2_trace()[0], ("lie", "f-manifold")),
    "heisenberg": (lambda: heisenberg_trace()[0], ("lie", "f-manifold")),
    "pre_fil4": (lambda: induced_pre_fmanifold(fil4_rb(), fil4_adjoint()),
                 ("3-pre-lie", "ternary-pre-f-manifold")),
    "pre_r_int3": (lambda: induced_pre_fmanifold(r_int(3), adjoint_rep(trunc(3))),
                   ("zinbiel", "ternary-pre-f-manifold")),
    "tfm_noncoherent": (lambda: noncoherent_tfm(*NONCOHERENT_A), ("ternary-f-manifold",)),
}


@pytest.mark.parametrize("case", sorted(PASSES))
def test_near_misses_of_catalog_passes(case):
    build, passing = PASSES[case]
    base = scaled(build())
    for label in passing:
        assert check(label, None, base, 1).passed, label
    rng = random.Random(case)
    failed = set()
    for _ in range(2):
        b = perturb(base, rng)
        for label, names in kinds():
            report = assert_agrees(b, label, names)
            if report is not None and label in passing and not report.passed:
                failed.add(label)
    assert failed, "no perturbation broke a passing kind"


def test_noncoherent_tfm_fails_only_coherence():
    b = scaled(noncoherent_tfm(*NONCOHERENT_A))
    assert check_axioms("ternary-f-manifold", b).passed
    report = assert_agrees(b, "coherence", KINDS["coherence"])
    assert {ce.identity for ce in report.counterexamples} <= {"coh1", "coh2", "coh3"}
    assert len(report.counterexamples) == 10


def test_n6_direct_sum_against_oracle():
    # n = 6 gives 7,776 quintic tuples: rank order and the tuple count past
    # the small bundles above
    base = direct_sum(scaled(fil4()), scaled(trunc(2)))
    b = perturb(base, random.Random(3), "bracket")
    for label in ("3-lie", "ternary-f-manifold"):
        report = assert_agrees(b, label, KINDS[label])
        assert not report.passed


def test_exact_evaluators_match_oracle():
    rng = random.Random(7)
    b = random_bundle(7)
    for _ in range(5):
        x = [Vec([rand_q(rng, (1, 2, 3), 0.7) for _ in range(b.dim)]) for _ in range(5)]
        assert leibnizator3(b, *x[:4]) == oracle.SUBMAPS["leib3"](b, *x[:4])
        assert leibnizator2(b, *x[:3]) == oracle.SUBMAPS["leib2"](b, *x[:3])
        assert k_op(b, *x[:4]) == oracle.SUBMAPS["kmap"](b, *x[:4])
        assert f1(b, *x[:4]) == oracle.SUBMAPS["f1"](b, *x[:4])
        assert f2(b, *x[:4]) == oracle.SUBMAPS["f2"](b, *x[:4])
        for name, i in IDENTITIES.items():
            assert eval_defect(name, b, x[:i.arity]) == oracle.FORMULAS[name](b, *x[:i.arity])


# -- the n = 8 coherence near-miss -------------------------------------------------

# sha256 of schema.dumps(report_to_obj(...)) for k = 1, 5, 100, and tuple_count
PINNED_N8 = {
    1: (66817, "943dd3ecdf28fa58936d70f3627406c1f229886252a1c4ed0827590def132e22"),
    5: (86885, "3a7cc30e550055e48b72bcdbeef15764929c384fc98e18403e7402fbbf6525a8"),
    100: (164928, "b3567bca27e63d5e3e9e8c00015aa9490a7440ad7e09ece80b166bff6c63f3b5"),
}


def coherence_near_miss_n8():
    """Two scaled non-coherent 4-dimensional ternary F-manifold algebras side
    by side: every ternary F-manifold identity holds, coh1-coh3 do not."""
    a = scaled(noncoherent_tfm(*NONCOHERENT_A), Fraction(2, 3), Fraction(3, 5))
    b = scaled(noncoherent_tfm(*NONCOHERENT_B), Fraction(-1, 2), Fraction(5, 7))
    return direct_sum(a, b)


def test_pinned_n8_coherence_near_miss():
    b = coherence_near_miss_n8()
    assert b.dim == 8
    assert check_axioms("ternary-f-manifold", b).passed
    for k, (count, digest) in PINNED_N8.items():
        report = check_coherence(b, max_counterexamples=k)
        text = schema.dumps(schema.report_to_obj(report))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, k
        assert report.tuple_count == count
    assert {ce.identity for ce in report.counterexamples} == {"coh1", "coh2", "coh3"}
    assert len(report.counterexamples) == 20
    for ce in report.counterexamples:
        assert ce.residual == oracle.residual(ce.identity, b, ce.indices)


# -- contraction against tuple scan on failing inputs ------------------------------

def sd_near_miss():
    """semidirect(adjoint_rep(fil4)) with a non-unit rational added to one
    alternating bracket orbit, as the benchmark builds its near-misses."""
    return perturb(semidirect(adjoint_rep(fil4())), random.Random(0), "bracket")


def tfm4_trunc4():
    """n = 16, with a product (30 nonzeros) and bracket (120) that interact."""
    return tensor_with_comm_assoc(noncoherent_tfm(*NONCOHERENT_A), trunc(4))


FAILING = {
    "sd_near_miss": (sd_near_miss, "ternary-f-manifold"),
    "sd_near_miss_coherence": (sd_near_miss, "coherence"),
    "tfm4_scaled": (lambda: scaled(noncoherent_tfm(*NONCOHERENT_A)), "coherence"),
    "tfm4_trunc4": (tfm4_trunc4, "coherence"),
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_failure_reports_equal_on_both_paths(case):
    """Forced to either path, a failing check gives the same report: the
    counterexamples in order, their residuals and the tuple count."""
    build, label = FAILING[case]
    for k in (1, 3, 100):
        tuples, contract = (check(label, None, forced(build(), path), k) for path in PATHS)
        assert not tuples.passed
        assert contract == tuples, k


def _shifted(report, offset, pad, lead):
    """report's counterexamples with each index moved up by offset and each
    residual padded with pad zeros, before its coordinates if lead."""
    zeros = (0,) * pad
    return tuple(Counterexample(ce.identity, tuple(i + offset for i in ce.indices),
                                Vec(zeros + ce.residual.entries if lead
                                    else ce.residual.entries + zeros))
                 for ce in report.counterexamples)


@pytest.mark.parametrize("near_miss", ["sd_near_miss", "tfm4_scaled"])
def test_a_direct_sum_fails_as_its_failing_summand(near_miss):
    """No oracle, n = 12-16: A passes every kind here, so on either forced
    path and at every k, A (+) B has B's verdict, checked identities and
    counterexamples, their indices moved up by A's dim and their residuals
    led by its zeros, and B (+) A the same with trailing zeros.  Every
    counterexample's residual is re-checked exactly at n = 12-16."""
    a = semidirect(adjoint_rep(fil4()))
    b, failed = FAILING[near_miss][0](), set()
    for kind in ("ternary-f-manifold", "coherence", "3-lie"):
        for k in KS:
            want = check_axioms(kind, b, max_counterexamples=k)
            failed.update(ce.identity for ce in want.counterexamples)
            for path in PATHS:
                for first, offset in ((a, a.dim), (b, 0)):
                    pair = (a, b) if first is a else (b, a)
                    got = check_axioms(kind, forced(direct_sum(*pair), path), max_counterexamples=k)
                    assert (got.passed, got.checked_identities) == \
                        (want.passed, want.checked_identities), (kind, k, path)
                    assert got.counterexamples == _shifted(want, offset, a.dim, first is a)
    assert failed


def test_plan_and_contraction_debug_lines(caplog, monkeypatch):
    monkeypatch.setattr(structures, "_COMPILED", {})
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        report = check_coherence(forced(scaled(noncoherent_tfm(*NONCOHERENT_A)), "contract"),
                                 max_counterexamples=3)
    text = [r.getMessage() for r in caplog.records]
    assert any(t.startswith("generated contraction for coh1:\ndef make(") for t in text)
    assert any(t.startswith("plan coh1, dim 4: contraction (forced); contraction of ")
               for t in text)
    assert any(t.startswith("built leib3 table, dim 4:") and " by contraction in " in t
               for t in text)
    # the budget of three fills in coh1's contraction, at its 769th tuple
    assert [ce.identity for ce in report.counterexamples] == ["coh1"] * 3
    assert "scan coh1: contraction; 4 contributions made, 769 of 1024 tuples covered" in text
    # a budget of two fills at the 193rd tuple, in the chunk x0 = 0, and the
    # contraction stops there: no later chunk is made or counted
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        check_coherence(forced(scaled(noncoherent_tfm(*NONCOHERENT_A)), "contract"),
                        max_counterexamples=2)
    assert "scan coh1: contraction; 3 contributions made, 193 of 1024 tuples covered" in [
        r.getMessage() for r in caplog.records]


def test_plan_counts_the_full_range_when_the_certificate_cannot_apply(caplog):
    """sd with one bracket entry whose skew images are missing: skew3 fails,
    so fundamental's certificate is unused, and the sweep's plan counts
    every tuple."""
    sd = semidirect(adjoint_rep(fil4()))
    bracket = dict(sd.bracket.nonzeros())
    bracket[(0, 1, 2, 3)] = bracket.get((0, 1, 2, 3), 0) + Fraction(1, 2)
    b = forced(AlgebraBundle(8, product=sd.product, bracket=Tensor(8, 4, bracket)), "tuples")
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        report = check_axioms("ternary-f-manifold", b, max_counterexamples=100)
    text = [r.getMessage() for r in caplog.records]
    assert "skew3" in {ce.identity for ce in report.counterexamples}
    assert any(t.startswith("plan fundamental, dim 8: tuple scan (forced); ")
               and ", tuple scan of 32768 tuples ~" in t for t in text)
    assert any(t.startswith("scan fundamental: full range, certified ") for t in text)


# -- the planner, under the cost model each test sets ------------------------------

# The constants the planner tests below assume, those tools/plan_costs.py
# fitted, with the 40 ms margin.  Each test sets them itself (`costs`), so a
# refit or a new margin in `structures` changes the plans only there.
COSTS = {"_TUPLE_COST": 1.1, "_TERM_COST": 0.6, "_STEP_COST": 1.4, "_CHUNK_COST": 10,
         "_PROBE_COST": 2, "_CONTRIBUTION_COST": 4, "_MARGIN": 4 * 10 ** 5}

PLAN_LINE = re.compile(r"plan (\S+), [^:]+: (contraction|tuple scan)( \(forced\))?; "
                       r"contraction of (\d+) contributions ~([\d.]+) ms, "
                       r"tuple scan of (\d+) tuples ~([\d.]+) ms")


@pytest.fixture
def costs(monkeypatch):
    for name, value in COSTS.items():
        monkeypatch.setattr(structures, name, value)


def assert_plans_follow_their_estimates(lines):
    """Each unforced plan among the debug lines, made under `COSTS`, that
    estimates both paths takes the contraction exactly when its estimate,
    plus the margin, is below the tuple scan's; returns those plans' (map,
    path) pairs."""
    chosen = []
    for line in lines:
        hit = PLAN_LINE.fullmatch(line)
        if hit and not hit[3]:
            contract, scan = float(hit[5]), float(hit[7])
            assert (hit[2] == "contraction") == (contract + COSTS["_MARGIN"] / 1e4 < scan), line
            chosen.append((hit[1], hit[2]))
    return chosen


def test_planner_debug_lines(caplog, costs):
    """Under `COSTS`, coh1 at n = 4 stays on the tuple scan unestimated; at
    n = 16 the 67,200 representatives of fundamental cost under the margin,
    and the planner estimates both paths for hm3 and contracts it."""
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        check_coherence(scaled(noncoherent_tfm(*NONCOHERENT_A)))
        check_axioms("ternary-f-manifold", tfm4_trunc4())
    text = [r.getMessage() for r in caplog.records]
    assert "plan coh1, dim 4: tuple scan; 640 tuples ~0.186 ms before their steps, " \
        "within the margin" in text
    assert any(t.startswith("plan fundamental, dim 16: tuple scan; 67200 tuples ~")
               for t in text)
    assert ("hm3", "contraction") in assert_plans_follow_their_estimates(text)
    assert any(t.startswith("scan hm3: contraction; ") for t in text)


def test_within_the_margin_rests_on_a_contribution_costing_a_step_or_more():
    """`_plan` keeps the sweep, unestimated, when its per-tuple costs alone
    are within the margin.  That is sound while a contribution costs at
    least a step: for c contributions, contract >= CONTRIBUTION * c >=
    STEP * c >= the cost of the sweep's steps, so the contraction cannot
    save more than the per-tuple costs."""
    assert structures._CONTRIBUTION_COST >= structures._STEP_COST


def test_plan_takes_the_contraction_only_past_the_margin(monkeypatch):
    """With a tuple costing 1, a chunk 1 and nothing else, the contraction
    of fundamental on fil4 costs its 4 chunks: it is taken only when it
    saves more than the margin of 10."""
    for name in ("_TERM_COST", "_STEP_COST", "_PROBE_COST", "_CONTRIBUTION_COST"):
        monkeypatch.setattr(structures, name, 0)
    for name, value in (("_TUPLE_COST", 1), ("_CHUNK_COST", 1), ("_MARGIN", 10)):
        monkeypatch.setattr(structures, name, value)
    ops = structures._ops(fil4())
    picks = [structures._plan(ops, IDENTITIES["fundamental"], rows) for rows in (10, 14, 15)]
    assert picks == [False, False, True]


def changed_basis(b, p):
    """b in the basis f_a = sum_i p[i][a] e_i, p upper unitriangular."""
    n = b.dim
    q = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]  # p's inverse
    for j in range(n):
        for i in range(j - 1, -1, -1):
            q[i][j] = -sum((p[i][k] * q[k][j] for k in range(i + 1, j + 1)), Fraction(0))
    cols = [[(a, p[i][a]) for a in range(n) if p[i][a]] for i in range(n)]

    def change(t):
        out = {}
        for (*ins, k), v in t.nonzeros():
            for choice in itertools.product(*(cols[i] for i in ins)):
                w = v
                for _, c in choice:
                    w *= c
                head = tuple(a for a, _ in choice)
                for c in range(n):
                    if q[c][k]:
                        out[head + (c,)] = out.get(head + (c,), 0) + w * q[c][k]
        return Tensor(n, t.order, {k: v for k, v in out.items() if v})

    return AlgebraBundle(n, product=change(b.product), bracket=change(b.bracket))


def dense(b):
    """b after a change of basis with entries 1, 7 and 9 places right of the
    diagonal: an isomorphic copy whose tables fill up."""
    n = b.dim
    return changed_basis(b, [[Fraction((-1) ** (i + j), 1 + i * j % 3) if j - i in (1, 7, 9)
                              else Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def _planned(ops, names, name):
    """`_plan` for the identity `name` as the run over `names` reaches it,
    every identity before it having passed."""
    m = IDENTITIES[name]
    assumable = tuple(a for a in names[:names.index(name)] if a in structures._SYMMETRY_OF)
    sizes = structures._shape(ops, m)[0]
    rows = structures._representative_count(sizes, structures._certificate(m, assumable).blocks)
    return structures._plan(ops, m, rows)


def test_planner_on_dense_input(caplog, costs):
    """On sd2 after a dense change of basis, fundamental's representatives
    cost under the margin and the zero product leaves hm3 and coh1-coh3
    nothing to contract.  Where a dense product and bracket interact, the
    estimates keep hm3 and coh1 on the tuple scan: their contractions would
    make over 30 million contributions."""
    sd = semidirect(adjoint_rep(fil4()))
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        b = dense(direct_sum(sd, sd))
        assert check_axioms("ternary-f-manifold", b).passed
        assert check_coherence(b).passed
    text = [r.getMessage() for r in caplog.records]
    assert any(t.startswith("plan fundamental, dim 16: tuple scan; 67200 tuples ~")
               and t.endswith("within the margin") for t in text)
    for name in ("hm3", "coh1", "coh2", "coh3"):
        assert any(t.startswith(f"plan {name}, dim 16: contraction; contraction of 0 "
                                "contributions") for t in text), name
    assert set(assert_plans_follow_their_estimates(text)) == {
        (name, "contraction") for name in ("hm3", "coh1", "coh2", "coh3")}
    caplog.clear()
    b = dense(tfm4_trunc4())
    ops = structures._ops(b)
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        assert not _planned(ops, KINDS["ternary-f-manifold"], "hm3")
        assert not _planned(ops, KINDS["coherence"], "coh1")
    plans = [r.getMessage() for r in caplog.records if r.getMessage().startswith("plan ")]
    assert [t.split(";")[0] for t in plans] == [
        "plan leib3, dim 16: tuple scan", "plan hm3, dim 16: tuple scan",
        "plan coh1, dim 16: tuple scan"]
    assert plans[0].endswith("within the margin")
    assert assert_plans_follow_their_estimates(plans) == [("hm3", "tuple scan"),
                                                          ("coh1", "tuple scan")]
    for t in plans[1:]:
        assert int(t.split("contraction of ")[1].split()[0]) > 30_000_000, t


# the watched inputs: paper scale, sparse at n = 8 and 16, a product and
# bracket that interact at n = 16, and dense at n = 8
WATCHED = {
    "fil4": fil4,
    "sd": lambda: semidirect(adjoint_rep(fil4())),
    "sd2": lambda: direct_sum(*[semidirect(adjoint_rep(fil4()))] * 2),
    "inter16": tfm4_trunc4,
    "dense(sd)": lambda: dense(semidirect(adjoint_rep(fil4()))),
}


def plans_made(monkeypatch, b):
    """{(ops, map, blocks): whether the map was contracted} for each plan
    the 3-lie, ternary-f-manifold and coherence checks of b and the
    ternary-fmanifold-rep check of its adjoint representation make, sub-map
    tables' included, as each is first made."""
    made = {}
    nonzeros = structures._nonzeros

    def spy(ops, m, blocks=()):
        found = nonzeros(ops, m, blocks)
        made.setdefault((ops, m, blocks), found[0] is not None)
        return found

    with monkeypatch.context() as patch:
        patch.setattr(structures, "_nonzeros", spy)
        for kind in ("3-lie", "ternary-f-manifold", "coherence"):
            check_axioms(kind, b)
        check_representation("ternary-fmanifold-rep", adjoint_rep(b))
    return made


def counted_sweep(ops, m, blocks, every=True):
    """m's generated sweep over the certified `blocks` on ops with each step,
    an update of the value, adding one instead: (t, the steps taken at t)
    for every tuple t it visits, or, unless `every`, for those at which it
    takes a step."""
    src, deps = structures._source(m, "sweep", blocks)
    src = re.sub(r"out\[l\] [+-]= .*", "out[l] += 1", src)
    if every:
        src = src.replace("if out != zero:", "if True:")
    make = structures._exec(src, m.name, "make")
    sweep = make(*structures._shape(ops, m), *(structures._table(ops, d) for d in deps))
    return [(t, sum(out)) for t, out in sweep()]


def counted_probes(ops, m):
    """The probes m's generated contraction on ops makes over every chunk:
    the lookups of one table's nonzeros by another's value, each counted in
    place of the contributions it yields."""
    src, deps = structures._source(m, "contract")
    src = src.replace("made += len(rows)", "pass").replace(".get(m, ())", ".get(m, ()); made += 1")
    make = structures._exec(src, m.name, "make")
    chunk = make(*(structures._groups(ops, op, q) for op, q in deps))
    return sum(chunk(x0)[1] for x0 in range(structures._shape(ops, m)[0][0]))


@pytest.mark.parametrize("case", ["fil4", "sd", "inter16", "dense(sd)"])
def test_plan_estimates_count_each_paths_work(case, monkeypatch):
    """`_plan` estimates both paths from counts, and these are the work each
    forced path does, for every plan the watched checks make: a sweep visits
    `_representative_count` tuples, a contraction makes `_contributions`
    probes and contributions, and a sweep over the whole range takes a step
    for each contribution."""
    for path in PATHS:
        plans = plans_made(monkeypatch, forced(WATCHED[case](), path))
        assert plans and set(plans.values()) == {path == "contract"}
        for ops, m, blocks in plans:
            probes, contributions = structures._contributions(ops, m)
            if path == "contract":
                made, nonzeros = structures._nonzeros(ops, m, blocks)
                for _ in nonzeros:
                    pass
                assert made == [contributions], m.name
                assert counted_probes(ops, m) == probes, m.name
                continue
            visits = counted_sweep(ops, m, blocks)
            sizes = structures._shape(ops, m)[0]
            assert len(visits) == structures._representative_count(sizes, blocks), m.name
            if not blocks:
                assert sum(steps for _, steps in visits) == contributions, m.name


# Loop work, counted in iterations and not weighted by the cost model: a
# sweep enters each term's loops at every tuple it visits and takes its
# steps; a contraction makes its chunks, probes and contributions.  A sound
# plan may take the path with more iterations, by up to the ratio of their
# costs per iteration, which is under 3 in every fit so far; and loop work
# under the floor, tens of milliseconds, is not judged.
WORK_FACTOR, WORK_FLOOR = 4, 5 * 10 ** 5


@pytest.mark.parametrize("case", sorted(WATCHED))
def test_planned_work_is_near_the_cheaper_paths(case, monkeypatch):
    """Under the constants in `structures`, whatever their fit, every plan
    the watched checks make takes a path whose loop work is within
    WORK_FACTOR of the other's, or under WORK_FLOOR.  Contracting dense
    input breaks this: fundamental's contraction on dense(sd) takes 940,184
    iterations, 13.5 times its sweep's; so does sweeping sd2's hm3, 887,808
    iterations against 16."""
    for (ops, m, blocks), contracted in plans_made(monkeypatch, WATCHED[case]()).items():
        sizes = structures._shape(ops, m)[0]
        probes, contributions = structures._contributions(ops, m)
        steps = sum(s for _, s in counted_sweep(ops, m, blocks, every=False))
        sweep = structures._representative_count(sizes, blocks) * len(m.terms) + steps
        contract = sizes[0] + probes + contributions
        planned, other = (contract, sweep) if contracted else (sweep, contract)
        assert planned <= max(WORK_FLOOR, WORK_FACTOR * other), (m.name, planned, other)


# -- identities as data: degrees, L times the exact value, the import-time checks ----

# each identity's degree in the product, bracket and binary bracket
DEGREES = {
    "comm": (1, 0, 0), "assoc": (2, 0, 0), "zinbiel": (2, 0, 0),
    "skew2": (0, 0, 1), "jacobi": (0, 0, 2),
    "skew3": (0, 1, 0), "fundamental": (0, 2, 0),
    "prelie3-skew": (0, 1, 0), "prelie3-a": (0, 2, 0), "prelie3-b": (0, 2, 0),
    "leibniz-np": (1, 1, 0), "hm2": (2, 0, 1), "hm3": (2, 1, 0),
    "prefm-1": (2, 1, 0), "prefm-11": (2, 1, 0), "prefm-2": (2, 1, 0),
    "prenp-1": (1, 1, 0), "prenp-2": (1, 1, 0),
    "coh1": (2, 1, 0), "coh2": (2, 1, 0), "coh3": (2, 1, 0),
}


def degrees(m, groups):
    """The factors of each term of m in each group of operations, with
    sub-maps expanded."""
    def degree(tree):
        if isinstance(tree, int):
            return (0,) * len(groups)
        op, args = tree
        own = tuple(int(op in g) for g in groups)
        return tuple(map(sum, zip(own, *map(degree, args))))

    return {degree(t) for _, term in m.terms for _, t in structures._expand(term)}


def test_degree_vectors_pinned():
    assert {name: degrees(i, ("mul", "br3", "br2")) for name, i in IDENTITIES.items()} == \
        {name: {d} for name, d in DEGREES.items()}
    assert IDENTITIES["hm2"].tensors == {"mul", "br2"}
    assert IDENTITIES["coh2"].tensors == {"mul", "br3"}
    assert IDENTITIES["fundamental"].tensors == {"br3"}
    for name, i in IDENTITIES.items():
        assert i.arity == oracle.arity(name)


def test_degrees_scale_each_identity_by_one_monomial():
    b = random_bundle(99)
    rng = random.Random(99)
    lam, mu, nu = Fraction(2), Fraction(3), Fraction(5)
    big = scaled(b, lam, mu, nu)
    for name, i in IDENTITIES.items():
        idx = tuple(rng.randrange(b.dim) for _ in range(i.arity))
        degree = DEGREES[name]
        factor = lam ** degree[0] * mu ** degree[1] * nu ** degree[2]
        assert oracle.residual(name, big, idx) == oracle.residual(name, b, idx).scale(factor)


PATHS = ("tuples", "contract")


def forced(b, path):
    """b with every plan made on its integer tables, and on the tables of
    representations and maps built over it, forced to `path`: b's tables
    must be new, since tables built already keep the plans they had."""
    assert structures._ops(b, path).path == path
    return b


def _all_tensor_owners(seed, path=None):
    """Owners of every tensor of `_SIGNATURES` with random non-unit
    denominators, each differing from the others': over a representation
    with rho a pair action, and over one with a single action (rho1)."""
    rng = random.Random(seed)
    n, m, n2 = 3, 2, 2

    def tensor(shape, dens):
        cells = list(itertools.product(*map(range, shape)))
        return Tensor(shape, [
            (idx, Fraction(rng.choice((-2, -1, 1, 2)), rng.choice(dens)))
            for idx in rng.sample(cells, (len(cells) + 1) // 2)])

    b = forced(AlgebraBundle(n, product=tensor((n,) * 3, (2, 3)),
                             bracket=tensor((n,) * 4, (5, 4)),
                             binary_bracket=tensor((n,) * 3, (7, 3))), path)

    def mats(count, dens):
        return tuple(Matrix([[rand_q(rng, dens, 0.6) for _ in range(m)] for _ in range(m)])
                     for _ in range(count))

    pair = RepBundle(algebra=b, rho=action(BiRep, tuple(mats(n, (3, 9)) for _ in range(n))),
                     mu=action(LinRep, mats(n, (11,))))
    single = RepBundle(algebra=b, rho=action(LinRep, mats(n, (13,))), mu=pair.mu)
    maps = {
        "T": tensor((m, n), (2, 5)), "Tinv": tensor((n, m), (43,)), "N": tensor((n, n), (17,)),
        "form": tensor((n, n, 1), (19, 3)), "tau": tensor((n, 1), (23,)),
        "smul": Tensor((1, n, n), [((0, i, i), 1) for i in range(n)]),
        "f": tensor((n, n2), (29,)), "mulB": tensor((n2,) * 3, (31,)),
        "br3B": tensor((n2,) * 4, (3, 37)), "br2B": tensor((n2,) * 3, (41,)),
    }
    return [structures._Maps(r, maps) for r in (pair, single)]


def integer_values(fast, m):
    """{tuple: {l: value}} over the nonzero integer values of the map m on
    fast, by the path forced there: a sub-map's from its table, in both
    forms, a condition's from `_nonzeros`, a sweep or a contraction."""
    sizes = [fast.sizes[s] for s in m.sorts]
    if m.name in structures._SUBMAPS:
        values = {}
        for e in structures._support(fast, m.name):
            values.setdefault(e[:-2], {})[e[-2]] = e[-1]
        rows = structures._table(fast, m.name)
        for t in itertools.product(*map(range, sizes)):
            row = rows
            for i in t:
                row = row[i]
            assert dict(row) == values.get(t, {}), (m.name, t)
        return values
    made, nonzeros = structures._nonzeros(fast, m)
    assert (made is not None) == (fast.path == "contract")
    # every list kept as it was yielded, so that a buffer reused shows
    yielded = list(nonzeros)
    assert [t for t, _ in yielded] == sorted(t for t, out in yielded if any(out))
    return {t: {l: v for l, v in enumerate(out) if v} for t, out in yielded}


def exact_values(owner, m, tuples):
    """L times m's exact value at each basis tuple, as {l: value}, L from
    `_multipliers` on owner's integer tables."""
    ops = structures._ops(owner)
    L = structures._multipliers(ops, m)[0]
    out = {}
    for t in tuples:
        units = [Vec.basis(ops.sizes[s], i) for s, i in zip(m.sorts, t)]
        out[t] = {l: L * v for l, v in enumerate(structures._evaluate(ops, m, units)) if v}
    return out


@pytest.mark.parametrize("seed", range(2))
def test_scan_is_L_times_the_exact_value(seed):
    """For every map of every registry, on either path, the generated scan
    or contraction (or sub-map table, built by either) on integer tables is
    L, from `_multipliers`, times the map's exact value, at every basis
    tuple; multipliers other than 1 occur.  A sub-map's structure constants,
    its integer table over its scale, are its exact value there."""
    maps = {**IDENTITIES, **REP_CONDITIONS, **structures.CONDITIONS, **structures._SUBMAPS}
    for path in PATHS:
        pair, single = _all_tensor_owners(seed, path)
        seen, uneven = set(), set()
        for name, m in maps.items():
            owner = single if "rho1" in m.tensors else pair
            fast = structures._ops(owner)
            assert fast.path == path
            mults = structures._multipliers(fast, m)[1]
            if len(set(mults)) > 1:
                uneven.add(name)
            got = integer_values(fast, m)
            tuples = list(itertools.product(*(range(fast.sizes[s]) for s in m.sorts)))
            want = exact_values(owner, m, tuples)
            assert {t: v for t, v in want.items() if v} == got, (path, name)
            if name in structures._SUBMAPS:
                L, constants = structures._multipliers(fast, m)[0], {}
                for idx, v in structures._submap_tensor(owner, name).nonzeros():
                    constants.setdefault(idx[:-1], {})[idx[-1]] = L * v
                assert constants == {t: v for t, v in want.items() if v}, (path, name)
            if got:
                seen.add(name)
        assert seen == set(maps)
        assert {"L1", "rb-comm", "rb-3lie", "hom-product"} <= uneven


# bundles whose product and bracket interact, so that leib3, kmap and the L
# maps of their adjoint representations have nonzero tables: both paths must
# give the tuple scan's values, L times the exact ones
INTERACTING = {
    "tfm4": lambda: noncoherent_tfm(*NONCOHERENT_A),
    "tfmB": lambda: scaled(noncoherent_tfm(*NONCOHERENT_B)),
    "tfm4_trunc2": lambda: tensor_with_comm_assoc(noncoherent_tfm(*NONCOHERENT_A), trunc(2)),
    "tfmB_trunc2": lambda: tensor_with_comm_assoc(scaled(noncoherent_tfm(*NONCOHERENT_B)),
                                                  trunc(2)),
}


@pytest.mark.parametrize("case", sorted(INTERACTING))
def test_contraction_is_L_times_the_exact_value_on_interacting_tables(case):
    """Every map on the bundle's tensors, and every representation map on
    its adjoint representation: the contraction and contraction-built
    tables equal the tuple scan at every tuple, and both are L times the
    exact value wherever they are nonzero (everywhere at n = 4)."""
    owners = {}
    for path in PATHS:
        b = forced(INTERACTING[case](), path)
        owners[path] = ((b, {**IDENTITIES, **structures._SUBMAPS}),
                        (adjoint_rep(b), {**REP_CONDITIONS, **structures._SUBMAPS}))
    nonzero = set()
    for side, (owner, maps) in enumerate(owners["contract"]):
        tuple_owner = owners["tuples"][side][0]
        have = set(structures._ops(owner).tensors)
        for name, m in maps.items():
            if not m.tensors <= have:
                continue
            fast, slow = (structures._ops(o) for o in (owner, tuple_owner))
            got = integer_values(fast, m)
            assert got == integer_values(slow, m), (case, name)
            small = all(fast.sizes[s] <= 4 for s in m.sorts)
            tuples = (list(itertools.product(*(range(fast.sizes[s]) for s in m.sorts)))
                      if small else sorted(got))
            want = exact_values(owner, m, tuples)
            assert {t: v for t, v in want.items() if v} == got, (case, name)
            if got:
                nonzero.add(name)
    assert {"leib3", "kmap", "L1", "L2", "L3", "coh1"} <= nonzero, sorted(nonzero)


# inputs for the support-first tables: sparse sd and sd2 (zero product, so
# every sub-map with a product factor in each term is empty), a dense change
# of basis of direct_sum(fil4, trunc(4)) as perfbench's dense8 is built, and
# the interacting bundles
SUPPORT_FIRST = {
    "sd": lambda: semidirect(adjoint_rep(fil4())),
    "sd16": lambda: direct_sum(*[semidirect(adjoint_rep(fil4()))] * 2),
    "dense8": lambda: dense(direct_sum(fil4(), trunc(4))),
    **INTERACTING,
}


def every_table(b):
    """{(owner, name): (support, nested rows)} of every tensor and sub-map b
    and its adjoint representation have the tensors for, the sub-maps built
    by the plans made on their integer tables."""
    out = {}
    for side, owner in enumerate((b, adjoint_rep(b))):
        ops = structures._ops(owner)
        for name, reads in structures._TENSORS_OF.items():
            if reads <= ops.tensors.keys() and (side == 0 or reads & {"rho", "mu"}):
                out[side, name] = (structures._support(ops, name), structures._table(ops, name))
    return out


@pytest.mark.parametrize("case", sorted(SUPPORT_FIRST))
def test_support_first_tables_equal_both_forced_paths(case, caplog):
    """Every sub-map table as planned, a support built by the empty-factor
    rule or by the path `_plan` picks and nested rows laid out from it,
    equals the tables the forced tuple scan and contraction build.  Every
    tensor's support is its constants times its scale, in rank order, and
    its rows, like every sub-map's, are `nested_rows` of its support."""
    b = SUPPORT_FIRST[case]()
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        planned = every_table(b)
    for path in PATHS:
        assert every_table(forced(SUPPORT_FIRST[case](), path)) == planned, path
    assert {name for _, name in planned} >= {"leib3", "kmap", "f1", "L1", "L3"}
    ruled = {t.split()[1] for t in (r.getMessage() for r in caplog.records)
             if t.startswith("built ") and " by an empty factor in every term " in t}
    empty = {name for (_, name), (support, _) in planned.items() if not support}
    assert ruled <= empty
    if case in ("sd", "sd16"):
        assert {"leib3", "kmap", "L1"} <= ruled, sorted(ruled)
    ops = [structures._ops(owner) for owner in (b, adjoint_rep(b))]
    for (side, name), (support, rows) in planned.items():
        sizes = [ops[side].sizes[s] for s in structures._SIGNATURES[name][0]]
        assert rows == nested_rows(sizes, support), (side, name)
        t = ops[side].tensors.get(name)
        if t is not None:
            scale = ops[side].scales[name]
            assert all(type(e[-1]) is int for e in support), (side, name)
            assert [(e[:-1], Fraction(e[-1], scale)) for e in support] == list(t.nonzeros())
    assert {name for _, name in planned} >= {"mul", "br3", "rho", "mu"}


def test_partly_empty_sub_map_is_still_scanned(caplog):
    """mu_T = T(p) x - T(mu(x, p)) with mu = 0 and T != 0: only its second
    term has an empty factor, so its table is built by a plan, and equals
    both forced paths.  The first term's factors are read from its lowered
    terms, as `_tabulate` reads them, and each is nonempty."""
    def owner(path=None):
        b = noncoherent_tfm(*NONCOHERENT_A)
        if path:
            forced(b, path)
        r = RepBundle(algebra=b, rho=BiRep(b.bracket), mu=LinRep.zero(4, 4))
        return structures._Maps(r, {"T": Tensor(4, 2, {(0, 0): 1, (1, 2): 1})})

    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        ops = structures._ops(owner())
        support = structures._support(ops, "mu_T")
    (_, (op, args)), _ = structures._SUBMAPS["mu_T"].terms
    first = [op] + [a[0] for a in args if not isinstance(a, int)]
    assert first == ["mul", "T"] and all(structures._support(ops, f) for f in first)
    assert support and structures._support(ops, "mu") == []
    built = [r.getMessage() for r in caplog.records if r.getMessage().startswith("built mu_T ")]
    assert len(built) == 1 and re.search(" by (tuple scan|contraction) in ", built[0]), built
    for path in PATHS:
        fast = structures._ops(owner(path))
        assert structures._support(fast, "mu_T") == support, path


def test_sort_sizes_are_read_from_the_shapes():
    """Each sort's size comes from the shapes of the tensors an owner and its
    bases hold, by their signatures, and k is 1: T: V -> A of shape (2, 4)
    over an action of fil4 on a module of dim 2, f: A -> B of shape (4, 3).
    A tensor that disagrees with another on a sort's size is refused there."""
    r = RepBundle(algebra=fil4(), mu=LinRep.zero(4, 2))
    ops = structures._ops(structures._Maps(r, {"T": Tensor((2, 4), {(1, 3): 1})}))
    assert ops.sizes == {"k": 1, "A": 4, "V": 2}
    hom = structures._Maps(fil4(), {"f": Tensor((4, 3), {}), "br3B": Tensor(3, 4, {})})
    assert structures._ops(hom).sizes == {"k": 1, "A": 4, "B": 3}
    assert structures._dims(structures._ops(hom).sizes) == "dim 4, target dim 3"
    for maps in (structures._Maps(r, {"T": Tensor((3, 4), {})}),
                 structures._Maps(fil4(), {"f": Tensor((4, 3), {}), "br3B": Tensor(2, 4, {})}),
                 structures._Maps(fil4(), {"form": Tensor((4, 4, 2), {})})):
        with pytest.raises(DimensionMismatch, match=r"of shape \(.*\) disagrees with"):
            structures._ops(maps)


def test_empty_leib3_on_sd2_compiles_no_table_builder(caplog, monkeypatch):
    """sd2's product is zero, so every term of leib3 has an empty factor:
    its support is [] without a plan or a generated sweep."""
    monkeypatch.setattr(structures, "_COMPILED", {})
    sd = semidirect(adjoint_rep(fil4()))
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        assert check_axioms("ternary-f-manifold", direct_sum(sd, sd)).passed
    text = [r.getMessage() for r in caplog.records]
    assert not any(t.startswith("generated sweep for leib3") for t in text)
    assert not any(t.startswith("plan leib3,") for t in text)
    assert any(t.startswith("built leib3 table, dim 16: 0 entries, scale 1, "
                            "by an empty factor in every term in ") for t in text)


def test_adjoint_representation_shares_the_algebra_tables():
    """adjoint_rep keeps the algebra's bracket and product themselves, so
    its rho and mu tables, supports and rows, are the algebra's br3 and mul
    tables; the rows are laid out when first read, not when the tables are
    built."""
    sd = semidirect(adjoint_rep(fil4()))
    b = direct_sum(sd, sd)
    r = adjoint_rep(b)
    base = structures._ops(b)
    ops = structures._ops(r)
    assert ops.base is base
    assert ops.tables == base.tables == {}
    assert structures._table(ops, "rho") is structures._table(base, "br3")
    assert structures._table(ops, "mu") is structures._table(base, "mul")
    assert structures._support(ops, "rho") is structures._support(base, "br3")
    assert structures._support(ops, "mu") is structures._support(base, "mul")


def test_exact_evaluation_builds_no_support():
    """A tensor's integer support is made when a scan first reads it, so the
    exact evaluators, which read only the tensors, build none; the shared
    tensors' groups are then base's own."""
    sd = semidirect(adjoint_rep(fil4()))
    b = dense(direct_sum(sd, sd))
    r = adjoint_rep(b)
    x = [b.basis(i) for i in range(4)]
    eval_defect("comm", b, x[:2])
    l1(r, *x)
    ops = structures._ops(r)
    assert ops.support == ops.base.support == {}
    for q in range(4):
        assert structures._groups(ops, "rho", q) is structures._groups(ops.base, "br3", q)


def test_sweep_keeps_no_value_it_handed_on():
    """comm on a product with e1 e2 = e1 but e2 e1 = 0, and e1 e3 = e3 e1 =
    e2: nonzero at (0, 1) and (1, 0), and zero at (0, 2) between them only
    because its two terms cancel.  The sweep reuses one buffer across
    tuples, which must hold nothing over: each yielded list keeps its
    value, and the cancelled tuple is skipped."""
    b = AlgebraBundle(3, product=Tensor(3, 3, [((0, 1, 0), 1), ((0, 2, 1), 1),
                                               ((2, 0, 1), 1)]))
    ops = structures._ops(b)
    comm = IDENTITIES["comm"]
    assert list(structures._make_scanner(ops, comm)()) == [((0, 1), [1, 0, 0]),
                                                           ((1, 0), [-1, 0, 0])]


@pytest.fixture
def registries():
    """The sub-map registries as they were, after a test whose definitions
    add intermediates to them: no later test sees them."""
    saved = [(d, dict(d)) for d in (structures._SUBMAPS, structures._SIGNATURES,
                                    structures._TENSORS_OF, structures._TREES)]
    yield
    for d, items in saved:
        d.clear()
        d.update(items)


def test_malformed_definitions_rejected(registries):
    mul, br3 = structures._op("mul"), structures._op("br3")
    with pytest.raises(InternalError, match="each slot exactly once"):
        structures._define("bad", lambda x, y, z: mul(x, y) - mul(y, z))
    ok = structures._define("ok", lambda x, y, z: mul(mul(x, y), z) - mul(x, mul(y, z)))
    assert ok.tensors == IDENTITIES["assoc"].tensors and ok.terms == IDENTITIES["assoc"].terms
    # a map need not be homogeneous in its tensors: each term scales apart
    mixed = structures._define("mixed", lambda x, y, z: mul(mul(x, y), z) - br3(x, y, z))
    assert (mixed.sorts, mixed.out, mixed.tensors) == (("A",) * 3, "A", {"mul", "br3"})


def test_terms_of_any_shape(registries):
    """A term nests to any depth and distributes over a sum argument, its
    coefficients multiplied: each map equals its hand expansion at random
    rational vectors.  A tree met twice is one intermediate, shared by
    every map that holds it; ill-sorted terms and reused slots still raise,
    registering nothing."""
    mul, mu = structures._op("mul"), structures._op("mu")
    before = set(structures._SUBMAPS)
    twice = structures._define("twice", lambda x, y, z, u: (
        mul(mul(x, y), mul(z, u)) + mul(mul(z, u), mul(x, y))))
    assert set(structures._SUBMAPS) - before == {"mul__mul__x1__x2__x3"}
    assert twice.terms == ((1, ("mul__mul__x1__x2__x3", (0, 1, ("mul", (2, 3))))),
                           (1, ("mul__mul__x1__x2__x3", (2, 3, ("mul", (0, 1))))))
    assert structures._SUBMAPS["mul__mul__x1__x2__x3"].name == "mul(mul(x1, x2), x3)"

    rng = random.Random(11)
    b = AlgebraBundle(3, product=Tensor(3, 3, [
        (idx, Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 5))))
        for idx in itertools.product(range(3), repeat=3)]))
    args = [Vec(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
            for _ in range(4)]
    x, y, z, u = args
    m = b.mul
    cases = [
        (lambda x, y, z, u: mul(x, mul(y, mul(z, u))), m(x, m(y, m(z, u)))),
        (lambda x, y, z, u: mul(mul(x, y), mul(z, u)), m(m(x, y), m(z, u))),
        (lambda x, y, z, u: mul(2 * mul(x, y) - mul(y, x), 3 * mul(z, u) + mul(u, z)),
         m(m(x, y), m(z, u)).scale(6) + m(m(x, y), m(u, z)).scale(2)
         - m(m(y, x), m(z, u)).scale(3) - m(m(y, x), m(u, z))),
        (lambda x, y, z, u: mul(x, 3 * mul(y, 2 * mul(z, u) - mul(u, z))),
         m(x, m(y, m(z, u))).scale(6) - m(x, m(y, m(u, z))).scale(3)),
    ]
    for body, want in cases:
        got = structures._eval_map(b, structures._define("case", body), args)
        assert got == want and not got.is_zero()
    after = dict(structures._SUBMAPS)
    with pytest.raises(InternalError, match="mu gives V where mul takes A"):
        structures._define("bad", lambda x, y, z, v: mul(x, mul(y, mu(z, v))))
    with pytest.raises(InternalError, match="each slot exactly once"):
        structures._define("bad", lambda x, y, z: mul(mul(x, y), mul(x, z)))
    assert structures._SUBMAPS == after


def test_conditions_share_the_named_sub_maps_trees():
    """rb-comm's T(p) T(q) reads mulT and its mu(T(p), q) muT, and rb-3lie
    reads br3TT and rhoTT: the tables the builders read, not copies."""
    (_, comm), (_, image_p), (_, image_q) = structures.CONDITIONS["rb-comm"].terms
    assert comm == ("mulT", (0, ("T", (1,))))
    assert image_p == ("T", (("muT", (0, 1)),)) and image_q == ("T", (("muT", (1, 0)),))
    (_, bracket), (_, image), *_ = structures.CONDITIONS["rb-3lie"].terms
    assert bracket == ("br3TT", (0, 1, ("T", (2,)))) and image == ("T", (("rhoTT", (0, 1, 2)),))
    assert {name for name in structures._TREES.values() if "__" not in name} == {
        "mulT", "br3TT", "muT", "rhoTT", "mul_pre", "br3_pre"}


NAMES = """
from ternalg import structures
print(sorted((structures._text(t), n) for t, n in structures._TREES.items()))
"""


def test_intermediate_names(registries):
    """An intermediate is named by its tree, in prefix order: a Python
    identifier, the same in every process, and one per tree even where an
    operation's name joins two others' (mul_N, mul(N(...)).  A name taken
    twice raises."""
    mul = structures._op("mul")
    joined = structures._intermediate(("mul", (("mul_N", (0, 1)), 2)))[0]
    nested = structures._intermediate(("mul", (("mul", (("N", (0,)), 1)), 2)))[0]
    assert (joined, nested) == ("mul__mul_N__x1__x2__x3", "mul__mul__N__x1__x2__x3")
    assert structures._SUBMAPS[nested].name == "mul(mul(N(x1), x2), x3)"
    assert all(name.isidentifier() for name in structures._TREES.values())
    with pytest.raises(InternalError, match="two maps are named mul__mul__x1__x2__x3"):
        structures._submap("mul__mul__x1__x2__x3", lambda x, y, z: mul(x, mul(y, z)))
        structures._define("clash", lambda x, y, z, u: mul(mul(x, y), mul(z, u)))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    seen = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", NAMES], env=env, capture_output=True,
                              text=True, check=True)
        seen.add(proc.stdout)
    assert len(seen) == 1 and "('rho(T(x1), x2, x3)', 'rho__T__x1__x2__x3')" in seen.pop()


# -- the generated code, pinned ------------------------------------------------------
# sha256 of `_source`'s sweep over every tuple for every identity and
# representation condition and every sub-map they read, computed when the
# sweep became one loop nest with a reused buffer, the sub-maps' again when
# their tables came to be built from the sweep: on integer tables the tuple
# scans run this code.

SWEEP_SOURCES = {
    "comm": "d4009251260eba1a4dc7d8ef048fc88e561e8201cb45fd98bfa73c3f472710bd",
    "assoc": "a0000b1288a2f8a1003f27078012ae8194c917584eb4b4dbc16dbc893e7afec4",
    "zinbiel": "77be359a6c272b3e2ca26508630c25c1c85598b1d83a9600d9b3998679df7f33",
    "skew2": "545c8765826283346745703ebcc44c9df16af4bb00608874e2aed3fc778ab805",
    "jacobi": "3a17bac4f947c7df80f39a3e8b6efc22ce2e82181259a17f34c6ae857c4ee8a0",
    "skew3": "c61ee4a1d951e8fdf206395e6b1b669e2cee377236d2cb88b41383ba20e24686",
    "fundamental": "6d4dd06ffaff80d6a7c267d9c3371db5f1908d5a2cef1cc545550c512b852ed4",
    "prelie3-skew": "319346b021bf795669a3a953f0527c4ab3af1bb8c94a4d9961a9ac3fd96ca9a9",
    "prelie3-a": "4a77dcb7cf7a07babe7e7ca30ff0ad7ec420b719c337ce76accbb349167f6909",
    "prelie3-b": "9ad5b46e80dfe147d657028d10cb950ca78de182c4506619faddc54839374e0f",
    "leibniz-np": "1c0d34a7a7889157c6c768cbf188c9120c7312bad2fb174aa6a859469eabce16",
    "hm2": "407536798c70fdcb7cfd20023527b5909563209224416c9670e094a1fc429f20",
    "hm3": "06afa0cdb36cab3af06879527ce5e32006b0b14003a411fd039967dc6cb466ef",
    "prefm-1": "05ba0d25cb49576c65e95c5e0eed106acc6c68fcb3e45593ff71d5d472bf6e38",
    "prefm-11": "9d3f25b0abb0833456c60eab713c08f9432955dc0cd703db42913e73b4434e4f",
    "prefm-2": "a99c415efecb6e7312f0528222cf93031102d881da6386a281b3f5475b2b3183",
    "prenp-1": "400854b3a11fea55713545eb23d76e4724f3c07da5d3c920e28c96563a304126",
    "prenp-2": "1861d3a45cdc6dc4b1be99939331462267e41b2c855708c801320dfc8dd8b749",
    "coh1": "5b4c6791f0ba46b30fe1fda9a71326b428e983e82399a6f14c586ad5a18943c6",
    "coh2": "69ef43e35b0160387b8a62cb4b686f653d9bfc2611af3dd93d7c60038b7eac6e",
    "coh3": "5d083bfb4ba63c32ccac07e8c7417d1e6d945b2a80da00b8fc43d8de6d7e914c",
    "rho-skew": "0db875e8f7776af8748c84a6b13ffed6e15600242befe97ed86d79c6cdc9ebde",
    "kasymov-i": "33f8d21e1112fb8c2114be602ca5434893925204993e51c1b4d2e794047c5a47",
    "kasymov-ii": "66e87a6a7b77ba56a1513e6de28c13c5b5a48a1f47bb3d99aa73e4c902a0c3f1",
    "mu-mult": "81ab4faa785ed3832ffd037af62496629eada6ee9bb7c2e096125961ec289ff5",
    "rho-lie": "63c21a7bee8c902a40b90bb49dd83a7dde38958f9a671eccbec54066ace0e2ee",
    "brep-1": "88b3d4f807aecb1f6ee0282231381b9568aaa7046d2ebe038078c2ea20b25053",
    "brep-2": "2eb3746906ce6291ef4e561889afb71b99c31bf042b24d35a3c911aa48b538ec",
    "rep-1": "92d4281f16a0bba67997882f6db1bc3355ec8ae20e7d4940f1810821aad5234b",
    "rep-3": "7d52f6772e1e8c2b05f64ba9c2d673ec0c27424d7e3651e2685f9361802ee853",
    "rep-2": "408054d6a3c4398c95db29f796c8e1f8fa1f5118d1f20c46fef390e953543a31",
    "corep-1": "84c2c9dfb0c31c93ec93d2f46e2ee58fe3d1c483318ca5191450442dcaed8e35",
    "corep-2": "5507c04ff5a93a77de521e51d6630056e8acce22a7f8f7a4ce5b95bd46c5e5e7",
    "corep-3": "f9fec571413282795fe8da2f6faec83d71665d56bf9aa53df94665ae66e3bb83",
    "symmul": "fee6db22ae96b86d05a27616e563d2adfdc457a5cbb4d7069aa196f2eb619b5f",
    "cyc3": "cfd1ea1afcdb14d0cbef459b0fd123e15ae6384a5bfc9a94cdefc4ba54541d01",
    "leib3": "2de1d5dcf862f4ff64f831446ed2f6e8a3c39cda3759e9ef443fa98499a0d667",
    "leib2": "45c304d843dc2b2ea8c3d07984f8e1e7166895608564d3de79772596a227f551",
    "kmap": "e5e17a66325ef6177352876db7d6b861c1ae73c8aef1fc82ddd3a5f849ab75fb",
    "f1": "d773338cefbe0cb3d59b54b19a650cb88d06e069a8a48deff0848d1a5c6b3de3",
    "f2": "d7712d9a33bb0ed0a923eb907aeeaa5c308cd32224594cebf109039933fdd596",
    "leib3_sub": "843903c8736f66d604f1d93b4bcb4c68cc692a001cbda61052455d7838f46436",
    "L1": "1a63a60b248a8f6718b8b18206b7136492f3677f582c92796ccc01720f11780c",
    "L2": "72589f099182a7ed973bc3aa93fecf08f7975bb0ab5d777224e636f2ef1ef7b3",
    "L3": "57695928099343eabd4905a393941b38dc511e054c811197781d8910ab983bf9",
    "L1b": "76076fd6a324950e128b2f4eaa1c7646edd2e8c9bafaa84b97500c91bbe240ef",
    "L2b": "c47ae81ef095fcb3c78672aa4b4fb9ac1f685aec18bae8c8a9cd645af31c468b",
}


# sha256 of each registry map's meaning: its slots' sorts, its value's sort
# and the sorted normal form of its terms expanded into trees of tensors,
# with no symmetry assumed; for every identity, representation condition
# and operator, trace and homomorphism condition, and every sub-map that a
# builder, a public evaluator or the paper names.  Computed when the
# conditions were written with two-operand sub-maps by hand, before the
# compiler lowered terms of any shape, so any change of meaning shows.

EXPANSIONS = {
    "comm": "418d427e2755264578059926867b31d6899af6856b4ab265c9d9109cae08f991",
    "assoc": "37b0c104f4e52bdb2d141444adb7cfee7a18206dd703ea6ad73038e7bb9ef818",
    "zinbiel": "a5ff03b3ae7ddaca28dce3b23d430a7491c9e610f8901260e1e24e8c96d64476",
    "skew2": "e779d2ef447f7eef2d4e55370212e6c30f64e764607ce0300851051d37eb9268",
    "jacobi": "94d884f8066d6302e0ee96e51f0417b4f7ed9c23e5c118545c36e2244c983099",
    "skew3": "7a420634934361ba3d757e237693f99806d34718caec68f35a955bcbe3b09ead",
    "fundamental": "bba1ae0842ad5b75c3e1cb225a9653d79150a579536da814096ce0cb49dbd50b",
    "prelie3-skew": "7fb6998c252d0a4cc6e96422d59a3c76193b3f876d86c66e9af687f38bef6546",
    "prelie3-a": "d8754b44f5af2ea059f4f6f510fcbec26a2f94fcd761e473f4e023a0d82e6add",
    "prelie3-b": "aed064528561202c36d0c611e4c4a1d17a47eee34d9493a789175cef93a636bc",
    "leibniz-np": "f4a1f33331b043e4cb0454740e7169c638b71ca3a5a109d8bc540dff7a100f47",
    "hm2": "94402721f8ae70a20fde2e4430ace10b8e9e38810459cf034bd84971a0435728",
    "hm3": "5a6b4a9fcd97b10cb4c7fab6523b8f9386e3cec2b75f038f46ee56c7cfc9e0c8",
    "prefm-1": "14f02096cf12957a349034796a044a2587c9f0831bbd32fbaaa5e9f63ea3da1b",
    "prefm-11": "24d6c35c721cca18b2831d3516740c16cf57c83c17f3c0c48416dbbb9ae10615",
    "prefm-2": "9eaebcb6f2c5e702c1d160eeba0026f7112ff965e3b9dcfa06c370255b5b0295",
    "prenp-1": "c4cacb208cf36b5011a5de2d6071a18e19f3a74ec43d2ef152772cb934bbc606",
    "prenp-2": "0cd600d76c794457cd027e89b2257a50ec6c407b44e66c4199787ed690e959bc",
    "coh1": "24c59ffba3d32b33eef7297d2c8c89ce7d10b511dbb1b16da42ee2563779991d",
    "coh2": "8b1ffceaadca923d1898cc3396b47b65be05e2348bd2e6f0529c938bb6de126f",
    "coh3": "33a56ec51eb5722196e2832f398e3e2ad359a850dff7b1115b171bb53eeaa72f",
    "rho-skew": "3339286c9865c316de82df37f256b1b063ea331744460338483fbd5fde03ce8a",
    "kasymov-i": "312663e33d4d01a8a63d6e0d10fe90dfa57e3e73d439f4e91c11b9dbe1168d61",
    "kasymov-ii": "4faee14fb063cacb4d1df1357cab0f44677aeb3dfebba5c22a5d5e3c38b6a1c5",
    "mu-mult": "7d12cae3f0a0db01466c7b39e1939abbb560024a87a362e5ee2a5ce248f8b0ae",
    "rho-lie": "1482bce347b31a2d4cc04bc7f856c718f14d0b8b2bd117d692221b7aa50f19a9",
    "brep-1": "bbe0223c472be921ffc5697a7e45cd8d1a33057f5baeaa6e008e016922b621d2",
    "brep-2": "367c10ec7ccc885092c2c82501ad1a43a2b1a2b17abfdb015a8d4b13d523691b",
    "rep-1": "36bb6698595e3b03225f76de3044c906ae02ed0441b0f12a79a34cf4f8946fc1",
    "rep-3": "bd1b9c713b945b8bcb602326a8bcfd101311d3c5d5af892d5b5408b7a3bec5b6",
    "rep-2": "db90a1dbcbff57424da0e2fb0598af169440d1b3cc1add4f928f61a33936ffa4",
    "corep-1": "7de14ec9f7064f33715bdaa84ab80d95fa6122ee778bf98dda7607a8ea3feb42",
    "corep-2": "cc0edc12ef4f72d2b6e2cc310b79833bc587a98b6f80e0d1a91739da788806c9",
    "corep-3": "b0eaf0128374d8a56566120d5301cf92c4e0d65acf3e96837ea36ca48564453a",
    "rb-comm": "6832eef6c0e27890f54823f751cdf432c84f51a3c74da4c63532de02112654cd",
    "rb-3lie": "0ecc2432e124b3bf9c33cfb1c3d55d80d3e53966bfa09fa569ccf2263b7e06bd",
    "cocycle": "a3ad8274f7f0c7d75de3e4536b24a4541b98fc5a6fce1421ca79392eff14f2a4",
    "symplectic": "8b2a50f4dcca40282a5cc6c939008094386ee5bd76fca131512e158a79fcd48a",
    "nijenhuis-comm": "43150f0c91c7af6947671084d3121f14eab08eb9178de0c91115b3ecd3bffc57",
    "nijenhuis-3lie": "a7ef09a68e1ef568038c34dd45ff782f328d86600b1aba79024f967459ec8711",
    "trace": "bce33fe24a66fcdffe6cbb389f319826b049ec1b959c57a1b21728ea8434fc95",
    "induced-condition": "fa1b9d34214568445ba7b9263dc0016d9ebccbaae39a1edf344227c68d3ef4b5",
    "hom-product": "405ec212694939692e79b42e98df2bfd5a9c9b017be5d302730bbefeb17956a1",
    "hom-bracket": "ab15a4da47da0d1b3240b64744978bcebd147d7bdc50e8a246e5d92584ead50b",
    "hom-binary-bracket": "ad7b14ef0f5b0433cd4f01a736e0a45dd2e8d21575d33524965e4b6192c03c20",
    "symmul": "ab5d5f85aebd24a507b831921f06eed103a6982cec258570560898ebcce9991b",
    "cyc3": "75f9477329b5aedebb3dc3b678ece7720e1d326fef120cabcd2f9a89442205b2",
    "leib3": "f4a1f33331b043e4cb0454740e7169c638b71ca3a5a109d8bc540dff7a100f47",
    "leib2": "7c5317f6850569fcd0374e2935173dd372b508d338eafac727a61083604199d8",
    "kmap": "b1f64a3b0123334276c315115f7df1b1513982e1c6c191ddc8887381e0da35ab",
    "f1": "c4cacb208cf36b5011a5de2d6071a18e19f3a74ec43d2ef152772cb934bbc606",
    "f2": "8c993676f0fed33789126271a5d3e1aa134f6c7434f72ef4a51a71a1cf8a3c43",
    "leib3_sub": "8dfc879bdcd1f7b70b281f97d730a49309a9901b2c8fc2b89182a2a13f026c33",
    "L1": "809706702c04a19b3fc87bc2867321fcde85a38ca0dfe68befff86effbb9240c",
    "L2": "bc46306d9a082dc6c17c433de54682ce85ee87224ce9876a0526b326dbc75881",
    "L3": "2c69325abf3cecb411a155235e45feb475ea730ac7ba5dc7ffd07598a0185790",
    "L1b": "b094a64551c44b8f3bd3fc2ec44c0b2691e255f975f03b5612c9c2f2e980ee7b",
    "L2b": "1b43e9a9657ba9a19319f694f68ce223e8e1344d54937ea5f2375bd8d7e89823",
    "mulT": "766ee8bc8ea3e1fc924f703268585028954db942aa2045a49fa77a73619463b3",
    "br3TT": "f569faa667d4239f26114989a65fd126acd27c7041bf0bc292f4fdb5284056a1",
    "muT": "c0b4eb74f2d771112d7b1f7f29c571e57ddff7a7c824f4f50f16b43f71fa5819",
    "rhoTT": "5b73e60bcaf872c043204a33e094b7574e674b958f1f6049237999fe00fba4f3",
    "mu_T": "3f11cbb420dca74f191baa3044d3a10a2c322b18acf0b9ba20c92b07d3daed61",
    "rho_T": "b63d48c7249d8f16edd0065ceb4ec0d4701840d035de34417bbc2e40828a8b0a",
    "mul_pre": "3de729ed2844dbd308bdb9272fee770e8fdb753f283d52a06be4b8402f79f06c",
    "br3_pre": "929fa0995d1bf0dd1a01a53775cbb74e25afd9c4cb77646cd0913a42ce783054",
    "mul_N": "37976708c91ac0677f3c4ac59cd74a7c2820d039fba84934abd680ed7f3def93",
    "br3_N": "4cf24d2ba67747d7d19fff47757c8d68e4b28f343ee894478d15f8130dd6ea20",
    "br3_tau": "262115b086ea7afe1c3c980d0b4c9eab19428d484c6001697cf80f70e70dd8d8",
}


def test_registry_maps_expand_as_pinned():
    maps = {**IDENTITIES, **REP_CONDITIONS, **structures.CONDITIONS, **structures._SUBMAPS}
    for name, digest in EXPANSIONS.items():
        m = maps[name]
        terms = [(c * k, t) for c, term in m.terms for k, t in structures._expand(term)]
        normal = structures._normal(terms, {}, {})
        text = repr((m.sorts, m.out, sorted(map(repr, normal.items()))))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
    assert len(EXPANSIONS) == 69


def _integer_owners():
    """A bundle with all three tensors and integer constants, and two
    representations on it, with rho as a pair action and as one action."""
    rng = random.Random(7)

    def tensor(order):
        return Tensor(3, order, [(idx, rng.choice((-1, 1, 2)))
                                 for idx in itertools.product(range(3), repeat=order)
                                 if rng.random() < 0.3])

    b = AlgebraBundle(3, product=tensor(3), bracket=tensor(4), binary_bracket=tensor(3))
    r = adjoint_rep(b)
    return b, r, fix_slot_rep(r, Vec.basis(3, 1))


def test_generated_source_pinned(caplog, monkeypatch):
    for name, digest in SWEEP_SOURCES.items():
        m = IDENTITIES.get(name) or REP_CONDITIONS.get(name) or structures._SUBMAPS[name]
        assert hashlib.sha256(structures._source(m, "sweep")[0].encode()).hexdigest() == digest

    # on integer tables, the tuple scans compile exactly the pinned sources
    monkeypatch.setattr(structures, "_COMPILED", {})
    b, r, rb = _integer_owners()
    forced(b, "tuples")
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        for m in IDENTITIES.values():
            structures._make_scanner(structures._ops(b), m)
        for m in REP_CONDITIONS.values():
            owner = rb if "rho1" in m.tensors else r
            structures._make_scanner(structures._ops(owner), m)
    seen = {}
    for record in caplog.records:
        head, _, src = record.getMessage().partition(":\n")
        if head.startswith("generated "):
            seen[head] = hashlib.sha256(src.encode()).hexdigest()
    assert seen == {f"generated sweep for {name}": d for name, d in SWEEP_SOURCES.items()}


# -- debug logging -----------------------------------------------------------------

def test_debug_events(caplog, monkeypatch):
    monkeypatch.setattr(structures, "_COMPILED", {})
    b = scaled(noncoherent_tfm(*NONCOHERENT_A))
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        report = check_coherence(forced(b, "tuples"), max_counterexamples=100)
    assert not report.passed
    text = [r.getMessage() for r in caplog.records]
    assert all(r.name == "ternalg" and r.levelno == logging.DEBUG for r in caplog.records)
    assert "integer tables, dim 4: scale factors mul=3 br3=5 br2=None" in text
    assert any(t.startswith("generated sweep for coh1:\ndef make(") for t in text)
    assert any(t.startswith("generated sweep for leib3:") for t in text)
    assert any(t.startswith("built leib3 table, dim 4:") for t in text)
    assert any(t.startswith("built kmap table, dim 4:") for t in text)
    rechecks = [t for t in text if t.startswith("exact re-check of coh")]
    assert len(rechecks) == len(report.counterexamples) == 10

    # a representation scan: a factor per action, n^arity * m entries
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        assert check_representation("ternary-fmanifold-rep", adjoint_rep(b)).passed
    text = [r.getMessage() for r in caplog.records]
    assert "integer tables, dim 4, module dim 4: scale factors rho=5 mu=3" in text
    assert ("scan rho-skew: symmetry-reduced over sym(x1,x2) given no identity; "
            "40 of 64 tuples scanned") in text
    assert "scan rep-1: full range; 1024 of 1024 tuples scanned" in text
    assert any(t.startswith("built L1 table, dim 4, module dim 4:") for t in text)

    # an intermediate the compiler names shows its tree
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        assert check_relative_rb(fil4_rb(), fil4_adjoint()).passed
    text = [r.getMessage() for r in caplog.records]
    assert any(t.startswith("built rho(T(x1), x2, x3) table, dim 4, module dim 4:") for t in text)


@pytest.mark.parametrize("rep_first", (False, True))
def test_algebra_sub_map_tables_serve_its_representation(caplog, rep_first):
    # leib3 reads only the algebra's tensors: a representation scan reuses
    # the algebra's table, or builds it on the algebra for coherence to reuse
    b = scaled(noncoherent_tfm(*NONCOHERENT_A))
    checks = [lambda: check_coherence(b),
              lambda: check_representation("ternary-fmanifold-rep", adjoint_rep(b))]
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        for run in reversed(checks) if rep_first else checks:
            run()
    built = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("built leib3 table")]
    assert len(built) == 1 and built[0].startswith("built leib3 table, dim 4:")


def test_no_log_output_by_default(capfd):
    b = scaled(noncoherent_tfm(*NONCOHERENT_A))
    assert not check_coherence(b).passed
    assert check_representation("ternary-fmanifold-rep", adjoint_rep(b)).passed
    out, err = capfd.readouterr()
    assert out == err == ""
