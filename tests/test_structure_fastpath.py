"""The generated integer scanners against the dense exact oracle.

`check_axioms` and `check_coherence` scan on integer-rescaled sparse tables
with loops generated from each identity's data; `structure_oracle` states
every identity as a hand-written dense `Fraction` formula.  Their reports
must be equal: verdict, counterexample indices and residuals, and
`tuple_count`.  The integer path is sound only for identities homogeneous in
each tensor, so the degree check at import is pinned here too.
"""

import hashlib
import logging
import random
from fractions import Fraction

import pytest

import structure_oracle as oracle
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
from ternalg.constructions import direct_sum
from ternalg.errors import InternalError
from ternalg.linalg import Tensor, Tensor3, Tensor4, Vec
from ternalg.operators import induced_pre_fmanifold
from ternalg.representations import adjoint_rep, check_coherence, check_representation
from ternalg import structures
from ternalg.structures import (
    COHERENCE_IDENTITIES,
    IDENTITIES,
    KIND_IDENTITIES,
    AlgebraBundle,
    StructureKind,
    _identity_conditions,
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

    def tensor(cls, dens):
        t = cls.build(n, lambda *_: rand_q(rng, dens, density))
        if t.is_zero():
            t = cls.build(n, lambda *i: Fraction(int(sum(i) == 1), dens[0]))
        return t

    return AlgebraBundle(n, product=tensor(Tensor3, DENS["product"]),
                         bracket=tensor(Tensor4, DENS["bracket"]),
                         binary_bracket=tensor(Tensor3, DENS["binary_bracket"]))


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
    return [(k.value, KIND_IDENTITIES[k]) for k in StructureKind] + [
        ("coherence", COHERENCE_IDENTITIES)]


def check(label, names, b, k):
    if label == "coherence":
        return check_coherence(b, max_counterexamples=k)
    if label in KIND_LABELS:
        return check_axioms(label, b, max_counterexamples=k)
    return run_conditions(label, _identity_conditions(b, names), k)


def assert_agrees(b, label, names):
    if any(getattr(b, s) is None for n in names for s in IDENTITIES[n].needs):
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
    return AlgebraBundle(4, product=Tensor3.from_nonzeros(4, prod),
                         bracket=_alternating_tensor4(4, gens))


NONCOHERENT_A = ({(0, 0, 1): 1, (0, 1, 2): 2, (1, 0, 2): 2}, {(0, 2, 3): {2: 1}})
NONCOHERENT_B = ({(0, 0, 1): 1, (0, 1, 2): -1, (1, 0, 2): -1},
                 {(0, 1, 3): {3: -1}, (0, 2, 3): {3: -1}})

PASSES = {
    "fil4": (fil4, ("3-lie", "ternary-f-manifold", "ternary-nambu-poisson", "coherence")),
    "trunc3": (lambda: AlgebraBundle(3, product=trunc(3).product, bracket=Tensor4.zero(3)),
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
    report = assert_agrees(b, "coherence", COHERENCE_IDENTITIES)
    assert {ce.identity for ce in report.counterexamples} <= {"coh1", "coh2", "coh3"}
    assert len(report.counterexamples) == 10


def test_n6_direct_sum_against_oracle():
    # n = 6 gives 7,776 quintic tuples: rank order and the tuple count past
    # the small bundles above
    base = direct_sum(scaled(fil4()), scaled(trunc(2)))
    b = perturb(base, random.Random(3), "bracket")
    for label in ("3-lie", "ternary-f-manifold"):
        report = assert_agrees(b, label, KIND_IDENTITIES[StructureKind(label)])
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


# -- identities as data: degrees and the import-time check -------------------------

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


def test_degree_vectors_pinned():
    assert {name: i.degree for name, i in IDENTITIES.items()} == DEGREES
    assert IDENTITIES["hm2"].needs == ("product", "binary_bracket")
    assert IDENTITIES["coh2"].needs == ("product", "bracket")
    assert IDENTITIES["fundamental"].needs == ("bracket",)
    for name, i in IDENTITIES.items():
        assert i.arity == oracle.arity(name)


def test_degrees_scale_each_identity_by_one_monomial():
    b = random_bundle(99)
    rng = random.Random(99)
    lam, mu, nu = Fraction(2), Fraction(3), Fraction(5)
    big = scaled(b, lam, mu, nu)
    for name, i in IDENTITIES.items():
        idx = tuple(rng.randrange(b.dim) for _ in range(i.arity))
        factor = lam ** i.degree[0] * mu ** i.degree[1] * nu ** i.degree[2]
        assert oracle.residual(name, big, idx) == oracle.residual(name, b, idx).scale(factor)


def test_non_homogeneous_definition_rejected():
    mul, br3 = structures._op("mul"), structures._op("br3")
    with pytest.raises(InternalError, match="not homogeneous"):
        structures._define("bad", lambda x, y, z: mul(mul(x, y), z) - br3(x, y, z))
    with pytest.raises(InternalError, match="each slot exactly once"):
        structures._define("bad", lambda x, y, z: mul(x, y) - mul(y, z))
    with pytest.raises(InternalError, match="one term on slots"):
        structures._define("bad", lambda x, y, z, u: mul(x, mul(y, mul(z, u))))
    with pytest.raises(InternalError, match="at most one a term"):
        structures._define("bad", lambda x, y, z, u: mul(mul(x, y), mul(z, u)))
    ok = structures._define("ok", lambda x, y, z: mul(mul(x, y), z) - mul(x, mul(y, z)))
    assert ok.degree == IDENTITIES["assoc"].degree and ok.terms == IDENTITIES["assoc"].terms


# -- debug logging -----------------------------------------------------------------

def test_debug_events(caplog, monkeypatch):
    monkeypatch.setattr(structures, "_COMPILED", {})
    b = scaled(noncoherent_tfm(*NONCOHERENT_A))
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        report = check_coherence(b, max_counterexamples=100)
    assert not report.passed
    text = [r.getMessage() for r in caplog.records]
    assert all(r.name == "ternalg" and r.levelno == logging.DEBUG for r in caplog.records)
    assert any("scale factors product=3 bracket=5 binary_bracket=None" in t for t in text)
    assert any(t.startswith("generated scanner for coh1:\ndef make(") for t in text)
    assert any(t.startswith("generated table builder for leib3:") for t in text)
    assert any(t.startswith("built leib3 table, dim 4:") for t in text)
    assert any(t.startswith("built kmap table, dim 4:") for t in text)
    rechecks = [t for t in text if t.startswith("exact re-check of coh")]
    assert len(rechecks) == len(report.counterexamples) == 10

    # a representation scan: one factor per scale group, n^arity * m entries
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        assert check_representation("ternary-fmanifold-rep", adjoint_rep(b)).passed
    text = [r.getMessage() for r in caplog.records]
    assert "integer tables, dim 4, module dim 4: scale factors alpha=5 beta=3" in text
    assert "scan rho-skew: full range; 64 of 64 tuples scanned" in text
    assert "scan rep-1: full range; 1024 of 1024 tuples scanned" in text
    assert any(t.startswith("built L1 table, dim 4, module dim 4:") for t in text)


def test_no_log_output_by_default(capfd):
    b = scaled(noncoherent_tfm(*NONCOHERENT_A))
    assert not check_coherence(b).passed
    assert check_representation("ternary-fmanifold-rep", adjoint_rep(b)).passed
    out, err = capfd.readouterr()
    assert out == err == ""
