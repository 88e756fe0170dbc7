"""The generated integer scanners against the dense exact oracle.

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
from ternalg.constructions import direct_sum, tensor_with_comm_assoc
from ternalg.errors import InternalError
from ternalg.linalg import Matrix, Tensor, Tensor3, Tensor4, Vec
from ternalg.operators import induced_pre_fmanifold
from ternalg.representations import (
    REP_CONDITIONS,
    BiRep,
    LinRep,
    RepBundle,
    _rep_layout,
    adjoint_rep,
    check_coherence,
    check_representation,
    fix_slot_rep,
    semidirect,
)
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
    # unforced, a scan this small stays on the tuple scan unestimated; at
    # n = 16 the 67,200 representatives of fundamental cost under the
    # margin, and the planner estimates both paths for hm3 and contracts it
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        check_coherence(scaled(noncoherent_tfm(*NONCOHERENT_A)))
        check_axioms("ternary-f-manifold", tfm4_trunc4())
    text = [r.getMessage() for r in caplog.records]
    assert "plan coh1, dim 4: tuple scan; 640 tuples ~0.448 ms before their steps, " \
        "within the margin" in text
    assert any(t.startswith("plan fundamental, dim 16: tuple scan; 67200 tuples ~")
               for t in text)
    assert any(t.startswith("plan hm3, dim 16: contraction; contraction of ") for t in text)
    assert any(t.startswith("scan hm3: contraction; ") for t in text)


def test_plan_counts_the_full_range_when_the_certificate_cannot_apply(caplog):
    """sd with one bracket entry whose skew images are missing: skew3 fails,
    so fundamental's certificate is unused, and the plan counts every tuple."""
    sd = semidirect(adjoint_rep(fil4()))
    bracket = dict(sd.bracket.nonzeros())
    bracket[(0, 1, 2, 3)] = bracket.get((0, 1, 2, 3), 0) + Fraction(1, 2)
    b = AlgebraBundle(8, product=sd.product, bracket=Tensor(8, 4, bracket))
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        report = check_axioms("ternary-f-manifold", b, max_counterexamples=100)
    text = [r.getMessage() for r in caplog.records]
    assert "skew3" in {ce.identity for ce in report.counterexamples}
    assert any(t.startswith("plan fundamental, dim 8: tuple scan; 32768 tuples ~") for t in text)
    assert any(t.startswith("scan fundamental: full range, certified ") for t in text)


def test_plan_takes_the_contraction_only_past_the_margin(monkeypatch):
    """With a tuple costing 1, a chunk 1 and nothing else, the contraction
    of fundamental on fil4 costs its 4 chunks: it is taken only when it
    saves more than the margin of 10."""
    for name in ("_TERM_COST", "_STEP_COST", "_PROBE_COST", "_CONTRIBUTION_COST"):
        monkeypatch.setattr(structures, name, 0)
    for name, value in (("_TUPLE_COST", 1), ("_CHUNK_COST", 1), ("_MARGIN", 10)):
        monkeypatch.setattr(structures, name, value)
    ops = structures._ops(fil4(), False, structures._layout)
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


def test_planner_on_dense_input(caplog):
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
    caplog.clear()
    b = dense(tfm4_trunc4())
    ops = structures._ops(b, False, structures._layout)
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        assert not _planned(ops, KIND_IDENTITIES[StructureKind("ternary-f-manifold")], "hm3")
        assert not _planned(ops, COHERENCE_IDENTITIES, "coh1")
    plans = [r.getMessage() for r in caplog.records if r.getMessage().startswith("plan ")]
    assert [t.split(";")[0] for t in plans] == [
        "plan leib3, dim 16: tuple scan", "plan hm3, dim 16: tuple scan",
        "plan coh1, dim 16: tuple scan"]
    assert plans[0].endswith("within the margin")
    for t in plans[1:]:
        made = int(t.split("contraction of ")[1].split()[0])
        assert made > 30_000_000 and "within the margin" not in t, t


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
        degree = DEGREES[name]
        factor = lam ** degree[0] * mu ** degree[1] * nu ** degree[2]
        assert oracle.residual(name, big, idx) == oracle.residual(name, b, idx).scale(factor)


PATHS = ("tuples", "contract")


def forced(b, path):
    """b with every plan made on its integer tables, and on the tables of
    representations and maps built over it, forced to `path`."""
    structures._ops(b, False, structures._layout, path)
    return b


def _all_tensor_owners(seed, path=None):
    """Owners of every tensor of `_SIGNATURES` with random non-unit
    denominators, each differing from the others': over a representation
    with rho a pair action, and over one with a single action (rho1)."""
    rng = random.Random(seed)
    n, m, n2 = 3, 2, 2

    def tensor(dim, order, dens, shape=None):
        cells = list(itertools.product(*map(range, shape or (dim,) * order)))
        return Tensor(dim, order, [
            (idx, Fraction(rng.choice((-2, -1, 1, 2)), rng.choice(dens)))
            for idx in rng.sample(cells, (len(cells) + 1) // 2)])

    b = forced(AlgebraBundle(n, product=tensor(n, 3, (2, 3)), bracket=tensor(n, 4, (5, 4)),
                             binary_bracket=tensor(n, 3, (7, 3))), path)

    def mats(count, dens):
        return tuple(Matrix([[rand_q(rng, dens, 0.6) for _ in range(m)] for _ in range(m)])
                     for _ in range(count))

    pair = RepBundle(algebra=b, rho=BiRep(m, tuple(mats(n, (3, 9)) for _ in range(n))),
                     mu=LinRep(m, mats(n, (11,))))
    single = RepBundle(algebra=b, rho=LinRep(m, mats(n, (13,))), mu=pair.mu)
    maps = {
        "T": tensor(n, 2, (2, 5), (m, n)), "N": tensor(n, 2, (17,)),
        "form": tensor(n, 3, (19, 3), (n, n, 1)), "tau": tensor(n, 2, (23,), (n, 1)),
        "smul": Tensor(n, 3, [((0, i, i), 1) for i in range(n)]),
        "f": tensor(n, 2, (29,), (n, n2)), "mulB": tensor(n2, 3, (31,)),
        "br3B": tensor(n2, 4, (3, 37)), "br2B": tensor(n2, 3, (41,)),
    }
    return [structures._Maps(r, _rep_layout, {"B": n2}, maps) for r in (pair, single)]


def integer_values(fast, m):
    """{tuple: {l: value}} over the nonzero integer values of the map m on
    fast, by the path forced there: a sub-map's from its table, in both
    forms, a condition's from its scan at every tuple or its contraction."""
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
    if fast.path == "contract":
        chunk, values = structures._make_scanner(fast, m, "contract"), {}
        for x0 in range(sizes[0]):
            for k, v in chunk(x0)[0].items():
                if v:
                    values.setdefault(k[:-1], {})[k[-1]] = v
        return values
    scan = structures._make_scanner(fast, m)
    return {t: {l: v for l, v in enumerate(out) if v}
            for t in itertools.product(*map(range, sizes)) if (out := scan(t))}


def exact_values(owner, layout, m, tuples):
    """L times m's exact value at each basis tuple, as {l: value}, L from
    `_multipliers` on owner's integer tables."""
    fast, exact = (structures._ops(owner, e, layout) for e in (False, True))
    L = structures._multipliers(fast, m)[0]
    out = {}
    for t in tuples:
        units = [[int(j == i) for j in range(exact.sizes[s])] for s, i in zip(m.sorts, t)]
        out[t] = {l: L * v for l, v in enumerate(structures._evaluate(exact, m, units)) if v}
    return out


@pytest.mark.parametrize("seed", range(2))
def test_scan_is_L_times_the_exact_value(seed):
    """For every map of every registry, on either path, the generated scan
    or contraction (or sub-map table, built by either) on integer tables is
    L, from `_multipliers`, times the map's exact value, at every basis
    tuple; multipliers other than 1 occur."""
    maps = {**IDENTITIES, **REP_CONDITIONS, **structures.CONDITIONS, **structures._SUBMAPS}
    for path in PATHS:
        pair, single = _all_tensor_owners(seed, path)
        seen, uneven = set(), set()
        for name, m in maps.items():
            owner = single if "rho1" in m.tensors else pair
            fast = structures._ops(owner, False, structures._Maps.layout)
            assert fast.path == path
            mults = structures._multipliers(fast, m)[1]
            if len(set(mults)) > 1:
                uneven.add(name)
            got = integer_values(fast, m)
            tuples = list(itertools.product(*(range(fast.sizes[s]) for s in m.sorts)))
            want = exact_values(owner, structures._Maps.layout, m, tuples)
            assert {t: v for t, v in want.items() if v} == got, (path, name)
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
        owners[path] = ((b, structures._layout, {**IDENTITIES, **structures._SUBMAPS}),
                        (adjoint_rep(b), _rep_layout, {**REP_CONDITIONS, **structures._SUBMAPS}))
    nonzero = set()
    for side, (owner, layout, maps) in enumerate(owners["contract"]):
        tuple_owner = owners["tuples"][side][0]
        have = set(structures._ops(owner, False, layout).tables)
        for name, m in maps.items():
            if not m.tensors <= have:
                continue
            fast, slow = (structures._ops(o, False, layout) for o in (owner, tuple_owner))
            got = integer_values(fast, m)
            assert got == integer_values(slow, m), (case, name)
            small = all(fast.sizes[s] <= 4 for s in m.sorts)
            tuples = (list(itertools.product(*(range(fast.sizes[s]) for s in m.sorts)))
                      if small else sorted(got))
            want = exact_values(owner, layout, m, tuples)
            assert {t: v for t, v in want.items() if v} == got, (case, name)
            if got:
                nonzero.add(name)
    assert {"leib3", "kmap", "L1", "L2", "L3", "coh1"} <= nonzero, sorted(nonzero)


def test_malformed_definitions_rejected():
    mul, br3 = structures._op("mul"), structures._op("br3")
    with pytest.raises(InternalError, match="each slot exactly once"):
        structures._define("bad", lambda x, y, z: mul(x, y) - mul(y, z))
    with pytest.raises(InternalError, match="one term on slots"):
        structures._define("bad", lambda x, y, z, u: mul(x, mul(y, mul(z, u))))
    with pytest.raises(InternalError, match="at most one a term"):
        structures._define("bad", lambda x, y, z, u: mul(mul(x, y), mul(z, u)))
    ok = structures._define("ok", lambda x, y, z: mul(mul(x, y), z) - mul(x, mul(y, z)))
    assert ok.tensors == IDENTITIES["assoc"].tensors and ok.terms == IDENTITIES["assoc"].terms
    # a map need not be homogeneous in its tensors: each term scales apart
    mixed = structures._define("mixed", lambda x, y, z: mul(mul(x, y), z) - br3(x, y, z))
    assert (mixed.sorts, mixed.out, mixed.needs) == (("A",) * 3, "A", ("product", "bracket"))


# -- the generated code, pinned ------------------------------------------------------
# sha256 of `_source` for every identity and representation condition (the
# scanner) and every sub-map (the table builder), computed before the scale
# factors became per tensor: on integer tables the scans run this code.

SCANNER_SOURCES = {
    "comm": "a26dc60d55a1e65df87bddd0b35c6e94cb16ae227197737196b36514a837bf06",
    "assoc": "6c8633cd2692d6af2fe69ec68ee37ab8023c48589e4ad30f05901d46c3a5d8bc",
    "zinbiel": "3413c5d6bb75342fa0cd91f1d9fcf7364665d85df358bcfa8916c5775b11fde0",
    "skew2": "cb6dd6fc0fbea405bfbffb9fc5e653cd0cfcd2cc4b2e12fe5ba5c990bdf6e414",
    "jacobi": "a9b7247e5883e134aaa7a1c24d9807d01cbc40cd2683a2691630a11435af8274",
    "skew3": "2842acaffd108087aac8f3b3e00baf342f7cbfd94979f82566faefa96feca46a",
    "fundamental": "5174d33435c65c33f8b1848eec1b6674c95cf282e1ff5be1da7aff3c191babdd",
    "prelie3-skew": "5575c447334a8c46072172238aab3260c18844fc94bda52528bdda06dac226ba",
    "prelie3-a": "860d01e259e91c189f81a3b56e69d56fc9be00a46bf9beeacf14e863fcddecd1",
    "prelie3-b": "2cb1bc38324d2d912c342ab4898128a198115ab89c47bfa4aa969dec5ea9c9bc",
    "leibniz-np": "d47f20c603f71cff8480f210d5b1e2c9bac94c57e82168a20effdb11ec071a39",
    "hm2": "419d1e25164d3f2253bc0f0b9b9ce55e5b02828e6b80595a2213da63696fbf1b",
    "hm3": "1a16f21ea3c3540d52eee17cbf2ba461d8119d043566f263505c380a0f09909b",
    "prefm-1": "458b0df5d37bf6b0ffe30a065d19be987c45a65b390cf4006a123fdf0054d83a",
    "prefm-11": "3a746fb0b97d0e6a4e76b3c8b35db535b7ffe21233d7f50a61b80cf1319f2ce9",
    "prefm-2": "a49631a046a4570333e16a6d949b510ac19fd488336ba25aec291d3d4cc94a08",
    "prenp-1": "7b2fb3f7db970b2fae93aaa20f4616f60a72a63720a1ac8ce28a9ead6ff15075",
    "prenp-2": "41626fdcf149dca794e2189b95fc663b615caf2e30a70f21f6207c605367ceb4",
    "coh1": "324b636f2d69a32da439f107f09e3c5d0b7a0203f34737376641b0429602e5f4",
    "coh2": "b3595360bc63019a8467c8f8b258c2d91afa24b0cb232b324eb0346a0739ff39",
    "coh3": "ed1a69388aba9e7a31cbf8ed5ab25f6ad320959ed7c7e0963bdb9a406dfb0ba8",
    "rho-skew": "a1739c99ad622bdbc082f7a5dd1195fb9babfcfc9aee1499bd8c7726fb0d9129",
    "kasymov-i": "42afc4272139edecb950623d03c2d66faf996b2b987de0fca10219c81bb59421",
    "kasymov-ii": "d48da3828659deb9f12244551b0b541884c398f9a9490e42b75c2f0d85a675a0",
    "mu-mult": "4f1c92b39e0b24959a4534961512dd76051931382272c28ad4b6c6651ffde1ce",
    "rho-lie": "babb71696281427cf3f5e2f1aedeec2f37d67570d54b46e7e9c7b02602d986e4",
    "brep-1": "8d49cde3f181e03f2896478aa1e144f57cd53f56075169ad421b892b145c768e",
    "brep-2": "19b4796c00e15812a42b5a9b5d9d3071f02ebdb5110423cafaeee8240e2d627b",
    "rep-1": "a6c4b97194b4a8d259e6425ab33a5b41a7be1e88ea7593bbc4a5ba56a413561e",
    "rep-3": "29f0f61cd6187e9a59d2e9d1cfc99a90fe72b739e4120cd00857127c37118bfa",
    "rep-2": "85adb810ccc673c861e3f3c563395c502fe9f368bfbbaf8716bda783fc2c1c68",
    "corep-1": "b7990af6779bf37ac49bde2ca6d5ff6399b026f7d97ccf2087d8e1aa0742c497",
    "corep-2": "9a43a35882d71f3c120f197d64ddce93417c08ee3ab7071461b3fa2ce2742b85",
    "corep-3": "89e6cd75d84a7c85be8ffafb7924d45151e5c4d3679aff6fa01faa365e05c5ae",
}
TABLE_BUILDER_SOURCES = {
    "symmul": "6bcdc2120429253c50263a9b117b9f177a733ed1e55861949fab13c1c829ac45",
    "cyc3": "4848e379d09f655a362ad3401860871a64b5aa04a6769b5980869189acc47ed4",
    "leib3": "573eff5f7c128642aca12773dff99e84431da9857a9aee21ad09419338099ddb",
    "leib2": "6d727c86abf892bd6cb760d5eb09756d27657b63fb7a5b353e8d42ac3602b61d",
    "kmap": "979cf4728f7c3a258ba11c6a2adaba598ea61af23979bdae38b0221c832c9575",
    "f1": "bc6ebec0f0dadeb90ecdd180b6bc5b7a1198b756dcf8cead7c991164bb1ead9a",
    "f2": "f7d1fb80165eb7d15d0133c998b4c1a3871839f59746891f71b4b25dc7ca65bd",
    "leib3_sub": "4d8d74d8b95d54a2e31759d2ca68a4cd21412f012589f0d8556883b046bbf85a",
    "L1": "bfeccf70ef6c480368713eba8c7b9815a181850362280317cb3c1386696e918f",
    "L2": "ce30bc5afe51c8568e4c5ba6932a7fb56e89d72fa8971ca4c37a57b1b9727518",
    "L3": "4e942900c0b40d775b35c74b5c5bdb4b9438818a003286822cdcbe4ce542ec41",
    "L1b": "577a4cea2433e4099f89f2f8a89b83fc5d2b50049acca38715f3f9fb0bfab729",
    "L2b": "2afc3274af252c914958c27eeab324d4a44027c3d40e33e423dd81c164a9c329",
}


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
    for name, digest in SCANNER_SOURCES.items():
        m = IDENTITIES.get(name) or REP_CONDITIONS[name]
        assert hashlib.sha256(structures._source(m, "scan")[0].encode()).hexdigest() == digest
    for name, digest in TABLE_BUILDER_SOURCES.items():
        m = structures._SUBMAPS[name]
        assert hashlib.sha256(structures._source(m, "table")[0].encode()).hexdigest() == digest

    # on integer tables, the tuple scans compile exactly the pinned sources
    monkeypatch.setattr(structures, "_COMPILED", {})
    b, r, rb = _integer_owners()
    forced(b, "tuples")
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        for m in IDENTITIES.values():
            structures._make_scanner(structures._ops(b, False, structures._layout), m)
        for m in REP_CONDITIONS.values():
            owner = rb if "rho1" in m.tensors else r
            structures._make_scanner(structures._ops(owner, False, _rep_layout), m)
    seen = {}
    for record in caplog.records:
        head, _, src = record.getMessage().partition(":\n")
        if head.startswith("generated "):
            seen[head] = hashlib.sha256(src.encode()).hexdigest()
    assert seen == {**{f"generated scanner for {name}": d for name, d in SCANNER_SOURCES.items()},
                    **{f"generated table builder for {name}": d
                       for name, d in TABLE_BUILDER_SOURCES.items()}}


# -- debug logging -----------------------------------------------------------------

def test_debug_events(caplog, monkeypatch):
    monkeypatch.setattr(structures, "_COMPILED", {})
    b = scaled(noncoherent_tfm(*NONCOHERENT_A))
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        report = check_coherence(b, max_counterexamples=100)
    assert not report.passed
    text = [r.getMessage() for r in caplog.records]
    assert all(r.name == "ternalg" and r.levelno == logging.DEBUG for r in caplog.records)
    assert "integer tables, dim 4: scale factors mul=3 br3=5 br2=None" in text
    assert any(t.startswith("generated scanner for coh1:\ndef make(") for t in text)
    assert any(t.startswith("generated table builder for leib3:") for t in text)
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
    assert "scan rho-skew: full range; 64 of 64 tuples scanned" in text
    assert "scan rep-1: full range; 1024 of 1024 tuples scanned" in text
    assert any(t.startswith("built L1 table, dim 4, module dim 4:") for t in text)


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
