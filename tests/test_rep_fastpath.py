"""The integer-rescaled representation scan against the dense exact oracle.

`check_representation` scans the conditions of `REP_CONDITIONS` on integer
tables and recomputes only the flagged entries exactly; `rep_oracle`
evaluates every condition as a dense `Fraction` matrix.  Their reports must
be equal; every condition scales by one monomial alpha^a beta^b when rho and
the brackets are scaled by alpha and mu and the product by beta, and its
integer scan is L times its exact value; the sort checks of `_define` are
pinned here too.
"""

import hashlib
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest

import rep_oracle
from rep_oracle import action
from test_structure_fastpath import degrees
from ternalg import structures
from ternalg import schema
from ternalg.catalog import fil4, trunc
from ternalg.constructions import direct_sum
from ternalg.linalg import Matrix, Tensor, Vec, invert
from ternalg.errors import InternalError
from ternalg.representations import (
    REP_CONDITIONS,
    BiRep,
    LinRep,
    RepBundle,
    RepKind,
    adjoint_rep,
    check_representation,
    fix_slot_rep,
    semidirect,
)
from ternalg.structures import (
    KINDS,
    AlgebraBundle,
    _evaluate,
    _make_scanner,
    _multipliers,
    _ops,
    run_conditions,
)

TERNARY_KINDS = ("three-lie-rep", "comm-assoc-rep", "ternary-fmanifold-rep", "dual-conditions")
BINARY_KINDS = ("lie-rep", "comm-assoc-rep", "fmanifold-rep")
KS = (1, 5, 100)

# (alpha, beta) exponents of each condition's column under the weighted scaling
DEGREES = {
    "rho-skew": (1, 0),
    "kasymov-i": (2, 0),
    "kasymov-ii": (2, 0),
    "mu-mult": (0, 2),
    "rho-lie": (2, 0),
    "brep-1": (1, 2),
    "brep-2": (1, 2),
    "rep-1": (1, 2),
    "rep-3": (1, 2),
    "rep-2": (1, 2),
    "corep-1": (1, 2),
    "corep-2": (1, 2),
    "corep-3": (1, 2),
}

# Denominators per tensor: rho differs from the brackets and mu from the
# product, so the shared scale factors are lcms of several denominators.
DENS = {"rho": (3, 9), "bracket": (2, 4), "binary": (5,), "mu": (7,), "product": (2, 3)}


def rand_q(rng, dens):
    if rng.random() < 0.4:
        return 0
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.choice(dens))


def rand_mat(rng, m, dens):
    return Matrix([[rand_q(rng, dens) for _ in range(m)] for _ in range(m)])


def random_rep(seed, binary):
    rng = random.Random(seed)
    n, m = rng.choice((2, 3)), rng.choice((2, 3))

    def tensor(order, dens):  # one draw per cell, in index order
        return Tensor(n, order, {idx: rand_q(rng, dens)
                                 for idx in itertools.product(range(n), repeat=order)})

    algebra = AlgebraBundle(
        n,
        product=tensor(3, DENS["product"]),
        bracket=tensor(4, DENS["bracket"]),
        binary_bracket=tensor(3, DENS["binary"]),
    )
    if binary:
        rho = action(LinRep, tuple(rand_mat(rng, m, DENS["rho"]) for _ in range(n)))
    else:
        rho = action(BiRep, tuple(tuple(rand_mat(rng, m, DENS["rho"]) for _ in range(n))
                                  for _ in range(n)))
    mu = action(LinRep, tuple(rand_mat(rng, m, DENS["mu"]) for _ in range(n)))
    return RepBundle(algebra=algebra, rho=rho, mu=mu)


def scaled(r, alpha, beta):
    """rho and the brackets times alpha, mu and the product times beta."""
    a = r.algebra

    def tensor(t, c):
        return None if t is None else Tensor(t.dim, t.order, [(i, c * v) for i, v in t.nonzeros()])

    algebra = AlgebraBundle(a.dim, product=tensor(a.product, beta),
                            bracket=tensor(a.bracket, alpha),
                            binary_bracket=tensor(a.binary_bracket, alpha))
    if isinstance(r.rho, BiRep):
        rho = action(BiRep, tuple(tuple(x.scale(alpha) for x in row) for row in r.rho.mats))
    else:
        rho = action(LinRep, tuple(x.scale(alpha) for x in r.rho.mats))
    mu = action(LinRep, tuple(x.scale(beta) for x in r.mu.mats))
    return RepBundle(algebra=algebra, rho=rho, mu=mu)


def conjugated(r, s):
    """The same representation in the module basis given by the columns of s."""
    s_inv = invert(s)

    def conj(x):
        return s @ x @ s_inv

    rho = action(BiRep, tuple(tuple(conj(x) for x in row) for row in r.rho.mats))
    mu = action(LinRep, tuple(conj(x) for x in r.mu.mats))
    return RepBundle(algebra=r.algebra, rho=rho, mu=mu)


def nudged(r, which, i, j, row, col, delta, keep_skew=False):
    """r with one entry of rho(e_i,e_j) (which="rho") or mu(e_i) (which="mu") moved."""
    def bump(mat):
        rows = [list(x) for x in mat.entries]
        rows[row][col] += delta
        return Matrix(rows)

    if which == "mu":
        mats = list(r.mu.mats)
        mats[i] = bump(mats[i])
        return RepBundle(algebra=r.algebra, rho=r.rho, mu=action(LinRep, mats))
    mats = [list(x) for x in r.rho.mats]
    mats[i][j] = bump(mats[i][j])
    if keep_skew:
        mats[j][i] = -mats[i][j]
    rho = action(BiRep, mats)
    return RepBundle(algebra=r.algebra, rho=rho, mu=r.mu)


# -- differential: library against oracle -----------------------------------------

@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("binary", (False, True))
def test_random_bundles_match_oracle(seed, binary):
    r = random_rep(seed, binary)
    for kind in BINARY_KINDS if binary else TERNARY_KINDS:
        for k in KS:
            assert check_representation(kind, r, max_counterexamples=k) == \
                rep_oracle.check(kind, r, k), (kind, k)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("binary", (False, True))
def test_every_condition_matches_oracle_alone(seed, binary):
    # On random data the first condition of a kind fails, and with it the
    # whole budget; scanning each condition alone reaches the later ones.
    r = random_rep(100 + seed, binary)
    for kind in BINARY_KINDS if binary else TERNARY_KINDS:
        names = KINDS[kind]
        theirs = rep_oracle.conditions(kind, r)
        # the oracle counts the algebra slots; the module slot is the last
        assert [(name, REP_CONDITIONS[name].arity - 1) for name in names] == \
            [c[:2] for c in theirs]
        for name, ref in zip(names, theirs):
            for k in KS:
                with mock.patch.dict(KINDS, {kind: (name,)}):  # the kind cut to one
                    assert run_conditions(kind, r, k) == \
                        rep_oracle.scan([ref], r, kind, k), (name, k)


def _fil4_near_misses():
    adj = adjoint_rep(fil4())
    s = Matrix([[1, Fraction(1, 2), 0, 0], [0, 1, Fraction(-2, 3), 0],
                [0, 0, 1, 0], [Fraction(1, 5), 0, 0, 1]])
    base = conjugated(scaled(adj, Fraction(3, 2), Fraction(5, 7)), s)
    return {
        "rho-skew-kept": nudged(base, "rho", 0, 1, 2, 3, Fraction(2, 3), keep_skew=True),
        "rho-one-entry": nudged(base, "rho", 1, 3, 0, 2, Fraction(-1, 4)),
        "mu-one-entry": nudged(base, "mu", 2, 0, 1, 3, Fraction(3, 5)),
    }


@pytest.mark.parametrize("case", ("rho-skew-kept", "rho-one-entry", "mu-one-entry"))
def test_near_misses_of_adjoint_fil4_match_oracle(case):
    r = _fil4_near_misses()[case]
    bin_r = fix_slot_rep(r, Vec.basis(4, 3))
    for kind, rep in [(k, r) for k in TERNARY_KINDS] + [(k, bin_r) for k in BINARY_KINDS]:
        for k in KS:
            assert check_representation(kind, rep, max_counterexamples=k) == \
                rep_oracle.check(kind, rep, k), (kind, k)


def test_unperturbed_scaled_conjugated_adjoint_passes():
    adj = adjoint_rep(fil4())
    s = Matrix([[1, Fraction(1, 2), 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    r = conjugated(scaled(adj, Fraction(3, 2), Fraction(5, 7)), s)
    for kind in ("three-lie-rep", "ternary-fmanifold-rep", "dual-conditions"):
        assert check_representation(kind, r).passed


# -- weighted homogeneity ------------------------------------------------------------

def test_degrees_pinned():
    # every term of a condition has the same (alpha, beta) degree
    groups = (("rho", "rho1", "br3", "br2"), ("mu", "mul"))
    assert {name: degrees(c, groups) for name, c in REP_CONDITIONS.items()} == \
        {name: {d} for name, d in DEGREES.items()}
    assert {name for kind in RepKind for name in KINDS[kind.value]} == set(DEGREES)


def _units(sorts, t, sizes):
    return [Vec.basis(sizes[s], i) for s, i in zip(sorts, t)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("binary", (False, True))
def test_conditions_scale_by_one_monomial(seed, binary):
    rng = random.Random(200 + seed)
    r = random_rep(200 + seed, binary)
    alpha, beta = rng.randint(2, 9), rng.randint(2, 9)
    base = _ops(r)
    big = _ops(scaled(r, alpha, beta))
    names = {name for kind in (BINARY_KINDS if binary else TERNARY_KINDS)
             for name in KINDS[kind]}
    seen = set()
    for name in names:
        cond = REP_CONDITIONS[name]
        a, b = DEGREES[name]
        # the lists kept as the sweep yielded them: a reused buffer would show
        swept, L = dict(_make_scanner(base, cond)()), _multipliers(base, cond)[0]
        for t in itertools.product(*(range(base.sizes[s]) for s in cond.sorts)):
            ref = _evaluate(base, cond, _units(cond.sorts, t, base.sizes))
            assert _evaluate(big, cond, _units(cond.sorts, t, base.sizes)) == \
                [alpha ** a * beta ** b * v for v in ref]
            assert swept.get(t, [0] * len(ref)) == [L * v for v in ref]
            assert (t in swept) == any(ref)
            if any(ref):
                seen.add(name)
    # the random data must give every condition nonzero columns to compare
    assert seen == names


# -- the import-time checks of a definition --------------------------------------

def test_ill_sorted_definitions_rejected():
    mul, br3, rho, mu = (structures._op(op) for op in ("mul", "br3", "rho", "mu"))
    L1 = structures._op("L1")
    # a module slot inside mul
    with pytest.raises(InternalError, match="slot x3 is V in one term and A in another"):
        structures._define("bad", lambda x, y, v: mu(x, mu(y, v)) - mu(mul(x, v), y))
    # an algebra slot, and an algebra value, where rho takes a module vector
    with pytest.raises(InternalError, match="slot x3 is A in one term and V in another"):
        structures._define("bad", lambda x, y, z, v: mu(z, rho(x, y, v)) - rho(x, y, z))
    with pytest.raises(InternalError, match="mul gives A where rho takes V"):
        structures._define("bad", lambda x, y, z, w: rho(x, y, mul(z, w)))
    # a module-valued sub-map nested as an algebra argument
    with pytest.raises(InternalError, match="L1 gives V where mul takes A"):
        structures._define("bad", lambda x, y, z, w, v: mul(L1(x, y, z, v), w))
    # L1 mixes rho with br3: accepted, each term scaled apart
    ok = structures._define("ok", lambda x, y, z, v: (
        rho(x, y, mu(z, v)) - mu(z, rho(x, y, v)) - mu(br3(x, y, z), v)))
    assert (ok.sorts, ok.out, ok.tensors) == (("A", "A", "A", "V"), "V", {"rho", "mu", "br3"})
    assert ok.terms == structures._SUBMAPS["L1"].terms


# -- pinned reports at n = m = 8 ------------------------------------------------------

@pytest.fixture(scope="module")
def adj_sd():
    return adjoint_rep(semidirect(adjoint_rep(fil4())))


def test_adjoint_sd_pass_tuple_count(adj_sd):
    report = check_representation("ternary-fmanifold-rep", adj_sd)
    assert report.passed
    assert report.tuple_count == 164_864


def test_adjoint_sd_perturbed_reports_match_oracle(adj_sd):
    bad = nudged(adj_sd, "rho", 0, 1, 0, 0, Fraction(2, 3))
    for kind in ("ternary-fmanifold-rep", "dual-conditions"):
        full = rep_oracle.check(kind, bad, KS[-1])
        for k in KS:
            # a passing scan visits every column whatever the budget
            expected = full if full.passed or k == KS[-1] else rep_oracle.check(kind, bad, k)
            assert check_representation(kind, bad, max_counterexamples=k) == expected, \
                (kind, k)


# -- pinned reports with a nonzero mu at n = m = 8 --------------------------------------
# adjoint_rep(sd) has mu = 0, so its pins never reach the mu terms; the
# adjoint representation of fil4 + trunc(4) has a nonzero mu and passes.
# One nudged mu entry fails mu-mult, rep-1, rep-2, corep-1 and corep-3; one
# nudged rho entry fails every condition of both kinds.

NONZERO_MU_PINNED = {
    ("mu", "ternary-fmanifold-rep"): {
        1: (66337, "2a5bf965c4d02759f8834a7d1c7e7cdc7eccf68bedb05ab1097b8d4d8285e576"),
        5: (84641, "3709e292b57a4233448d2f1536890c1a682c18ed9f09e50d2d9ad63ca0bb012f"),
        100: (164864, "43ea59224c060eb8216e974d8876b3104e5e31ca65e58c492f632053c54b3610"),
    },
    ("mu", "dual-conditions"): {
        1: (10465, "1bd7638d3c0e7e29c19b86ff243fbc0e20ed45b6e567e3bc0ace7e3cfc118273"),
        5: (83169, "2ab45907e466777820710b7412cd54e0e7761325e0425ad3d0b2b4791de94aa4"),
        100: (98304, "1e4ae4dfa8b73a462c8dfa7f4fee8f372c8474ae8902bfb97602dbf143020985"),
    },
    ("rho", "ternary-fmanifold-rep"): {
        1: (14, "9ec15d5fa23de4cd5165798b989e6096eb9141a8a2676da78d60d38b6820b9c1"),
        5: (6230, "89870c63e1b03b34d38087f967d98d4092b412e332cdf0684aa8b6a69e373884"),
        100: (164864, "e6151c7bfc78d607ea9806f0396c0423ccadec6a823bf418f5075a03d5032b4a"),
    },
    ("rho", "dual-conditions"): {
        1: (2157, "10cf11d606efe3f554ac55499a53dee4a6cd99b8d9a43dd9eb2be5855bd97c86"),
        5: (2669, "d8356f1a4a38819bea6f945d87ae375d8c01f0a8b28524b965111249c067f560"),
        100: (98304, "68891f7416680aecfa6bf3bd67e911cef86267308bbb6494e30823545a69f53b"),
    },
}


@pytest.fixture(scope="module")
def adj_fil4_trunc4():
    base = adjoint_rep(direct_sum(fil4(), trunc(4)))
    assert any(not x.is_zero() for x in base.mu.mats)
    return {"mu": nudged(base, "mu", 4, 0, 1, 0, Fraction(1, 2)),
            "rho": nudged(base, "rho", 0, 1, 4, 5, Fraction(2, 3))}


@pytest.mark.parametrize("case, kind", sorted(NONZERO_MU_PINNED))
def test_nonzero_mu_n8_reports_pinned(adj_fil4_trunc4, case, kind):
    for k, (count, digest) in NONZERO_MU_PINNED[case, kind].items():
        report = check_representation(kind, adj_fil4_trunc4[case], max_counterexamples=k)
        text = schema.dumps(schema.report_to_obj(report))
        assert (report.tuple_count, hashlib.sha256(text.encode()).hexdigest()) == \
            (count, digest), (case, kind, k)
