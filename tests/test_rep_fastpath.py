"""The integer-rescaled representation scan against the dense exact oracle.

`check_representation` scans on integer tables and recomputes only the
flagged columns exactly; `rep_oracle` evaluates every condition as a dense
`Fraction` matrix.  Their reports must be equal, and every condition must
scale by one monomial alpha^a beta^b when rho and the brackets are scaled by
alpha and mu and the product by beta: the integer path is sound only then.
"""

import itertools
import random
from fractions import Fraction

import pytest

import rep_oracle
from ternalg import schema
from ternalg.catalog import fil4
from ternalg.linalg import Matrix, Tensor3, Tensor4, Vec, invert
from ternalg.representations import (
    BiRep,
    LinRep,
    RepBundle,
    RepKind,
    _kind_conditions,
    _RepOps,
    _run_conditions,
    adjoint_rep,
    check_representation,
    fix_slot_rep,
    semidirect,
)
from ternalg.structures import AlgebraBundle

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
    algebra = AlgebraBundle(
        n,
        product=Tensor3.build(n, lambda *_: rand_q(rng, DENS["product"])),
        bracket=Tensor4.build(n, lambda *_: rand_q(rng, DENS["bracket"])),
        binary_bracket=Tensor3.build(n, lambda *_: rand_q(rng, DENS["binary"])),
    )
    if binary:
        rho = LinRep(m, tuple(rand_mat(rng, m, DENS["rho"]) for _ in range(n)))
    else:
        rho = BiRep(m, tuple(tuple(rand_mat(rng, m, DENS["rho"]) for _ in range(n))
                             for _ in range(n)))
    mu = LinRep(m, tuple(rand_mat(rng, m, DENS["mu"]) for _ in range(n)))
    return RepBundle(algebra=algebra, rho=rho, mu=mu)


def scaled(r, alpha, beta):
    """rho and the brackets times alpha, mu and the product times beta."""
    a = r.algebra

    def tensor(t, c):
        return None if t is None else type(t)(_scale_nested(t.entries, c))

    algebra = AlgebraBundle(a.dim, product=tensor(a.product, beta),
                            bracket=tensor(a.bracket, alpha),
                            binary_bracket=tensor(a.binary_bracket, alpha))
    if isinstance(r.rho, BiRep):
        rho = BiRep(r.module_dim, tuple(tuple(x.scale(alpha) for x in row)
                                        for row in r.rho.mats))
    else:
        rho = LinRep(r.module_dim, tuple(x.scale(alpha) for x in r.rho.mats))
    mu = LinRep(r.module_dim, tuple(x.scale(beta) for x in r.mu.mats))
    return RepBundle(algebra=algebra, rho=rho, mu=mu)


def _scale_nested(x, c):
    if isinstance(x, tuple):
        return [_scale_nested(y, c) for y in x]
    return x * c


def conjugated(r, s):
    """The same representation in the module basis given by the columns of s."""
    s_inv = invert(s)

    def conj(x):
        return s @ x @ s_inv

    rho = BiRep(r.module_dim, tuple(tuple(conj(x) for x in row) for row in r.rho.mats))
    mu = LinRep(r.module_dim, tuple(conj(x) for x in r.mu.mats))
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
        return RepBundle(algebra=r.algebra, rho=r.rho, mu=LinRep(r.module_dim, tuple(mats)))
    mats = [list(x) for x in r.rho.mats]
    mats[i][j] = bump(mats[i][j])
    if keep_skew:
        mats[j][i] = -mats[i][j]
    rho = BiRep(r.module_dim, tuple(tuple(x) for x in mats))
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
        ours = _kind_conditions(RepKind(kind), r)
        theirs = rep_oracle.conditions(kind, r)
        assert [c[:2] for c in ours] == [c[:2] for c in theirs]
        for mine, ref in zip(ours, theirs):
            for k in KS:
                assert _run_conditions([mine], r, kind, k, 1) == \
                    rep_oracle.scan([ref], r, kind, k), (mine[0], k)


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

@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("binary", (False, True))
def test_conditions_scale_by_one_monomial(seed, binary):
    rng = random.Random(200 + seed)
    r = random_rep(200 + seed, binary)
    alpha, beta = rng.randint(2, 9), rng.randint(2, 9)
    base, big = _RepOps(r, exact=True), _RepOps(scaled(r, alpha, beta), exact=True)
    fast = _RepOps(r, exact=False)
    f_alpha, f_beta = fast.scale
    n, m = r.algebra.dim, r.module_dim
    seen = set()
    for kind in BINARY_KINDS if binary else TERNARY_KINDS:
        for name, arity, col in _kind_conditions(RepKind(kind), r):
            a, b = DEGREES[name]
            for t in itertools.product(range(n), repeat=arity):
                for p in range(m):
                    ref = col(base, t, p)
                    assert col(big, t, p) == [alpha ** a * beta ** b * v for v in ref]
                    assert col(fast, t, p) == [f_alpha ** a * f_beta ** b * v for v in ref]
                    if any(ref):
                        seen.add(name)
    # the random data must give every condition nonzero columns to compare
    assert seen == {name for kind in (BINARY_KINDS if binary else TERNARY_KINDS)
                    for name, _a, _c in _kind_conditions(RepKind(kind), r)}


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
            one = check_representation(kind, bad, max_counterexamples=k, jobs=1)
            two = check_representation(kind, bad, max_counterexamples=k, jobs=2)
            assert one == expected, (kind, k)
            assert schema.dumps(schema.report_to_obj(one)) == \
                schema.dumps(schema.report_to_obj(two))
