"""The operator, trace, induced-condition and homomorphism checkers against
the dense exact oracle.

`operator_oracle` states every condition of these checkers as a hand-written
dense `Fraction` formula.  For seeded inputs -- random ones, catalog passes
moved into a rational basis and scaled, and those passes nudged -- each
checker's report at k = 1, 5 and 100 must equal the oracle's: verdict,
counterexample indices and residuals, and `tuple_count`.  The algebra, the
action and the map, form or functional all carry non-unit denominators.
"""

import itertools
import random
from fractions import Fraction

import pytest

import operator_oracle as oracle
from rep_oracle import action
from structure_oracle import br2, br3, mul
from ternalg.catalog import (
    fil4,
    fil4_rb,
    fil4_symplectic,
    gl2_trace,
    heisenberg_trace,
    r_int,
    trunc,
)
from ternalg.constructions import TraceFunctional, check_induced_condition, check_trace
from ternalg.linalg import InterMap, Matrix, Tensor, Vec, invert
from ternalg.operators import (
    BilinearForm,
    check_cyclic_2cocycle,
    check_nijenhuis,
    check_relative_rb,
    check_relative_rb_3lie,
    check_relative_rb_comm,
    check_symplectic,
    lift_nijenhuis,
)
from ternalg.representations import BiRep, LinRep, RepBundle, adjoint_rep, semidirect
from ternalg.structures import AlgebraBundle, check_homomorphism

KS = (1, 5, 100)
DENS = {"product": (2, 3), "bracket": (5, 4), "binary_bracket": (7, 3),
        "rho": (3, 9), "mu": (7,), "map": (2, 5), "form": (3, 7), "tau": (4, 5)}


def rand_q(rng, dens, zero=0.4):
    if rng.random() < zero:
        return 0
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.choice(dens))


def rand_matrix(rng, rows, cols, dens):
    return Matrix([[rand_q(rng, dens) for _ in range(cols)] for _ in range(rows)])


def rand_algebra(rng, n):
    def tensor(order, dens):  # one draw per cell, in index order
        return Tensor(n, order, {idx: rand_q(rng, dens)
                                 for idx in itertools.product(range(n), repeat=order)})

    return AlgebraBundle(
        n,
        product=tensor(3, DENS["product"]),
        bracket=tensor(4, DENS["bracket"]),
        binary_bracket=tensor(3, DENS["binary_bracket"]),
    )


def rand_rep(rng, n, m):
    algebra = rand_algebra(rng, n)
    rho = action(BiRep, tuple(tuple(rand_matrix(rng, m, m, DENS["rho"]) for _ in range(n))
                              for _ in range(n)))
    mu = action(LinRep, tuple(rand_matrix(rng, m, m, DENS["mu"]) for _ in range(n)))
    return RepBundle(algebra=algebra, rho=rho, mu=mu)


def rand_skew(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rand_q(rng, DENS["form"], zero=0.2)
            rows[j][i] = -rows[i][j]
    return BilinearForm(Matrix(rows))


def rand_invertible(rng, n):
    """An upper unitriangular matrix with non-unit rational entries."""
    return Matrix([[1 if i == j else (rand_q(rng, DENS["map"]) if j > i else 0)
                    for j in range(n)] for i in range(n)])


def nudged(m: Matrix, rng, times=2, skew=False) -> Matrix:
    rows = [list(r) for r in m.entries]
    for _ in range(times):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        if skew and i == j:
            j = (j + 1) % len(rows)
        d = Fraction(rng.choice((1, -2, 3)), rng.choice((2, 3, 7)))
        rows[i][j] += d
        if skew:
            rows[j][i] -= d
    return Matrix(rows)


def rebased(a, s: Matrix, scale=Fraction(1)):
    """a in the basis given by the columns of s, every tensor times `scale`:
    s is then a homomorphism from the result to a when scale is 1."""
    s_inv, n = invert(s), a.dim
    cols = [s.column(i) for i in range(n)]

    def tensor(slot, op, order):
        if getattr(a, slot) is None:
            return None
        return Tensor(n, order, ((idx + (j,), v)
                                 for idx in itertools.product(range(n), repeat=order - 1)
                                 for j, v in enumerate(s_inv.apply(
                                     op(a, *(cols[i] for i in idx))).scale(scale))))

    return AlgebraBundle(n, product=tensor("product", mul, 3),
                         bracket=tensor("bracket", br3, 4),
                         binary_bracket=tensor("binary_bracket", br2, 3))


def rebased_rep(r, s: Matrix, alpha, beta):
    """r in the module basis given by the columns of s, with rho and the
    bracket times alpha and mu and the product times beta."""
    s_inv = invert(s)

    def conj(x, c):
        return (s_inv @ x @ s).scale(c)

    a = r.algebra
    algebra = AlgebraBundle(
        a.dim,
        product=Tensor(a.dim, 3, [(i, beta * v) for i, v in a.product.nonzeros()]),
        bracket=Tensor(a.dim, 4, [(i, alpha * v) for i, v in a.bracket.nonzeros()]))
    rho = action(BiRep, tuple(tuple(conj(x, alpha) for x in row) for row in r.rho.mats))
    mu = action(LinRep, tuple(conj(x, beta) for x in r.mu.mats))
    return RepBundle(algebra=algebra, rho=rho, mu=mu)


def assert_matches(run, conds, kind):
    want = oracle.reports(conds, kind, KS)
    for k in KS:
        assert run(k) == want[k], k


# -- relative Rota-Baxter ----------------------------------------------------------

RB_CHECKERS = {
    "relative-rb-comm": (check_relative_rb_comm, ("rb-comm",)),
    "relative-rb-3lie": (check_relative_rb_3lie, ("rb-3lie",)),
    "relative-rb": (check_relative_rb, ("rb-comm", "rb-3lie")),
}


def _rb_cases(seed):
    rng = random.Random(seed)
    n, m = rng.choice((2, 3)), rng.choice((2, 3))
    rand = (InterMap(rand_matrix(rng, n, m, DENS["map"])), rand_rep(rng, n, m))
    passes = []
    for t, rep in ((fil4_rb(), adjoint_rep(fil4())), (r_int(3), adjoint_rep(trunc(3)))):
        s = rand_invertible(rng, rep.module_dim)
        moved = rebased_rep(rep, s, Fraction(3, 2), Fraction(5, 7))
        passes.append((InterMap(t.matrix @ s), moved))
    nudged_pass = (InterMap(nudged(passes[seed % 2][0].matrix, rng)), passes[seed % 2][1])
    return {"random": rand, "pass": passes[seed % 2], "nudged": nudged_pass}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", ("random", "pass", "nudged"))
@pytest.mark.parametrize("kind", sorted(RB_CHECKERS))
def test_relative_rb_matches_oracle(kind, case, seed):
    check, names = RB_CHECKERS[kind]
    t, r = _rb_cases(seed)[case]
    report = check(t, r, max_counterexamples=100)
    if case == "pass":
        assert report.passed
    assert_matches(lambda k: check(t, r, max_counterexamples=k),
                   oracle.relative_rb(t, r, names), kind)


# -- bilinear forms ----------------------------------------------------------------

FORM_CHECKERS = {
    "cyclic-2cocycle": (check_cyclic_2cocycle, oracle.cocycle),
    "symplectic": (check_symplectic, oracle.symplectic),
}


def _form_cases(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    s = rand_invertible(rng, 4)
    moved = rebased(fil4(), s, Fraction(4, 3))
    passing = BilinearForm((s.T @ fil4_symplectic().matrix @ s).scale(Fraction(2, 5)))
    return {
        "random": (rand_skew(rng, n), rand_algebra(rng, n)),
        "pass": (passing, moved),
        "nudged": (BilinearForm(nudged(passing.matrix, rng, skew=True)), moved),
        "product": (rand_skew(rng, 3), rebased(trunc(3), rand_invertible(rng, 3))),
    }


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", ("random", "pass", "nudged", "product"))
@pytest.mark.parametrize("kind", sorted(FORM_CHECKERS))
def test_forms_match_oracle(kind, case, seed):
    check, conds = FORM_CHECKERS[kind]
    b, a = _form_cases(seed)[case]
    if case == "pass":
        assert check(b, a).passed
    assert_matches(lambda k: check(b, a, max_counterexamples=k), conds(b, a), kind)


# -- Nijenhuis ---------------------------------------------------------------------

def _nijenhuis_cases(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    a = rand_algebra(rng, n)
    scalar = InterMap(Matrix.identity(n).scale(Fraction(3, 2)))
    s = rand_invertible(rng, 4)
    rep = rebased_rep(adjoint_rep(fil4()), s, Fraction(2, 3), 1)
    t = InterMap(fil4_rb().matrix @ s)
    return {
        "random": (InterMap(rand_matrix(rng, n, n, DENS["map"])), a),
        "scalar": (scalar, a),
        "nudged": (InterMap(nudged(scalar.matrix, rng)), a),
        "product-only": (InterMap(nudged(scalar.matrix, rng)),
                         AlgebraBundle(n, product=a.product)),
        "bracket-only": (InterMap(nudged(scalar.matrix, rng)),
                         AlgebraBundle(n, bracket=a.bracket)),
        "lift": (lift_nijenhuis(t, rep), semidirect(rep)),
    }


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", ("random", "scalar", "nudged", "product-only",
                                  "bracket-only", "lift"))
def test_nijenhuis_matches_oracle(case, seed):
    nop, a = _nijenhuis_cases(seed)[case]
    if case in ("scalar", "lift"):
        assert check_nijenhuis(nop, a).passed
    assert_matches(lambda k: check_nijenhuis(nop, a, max_counterexamples=k),
                   oracle.nijenhuis(nop, a), "nijenhuis")


# -- traces and the induced condition ----------------------------------------------

TRACE_CHECKERS = {
    "trace": (check_trace, oracle.trace),
    "induced-condition": (check_induced_condition, oracle.induced),
}


def _trace_cases(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    rand_tau = TraceFunctional(Vec(rand_q(rng, DENS["tau"]) for _ in range(n)))
    bundle, tau = (gl2_trace, heisenberg_trace)[seed % 2]()
    s = rand_invertible(rng, bundle.dim)
    moved = rebased(bundle, s, Fraction(5, 3))
    moved_tau = TraceFunctional((Matrix([tau.row.entries]) @ s).row(0))
    with_product = AlgebraBundle(moved.dim, product=rebased(trunc(moved.dim), s).product,
                                 binary_bracket=moved.binary_bracket)
    nudged_tau = TraceFunctional(nudged(Matrix([moved_tau.row.entries]), rng).row(0))
    return {
        "random": (rand_algebra(rng, n), rand_tau),
        "pass": (moved, moved_tau),
        "nudged": (moved, nudged_tau),
        "product": (with_product, nudged_tau),
    }


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", ("random", "pass", "nudged", "product"))
@pytest.mark.parametrize("kind", sorted(TRACE_CHECKERS))
def test_traces_match_oracle(kind, case, seed):
    check, conds = TRACE_CHECKERS[kind]
    a, tau = _trace_cases(seed)[case]
    if case == "pass":
        assert check(a, tau).passed
    assert_matches(lambda k: check(a, tau, max_counterexamples=k), conds(a, tau), kind)


# -- homomorphisms -----------------------------------------------------------------

def _hom_cases(seed):
    rng = random.Random(seed)
    n, n2 = rng.choice((2, 3)), rng.choice((2, 3))
    a = rand_algebra(rng, n)
    s = rand_invertible(rng, n)
    moved = rebased(a, s)
    return {
        "random": (InterMap(rand_matrix(rng, n2, n, DENS["map"])), a, rand_algebra(rng, n2)),
        "pass": (InterMap(s), moved, a),
        "nudged": (InterMap(nudged(s, rng)), moved, a),
        "product-only": (InterMap(nudged(s, rng)), AlgebraBundle(n, product=moved.product), a),
    }


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", ("random", "pass", "nudged", "product-only"))
def test_homomorphism_matches_oracle(case, seed):
    f, src, dst = _hom_cases(seed)[case]
    if case == "pass":
        assert check_homomorphism(f, src, dst).passed
    assert_matches(lambda k: check_homomorphism(f, src, dst, max_counterexamples=k),
                   oracle.homomorphism(f, src, dst), "homomorphism")
