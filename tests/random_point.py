"""Random-point oracle: an independent false-pass detector at any n.

Every identity and representation condition is multilinear, so its defect
is a vector of polynomials in the coordinates of its arguments, each of
degree d, its number of slots (at most 6 here: five algebra slots and a
module slot).  If one of them is not zero, a point whose coordinates are
drawn independently and uniformly from a set S is a root of it with
probability at most d / |S| (J. T. Schwartz, J. ACM 27(4), 1980; R.
Zippel, EUROSAM 1979).  `point` draws from S = [-2^20, 2^20), so
|S| = 2^21 and a nonzero defect vanishes at one point with probability at
most 6 / 2^21 < 2.9e-6, and at each of P independent points with at most
(6 / 2^21)^P.  The seed is fixed, so a test built on this is deterministic.

The formulas are `structure_oracle.FORMULAS` and, in `REP_FORMULAS`, the
conditions of `rep_oracle` written at vectors instead of basis tuples.
Each operation, of the algebra or of an action, is applied by one loop
over `Tensor.nonzeros()` (`apply`), in exact integers, so nothing goes
through the library's tables, scales, supports, plans or generated code,
nor through the oracles' dense grids, which cost O(n^4) entries at n = 32.
"""

import contextlib
import itertools
import random
from fractions import Fraction
from math import lcm, prod
from unittest import mock

import structure_oracle as oracle
from structure_oracle import _leib2, _leib3, br2, br3, mul
from ternalg.linalg import Vec

LOW, HIGH = -2 ** 20, 2 ** 20


_ROWS: dict = {}


def _rows(t):
    """t's nonzeros as integers over their common denominator, by their
    leading indices: ([(leading indices, [(value index, integer), ...]),
    ...], the denominator), computed once per tensor; the entry keeps t
    alive, so its id is not reused."""
    hit = _ROWS.get(id(t))
    if hit is None:
        den = lcm(*(c.denominator for _, c in t.nonzeros()))
        rows = [(head, [(idx[-1], int(c * den)) for idx, c in run])
                for head, run in itertools.groupby(t.nonzeros(), lambda e: e[0][:-1])]
        hit = _ROWS[id(t)] = (t, rows, den)
    return hit[1], hit[2]


def apply(t, *vecs) -> Vec:
    """The operation of the tensor t at vectors, one per slot, by one loop
    over its nonzeros: each constant times the vectors' coordinates at its
    leading indices, added at its value index.  It runs on integers, every
    vector over its own common denominator, and divides once at the end."""
    rows, den = _rows(t)
    dens = [lcm(*(x.denominator for x in v)) for v in vecs]
    ints = [[int(x * d) for x in v] for v, d in zip(vecs, dens)]
    out = [0] * t.shape[-1]
    for head, row in rows:
        c = 1
        for v, i in zip(ints, head):
            c *= v[i]
            if not c:
                break
        else:
            for l, w in row:
                out[l] += c * w
    den *= prod(dens)
    return Vec(Fraction(x, den) for x in out)


@contextlib.contextmanager
def sparse_operations():
    """`structure_oracle`'s products and brackets applied by `apply`."""
    with mock.patch.object(oracle, "apply_bilinear", apply), \
            mock.patch.object(oracle, "apply_trilinear", apply):
        yield


def point(rng: random.Random, sizes) -> list:
    """One vector per size, each coordinate uniform on [LOW, HIGH)."""
    return [Vec([rng.randrange(LOW, HIGH) for _ in range(n)]) for n in sizes]


# -- the representation conditions at vectors: (x1, ..., v) -> a module vector

def _rho(r, x, y, v):
    return apply(r.rho.tensor, x, y, v)


def _rho1(r, x, v):
    return apply(r.rho.tensor, x, v)


def _mu(r, x, v):
    return apply(r.mu.tensor, x, v)


def _l1(r, x, y, z, v):
    """rho(x,y)mu(z)v - mu(z)rho(x,y)v - mu([x,y,z])v"""
    a = r.algebra
    return _rho(r, x, y, _mu(r, z, v)) - _mu(r, z, _rho(r, x, y, v)) - _mu(r, br3(a, x, y, z), v)


def _l2(r, x, y, z, v):
    """mu(z)rho(x,y)v + mu(y)rho(x,z)v - rho(x, yz)v"""
    return (_mu(r, z, _rho(r, x, y, v)) + _mu(r, y, _rho(r, x, z, v))
            - _rho(r, x, mul(r.algebra, y, z), v))


def _l3(r, x, y, z, v):
    """rho(x,y)mu(z)v + rho(x,z)mu(y)v - rho(x, yz)v"""
    return (_rho(r, x, y, _mu(r, z, v)) + _rho(r, x, z, _mu(r, y, v))
            - _rho(r, x, mul(r.algebra, y, z), v))


def _l1b(r, x, z, v):
    """rho(x)mu(z)v - mu(z)rho(x)v - mu([x,z])v"""
    return _rho1(r, x, _mu(r, z, v)) - _mu(r, z, _rho1(r, x, v)) - _mu(r, br2(r.algebra, x, z), v)


def _l2b(r, y, z, v):
    """mu(y)rho(z)v + mu(z)rho(y)v - rho(yz)v"""
    return (_mu(r, y, _rho1(r, z, v)) + _mu(r, z, _rho1(r, y, v))
            - _rho1(r, mul(r.algebra, y, z), v))


def _derivation_of(lmap):
    """L(x1 x2, x3, x4)v - mu(x1)L(x2, x3, x4)v - mu(x2)L(x1, x3, x4)v"""
    def cond(r, x1, x2, x3, x4, v):
        return (lmap(r, mul(r.algebra, x1, x2), x3, x4, v) - _mu(r, x1, lmap(r, x2, x3, x4, v))
                - _mu(r, x2, lmap(r, x1, x3, x4, v)))
    return cond


def _co(lmap, sign):
    """L(x1 x2, x3, x4)v + sign (L(x2, x3, x4)mu(x1)v + L(x1, x3, x4)mu(x2)v)"""
    def cond(r, x1, x2, x3, x4, v):
        return (lmap(r, mul(r.algebra, x1, x2), x3, x4, v)
                + (lmap(r, x2, x3, x4, _mu(r, x1, v))
                   + lmap(r, x1, x3, x4, _mu(r, x2, v))).scale(sign))
    return cond


def _leibniz_of(lmap):
    """mu(leib3(x1, ..., x4))v - L(x2, x3, x4)mu(x1)v + mu(x1)L(x2, x3, x4)v"""
    def cond(r, x1, x2, x3, x4, v):
        return (_mu(r, _leib3(r.algebra, x1, x2, x3, x4), v) - lmap(r, x2, x3, x4, _mu(r, x1, v))
                + _mu(r, x1, lmap(r, x2, x3, x4, v)))
    return cond


REP_FORMULAS = {
    "mu-mult": lambda r, x, y, v: _mu(r, mul(r.algebra, x, y), v) - _mu(r, x, _mu(r, y, v)),
    "rho-lie": lambda r, x, y, v: (_rho1(r, br2(r.algebra, x, y), v) - _rho1(r, x, _rho1(r, y, v))
                                   + _rho1(r, y, _rho1(r, x, v))),
    "rho-skew": lambda r, x, y, v: _rho(r, x, y, v) + _rho(r, y, x, v),
    "kasymov-i": lambda r, x1, x2, x3, x4, v: (
        _rho(r, x1, x2, _rho(r, x3, x4, v)) - _rho(r, x3, x4, _rho(r, x1, x2, v))
        - _rho(r, br3(r.algebra, x1, x2, x3), x4, v) + _rho(r, br3(r.algebra, x1, x2, x4), x3, v)),
    "kasymov-ii": lambda r, x1, x2, x3, x4, v: (
        _rho(r, br3(r.algebra, x1, x2, x3), x4, v) - _rho(r, x1, x2, _rho(r, x3, x4, v))
        - _rho(r, x2, x3, _rho(r, x1, x4, v)) - _rho(r, x3, x1, _rho(r, x2, x4, v))),
    "rep-1": _derivation_of(_l1),
    "rep-3": _derivation_of(_l2),
    "rep-2": _leibniz_of(_l2),
    "corep-1": _co(_l1, -1),
    "corep-2": _co(_l3, 1),
    "corep-3": _leibniz_of(_l3),
    "brep-1": lambda r, x1, x2, x3, v: (
        _l1b(r, mul(r.algebra, x1, x2), x3, v) - _mu(r, x1, _l1b(r, x2, x3, v))
        - _mu(r, x2, _l1b(r, x1, x3, v))),
    "brep-2": lambda r, x1, x2, x3, v: (
        _mu(r, _leib2(r.algebra, x1, x2, x3), v) - _l2b(r, x2, x3, _mu(r, x1, v))
        + _mu(r, x1, _l2b(r, x2, x3, v))),
}


def rep_arity(name: str) -> int:
    """The number of algebra slots of a representation condition."""
    return REP_FORMULAS[name].__code__.co_argcount - 2


def structure_defect(name: str, b, pt) -> Vec:
    with sparse_operations():
        return oracle.FORMULAS[name](b, *pt)


def rep_defect(name: str, r, pt) -> Vec:
    with sparse_operations():
        return REP_FORMULAS[name](r, *pt)
