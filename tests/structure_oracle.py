"""Reference structure-identity checker on dense exact vectors.

Each identity is a hand-written function of basis vectors in `Fraction`
arithmetic.  The operations `mul`, `br3` and `br2` below expand a product
through a dense grid of the tensor's constants, filled from `nonzeros()`,
so nothing here goes through the library's sparse tables, its integer
rescaling, its generated code or `AlgebraBundle.mul`.
`reports` scans identities in order and basis tuples in lexicographic
order, stops after the first k failures and counts tuples the way
`check_axioms` does, so the two must return equal reports.  It is slow and
used only by the tests; `rep_oracle` uses the same operations.
"""

import itertools

from ternalg.errors import MissingTensor
from ternalg.linalg import Vec
from ternalg.structures import CheckReport, Counterexample


_GRIDS: dict = {}


def _grid(t):
    """t's constants as dense nested lists, grid[i1]...[ik][j], expanded from
    `nonzeros()` once per tensor; the entry keeps t alive, so its id is not
    reused."""
    hit = _GRIDS.get(id(t))
    if hit is None:
        def zeros(depth):
            n = t.shape[t.order - 1 - depth]
            return [zeros(depth - 1) for _ in range(n)] if depth else [0] * n

        grid = zeros(t.order - 1)
        for idx, c in t.nonzeros():
            row = grid
            for i in idx[:-1]:
                row = row[i]
            row[idx[-1]] = c
        hit = _GRIDS[id(t)] = (t, grid)
    return hit[1]


def apply_bilinear(t, x, y) -> Vec:
    """x*y expanded through the dense constants of t."""
    out = [0] * t.dim
    for i, xi in enumerate(x):
        if xi:
            plane = _grid(t)[i]
            for j, yj in enumerate(y):
                if yj:
                    c = xi * yj
                    for k, v in enumerate(plane[j]):
                        if v:
                            out[k] += c * v
    return Vec(out)


def apply_trilinear(t, x, y, z) -> Vec:
    """[x,y,z] expanded through the dense constants of t."""
    out = [0] * t.dim
    for i, xi in enumerate(x):
        if xi:
            cube = _grid(t)[i]
            for j, yj in enumerate(y):
                if yj:
                    plane = cube[j]
                    for k, zk in enumerate(z):
                        if zk:
                            c = xi * yj * zk
                            for l, v in enumerate(plane[k]):
                                if v:
                                    out[l] += c * v
    return Vec(out)


def _tensor(b, slot):
    t = getattr(b, slot)
    if t is None:
        raise MissingTensor(slot)
    return t


def mul(b, x, y):
    return apply_bilinear(_tensor(b, "product"), x, y)


def br3(b, x, y, z):
    return apply_trilinear(_tensor(b, "bracket"), x, y, z)


def br2(b, x, y):
    return apply_bilinear(_tensor(b, "binary_bracket"), x, y)


def _cyc3(b, x, y, z):
    return br3(b, x, y, z) + br3(b, y, z, x) + br3(b, z, x, y)


def _symmul(b, x, y):
    return mul(b, x, y) + mul(b, y, x)


def _leib3(b, x1, x2, x3, x4):
    """[x1,x2,x3*x4] - x3*[x1,x2,x4] - [x1,x2,x3]*x4"""
    return (br3(b, x1, x2, mul(b, x3, x4)) - mul(b, x3, br3(b, x1, x2, x4))
            - mul(b, br3(b, x1, x2, x3), x4))


def _leib2(b, x, y, z):
    """[x, y*z] - [x,y]*z - y*[x,z]"""
    return br2(b, x, mul(b, y, z)) - mul(b, br2(b, x, y), z) - mul(b, y, br2(b, x, z))


def _kmap(b, x, y, z, u):
    return br3(b, x, y, mul(b, z, u)) + br3(b, x, z, mul(b, u, y)) + br3(b, x, u, mul(b, y, z))


def _f1(b, x1, x2, x3, x4):
    return (br3(b, x1, x2, mul(b, x3, x4)) - mul(b, x3, br3(b, x1, x2, x4))
            - mul(b, _cyc3(b, x1, x2, x3), x4))


def _f2(b, x1, x2, x3, x4):
    return (mul(b, x3, br3(b, x1, x2, x4)) + mul(b, x2, br3(b, x1, x3, x4))
            - br3(b, x1, _symmul(b, x2, x3), x4))


def _leib3_sub(b, x1, x2, x3, x4):
    return (_cyc3(b, x1, x2, _symmul(b, x3, x4)) - _symmul(b, x3, _cyc3(b, x1, x2, x4))
            - _symmul(b, _cyc3(b, x1, x2, x3), x4))


def _comm(b, x, y):
    return mul(b, x, y) - mul(b, y, x)


def _assoc(b, x, y, z):
    return mul(b, mul(b, x, y), z) - mul(b, x, mul(b, y, z))


def _zinbiel(b, x, y, z):
    return mul(b, x, mul(b, y, z)) - mul(b, mul(b, y, x), z) - mul(b, mul(b, x, y), z)


def _skew2(b, x, y):
    return br2(b, x, y) + br2(b, y, x)


def _jacobi(b, x, y, z):
    return br2(b, br2(b, x, y), z) + br2(b, br2(b, y, z), x) + br2(b, br2(b, z, x), y)


def _skew3(b, x, y, z):
    """6 T - sum over S3 of sign(s) T o s"""
    alt = (br3(b, x, y, z) - br3(b, y, x, z) - br3(b, x, z, y) - br3(b, z, y, x)
           + br3(b, y, z, x) + br3(b, z, x, y))
    return br3(b, x, y, z).scale(6) - alt


def _fundamental(b, x1, x2, x3, x4, x5):
    return (br3(b, x1, x2, br3(b, x3, x4, x5)) - br3(b, br3(b, x1, x2, x3), x4, x5)
            - br3(b, x3, br3(b, x1, x2, x4), x5) - br3(b, x3, x4, br3(b, x1, x2, x5)))


def _prelie3_skew(b, x, y, z):
    return br3(b, x, y, z) + br3(b, y, x, z)


def _prelie3_a(b, x1, x2, x3, x4, x5):
    return (br3(b, x1, x2, br3(b, x3, x4, x5)) - br3(b, _cyc3(b, x1, x2, x3), x4, x5)
            - br3(b, x3, _cyc3(b, x1, x2, x4), x5) - br3(b, x3, x4, br3(b, x1, x2, x5)))


def _prelie3_b(b, x1, x2, x3, x4, x5):
    return (br3(b, _cyc3(b, x1, x2, x3), x4, x5) - br3(b, x1, x2, br3(b, x3, x4, x5))
            - br3(b, x2, x3, br3(b, x1, x4, x5)) - br3(b, x3, x1, br3(b, x2, x4, x5)))


def _hm2(b, x, y, z, w):
    return (_leib2(b, mul(b, x, y), z, w) - mul(b, x, _leib2(b, y, z, w))
            - mul(b, y, _leib2(b, x, z, w)))


def _hm3(b, x1, x2, x3, x4, x5):
    return (_leib3(b, mul(b, x1, x2), x3, x4, x5) - mul(b, x1, _leib3(b, x2, x3, x4, x5))
            - mul(b, x2, _leib3(b, x1, x3, x4, x5)))


def _prefm1(b, x1, x2, x3, x4, x5):
    return (_f1(b, _symmul(b, x1, x2), x3, x4, x5) - mul(b, x1, _f1(b, x2, x3, x4, x5))
            - mul(b, x2, _f1(b, x1, x3, x4, x5)))


def _prefm11(b, x1, x2, x3, x4, x5):
    return (_f2(b, _symmul(b, x1, x2), x3, x4, x5) - mul(b, x1, _f2(b, x2, x3, x4, x5))
            - mul(b, x2, _f2(b, x1, x3, x4, x5)))


def _prefm2(b, x1, x2, x3, x4, x5):
    return (mul(b, _leib3_sub(b, x1, x2, x3, x4), x5) - _f2(b, x2, x3, x4, mul(b, x1, x5))
            + mul(b, x1, _f2(b, x2, x3, x4, x5)))


def _prenp2(b, x1, x2, x3, x4):
    return -_f2(b, x1, x2, x3, x4)


def _coh1(b, x, y, z, t, u):
    return (_leib3(b, mul(b, x, y), z, t, u) - _leib3(b, y, z, t, mul(b, x, u))
            - _leib3(b, x, z, t, mul(b, y, u)))


def _coh2(b, x, y, z, t, u):
    return (_kmap(b, mul(b, x, y), z, t, u) + _kmap(b, x, z, t, mul(b, y, u))
            + _kmap(b, y, z, t, mul(b, x, u)))


def _coh3(b, x, y, z, t, u):
    return (mul(b, _leib3(b, x, y, z, t), u) - _kmap(b, y, z, t, mul(b, x, u))
            + mul(b, x, _kmap(b, y, z, t, u)))


FORMULAS = {
    "comm": _comm, "assoc": _assoc, "zinbiel": _zinbiel,
    "skew2": _skew2, "jacobi": _jacobi,
    "skew3": _skew3, "fundamental": _fundamental,
    "prelie3-skew": _prelie3_skew, "prelie3-a": _prelie3_a, "prelie3-b": _prelie3_b,
    "leibniz-np": _leib3, "hm2": _hm2, "hm3": _hm3,
    "prefm-1": _prefm1, "prefm-11": _prefm11, "prefm-2": _prefm2,
    "prenp-1": _f1, "prenp-2": _prenp2,
    "coh1": _coh1, "coh2": _coh2, "coh3": _coh3,
}

SUBMAPS = {"leib3": _leib3, "leib2": _leib2, "kmap": _kmap, "f1": _f1, "f2": _f2}


def arity(name: str) -> int:
    return FORMULAS[name].__code__.co_argcount - 1


def residual(name: str, b, idx):
    basis = b.basis_vectors()
    return FORMULAS[name](b, *(basis[i] for i in idx))


def reports(b, names, kind_label: str, ks) -> dict:
    """{k: CheckReport} for each k in ks, from one scan up to the largest k."""
    kmax = max(ks)
    basis = b.basis_vectors()
    failures = []  # (counterexample, tuples counted through it, identities begun)
    counted = 0
    for begun, name in enumerate(names, 1):
        for idx in itertools.product(range(b.dim), repeat=arity(name)):
            counted += 1
            r = FORMULAS[name](b, *(basis[i] for i in idx))
            if not r.is_zero():
                failures.append((Counterexample(name, idx, r), counted, begun))
                if len(failures) == kmax:
                    break
        if len(failures) == kmax:
            break
    out = {}
    for k in ks:
        if len(failures) >= k:
            ces = [f[0] for f in failures[:k]]
            _, count, begun = failures[k - 1]
        else:
            ces, count, begun = [f[0] for f in failures], counted, len(names)
        out[k] = CheckReport(
            passed=not ces,
            kind=kind_label,
            checked_identities=tuple(names[:begun]),
            counterexamples=tuple(ces),
            tuple_count=count,
        )
    return out
