"""Reference structure-identity checker on dense exact vectors.

Each identity is a hand-written function of basis vectors in `Fraction`
arithmetic, through the bundle's own `mul`, `br3` and `br2` (the dense
`linalg.apply_*` expansions), with no rescaling, no sparse tables and no
generated code.  `reports` scans identities in order and basis tuples in
lexicographic order, stops after the first k failures and counts tuples
the way `check_axioms` does, so the two must return equal reports.  It is
slow and used only by the tests.
"""

import itertools

from ternalg.structures import CheckReport, Counterexample


def _cyc3(b, x, y, z):
    return b.br3(x, y, z) + b.br3(y, z, x) + b.br3(z, x, y)


def _symmul(b, x, y):
    return b.mul(x, y) + b.mul(y, x)


def _leib3(b, x1, x2, x3, x4):
    """[x1,x2,x3*x4] - x3*[x1,x2,x4] - [x1,x2,x3]*x4"""
    return (b.br3(x1, x2, b.mul(x3, x4)) - b.mul(x3, b.br3(x1, x2, x4))
            - b.mul(b.br3(x1, x2, x3), x4))


def _leib2(b, x, y, z):
    """[x, y*z] - [x,y]*z - y*[x,z]"""
    return b.br2(x, b.mul(y, z)) - b.mul(b.br2(x, y), z) - b.mul(y, b.br2(x, z))


def _kmap(b, x, y, z, u):
    return b.br3(x, y, b.mul(z, u)) + b.br3(x, z, b.mul(u, y)) + b.br3(x, u, b.mul(y, z))


def _f1(b, x1, x2, x3, x4):
    return (b.br3(x1, x2, b.mul(x3, x4)) - b.mul(x3, b.br3(x1, x2, x4))
            - b.mul(_cyc3(b, x1, x2, x3), x4))


def _f2(b, x1, x2, x3, x4):
    return (b.mul(x3, b.br3(x1, x2, x4)) + b.mul(x2, b.br3(x1, x3, x4))
            - b.br3(x1, _symmul(b, x2, x3), x4))


def _leib3_sub(b, x1, x2, x3, x4):
    return (_cyc3(b, x1, x2, _symmul(b, x3, x4)) - _symmul(b, x3, _cyc3(b, x1, x2, x4))
            - _symmul(b, _cyc3(b, x1, x2, x3), x4))


def _comm(b, x, y):
    return b.mul(x, y) - b.mul(y, x)


def _assoc(b, x, y, z):
    return b.mul(b.mul(x, y), z) - b.mul(x, b.mul(y, z))


def _zinbiel(b, x, y, z):
    return b.mul(x, b.mul(y, z)) - b.mul(b.mul(y, x), z) - b.mul(b.mul(x, y), z)


def _skew2(b, x, y):
    return b.br2(x, y) + b.br2(y, x)


def _jacobi(b, x, y, z):
    return b.br2(b.br2(x, y), z) + b.br2(b.br2(y, z), x) + b.br2(b.br2(z, x), y)


def _skew3(b, x, y, z):
    """6 T - sum over S3 of sign(s) T o s"""
    alt = (b.br3(x, y, z) - b.br3(y, x, z) - b.br3(x, z, y) - b.br3(z, y, x)
           + b.br3(y, z, x) + b.br3(z, x, y))
    return b.br3(x, y, z).scale(6) - alt


def _fundamental(b, x1, x2, x3, x4, x5):
    return (b.br3(x1, x2, b.br3(x3, x4, x5)) - b.br3(b.br3(x1, x2, x3), x4, x5)
            - b.br3(x3, b.br3(x1, x2, x4), x5) - b.br3(x3, x4, b.br3(x1, x2, x5)))


def _prelie3_skew(b, x, y, z):
    return b.br3(x, y, z) + b.br3(y, x, z)


def _prelie3_a(b, x1, x2, x3, x4, x5):
    return (b.br3(x1, x2, b.br3(x3, x4, x5)) - b.br3(_cyc3(b, x1, x2, x3), x4, x5)
            - b.br3(x3, _cyc3(b, x1, x2, x4), x5) - b.br3(x3, x4, b.br3(x1, x2, x5)))


def _prelie3_b(b, x1, x2, x3, x4, x5):
    return (b.br3(_cyc3(b, x1, x2, x3), x4, x5) - b.br3(x1, x2, b.br3(x3, x4, x5))
            - b.br3(x2, x3, b.br3(x1, x4, x5)) - b.br3(x3, x1, b.br3(x2, x4, x5)))


def _hm2(b, x, y, z, w):
    return (_leib2(b, b.mul(x, y), z, w) - b.mul(x, _leib2(b, y, z, w))
            - b.mul(y, _leib2(b, x, z, w)))


def _hm3(b, x1, x2, x3, x4, x5):
    return (_leib3(b, b.mul(x1, x2), x3, x4, x5) - b.mul(x1, _leib3(b, x2, x3, x4, x5))
            - b.mul(x2, _leib3(b, x1, x3, x4, x5)))


def _prefm1(b, x1, x2, x3, x4, x5):
    return (_f1(b, _symmul(b, x1, x2), x3, x4, x5) - b.mul(x1, _f1(b, x2, x3, x4, x5))
            - b.mul(x2, _f1(b, x1, x3, x4, x5)))


def _prefm11(b, x1, x2, x3, x4, x5):
    return (_f2(b, _symmul(b, x1, x2), x3, x4, x5) - b.mul(x1, _f2(b, x2, x3, x4, x5))
            - b.mul(x2, _f2(b, x1, x3, x4, x5)))


def _prefm2(b, x1, x2, x3, x4, x5):
    return (b.mul(_leib3_sub(b, x1, x2, x3, x4), x5) - _f2(b, x2, x3, x4, b.mul(x1, x5))
            + b.mul(x1, _f2(b, x2, x3, x4, x5)))


def _prenp2(b, x1, x2, x3, x4):
    return -_f2(b, x1, x2, x3, x4)


def _coh1(b, x, y, z, t, u):
    return (_leib3(b, b.mul(x, y), z, t, u) - _leib3(b, y, z, t, b.mul(x, u))
            - _leib3(b, x, z, t, b.mul(y, u)))


def _coh2(b, x, y, z, t, u):
    return (_kmap(b, b.mul(x, y), z, t, u) + _kmap(b, x, z, t, b.mul(y, u))
            + _kmap(b, y, z, t, b.mul(x, u)))


def _coh3(b, x, y, z, t, u):
    return (b.mul(_leib3(b, x, y, z, t), u) - _kmap(b, y, z, t, b.mul(x, u))
            + b.mul(x, _kmap(b, y, z, t, u)))


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
