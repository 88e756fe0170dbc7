"""Algebra bundles, identity defect evaluation, and exhaustive axiom checking.

Every axiom in scope is a multilinear identity in the structure constants,
so it vanishes on all vectors iff it vanishes on all basis tuples; the
checkers enumerate basis tuples exhaustively in lexicographic order and
report the first failures with exact residual vectors.

The hot scans (arity-5 identities at dimension ~8 visit 32768 tuples) run
on integer-rescaled copies of the tensors: each tensor is multiplied by the
lcm of its denominators, and since every registered identity is homogeneous
in each tensor separately, the rescaled defect is zero exactly when the true
rational defect is.  Counterexample residuals are recomputed in exact
rationals, which doubles as a cross-check of the fast path.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

from .errors import (
    ArityMismatch,
    BundleError,
    DimensionCapExceeded,
    DimensionMismatch,
    InternalError,
    MissingTensor,
    UnknownIdentity,
    UnknownKind,
)
from .linalg import InterMap, Tensor3, Tensor4, Vec, apply_bilinear, apply_trilinear

DEFAULT_DIMENSION_CAP = 16
_dimension_cap = DEFAULT_DIMENSION_CAP


def dimension_cap() -> int:
    return _dimension_cap


def set_dimension_cap(n: int) -> None:
    """Raise or lower the dense-storage dimension cap (default 16)."""
    global _dimension_cap
    if n < 1:
        raise ValueError("dimension cap must be positive")
    _dimension_cap = n


# ---------------------------------------------------------------------------
# bundles


@dataclass(frozen=True, eq=False)
class AlgebraBundle:
    """A finite-dimensional space with optional product / bracket tensors.

    A bundle may carry tensors that fail axioms; only check_axioms renders
    verdicts, and the evaluators below work on the raw tensors so that
    perturbed and intermediate bundles remain usable.
    """

    dim: int
    basis_labels: tuple[str, ...]
    product: Optional[Tensor3] = None
    bracket: Optional[Tensor4] = None
    binary_bracket: Optional[Tensor3] = None
    unit: Optional[Vec] = None

    def __init__(self, dim, product=None, bracket=None, binary_bracket=None,
                 unit=None, basis_labels=None):
        if dim < 1:
            raise BundleError("bundle dimension must be positive")
        if dim > _dimension_cap:
            raise DimensionCapExceeded(
                f"dimension {dim} exceeds the cap {_dimension_cap}; "
                "raise it with set_dimension_cap()"
            )
        if basis_labels is None:
            basis_labels = tuple(f"e{i + 1}" for i in range(dim))
        else:
            basis_labels = tuple(str(s) for s in basis_labels)
            if len(basis_labels) != dim:
                raise BundleError(f"expected {dim} basis labels, got {len(basis_labels)}")
        for name, t in (("product", product), ("binary_bracket", binary_bracket)):
            if t is not None and t.dim != dim:
                raise BundleError(f"{name} tensor has dim {t.dim}, bundle has dim {dim}")
        if bracket is not None and bracket.dim != dim:
            raise BundleError(f"bracket tensor has dim {bracket.dim}, bundle has dim {dim}")
        if unit is not None:
            if product is None:
                raise BundleError("unit given but bundle has no product")
            if unit.dim != dim:
                raise BundleError(f"unit has dim {unit.dim}, bundle has dim {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis_labels", basis_labels)
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "bracket", bracket)
        object.__setattr__(self, "binary_bracket", binary_bracket)
        object.__setattr__(self, "unit", unit)
        if unit is not None:
            for i in range(dim):
                e = self.basis(i)
                if apply_bilinear(product, e, unit) != e or apply_bilinear(product, unit, e) != e:
                    raise BundleError(f"unit fails x*1 = 1*x = x at basis vector {i}")

    def basis(self, i: int) -> Vec:
        return Vec.basis(self.dim, i)

    def basis_vectors(self) -> list[Vec]:
        return [self.basis(i) for i in range(self.dim)]

    def mul(self, x: Vec, y: Vec) -> Vec:
        if self.product is None:
            raise MissingTensor("product")
        return apply_bilinear(self.product, x, y)

    def br3(self, x: Vec, y: Vec, z: Vec) -> Vec:
        if self.bracket is None:
            raise MissingTensor("bracket")
        return apply_trilinear(self.bracket, x, y, z)

    def br2(self, x: Vec, y: Vec) -> Vec:
        if self.binary_bracket is None:
            raise MissingTensor("binary_bracket")
        return apply_bilinear(self.binary_bracket, x, y)


class StructureKind(str, Enum):
    COMM_ASSOC = "comm-assoc"
    ZINBIEL = "zinbiel"
    LIE = "lie"
    THREE_LIE = "3-lie"
    THREE_PRE_LIE = "3-pre-lie"
    F_MANIFOLD = "f-manifold"
    TERNARY_F_MANIFOLD = "ternary-f-manifold"
    TERNARY_NAMBU_POISSON = "ternary-nambu-poisson"
    TERNARY_PRE_F_MANIFOLD = "ternary-pre-f-manifold"
    TERNARY_PRE_NAMBU_POISSON = "ternary-pre-nambu-poisson"


def coerce_kind(kind) -> StructureKind:
    if isinstance(kind, StructureKind):
        return kind
    try:
        return StructureKind(kind)
    except ValueError:
        raise UnknownKind(f"unknown structure kind {kind!r}") from None


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Counterexample:
    identity: str
    indices: tuple[int, ...]
    residual: Vec


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    kind: str
    checked_identities: tuple[str, ...]
    counterexamples: tuple[Counterexample, ...]
    tuple_count: int

    def __post_init__(self):
        if self.passed != (not self.counterexamples):
            raise InternalError("a report passes exactly when it has no counterexamples")

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def __bool__(self):
        return self.passed


# ---------------------------------------------------------------------------
# sparse operation context
#
# Tables hold sparse rows: prod[i][j] is a tuple of (k, coeff) pairs, and
# br3t[i][j][k] a tuple of (l, coeff) pairs.  The same defect code runs in
# two modes: integer coefficients for the exhaustive scans and Fraction
# coefficients for single evaluations on arbitrary rational vectors.


class _Ops:
    __slots__ = ("n", "prod", "br3t", "br2t", "basis")

    def __init__(self, n, prod, br3t, br2t):
        self.n = n
        self.prod = prod
        self.br3t = br3t
        self.br2t = br2t
        self.basis = [[1 if j == i else 0 for j in range(n)] for i in range(n)]

    def mul(self, x, y):
        out = [0] * self.n
        prod = self.prod
        for i, xi in enumerate(x):
            if xi:
                plane = prod[i]
                for j, yj in enumerate(y):
                    if yj:
                        row = plane[j]
                        if row:
                            c = xi * yj
                            for k, v in row:
                                out[k] += c * v
        return out

    def symmul(self, x, y):
        out = self.mul(x, y)
        for k, v in enumerate(self.mul(y, x)):
            if v:
                out[k] += v
        return out

    def br3(self, x, y, z):
        out = [0] * self.n
        br3t = self.br3t
        for i, xi in enumerate(x):
            if xi:
                cube = br3t[i]
                for j, yj in enumerate(y):
                    if yj:
                        plane = cube[j]
                        cij = xi * yj
                        for k, zk in enumerate(z):
                            if zk:
                                row = plane[k]
                                if row:
                                    c = cij * zk
                                    for l, v in row:
                                        out[l] += c * v
        return out

    def cyc3(self, x, y, z):
        out = self.br3(x, y, z)
        for k, v in enumerate(self.br3(y, z, x)):
            if v:
                out[k] += v
        for k, v in enumerate(self.br3(z, x, y)):
            if v:
                out[k] += v
        return out

    def br2(self, x, y):
        out = [0] * self.n
        br2t = self.br2t
        for i, xi in enumerate(x):
            if xi:
                plane = br2t[i]
                for j, yj in enumerate(y):
                    if yj:
                        row = plane[j]
                        if row:
                            c = xi * yj
                            for k, v in row:
                                out[k] += c * v
        return out


def _sparse3(t: Tensor3, scale):
    return [
        [tuple((k, v * scale) for k, v in enumerate(row) if v) for row in plane]
        for plane in t.entries
    ]


def _sparse4(t: Tensor4, scale):
    return [
        [
            [tuple((l, v * scale) for l, v in enumerate(row) if v) for row in plane]
            for plane in cube
        ]
        for cube in t.entries
    ]


def _denominator_lcm3(t: Tensor3) -> int:
    d = 1
    for plane in t.entries:
        for row in plane:
            for v in row:
                if v:
                    d = lcm(d, v.denominator)
    return d


def _denominator_lcm4(t: Tensor4) -> int:
    d = 1
    for cube in t.entries:
        for plane in cube:
            for row in plane:
                for v in row:
                    if v:
                        d = lcm(d, v.denominator)
    return d


def _int_ops(b: AlgebraBundle) -> _Ops:
    cached = getattr(b, "_ops_int", None)
    if cached is not None:
        return cached
    prod = br3t = br2t = None
    if b.product is not None:
        lam = _denominator_lcm3(b.product)
        prod = [
            [tuple((k, int(v * lam)) for k, v in enumerate(row) if v) for row in plane]
            for plane in b.product.entries
        ]
    if b.bracket is not None:
        lam = _denominator_lcm4(b.bracket)
        br3t = [
            [
                [tuple((l, int(v * lam)) for l, v in enumerate(row) if v) for row in plane]
                for plane in cube
            ]
            for cube in b.bracket.entries
        ]
    if b.binary_bracket is not None:
        lam = _denominator_lcm3(b.binary_bracket)
        br2t = [
            [tuple((k, int(v * lam)) for k, v in enumerate(row) if v) for row in plane]
            for plane in b.binary_bracket.entries
        ]
    ops = _Ops(b.dim, prod, br3t, br2t)
    object.__setattr__(b, "_ops_int", ops)
    return ops


def _exact_ops(b: AlgebraBundle) -> _Ops:
    cached = getattr(b, "_ops_exact", None)
    if cached is not None:
        return cached
    prod = _sparse3(b.product, Fraction(1)) if b.product is not None else None
    br3t = _sparse4(b.bracket, Fraction(1)) if b.bracket is not None else None
    br2t = _sparse3(b.binary_bracket, Fraction(1)) if b.binary_bracket is not None else None
    ops = _Ops(b.dim, prod, br3t, br2t)
    object.__setattr__(b, "_ops_exact", ops)
    return ops


def _vsub(a, b):
    return [x - y for x, y in zip(a, b)]


def _vadd(a, b):
    return [x + y for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# identity registry
#
# Each identity is oriented LHS - RHS as the defining equation reads, and is
# homogeneous in each tensor slot separately (required by the integer-scaled
# scan path).  Skewness identities are oriented as "tensor minus its full
# antisymmetrisation", scaled by the symmetric group order to stay integral:
# the combination vanishes for all arguments iff the bracket is alternating.


def _d_comm(o, x, y):
    return _vsub(o.mul(x, y), o.mul(y, x))


def _d_assoc(o, x, y, z):
    return _vsub(o.mul(o.mul(x, y), z), o.mul(x, o.mul(y, z)))


def _d_zinbiel(o, x, y, z):
    lhs = o.mul(x, o.mul(y, z))
    rhs = _vadd(o.mul(o.mul(y, x), z), o.mul(o.mul(x, y), z))
    return _vsub(lhs, rhs)


def _d_skew2(o, x, y):
    return _vadd(o.br2(x, y), o.br2(y, x))


def _d_jacobi(o, x, y, z):
    return _vadd(
        _vadd(o.br2(o.br2(x, y), z), o.br2(o.br2(y, z), x)), o.br2(o.br2(z, x), y)
    )


def _d_skew3(o, x, y, z):
    out = [6 * v for v in o.br3(x, y, z)]
    for sign, args in (
        (-1, (x, y, z)),
        (1, (y, x, z)),
        (1, (x, z, y)),
        (1, (z, y, x)),
        (-1, (y, z, x)),
        (-1, (z, x, y)),
    ):
        term = o.br3(*args)
        for k, v in enumerate(term):
            if v:
                out[k] += sign * v
    return out


def _d_fundamental(o, x1, x2, x3, x4, x5):
    lhs = o.br3(x1, x2, o.br3(x3, x4, x5))
    rhs = _vadd(
        _vadd(o.br3(o.br3(x1, x2, x3), x4, x5), o.br3(x3, o.br3(x1, x2, x4), x5)),
        o.br3(x3, x4, o.br3(x1, x2, x5)),
    )
    return _vsub(lhs, rhs)


def _d_prelie3_skew(o, x, y, z):
    return _vadd(o.br3(x, y, z), o.br3(y, x, z))


def _d_prelie3_a(o, x1, x2, x3, x4, x5):
    lhs = o.br3(x1, x2, o.br3(x3, x4, x5))
    rhs = _vadd(
        _vadd(o.br3(o.cyc3(x1, x2, x3), x4, x5), o.br3(x3, o.cyc3(x1, x2, x4), x5)),
        o.br3(x3, x4, o.br3(x1, x2, x5)),
    )
    return _vsub(lhs, rhs)


def _d_prelie3_b(o, x1, x2, x3, x4, x5):
    lhs = o.br3(o.cyc3(x1, x2, x3), x4, x5)
    rhs = _vadd(
        _vadd(o.br3(x1, x2, o.br3(x3, x4, x5)), o.br3(x2, x3, o.br3(x1, x4, x5))),
        o.br3(x3, x1, o.br3(x2, x4, x5)),
    )
    return _vsub(lhs, rhs)


def _leib3(o, x1, x2, x3, x4):
    """3-Leibnizator: [x1,x2,x3*x4] - x3*[x1,x2,x4] - [x1,x2,x3]*x4."""
    lhs = o.br3(x1, x2, o.mul(x3, x4))
    return _vsub(lhs, _vadd(o.mul(x3, o.br3(x1, x2, x4)), o.mul(o.br3(x1, x2, x3), x4)))


def _d_hm3(o, x1, x2, x3, x4, x5):
    lhs = _leib3(o, o.mul(x1, x2), x3, x4, x5)
    rhs = _vadd(o.mul(x1, _leib3(o, x2, x3, x4, x5)), o.mul(x2, _leib3(o, x1, x3, x4, x5)))
    return _vsub(lhs, rhs)


def _leib2(o, x, y, z):
    """Binary Leibnizator: [x, y*z] - [x,y]*z - y*[x,z]."""
    return _vsub(
        o.br2(x, o.mul(y, z)), _vadd(o.mul(o.br2(x, y), z), o.mul(y, o.br2(x, z)))
    )


def _d_hm2(o, x, y, z, w):
    lhs = _leib2(o, o.mul(x, y), z, w)
    rhs = _vadd(o.mul(x, _leib2(o, y, z, w)), o.mul(y, _leib2(o, x, z, w)))
    return _vsub(lhs, rhs)


def _f1(o, x1, x2, x3, x4):
    """F1 = {x1,x2,x3<>x4} - x3<>{x1,x2,x4} - [x1,x2,x3]<>x4 over the pre-tensors."""
    lhs = o.br3(x1, x2, o.mul(x3, x4))
    return _vsub(lhs, _vadd(o.mul(x3, o.br3(x1, x2, x4)), o.mul(o.cyc3(x1, x2, x3), x4)))


def _f2(o, x1, x2, x3, x4):
    """F2 = x3<>{x1,x2,x4} + x2<>{x1,x3,x4} - {x1, x2*x3, x4}."""
    lhs = _vadd(o.mul(x3, o.br3(x1, x2, x4)), o.mul(x2, o.br3(x1, x3, x4)))
    return _vsub(lhs, o.br3(x1, o.symmul(x2, x3), x4))


def _leib3_sub(o, x1, x2, x3, x4):
    """3-Leibnizator of the sub-adjacent operations of a pre-structure."""
    lhs = o.cyc3(x1, x2, o.symmul(x3, x4))
    return _vsub(
        lhs, _vadd(o.symmul(x3, o.cyc3(x1, x2, x4)), o.symmul(o.cyc3(x1, x2, x3), x4))
    )


def _d_prefm1(o, x1, x2, x3, x4, x5):
    lhs = _f1(o, o.symmul(x1, x2), x3, x4, x5)
    rhs = _vadd(o.mul(x1, _f1(o, x2, x3, x4, x5)), o.mul(x2, _f1(o, x1, x3, x4, x5)))
    return _vsub(lhs, rhs)


def _d_prefm11(o, x1, x2, x3, x4, x5):
    lhs = _f2(o, o.symmul(x1, x2), x3, x4, x5)
    rhs = _vadd(o.mul(x1, _f2(o, x2, x3, x4, x5)), o.mul(x2, _f2(o, x1, x3, x4, x5)))
    return _vsub(lhs, rhs)


def _d_prefm2(o, x1, x2, x3, x4, x5):
    lhs = o.mul(_leib3_sub(o, x1, x2, x3, x4), x5)
    rhs = _vsub(_f2(o, x2, x3, x4, o.mul(x1, x5)), o.mul(x1, _f2(o, x2, x3, x4, x5)))
    return _vsub(lhs, rhs)


def _d_prenp1(o, x1, x2, x3, x4):
    return _f1(o, x1, x2, x3, x4)


def _d_prenp2(o, x1, x2, x3, x4):
    return [-v for v in _f2(o, x1, x2, x3, x4)]


def _kmap(o, x, y, z, u):
    """Cyclic sum over (y,z,u) of [x, y, z*u]."""
    return _vadd(
        _vadd(o.br3(x, y, o.mul(z, u)), o.br3(x, z, o.mul(u, y))),
        o.br3(x, u, o.mul(y, z)),
    )


def _d_coh1(o, x, y, z, t, u):
    lhs = _leib3(o, o.mul(x, y), z, t, u)
    rhs = _vadd(_leib3(o, y, z, t, o.mul(x, u)), _leib3(o, x, z, t, o.mul(y, u)))
    return _vsub(lhs, rhs)


def _d_coh2(o, x, y, z, t, u):
    return _vadd(
        _vadd(_kmap(o, o.mul(x, y), z, t, u), _kmap(o, x, z, t, o.mul(y, u))),
        _kmap(o, y, z, t, o.mul(x, u)),
    )


def _d_coh3(o, x, y, z, t, u):
    lhs = o.mul(_leib3(o, x, y, z, t), u)
    rhs = _vsub(_kmap(o, y, z, t, o.mul(x, u)), o.mul(x, _kmap(o, y, z, t, u)))
    return _vsub(lhs, rhs)


@dataclass(frozen=True)
class Identity:
    name: str
    arity: int
    needs: tuple[str, ...]
    defect: Callable


IDENTITIES: dict[str, Identity] = {
    i.name: i
    for i in [
        Identity("comm", 2, ("product",), _d_comm),
        Identity("assoc", 3, ("product",), _d_assoc),
        Identity("zinbiel", 3, ("product",), _d_zinbiel),
        Identity("skew2", 2, ("binary_bracket",), _d_skew2),
        Identity("jacobi", 3, ("binary_bracket",), _d_jacobi),
        Identity("skew3", 3, ("bracket",), _d_skew3),
        Identity("fundamental", 5, ("bracket",), _d_fundamental),
        Identity("prelie3-skew", 3, ("bracket",), _d_prelie3_skew),
        Identity("prelie3-a", 5, ("bracket",), _d_prelie3_a),
        Identity("prelie3-b", 5, ("bracket",), _d_prelie3_b),
        Identity("leibniz-np", 4, ("product", "bracket"), _leib3),
        Identity("hm2", 4, ("product", "binary_bracket"), _d_hm2),
        Identity("hm3", 5, ("product", "bracket"), _d_hm3),
        Identity("prefm-1", 5, ("product", "bracket"), _d_prefm1),
        Identity("prefm-11", 5, ("product", "bracket"), _d_prefm11),
        Identity("prefm-2", 5, ("product", "bracket"), _d_prefm2),
        Identity("prenp-1", 4, ("product", "bracket"), _d_prenp1),
        Identity("prenp-2", 4, ("product", "bracket"), _d_prenp2),
        Identity("coh1", 5, ("product", "bracket"), _d_coh1),
        Identity("coh2", 5, ("product", "bracket"), _d_coh2),
        Identity("coh3", 5, ("product", "bracket"), _d_coh3),
    ]
}

KIND_IDENTITIES: dict[StructureKind, tuple[str, ...]] = {
    StructureKind.COMM_ASSOC: ("comm", "assoc"),
    StructureKind.ZINBIEL: ("zinbiel",),
    StructureKind.LIE: ("skew2", "jacobi"),
    StructureKind.THREE_LIE: ("skew3", "fundamental"),
    StructureKind.THREE_PRE_LIE: ("prelie3-skew", "prelie3-a", "prelie3-b"),
    StructureKind.F_MANIFOLD: ("comm", "assoc", "skew2", "jacobi", "hm2"),
    StructureKind.TERNARY_F_MANIFOLD: ("comm", "assoc", "skew3", "fundamental", "hm3"),
    StructureKind.TERNARY_NAMBU_POISSON: (
        "comm", "assoc", "skew3", "fundamental", "leibniz-np",
    ),
    StructureKind.TERNARY_PRE_F_MANIFOLD: (
        "zinbiel", "prelie3-skew", "prelie3-a", "prelie3-b",
        "prefm-1", "prefm-11", "prefm-2",
    ),
    StructureKind.TERNARY_PRE_NAMBU_POISSON: (
        "zinbiel", "prelie3-skew", "prelie3-a", "prelie3-b", "prenp-1", "prenp-2",
    ),
}

COHERENCE_IDENTITIES: tuple[str, ...] = KIND_IDENTITIES[
    StructureKind.TERNARY_F_MANIFOLD
] + ("coh1", "coh2", "coh3")


def _require(b: AlgebraBundle, needs: Sequence[str], context: str):
    for slot in needs:
        if getattr(b, slot) is None:
            raise MissingTensor(slot, context)


# ---------------------------------------------------------------------------
# specialised scanners for the two identities that dominate runtime


def _scan_fundamental(ops: _Ops, _ident):
    F = ops.br3t
    n = ops.n

    def scan(t):
        a, b, c, d, e = t
        out = [0] * n
        Fab = F[a][b]
        for m, v in F[c][d][e]:
            for l, w in Fab[m]:
                out[l] += v * w
        for m, v in Fab[c]:
            for l, w in F[m][d][e]:
                out[l] -= v * w
        Fc = F[c]
        for m, v in Fab[d]:
            for l, w in Fc[m][e]:
                out[l] -= v * w
        Fcd = Fc[d]
        for m, v in Fab[e]:
            for l, w in Fcd[m]:
                out[l] -= v * w
        return out if any(out) else None

    return scan


def _scan_hm3(ops: _Ops, _ident):
    n = ops.n
    prod = ops.prod
    basis = ops.basis
    n2 = n * n
    n3 = n2 * n
    ltab = [None] * (n * n3)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                base = ((a * n + b) * n + c) * n
                for d in range(n):
                    vec = _leib3(ops, basis[a], basis[b], basis[c], basis[d])
                    ltab[base + d] = tuple((k, v) for k, v in enumerate(vec) if v)

    def scan(t):
        x1, x2, x3, x4, x5 = t
        out = [0] * n
        tail = (x3 * n + x4) * n + x5
        for m, v in prod[x1][x2]:
            for l, w in ltab[m * n3 + tail]:
                out[l] += v * w
        p1 = prod[x1]
        for k, w in ltab[x2 * n3 + tail]:
            for l, v in p1[k]:
                out[l] -= w * v
        p2 = prod[x2]
        for k, w in ltab[x1 * n3 + tail]:
            for l, v in p2[k]:
                out[l] -= w * v
        return out if any(out) else None

    return scan


_SPECIAL_SCANNERS = {"fundamental": _scan_fundamental, "hm3": _scan_hm3}


def _make_scanner(ops: _Ops, ident: Identity):
    special = _SPECIAL_SCANNERS.get(ident.name)
    if special is not None:
        return special(ops, ident)
    basis = ops.basis
    fn = ident.defect

    def scan(t):
        out = fn(ops, *(basis[i] for i in t))
        return out if any(out) else None

    return scan


# ---------------------------------------------------------------------------
# scan driver: lexicographic enumeration, first-k counterexamples, optional
# chunked parallel evaluation with a deterministic rank-ordered merge


def _tuple_of_rank(rank: int, n: int, arity: int) -> tuple[int, ...]:
    digits = [0] * arity
    for pos in range(arity - 1, -1, -1):
        rank, digits[pos] = divmod(rank, n)
    return tuple(digits)


def _scan_range(scan, n, arity, start, stop, budget):
    found = []
    t = list(_tuple_of_rank(start, n, arity))
    last = n - 1
    for rank in range(start, stop):
        r = scan(tuple(t))
        if r is not None:
            found.append((rank, tuple(t)))
            if len(found) >= budget:
                return found
        for pos in range(arity - 1, -1, -1):
            if t[pos] != last:
                t[pos] += 1
                break
            t[pos] = 0
    return found


def scan_space(scan, n: int, arity: int, budget: int, jobs: int = 1):
    """Scan all basis index tuples; return (first-k failures, tuples evaluated).

    The tuple count follows sequential semantics (everything up to and
    including the k-th failure), so reports do not depend on the number of
    jobs used.
    """
    total = n ** arity
    if jobs <= 1 or total < 4096:
        found = _scan_range(scan, n, arity, 0, total, budget)
    else:
        chunk = (total + jobs - 1) // jobs
        ranges = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(lambda r: _scan_range(scan, n, arity, r[0], r[1], budget), ranges)
            )
        found = sorted(itertools.chain.from_iterable(results))[:budget]
    if len(found) >= budget and found:
        return found, found[-1][0] + 1
    return found, total


def _check_identities(b: AlgebraBundle, names: Sequence[str], kind_label: str,
                      max_counterexamples: int, jobs: int) -> CheckReport:
    for name in names:
        _require(b, IDENTITIES[name].needs, f"identity {name!r}")
    ops_int = _int_ops(b)
    exact = _exact_ops(b)
    counterexamples: list[Counterexample] = []
    checked: list[str] = []
    tuple_count = 0
    budget = max(1, max_counterexamples)
    for name in names:
        ident = IDENTITIES[name]
        checked.append(name)
        scanner = _make_scanner(ops_int, ident)
        found, evaluated = scan_space(
            scanner, b.dim, ident.arity, budget - len(counterexamples), jobs
        )
        tuple_count += evaluated
        for _rank, idx in found:
            residual = ident.defect(exact, *(exact.basis[i] for i in idx))
            vec = Vec(residual)
            if vec.is_zero():
                raise InternalError(
                    f"integer scan flagged {name} at {idx}, but its exact residual is zero"
                )
            counterexamples.append(Counterexample(name, idx, vec))
        if len(counterexamples) >= budget:
            break
    return CheckReport(
        passed=not counterexamples,
        kind=kind_label,
        checked_identities=tuple(checked),
        counterexamples=tuple(counterexamples),
        tuple_count=tuple_count,
    )


# ---------------------------------------------------------------------------
# public evaluators and checkers


def eval_defect(identity: str, b: AlgebraBundle, args: Sequence[Vec]) -> Vec:
    """Evaluate LHS - RHS of the named identity at arbitrary vectors.

    Zero iff the identity holds at these arguments; multilinearity makes
    vanishing on all basis tuples equivalent to vanishing everywhere.
    """
    ident = IDENTITIES.get(identity)
    if ident is None:
        raise UnknownIdentity(f"unknown identity {identity!r}")
    if len(args) != ident.arity:
        raise ArityMismatch(
            f"identity {identity!r} takes {ident.arity} arguments, got {len(args)}"
        )
    for v in args:
        if v.dim != b.dim:
            raise DimensionMismatch(f"argument has dim {v.dim}, bundle has dim {b.dim}")
    _require(b, ident.needs, f"identity {identity!r}")
    ops = _exact_ops(b)
    return Vec(ident.defect(ops, *(list(v.entries) for v in args)))


def check_axioms(kind, b: AlgebraBundle, *, max_counterexamples: int = 1,
                 jobs: int = 1) -> CheckReport:
    """Exhaustively verify the identity list of the given structure kind."""
    kind = coerce_kind(kind)
    return _check_identities(
        b, KIND_IDENTITIES[kind], kind.value, max_counterexamples, jobs
    )


def leibnizator3(b: AlgebraBundle, x1: Vec, x2: Vec, x3: Vec, x4: Vec) -> Vec:
    """[x1,x2,x3*x4] - x3*[x1,x2,x4] - [x1,x2,x3]*x4 (zero iff Leibniz holds here)."""
    return eval_defect("leibniz-np", b, (x1, x2, x3, x4))


def leibnizator2(b: AlgebraBundle, x: Vec, y: Vec, z: Vec) -> Vec:
    """[x, y*z] - [x,y]*z - y*[x,z] over the binary bracket."""
    _require(b, ("product", "binary_bracket"), "leibnizator2")
    for v in (x, y, z):
        if v.dim != b.dim:
            raise DimensionMismatch(f"argument has dim {v.dim}, bundle has dim {b.dim}")
    ops = _exact_ops(b)
    return Vec(_leib2(ops, list(x.entries), list(y.entries), list(z.entries)))


def _eval_pre(b: AlgebraBundle, fn, args, context):
    _require(b, ("product", "bracket"), context)
    for v in args:
        if v.dim != b.dim:
            raise DimensionMismatch(f"argument has dim {v.dim}, bundle has dim {b.dim}")
    ops = _exact_ops(b)
    return Vec(fn(ops, *(list(v.entries) for v in args)))


def f1(b: AlgebraBundle, x1: Vec, x2: Vec, x3: Vec, x4: Vec) -> Vec:
    """F1 of a pre-structure bundle (product slot = Zinbiel, bracket slot = 3-pre-Lie)."""
    return _eval_pre(b, _f1, (x1, x2, x3, x4), "f1")


def f2(b: AlgebraBundle, x1: Vec, x2: Vec, x3: Vec, x4: Vec) -> Vec:
    """F2 of a pre-structure bundle; the sub-adjacent product is formed internally."""
    return _eval_pre(b, _f2, (x1, x2, x3, x4), "f2")


def k_op(b: AlgebraBundle, x: Vec, y: Vec, z: Vec, u: Vec) -> Vec:
    """[x,y,z*u] + [x,z,u*y] + [x,u,y*z]: the cyclic operator of the coherence set."""
    return _eval_pre(b, _kmap, (x, y, z, u), "k_op")


def check_homomorphism(f: InterMap, src: AlgebraBundle, dst: AlgebraBundle, *,
                       max_counterexamples: int = 1, jobs: int = 1) -> CheckReport:
    """Check that f carries every tensor src has onto dst's tensor of the same kind."""
    if f.src_dim != src.dim or f.dst_dim != dst.dim:
        raise DimensionMismatch(
            f"map is {f.dst_dim}x{f.src_dim}, bundles have dims {src.dim} -> {dst.dim}"
        )
    budget = max(1, max_counterexamples)
    counterexamples: list[Counterexample] = []
    checked: list[str] = []
    tuple_count = 0
    images = [f.apply(src.basis(i)) for i in range(src.dim)]

    jobs = 1 if jobs < 1 else jobs

    def run(name, arity, src_val, dst_val):
        nonlocal tuple_count
        checked.append(name)

        def scan(t):
            d = src_val(t) - dst_val(t)
            return list(d.entries) if not d.is_zero() else None

        found, evaluated = scan_space(scan, src.dim, arity, budget - len(counterexamples), jobs)
        tuple_count += evaluated
        for _rank, idx in found:
            d = src_val(idx) - dst_val(idx)
            counterexamples.append(Counterexample(name, idx, d))

    if src.product is not None:
        if dst.product is None:
            raise MissingTensor("product", "check_homomorphism target")
        run(
            "hom-product", 2,
            lambda t: f.apply(src.mul(src.basis(t[0]), src.basis(t[1]))),
            lambda t: dst.mul(images[t[0]], images[t[1]]),
        )
    if len(counterexamples) < budget and src.bracket is not None:
        if dst.bracket is None:
            raise MissingTensor("bracket", "check_homomorphism target")
        run(
            "hom-bracket", 3,
            lambda t: f.apply(src.br3(src.basis(t[0]), src.basis(t[1]), src.basis(t[2]))),
            lambda t: dst.br3(images[t[0]], images[t[1]], images[t[2]]),
        )
    if len(counterexamples) < budget and src.binary_bracket is not None:
        if dst.binary_bracket is None:
            raise MissingTensor("binary_bracket", "check_homomorphism target")
        run(
            "hom-binary-bracket", 2,
            lambda t: f.apply(src.br2(src.basis(t[0]), src.basis(t[1]))),
            lambda t: dst.br2(images[t[0]], images[t[1]]),
        )
    if not checked:
        raise MissingTensor("product", "check_homomorphism (source carries no tensors)")
    return CheckReport(
        passed=not counterexamples,
        kind="homomorphism",
        checked_identities=tuple(checked),
        counterexamples=tuple(counterexamples),
        tuple_count=tuple_count,
    )
