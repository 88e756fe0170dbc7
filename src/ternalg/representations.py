"""Representations of the algebra kinds, their checkers, duals and semidirect products.

A representation pairs a module action mu (one matrix per basis vector) with
a bracket action rho (a matrix per basis pair for ternary brackets, per basis
vector for binary ones).  All checks quantify over algebra basis tuples and
module basis vectors; the defect for a counterexample is the corresponding
column of the failing matrix identity.

Each condition is one function of a basis tuple and a module column over
sparse tables (`_RepOps`).  The exhaustive scan runs it on integers: rho and
both brackets scaled by alpha, the lcm of all their denominators, mu and the
product by beta, the lcm of theirs.  The conditions are homogeneous only in
these two groups (L1 = rho mu - mu rho - mu([.,.,.]) mixes rho and the
bracket), so one shared factor per group is needed: then each column scales
by one monomial alpha^a beta^b and is zero exactly when the rational one is.
Flagged columns are recomputed in Fractions at scale 1 for the reported
residual, which cross-checks the integer path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial
from math import lcm
from typing import Optional

from .constructions import fix_slot_bracket, subadjacent_ternary_fmanifold
from .errors import (
    DimensionMismatch,
    MissingRep,
    MissingTensor,
    UnknownKind,
)
from .linalg import ZERO, Matrix, Tensor, Vec
from .structures import (
    AlgebraBundle,
    CheckReport,
    COHERENCE_IDENTITIES,
    Condition,
    _SUBMAPS,
    _evaluate,
    _identity_conditions,
    _Ops,
    _require,
    _table,
    run_conditions,
)


@dataclass(frozen=True)
class LinRep:
    """mu: A -> End(V), stored as mats[i] = mu(e_i), each module_dim x module_dim."""

    module_dim: int
    mats: tuple[Matrix, ...]

    def __post_init__(self):
        for m in self.mats:
            if m.rows != self.module_dim or m.cols != self.module_dim:
                raise DimensionMismatch(
                    f"representation matrix is {m.rows}x{m.cols}, module dim is {self.module_dim}"
                )

    @staticmethod
    def zero(n: int, module_dim: int) -> "LinRep":
        z = Matrix.zero(module_dim, module_dim)
        return LinRep(module_dim, tuple(z for _ in range(n)))

    def of(self, x: Vec) -> Matrix:
        out = Matrix.zero(self.module_dim, self.module_dim)
        for i, xi in enumerate(x.entries):
            if xi:
                out = out + self.mats[i].scale(xi)
        return out


@dataclass(frozen=True)
class BiRep:
    """rho: A x A -> End(V), stored as mats[i][j] = rho(e_i, e_j); skewness in
    (i, j) is intended and validated by the checkers, never enforced."""

    module_dim: int
    mats: tuple[tuple[Matrix, ...], ...]

    def __post_init__(self):
        for row in self.mats:
            for m in row:
                if m.rows != self.module_dim or m.cols != self.module_dim:
                    raise DimensionMismatch(
                        f"representation matrix is {m.rows}x{m.cols}, "
                        f"module dim is {self.module_dim}"
                    )

    @staticmethod
    def zero(n: int, module_dim: int) -> "BiRep":
        z = Matrix.zero(module_dim, module_dim)
        return BiRep(module_dim, tuple(tuple(z for _ in range(n)) for _ in range(n)))

    def of(self, x: Vec, y: Vec) -> Matrix:
        out = Matrix.zero(self.module_dim, self.module_dim)
        for i, xi in enumerate(x.entries):
            if xi:
                row = self.mats[i]
                for j, yj in enumerate(y.entries):
                    if yj:
                        out = out + row[j].scale(xi * yj)
        return out


@dataclass(frozen=True, eq=False)
class RepBundle:
    """An algebra bundle together with optional rho / mu actions on one module."""

    algebra: AlgebraBundle
    rho: Optional[object] = None  # BiRep for ternary kinds, LinRep for binary kinds
    mu: Optional[LinRep] = None

    def __post_init__(self):
        n = self.algebra.dim
        dims = set()
        if self.rho is not None:
            if isinstance(self.rho, BiRep):
                if len(self.rho.mats) != n or any(len(r) != n for r in self.rho.mats):
                    raise DimensionMismatch("rho grid does not match the algebra dimension")
            elif isinstance(self.rho, LinRep):
                if len(self.rho.mats) != n:
                    raise DimensionMismatch("rho list does not match the algebra dimension")
            else:
                raise TypeError("rho must be a BiRep or LinRep")
            dims.add(self.rho.module_dim)
        if self.mu is not None:
            if len(self.mu.mats) != n:
                raise DimensionMismatch("mu list does not match the algebra dimension")
            dims.add(self.mu.module_dim)
        if len(dims) > 1:
            raise DimensionMismatch(f"rho and mu disagree on the module dimension: {dims}")

    @property
    def module_dim(self) -> int:
        if self.rho is not None:
            return self.rho.module_dim
        if self.mu is not None:
            return self.mu.module_dim
        raise MissingRep("representation bundle carries neither rho nor mu")


class RepKind(str, Enum):
    COMM_ASSOC_REP = "comm-assoc-rep"
    LIE_REP = "lie-rep"
    THREE_LIE_REP = "three-lie-rep"
    FMANIFOLD_REP = "fmanifold-rep"
    TERNARY_FMANIFOLD_REP = "ternary-fmanifold-rep"
    DUAL_CONDITIONS = "dual-conditions"


def coerce_rep_kind(kind) -> RepKind:
    if isinstance(kind, RepKind):
        return kind
    try:
        return RepKind(kind)
    except ValueError:
        raise UnknownKind(f"unknown representation kind {kind!r}") from None


# ---------------------------------------------------------------------------
# sparse tables: a matrix is held as its sparse columns, cols[q] =
# ((row, value), ...), and the algebra tensors as in structures._Ops


def _columns(mats):
    """Nested tuples of matrices -> the same nesting of column tuples."""
    if isinstance(mats, Matrix):
        return tuple(zip(*mats.entries))
    return tuple(_columns(x) for x in mats)


def _sparse(grid, scale=None):
    """Nested rows of scalars -> the same nesting, innermost rows made sparse,
    with every value times scale (an integer that clears its denominator)."""
    if grid and isinstance(grid[0], tuple):
        return [_sparse(g, scale) for g in grid]
    return tuple((k, (v * scale).numerator if scale else v) for k, v in enumerate(grid) if v)


def _den_lcm(grid) -> int:
    """The lcm of all denominators in nested tuples of Fractions and tensors
    (None for an absent one)."""
    if isinstance(grid, tuple):
        return lcm(*map(_den_lcm, grid))
    if isinstance(grid, Tensor):
        return grid.den_lcm()
    return 1 if grid is None else grid.denominator


class _RepOps:
    """Sparse tables of a representation bundle, on integers scaled by
    (alpha, beta) or exact.  L maps, exact Leibnizators and the integer
    Leibnizator tables are built on first use."""

    __slots__ = ("m", "exact", "scale", "alg", "rho", "mu", "_memo")

    def __init__(self, r: RepBundle, exact: bool):
        a = r.algebra
        rho = _columns(r.rho.mats) if r.rho is not None else ()
        mu = _columns(r.mu.mats) if r.mu is not None else ()
        prod, br3, br2 = a.product, a.bracket, a.binary_bracket
        alpha, beta = (None, None) if exact else (_den_lcm((rho, br3, br2)), _den_lcm((mu, prod)))
        self.m, self.exact, self.scale = r.module_dim, exact, (alpha or 1, beta or 1)
        self.alg = _Ops(a.dim, *(t.table(s) if t is not None else None
                                 for t, s in ((prod, beta), (br3, alpha), (br2, alpha))))
        self.rho = _sparse(rho, alpha)
        self.mu = _sparse(mu, beta)
        self._memo = defaultdict(dict)

    def table(self, col, t):
        """Sparse columns of the matrix whose column p is col(self, t, p)."""
        memo = self._memo[col]
        cols = memo.get(t)
        if cols is None:
            cols = memo[t] = tuple(_sparse(col(self, t, p)) for p in range(self.m))
        return cols

    def leib(self, t):
        """Sparse Leibnizator at a basis tuple: ternary for 4 indices, binary
        for 3.  The scan reads the generated sub-map table; the exact re-check
        walks the terms, independent of generated code."""
        name = "leib3" if len(t) == 4 else "leib2"
        if self.exact:
            return _sparse(_evaluate(self.alg, _SUBMAPS[name], [self.alg.basis[i] for i in t]))
        v = _table(self.alg, name)
        for i in t:
            v = v[i]
        return v


def _acc(out, v, c):
    """out += c * v for a sparse vector v."""
    for r, b in v:
        out[r] += c * b


def _acc_mat(out, cols, v, c):
    """out += c * (M v) for M given by its sparse columns and a sparse vector v."""
    for q, a in v:
        ca = c * a
        for r, b in cols[q]:
            out[r] += ca * b


# ---------------------------------------------------------------------------
# matrix conditions: column p at basis tuple t, as a dense list; each runs on
# integer tables in the scan and on Fraction tables for the re-check


def _rho_skew(o, t, p):
    """rho(e_i,e_j) + rho(e_j,e_i)."""
    i, j = t
    out = [0] * o.m
    _acc(out, o.rho[i][j][p], 1)
    _acc(out, o.rho[j][i][p], 1)
    return out


def _kasymov_i(o, t, p):
    """[rho(e_i,e_j), rho(e_k,e_l)] - rho([e_i,e_j,e_k], e_l) + rho([e_i,e_j,e_l], e_k)."""
    i, j, k, l = t
    R, f = o.rho, o.alg.br3t[i][j]
    out = [0] * o.m
    _acc_mat(out, R[i][j], R[k][l][p], 1)
    _acc_mat(out, R[k][l], R[i][j][p], -1)
    for s, c in f[k]:
        _acc(out, R[s][l][p], -c)
    for s, c in f[l]:
        _acc(out, R[s][k][p], c)
    return out


def _kasymov_ii(o, t, p):
    """rho([e_i,e_j,e_k], e_l) - rho_ij rho_kl - rho_jk rho_il - rho_ki rho_jl."""
    i, j, k, l = t
    R = o.rho
    out = [0] * o.m
    for s, c in o.alg.br3t[i][j][k]:
        _acc(out, R[s][l][p], c)
    _acc_mat(out, R[i][j], R[k][l][p], -1)
    _acc_mat(out, R[j][k], R[i][l][p], -1)
    _acc_mat(out, R[k][i], R[j][l][p], -1)
    return out


def _mu_mult(o, t, p):
    """mu(e_i e_j) - mu(e_i) mu(e_j)."""
    i, j = t
    out = [0] * o.m
    for s, c in o.alg.prod[i][j]:
        _acc(out, o.mu[s][p], c)
    _acc_mat(out, o.mu[i], o.mu[j][p], -1)
    return out


def _rho_lie(o, t, p):
    """rho([e_i,e_j]) - rho(e_i) rho(e_j) + rho(e_j) rho(e_i)."""
    i, j = t
    R = o.rho
    out = [0] * o.m
    for s, c in o.alg.br2t[i][j]:
        _acc(out, R[s][p], c)
    _acc_mat(out, R[i], R[j][p], -1)
    _acc_mat(out, R[j], R[i][p], 1)
    return out


def _rho_at(o, head):
    """Columns of rho(e_i, e_j) for a pair action, of rho(e_i) for a binary one."""
    return o.rho[head[0]][head[1]] if len(head) == 2 else o.rho[head[0]]


def _l1(o, t, p):
    """L1(x,y,z) = rho(x,y)mu(z) - mu(z)rho(x,y) - mu([x,y,z]) at basis vectors;
    for a binary bracket L1(x,z) = rho(x)mu(z) - mu(z)rho(x) - mu([x,z])."""
    r, mk = _rho_at(o, t[:-1]), o.mu[t[-1]]
    out = [0] * o.m
    _acc_mat(out, r, mk[p], 1)
    _acc_mat(out, mk, r[p], -1)
    bracket = o.alg.br3t[t[0]][t[1]][t[2]] if len(t) == 3 else o.alg.br2t[t[0]][t[1]]
    for s, c in bracket:
        _acc(out, o.mu[s][p], -c)
    return out


def _l23(o, t, p, mu_left):
    """With mu_left, L2(x,y,z) = mu(z)rho(x,y) + mu(y)rho(x,z) - rho(x, y z) at basis
    vectors, or for a binary bracket L2(y,z) = mu(z)rho(y) + mu(y)rho(z) - rho(y z);
    without, L3: the same with every rho before its mu."""
    head, j, k = t[:-2], t[-2], t[-1]
    out = [0] * o.m
    for x, y in ((j, k), (k, j)):
        r, my = _rho_at(o, head + (x,)), o.mu[y]
        if mu_left:
            _acc_mat(out, my, r[p], 1)
        else:
            _acc_mat(out, r, my[p], 1)
    for s, c in o.alg.prod[j][k]:
        _acc(out, _rho_at(o, head + (s,))[p], -c)
    return out


_l2 = partial(_l23, mu_left=True)
_l3 = partial(_l23, mu_left=False)


def _product_rule(o, t, p, lmap, sign, mu_right):
    """L(e_i e_j, ...) + sign * (mu(e_i) L(e_j, ...) + mu(e_j) L(e_i, ...)),
    with each mu factor on the right of L when mu_right."""
    i, j, rest = t[0], t[1], t[2:]
    M = o.mu
    out = [0] * o.m
    for s, c in o.alg.prod[i][j]:
        _acc(out, o.table(lmap, (s,) + rest)[p], c)
    li, lj = o.table(lmap, (i,) + rest), o.table(lmap, (j,) + rest)
    if mu_right:
        _acc_mat(out, lj, M[i][p], sign)
        _acc_mat(out, li, M[j][p], sign)
    else:
        _acc_mat(out, M[i], lj[p], sign)
        _acc_mat(out, M[j], li[p], sign)
    return out


def _leibnizator_rule(o, t, p, lmap):
    """mu(Leib(e_i, ...)) - L(...) mu(e_i) + mu(e_i) L(...), L at the tuple's tail."""
    i, M = t[0], o.mu
    out = [0] * o.m
    for s, c in o.leib(t):
        _acc(out, M[s][p], c)
    lm = o.table(lmap, t[1:])
    _acc_mat(out, lm, M[i][p], -1)
    _acc_mat(out, M[i], lm[p], 1)
    return out


_THREE_LIE = [("rho-skew", 2, _rho_skew), ("kasymov-i", 4, _kasymov_i),
              ("kasymov-ii", 4, _kasymov_ii)]
_MU_MULT = [("mu-mult", 2, _mu_mult)]
_RHO_LIE = [("rho-lie", 2, _rho_lie)]
_BINARY_REP = [
    ("brep-1", 3, partial(_product_rule, lmap=_l1, sign=-1, mu_right=False)),
    ("brep-2", 3, partial(_leibnizator_rule, lmap=_l2)),
]
_TERNARY_REP = [
    ("rep-1", 4, partial(_product_rule, lmap=_l1, sign=-1, mu_right=False)),
    ("rep-3", 4, partial(_product_rule, lmap=_l2, sign=-1, mu_right=False)),
    ("rep-2", 4, partial(_leibnizator_rule, lmap=_l2)),
]
_DUAL = [
    ("corep-1", 4, partial(_product_rule, lmap=_l1, sign=-1, mu_right=True)),
    ("corep-2", 4, partial(_product_rule, lmap=_l3, sign=1, mu_right=True)),
    ("corep-3", 4, partial(_leibnizator_rule, lmap=_l3)),
]

_KIND_CONDITIONS = {
    RepKind.COMM_ASSOC_REP: _MU_MULT,
    RepKind.LIE_REP: _RHO_LIE,
    RepKind.THREE_LIE_REP: _THREE_LIE,
    RepKind.FMANIFOLD_REP: _RHO_LIE + _MU_MULT + _BINARY_REP,
    RepKind.TERNARY_FMANIFOLD_REP: _THREE_LIE + _MU_MULT + _TERNARY_REP,
    RepKind.DUAL_CONDITIONS: _DUAL,
}


# ---------------------------------------------------------------------------
# checking


def _need_birep(r: RepBundle) -> BiRep:
    if not isinstance(r.rho, BiRep):
        raise MissingRep("this check needs rho as a pair action (BiRep)")
    return r.rho


def _need_mu(r: RepBundle) -> LinRep:
    if r.mu is None:
        raise MissingRep("this check needs mu")
    return r.mu


def _kind_conditions(kind: RepKind, r: RepBundle):
    """The kind's (name, arity, column) list; raises for the first component it misses."""
    a = r.algebra
    if kind in (RepKind.LIE_REP, RepKind.FMANIFOLD_REP):
        if not isinstance(r.rho, LinRep):
            raise MissingRep("this check needs rho as a single-argument action (LinRep)")
        _require(a, ("binary_bracket",), "lie-rep")
    if kind in (RepKind.THREE_LIE_REP, RepKind.TERNARY_FMANIFOLD_REP):
        _require(a, ("bracket",), "three-lie-rep")
        _need_birep(r)
    if kind in (RepKind.COMM_ASSOC_REP, RepKind.FMANIFOLD_REP, RepKind.TERNARY_FMANIFOLD_REP):
        _require(a, ("product",), "comm-assoc-rep")
        _need_mu(r)
    if kind is RepKind.DUAL_CONDITIONS:
        _require(a, ("product", "bracket"), "dual-conditions")
        _need_mu(r)
        _need_birep(r)
    return _KIND_CONDITIONS[kind]


def _rep_conditions(kind: RepKind, r: RepBundle) -> list[Condition]:
    """The kind's conditions, each scanned over tuples on integer tables with
    the loop over module columns inside; failing columns are recomputed on
    Fraction tables, built for the first of them."""
    ops = _RepOps(r, exact=False)
    exact = cache(lambda: _RepOps(r, exact=True))
    m = r.module_dim

    def condition(name, arity, col):
        return Condition(
            name, r.algebra.dim, arity,
            lambda idx: Vec(col(exact(), idx[:-1], idx[-1])),
            scan=lambda t: [p for p in range(m) if any(col(ops, t, p))],
            columns=m)

    return [condition(*c) for c in _kind_conditions(kind, r)]


def check_representation(kind, r: RepBundle, *, max_counterexamples: int = 1) -> CheckReport:
    """Verify all conditions of the representation kind on basis tuples x module basis."""
    kind = coerce_rep_kind(kind)
    return run_conditions(kind.value, _rep_conditions(kind, r), max_counterexamples)


# ---------------------------------------------------------------------------
# L maps as vector evaluators


def l1(r: RepBundle, x: Vec, y: Vec, z: Vec, u: Vec) -> Vec:
    """rho(x,y)mu(z)u - mu(z)rho(x,y)u - mu([x,y,z])u."""
    rho, mu = _need_birep(r), _need_mu(r)
    a = r.algebra
    rxy = rho.of(x, y)
    return (
        rxy.apply(mu.of(z).apply(u))
        - mu.of(z).apply(rxy.apply(u))
        - mu.of(a.br3(x, y, z)).apply(u)
    )


def l2(r: RepBundle, x: Vec, y: Vec, z: Vec, u: Vec) -> Vec:
    """mu(z)rho(x,y)u + mu(y)rho(x,z)u - rho(x, y*z)u."""
    rho, mu = _need_birep(r), _need_mu(r)
    a = r.algebra
    return (
        mu.of(z).apply(rho.of(x, y).apply(u))
        + mu.of(y).apply(rho.of(x, z).apply(u))
        - rho.of(x, a.mul(y, z)).apply(u)
    )


def l3(r: RepBundle, x: Vec, y: Vec, z: Vec, u: Vec) -> Vec:
    """rho(x,y)mu(z)u + rho(x,z)mu(y)u - rho(x, y*z)u."""
    rho, mu = _need_birep(r), _need_mu(r)
    a = r.algebra
    return (
        rho.of(x, y).apply(mu.of(z).apply(u))
        + rho.of(x, z).apply(mu.of(y).apply(u))
        - rho.of(x, a.mul(y, z)).apply(u)
    )


# ---------------------------------------------------------------------------
# constructions on representations


def adjoint_rep(a: AlgebraBundle) -> RepBundle:
    """rho(e_i,e_j) = [e_i, e_j, .], mu(e_i) = e_i * (.), acting on A itself."""
    if a.product is None:
        raise MissingTensor("product", "adjoint_rep")
    if a.bracket is None:
        raise MissingTensor("bracket", "adjoint_rep")
    n = a.dim
    rho = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    mu = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k, l), v in a.bracket.nonzeros():
        rho[i][j][l][k] = v
    for (i, k, l), v in a.product.nonzeros():
        mu[i][l][k] = v
    return RepBundle(algebra=a, rho=BiRep(n, tuple(tuple(map(Matrix, row)) for row in rho)),
                     mu=LinRep(n, tuple(map(Matrix, mu))))


def dual_rep(r: RepBundle) -> RepBundle:
    """Dual module action: rho* = -(rho)^T componentwise, mu-component = +(mu)^T.

    The mu-component is -mu* (double negation), so applying dual_rep twice
    recovers the original matrices exactly.
    """
    rho = mu = None
    if r.rho is not None:
        if isinstance(r.rho, BiRep):
            rho = BiRep(
                r.rho.module_dim,
                tuple(tuple((-m).T for m in row) for row in r.rho.mats),
            )
        else:
            rho = LinRep(r.rho.module_dim, tuple((-m).T for m in r.rho.mats))
    if r.mu is not None:
        mu = LinRep(r.mu.module_dim, tuple(m.T for m in r.mu.mats))
    return RepBundle(algebra=r.algebra, rho=rho, mu=mu)


def check_coherence(a: AlgebraBundle, *, max_counterexamples: int = 1) -> CheckReport:
    """Ternary F-manifold identities plus the three coherence identities.

    The coherence notion presumes the structure identities, so they are part
    of the identity list and a non-passing bundle fails with counterexamples.
    """
    return run_conditions("coherence", _identity_conditions(a, COHERENCE_IDENTITIES),
                          max_counterexamples)


def semidirect(r: RepBundle) -> AlgebraBundle:
    """Semidirect product bundle on A (+) V.

    (x1+v1)(x2+v2) = x1 x2 + mu(x1)v2 + mu(x2)v1
    [x1+v1, x2+v2, x3+v3] = [x1,x2,x3] + rho(x1,x2)v3 - rho(x1,x3)v2 + rho(x2,x3)v1
    """
    a = r.algebra
    if a.product is None or a.bracket is None:
        raise MissingTensor("product" if a.product is None else "bracket", "semidirect")
    rho = _need_birep(r)
    mu = _need_mu(r)
    n, m = a.dim, r.module_dim
    prod = list(a.product.nonzeros())
    for i, mat in enumerate(mu.mats):
        for (k, j), v in mat.nonzeros():
            prod += [((i, n + j, n + k), v), ((n + j, i, n + k), v)]
    brk = list(a.bracket.nonzeros())
    for i, row in enumerate(rho.mats):
        for j, mat in enumerate(row):
            for (l, k), v in mat.nonzeros():
                brk += [((i, j, n + k, n + l), v), ((i, n + k, j, n + l), -v),
                        ((n + k, i, j, n + l), v)]
    labels = a.basis_labels + tuple(f"v{p + 1}" for p in range(m))
    return AlgebraBundle(n + m, product=Tensor(n + m, 3, prod), bracket=Tensor(n + m, 4, brk),
                         basis_labels=labels)


def fix_slot_rep(r: RepBundle, anchor: Vec) -> RepBundle:
    """rho_a(x) = rho(x, anchor) over the slot-fixed binary bundle."""
    rho = _need_birep(r)
    mu = _need_mu(r)
    if anchor.dim != r.algebra.dim:
        raise DimensionMismatch(
            f"anchor has dim {anchor.dim}, algebra has dim {r.algebra.dim}"
        )
    fixed = fix_slot_bracket(r.algebra, anchor)
    rho_a = LinRep(
        rho.module_dim,
        tuple(rho.of(r.algebra.basis(i), anchor) for i in range(r.algebra.dim)),
    )
    return RepBundle(algebra=fixed, rho=rho_a, mu=mu)


def rep_of_subadjacent(p: AlgebraBundle) -> RepBundle:
    """(A; L-bracket, L-product) over the sub-adjacent bundle of a pre-structure.

    rho(e_i,e_j) has columns {e_i, e_j, e_k}; mu(e_i) has columns e_i <> e_k:
    the matrices of the adjoint action of p itself.
    """
    if p.product is None or p.bracket is None:
        raise MissingTensor("product" if p.product is None else "bracket",
                            "rep_of_subadjacent")
    adj = adjoint_rep(p)
    return RepBundle(algebra=subadjacent_ternary_fmanifold(p), rho=adj.rho, mu=adj.mu)
