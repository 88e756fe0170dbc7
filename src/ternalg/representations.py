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
from functools import partial
from math import lcm
from typing import Optional

from .constructions import fix_slot_bracket, subadjacent_ternary_fmanifold
from .errors import (
    DimensionMismatch,
    InternalError,
    MissingRep,
    MissingTensor,
    UnknownKind,
)
from .linalg import Matrix, Tensor3, Tensor4, Vec
from .structures import (
    AlgebraBundle,
    CheckReport,
    COHERENCE_IDENTITIES,
    Counterexample,
    _check_identities,
    _leib2,
    _leib3,
    _Ops,
    _require,
    scan_space,
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

    def of_partial(self, i: int, w: Vec) -> Matrix:
        """rho(e_i, w) for a basis first argument."""
        out = Matrix.zero(self.module_dim, self.module_dim)
        row = self.mats[i]
        for j, wj in enumerate(w.entries):
            if wj:
                out = out + row[j].scale(wj)
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


def _sparse(grid, scale=None):
    """Nested rows of scalars -> the same nesting, innermost rows made sparse,
    with every value times scale (an integer that clears its denominator)."""
    if grid and isinstance(grid[0], tuple):
        return [_sparse(g, scale) for g in grid]
    return tuple((k, (v * scale).numerator if scale else v) for k, v in enumerate(grid) if v)


def _den_lcm(grid) -> int:
    if isinstance(grid, tuple):
        return lcm(*map(_den_lcm, grid))
    return grid.denominator


def _columns(mats):
    """Nested tuples of matrices -> the same nesting of column tuples."""
    if isinstance(mats, Matrix):
        return tuple(zip(*mats.entries))
    return tuple(_columns(x) for x in mats)


class _RepOps:
    """Sparse tables of a representation bundle, on integers scaled by
    (alpha, beta) or exact.  L maps and Leibnizators are memoised per basis
    tuple; an entry is stored once, complete, so parallel scans at worst
    compute it twice."""

    __slots__ = ("m", "scale", "alg", "rho", "mu", "_memo")

    def __init__(self, r: RepBundle, exact: bool):
        a = r.algebra
        rho = _columns(r.rho.mats) if r.rho is not None else ()
        mu = _columns(r.mu.mats) if r.mu is not None else ()
        prod, br3, br2 = (t.entries if t is not None else ()
                          for t in (a.product, a.bracket, a.binary_bracket))
        alpha, beta = (None, None) if exact else (_den_lcm((rho, br3, br2)), _den_lcm((mu, prod)))
        self.m, self.scale = r.module_dim, (alpha or 1, beta or 1)
        self.alg = _Ops(a.dim, _sparse(prod, beta), _sparse(br3, alpha), _sparse(br2, alpha))
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
        """Sparse Leibnizator at a basis tuple: ternary for 4 indices, binary for 3."""
        memo = self._memo[len(t)]
        v = memo.get(t)
        if v is None:
            fn = _leib3 if len(t) == 4 else _leib2
            v = memo[t] = _sparse(fn(self.alg, *(self.alg.basis[i] for i in t)))
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


def _run_conditions(conds, r: RepBundle, kind_label, max_counterexamples, jobs) -> CheckReport:
    """Scan tuples in rank order and module columns within each tuple.  A
    failing column's global rank is rank * m + p; the budget and tuple_count
    count columns, up to and including the last one reported."""
    n, m = r.algebra.dim, r.module_dim
    ops = _RepOps(r, exact=False)
    exact = None  # Fraction tables, built for the first flagged column
    budget = max(1, max_counterexamples)
    counterexamples: list[Counterexample] = []
    checked: list[str] = []
    tuple_count = 0
    for name, arity, col in conds:
        checked.append(name)
        left = budget - len(counterexamples)

        def scan(t, col=col):
            for p in range(m):
                if any(col(ops, t, p)):
                    return True
            return None

        # each failing tuple has a failing column, so `left` tuples hold enough
        found, _tuples = scan_space(scan, n, arity, left, jobs)
        failing = [(rank * m + p, t + (p,)) for rank, t in found for p in range(m)
                   if any(col(ops, t, p))][:left]
        tuple_count += failing[-1][0] + 1 if len(failing) == left else n ** arity * m
        for _rank, idx in failing:
            if exact is None:
                exact = _RepOps(r, exact=True)
            residual = Vec(col(exact, idx[:-1], idx[-1]))
            if residual.is_zero():
                raise InternalError(
                    f"integer scan flagged {name} at {idx}, but its exact column is zero"
                )
            counterexamples.append(Counterexample(name, idx, residual))
        if len(counterexamples) >= budget:
            break
    return CheckReport(
        passed=not counterexamples,
        kind=kind_label,
        checked_identities=tuple(checked),
        counterexamples=tuple(counterexamples),
        tuple_count=tuple_count,
    )


def check_representation(kind, r: RepBundle, *, max_counterexamples: int = 1,
                         jobs: int = 1) -> CheckReport:
    """Verify all conditions of the representation kind on basis tuples x module basis."""
    kind = coerce_rep_kind(kind)
    return _run_conditions(_kind_conditions(kind, r), r, kind.value, max_counterexamples, jobs)


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
    basis = a.basis_vectors()
    rho = BiRep(
        n,
        tuple(
            tuple(
                Matrix.from_columns([a.br3(basis[i], basis[j], basis[k]) for k in range(n)])
                for j in range(n)
            )
            for i in range(n)
        ),
    )
    mu = LinRep(
        n,
        tuple(
            Matrix.from_columns([a.mul(basis[i], basis[k]) for k in range(n)])
            for i in range(n)
        ),
    )
    return RepBundle(algebra=a, rho=rho, mu=mu)


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


def check_coherence(a: AlgebraBundle, *, max_counterexamples: int = 1,
                    jobs: int = 1) -> CheckReport:
    """Ternary F-manifold identities plus the three coherence identities.

    The coherence notion presumes the structure identities, so they are part
    of the identity list and a non-passing bundle fails with counterexamples.
    """
    return _check_identities(
        a, COHERENCE_IDENTITIES, "coherence", max_counterexamples, jobs
    )


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
    dim = n + m
    pa = a.product.entries
    fa = a.bracket.entries

    def prod(i, j, k):
        if i < n and j < n:
            return pa[i][j][k] if k < n else 0
        if i < n and j >= n:
            return mu.mats[i].entries[k - n][j - n] if k >= n else 0
        if i >= n and j < n:
            return mu.mats[j].entries[k - n][i - n] if k >= n else 0
        return 0

    def brk(i, j, k, l):
        av = (i < n, j < n, k < n)
        if av == (True, True, True):
            return fa[i][j][k][l] if l < n else 0
        if l < n:
            return 0
        if av == (True, True, False):
            return rho.mats[i][j].entries[l - n][k - n]
        if av == (True, False, True):
            return -rho.mats[i][k].entries[l - n][j - n]
        if av == (False, True, True):
            return rho.mats[j][k].entries[l - n][i - n]
        return 0

    labels = a.basis_labels + tuple(f"v{p + 1}" for p in range(m))
    return AlgebraBundle(
        dim, product=Tensor3.build(dim, prod), bracket=Tensor4.build(dim, brk),
        basis_labels=labels,
    )


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
        tuple(rho.of_partial(i, anchor) for i in range(r.algebra.dim)),
    )
    return RepBundle(algebra=fixed, rho=rho_a, mu=mu)


def rep_of_subadjacent(p: AlgebraBundle) -> RepBundle:
    """(A; L-bracket, L-product) over the sub-adjacent bundle of a pre-structure.

    rho(e_i,e_j) has columns {e_i, e_j, e_k}; mu(e_i) has columns e_i <> e_k.
    """
    if p.product is None or p.bracket is None:
        raise MissingTensor("product" if p.product is None else "bracket",
                            "rep_of_subadjacent")
    sub = subadjacent_ternary_fmanifold(p)
    n = p.dim
    basis = p.basis_vectors()
    rho = BiRep(
        n,
        tuple(
            tuple(
                Matrix.from_columns([p.br3(basis[i], basis[j], basis[k]) for k in range(n)])
                for j in range(n)
            )
            for i in range(n)
        ),
    )
    mu = LinRep(
        n,
        tuple(
            Matrix.from_columns([p.mul(basis[i], basis[k]) for k in range(n)])
            for i in range(n)
        ),
    )
    return RepBundle(algebra=sub, rho=rho, mu=mu)
