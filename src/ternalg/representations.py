"""Representations of the algebra kinds, their checkers, duals and semidirect products.

A representation pairs a module action mu with a bracket action rho (of a
basis pair for ternary brackets, of a basis vector for binary ones).  Each
is stored once as a sparse `Tensor` of structure constants, like the
algebra's own: the constant at (i, [j,] q, p) is row p, column q of the
matrix of e_i [, e_j].  So `adjoint_rep` stores the algebra's bracket and
product themselves, and `dual_rep` swaps the last two indices.  All checks
quantify over algebra basis tuples and module basis vectors; the defect for
a counterexample is the corresponding column of the failing matrix identity.

Every condition is data in the term language of `structures`: a map with
algebra slots (A) first and the module slot (V) last, built from `rho`:
A A V -> V (`rho1`: A V -> V for a `LinRep`), `mu`: A V -> V and the
algebra's tensors.  Its value at (t, e_p) is column p of the matrix identity
at the algebra tuple t, ranked rank(t) * m + p.  `_registry` defines L1, L2,
L3 and their binary forms as sub-maps, and each condition, once;
`KIND_CONDITIONS` lists each kind's conditions by name.

The scans run on integer tables: rho and mu each times the lcm of its own
denominators, next to the algebra's own integer tables and sub-map tables,
which a representation shares with its algebra.  A condition need not be
homogeneous in its tensors (L1 mixes rho with the bracket): each term's
coefficient carries the multiplier that brings it to the condition's
common scale L (`structures._multipliers`), so every scanned column is L
times the exact one.  Flagged entries are recomputed by the exact term
walker on Fraction tables, which cross-checks the scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .constructions import fix_slot_bracket, subadjacent_ternary_fmanifold
from .errors import (
    DimensionMismatch,
    MissingRep,
    MissingTensor,
)
from .linalg import ZERO, Matrix, Tensor, Vec
from .structures import (
    _SUBMAPS,
    COHERENCE_IDENTITIES,
    AlgebraBundle,
    CheckReport,
    Identity,
    _check_components,
    _condition,
    _define,
    _eval_map,
    _identity_conditions,
    _layout,
    _op,
    _ops,
    _submap,
    coerce_kind,
    run_conditions,
)


@dataclass(frozen=True)
class _Action:
    """An action of the algebra (dim `algebra_dim`) on a module (dim
    `module_dim`), stored once as a sparse `Tensor` on max(algebra_dim,
    module_dim): its constant at (i, [j,] q, p) is row p, column q of the
    matrix of e_i [, e_j], so that the action sends e_q to the sum over p.
    `Cls(module_dim, mats)` converts dense matrices, `Cls.from_tensor`
    takes the constants themselves, and `mats` is a dense view built on
    each access."""

    module_dim: int
    algebra_dim: int
    tensor: Tensor

    def __init__(self, module_dim: int, mats):
        n = len(mats)
        if self.order == 3:
            cells = [((i,), m) for i, m in enumerate(mats)]
        elif any(len(row) != n for row in mats):
            raise DimensionMismatch("rho grid does not match the algebra dimension")
        else:
            cells = [((i, j), m) for i, row in enumerate(mats) for j, m in enumerate(row)]
        for _, m in cells:
            if m.rows != module_dim or m.cols != module_dim:
                raise DimensionMismatch(
                    f"representation matrix is {m.rows}x{m.cols}, module dim is {module_dim}")
        self._set(n, module_dim, Tensor(max(n, module_dim), self.order, (
            (head + (q, p), v) for head, m in cells for (p, q), v in m.nonzeros())))

    def _set(self, algebra_dim: int, module_dim: int, tensor: Tensor):
        if tensor.order != self.order or tensor.dim != max(algebra_dim, module_dim):
            raise DimensionMismatch(f"an order-{tensor.order} tensor of dim {tensor.dim} is "
                                    f"no action of dim {algebra_dim} on dim {module_dim}")
        object.__setattr__(self, "module_dim", module_dim)
        object.__setattr__(self, "algebra_dim", algebra_dim)
        object.__setattr__(self, "tensor", tensor)

    @classmethod
    def from_tensor(cls, algebra_dim: int, module_dim: int, tensor: Tensor):
        out = object.__new__(cls)
        out._set(algebra_dim, module_dim, tensor)
        return out

    @classmethod
    def zero(cls, n: int, module_dim: int):
        return cls.from_tensor(n, module_dim, Tensor(max(n, module_dim), cls.order, ()))

    def grids(self) -> dict:
        """The rows of the matrix of each index (i,) [or (i, j)] whose action
        is nonzero, by increasing index."""
        out: dict = {}
        for idx, v in self.tensor.nonzeros():
            if idx[:-2] not in out:
                out[idx[:-2]] = [[ZERO] * self.module_dim for _ in range(self.module_dim)]
            out[idx[:-2]][idx[-1]][idx[-2]] = v
        return out

    @property
    def mats(self):
        nz, zero = self.grids(), Matrix.zero(self.module_dim, self.module_dim)
        n = self.algebra_dim

        def at(*head):
            return Matrix(nz[head]) if head in nz else zero

        if self.order == 3:
            return tuple(at(i) for i in range(n))
        return tuple(tuple(at(i, j) for j in range(n)) for i in range(n))


class LinRep(_Action):
    """mu: A -> End(V), or the rho of a binary bracket: an order-3 tensor;
    `mats[i]` = mu(e_i) has row p, column q the constant at (i, q, p)."""

    order = 3


class BiRep(_Action):
    """rho: A x A -> End(V): an order-4 tensor; `mats[i][j]` = rho(e_i, e_j)
    has row p, column q the constant at (i, j, q, p).  Skewness in (i, j) is
    intended and validated by the checkers, never enforced."""

    order = 4


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
            if not isinstance(self.rho, (BiRep, LinRep)):
                raise TypeError("rho must be a BiRep or LinRep")
            if self.rho.algebra_dim != n:
                shape = "grid" if isinstance(self.rho, BiRep) else "list"
                raise DimensionMismatch(f"rho {shape} does not match the algebra dimension")
            dims.add(self.rho.module_dim)
        if self.mu is not None:
            if self.mu.algebra_dim != n:
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


# ---------------------------------------------------------------------------
# the conditions, as data


def _registry() -> dict[str, Identity]:
    """Every representation sub-map and condition, each defined once.  The
    module slot v is last: a map's value at (e_i, ..., e_p) is column p of
    the matrix identity at the basis tuple (e_i, ...)."""
    mul, br3, br2 = _op("mul"), _op("br3"), _op("br2")
    rho, rho1, mu = _op("rho"), _op("rho1"), _op("mu")
    leib3, leib2 = _op("leib3"), _op("leib2")
    # the L maps of l1, l2, l3, and for a binary bracket L1(x,z), L2(y,z)
    L1 = _submap("L1", lambda x, y, z, v: (
        rho(x, y, mu(z, v)) - mu(z, rho(x, y, v)) - mu(br3(x, y, z), v)))
    L2 = _submap("L2", lambda x, y, z, v: (
        mu(z, rho(x, y, v)) + mu(y, rho(x, z, v)) - rho(x, mul(y, z), v)))
    L3 = _submap("L3", lambda x, y, z, v: (
        rho(x, y, mu(z, v)) + rho(x, z, mu(y, v)) - rho(x, mul(y, z), v)))
    L1b = _submap("L1b", lambda x, z, v: (
        rho1(x, mu(z, v)) - mu(z, rho1(x, v)) - mu(br2(x, z), v)))
    L2b = _submap("L2b", lambda y, z, v: (
        mu(z, rho1(y, v)) + mu(y, rho1(z, v)) - rho1(mul(y, z), v)))
    return {
        c.name: c
        for c in [
            _define("rho-skew", lambda x, y, v: rho(x, y, v) + rho(y, x, v)),
            _define("kasymov-i", lambda x1, x2, x3, x4, v: (
                rho(x1, x2, rho(x3, x4, v)) - rho(x3, x4, rho(x1, x2, v))
                - rho(br3(x1, x2, x3), x4, v) + rho(br3(x1, x2, x4), x3, v))),
            _define("kasymov-ii", lambda x1, x2, x3, x4, v: (
                rho(br3(x1, x2, x3), x4, v) - rho(x1, x2, rho(x3, x4, v))
                - rho(x2, x3, rho(x1, x4, v)) - rho(x3, x1, rho(x2, x4, v)))),
            _define("mu-mult", lambda x, y, v: mu(mul(x, y), v) - mu(x, mu(y, v))),
            _define("rho-lie", lambda x, y, v: (
                rho1(br2(x, y), v) - rho1(x, rho1(y, v)) + rho1(y, rho1(x, v)))),
            _define("brep-1", lambda x1, x2, x3, v: (
                L1b(mul(x1, x2), x3, v) - mu(x1, L1b(x2, x3, v)) - mu(x2, L1b(x1, x3, v)))),
            _define("brep-2", lambda x1, x2, x3, v: (
                mu(leib2(x1, x2, x3), v) - L2b(x2, x3, mu(x1, v)) + mu(x1, L2b(x2, x3, v)))),
            _define("rep-1", lambda x1, x2, x3, x4, v: (
                L1(mul(x1, x2), x3, x4, v) - mu(x1, L1(x2, x3, x4, v))
                - mu(x2, L1(x1, x3, x4, v)))),
            _define("rep-3", lambda x1, x2, x3, x4, v: (
                L2(mul(x1, x2), x3, x4, v) - mu(x1, L2(x2, x3, x4, v))
                - mu(x2, L2(x1, x3, x4, v)))),
            _define("rep-2", lambda x1, x2, x3, x4, v: (
                mu(leib3(x1, x2, x3, x4), v) - L2(x2, x3, x4, mu(x1, v))
                + mu(x1, L2(x2, x3, x4, v)))),
            _define("corep-1", lambda x1, x2, x3, x4, v: (
                L1(mul(x1, x2), x3, x4, v) - L1(x2, x3, x4, mu(x1, v))
                - L1(x1, x3, x4, mu(x2, v)))),
            _define("corep-2", lambda x1, x2, x3, x4, v: (
                L3(mul(x1, x2), x3, x4, v) + L3(x2, x3, x4, mu(x1, v))
                + L3(x1, x3, x4, mu(x2, v)))),
            _define("corep-3", lambda x1, x2, x3, x4, v: (
                mu(leib3(x1, x2, x3, x4), v) - L3(x2, x3, x4, mu(x1, v))
                + mu(x1, L3(x2, x3, x4, v)))),
        ]
    }


REP_CONDITIONS: dict[str, Identity] = _registry()

_THREE_LIE = ("rho-skew", "kasymov-i", "kasymov-ii")

KIND_CONDITIONS: dict[RepKind, tuple[str, ...]] = {
    RepKind.COMM_ASSOC_REP: ("mu-mult",),
    RepKind.LIE_REP: ("rho-lie",),
    RepKind.THREE_LIE_REP: _THREE_LIE,
    RepKind.FMANIFOLD_REP: ("rho-lie", "mu-mult", "brep-1", "brep-2"),
    RepKind.TERNARY_FMANIFOLD_REP: _THREE_LIE + ("mu-mult", "rep-1", "rep-3", "rep-2"),
    RepKind.DUAL_CONDITIONS: ("corep-1", "corep-2", "corep-3"),
}


# ---------------------------------------------------------------------------
# checking


def _rep_layout(r: RepBundle, exact: bool):
    """r's action tensors for `_ops`, over its algebra's tables; with no action
    there is no module sort, and `_check_components` names what r lacks."""
    tensors = {"rho" if isinstance(r.rho, BiRep) else "rho1": r.rho and r.rho.tensor,
               "mu": r.mu and r.mu.tensor}
    action = r.rho or r.mu
    return {"V": action.module_dim} if action else {}, tensors, _ops(r.algebra, exact, _layout)


def _need_birep(r: RepBundle) -> BiRep:
    if not isinstance(r.rho, BiRep):
        raise MissingRep("this check needs rho as a pair action (BiRep)")
    return r.rho


def _need_mu(r: RepBundle) -> LinRep:
    if r.mu is None:
        raise MissingRep("this check needs mu")
    return r.mu


def _rep_conditions(kind: RepKind, r: RepBundle):
    """The kind's conditions on integer tables, each scanner built when the
    driver reaches it; raises first for any component they read r lacks."""
    conds = [REP_CONDITIONS[name] for name in KIND_CONDITIONS[kind]]
    _check_components(_ops(r, False, _rep_layout), conds, f"{kind.value} condition")
    return (_condition(cond, r, _rep_layout) for cond in conds)


def check_representation(kind, r: RepBundle, *, max_counterexamples: int = 1) -> CheckReport:
    """Verify all conditions of the representation kind on basis tuples x module basis."""
    kind = coerce_kind(kind, RepKind, "representation")
    return run_conditions(kind.value, _rep_conditions(kind, r), max_counterexamples)


# ---------------------------------------------------------------------------
# L maps as vector evaluators


def _l_map(r: RepBundle, name: str, args) -> Vec:
    return _eval_map(_ops(r, True, _rep_layout), _SUBMAPS[name], args)


def l1(r: RepBundle, x: Vec, y: Vec, z: Vec, u: Vec) -> Vec:
    """rho(x,y)mu(z)u - mu(z)rho(x,y)u - mu([x,y,z])u."""
    return _l_map(r, "L1", (x, y, z, u))


def l2(r: RepBundle, x: Vec, y: Vec, z: Vec, u: Vec) -> Vec:
    """mu(z)rho(x,y)u + mu(y)rho(x,z)u - rho(x, y*z)u."""
    return _l_map(r, "L2", (x, y, z, u))


def l3(r: RepBundle, x: Vec, y: Vec, z: Vec, u: Vec) -> Vec:
    """rho(x,y)mu(z)u + rho(x,z)mu(y)u - rho(x, y*z)u."""
    return _l_map(r, "L3", (x, y, z, u))


# ---------------------------------------------------------------------------
# constructions on representations


def adjoint_rep(a: AlgebraBundle) -> RepBundle:
    """rho(e_i,e_j) = [e_i, e_j, .], mu(e_i) = e_i * (.), acting on A itself."""
    if a.product is None:
        raise MissingTensor("product", "adjoint_rep")
    if a.bracket is None:
        raise MissingTensor("bracket", "adjoint_rep")
    n = a.dim
    return RepBundle(algebra=a, rho=BiRep.from_tensor(n, n, a.bracket),
                     mu=LinRep.from_tensor(n, n, a.product))


def _transpose(x, sign: int):
    """sign times the transpose of each matrix of the action x: its last
    two indices swapped."""
    if x is None:
        return None
    t = x.tensor
    return type(x).from_tensor(x.algebra_dim, x.module_dim, Tensor(
        t.dim, t.order, ((idx[:-2] + (idx[-1], idx[-2]), sign * v) for idx, v in t.nonzeros())))


def dual_rep(r: RepBundle) -> RepBundle:
    """Dual module action: rho* = -(rho)^T componentwise, mu-component = +(mu)^T.

    The mu-component is -mu* (double negation), so applying dual_rep twice
    recovers the original matrices exactly.
    """
    return RepBundle(algebra=r.algebra, rho=_transpose(r.rho, -1), mu=_transpose(r.mu, 1))


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
    rho, mu = _need_birep(r), _need_mu(r)
    n, m = a.dim, r.module_dim
    prod = list(a.product.nonzeros())
    for (i, j, k), v in mu.tensor.nonzeros():
        prod += [((i, n + j, n + k), v), ((n + j, i, n + k), v)]
    brk = list(a.bracket.nonzeros())
    for (i, j, k, l), v in rho.tensor.nonzeros():
        brk += [((i, j, n + k, n + l), v), ((i, n + k, j, n + l), -v), ((n + k, i, j, n + l), v)]
    labels = a.basis_labels + tuple(f"v{p + 1}" for p in range(m))
    return AlgebraBundle(n + m, product=Tensor(n + m, 3, prod), bracket=Tensor(n + m, 4, brk),
                         basis_labels=labels)


def fix_slot_rep(r: RepBundle, anchor: Vec) -> RepBundle:
    """rho_a(x) = rho(x, anchor) over the slot-fixed binary bundle: its
    constant at (i, q, p) is the sum over j of anchor_j rho[i, j, q, p]."""
    rho = _need_birep(r)
    mu = _need_mu(r)
    fixed = fix_slot_bracket(r.algebra, anchor)  # checks the anchor's dim
    rho_a = Tensor(rho.tensor.dim, 3, (((i, q, p), anchor[j] * v)
                                       for (i, j, q, p), v in rho.tensor.nonzeros() if anchor[j]))
    return RepBundle(algebra=fixed, rho=LinRep.from_tensor(rho.algebra_dim, rho.module_dim, rho_a),
                     mu=mu)


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
