"""Representations of the algebra kinds, their checkers, duals and semidirect products.

A representation pairs a module action mu with a bracket action rho (of a
basis pair for ternary brackets, of a basis vector for binary ones).  Each
is stored once as a sparse `Tensor` of shape (n, [n,] m, m), like the
algebra's own: the constant at (i, [j,] q, p) is row p, column q of the
matrix of e_i [, e_j].  `BiRep(tensor)` and `LinRep(tensor)` are the one
constructor, and `structures._sort_sizes` sizes the tensor by its
operation's signature (rho: A A V -> V, mu: A V -> V).  So `adjoint_rep`
stores the algebra's bracket and product themselves, and `dual_rep` swaps
the last two indices.  All checks quantify over algebra basis tuples and
module basis vectors; the defect for a counterexample is the corresponding
column of the failing matrix identity.

Every condition is data in the term language of `structures`: a map with
algebra slots (A) first and the module slot (V) last, built from `rho`:
A A V -> V (`rho1`: A V -> V for a `LinRep`), `mu`: A V -> V and the
algebra's tensors.  Its value at (t, e_p) is column p of the matrix identity
at the algebra tuple t, ranked rank(t) * m + p.  `_registry` defines L1, L2,
L3 and their binary forms as sub-maps, and each condition, once, and this
module adds the conditions to `structures._MAPS`, where the scan driver
finds the names `structures.KINDS` lists for each kind, in scan order.  A
`RepBundle` states its components once (`RepBundle._components`), which
give the module's size by their shapes, and a builder names the ones it
reads to `structures._check_components`: `structures._sort_sizes` refuses
a mis-sized one, and no guard for a missing one is written here.

The scans run on integer tables: rho and mu each times the lcm of its own
denominators, next to the algebra's own integer tables and sub-map tables,
which a representation shares with its algebra.  A condition need not be
homogeneous in its tensors (L1 mixes rho with the bracket): each term's
coefficient carries the multiplier that brings it to the condition's
common scale L (`structures._multipliers`), so every scanned column is L
times the exact one.  Flagged entries are recomputed by the exact term
walker, from each tensor's own constants, which cross-checks the scan.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .constructions import fix_slot_bracket, subadjacent_ternary_fmanifold
from .errors import MissingRep
from .linalg import ZERO, Matrix, Tensor, Value, Vec
from .structures import (
    _MAPS,
    _SUBMAPS,
    AlgebraBundle,
    CheckReport,
    Identity,
    StructureKind,
    _check_components,
    _define,
    _eval_map,
    _op,
    _sort_sizes,
    _submap,
    check_axioms,
    coerce_kind,
    run_conditions,
)


class _Action(Value):
    """An action of the algebra on a module, stored once as a sparse `Tensor`
    of shape (algebra_dim, [algebra_dim,] module_dim, module_dim), from which
    both dims are read: its constant at (i, [j,] q, p) is row p, column q of
    the matrix of e_i [, e_j], so that the action sends e_q to the sum over
    p.  `Cls(tensor)` is the one constructor: it refuses anything but a
    `Tensor` and sizes it by its operation's signature (`op`), so a tensor
    of another order, or whose algebra or module slots differ, raises
    DimensionMismatch.  `mats` is a dense view built on each access."""

    tensor: Tensor

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.tensor, Tensor):
            raise TypeError(f"{type(self).__name__} takes a Tensor, "
                            f"not {type(self.tensor).__name__}")
        _sort_sizes(type(self).__name__, {self.op: self.tensor}, {"k": 1})

    @classmethod
    def zero(cls, n: int, module_dim: int):
        return cls(Tensor((n,) * (cls.order - 2) + (module_dim, module_dim), ()))

    algebra_dim = property(lambda self: self.tensor.shape[0])
    module_dim = property(lambda self: self.tensor.shape[-1])

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

    op, order = "mu", 3


class BiRep(_Action):
    """rho: A x A -> End(V): an order-4 tensor; `mats[i][j]` = rho(e_i, e_j)
    has row p, column q the constant at (i, j, q, p).  Skewness in (i, j) is
    intended and validated by the checkers, never enforced."""

    op, order = "rho", 4


class RepBundle(Value, eq=False):
    """An algebra bundle together with optional rho / mu actions on one module."""

    algebra: AlgebraBundle
    rho: Optional[object] = None  # BiRep for ternary kinds, LinRep for binary kinds
    mu: Optional[LinRep] = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.rho is not None and not isinstance(self.rho, (BiRep, LinRep)):
            raise TypeError("rho must be a BiRep or LinRep")
        if self.mu is not None and not isinstance(self.mu, LinRep):
            raise TypeError("mu must be a LinRep")
        _sort_sizes("RepBundle", self._components()[0], {"k": 1, "A": self.algebra.dim})

    @property
    def module_dim(self) -> int:
        if self.rho is not None:
            return self.rho.module_dim
        if self.mu is not None:
            return self.mu.module_dim
        raise MissingRep("representation bundle carries neither rho nor mu")

    def _components(self):
        """The action tensors and the algebra, for `structures._ops`."""
        return {"rho" if isinstance(self.rho, BiRep) else "rho1": self.rho and self.rho.tensor,
                "mu": self.mu and self.mu.tensor}, self.algebra


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
_MAPS.update(REP_CONDITIONS)  # the maps the representation kinds of `KINDS` name


# ---------------------------------------------------------------------------
# checking


def check_representation(kind, r: RepBundle, *, max_counterexamples: int = 1) -> CheckReport:
    """Verify all conditions of the representation kind on basis tuples x module basis."""
    kind = coerce_kind(kind, RepKind, "representation")
    return run_conditions(kind.value, r, max_counterexamples)


# ---------------------------------------------------------------------------
# L maps as vector evaluators


def _l_map(r: RepBundle, name: str, args) -> Vec:
    return _eval_map(r, _SUBMAPS[name], args)


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
    _check_components(a, {"adjoint_rep": ("mul", "br3")})
    return RepBundle(algebra=a, rho=BiRep(a.bracket), mu=LinRep(a.product))


def _transpose(x, sign: int):
    """sign times the transpose of each matrix of the action x: its last
    two indices swapped."""
    if x is None:
        return None
    t = x.tensor
    return type(x)(Tensor(t.shape, (
        (idx[:-2] + (idx[-1], idx[-2]), sign * v) for idx, v in t.nonzeros())))


def dual_rep(r: RepBundle) -> RepBundle:
    """Dual module action: rho* = -(rho)^T componentwise, mu-component = +(mu)^T.

    The mu-component is -mu* (double negation), so applying dual_rep twice
    recovers the original matrices exactly.
    """
    return RepBundle(algebra=r.algebra, rho=_transpose(r.rho, -1), mu=_transpose(r.mu, 1))


def check_coherence(a: AlgebraBundle, *, max_counterexamples: int = 1) -> CheckReport:
    """Ternary F-manifold identities plus the three coherence identities:
    `check_axioms` of `StructureKind.COHERENCE`."""
    return check_axioms(StructureKind.COHERENCE, a, max_counterexamples=max_counterexamples)


def _module_labels(m: int) -> tuple[str, ...]:
    return tuple(f"v{p + 1}" for p in range(m))


def semidirect(r: RepBundle) -> AlgebraBundle:
    """Semidirect product bundle on A (+) V.

    (x1+v1)(x2+v2) = x1 x2 + mu(x1)v2 + mu(x2)v1
    [x1+v1, x2+v2, x3+v3] = [x1,x2,x3] + rho(x1,x2)v3 - rho(x1,x3)v2 + rho(x2,x3)v1
    """
    _check_components(r, {"semidirect": ("mul", "br3", "rho", "mu")})
    a = r.algebra
    n, m = a.dim, r.module_dim
    prod = list(a.product.nonzeros())
    for (i, j, k), v in r.mu.tensor.nonzeros():
        prod += [((i, n + j, n + k), v), ((n + j, i, n + k), v)]
    brk = list(a.bracket.nonzeros())
    for (i, j, k, l), v in r.rho.tensor.nonzeros():
        brk += [((i, j, n + k, n + l), v), ((i, n + k, j, n + l), -v), ((n + k, i, j, n + l), v)]
    return AlgebraBundle(n + m, product=Tensor(n + m, 3, prod), bracket=Tensor(n + m, 4, brk),
                         basis_labels=a.basis_labels + _module_labels(m))


def fix_slot_rep(r: RepBundle, anchor: Vec) -> RepBundle:
    """rho_a(x) = rho(x, anchor) over the slot-fixed binary bundle: its
    constant at (i, q, p) is the sum over j of anchor_j rho[i, j, q, p]."""
    _check_components(r, {"fix_slot_rep": ("mul", "br3", "rho", "mu")})
    fixed = fix_slot_bracket(r.algebra, anchor)  # checks the anchor's dim
    n, _, m, _ = r.rho.tensor.shape
    rho_a = Tensor((n, m, m), (((i, q, p), anchor[j] * v)
                               for (i, j, q, p), v in r.rho.tensor.nonzeros() if anchor[j]))
    return RepBundle(algebra=fixed, rho=LinRep(rho_a), mu=r.mu)


def rep_of_subadjacent(p: AlgebraBundle) -> RepBundle:
    """(A; L-bracket, L-product) over the sub-adjacent bundle of a pre-structure.

    rho(e_i,e_j) has columns {e_i, e_j, e_k}; mu(e_i) has columns e_i <> e_k:
    the matrices of the adjoint action of p itself.
    """
    _check_components(p, {"rep_of_subadjacent": ("mul", "br3")})
    adj = adjoint_rep(p)
    return RepBundle(algebra=subadjacent_ternary_fmanifold(p), rho=adj.rho, mu=adj.mu)
