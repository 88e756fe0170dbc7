"""Builders that derive new algebra bundles from old ones.

Each builder implements a closure statement (direct sum, tensor with a
commutative associative factor, slot-fixing, trace induction, symmetrisation,
sub-adjacent structures); the paired checker that certifies the claim lives
in `structures` and is exercised by the test suite on every catalog input.
The trace and induced conditions are data in `structures.CONDITIONS`,
written with tau: A -> k and the scalar multiplication smul: k A -> A on
their own sizes in a `structures._Maps(bundle, {name: tensor})`, whose one
size rule refuses a trace of the wrong size.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, NotATrace
from .linalg import Tensor, Value, Vec
from .structures import (
    AlgebraBundle,
    CheckReport,
    _check_components,
    _Maps,
    _require,
    _submap_tensor,
    run_conditions,
)


class TraceFunctional(Value):
    """A linear functional tau on a bundle's space, stored as its coefficient row."""

    row: Vec

    @property
    def dim(self) -> int:
        return self.row.dim

    def apply(self, v: Vec) -> Fraction:
        return self.row.dot(v)

    @staticmethod
    def zero(n: int) -> "TraceFunctional":
        return TraceFunctional(Vec.zero(n))

    @staticmethod
    def dual_of(n: int, i: int) -> "TraceFunctional":
        return TraceFunctional(Vec.basis(n, i))


def direct_sum(a: AlgebraBundle, b: AlgebraBundle) -> AlgebraBundle:
    """Componentwise product and bracket on A (+) B; mixed constants are zero."""
    for bundle in (a, b):
        _check_components(bundle, {"direct_sum": ("mul", "br3")})
    n = a.dim
    dim = n + b.dim

    def block_sum(s, t):
        return Tensor(dim, s.order, list(s.nonzeros()) + [
            (tuple(i + n for i in idx), v) for idx, v in t.nonzeros()])

    unit = None
    if a.unit is not None and b.unit is not None:
        unit = Vec(list(a.unit.entries) + list(b.unit.entries))
    return AlgebraBundle(
        dim,
        product=block_sum(a.product, b.product),
        bracket=block_sum(a.bracket, b.bracket),
        unit=unit,
        basis_labels=a.basis_labels + b.basis_labels,
    )


def tensor_with_comm_assoc(a: AlgebraBundle, b: AlgebraBundle) -> AlgebraBundle:
    """A (x) B for a ternary bundle A and a commutative associative factor B.

    Product: (x1 (x) y1)(x2 (x) y2) = (x1 x2) (x) (y1 y2).
    Bracket: [x1 (x) y1, x2 (x) y2, x3 (x) y3] = [x1,x2,x3] (x) (y1 y2 y3).
    Basis order is A-index major, recorded in the labels.
    """
    _check_components(a, {"tensor_with_comm_assoc (ternary factor)": ("mul", "br3")})
    _check_components(b, {"tensor_with_comm_assoc (associative factor)": ("mul",)})
    n, m = a.dim, b.dim
    dim = n * m
    # triple product table of B: e_p e_q e_r expanded as (pq)r
    sr = {(s, r): b.product.apply(b.basis(s), b.basis(r)) for s in range(m) for r in range(m)}
    triple = Tensor(m, 4, (((p, q, r, t), c * d) for (p, q, s), c in b.product.nonzeros()
                           for r in range(m) for t, d in enumerate(sr[s, r]) if d))

    def kron(x, y):
        return Tensor(dim, x.order, ((tuple(i * m + j for i, j in zip(u, w)), c * d)
                                     for u, c in x.nonzeros() for w, d in y.nonzeros()))

    labels = tuple(
        f"{la}(x){lb}" for la in a.basis_labels for lb in b.basis_labels
    )
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = Vec(
            [a.unit[i // m] * b.unit[i % m] for i in range(dim)]
        )
    return AlgebraBundle(
        dim,
        product=kron(a.product, b.product),
        bracket=kron(a.bracket, triple),
        unit=unit,
        basis_labels=labels,
    )


def fix_slot_bracket(a: AlgebraBundle, anchor: Vec) -> AlgebraBundle:
    """Binary bracket [x,y]_a = [x, anchor, y]; keeps the product."""
    _check_components(a, {"fix_slot_bracket": ("mul", "br3")})
    if anchor.dim != a.dim:
        raise DimensionMismatch(f"anchor has dim {anchor.dim}, bundle has dim {a.dim}")
    bb = Tensor(a.dim, 3, (((i, j, l), f * anchor[s])
                           for (i, s, j, l), f in a.bracket.nonzeros() if anchor[s]))
    return AlgebraBundle(
        a.dim,
        product=a.product,
        binary_bracket=bb,
        unit=a.unit,
        basis_labels=a.basis_labels,
    )


def _trace_maps(a: AlgebraBundle, tau: TraceFunctional) -> _Maps:
    n = a.dim
    return _Maps(a, {
        "smul": Tensor((1, n, n), (((0, i, i), 1) for i in range(n))),
        "tau": Tensor((tau.dim, 1), (((i, 0), v) for i, v in enumerate(tau.row) if v))})


def check_trace(a: AlgebraBundle, tau: TraceFunctional, *,
                max_counterexamples: int = 1) -> CheckReport:
    """Verify tau([e_i, e_j]) = 0 on all basis pairs of the binary bracket."""
    return run_conditions("trace", _trace_maps(a, tau), max_counterexamples)


def trace_induced(a: AlgebraBundle, tau: TraceFunctional) -> AlgebraBundle:
    """Ternary bracket [x1,x2,x3]_tau = tau(x1)[x2,x3] - tau(x2)[x1,x3] + tau(x3)[x1,x2].

    Refuses functionals that are not traces: the closure statement assumes
    tau kills the bracket image.
    """
    maps = _trace_maps(a, tau)
    _require(run_conditions("trace", maps, 1), NotATrace,
             "functional does not vanish on the bracket image")
    return AlgebraBundle(a.dim, product=a.product, bracket=maps.tensor("br3_tau"),
                         unit=a.unit, basis_labels=a.basis_labels)


def check_induced_condition(a: AlgebraBundle, tau: TraceFunctional, *,
                            max_counterexamples: int = 1) -> CheckReport:
    """Verify tau(x1 x2) L(x3,x4,x5) = tau(x2) x1 L(...) + tau(x1) x2 L(...)
    on all basis 5-tuples, with L the binary Leibnizator."""
    return run_conditions("induced-condition", _trace_maps(a, tau), max_counterexamples)


def symmetrize_zinbiel(d: AlgebraBundle) -> AlgebraBundle:
    """x*y = x<>y + y<>x: commutative associative when the input is Zinbiel."""
    return AlgebraBundle(d.dim, product=_submap_tensor(d, "symmul"),
                         basis_labels=d.basis_labels)


def subadjacent_commutator(s: AlgebraBundle) -> AlgebraBundle:
    """[x,y,z]^C = {x,y,z} + {y,z,x} + {z,x,y}: 3-Lie when the input is 3-pre-Lie."""
    return AlgebraBundle(s.dim, bracket=_submap_tensor(s, "cyc3"),
                         basis_labels=s.basis_labels)


def subadjacent_ternary_fmanifold(p: AlgebraBundle) -> AlgebraBundle:
    """Symmetrised product plus cyclic-sum bracket of a pre-structure bundle."""
    return AlgebraBundle(p.dim, product=_submap_tensor(p, "symmul"),
                         bracket=_submap_tensor(p, "cyc3"), basis_labels=p.basis_labels)
