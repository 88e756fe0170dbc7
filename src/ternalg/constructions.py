"""Builders that derive new algebra bundles from old ones.

Each builder implements a closure statement (direct sum, tensor with a
commutative associative factor, slot-fixing, trace induction, symmetrisation,
sub-adjacent structures); the paired checker that certifies the claim lives
in `structures` and is exercised by the test suite on every catalog input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, MissingTensor, NotATrace
from .linalg import Tensor3, Tensor4, Vec
from .structures import AlgebraBundle, CheckReport, Condition, run_conditions


@dataclass(frozen=True)
class TraceFunctional:
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
        if bundle.product is None:
            raise MissingTensor("product", "direct_sum")
        if bundle.bracket is None:
            raise MissingTensor("bracket", "direct_sum")
    n, m = a.dim, b.dim
    dim = n + m

    def prod(i, j, k):
        if i < n and j < n and k < n:
            return a.product.entries[i][j][k]
        if i >= n and j >= n and k >= n:
            return b.product.entries[i - n][j - n][k - n]
        return 0

    def brk(i, j, k, l):
        if i < n and j < n and k < n and l < n:
            return a.bracket.entries[i][j][k][l]
        if i >= n and j >= n and k >= n and l >= n:
            return b.bracket.entries[i - n][j - n][k - n][l - n]
        return 0

    unit = None
    if a.unit is not None and b.unit is not None:
        unit = Vec(list(a.unit.entries) + list(b.unit.entries))
    return AlgebraBundle(
        dim,
        product=Tensor3.build(dim, prod),
        bracket=Tensor4.build(dim, brk),
        unit=unit,
        basis_labels=a.basis_labels + b.basis_labels,
    )


def tensor_with_comm_assoc(a: AlgebraBundle, b: AlgebraBundle) -> AlgebraBundle:
    """A (x) B for a ternary bundle A and a commutative associative factor B.

    Product: (x1 (x) y1)(x2 (x) y2) = (x1 x2) (x) (y1 y2).
    Bracket: [x1 (x) y1, x2 (x) y2, x3 (x) y3] = [x1,x2,x3] (x) (y1 y2 y3).
    Basis order is A-index major, recorded in the labels.
    """
    if a.product is None or a.bracket is None:
        raise MissingTensor("product" if a.product is None else "bracket",
                            "tensor_with_comm_assoc (ternary factor)")
    if b.product is None:
        raise MissingTensor("product", "tensor_with_comm_assoc (associative factor)")
    n, m = a.dim, b.dim
    dim = n * m
    pa, pb = a.product.entries, b.product.entries
    fa = a.bracket.entries

    # triple product table of B: e_p e_q e_r expanded as (pq)r
    triple = [[[None] * m for _ in range(m)] for _ in range(m)]
    for p in range(m):
        for q in range(m):
            for r in range(m):
                out = [Fraction(0)] * m
                for s, c in enumerate(pb[p][q]):
                    if c:
                        for t_, d in enumerate(pb[s][r]):
                            if d:
                                out[t_] += c * d
                triple[p][q][r] = out

    def prod(i, j, k):
        ia, ib = divmod(i, m)
        ja, jb = divmod(j, m)
        ka, kb = divmod(k, m)
        return pa[ia][ja][ka] * pb[ib][jb][kb]

    def brk(i, j, k, l):
        ia, ib = divmod(i, m)
        ja, jb = divmod(j, m)
        ka, kb = divmod(k, m)
        la, lb = divmod(l, m)
        return fa[ia][ja][ka][la] * triple[ib][jb][kb][lb]

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
        product=Tensor3.build(dim, prod),
        bracket=Tensor4.build(dim, brk),
        unit=unit,
        basis_labels=labels,
    )


def fix_slot_bracket(a: AlgebraBundle, anchor: Vec) -> AlgebraBundle:
    """Binary bracket [x,y]_a = [x, anchor, y]; keeps the product."""
    if a.product is None:
        raise MissingTensor("product", "fix_slot_bracket")
    if a.bracket is None:
        raise MissingTensor("bracket", "fix_slot_bracket")
    if anchor.dim != a.dim:
        raise DimensionMismatch(f"anchor has dim {anchor.dim}, bundle has dim {a.dim}")
    n = a.dim
    cols = [
        [a.br3(a.basis(i), anchor, a.basis(j)) for j in range(n)] for i in range(n)
    ]
    bb = Tensor3.build(n, lambda i, j, k: cols[i][j][k])
    return AlgebraBundle(
        n,
        product=a.product,
        binary_bracket=bb,
        unit=a.unit,
        basis_labels=a.basis_labels,
    )


def check_trace(a: AlgebraBundle, tau: TraceFunctional, *,
                max_counterexamples: int = 1) -> CheckReport:
    """Verify tau([e_i, e_j]) = 0 on all basis pairs of the binary bracket."""
    if a.binary_bracket is None:
        raise MissingTensor("binary_bracket", "check_trace")
    if tau.dim != a.dim:
        raise DimensionMismatch(f"trace has dim {tau.dim}, bundle has dim {a.dim}")

    def value(t):
        return tau.apply(a.br2(a.basis(t[0]), a.basis(t[1])))

    cond = Condition("trace", a.dim, 2, lambda t: Vec([value(t)]), scan=value)
    return run_conditions("trace", [cond], max_counterexamples)


def trace_induced(a: AlgebraBundle, tau: TraceFunctional) -> AlgebraBundle:
    """Ternary bracket [x1,x2,x3]_tau = tau(x1)[x2,x3] - tau(x2)[x1,x3] + tau(x3)[x1,x2].

    Refuses functionals that are not traces: the closure statement assumes
    tau kills the bracket image.
    """
    report = check_trace(a, tau)
    if not report.passed:
        raise NotATrace("functional does not vanish on the bracket image", report)
    n = a.dim
    t = [tau.apply(a.basis(i)) for i in range(n)]
    bb = a.binary_bracket.entries

    def brk(i, j, k, l):
        return t[i] * bb[j][k][l] - t[j] * bb[i][k][l] + t[k] * bb[i][j][l]

    return AlgebraBundle(
        n,
        product=a.product,
        bracket=Tensor4.build(n, brk),
        unit=a.unit,
        basis_labels=a.basis_labels,
    )


def check_induced_condition(a: AlgebraBundle, tau: TraceFunctional, *,
                            max_counterexamples: int = 1) -> CheckReport:
    """Verify tau(x1 x2) L(x3,x4,x5) = tau(x2) x1 L(...) + tau(x1) x2 L(...)
    on all basis 5-tuples, with L the binary Leibnizator."""
    if a.product is None:
        raise MissingTensor("product", "check_induced_condition")
    if a.binary_bracket is None:
        raise MissingTensor("binary_bracket", "check_induced_condition")
    if tau.dim != a.dim:
        raise DimensionMismatch(f"trace has dim {tau.dim}, bundle has dim {a.dim}")
    from .structures import leibnizator2

    n = a.dim
    basis = [a.basis(i) for i in range(n)]
    t = [tau.apply(e) for e in basis]
    ltab = [
        [[leibnizator2(a, basis[i], basis[j], basis[k]) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]

    def defect(t5):
        i, j, k, l, m = t5
        lv = ltab[k][l][m]
        d = lv.scale(tau.apply(a.mul(basis[i], basis[j])))
        d = d - a.mul(basis[i], lv).scale(t[j]) - a.mul(basis[j], lv).scale(t[i])
        return d

    cond = Condition("induced-condition", n, 5, defect)
    return run_conditions("induced-condition", [cond], max_counterexamples)


def symmetrize_zinbiel(d: AlgebraBundle) -> AlgebraBundle:
    """x*y = x<>y + y<>x: commutative associative when the input is Zinbiel."""
    if d.product is None:
        raise MissingTensor("product", "symmetrize_zinbiel")
    c = d.product.entries
    sym = Tensor3.build(d.dim, lambda i, j, k: c[i][j][k] + c[j][i][k])
    return AlgebraBundle(d.dim, product=sym, basis_labels=d.basis_labels)


def subadjacent_commutator(s: AlgebraBundle) -> AlgebraBundle:
    """[x,y,z]^C = {x,y,z} + {y,z,x} + {z,x,y}: 3-Lie when the input is 3-pre-Lie."""
    if s.bracket is None:
        raise MissingTensor("bracket", "subadjacent_commutator")
    f = s.bracket.entries
    cyc = Tensor4.build(
        s.dim, lambda i, j, k, l: f[i][j][k][l] + f[j][k][i][l] + f[k][i][j][l]
    )
    return AlgebraBundle(s.dim, bracket=cyc, basis_labels=s.basis_labels)


def subadjacent_ternary_fmanifold(p: AlgebraBundle) -> AlgebraBundle:
    """Symmetrised product plus cyclic-sum bracket of a pre-structure bundle."""
    if p.product is None or p.bracket is None:
        raise MissingTensor("product" if p.product is None else "bracket",
                            "subadjacent_ternary_fmanifold")
    c = p.product.entries
    f = p.bracket.entries
    sym = Tensor3.build(p.dim, lambda i, j, k: c[i][j][k] + c[j][i][k])
    cyc = Tensor4.build(
        p.dim, lambda i, j, k, l: f[i][j][k][l] + f[j][k][i][l] + f[k][i][j][l]
    )
    return AlgebraBundle(p.dim, product=sym, bracket=cyc, basis_labels=p.basis_labels)
