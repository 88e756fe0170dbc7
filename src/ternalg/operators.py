"""Relative Rota-Baxter, Rota-Baxter, Nijenhuis and symplectic machinery.

Builders re-verify the operator identity they rely on (fail fast with the
failing report attached); they do not re-check ambient axioms, so perturbed
or raw bundles remain usable for negative tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import subadjacent_ternary_fmanifold
from .errors import (
    DimensionMismatch,
    MissingRep,
    MissingTensor,
    NotCoherent,
    NotCyclicCocycle,
    NotNijenhuis,
    NotRelativeRB,
    NotRotaBaxter,
    NotSkew,
    NotSymplectic,
)
from .linalg import InterMap, Matrix, Tensor, Vec, invert
from .representations import (
    BiRep,
    LinRep,
    RepBundle,
    adjoint_rep,
    check_coherence,
)
from .structures import AlgebraBundle, CheckReport, Condition, run_conditions


def _check_map_dims(t: InterMap, r: RepBundle, context: str):
    if t.src_dim != r.module_dim or t.dst_dim != r.algebra.dim:
        raise DimensionMismatch(
            f"{context}: map is {t.dst_dim}x{t.src_dim}, expected "
            f"{r.algebra.dim}x{r.module_dim}"
        )


def _images(t: InterMap, m: int) -> list[Vec]:
    return [t.matrix.column(p) for p in range(m)]


def _rb_comm(t: InterMap, r: RepBundle) -> Condition:
    """rb-comm, the condition of check_relative_rb_comm, after its preconditions."""
    a = r.algebra
    if a.product is None:
        raise MissingTensor("product", "check_relative_rb_comm")
    if r.mu is None:
        raise MissingRep("check_relative_rb_comm needs mu")
    _check_map_dims(t, r, "check_relative_rb_comm")
    m = r.module_dim
    timg = _images(t, m)
    mut = [r.mu.of(timg[p]) for p in range(m)]
    vbasis = [Vec.basis(m, p) for p in range(m)]

    def defect(idx):
        p, q = idx
        lhs = a.mul(timg[p], timg[q])
        rhs = t.apply(mut[p].apply(vbasis[q]) + mut[q].apply(vbasis[p]))
        return lhs - rhs

    return Condition("rb-comm", (m, m), defect)


def _rb_3lie(t: InterMap, r: RepBundle) -> Condition:
    """rb-3lie, the condition of check_relative_rb_3lie, after its preconditions."""
    a = r.algebra
    if a.bracket is None:
        raise MissingTensor("bracket", "check_relative_rb_3lie")
    if not isinstance(r.rho, BiRep):
        raise MissingRep("check_relative_rb_3lie needs rho as a pair action")
    _check_map_dims(t, r, "check_relative_rb_3lie")
    m = r.module_dim
    timg = _images(t, m)
    rhot = [[r.rho.of(timg[p], timg[q]) for q in range(m)] for p in range(m)]
    vbasis = [Vec.basis(m, p) for p in range(m)]

    def defect(idx):
        p, q, s = idx
        lhs = a.br3(timg[p], timg[q], timg[s])
        rhs = t.apply(
            rhot[p][q].apply(vbasis[s])
            + rhot[q][s].apply(vbasis[p])
            + rhot[s][p].apply(vbasis[q])
        )
        return lhs - rhs

    return Condition("rb-3lie", (m,) * 3, defect)


def check_relative_rb_comm(t: InterMap, r: RepBundle, *,
                           max_counterexamples: int = 1) -> CheckReport:
    """Tu * Tv = T(mu(Tu)v + mu(Tv)u) on all module basis pairs."""
    return run_conditions("relative-rb-comm", [_rb_comm(t, r)], max_counterexamples)


def check_relative_rb_3lie(t: InterMap, r: RepBundle, *,
                           max_counterexamples: int = 1) -> CheckReport:
    """[Tu,Tv,Tw] = T(rho(Tu,Tv)w + rho(Tv,Tw)u + rho(Tw,Tu)v) on basis triples."""
    return run_conditions("relative-rb-3lie", [_rb_3lie(t, r)], max_counterexamples)


def check_relative_rb(t: InterMap, r: RepBundle, *, max_counterexamples: int = 1) -> CheckReport:
    """Conjunction: relative Rota-Baxter for both the product and the bracket."""
    return run_conditions("relative-rb", [_rb_comm(t, r), _rb_3lie(t, r)], max_counterexamples)


# ---------------------------------------------------------------------------
# induced structures


def _module_labels(m: int) -> tuple[str, ...]:
    return tuple(f"v{p + 1}" for p in range(m))


def _induced_product(t: InterMap, r: RepBundle) -> Tensor:
    """u <> v = mu(Tu)v on the module."""
    timg = _images(t, r.module_dim)
    mut = [r.mu.of(x) for x in timg]
    return Tensor.from_images(r.module_dim, 3, lambda p, q: mut[p].column(q))


def _induced_bracket(t: InterMap, r: RepBundle) -> Tensor:
    """{u,v,w} = rho(Tu,Tv)w on the module."""
    timg = _images(t, r.module_dim)
    rhot = [[r.rho.of(x, y) for y in timg] for x in timg]
    return Tensor.from_images(r.module_dim, 4, lambda p, q, s: rhot[p][q].column(s))


def induced_zinbiel(t: InterMap, r: RepBundle) -> AlgebraBundle:
    """u <> v = mu(Tu)v on the module; Zinbiel when T is relative Rota-Baxter."""
    report = check_relative_rb_comm(t, r)
    if not report.passed:
        raise NotRelativeRB("map fails the commutative relative Rota-Baxter identity",
                            report)
    m = r.module_dim
    return AlgebraBundle(m, product=_induced_product(t, r), basis_labels=_module_labels(m))


def induced_3prelie(t: InterMap, r: RepBundle) -> AlgebraBundle:
    """{u,v,w} = rho(Tu,Tv)w on the module; 3-pre-Lie when T is relative Rota-Baxter."""
    report = check_relative_rb_3lie(t, r)
    if not report.passed:
        raise NotRelativeRB("map fails the 3-Lie relative Rota-Baxter identity", report)
    m = r.module_dim
    return AlgebraBundle(m, bracket=_induced_bracket(t, r), basis_labels=_module_labels(m))


def induced_pre_fmanifold(t: InterMap, r: RepBundle) -> AlgebraBundle:
    """Both induced tensors on the module: a ternary pre-F-manifold bundle."""
    report = check_relative_rb(t, r)
    if not report.passed:
        raise NotRelativeRB("map fails the relative Rota-Baxter identities", report)
    m = r.module_dim
    return AlgebraBundle(m, product=_induced_product(t, r), bracket=_induced_bracket(t, r),
                         basis_labels=_module_labels(m))


def rb_induced_pre(R: InterMap, a: AlgebraBundle) -> AlgebraBundle:
    """x <> y = R(x) y and {x,y,z} = [Rx, Ry, z] for a weight-zero Rota-Baxter R."""
    rep = adjoint_rep(a)
    report = check_relative_rb(R, rep)
    if not report.passed:
        raise NotRotaBaxter("map fails the Rota-Baxter identities on the adjoint action",
                            report)
    n = a.dim
    rimg = _images(R, n)
    basis = a.basis_vectors()
    prod = Tensor.from_images(n, 3, lambda i, j: a.mul(rimg[i], basis[j]))
    brk = Tensor.from_images(n, 4, lambda i, j, k: a.br3(rimg[i], rimg[j], basis[k]))
    return AlgebraBundle(n, product=prod, bracket=brk, basis_labels=a.basis_labels)


def invertible_rb_to_pre(t: InterMap, r: RepBundle) -> AlgebraBundle:
    """Pre-structure on A itself: x <> y = T(mu(x) T^-1 y), {x,y,z} = T(rho(x,y) T^-1 z).

    The sub-adjacent operations recover the ambient product and bracket exactly.
    """
    report = check_relative_rb(t, r)
    if not report.passed:
        raise NotRelativeRB("map fails the relative Rota-Baxter identities", report)
    tinv = invert(t.matrix)
    a = r.algebra
    n = a.dim
    rho, mu = r.rho, r.mu
    tinv_cols = [tinv.column(j) for j in range(n)]
    prod = Tensor.from_images(n, 3, lambda i, j: t.apply(mu.mats[i].apply(tinv_cols[j])))
    brk = Tensor.from_images(n, 4, lambda i, j, k: t.apply(rho.mats[i][j].apply(tinv_cols[k])))
    return AlgebraBundle(n, product=prod, bracket=brk, basis_labels=a.basis_labels)


# ---------------------------------------------------------------------------
# bilinear forms and the symplectic construction


@dataclass(frozen=True)
class BilinearForm:
    """An exact bilinear form B(x, y) = x^T M y on a bundle's space."""

    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise DimensionMismatch("bilinear form matrix must be square")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def is_skew(self) -> bool:
        m = self.matrix
        return all(
            m.entries[i][j] == -m.entries[j][i]
            for i in range(m.rows)
            for j in range(i, m.cols)
        )

    def value(self, x: Vec, y: Vec) -> Fraction:
        return x.dot(self.matrix.apply(y))

    def musical(self) -> Matrix:
        """Matrix of the map x -> B(x, .) into dual-basis coordinates."""
        return self.matrix.T


def _require_skew(b: BilinearForm, context: str):
    if not b.is_skew():
        raise NotSkew(f"{context}: bilinear form is not skew-symmetric")


def _form_condition(name: str, context: str, b: BilinearForm, a: AlgebraBundle,
                    arity: int, value) -> Condition:
    """The scalar condition value(idx) = 0 of a skew form; its residual is a 1-vector."""
    if b.dim != a.dim:
        raise DimensionMismatch(f"form has dim {b.dim}, bundle has dim {a.dim}")
    _require_skew(b, context)
    return Condition(name, (a.dim,) * arity, lambda idx: Vec([value(idx)]), scan=value)


def check_cyclic_2cocycle(b: BilinearForm, a: AlgebraBundle, *,
                          max_counterexamples: int = 1) -> CheckReport:
    """B(x y, z) + B(y z, x) + B(z x, y) = 0 on all basis triples."""
    if a.product is None:
        raise MissingTensor("product", "check_cyclic_2cocycle")
    basis = a.basis_vectors()

    def value(idx):
        i, j, k = idx
        return (
            b.value(a.mul(basis[i], basis[j]), basis[k])
            + b.value(a.mul(basis[j], basis[k]), basis[i])
            + b.value(a.mul(basis[k], basis[i]), basis[j])
        )

    cond = _form_condition("cocycle", "check_cyclic_2cocycle", b, a, 3, value)
    return run_conditions("cyclic-2cocycle", [cond], max_counterexamples)


def check_symplectic(b: BilinearForm, a: AlgebraBundle, *,
                     max_counterexamples: int = 1) -> CheckReport:
    """B([x,y,z],u) - B([x,y,u],z) + B([x,z,u],y) - B([y,z,u],x) = 0 on 4-tuples."""
    if a.bracket is None:
        raise MissingTensor("bracket", "check_symplectic")
    basis = a.basis_vectors()

    def value(idx):
        i, j, k, l = idx
        return (
            b.value(a.br3(basis[i], basis[j], basis[k]), basis[l])
            - b.value(a.br3(basis[i], basis[j], basis[l]), basis[k])
            + b.value(a.br3(basis[i], basis[k], basis[l]), basis[j])
            - b.value(a.br3(basis[j], basis[k], basis[l]), basis[i])
        )

    cond = _form_condition("symplectic", "check_symplectic", b, a, 4, value)
    return run_conditions("symplectic", [cond], max_counterexamples)


def symplectic_induced_pre(b: BilinearForm, a: AlgebraBundle) -> AlgebraBundle:
    """Pre-structure defined by B(x<>y, z) = B(y, x z) and B({x,y,z},u) = -B(z,[x,y,u]).

    Solved columnwise through the inverse musical map; requires a coherent
    bundle, a skew form passing both form checks, and an invertible musical map.
    """
    coh = check_coherence(a)
    if not coh.passed:
        raise NotCoherent("bundle fails the coherence identities", coh)
    _require_skew(b, "symplectic_induced_pre")
    c1 = check_cyclic_2cocycle(b, a)
    if not c1.passed:
        raise NotCyclicCocycle("form fails the cyclic 2-cocycle identity", c1)
    c2 = check_symplectic(b, a)
    if not c2.passed:
        raise NotSymplectic("form fails the symplectic identity", c2)
    sharp_inv = invert(b.musical())
    n = a.dim
    basis = a.basis_vectors()

    def diamond(i, j):
        g = Vec([b.value(basis[j], a.mul(basis[i], basis[k])) for k in range(n)])
        return sharp_inv.apply(g)

    def ternary(i, j, k):
        h = Vec([-b.value(basis[k], a.br3(basis[i], basis[j], basis[u])) for u in range(n)])
        return sharp_inv.apply(h)

    prod = Tensor.from_images(n, 3, diamond)
    brk = Tensor.from_images(n, 4, ternary)
    return AlgebraBundle(n, product=prod, bracket=brk, basis_labels=a.basis_labels)


# ---------------------------------------------------------------------------
# Nijenhuis operators and deformations


def _deformed(nop: InterMap, a: AlgebraBundle):
    """The images N e_i, and x *_N y and [x,y,z]_N at basis indices."""
    basis = a.basis_vectors()
    nimg = [nop.apply(e) for e in basis]

    def mul_n(i, j):
        return (a.mul(nimg[i], basis[j]) + a.mul(basis[i], nimg[j])
                - nop.apply(a.mul(basis[i], basis[j])))

    def br3_n(i, j, k):
        return (
            a.br3(nimg[i], nimg[j], basis[k])
            + a.br3(nimg[i], basis[j], nimg[k])
            + a.br3(basis[i], nimg[j], nimg[k])
            - nop.apply(
                a.br3(nimg[i], basis[j], basis[k])
                + a.br3(basis[i], nimg[j], basis[k])
                + a.br3(basis[i], basis[j], nimg[k])
            )
            + nop.apply(nop.apply(a.br3(basis[i], basis[j], basis[k])))
        )

    return nimg, mul_n, br3_n


def check_nijenhuis(nop: InterMap, a: AlgebraBundle, *,
                    max_counterexamples: int = 1) -> CheckReport:
    """Integrability of N for whichever of the product / ternary bracket exists."""
    if nop.src_dim != a.dim or nop.dst_dim != a.dim:
        raise DimensionMismatch(
            f"Nijenhuis candidate is {nop.dst_dim}x{nop.src_dim}, bundle has dim {a.dim}"
        )
    if a.product is None and a.bracket is None:
        raise MissingTensor("product", "check_nijenhuis")
    n = a.dim
    nimg, mul_n, br3_n = _deformed(nop, a)

    def defect2(idx):
        i, j = idx
        return a.mul(nimg[i], nimg[j]) - nop.apply(mul_n(i, j))

    def defect3(idx):
        i, j, k = idx
        return a.br3(nimg[i], nimg[j], nimg[k]) - nop.apply(br3_n(i, j, k))

    conditions = []
    if a.product is not None:
        conditions.append(Condition("nijenhuis-comm", (n, n), defect2))
    if a.bracket is not None:
        conditions.append(Condition("nijenhuis-3lie", (n,) * 3, defect3))
    return run_conditions("nijenhuis", conditions, max_counterexamples)


def deform(nop: InterMap, a: AlgebraBundle) -> AlgebraBundle:
    """Deformed structures x *_N y and [x,y,z]_N of a Nijenhuis operator."""
    report = check_nijenhuis(nop, a)
    if not report.passed:
        raise NotNijenhuis("map fails the Nijenhuis integrability conditions", report)
    _, mul_n, br3_n = _deformed(nop, a)
    prod = Tensor.from_images(a.dim, 3, mul_n) if a.product is not None else None
    brk = Tensor.from_images(a.dim, 4, br3_n) if a.bracket is not None else None
    return AlgebraBundle(a.dim, product=prod, bracket=brk, basis_labels=a.basis_labels)


def lift_nijenhuis(t: InterMap, r: RepBundle) -> InterMap:
    """Block operator (0 T; 0 0) on the semidirect space A (+) V; squares to zero."""
    _check_map_dims(t, r, "lift_nijenhuis")
    n = r.algebra.dim
    m = r.module_dim
    dim = n + m
    grid = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(n):
        for p in range(m):
            grid[i][n + p] = t.matrix.entries[i][p]
    return InterMap(Matrix(grid))


def induced_rep_on_A(t: InterMap, r: RepBundle) -> RepBundle:
    """Representation of the induced module algebra back on the ambient space.

    rho_T(u,v)x = [Tu,Tv,x] - T(rho(Tv,x)u + rho(x,Tu)v)
    mu_T(u)x    = Tu x - T(mu(x)u)
    """
    report = check_relative_rb(t, r)
    if not report.passed:
        raise NotRelativeRB("map fails the relative Rota-Baxter identities", report)
    a = r.algebra
    n, m = a.dim, r.module_dim
    timg = _images(t, m)
    basis = a.basis_vectors()
    vbasis = [Vec.basis(m, p) for p in range(m)]
    algebra_v = subadjacent_ternary_fmanifold(induced_pre_fmanifold(t, r))

    def mu_col(p, k):
        return a.mul(timg[p], basis[k]) - t.apply(r.mu.of(basis[k]).apply(vbasis[p]))

    def rho_col(p, q, k):
        return a.br3(timg[p], timg[q], basis[k]) - t.apply(
            r.rho.of(timg[q], basis[k]).apply(vbasis[p])
            + r.rho.of(basis[k], timg[p]).apply(vbasis[q])
        )

    mu = LinRep(
        n, tuple(Matrix.from_columns([mu_col(p, k) for k in range(n)]) for p in range(m))
    )
    rho = BiRep(
        n,
        tuple(
            tuple(
                Matrix.from_columns([rho_col(p, q, k) for k in range(n)])
                for q in range(m)
            )
            for p in range(m)
        ),
    )
    return RepBundle(algebra=algebra_v, rho=rho, mu=mu)
