"""Relative Rota-Baxter, Rota-Baxter, Nijenhuis and symplectic machinery.

Every condition here -- rb-comm, rb-3lie, cocycle, symplectic,
nijenhuis-comm and nijenhuis-3lie -- is data in `structures.CONDITIONS`,
written with the map T: V -> A, the operator N: A -> A or the form: A A -> k
beside the algebra's tensors and the actions, and scanned by the generated
integer loops like every identity.  A checker checks only the shapes of
the maps and forms it is handed (and a form's skewness): the tensors and
actions its conditions read are checked with them, by
`structures._check_components`.  The builders read the same registry's
sub-map tables (muT and rhoTT, the induced product and bracket; mu_T and
rho_T, the representation induced on A; mul_pre and br3_pre over T^-1, for
an invertible T and for the symplectic pre-structure, whose T is the
inverse musical map on the coadjoint representation; mul_N and br3_N, the
deformed ones), so each formula is written once.

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
    _rep_layout,
    adjoint_rep,
    check_coherence,
    dual_rep,
)
from .structures import (
    AlgebraBundle,
    CheckReport,
    _carried,
    _layout,
    _Maps,
    run_conditions,
)


def _check_map_dims(t: InterMap, r: RepBundle, context: str):
    """T: V -> A; with no action r has no module for T's columns to match."""
    m = r.module_dim if r.rho or r.mu else t.src_dim
    if t.src_dim != m or t.dst_dim != r.algebra.dim:
        raise DimensionMismatch(
            f"{context}: map is {t.dst_dim}x{t.src_dim}, expected {r.algebra.dim}x{m}"
        )


def _rb_maps(t: InterMap, r: RepBundle) -> _Maps:
    return _Maps(r, _rep_layout, {}, {"T": t.tensor})


def _check_rb(kind: str, names: tuple[str, ...], t: InterMap, r: RepBundle,
              max_counterexamples: int) -> CheckReport:
    """The named relative Rota-Baxter conditions, once T's shape is checked."""
    _check_map_dims(t, r, kind)
    return run_conditions(kind, _rb_maps(t, r).conditions(names), max_counterexamples)


def check_relative_rb_comm(t: InterMap, r: RepBundle, *,
                           max_counterexamples: int = 1) -> CheckReport:
    """Tu * Tv = T(mu(Tu)v + mu(Tv)u) on all module basis pairs."""
    return _check_rb("relative-rb-comm", ("rb-comm",), t, r, max_counterexamples)


def check_relative_rb_3lie(t: InterMap, r: RepBundle, *,
                           max_counterexamples: int = 1) -> CheckReport:
    """[Tu,Tv,Tw] = T(rho(Tu,Tv)w + rho(Tv,Tw)u + rho(Tw,Tu)v) on basis triples."""
    return _check_rb("relative-rb-3lie", ("rb-3lie",), t, r, max_counterexamples)


def check_relative_rb(t: InterMap, r: RepBundle, *, max_counterexamples: int = 1) -> CheckReport:
    """Conjunction: relative Rota-Baxter for both the product and the bracket."""
    return _check_rb("relative-rb", ("rb-comm", "rb-3lie"), t, r, max_counterexamples)


# ---------------------------------------------------------------------------
# induced structures


def _module_labels(m: int) -> tuple[str, ...]:
    return tuple(f"v{p + 1}" for p in range(m))


def induced_zinbiel(t: InterMap, r: RepBundle) -> AlgebraBundle:
    """u <> v = mu(Tu)v on the module; Zinbiel when T is relative Rota-Baxter."""
    report = check_relative_rb_comm(t, r)
    if not report.passed:
        raise NotRelativeRB("map fails the commutative relative Rota-Baxter identity",
                            report)
    m = r.module_dim
    return AlgebraBundle(m, product=_rb_maps(t, r).tensor("muT"), basis_labels=_module_labels(m))


def induced_3prelie(t: InterMap, r: RepBundle) -> AlgebraBundle:
    """{u,v,w} = rho(Tu,Tv)w on the module; 3-pre-Lie when T is relative Rota-Baxter."""
    report = check_relative_rb_3lie(t, r)
    if not report.passed:
        raise NotRelativeRB("map fails the 3-Lie relative Rota-Baxter identity", report)
    m = r.module_dim
    return AlgebraBundle(m, bracket=_rb_maps(t, r).tensor("rhoTT"),
                         basis_labels=_module_labels(m))


def induced_pre_fmanifold(t: InterMap, r: RepBundle) -> AlgebraBundle:
    """Both induced tensors on the module: a ternary pre-F-manifold bundle."""
    report = check_relative_rb(t, r)
    if not report.passed:
        raise NotRelativeRB("map fails the relative Rota-Baxter identities", report)
    m = r.module_dim
    maps = _rb_maps(t, r)
    return AlgebraBundle(m, product=maps.tensor("muT"), bracket=maps.tensor("rhoTT"),
                         basis_labels=_module_labels(m))


def rb_induced_pre(R: InterMap, a: AlgebraBundle) -> AlgebraBundle:
    """x <> y = R(x) y and {x,y,z} = [Rx, Ry, z] for a weight-zero Rota-Baxter R."""
    rep = adjoint_rep(a)
    report = check_relative_rb(R, rep)
    if not report.passed:
        raise NotRotaBaxter("map fails the Rota-Baxter identities on the adjoint action",
                            report)
    maps = _rb_maps(R, rep)
    return AlgebraBundle(a.dim, product=maps.tensor("mulT"), bracket=maps.tensor("br3TT"),
                         basis_labels=a.basis_labels)


def _pre_structure(t: InterMap, t_inv: InterMap, r: RepBundle) -> AlgebraBundle:
    """x <> y = T(mu(x) T^-1 y) and {x,y,z} = T(rho(x,y) T^-1 z) on A."""
    maps = _Maps(r, _rep_layout, {}, {"T": t.tensor, "Tinv": t_inv.tensor})
    return AlgebraBundle(r.algebra.dim, product=maps.tensor("mul_pre"),
                         bracket=maps.tensor("br3_pre"), basis_labels=r.algebra.basis_labels)


def invertible_rb_to_pre(t: InterMap, r: RepBundle) -> AlgebraBundle:
    """Pre-structure on A itself: x <> y = T(mu(x) T^-1 y), {x,y,z} = T(rho(x,y) T^-1 z).

    The sub-adjacent operations recover the ambient product and bracket exactly.
    """
    report = check_relative_rb(t, r)
    if not report.passed:
        raise NotRelativeRB("map fails the relative Rota-Baxter identities", report)
    return _pre_structure(t, InterMap(invert(t.matrix)), r)


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


def _check_form(kind: str, name: str, context: str, b: BilinearForm, a: AlgebraBundle,
                max_counterexamples: int) -> CheckReport:
    """The scalar condition `name` of a skew form; its residual is a 1-vector."""
    if b.dim != a.dim:
        raise DimensionMismatch(f"form has dim {b.dim}, bundle has dim {a.dim}")
    _require_skew(b, context)
    form = Tensor(a.dim, 3, (((i, j, 0), v) for (i, j), v in b.matrix.nonzeros()))
    return run_conditions(kind, _Maps(a, _layout, {}, {"form": form}).conditions([name]),
                          max_counterexamples)


def check_cyclic_2cocycle(b: BilinearForm, a: AlgebraBundle, *,
                          max_counterexamples: int = 1) -> CheckReport:
    """B(x y, z) + B(y z, x) + B(z x, y) = 0 on all basis triples."""
    return _check_form("cyclic-2cocycle", "cocycle", "check_cyclic_2cocycle", b, a,
                       max_counterexamples)


def check_symplectic(b: BilinearForm, a: AlgebraBundle, *,
                     max_counterexamples: int = 1) -> CheckReport:
    """B([x,y,z],u) - B([x,y,u],z) + B([x,z,u],y) - B([y,z,u],x) = 0 on 4-tuples."""
    return _check_form("symplectic", "symplectic", "check_symplectic", b, a,
                       max_counterexamples)


def symplectic_induced_pre(b: BilinearForm, a: AlgebraBundle) -> AlgebraBundle:
    """Pre-structure defined by B(x<>y, z) = B(y, x z) and B({x,y,z},u) = -B(z,[x,y,u]).

    It is the pre-structure of the invertible relative Rota-Baxter operator
    T = (B flat)^-1 on the coadjoint representation; requires a coherent
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
    flat = b.musical()
    return _pre_structure(InterMap(invert(flat)), InterMap(flat), dual_rep(adjoint_rep(a)))


# ---------------------------------------------------------------------------
# Nijenhuis operators and deformations


def _nijenhuis_maps(nop: InterMap, a: AlgebraBundle) -> _Maps:
    return _Maps(a, _layout, {}, {"N": nop.tensor})


def check_nijenhuis(nop: InterMap, a: AlgebraBundle, *,
                    max_counterexamples: int = 1) -> CheckReport:
    """Integrability of N for whichever of the product / ternary bracket exists."""
    if nop.src_dim != a.dim or nop.dst_dim != a.dim:
        raise DimensionMismatch(
            f"Nijenhuis candidate is {nop.dst_dim}x{nop.src_dim}, bundle has dim {a.dim}"
        )
    names = _carried(a, ("nijenhuis-comm", "nijenhuis-3lie"))
    return run_conditions("nijenhuis", _nijenhuis_maps(nop, a).conditions(names),
                          max_counterexamples)


def deform(nop: InterMap, a: AlgebraBundle) -> AlgebraBundle:
    """Deformed structures x *_N y and [x,y,z]_N of a Nijenhuis operator."""
    report = check_nijenhuis(nop, a)
    if not report.passed:
        raise NotNijenhuis("map fails the Nijenhuis integrability conditions", report)
    maps = _nijenhuis_maps(nop, a)
    prod = maps.tensor("mul_N") if a.product is not None else None
    brk = maps.tensor("br3_N") if a.bracket is not None else None
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
    n, m = r.algebra.dim, r.module_dim
    maps = _rb_maps(t, r)
    return RepBundle(algebra=subadjacent_ternary_fmanifold(induced_pre_fmanifold(t, r)),
                     rho=BiRep.from_tensor(m, n, maps.tensor("rho_T")),
                     mu=LinRep.from_tensor(m, n, maps.tensor("mu_T")))
