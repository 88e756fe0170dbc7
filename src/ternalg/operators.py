"""Relative Rota-Baxter, Rota-Baxter, Nijenhuis and symplectic machinery.

Every condition here -- rb-comm, rb-3lie, cocycle, symplectic,
nijenhuis-comm and nijenhuis-3lie -- is data in `structures.CONDITIONS`,
written with the map T: V -> A, the operator N: A -> A or the form: A A -> k
beside the algebra's tensors and the actions, and scanned by the generated
integer loops like every identity.  Its owner is `structures._Maps(base,
{name: tensor})` over the bundle or representation, each tensor on its own
size, and `structures._check_components` refuses a map or form of the wrong
size (`_form_maps` checks a form's skewness first).  A checker makes one
call, `run_conditions(kind, owner, k)`, on that owner: `structures.KINDS`
names each kind's conditions, and over a bundle the driver scans the
Nijenhuis conditions of the tensors it carries.  A builder makes the owner
once, requires its precondition's report there (`structures._require`) and reads
the registry's sub-map tables from it (muT and rhoTT, the induced product
and bracket; mu_T and rho_T, the representation induced on A; mul_N and
br3_N, the deformed ones), so each table is built once and each formula
written once.  Only mul_pre and br3_pre, over T and T^-1 (an invertible T,
or the inverse musical map of a symplectic form on the coadjoint
representation), get a second owner: the inverse is computed only after the
check passes.  Builders do not re-check ambient axioms, so perturbed or raw
bundles remain usable for negative tests.
"""

from __future__ import annotations

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
from .linalg import InterMap, Matrix, Tensor, Value, Vec, invert
from .representations import (
    BiRep,
    LinRep,
    RepBundle,
    _module_labels,
    adjoint_rep,
    check_coherence,
    dual_rep,
)
from .structures import (
    AlgebraBundle,
    CheckReport,
    _check_components,
    _Maps,
    _require,
    run_conditions,
)


def check_relative_rb_comm(t: InterMap, r: RepBundle, *,
                           max_counterexamples: int = 1) -> CheckReport:
    """Tu * Tv = T(mu(Tu)v + mu(Tv)u) on all module basis pairs."""
    return run_conditions("relative-rb-comm", _Maps(r, {"T": t.tensor}), max_counterexamples)


def check_relative_rb_3lie(t: InterMap, r: RepBundle, *,
                           max_counterexamples: int = 1) -> CheckReport:
    """[Tu,Tv,Tw] = T(rho(Tu,Tv)w + rho(Tv,Tw)u + rho(Tw,Tu)v) on basis triples."""
    return run_conditions("relative-rb-3lie", _Maps(r, {"T": t.tensor}), max_counterexamples)


def check_relative_rb(t: InterMap, r: RepBundle, *, max_counterexamples: int = 1) -> CheckReport:
    """Conjunction: relative Rota-Baxter for both the product and the bracket."""
    return run_conditions("relative-rb", _Maps(r, {"T": t.tensor}), max_counterexamples)


# ---------------------------------------------------------------------------
# induced structures


def _checked_rb_maps(t: InterMap, r: RepBundle, kind: str = "relative-rb",
                     error=NotRelativeRB,
                     message: str = "map fails the relative Rota-Baxter identities") -> _Maps:
    """T's owner over r, once T passes the conditions of `kind`; else
    error(message, report)."""
    maps = _Maps(r, {"T": t.tensor})
    _require(run_conditions(kind, maps, 1), error, message)
    return maps


def _on_module(maps: _Maps, product: str | None = None,
               bracket: str | None = None) -> AlgebraBundle:
    """The bundle on maps' module whose product and bracket are the named sub-maps."""
    m = maps.base.module_dim
    return AlgebraBundle(m, product=product and maps.tensor(product),
                         bracket=bracket and maps.tensor(bracket), basis_labels=_module_labels(m))


def induced_zinbiel(t: InterMap, r: RepBundle) -> AlgebraBundle:
    """u <> v = mu(Tu)v on the module; Zinbiel when T is relative Rota-Baxter."""
    return _on_module(_checked_rb_maps(
        t, r, "relative-rb-comm",
        message="map fails the commutative relative Rota-Baxter identity"), product="muT")


def induced_3prelie(t: InterMap, r: RepBundle) -> AlgebraBundle:
    """{u,v,w} = rho(Tu,Tv)w on the module; 3-pre-Lie when T is relative Rota-Baxter."""
    return _on_module(_checked_rb_maps(
        t, r, "relative-rb-3lie",
        message="map fails the 3-Lie relative Rota-Baxter identity"), bracket="rhoTT")


def induced_pre_fmanifold(t: InterMap, r: RepBundle) -> AlgebraBundle:
    """Both induced tensors on the module: a ternary pre-F-manifold bundle."""
    return _on_module(_checked_rb_maps(t, r), "muT", "rhoTT")


def rb_induced_pre(R: InterMap, a: AlgebraBundle) -> AlgebraBundle:
    """x <> y = R(x) y and {x,y,z} = [Rx, Ry, z] for a weight-zero Rota-Baxter R."""
    maps = _checked_rb_maps(R, adjoint_rep(a), error=NotRotaBaxter,
                            message="map fails the Rota-Baxter identities on the adjoint action")
    return AlgebraBundle(a.dim, product=maps.tensor("mulT"), bracket=maps.tensor("br3TT"),
                         basis_labels=a.basis_labels)


def _pre_structure(t: InterMap, t_inv: InterMap, r: RepBundle) -> AlgebraBundle:
    """x <> y = T(mu(x) T^-1 y) and {x,y,z} = T(rho(x,y) T^-1 z) on A."""
    maps = _Maps(r, {"T": t.tensor, "Tinv": t_inv.tensor})
    return AlgebraBundle(r.algebra.dim, product=maps.tensor("mul_pre"),
                         bracket=maps.tensor("br3_pre"), basis_labels=r.algebra.basis_labels)


def invertible_rb_to_pre(t: InterMap, r: RepBundle) -> AlgebraBundle:
    """Pre-structure on A itself: x <> y = T(mu(x) T^-1 y), {x,y,z} = T(rho(x,y) T^-1 z).

    The sub-adjacent operations recover the ambient product and bracket exactly.
    """
    _checked_rb_maps(t, r)
    return _pre_structure(t, InterMap(invert(t.matrix)), r)


# ---------------------------------------------------------------------------
# bilinear forms and the symplectic construction


class BilinearForm(Value):
    """An exact bilinear form B(x, y) = x^T M y on a bundle's space."""

    matrix: Matrix

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
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


def _form_maps(b: BilinearForm, a: AlgebraBundle, context: str) -> _Maps:
    """The owner of a skew form b: A A -> k over a, once b's skewness is checked."""
    if not b.is_skew():
        raise NotSkew(f"{context}: bilinear form is not skew-symmetric")
    form = Tensor((b.dim, b.dim, 1), (((i, j, 0), v) for (i, j), v in b.matrix.nonzeros()))
    return _Maps(a, {"form": form})


def check_cyclic_2cocycle(b: BilinearForm, a: AlgebraBundle, *,
                          max_counterexamples: int = 1) -> CheckReport:
    """B(x y, z) + B(y z, x) + B(z x, y) = 0 on all basis triples."""
    return run_conditions("cyclic-2cocycle", _form_maps(b, a, "check_cyclic_2cocycle"),
                          max_counterexamples)


def check_symplectic(b: BilinearForm, a: AlgebraBundle, *,
                     max_counterexamples: int = 1) -> CheckReport:
    """B([x,y,z],u) - B([x,y,u],z) + B([x,z,u],y) - B([y,z,u],x) = 0 on 4-tuples."""
    return run_conditions("symplectic", _form_maps(b, a, "check_symplectic"),
                          max_counterexamples)


def symplectic_induced_pre(b: BilinearForm, a: AlgebraBundle) -> AlgebraBundle:
    """Pre-structure defined by B(x<>y, z) = B(y, x z) and B({x,y,z},u) = -B(z,[x,y,u]).

    It is the pre-structure of the invertible relative Rota-Baxter operator
    T = (B flat)^-1 on the coadjoint representation; requires a coherent
    bundle, a skew form passing both form checks, and an invertible musical map.
    """
    _require(check_coherence(a), NotCoherent, "bundle fails the coherence identities")
    maps = _form_maps(b, a, "symplectic_induced_pre")
    _require(run_conditions("cyclic-2cocycle", maps, 1), NotCyclicCocycle,
             "form fails the cyclic 2-cocycle identity")
    _require(run_conditions("symplectic", maps, 1), NotSymplectic,
             "form fails the symplectic identity")
    flat = b.musical()
    return _pre_structure(InterMap(invert(flat)), InterMap(flat), dual_rep(adjoint_rep(a)))


# ---------------------------------------------------------------------------
# Nijenhuis operators and deformations


def check_nijenhuis(nop: InterMap, a: AlgebraBundle, *,
                    max_counterexamples: int = 1) -> CheckReport:
    """Integrability of N for whichever of the product / ternary bracket exists."""
    return run_conditions("nijenhuis", _Maps(a, {"N": nop.tensor}), max_counterexamples)


def deform(nop: InterMap, a: AlgebraBundle) -> AlgebraBundle:
    """Deformed structures x *_N y and [x,y,z]_N of a Nijenhuis operator."""
    maps = _Maps(a, {"N": nop.tensor})
    _require(run_conditions("nijenhuis", maps, 1), NotNijenhuis,
             "map fails the Nijenhuis integrability conditions")
    prod = maps.tensor("mul_N") if a.product is not None else None
    brk = maps.tensor("br3_N") if a.bracket is not None else None
    return AlgebraBundle(a.dim, product=prod, bracket=brk, basis_labels=a.basis_labels)


def lift_nijenhuis(t: InterMap, r: RepBundle) -> InterMap:
    """Block operator (0 T; 0 0) on the semidirect space A (+) V; squares to zero."""
    _check_components(_Maps(r, {"T": t.tensor}), {"lift_nijenhuis": ()})
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
    maps = _checked_rb_maps(t, r)
    return RepBundle(algebra=subadjacent_ternary_fmanifold(_on_module(maps, "muT", "rhoTT")),
                     rho=BiRep(maps.tensor("rho_T")), mu=LinRep(maps.tensor("mu_T")))
