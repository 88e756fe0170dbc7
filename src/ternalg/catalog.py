"""Built-in example bundles, representations, operators and forms.

Every entry passes the checker named in its docstring; the test suite runs
those checks on each release.  Entries serialize to the same JSON documents
as user bundles (see `ternalg.schema`), exported under fixtures/.
"""

from __future__ import annotations

# structures first, for the peak RSS of a process that starts here (see cli)
from .structures import AlgebraBundle  # isort: skip

from fractions import Fraction

from .constructions import TraceFunctional
from .errors import BundleError, SchemaError
from .linalg import InterMap, Matrix, Tensor, Vec
from .operators import BilinearForm
from .representations import RepBundle, adjoint_rep
from .schema import _complete_skew, document_to_obj


def _alternating_tensor4(n: int, generators: dict[tuple[int, int, int], dict[int, object]]):
    """Extend bracket generators to all index permutations by skew-symmetry."""
    entries = {(i, j, k, l): Fraction(v)
               for (i, j, k), row in generators.items() for l, v in row.items()}
    return Tensor(n, 4, _complete_skew(entries, 3, "bracket")[0])


def fil4() -> AlgebraBundle:
    """The 4-dimensional 3-Lie algebra with [e1,e2,e3]=e4, [e1,e2,e4]=e3,
    [e1,e3,e4]=e2, [e2,e3,e4]=e1, extended skew-symmetrically; the product is
    zero, so the bundle is also a ternary F-manifold algebra."""
    bracket = _alternating_tensor4(
        4,
        {
            (0, 1, 2): {3: 1},
            (0, 1, 3): {2: 1},
            (0, 2, 3): {1: 1},
            (1, 2, 3): {0: 1},
        },
    )
    return AlgebraBundle(4, product=Tensor(4, 3, {}), bracket=bracket)


def trunc(n: int) -> AlgebraBundle:
    """Truncated polynomial algebra K[t]/(t^n): basis 1, t, ..., t^(n-1),
    unital commutative associative, zero ternary bracket."""
    if n < 1:
        raise BundleError("trunc(n) needs n >= 1")
    prod = Tensor(n, 3, {(i, j, i + j): 1 for i in range(n) for j in range(n - i)})
    labels = ["1"] + [f"t^{i}" if i > 1 else "t" for i in range(1, n)]
    return AlgebraBundle(
        n,
        product=prod,
        bracket=Tensor(n, 4, {}),
        unit=Vec.basis(n, 0),
        basis_labels=labels,
    )


def r_int(n: int) -> InterMap:
    """Integration-style Rota-Baxter witness on trunc(n): t^k -> t^(k+1)/(k+1),
    zero at top degree.  Passes check_relative_rb over trunc(n)'s adjoint."""
    if n < 2:
        raise BundleError("r_int(n) needs n >= 2")
    grid = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n - 1):
        grid[k + 1][k] = Fraction(1, k + 1)
    return InterMap(Matrix(grid))


def heisenberg_trace() -> tuple[AlgebraBundle, TraceFunctional]:
    """Heisenberg Lie bundle [e1,e2]=e3 with zero product, and the trace e1*."""
    bb = Tensor(3, 3, {(0, 1, 2): 1, (1, 0, 2): -1})
    bundle = AlgebraBundle(3, product=Tensor(3, 3, {}), binary_bracket=bb)
    return bundle, TraceFunctional.dual_of(3, 0)


def gl2_trace() -> tuple[AlgebraBundle, TraceFunctional]:
    """sl2 plus a central element z (basis h,e,f,z) with zero product and the
    trace z*; the induced ternary bracket satisfies [z,e,f]_tau = h."""
    bb = Tensor(
        4,
        3,
        {
            (0, 1, 1): 2, (1, 0, 1): -2,   # [h,e] = 2e
            (0, 2, 2): -2, (2, 0, 2): 2,   # [h,f] = -2f
            (1, 2, 0): 1, (2, 1, 0): -1,   # [e,f] = h
        },
    )
    bundle = AlgebraBundle(
        4, product=Tensor(4, 3, {}), binary_bracket=bb, basis_labels=("h", "e", "f", "z")
    )
    return bundle, TraceFunctional.dual_of(4, 3)


def fil4_rb() -> InterMap:
    """Relative Rota-Baxter witness on fil4's adjoint representation: the
    projection onto span(e1, e2).  Induces a nonzero 3-pre-Lie bracket."""
    return InterMap(Matrix([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]))


def fil4_adjoint() -> RepBundle:
    """Adjoint representation of fil4 (mu = 0 since the product is zero)."""
    return adjoint_rep(fil4())


def fil4_symplectic() -> BilinearForm:
    """A nondegenerate skew form on fil4 passing both form checks: every
    bracket of three basis vectors lands on the complementary basis vector,
    so the symplectic combination cancels termwise."""
    return BilinearForm(Matrix([
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ]))


def _rep_document(rep: RepBundle, **maps: InterMap) -> dict:
    return document_to_obj(rep.algebra, rep=rep, maps=maps or None)


def _trace_document(bundle: AlgebraBundle, tau: TraceFunctional) -> dict:
    return document_to_obj(bundle, maps={"tau": InterMap(Matrix([tau.row.entries]))})


# every entry once: its name, its description and the builder of its document
_CATALOG = {
    "fil4": ("4-dim 3-Lie algebra (zero product): passes 3-lie and ternary-f-manifold",
             lambda: document_to_obj(fil4())),
    "fil4_adjoint": ("fil4 with its adjoint representation block",
                     lambda: _rep_document(fil4_adjoint())),
    "fil4_rb": ("fil4 adjoint with the span(e1,e2) projection as relative Rota-Baxter map T",
                lambda: _rep_document(fil4_adjoint(), T=fil4_rb())),
    "fil4_symplectic": ("fil4 with a nondegenerate skew form passing both form checks",
                        lambda: document_to_obj(fil4(), form=fil4_symplectic())),
    **{f"trunc{n}": (f"K[t]/(t^{n}), unital commutative associative, zero bracket",
                     lambda n=n: document_to_obj(trunc(n))) for n in (2, 3, 4)},
    **{f"r_int{n}": (f"trunc({n}) with its regular representation and the integration map T",
                     lambda n=n: _rep_document(adjoint_rep(trunc(n)), T=r_int(n)))
       for n in (3, 4, 5)},
    "heisenberg_trace": ("Heisenberg Lie bundle with the trace e1*",
                         lambda: _trace_document(*heisenberg_trace())),
    "gl2_trace": ("sl2 + center Lie bundle with the trace z*",
                  lambda: _trace_document(*gl2_trace())),
}

CATALOG_DOC = {name: doc for name, (doc, _) in _CATALOG.items()}


def catalog_document(name: str) -> dict:
    """The schema document object of catalog entry `name` (see CATALOG_DOC)."""
    entry = _CATALOG.get(name)
    if entry is None:
        raise SchemaError(f"unknown catalog entry {name!r}")
    return entry[1]()
