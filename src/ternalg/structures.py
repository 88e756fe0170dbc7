"""Algebra bundles, identities as data, and exhaustive axiom checking.

Every axiom in scope is a multilinear identity in the structure constants,
so it vanishes on all vectors iff it vanishes on all basis tuples; the
checkers enumerate basis tuples exhaustively in lexicographic order and
report the first failures with exact residual vectors.

Each identity, and each sub-map identities share (Leibnizators, F1, F2, the
cyclic sums), is defined once, as data: a signed sum of terms, each term an
operation (`mul`, `br3`, `br2` or a sub-map) applied to argument slots and
to such terms, nested to any depth.  Every slot has a sort -- A (the
algebra), V (a module), B (a homomorphism's target) or k (the scalars) --
and every operation a signature (`_SIGNATURES`) that `_define` checks
before it lowers each term, naming intermediate sub-maps (`_lower`).  The
conditions of every other checker are written in the same language: those
of representations in `representations`, the operator, trace and
homomorphism conditions in `CONDITIONS`.  Two evaluators derive from the
data.  The exhaustive scans run Python source generated per map on integer
tables: one loop nest over the map's tuples, a sweep, in which each term
becomes two nested loops over sparse tables, or, where one planner
(`_plan`) estimates it cheaper from counts of the tables' nonzeros, a
contraction over those nonzeros, which adds each term's contributions at
the tuples they bind.  One producer, `_nonzeros`, yields a map's nonzero
tuples in rank order by the path picked, and both paths give the same
integers at every tuple, so nothing downstream depends on the path: the
scan driver's failures come from it, and so does each sub-map's table,
built once per owner, on first use.  Every table, a tensor's or a
sub-map's, starts as its list of nonzeros, and `_table` and `_groups` lay
out the nested rows and the groups the loops read from it, on first use.
Exact evaluations (`eval_defect`, the Leibnizators, F1, F2, K and the
residual of every counterexample) walk the same terms over vectors
instead, applying each tensor from its own constants (`Tensor.apply`), so
the reported residuals depend on no table, support or generated code.

The scans run on integer tables, each tensor times the lcm of its own
denominators, its scale.  A term's scale is the product of its operations'
scales (a sub-map's is that of its table), and a map's scale L the lcm of
its terms'.  `_multipliers` gives each term the integer L / (its scale), a
literal factor of its coefficient in the generated source, so every scan is
L times the exact defect and vanishes exactly when it does, homogeneous or
not; on integer tensors every factor is 1.  Flagged tuples are recomputed
in exact rationals, which doubles as a cross-check of the fast path.

Each owner of tables (`AlgebraBundle`, `representations.RepBundle`,
`_Maps`) states its components once, as data: `_components()` gives its
tensors by operation and its base owner, and `_ops`, the one place that
builds tables, reads nothing else.  One rule, `_sort_sizes`, reads each
sort's size from their shapes and refuses a tensor, map, form, trace or
action of the wrong size; `AlgebraBundle` and the actions apply it to
their own tensors when built.  Every checker makes one call,
`run_conditions(kind, owner, k)`: the one scan driver and the one place
that builds a `CheckReport`.  It reads the kind's maps from `KINDS`, the
one table of every check kind's maps in scan order, and over an algebra
bundle's maps (`_Maps`) keeps those of the tensors the bundle carries.
Before it builds a table, `_check_components` sizes the owner's
components, bases first, and raises for the first tensor or action the
maps read that the owner lacks, the error `_MISSING` gives it, naming
"<kind> condition '<map>'"; then it scans each map, re-checks each failure
exactly and reports.  A builder names the components it reads to
`_check_components` too.

Identity and representation scans use only certified symmetries.  A term
normaliser expands a defect into trees of its tensors and, for every
transposition of two slots of one sort, compares the transposed defect with
+/- the defect, assuming only what identities earlier in the same list
state of an operation's leading slots: `comm` (mul symmetric), `skew3` (br3
alternating), `skew2` (br2 alternating), `prelie3-skew` (br3 alternating
in its first two slots) and `rho-skew` (rho alternating in its two algebra
slots).  Operator owners' conditions, in which it finds no symmetry, are
not certified.  The certified transpositions form blocks of slots in which
the defect is symmetric or alternating, and the scan visits one
representative per orbit -- non-decreasing values in a symmetric block,
strictly increasing ones in an alternating block, whose tuples with a
repeated value vanish -- but only once every identity the blocks assume has
passed in the same run; otherwise it scans the full range.  A failing
representative expands back to its orbit members at their own ranks, so the
first k counterexamples and the tuple count equal those of the full scan.

Adding an identity: define it in `_registry` with `_define` (a shared
sub-map with `_submap`), in terms of `mul`, `br3`, `br2` and the existing
sub-maps, and list it under its kinds in `KINDS`.  Which tensors it reads
(and so what an input without one raises), its term multipliers, its
symmetry certificate and both evaluators follow from the definition.  A
representation condition is the same, in `representations._registry`,
with the module slot last and `rho`, `rho1` and `mu` available; an
operator, trace or homomorphism condition goes into `_condition_registry`.
A new tensor or action needs a signature in `_SIGNATURES` and an entry in
the missing-component table `_MISSING`: the error an owner without it gets.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import sys
import time
from enum import Enum
from fractions import Fraction
from math import comb, lcm, prod
from typing import Iterator, Optional, Sequence

from .errors import (
    ArityMismatch,
    BundleError,
    DimensionCapExceeded,
    DimensionMismatch,
    InternalError,
    MissingRep,
    MissingTensor,
    UnknownIdentity,
    UnknownKind,
)
from .linalg import ZERO, InterMap, Tensor, Value, Vec, nested_rows


class _Log:
    """The `ternalg` logger, without importing `logging`, which with the
    `traceback`, `tokenize` and `string` modules it loads would be the
    costliest stdlib import of a CLI process.  Each debug line goes to
    `logging.getLogger("ternalg")` once the host has imported `logging`, with
    its call site as the record's location; a process that has not imported
    it has no handler that could show the line."""

    def debug(self, msg: str, *args) -> None:
        logging = sys.modules.get("logging")
        if logging is not None:
            logging.getLogger("ternalg").debug(msg, *args, stacklevel=2)


log = _Log()

DEFAULT_DIMENSION_CAP = 16
_dimension_cap = DEFAULT_DIMENSION_CAP


def dimension_cap() -> int:
    return _dimension_cap


def set_dimension_cap(n: int) -> None:
    """Raise or lower the dimension cap (default 16): the exhaustive scans
    visit up to n**5 basis tuples, so the cap bounds their cost.

    The cap is process-wide: it rebinds a module global that every later
    `AlgebraBundle(...)` reads.  Set it once, before starting threads that
    build bundles; it is not meant to change while they run.
    """
    global _dimension_cap
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"the dimension cap must be an int of at least 1, not {n!r}")
    _dimension_cap = n


# ---------------------------------------------------------------------------
# bundles


class AlgebraBundle(Value, eq=False):
    """A finite-dimensional space with optional product / bracket tensors.

    A bundle may carry tensors that fail axioms; only check_axioms renders
    verdicts, and the evaluators below work on the raw tensors so that
    perturbed and intermediate bundles remain usable.
    """

    dim: int
    basis_labels: tuple[str, ...]
    product: Optional[Tensor] = None
    bracket: Optional[Tensor] = None
    binary_bracket: Optional[Tensor] = None
    unit: Optional[Vec] = None

    def __init__(self, dim, product=None, bracket=None, binary_bracket=None,
                 unit=None, basis_labels=None):
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise BundleError(f"bundle dimension must be an int, not {dim!r}")
        if dim < 1:
            raise BundleError("bundle dimension must be positive")
        if dim > _dimension_cap:
            raise DimensionCapExceeded(
                f"dimension {dim} exceeds the cap {_dimension_cap}; "
                "raise it with set_dimension_cap()"
            )
        if basis_labels is None:
            basis_labels = tuple(f"e{i + 1}" for i in range(dim))
        else:
            basis_labels = tuple(str(s) for s in basis_labels)
            if len(basis_labels) != dim:
                raise BundleError(f"expected {dim} basis labels, got {len(basis_labels)}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis_labels", basis_labels)
        for name, t in (("product", product), ("bracket", bracket),
                        ("binary_bracket", binary_bracket)):
            if t is not None and not isinstance(t, Tensor):
                raise BundleError(f"{name} must be a Tensor, got {type(t).__name__}")
            object.__setattr__(self, name, t)
        object.__setattr__(self, "unit", unit)
        _sort_sizes("AlgebraBundle", self._components()[0], {"k": 1, "A": dim})
        if unit is not None:
            if product is None:
                raise BundleError("unit given but bundle has no product")
            if unit.dim != dim:
                raise BundleError(f"unit has dim {unit.dim}, bundle has dim {dim}")
            for i in range(dim):
                e = self.basis(i)
                if product.apply(e, unit) != e or product.apply(unit, e) != e:
                    raise BundleError(f"unit fails x*1 = 1*x = x at basis vector {i}")

    def basis(self, i: int) -> Vec:
        return Vec.basis(self.dim, i)

    def basis_vectors(self) -> list[Vec]:
        return [self.basis(i) for i in range(self.dim)]

    def mul(self, x: Vec, y: Vec) -> Vec:
        return _eval_map(self, _TENSOR_MAPS["mul"], (x, y), "operation")

    def br3(self, x: Vec, y: Vec, z: Vec) -> Vec:
        return _eval_map(self, _TENSOR_MAPS["br3"], (x, y, z), "operation")

    def br2(self, x: Vec, y: Vec) -> Vec:
        return _eval_map(self, _TENSOR_MAPS["br2"], (x, y), "operation")

    def _components(self):
        """Its tensors and its base (none), for `_ops`."""
        return {"mul": self.product, "br3": self.bracket, "br2": self.binary_bracket}, None


class StructureKind(str, Enum):
    COMM_ASSOC = "comm-assoc"
    ZINBIEL = "zinbiel"
    LIE = "lie"
    THREE_LIE = "3-lie"
    THREE_PRE_LIE = "3-pre-lie"
    F_MANIFOLD = "f-manifold"
    TERNARY_F_MANIFOLD = "ternary-f-manifold"
    TERNARY_NAMBU_POISSON = "ternary-nambu-poisson"
    TERNARY_PRE_F_MANIFOLD = "ternary-pre-f-manifold"
    TERNARY_PRE_NAMBU_POISSON = "ternary-pre-nambu-poisson"
    COHERENCE = "coherence"


def coerce_kind(kind, kinds: type[Enum] = StructureKind, what: str = "structure"):
    """kind, a member or a value of the enum `kinds`, as a member."""
    try:
        return kinds(kind)
    except ValueError:
        raise UnknownKind(f"unknown {what} kind {kind!r} "
                          f"(choices: {[k.value for k in kinds]})") from None


# ---------------------------------------------------------------------------
# reports


class Counterexample(Value):
    identity: str
    indices: tuple[int, ...]
    residual: Vec


class CheckReport(Value):
    passed: bool
    kind: str
    checked_identities: tuple[str, ...]
    counterexamples: tuple[Counterexample, ...]
    tuple_count: int

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.passed != (not self.counterexamples):
            raise InternalError("a report passes exactly when it has no counterexamples")

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def __bool__(self):
        return self.passed


# ---------------------------------------------------------------------------
# sparse tables
#
# Tables hold sparse integer rows, as `_table` lays them out from a table's
# nonzeros over its slots' sorts: prod[i][j] is a tuple of (k, coeff) pairs,
# br3t[i][j][k] of (l, coeff) pairs.  They serve the exhaustive scans alone;
# exact evaluation applies each tensor from its own constants (`Tensor.apply`).


class _Ops:
    """Integer sparse tables by operation name, each one's integer scale,
    and each sort's size: the tensors, each times the lcm of its own
    denominators, those of `base`, and the sub-map tables the scanners add
    on first use.  A sub-map that needs no tensor beyond base's is built on
    base, so an algebra's sub-map tables serve its representations and
    operators.  Sort sizes are read from the tensors' shapes, here and in
    base, by `_sort_sizes`.  The exact evaluator reads only the sizes and
    `tensors`, the tensors themselves.

    Every table starts as its support: the list of its nonzeros (i1, ...,
    value index, value) in rank order, made on first read (`_built`), a
    tensor's from its constants, a sub-map's by `_tabulate`.  Two views are
    laid out from it on first use: `tables` holds the nested rows the tuple
    scans read (`_table`), `groups` the nonzeros by the index at one
    position, which the contractions join and the planner counts
    (`_groups`).  A tensor that is the same object as one of base's (an
    adjoint representation's rho and mu) is base's table, support and
    views alike (`shared` names base's operation).  `path` forces
    "contract" or "tuples" on every plan made on these tables and on those
    built over them; None lets `_plan` choose."""

    __slots__ = ("sizes", "scales", "tensors", "tables", "support", "groups", "shared", "base",
                 "path")

    def __init__(self, tensors: dict, base: Optional["_Ops"] = None,
                 path: Optional[str] = None):
        tensors = {op: t for op, t in tensors.items() if t is not None}
        scales = {op: t.den_lcm() for op, t in tensors.items()}
        self.base = base
        self.path = path or (base.path if base else None)
        self.sizes = _sort_sizes("integer tables", tensors, base.sizes if base else {"k": 1})
        self.scales = {**base.scales, **scales} if base else scales
        self.tensors = {**base.tensors, **tensors} if base else tensors
        self.support, self.tables, self.groups = {}, {}, {}
        same = {id(t): op for op, t in base.tensors.items()} if base else {}
        self.shared = {op: same[id(t)] for op, t in tensors.items() if id(t) in same}


def _dims(sizes: dict) -> str:
    names = {"A": "dim", "V": "module dim", "B": "target dim"}
    return ", ".join(f"{name} {sizes[s]}" for s, name in names.items() if s in sizes)


def _sort_sizes(where: str, tensors: dict, sizes: dict) -> dict:
    """`sizes` and each sort's size read from the shapes of `tensors` by
    `_SIGNATURES`; a tensor of another order than its sorts', refused before
    any size is read from it, or a shape not its sorts' sizes, in order,
    raises at `where`."""
    sizes = dict(sizes)
    for op, t in tensors.items():
        if t is None:
            continue
        sorts = "".join(_SIGNATURES[op])
        if len(t.shape) != len(sorts):
            raise DimensionMismatch(f"{where}: {op} of shape {t.shape} has order "
                                    f"{len(t.shape)}, not {len(sorts)}")
        for s, n in zip(sorts, t.shape):
            sizes.setdefault(s, n)
        want = tuple(sizes.get(s) for s in sorts)
        if t.shape != want:
            raise DimensionMismatch(f"{where}: {op} of shape {t.shape} disagrees with "
                                    f"{_dims(sizes)}: expected {want}")
    return sizes


def _ops(owner, path: Optional[str] = None) -> _Ops:
    """The integer tables of owner's tensors, each times the lcm of its own
    denominators, over its base's: owner._components() gives its tensors by
    operation and its base owner or None.  Built on first use, kept on
    owner; `path` (tests only) forces the plans made on a new one."""
    hit = getattr(owner, "_ops_int", None)
    if hit is None:
        tensors, base = owner._components()
        hit = _Ops(tensors, None if base is None else _ops(base), path)
        log.debug("integer tables, %s: scale factors %s", _dims(hit.sizes), " ".join(
            f"{op}={hit.scales.get(op)}" for op in tensors))
        object.__setattr__(owner, "_ops_int", hit)
    return hit


# ---------------------------------------------------------------------------
# identities as data
#
# A term is (op, args): op names a tensor or a sub-map, and each argument
# is a slot index or a term, lowered to at most one (op, slots) term.  Every
# term uses each slot exactly once, so each map is multilinear.  Identities
# are oriented LHS - RHS as the defining equation reads, skewness ones as
# "tensor minus its full antisymmetrisation", scaled by the symmetric group
# order to stay integral: it vanishes iff the bracket is alternating.

# The sorts of each operation's slots and value; `_submap` adds sub-maps'.
# A is the algebra, V a module, B a homomorphism's target and k the scalars
# (size 1): T is a relative Rota-Baxter map and Tinv its inverse, N a
# Nijenhuis operator, form a bilinear form, tau a trace, smul the scalar
# multiplication, f a homomorphism and mulB, br3B, br2B the target's tensors.
_SIGNATURES = {
    "mul": ("AA", "A"), "br3": ("AAA", "A"), "br2": ("AA", "A"),
    "rho": ("AAV", "V"), "rho1": ("AV", "V"), "mu": ("AV", "V"),
    "T": ("V", "A"), "Tinv": ("A", "V"), "N": ("A", "A"), "form": ("AA", "k"),
    "tau": ("A", "k"), "smul": ("kA", "A"), "f": ("A", "B"),
    "mulB": ("BB", "B"), "br3B": ("BBB", "B"), "br2B": ("BB", "B"),
}

# the tensors each operation reads, sub-maps expanded
_TENSORS_OF = {op: frozenset({op}) for op in _SIGNATURES}

# The error an owner gets for lacking a component that a map reads, by
# component, looked for in this order: the algebra's tensors, a homomorphism
# target's, the actions.  Its argument names the entry point and the map.
_MISSING = {
    "mul": lambda where: MissingTensor("product", where),
    "br3": lambda where: MissingTensor("bracket", where),
    "br2": lambda where: MissingTensor("binary_bracket", where),
    "mulB": lambda where: MissingTensor("product", f"{where}, in the target"),
    "br3B": lambda where: MissingTensor("bracket", f"{where}, in the target"),
    "br2B": lambda where: MissingTensor("binary_bracket", f"{where}, in the target"),
    "rho": lambda where: MissingRep(f"{where} needs rho as a pair action (BiRep)"),
    "rho1": lambda where: MissingRep(f"{where} needs rho as a single-argument action (LinRep)"),
    "mu": lambda where: MissingRep(f"{where} needs mu"),
}


class Identity(Value):
    """A named multilinear map: an identity's defect, a checker's condition,
    or a sub-map.  `terms` is ((coeff, (op, args)), ...), lowered; `sorts` is
    each slot's sort and `out` the value's; `tensors` names the tensors its
    terms read."""

    name: str
    terms: tuple
    sorts: tuple[str, ...]
    out: str
    tensors: frozenset

    @property
    def arity(self) -> int:
        return len(self.sorts)


class _Sum:
    """A signed sum of terms, built by applying operations to slots and sums."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)

    def __add__(self, other):
        return _Sum(self.terms + other.terms)

    def __sub__(self, other):
        return self + -1 * other

    def __neg__(self):
        return -1 * self

    def __rmul__(self, c):
        return _Sum((c * k, t) for k, t in self.terms)


def _op(name: str):
    """The operation `name` as a function of slots and sums of terms, nested
    to any depth.  It distributes over a sum argument, by multilinearity."""
    arity = len(_SIGNATURES[name][0])

    def apply(*args):
        if len(args) != arity:
            raise InternalError(f"{name} takes {arity} arguments, not {len(args)}")
        choices = [[(1, a)] if isinstance(a, int) else a.terms for a in args]
        return _Sum((prod(cs), (name, ts))
                    for cs, ts in (zip(*choice) for choice in itertools.product(*choices)))

    return apply


def _define(name: str, body) -> Identity:
    """The map body(slot 0, slot 1, ...), by `_identity`."""
    arity = body.__code__.co_argcount
    return _identity(name, body(*range(arity)).terms, arity)


def _identity(name: str, written, arity: int) -> Identity:
    """The map of the written terms ((coeff, tree), ...) on `arity` slots,
    checked to be multilinear and well sorted, as the scans need, and lowered."""
    sorts: dict[int, str] = {}
    tensors: set[str] = set()

    def bind(op, args):
        """The slots of the term op(*args), each one's sort checked and recorded."""
        slots = []
        tensors.update(_TENSORS_OF[op])
        for a, want in zip(args, _SIGNATURES[op][0]):
            if isinstance(a, int):
                if sorts.setdefault(a, want) != want:
                    raise InternalError(f"{name}: slot x{a + 1} is {sorts[a]} in one "
                                        f"term and {want} in another")
                slots.append(a)
            elif _SIGNATURES[a[0]][1] != want:
                raise InternalError(f"{name}: {a[0]} gives {_SIGNATURES[a[0]][1]} where "
                                    f"{op} takes {want}")
            else:
                slots += bind(*a)
        return slots

    for _, term in written:
        if sorted(bind(*term)) != list(range(arity)):
            raise InternalError(f"{name}: every term must use each slot exactly once")
    out = _SIGNATURES[written[0][1][0]][1]  # the same for every term, on the same slots
    return Identity(name, tuple((c, _lower(term)) for c, term in written),
                    tuple(sorts[s] for s in range(arity)), out, frozenset(tensors))


def _lower(term):
    """term as the generators read it, nesting one operation on slots at most:
    the operation with its nested arguments but the last, whose place is left
    a slot (-1), becomes an intermediate, as does an argument nesting further."""
    op, args = term
    nested = [p for p, a in enumerate(args) if not isinstance(a, int)]
    if len(nested) > 1:
        op, slots = _intermediate((op, args[:nested[-1]] + (-1,) + args[nested[-1] + 1:]))
        args = tuple(args[nested[-1]] if s == -1 else s for s in slots)
    return op, tuple(a if isinstance(a, int) or all(isinstance(s, int) for s in a[1])
                     else _intermediate(a) for a in args)


def _text(tree) -> str:
    """tree as written, slot s as x{s + 1}: an intermediate's name in debug lines."""
    if isinstance(tree, int):
        return f"x{tree + 1}"
    return f"{tree[0]}({', '.join(map(_text, tree[1]))})"


_SUBMAPS: dict[str, Identity] = {}
_TREES: dict = {}  # the sub-map of each tree lowered out of a term, slots renumbered


def _register(name: str, m: Identity) -> str:
    if name in _SIGNATURES:
        raise InternalError(f"two maps are named {name}")
    _SUBMAPS[name] = m
    _SIGNATURES[name] = ("".join(m.sorts), m.out)
    _TENSORS_OF[name] = m.tensors
    return name


def _intermediate(tree) -> tuple:
    """(name, slots): the sub-map of tree, registered on first use and
    shared by every map that holds it, and the slots of tree it takes."""
    slots: list[int] = []

    def renumber(t):
        if isinstance(t, int):
            slots.append(t)
            return len(slots) - 1
        return t[0], tuple(map(renumber, t[1]))

    key = renumber(tree)
    if key not in _TREES:
        text = _text(key)  # in code, its operations and slots in prefix order: one per tree
        name = text.replace("(", "__").replace(", ", "__").replace(")", "")
        _TREES[key] = _register(name, _identity(text, ((1, key),), len(slots)))
    return _TREES[key], tuple(slots)


def _submap(name: str, body):
    """The sub-map `name`, as an operation.  One whose body is one term is
    the sub-map of that term's tree, so it comes before the maps holding it."""
    arity = body.__code__.co_argcount
    written = body(*range(arity)).terms
    _register(name, _identity(name, written, arity))
    if len(written) == 1 and written[0][0] == 1 and _TREES.setdefault(written[0][1], name) != name:
        raise InternalError(f"{name}: {_text(written[0][1])} is already an intermediate")
    return _op(name)


def _registry() -> dict[str, Identity]:
    """Every sub-map and identity, each defined once."""
    mul, br3, br2 = _op("mul"), _op("br3"), _op("br2")
    symmul = _submap("symmul", lambda x, y: mul(x, y) + mul(y, x))
    cyc3 = _submap("cyc3", lambda x, y, z: br3(x, y, z) + br3(y, z, x) + br3(z, x, y))
    # 3-Leibnizator: [x1,x2,x3*x4] - x3*[x1,x2,x4] - [x1,x2,x3]*x4
    leib3 = _submap("leib3", lambda x1, x2, x3, x4: (
        br3(x1, x2, mul(x3, x4)) - mul(x3, br3(x1, x2, x4)) - mul(br3(x1, x2, x3), x4)))
    # binary Leibnizator: [x, y*z] - [x,y]*z - y*[x,z]
    leib2 = _submap("leib2", lambda x, y, z: (
        br2(x, mul(y, z)) - mul(br2(x, y), z) - mul(y, br2(x, z))))
    # K: the cyclic sum over (y,z,u) of [x, y, z*u]
    kmap = _submap("kmap", lambda x, y, z, u: (
        br3(x, y, mul(z, u)) + br3(x, z, mul(u, y)) + br3(x, u, mul(y, z))))
    # F1 = {x1,x2,x3<>x4} - x3<>{x1,x2,x4} - [x1,x2,x3]<>x4 over the pre-tensors
    f1 = _submap("f1", lambda x1, x2, x3, x4: (
        br3(x1, x2, mul(x3, x4)) - mul(x3, br3(x1, x2, x4)) - mul(cyc3(x1, x2, x3), x4)))
    # F2 = x3<>{x1,x2,x4} + x2<>{x1,x3,x4} - {x1, x2*x3, x4}
    f2 = _submap("f2", lambda x1, x2, x3, x4: (
        mul(x3, br3(x1, x2, x4)) + mul(x2, br3(x1, x3, x4)) - br3(x1, symmul(x2, x3), x4)))
    # 3-Leibnizator of the sub-adjacent operations of a pre-structure
    leib3_sub = _submap("leib3_sub", lambda x1, x2, x3, x4: (
        cyc3(x1, x2, symmul(x3, x4)) - symmul(x3, cyc3(x1, x2, x4))
        - symmul(cyc3(x1, x2, x3), x4)))
    return {
        i.name: i
        for i in [
            _define("comm", lambda x, y: mul(x, y) - mul(y, x)),
            _define("assoc", lambda x, y, z: mul(mul(x, y), z) - mul(x, mul(y, z))),
            _define("zinbiel", lambda x, y, z: (
                mul(x, mul(y, z)) - mul(mul(y, x), z) - mul(mul(x, y), z))),
            _define("skew2", lambda x, y: br2(x, y) + br2(y, x)),
            _define("jacobi", lambda x, y, z: (
                br2(br2(x, y), z) + br2(br2(y, z), x) + br2(br2(z, x), y))),
            _define("skew3", lambda x, y, z: (
                6 * br3(x, y, z) - br3(x, y, z) + br3(y, x, z) + br3(x, z, y)
                + br3(z, y, x) - br3(y, z, x) - br3(z, x, y))),
            _define("fundamental", lambda x1, x2, x3, x4, x5: (
                br3(x1, x2, br3(x3, x4, x5)) - br3(br3(x1, x2, x3), x4, x5)
                - br3(x3, br3(x1, x2, x4), x5) - br3(x3, x4, br3(x1, x2, x5)))),
            _define("prelie3-skew", lambda x, y, z: br3(x, y, z) + br3(y, x, z)),
            _define("prelie3-a", lambda x1, x2, x3, x4, x5: (
                br3(x1, x2, br3(x3, x4, x5)) - br3(cyc3(x1, x2, x3), x4, x5)
                - br3(x3, cyc3(x1, x2, x4), x5) - br3(x3, x4, br3(x1, x2, x5)))),
            _define("prelie3-b", lambda x1, x2, x3, x4, x5: (
                br3(cyc3(x1, x2, x3), x4, x5) - br3(x1, x2, br3(x3, x4, x5))
                - br3(x2, x3, br3(x1, x4, x5)) - br3(x3, x1, br3(x2, x4, x5)))),
            _define("leibniz-np", lambda x1, x2, x3, x4: leib3(x1, x2, x3, x4)),
            _define("hm2", lambda x, y, z, w: (
                leib2(mul(x, y), z, w) - mul(x, leib2(y, z, w)) - mul(y, leib2(x, z, w)))),
            _define("hm3", lambda x1, x2, x3, x4, x5: (
                leib3(mul(x1, x2), x3, x4, x5) - mul(x1, leib3(x2, x3, x4, x5))
                - mul(x2, leib3(x1, x3, x4, x5)))),
            _define("prefm-1", lambda x1, x2, x3, x4, x5: (
                f1(symmul(x1, x2), x3, x4, x5) - mul(x1, f1(x2, x3, x4, x5))
                - mul(x2, f1(x1, x3, x4, x5)))),
            _define("prefm-11", lambda x1, x2, x3, x4, x5: (
                f2(symmul(x1, x2), x3, x4, x5) - mul(x1, f2(x2, x3, x4, x5))
                - mul(x2, f2(x1, x3, x4, x5)))),
            _define("prefm-2", lambda x1, x2, x3, x4, x5: (
                mul(leib3_sub(x1, x2, x3, x4), x5) - f2(x2, x3, x4, mul(x1, x5))
                + mul(x1, f2(x2, x3, x4, x5)))),
            _define("prenp-1", lambda x1, x2, x3, x4: f1(x1, x2, x3, x4)),
            _define("prenp-2", lambda x1, x2, x3, x4: -f2(x1, x2, x3, x4)),
            _define("coh1", lambda x, y, z, t, u: (
                leib3(mul(x, y), z, t, u) - leib3(y, z, t, mul(x, u))
                - leib3(x, z, t, mul(y, u)))),
            _define("coh2", lambda x, y, z, t, u: (
                kmap(mul(x, y), z, t, u) + kmap(x, z, t, mul(y, u)) + kmap(y, z, t, mul(x, u)))),
            _define("coh3", lambda x, y, z, t, u: (
                mul(leib3(x, y, z, t), u) - kmap(y, z, t, mul(x, u)) + mul(x, kmap(y, z, t, u)))),
        ]
    }


IDENTITIES: dict[str, Identity] = _registry()

_TFM = ("comm", "assoc", "skew3", "fundamental", "hm3")
_THREE_LIE_REP = ("rho-skew", "kasymov-i", "kasymov-ii")

# Every check kind's maps, by name, in scan order: the structure kinds
# (`StructureKind`), the representation kinds (`representations.RepKind`)
# and the kinds of the operator, form, trace and homomorphism checkers.
# `run_conditions` resolves the names in `_MAPS`.
KINDS: dict[str, tuple[str, ...]] = {
    "comm-assoc": ("comm", "assoc"),
    "zinbiel": ("zinbiel",),
    "lie": ("skew2", "jacobi"),
    "3-lie": ("skew3", "fundamental"),
    "3-pre-lie": ("prelie3-skew", "prelie3-a", "prelie3-b"),
    "f-manifold": ("comm", "assoc", "skew2", "jacobi", "hm2"),
    "ternary-f-manifold": _TFM,
    "ternary-nambu-poisson": ("comm", "assoc", "skew3", "fundamental", "leibniz-np"),
    "ternary-pre-f-manifold": ("zinbiel", "prelie3-skew", "prelie3-a", "prelie3-b",
                               "prefm-1", "prefm-11", "prefm-2"),
    "ternary-pre-nambu-poisson": ("zinbiel", "prelie3-skew", "prelie3-a", "prelie3-b",
                                  "prenp-1", "prenp-2"),
    # coherence presumes the ternary F-manifold identities, so they come first
    "coherence": _TFM + ("coh1", "coh2", "coh3"),
    "comm-assoc-rep": ("mu-mult",),
    "lie-rep": ("rho-lie",),
    "three-lie-rep": _THREE_LIE_REP,
    "fmanifold-rep": ("rho-lie", "mu-mult", "brep-1", "brep-2"),
    "ternary-fmanifold-rep": _THREE_LIE_REP + ("mu-mult", "rep-1", "rep-3", "rep-2"),
    "dual-conditions": ("corep-1", "corep-2", "corep-3"),
    "relative-rb-comm": ("rb-comm",),
    "relative-rb-3lie": ("rb-3lie",),
    "relative-rb": ("rb-comm", "rb-3lie"),
    "cyclic-2cocycle": ("cocycle",),
    "symplectic": ("symplectic",),
    "nijenhuis": ("nijenhuis-comm", "nijenhuis-3lie"),
    "trace": ("trace",),
    "induced-condition": ("induced-condition",),
    "homomorphism": ("hom-product", "hom-bracket", "hom-binary-bracket"),
}


def _condition_registry() -> dict[str, Identity]:
    """The conditions of the operator, trace and homomorphism checkers, each
    defined once and written as the paper writes it, after the sub-maps they
    share with the builders, whose trees the conditions then read."""
    mul, br3, br2, rho, mu, leib2, T, Tinv, N, form, tau, smul, f, mulB, br3B, br2B = map(
        _op, "mul br3 br2 rho mu leib2 T Tinv N form tau smul f mulB br3B br2B".split())
    # relative Rota-Baxter: muT and rhoTT are the induced product and bracket
    _submap("mulT", lambda p, y: mul(T(p), y))
    _submap("br3TT", lambda p, q, z: br3(T(p), T(q), z))
    _submap("muT", lambda p, q: mu(T(p), q))
    _submap("rhoTT", lambda p, q, v: rho(T(p), T(q), v))
    # the representation induced back on A: mu_T(u)x and rho_T(u,v)x
    _submap("mu_T", lambda p, x: mul(T(p), x) - T(mu(x, p)))
    _submap("rho_T", lambda p, q, x: br3(T(p), T(q), x) - T(rho(T(q), x, p) + rho(x, T(p), q)))
    # the pre-structure on A of an invertible T: T(mu(x) Tinv y) and T(rho(x, y) Tinv z)
    _submap("mul_pre", lambda x, y: T(mu(x, Tinv(y))))
    _submap("br3_pre", lambda x, y, z: T(rho(x, y, Tinv(z))))
    # Nijenhuis: the deformed x o_N y and [x,y,z]_N
    mul_N = _submap("mul_N", lambda x, y: mul(N(x), y) + mul(x, N(y)) - N(mul(x, y)))
    br3_N = _submap("br3_N", lambda x, y, z: (
        br3(N(x), N(y), z) + br3(N(x), y, N(z)) + br3(x, N(y), N(z))
        - N(br3(N(x), y, z) + br3(x, N(y), z) + br3(x, y, N(z)) - N(br3(x, y, z)))))
    _submap("br3_tau", lambda x, y, z: (
        smul(tau(x), br2(y, z)) - smul(tau(y), br2(x, z)) + smul(tau(z), br2(x, y))))
    return {
        c.name: c
        for c in [
            _define("rb-comm", lambda p, q: mul(T(p), T(q)) - T(mu(T(p), q) + mu(T(q), p))),
            _define("rb-3lie", lambda p, q, s: (
                br3(T(p), T(q), T(s))
                - T(rho(T(p), T(q), s) + rho(T(q), T(s), p) + rho(T(s), T(p), q)))),
            _define("cocycle", lambda x, y, z: (
                form(mul(x, y), z) + form(mul(y, z), x) + form(mul(z, x), y))),
            _define("symplectic", lambda x, y, z, u: (
                form(br3(x, y, z), u) - form(br3(x, y, u), z) + form(br3(x, z, u), y)
                - form(br3(y, z, u), x))),
            _define("nijenhuis-comm", lambda x, y: mul(N(x), N(y)) - N(mul_N(x, y))),
            _define("nijenhuis-3lie", lambda x, y, z: br3(N(x), N(y), N(z)) - N(br3_N(x, y, z))),
            _define("trace", lambda x, y: tau(br2(x, y))),
            _define("induced-condition", lambda x1, x2, x3, x4, x5: (
                smul(tau(mul(x1, x2)), leib2(x3, x4, x5))
                - smul(tau(x2), mul(x1, leib2(x3, x4, x5)))
                - smul(tau(x1), mul(x2, leib2(x3, x4, x5))))),
            _define("hom-product", lambda x, y: f(mul(x, y)) - mulB(f(x), f(y))),
            _define("hom-bracket", lambda x, y, z: f(br3(x, y, z)) - br3B(f(x), f(y), f(z))),
            _define("hom-binary-bracket", lambda x, y: f(br2(x, y)) - br2B(f(x), f(y))),
        ]
    }


CONDITIONS: dict[str, Identity] = _condition_registry()

# every map of a check kind, by name; representations adds its conditions
_MAPS: dict[str, Identity] = {**IDENTITIES, **CONDITIONS}

# each tensor as a map of its own, for AlgebraBundle.mul, br3 and br2
_TENSOR_MAPS = {op: _identity(op, ((1, (op, tuple(range(n)))),), n)
                for op, n in (("mul", 2), ("br3", 3), ("br2", 2))}


def _check_components(owner, reads: dict, where: Optional[str] = None) -> None:
    """Raise, before any table is built, for a component of owner or its
    bases whose size disagrees, bases first (naming `where` or the first
    entry of `reads`), then the `_MISSING` error of the first component, in
    its order, that they lack and an entry of `reads`, {where (the entry
    point and map): the components read}, reads."""
    chain, sized = [], hasattr(owner, "_ops_int")  # tables are sized when built
    while owner is not None:
        tensors, owner = owner._components()
        chain.append(tensors)
    sizes = {"k": 1}
    for tensors in () if sized else reversed(chain):
        sizes = _sort_sizes(where or next(iter(reads)), tensors, sizes)
    have = {op for tensors in chain for op, t in tensors.items() if t is not None}
    for op, error in _MISSING.items():
        if op not in have:
            for entry, ops in reads.items():
                if op in ops:
                    raise error(entry)


# ---------------------------------------------------------------------------
# symmetry certificates
#
# A defect is expanded into a signed list of trees of tensors on slots,
# sub-maps included.  A tree is canonical when the leading arguments of
# every operation assumed symmetric or alternating in them are sorted, an
# alternating sort contributing its sign; summing equal canonical trees
# gives the normal form.  Each rewrite is an equality given the assumed
# identities, so equal normal forms of the transposed defect and +/- the
# defect prove the transposition.

# the identities a certificate may assume: (operation, sign, k), the
# operation being symmetric (sign 1) or alternating (-1) in its leading k
# slots once the identity has passed
_SYMMETRY_OF = {"comm": ("mul", 1, 2), "skew3": ("br3", -1, 3), "skew2": ("br2", -1, 2),
                "prelie3-skew": ("br3", -1, 2), "rho-skew": ("rho", -1, 2)}


class Symmetry(Value):
    """Certified blocks of slots of a defect, and the identities assumed.

    `blocks` is ((slots, sign), ...): the defect is symmetric (sign 1) or
    alternating (sign -1) in the slots of each block, given every identity
    in `assumes`.
    """

    blocks: tuple[tuple[tuple[int, ...], int], ...]
    assumes: tuple[str, ...]

    def __str__(self):
        blocks = " ".join(f"{'sym' if sign > 0 else 'alt'}({','.join(f'x{s + 1}' for s in slots)})"
                          for slots, sign in self.blocks)
        return f"{blocks} given {', '.join(self.assumes) or 'no identity'}"


def _substitute(tree, args):
    """tree with each slot s replaced by args[s]."""
    if isinstance(tree, int):
        return args[tree]
    op, sub = tree
    return op, tuple(_substitute(a, args) for a in sub)


def _expand(tree) -> list:
    """A tree of operations and sub-maps on slots as [(coeff, tree)], every
    tree built from mul, br3 and br2 alone."""
    if isinstance(tree, int):
        return [(1, tree)]
    op, args = tree
    sub = _SUBMAPS.get(op)
    out = []
    for choice in itertools.product(*map(_expand, args)):
        c = 1
        for k, _ in choice:
            c *= k
        trees = tuple(t for _, t in choice)
        if sub is None:
            out.append((c, (op, trees)))
        else:
            out += [(c * k * j, t) for k, term in sub.terms
                    for j, t in _expand(_substitute(term, trees))]
    return out


def _canonical(tree, signs: dict, memo: dict):
    """(sign, tree) with the leading k arguments of each operation in
    `signs`, {op: (sign, k)}, sorted; `memo` caches sub-trees already seen
    under the same `signs`."""
    if isinstance(tree, int):
        return 1, tree
    hit = memo.get(tree)
    if hit is None:
        op, args = tree
        sign, canon = 1, []
        for a in args:
            s, c = _canonical(a, signs, memo)
            sign *= s
            canon.append(c)
        if op in signs:
            k = signs[op][1]
            order = sorted(range(k), key=lambda i: repr(canon[i])) + list(range(k, len(canon)))
            if signs[op][0] < 0:
                sign *= (-1) ** sum(a > b for a, b in itertools.combinations(order, 2))
            canon = [canon[i] for i in order]
        hit = memo[tree] = (sign, (op, tuple(canon)))
    return hit


def _normal(terms, signs: dict, memo: dict) -> dict:
    out: dict = {}
    for c, tree in terms:
        s, canon = _canonical(tree, signs, memo)
        out[canon] = out.get(canon, 0) + s * c
    return {t: c for t, c in out.items() if c}


def _transpositions(ident: Identity, assumable: tuple[str, ...]) -> dict:
    """{(i, j): (sign, assumed)} for each transposition of two slots of one
    sort that maps the defect of `ident` to sign * itself given the
    identities in `assumable`, the widest on an operation deciding;
    `assumed` is the smallest subset of them found to prove it.  A pair
    that all of `assumable` does not prove is not tried further, since
    fewer assumptions identify fewer terms."""
    terms = [(c * k, t) for c, term in ident.terms for k, t in _expand(term)]
    subsets = [s for r in range(len(assumable), -1, -1)
               for s in itertools.combinations(assumable, r)]
    signs = {s: {op: (sign, k) for op, sign, k in sorted(
        (_SYMMETRY_OF[a] for a in s), key=lambda e: e[2])} for s in subsets}  # widest k wins
    memos: dict = {s: {} for s in subsets}
    normals = {s: _normal(terms, signs[s], memos[s]) for s in subsets}
    certified = {}
    for i, j in itertools.combinations(range(ident.arity), 2):
        if ident.sorts[i] != ident.sorts[j]:
            continue
        swap = list(range(ident.arity))
        swap[i], swap[j] = j, i
        swapped = [(c, _substitute(t, swap)) for c, t in terms]
        for s in subsets:  # from all of assumable down to nothing
            image, base = _normal(swapped, signs[s], memos[s]), normals[s]
            if image == base or image == {t: -c for t, c in base.items()}:
                certified[i, j] = (1 if image == base else -1, s)
            elif len(s) == len(assumable):
                break
    return certified


_CERTIFICATES: dict = {}


def _certificate(ident: Identity, assumable: tuple[str, ...]) -> Optional[Symmetry]:
    """The symmetry blocks of `ident` given the identities in `assumable`,
    each stating its operation symmetric or alternating in its leading k
    slots (`_SYMMETRY_OF`), or None; computed on first use and cached.

    A block is a slot with every later slot of its sort it transposes with,
    kept only if every pair inside is certified with one sign.
    """
    key = (ident, assumable)
    if key in _CERTIFICATES:
        return _CERTIFICATES[key]
    certified = _transpositions(ident, assumable)
    blocks, assumes, used = [], set(), set()
    for i in range(ident.arity):
        block = (i,) + tuple(j for j in range(i + 1, ident.arity) if (i, j) in certified)
        pairs = list(itertools.combinations(block, 2))
        block_signs = {certified.get(p, (0,))[0] for p in pairs}
        if len(block) > 1 and used.isdisjoint(block) and block_signs in ({1}, {-1}):
            blocks.append((block, block_signs.pop()))
            assumes.update(a for p in pairs for a in certified[p][1])
            used.update(block)
    cert = _CERTIFICATES[key] = Symmetry(
        tuple(blocks), tuple(a for a in assumable if a in assumes)) if blocks else None
    log.debug("symmetry certificate of %s given %s: %s", ident.name,
              ", ".join(assumable) or "no identity", cert)
    return cert


# ---------------------------------------------------------------------------
# exact evaluator: walk the terms, applying each tensor by `Tensor.apply`


def _evaluate(ops: _Ops, m: Identity, vecs) -> list:
    """m at `Vec`s, one per slot, as a list of exact coordinates: each
    tensor is applied from its own constants, and no table is read."""
    out = [ZERO] * ops.sizes[m.out]
    for c, (op, args) in m.terms:
        vals = [vecs[a] if isinstance(a, int) else _apply(ops, a[0], [vecs[s] for s in a[1]])
                for a in args]
        for k, v in enumerate(_apply(ops, op, vals)):
            if v:
                out[k] += v if c == 1 else -v if c == -1 else c * v
    return out


def _apply(ops: _Ops, op: str, vecs) -> Vec:
    sub = _SUBMAPS.get(op)
    return ops.tensors[op].apply(*vecs) if sub is None else Vec(_evaluate(ops, sub, vecs))


# ---------------------------------------------------------------------------
# integer sweeps: one generated loop nest per map over its tuples, each table
# prefix bound where its slots are, and each term in the innermost body
#   for m, v in Inner[x..]: for l, w in Outer[x..][m][x..]: out[l] += c*v*w
# into one reused buffer.  Or the same terms become a contraction over the
# tables' nonzeros, one chunk per value of the first slot:
#   for x.., m, v in Inner at x0: for x.., l, w in Outer at m: acc[t, l] += c*v*w
# `_nonzeros` runs either; scans and sub-map tables both read it.


def _source(m: Identity, mode: str, blocks=()) -> tuple[str, list]:
    """Source of make(...) for m, and the tables it takes.

    In mode "sweep", make(sizes, size, *tables) returns sweep(), a generator
    of (t, out) for each basis tuple t at which m is nonzero, in rank order,
    out being m's dense value there; with certified `blocks`, t ranges over
    the tuples whose values rise along each block, strictly in an
    alternating one: the smallest member of every orbit.  `sizes` holds the
    size of each slot's range, `size` the value's, and the tables are named
    by operation.  It runs one loop nest; a prefix of a table that the loops
    below it index again is bound to a local at the depth where its slots
    are, and the value is summed into one buffer, which a nonzero value
    leaves and a zero one (terms that cancel included) keeps.
    In mode "contract", see `_contraction_source`.
    """
    if mode == "contract":
        return _contraction_source(m)
    deps: list[str] = []
    bound: dict[tuple, str] = {}
    for _, (op, args) in m.terms:
        nested = [a for a in args if not isinstance(a, int)]
        for name in [op] + [a[0] for a in nested]:
            if name not in deps:
                deps.append(name)
        outer = (op, args[:args.index(nested[0])] if nested else args)
        for name, slots in [outer] + nested:
            depths = {max(slots[:k]) + 1: k for k in range(1, len(slots) + 1)}
            for depth, k in sorted(depths.items()):
                if depth < m.arity:
                    bound.setdefault((name, slots[:k]), f"p{len(bound)}")

    def chain(op, slots):
        for k in range(len(slots), 0, -1):
            name = bound.get((op, slots[:k]))
            if name:
                return name + "".join(f"[x{s}]" for s in slots[k:])
        return op + "".join(f"[x{s}]" for s in slots)

    lines = []
    for c, (op, args) in m.terms:
        update = f"out[l] {'+=' if c > 0 else '-='} {'' if abs(c) == 1 else f'{abs(c)} * '}"
        nested = [p for p, a in enumerate(args) if not isinstance(a, int)]
        if not nested:
            lines += [f"for l, w in {chain(op, args)}:", f"    {update}w"]
            continue
        p = nested[0]
        outer = chain(op, args[:p]) + "[m]" + "".join(f"[x{s}]" for s in args[p + 1:])
        lines += [f"for m, v in {chain(*args[p])}:", f"    for l, w in {outer}:",
                  f"        {update}v * w"]
    defs = {d: [] for d in range(m.arity + 1)}
    for (op, slots), name in sorted(bound.items(), key=lambda kv: (max(kv[0][1]), len(kv[0][1]))):
        defs[max(slots) + 1].append(f"{name} = {chain(op, slots[:-1])}[x{slots[-1]}]")
    start = {s: f"x{prev}{' + 1' if sign < 0 else ''}, "
             for slots, sign in blocks for prev, s in zip(slots, slots[1:])}

    src = [f"def make(sizes, size, {', '.join(deps)}):", "    def sweep():",
           "        out, zero = [0] * size, [0] * size"]
    for d in range(m.arity):
        pad = "        " + "    " * d
        src += [f"{pad}for x{d} in range({start.get(d, '')}sizes[{d}]):"]
        src += [f"{pad}    {h}" for h in defs[d + 1]]
    keep = f"yield ({', '.join(f'x{s}' for s in range(m.arity))},), out"
    pad = "        " + "    " * m.arity
    src += [pad + s for s in lines + ["if out != zero:", "    " + keep, "    out = [0] * size"]]
    src += ["    return sweep"]
    return "\n".join(src) + "\n", deps


def _contraction_source(m: Identity) -> tuple[str, list]:
    """Source of make(*groups) for m, and the (operation, position) of each
    group it takes: the nonzeros of a table by their index at a position.

    make returns chunk(x0): a dict from (x0, x1, ..., l) to the value-l
    coordinate of m at that tuple, summed over the nonzeros of every term's
    tables whose slots bind x0, with zero sums possibly kept, and the number
    of contributions made.  A term with a nested argument joins its inner
    table's nonzeros to the outer table's with the inner value at the
    nested position: by the inner index of slot 0 then the nested position
    when the inner term binds slot 0, else by the outer index of slot 0
    then the inner value.  Every term uses each slot once, so each
    contribution lands on one whole tuple.
    """
    deps: list[tuple[str, int]] = []

    def group(op, q):
        if (op, q) not in deps:
            deps.append((op, q))
        return f"g{deps.index((op, q))}"

    def names(slots):  # unpacking targets: slot 0 is bound by the chunk
        return ", ".join(s if isinstance(s, str) else "_" if s == 0 else f"x{s}" for s in slots)

    key = f"k = ({''.join(f'x{s}, ' for s in range(m.arity))}l)"
    lines = []
    for c, (op, args) in m.terms:
        add = f"acc[k] = get(k, 0) {'+' if c > 0 else '-'} {'' if abs(c) == 1 else f'{abs(c)} * '}"
        nested = [p for p, a in enumerate(args) if not isinstance(a, int)]
        if not nested:
            lines += [f"rows = {group(op, args.index(0))}.get(x0, ())", "made += len(rows)",
                      f"for {names(args)}, l, w in rows:", f"    {key}", f"    {add}w"]
            continue
        p = nested[0]
        inner, slots = args[p]
        if 0 in slots:
            first = f"{names(slots + ('m', 'v'))} in {group(inner, slots.index(0))}"
            rows = group(op, p)
            then = names(args[:p] + ("_",) + args[p + 1:] + ("l", "w"))
        else:
            first = f"{names(args[:p] + ('m',) + args[p + 1:] + ('l', 'w'))} in " \
                    f"{group(op, args.index(0))}"
            rows, then = group(inner, len(slots)), names(slots + ("_", "v"))
        lines += [f"for {first}.get(x0, ()):", f"    rows = {rows}.get(m, ())",
                  "    made += len(rows)", f"    for {then} in rows:",
                  f"        {key}", f"        {add}v * w"]
    src = [f"def make({', '.join(f'g{i}' for i in range(len(deps)))}):", "    def chunk(x0):",
           "        acc, made = {}, 0", "        get = acc.get"]
    src += ["        " + line for line in lines] + ["        return acc, made", "    return chunk"]
    return "\n".join(src) + "\n", deps


def _exec(src: str, label: str, name: str):
    namespace: dict = {}
    exec(compile(src, f"<ternalg {label}>", "exec"), namespace)
    return namespace[name]


def _scale(ops: _Ops, op: str) -> int:
    """The integer factor of op's table on ops over its exact one: a
    tensor's own, a sub-map's its `_multipliers` lcm."""
    s = ops.scales.get(op)
    if s is None:
        s = ops.scales[op] = _multipliers(ops, _SUBMAPS[op])[0]
    return s


def _multipliers(ops: _Ops, m: Identity) -> tuple[int, tuple[int, ...]]:
    """L, and each term's integer multiplier L / s, where s is the product of
    the scales of the term's operations and L the lcm of every term's s: with
    each coefficient times its multiplier, m on ops's integer tables is L
    times its exact value, so it vanishes exactly when that does."""
    scales = [prod(_scale(ops, a[0]) for a in args if not isinstance(a, int)) * _scale(ops, op)
              for _, (op, args) in m.terms]
    L = lcm(*scales)
    return L, tuple(L // s for s in scales)


_COMPILED: dict = {}
_GENERATED = {"sweep": "sweep", "contract": "contraction"}


def _make_scanner(ops: _Ops, m: Identity, mode: str = "sweep", blocks=()):
    """m's sweep() on ops, over the representatives of the certified
    `blocks` (every tuple without), or its chunk(x0) in mode "contract",
    from `_source` with each coefficient times its term's multiplier (all 1
    on integer tensors), so its values are L times the exact ones; compiled
    once per source."""
    mults = _multipliers(ops, m)[1]
    if any(k != 1 for k in mults):
        m = Identity(m.name, tuple((c * k, t) for (c, t), k in zip(m.terms, mults)),
                     m.sorts, m.out, m.tensors)
    hit = _COMPILED.get((m, mode, blocks))
    if hit is None:
        src, deps = _source(m, mode, blocks)
        log.debug("generated %s for %s:\n%s", _GENERATED[mode], m.name, src)
        hit = _COMPILED[(m, mode, blocks)] = (_exec(src, m.name, "make"), deps)
    make, deps = hit
    if mode == "contract":
        return make(*(_groups(ops, op, q) for op, q in deps))
    return make(*_shape(ops, m), *(_table(ops, d) for d in deps))


def _representative_count(sizes: tuple[int, ...], blocks, upto: Optional[tuple] = None) -> int:
    """How many tuples a sweep over the certified `blocks` visits: all of
    them, or those ranked up to and including `upto`, in closed form.  Past
    a prefix, the k unbound slots of a block rise through the N values its
    last bound slot leaves, in comb(N + k - 1, k) ways (symmetric; a slot in
    no block is a symmetric block of its own) or comb(N, k) (alternating).
    """
    after = {s: (prev, sign < 0) for slots, sign in blocks for prev, s in zip(slots, slots[1:])}
    inside = {s for slots, _ in blocks for s in slots}
    blocks = tuple(blocks) + tuple(((s,), 1) for s in range(len(sizes)) if s not in inside)

    def low(t, s):  # the least value slot s may take after the prefix t
        prev, strict = after.get(s, (None, False))
        return 0 if prev is None else t[prev] + strict

    def completions(t):
        count = 1
        for slots, sign in blocks:
            rest = [s for s in slots if s >= len(t)]
            if rest:
                k, N = len(rest), sizes[rest[0]] - low(t, rest[0])
                count *= comb(N + k - 1, k) if sign > 0 else comb(N, k)
        return count

    if upto is None:
        return completions(())
    count = 0
    for d, u in enumerate(upto):
        first = low(upto, d)
        if u < first:
            return count
        count += sum(completions(upto[:d] + (v,)) for v in range(first, u))
    return count + 1


def _orbit(t: tuple, blocks) -> set:
    """Every tuple that permutes the values of t within each block."""
    orbit = {t}
    for slots, _ in blocks:
        moved = set()
        for u in orbit:
            for values in itertools.permutations([u[s] for s in slots]):
                v = list(u)
                for s, x in zip(slots, values):
                    v[s] = x
                moved.add(tuple(v))
        orbit = moved
    return orbit


def _rank(t: tuple, sizes: tuple[int, ...]) -> int:
    """t's position in the lexicographic order of its range."""
    r = 0
    for i, n in zip(t, sizes):
        r = r * n + i
    return r


def _shape(ops: _Ops, m: Identity) -> tuple[tuple[int, ...], int]:
    """The size of each slot's range of m, and of its value, on ops."""
    return tuple(ops.sizes[s] for s in m.sorts), ops.sizes[m.out]


def _built(ops: _Ops, op: str) -> tuple[_Ops, str]:
    """The `_Ops` that holds op's table, and op's name there: ops's base when
    it has every tensor op reads, and base's own name for a tensor that is
    one of base's; else ops and op.  The support is made there on first
    read: a tensor's from its constants, a sub-map's by `_tabulate`."""
    while ops.base is not None and _TENSORS_OF[op] <= ops.base.tensors.keys():
        ops = ops.base
    if op in ops.shared:
        return _built(ops.base, ops.shared[op])
    if op not in ops.support:
        if op in ops.tensors:
            scale = ops.scales[op]
            ops.support[op] = [idx + (v.numerator * scale // v.denominator,)
                               for idx, v in ops.tensors[op].nonzeros()]
        else:
            _tabulate(ops, op)
    return ops, op


def _support(ops: _Ops, op: str) -> list:
    """The nonzeros (i1, ..., value index, value) of a tensor or sub-map, in
    rank order: every table's first form, from which the others are laid
    out."""
    home, name = _built(ops, op)
    return home.support[name]


def _table(ops: _Ops, op: str):
    """The nested sparse rows of a tensor or sub-map, laid out from its
    support over the sizes of its slots' sorts when first read: the one
    place rows are laid out."""
    home, name = _built(ops, op)
    rows = home.tables.get(name)
    if rows is None:
        rows = home.tables[name] = nested_rows([home.sizes[s] for s in _SIGNATURES[name][0]],
                                               home.support[name])
    return rows


def _groups(ops: _Ops, op: str, q: int) -> dict:
    """op's nonzeros by their index at position q (the value's at q = arity)."""
    home, name = _built(ops, op)
    hit = home.groups.get((name, q))
    if hit is None:
        hit = home.groups[(name, q)] = {}
        for e in home.support[name]:
            hit.setdefault(e[q], []).append(e)
    return hit


# The planner's cost model, in tenths of a microsecond: a tuple scan pays
# _TUPLE_COST per tuple, _TERM_COST per term of each tuple and _STEP_COST per
# step of its inner loops; a contraction _CHUNK_COST per chunk, _PROBE_COST per
# probe and _CONTRIBUTION_COST per contribution (see `_contributions`).
# Measured by tools/plan_costs.py, which fits both loops' times over every
# identity and sub-map on random n = 7 bundles of four densities: on an x86_64
# vCPU with CPython 3.11, three runs fitted 0.9-1.4, 0.45-0.72, 1.35-1.40, 8-9,
# 1.05-2.82 and 3.4-3.6 (the probe cost in later runs, whose other five were
# 0.5-0.8 of these), and these constants predict the sweeps' measured times
# within 0.5x to 1.8x, with the middle half of the maps' ratios in 0.7x-1.1x.
# The contraction is taken only when it is estimated to save more than
# _MARGIN, 40 ms; below that the tuple scan, with its pinned sources and
# certified symmetries, is kept.  No test restates these values: the
# planner's tests set their own, and the rest force the path they test.
# The margin is that wide only for the benchmark, whose calibration sampler
# fails when a first operation ends before its first tick, so lowering it
# waits on that fix alone (ROADMAP item 1, stage 1): at a margin of 0 all
# three in-process workloads trip it, their first traced operations ending
# cold in 8-12 ms, before the 20 ms tick (x86_64 vCPU, CPython 3.11).
_TUPLE_COST, _TERM_COST, _STEP_COST = 1.1, 0.6, 1.4
_CHUNK_COST, _PROBE_COST, _CONTRIBUTION_COST = 10, 2, 4
_MARGIN = 4 * 10 ** 5


def _contributions(ops: _Ops, m: Identity) -> tuple[int, int]:
    """The probes a contraction of m on ops makes, and its contributions: a
    term's are the nonzeros of its table, or, with a nested argument, the
    sum over values v of (inner nonzeros of value v) times (outer nonzeros
    with v at the nested position); such a term probes one table once per
    nonzero of the other, the one binding slot 0 (`_contraction_source`)."""
    probes = contributions = 0
    for _, (op, args) in m.terms:
        nested = [(p, a) for p, a in enumerate(args) if not isinstance(a, int)]
        if not nested:
            contributions += len(_support(ops, op))
            continue
        (p, (inner, slots)), = nested
        outer, values = _groups(ops, op, p), _groups(ops, inner, len(slots))
        probes += len(_support(ops, inner if 0 in slots else op))
        contributions += sum(len(es) * len(outer.get(v, ())) for v, es in values.items())
    return probes, contributions


def _plan(ops: _Ops, m: Identity, rows: int) -> bool:
    """Whether to evaluate m on ops by contraction rather than by scanning
    `rows` tuples (its representatives, or its whole range).

    Over the whole range a tuple scan takes a step for each of the
    contraction's contributions (see `_contributions`), so the mean row work
    of a tuple is the per-tuple cost plus contributions / range.  Both paths
    are exact, so the choice changes the time, never a result.

    When the per-tuple costs alone stay within _MARGIN, no contraction can
    win (it pays more per contribution than the scan pays per step, and the
    scan takes at most one step per contribution), and none is estimated.
    """
    base = rows * (_TUPLE_COST + _TERM_COST * len(m.terms))
    if base <= _MARGIN and not ops.path:
        log.debug("plan %s, %s: tuple scan; %d tuples ~%.3f ms before their steps, "
                  "within the margin", m.name, _dims(ops.sizes), rows, base / 1e4)
        return False
    probes, contributions = _contributions(ops, m)
    sizes = _shape(ops, m)[0]
    scan = base + _STEP_COST * rows * contributions / prod(sizes)
    contract = _CHUNK_COST * sizes[0] + _PROBE_COST * probes + _CONTRIBUTION_COST * contributions
    chosen = ops.path == "contract" if ops.path else contract + _MARGIN < scan
    log.debug("plan %s, %s: %s%s; contraction of %d contributions ~%.3f ms, "
              "tuple scan of %d tuples ~%.3f ms", m.name, _dims(ops.sizes),
              "contraction" if chosen else "tuple scan", " (forced)" if ops.path else "",
              contributions, contract / 1e4, rows, scan / 1e4)
    return chosen


def _nonzeros(ops: _Ops, m: Identity, blocks=()) -> tuple[Optional[list], Iterator]:
    """(made, nonzeros) for m on the integer tables ops: nonzeros yields
    (t, out) for each tuple t at which m is nonzero, in rank order, out
    being m's dense value at t, a list of its own.

    `_plan` picks the path.  A sweep visits the representatives of the
    certified `blocks` (every tuple without), and made is None.  A
    contraction covers every tuple, chunk by chunk, and made is a one-item
    list of the contributions of the chunks contracted so far, so a
    consumer that stops early reads what it paid for."""
    sizes, size = _shape(ops, m)
    if not _plan(ops, m, _representative_count(sizes, blocks)):
        return None, _make_scanner(ops, m, "sweep", blocks)()
    chunk, made = _make_scanner(ops, m, "contract"), [0]

    def contracted():
        for x0 in range(sizes[0]):
            acc, count = chunk(x0)
            made[0] += count
            values: dict = {}
            for k in sorted(k for k, v in acc.items() if v):
                values.setdefault(k[:-1], [0] * size)[k[-1]] = acc[k]
            yield from values.items()

    return made, contracted()


def _tabulate(ops: _Ops, op: str) -> None:
    """Build the support of the sub-map op on the integer tables ops.  Each
    term is a product of its factors' entries, its operation's and its
    nested one's, so when every term has an empty factor (an empty support,
    a sub-map factor's built first) the support is empty, and no plan or
    scanner is made; a forced `path` builds it by that path all the same.
    Otherwise it is `_nonzeros` flattened."""
    sub = _SUBMAPS[op]
    start = time.perf_counter()
    factors = [[o] + [a[0] for a in args if not isinstance(a, int)] for _, (o, args) in sub.terms]
    if not ops.path and all(any(not _support(ops, f) for f in term) for term in factors):
        entries, path = [], "an empty factor in every term"
    else:
        made, nonzeros = _nonzeros(ops, sub)
        entries = [t + (l, v) for t, out in nonzeros for l, v in enumerate(out) if v]
        path = "tuple scan" if made is None else "contraction"
    ops.support[op] = entries
    log.debug("built %s table, %s: %d entries, scale %d, by %s in %.4f s", sub.name,
              _dims(ops.sizes), len(entries), _scale(ops, op), path, time.perf_counter() - start)


def _submap_tensor(owner, name: str) -> Tensor:
    """The structure constants of the sub-map `name`, shaped by its sorts:
    its support on owner's integer tables, each value over the table's
    scale.  So generated loops run on integer tables alone, and the exact
    re-check, which applies each tensor from its own constants, stays
    independent of them."""
    m = _SUBMAPS[name]
    _check_components(owner, {f"sub-map {name!r}": m.tensors})
    ops = _ops(owner)
    scale = _scale(ops, name)
    return Tensor(tuple(ops.sizes[s] for s in m.sorts + (m.out,)),
                  ((e[:-1], Fraction(e[-1], scale)) for e in _support(ops, name)))


# ---------------------------------------------------------------------------
# conditions and the scan driver


def _failures(ops: _Ops, m: Identity, symmetry: Optional[Symmetry], passed: set,
              budget: int) -> tuple[list, int]:
    """The first `budget` tuples at which m fails on the integer tables ops,
    in rank order, and the number of tuples evaluated: up to and including
    the last one returned when the budget fills, else all of them.  A
    tuple's rank is its position in lexicographic order, the mixed-radix
    number of its values.

    `_nonzeros` gives the failing tuples.  A sweep runs over one
    representative per orbit of the certified `symmetry` once every identity
    it assumes is in `passed`; a contraction covers every tuple.  Every
    member of a failing representative's orbit fails too, its defect being
    +/- the representative's.  Members wait on a heap and are released up
    to each failing representative as it is yielded, and at the end: a
    failure ranked below a released member has its orbit's smallest member,
    its representative, ranked below too, so it was yielded already.
    """
    sizes = _shape(ops, m)[0]
    reduced = symmetry is not None and passed.issuperset(symmetry.assumes)
    blocks = symmetry.blocks if reduced else ()
    made, nonzeros = _nonzeros(ops, m, blocks)
    orbits = blocks if made is None else ()
    found, waiting = [], []
    for t, _ in nonzeros:
        for u in _orbit(t, orbits):
            heapq.heappush(waiting, u)
        while waiting and waiting[0] <= t and len(found) < budget:
            found.append(heapq.heappop(waiting))
        if len(found) == budget:
            break
    else:
        found += sorted(waiting)[:budget - len(found)]
    stop = found[-1] if len(found) == budget else None
    evaluated = prod(sizes) if stop is None else _rank(stop, sizes) + 1
    if made is not None:
        log.debug("scan %s: contraction; %d contributions made, %d of %d tuples "
                  "covered", m.name, made[0], evaluated, prod(sizes))
        return found, evaluated
    path = (f"symmetry-reduced over {symmetry}" if reduced
            else "full range" + (f", certified {symmetry} unused" if symmetry else ""))
    log.debug("scan %s: %s; %d of %d tuples scanned", m.name, path,
              _representative_count(sizes, blocks, stop), prod(sizes))
    return found, evaluated


def run_conditions(kind: str, owner, max_counterexamples: int) -> CheckReport:
    """Scan the maps of `kind` (`KINDS`) on owner's tables, in order, and
    report their first k failures.

    An owner that is a `_Maps` over an algebra bundle scans only the maps of
    the tensors that bundle carries, or all of them when it carries none,
    so that the check names the first one missing.  Every component the
    maps read is checked first, a missing one raising as "<kind> condition
    '<map>'".  The budget k is shared: the run stops at the map that fills
    it.  A bundle's identities and a representation's conditions get
    symmetry certificates, each assuming the identities listed before it;
    an operator owner's (`_Maps`), in which the certifier finds no
    symmetry, scan the full range.  Every failure is re-evaluated exactly at
    its basis vectors by `_evaluate`, and its residual must be nonzero.
    """
    maps = [_MAPS[name] for name in KINDS[kind]]
    if isinstance(owner, _Maps) and isinstance(owner.base, AlgebraBundle):
        tensors = owner.base._components()[0]
        maps = [m for m in maps if all(
            tensors[op] is not None for op in m.tensors & tensors.keys())] or maps
    _check_components(owner, {f"{kind} condition {m.name!r}": m.tensors for m in maps}, kind)
    ops = _ops(owner)
    budget = max(1, max_counterexamples)
    counterexamples: list[Counterexample] = []
    checked: list[str] = []
    passed: set[str] = set()
    tuple_count = 0
    unit = functools.cache(Vec.basis)  # each re-check's basis vectors, built once
    for pos, m in enumerate(maps):
        checked.append(m.name)
        symmetry = None
        if not isinstance(owner, _Maps):
            symmetry = _certificate(m, tuple(a.name for a in maps[:pos]
                                             if a.name in _SYMMETRY_OF))
        found, evaluated = _failures(ops, m, symmetry, passed, budget - len(counterexamples))
        if not found:
            passed.add(m.name)
        tuple_count += evaluated
        for idx in found:
            units = [unit(ops.sizes[s], i) for s, i in zip(m.sorts, idx)]
            residual = Vec(_evaluate(ops, m, units))
            log.debug("exact re-check of %s at %s: residual %s", m.name, idx, residual)
            if residual.is_zero():
                raise InternalError(
                    f"the scan flagged {m.name} at {idx}, but its exact residual is zero"
                )
            counterexamples.append(Counterexample(m.name, idx, residual))
        if len(counterexamples) >= budget:
            break
    return CheckReport(
        passed=not counterexamples,
        kind=kind,
        checked_identities=tuple(checked),
        counterexamples=tuple(counterexamples),
        tuple_count=tuple_count,
    )


class _Maps(Value, eq=False):
    """Maps and forms over `base`, a bundle or a representation: the owner
    of an operator check's tables.  `tensors` holds the maps' tensors,
    whose shapes give the sizes of the sorts base lacks."""

    base: object
    tensors: dict

    def _components(self):
        return self.tensors, self.base

    def tensor(self, name: str) -> Tensor:
        """The structure constants of the sub-map `name`."""
        return _submap_tensor(self, name)


def _require(report: CheckReport, error, message: str) -> None:
    """A builder's precondition: error(message, report) unless report passed."""
    if not report.passed:
        raise error(message, report)


# ---------------------------------------------------------------------------
# public evaluators and checkers


def _eval_map(owner, m: Identity, args: Sequence[Vec], context: str = "sub-map") -> Vec:
    """m at exact vectors, on owner's tensors."""
    _check_components(owner, {f"{context} {m.name!r}": m.tensors})
    ops = _ops(owner)
    for v, s in zip(args, m.sorts):
        if v.dim != ops.sizes[s]:
            raise DimensionMismatch(f"argument has dim {v.dim}, "
                                    f"{'module' if s == 'V' else 'bundle'} has dim {ops.sizes[s]}")
    return Vec(_evaluate(ops, m, args))


def eval_defect(identity: str, b: AlgebraBundle, args: Sequence[Vec]) -> Vec:
    """Evaluate LHS - RHS of the named identity at arbitrary vectors.

    Zero iff the identity holds at these arguments; multilinearity makes
    vanishing on all basis tuples equivalent to vanishing everywhere.
    """
    ident = IDENTITIES.get(identity)
    if ident is None:
        raise UnknownIdentity(f"unknown identity {identity!r}")
    if len(args) != ident.arity:
        raise ArityMismatch(
            f"identity {identity!r} takes {ident.arity} arguments, got {len(args)}"
        )
    return _eval_map(b, ident, args, "identity")


def check_axioms(kind, b: AlgebraBundle, *, max_counterexamples: int = 1) -> CheckReport:
    """Exhaustively verify the identity list of the given structure kind."""
    kind = coerce_kind(kind)
    return run_conditions(kind.value, b, max_counterexamples)


def leibnizator3(b: AlgebraBundle, x1: Vec, x2: Vec, x3: Vec, x4: Vec) -> Vec:
    """[x1,x2,x3*x4] - x3*[x1,x2,x4] - [x1,x2,x3]*x4 (zero iff Leibniz holds here)."""
    return eval_defect("leibniz-np", b, (x1, x2, x3, x4))


def leibnizator2(b: AlgebraBundle, x: Vec, y: Vec, z: Vec) -> Vec:
    """[x, y*z] - [x,y]*z - y*[x,z] over the binary bracket."""
    return _eval_map(b, _SUBMAPS["leib2"], (x, y, z))


def f1(b: AlgebraBundle, x1: Vec, x2: Vec, x3: Vec, x4: Vec) -> Vec:
    """F1 of a pre-structure bundle (product slot = Zinbiel, bracket slot = 3-pre-Lie)."""
    return _eval_map(b, _SUBMAPS["f1"], (x1, x2, x3, x4))


def f2(b: AlgebraBundle, x1: Vec, x2: Vec, x3: Vec, x4: Vec) -> Vec:
    """F2 of a pre-structure bundle; the sub-adjacent product is formed internally."""
    return _eval_map(b, _SUBMAPS["f2"], (x1, x2, x3, x4))


def k_op(b: AlgebraBundle, x: Vec, y: Vec, z: Vec, u: Vec) -> Vec:
    """[x,y,z*u] + [x,z,u*y] + [x,u,y*z]: the cyclic operator of the coherence set."""
    return _eval_map(b, _SUBMAPS["kmap"], (x, y, z, u))


def check_homomorphism(f: InterMap, src: AlgebraBundle, dst: AlgebraBundle, *,
                       max_counterexamples: int = 1) -> CheckReport:
    """Check that f carries every tensor src has onto dst's tensor of the same kind."""
    maps = _Maps(src, {
        "f": f.tensor, "mulB": dst.product, "br3B": dst.bracket,
        "br2B": dst.binary_bracket})
    return run_conditions("homomorphism", maps, max_counterexamples)
