"""Every pass of the fast path, against the random-point oracle.

`random_point` evaluates each identity and representation condition at
seeded random integer points, applying every operation by one loop over
its tensor's nonzeros, so it shares nothing with the tables, supports,
plans or generated loops a scan runs on.  For every identity or condition
a check passes, on either forced path, the defect must vanish at every
point.  A nonzero defect of degree d vanishes at one point with
probability at most d / 2^21 <= 6 / 2^21 < 2.9e-6 (Schwartz-Zippel), so a
false pass, a scan that skips tuples because a sort's size is read too
small included, goes unseen with probability below (2.9e-6)^POINTS.  This
is the only independent check of the fast path past n = 8, where the dense
oracles stop.
"""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest

import random_point
import structure_oracle as oracle
from structure_oracle import arity
from test_rep_fastpath import random_rep
from test_structure_fastpath import FAILING, dense, forced, random_bundle, tfm4_trunc4
from ternalg import linalg, schema, structures
from ternalg.catalog import (
    CATALOG_DOC,
    catalog_document,
    fil4,
    fil4_adjoint,
    fil4_rb,
    r_int,
    trunc,
)
from ternalg.constructions import direct_sum
from ternalg.errors import BundleError, DimensionMismatch, MissingRep, MissingTensor
from ternalg.linalg import Tensor, Vec
from ternalg.operators import induced_pre_fmanifold
from ternalg.representations import (
    RepKind,
    adjoint_rep,
    check_representation,
    fix_slot_rep,
    l1,
    l2,
    l3,
    semidirect,
)
from ternalg.structures import (
    AlgebraBundle,
    StructureKind,
    check_axioms,
    dimension_cap,
    eval_defect,
    f1,
    k_op,
    leibnizator2,
    set_dimension_cap,
)

POINTS = 2
PATHS = ("tuples", "contract")


def passes(owners, check, kinds):
    """The identities or conditions that `check` passes, over every kind
    whose components the owners have; the owners' reports agree."""
    passed = set()
    for kind in kinds:
        try:
            reports = [check(kind, owner) for owner in owners]
        except (MissingRep, MissingTensor):
            continue
        assert all(r == reports[0] for r in reports), kind
        failed = {ce.identity for ce in reports[0].counterexamples}
        passed.update(n for n in reports[0].checked_identities if n not in failed)
    return passed


def assert_passes_hold(build, kinds=tuple(StructureKind), paths=PATHS) -> set:
    """Every identity a check of `kinds` passes on the bundle build(path)
    vanishes at POINTS random points; returns the identities."""
    owners = [build(path) for path in paths]
    passed, b, rng = passes(owners, check_axioms, kinds), owners[0], random.Random(0)
    for name in sorted(passed):
        for _ in range(POINTS):
            pt = random_point.point(rng, [b.dim] * arity(name))
            assert random_point.structure_defect(name, b, pt).is_zero(), name
    return passed


def assert_rep_passes_hold(build, kinds=tuple(RepKind), paths=PATHS) -> set:
    """Every condition a check of `kinds` passes on the representation
    build(path) vanishes at POINTS random points; returns the conditions."""
    owners = [build(path) for path in paths]
    passed, r, rng = passes(owners, check_representation, kinds), owners[0], random.Random(0)
    for name in sorted(passed):
        for _ in range(POINTS):
            sizes = [r.algebra.dim] * random_point.rep_arity(name) + [r.module_dim]
            assert random_point.rep_defect(name, r, random_point.point(rng, sizes)).is_zero(), name
    return passed


def catalog(name, path):
    """The catalog document `name`, its bundle's plans, and so its
    representation's, forced to path."""
    doc = schema.parse_document(catalog_document(name))[0]
    forced(doc.bundle, path)
    return doc


def sd2():
    sd = semidirect(adjoint_rep(fil4()))
    return direct_sum(sd, sd)


@pytest.mark.parametrize("name", sorted(CATALOG_DOC))
def test_catalog_passes_hold_at_random_points(name):
    assert assert_passes_hold(lambda path: catalog(name, path).bundle)
    if catalog(name, None).rep is not None:
        assert assert_rep_passes_hold(lambda path: catalog(name, path).rep)


# n = m = 16: three-lie-rep and ternary-fmanifold-rep each sweep rho-skew
# and kasymov-i over their certified representatives on the forced tuple
# path, and contract the full range on the other; ternary-fmanifold-rep
# takes over a second on the forced tuple path
REPS = {
    "adjoint_sd2": (lambda: adjoint_rep(sd2()), ("three-lie-rep", "ternary-fmanifold-rep")),
    "adjoint_inter16": (lambda: adjoint_rep(tfm4_trunc4()),
                        ("three-lie-rep", "comm-assoc-rep", "ternary-fmanifold-rep",
                         "dual-conditions")),
    # rho a single-argument action over a binary bracket: the fmanifold-rep conditions
    "fix_slot_fil4": (lambda: fix_slot_rep(adjoint_rep(fil4()), fil4().basis(3)), tuple(RepKind)),
}


@pytest.mark.parametrize("name", sorted(REPS))
def test_rep_passes_hold_at_random_points(name):
    make, kinds = REPS[name]

    def build(path):
        r = make()
        forced(r.algebra, path)
        return r

    assert assert_rep_passes_hold(build, kinds)


BUNDLES = {
    "sd2": sd2, "inter16": tfm4_trunc4,
    # pre-structures: the ternary pre-F-manifold and pre-Nambu-Poisson identities
    "pre_fil4": lambda: induced_pre_fmanifold(fil4_rb(), fil4_adjoint()),
    "pre_r_int4": lambda: induced_pre_fmanifold(r_int(4), adjoint_rep(trunc(4))),
}


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_bundle_passes_hold_at_random_points(name):
    assert assert_passes_hold(lambda path: forced(BUNDLES[name](), path))


# The dense copies are step-bound: a forced contraction of one quintic
# identity takes 30-40 s there, so they run only as planned, which scans
# the tuples of those identities, on kinds that reach every identity they
# pass but hm3 on dense(inter16), whose scan alone takes about 2 s.
DENSE = {"sd2": (sd2, ("coherence",)), "inter16": (tfm4_trunc4, ("comm-assoc", "3-lie"))}


@pytest.mark.parametrize("name", sorted(DENSE))
def test_dense_passes_hold_at_random_points(name):
    build, kinds = DENSE[name]
    assert assert_passes_hold(lambda path: dense(build()), kinds, (None,))


# n = 32: the quintic identities contract as planned, and a forced tuple
# scan of coherence takes 16 s, so the tuple path runs the cubic kinds.
N32 = {"sd2_sd2": lambda: direct_sum(sd2(), sd2()),
       "inter16_inter16": lambda: direct_sum(tfm4_trunc4(), tfm4_trunc4())}


@pytest.mark.parametrize("name", sorted(N32))
def test_n32_passes_hold_at_random_points(name):
    cap = dimension_cap()
    set_dimension_cap(32)
    try:
        every = assert_passes_hold(lambda path: forced(N32[name](), path), paths=("contract",))
        cubic = assert_passes_hold(lambda path: forced(N32[name](), path),
                                   ("comm-assoc", "zinbiel"), PATHS)
    finally:
        set_dimension_cap(cap)
    assert {"fundamental", "hm3"} <= every and {"comm", "assoc"} <= cubic


@pytest.mark.parametrize("case", ["sd_near_miss", "tfm4_trunc4"])
def test_a_failing_identity_is_nonzero_at_random_points(case):
    """The net is not vacuous: the identity a near-miss fails at is nonzero
    at each random point."""
    build, kind = FAILING[case]
    b = build()
    name = check_axioms(kind, b).counterexamples[0].identity
    rng = random.Random(0)
    for _ in range(POINTS):
        pt = random_point.point(rng, [b.dim] * arity(name))
        assert not random_point.structure_defect(name, b, pt).is_zero(), name


# -- the exact evaluator's one operation against the oracle's loop ------------------

# every shape of tensor the package builds: a product or binary bracket, a
# ternary bracket, a pair and a single action, a map, a form, a trace and
# the scalar multiplication
SHAPES = ("nnn", "nnnn", "nnmm", "nmm", "mn", "nn1", "n1", "1nn")


@pytest.mark.parametrize("shape", SHAPES)
def test_tensor_apply_matches_the_oracle_loop(shape):
    """`Tensor.apply`, which the exact evaluator applies every tensor by,
    equals `random_point.apply`, the oracle's own loop over the nonzeros,
    on a seeded tensor of each shape with non-unit denominators: at every
    tuple of basis vectors, with a zero vector in each slot, and at random
    rational vectors with non-unit denominators."""
    rng = random.Random(f"apply:{shape}")
    n, m = rng.randint(2, 5), rng.randint(2, 4)
    dims = [{"n": n, "m": m, "1": 1}[c] for c in shape]
    t = Tensor(dims, [(idx, Fraction(rng.choice((-3, -1, 1, 5)), rng.choice((2, 7))))
                      for idx in itertools.product(*map(range, dims)) if rng.random() < 0.5])
    assert t.den_lcm() > 1
    lead = dims[:-1]
    cases = [[Vec.basis(d, i) for d, i in zip(lead, idx)]
             for idx in itertools.product(*map(range, lead))]
    cases += [[Vec.zero(d) if s == z else Vec.basis(d, d - 1) for s, d in enumerate(lead)]
              for z in range(len(lead))]
    cases += [[Vec([Fraction(rng.randint(-9, 9), rng.choice((1, 4, 5, 6))) for _ in range(d)])
               for d in lead] for _ in range(5)]
    nonzero = 0
    for vecs in cases:
        got = t.apply(*vecs)
        assert got == random_point.apply(t, *vecs), vecs
        nonzero += not got.is_zero()
    assert nonzero > len(cases) // 4
    with pytest.raises(DimensionMismatch):
        t.apply(*[Vec.zero(d + 1) for d in lead])
    with pytest.raises(DimensionMismatch):
        t.apply(*[Vec.zero(d) for d in lead[1:]])


def _unread(*_):
    raise AssertionError("an exact evaluator read a scan table or support")


def test_exact_evaluators_read_no_table():
    """With `_table`, `_groups`, `_support` and `nested_rows` made to raise,
    every public evaluator still gives the oracle's values on fresh owners,
    and a unital bundle is still built and its unit checked: the exact
    evaluator reads each tensor's own constants and no scan table.  That
    holds for a representation with actions of its own and for an adjoint
    one, whose rows are the algebra's, laid out only when a scan reads them."""
    rng = random.Random(11)
    with mock.patch.object(structures, "_table", _unread), \
            mock.patch.object(structures, "_groups", _unread), \
            mock.patch.object(structures, "_support", _unread), \
            mock.patch.object(structures, "nested_rows", _unread), \
            mock.patch.object(linalg, "nested_rows", _unread):
        b, r = random_bundle(7), random_rep(201, False)
        n, m = b.dim, r.module_dim
        x = [Vec([Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(n)])
             for _ in range(5)]
        v = Vec([Fraction(rng.randint(-5, 5), 4) for _ in range(m)])
        with random_point.sparse_operations():
            assert eval_defect("fundamental", b, x) == oracle.FORMULAS["fundamental"](b, *x)
            assert eval_defect("hm3", b, x) == oracle.FORMULAS["hm3"](b, *x)
            assert leibnizator2(b, *x[:3]) == oracle.SUBMAPS["leib2"](b, *x[:3])
            assert f1(b, *x[:4]) == oracle.SUBMAPS["f1"](b, *x[:4])
            assert k_op(b, *x[:4]) == oracle.SUBMAPS["kmap"](b, *x[:4])
        a = r.algebra
        y = [Vec([Fraction(rng.randint(-5, 5), 3) for _ in range(a.dim)]) for _ in range(3)]
        assert l1(r, *y, v) == random_point._l1(r, *y, v)
        assert not l1(r, *y, v).is_zero() and not eval_defect("fundamental", b, x).is_zero()
        adj = adjoint_rep(b)
        for lmap, formula in ((l1, random_point._l1), (l2, random_point._l2),
                              (l3, random_point._l3)):
            assert lmap(adj, *x[:4]) == formula(adj, *x[:4])
        t = trunc(4)
        assert t.mul(t.basis(1), t.basis(2)) == t.basis(3)
        with pytest.raises(BundleError, match="unit fails"):
            AlgebraBundle(4, product=t.product, unit=t.basis(1))
