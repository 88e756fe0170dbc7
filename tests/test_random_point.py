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

import random

import pytest

import random_point
from structure_oracle import arity
from test_structure_fastpath import FAILING, dense, forced, tfm4_trunc4
from ternalg import schema
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
from ternalg.errors import MissingRep, MissingTensor
from ternalg.operators import induced_pre_fmanifold
from ternalg.representations import (
    RepKind,
    adjoint_rep,
    check_representation,
    fix_slot_rep,
    semidirect,
)
from ternalg.structures import StructureKind, check_axioms, dimension_cap, set_dimension_cap

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


# three-lie-rep's conditions lead ternary-fmanifold-rep's, which on
# adjoint_rep(inter16) take over a second on the forced tuple path
REPS = {
    "adjoint_inter16": (lambda: adjoint_rep(tfm4_trunc4()),
                        ("comm-assoc-rep", "ternary-fmanifold-rep", "dual-conditions")),
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
