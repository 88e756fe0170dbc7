import itertools
import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from ternalg.catalog import fil4, trunc
from ternalg.constructions import TraceFunctional, check_induced_condition, check_trace
from ternalg.errors import ArityMismatch, MissingTensor, UnknownIdentity, UnknownKind
from ternalg.linalg import InterMap, Matrix, Tensor, Vec
from ternalg.operators import (
    BilinearForm,
    check_cyclic_2cocycle,
    check_nijenhuis,
    check_relative_rb,
    check_relative_rb_3lie,
    check_relative_rb_comm,
    check_symplectic,
)
from ternalg.representations import (
    REP_CONDITIONS,
    BiRep,
    LinRep,
    RepBundle,
    RepKind,
    adjoint_rep,
    check_representation,
    semidirect,
)
from ternalg.structures import (
    CONDITIONS,
    IDENTITIES,
    KINDS,
    AlgebraBundle,
    StructureKind,
    check_axioms,
    check_homomorphism,
    eval_defect,
    f1,
    f2,
    k_op,
    leibnizator2,
    leibnizator3,
)


def rand_vec(rng, n):
    return Vec([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)])


def zero_bundle(n):
    return AlgebraBundle(n, product=Tensor(n, 3, {}), bracket=Tensor(n, 4, {}))


@pytest.fixture(scope="module")
def f4():
    return fil4()


@pytest.fixture(scope="module")
def t3():
    return trunc(3)


# a raw bundle with interacting nonzero product and bracket; not required to
# satisfy any axioms (the evaluators work on raw tensors)
@pytest.fixture(scope="module")
def raw_mixed():
    prod = Tensor(3, 3, {(0, 0, 0): 1})
    brk = Tensor(
        3, 4,
        {
            (0, 1, 2, 0): 1, (1, 2, 0, 0): 1, (2, 0, 1, 0): 1,
            (1, 0, 2, 0): -1, (0, 2, 1, 0): -1, (2, 1, 0, 0): -1,
        },
    )
    return AlgebraBundle(3, product=prod, bracket=brk)


# -- eval_defect --------------------------------------------------------------

def test_fundamental_on_fil4_tuple(f4):
    e = f4.basis_vectors()
    assert eval_defect("fundamental", f4, (e[0], e[1], e[2], e[3], e[0])).is_zero()


def test_hm3_zero_product_any_tuple(f4):
    rng = random.Random(11)
    args = tuple(rand_vec(rng, 4) for _ in range(5))
    assert eval_defect("hm3", f4, args).is_zero()


def test_assoc_trunc3_t_cubed(t3):
    t = t3.basis(1)
    assert eval_defect("assoc", t3, (t, t, t)).is_zero()


def test_eval_defect_errors(f4, t3):
    with pytest.raises(UnknownIdentity):
        eval_defect("nope", f4, ())
    with pytest.raises(ArityMismatch):
        eval_defect("assoc", t3, (t3.basis(0),))
    with pytest.raises(MissingTensor):
        eval_defect("jacobi", t3, (t3.basis(0), t3.basis(0), t3.basis(0)))


# -- check_axioms -------------------------------------------------------------

def test_fil4_is_three_lie(f4):
    report = check_axioms(StructureKind.THREE_LIE, f4)
    assert report.passed
    assert report.checked_identities == ("skew3", "fundamental")
    assert report.tuple_count == 4**3 + 4**5


def test_fil4_is_ternary_f_manifold(f4):
    assert check_axioms("ternary-f-manifold", f4).passed


def test_broken_skew_detected(f4):
    entries = dict(f4.bracket.nonzeros())
    entries[(0, 1, 2, 3)] = Fraction(2)  # double one orientation only
    b = AlgebraBundle(4, product=f4.product, bracket=Tensor(4, 4, entries))
    report = check_axioms("3-lie", b)
    assert not report.passed
    ce = report.counterexamples[0]
    assert ce.identity == "skew3"
    assert ce.indices == (0, 1, 2)
    assert ce.residual == Vec([0, 0, 0, 5])


def test_trunc4_comm_assoc():
    assert check_axioms("comm-assoc", trunc(4)).passed


def test_counterexample_budget(f4):
    entries = dict(f4.bracket.nonzeros())
    entries[(0, 1, 2, 3)] = Fraction(2)
    b = AlgebraBundle(4, product=f4.product, bracket=Tensor(4, 4, entries))
    report = check_axioms("3-lie", b, max_counterexamples=4)
    assert len(report.counterexamples) == 4
    ranks = [ce.indices for ce in report.counterexamples]
    assert ranks == sorted(ranks)


def test_missing_tensor_for_kind(t3):
    b = AlgebraBundle(3, product=trunc(3).product)
    with pytest.raises(MissingTensor):
        check_axioms("3-lie", b)


# -- evaluators ----------------------------------------------------------------

def test_leibnizator3_zero_cases(f4, t3):
    rng = random.Random(5)
    args = tuple(rand_vec(rng, 4) for _ in range(4))
    assert leibnizator3(f4, *args).is_zero()  # zero product
    args3 = tuple(rand_vec(rng, 3) for _ in range(4))
    assert leibnizator3(t3, *args3).is_zero()  # zero bracket


def test_leibnizator3_semidirect_oracle(f4):
    sd = semidirect(adjoint_rep(f4))
    e = sd.basis_vectors()
    got = leibnizator3(sd, e[0], e[1], e[2], e[3])
    want = (
        sd.br3(e[0], e[1], sd.mul(e[2], e[3]))
        - sd.mul(e[2], sd.br3(e[0], e[1], e[3]))
        - sd.mul(sd.br3(e[0], e[1], e[2]), e[3])
    )
    assert got == want


def test_leibnizator3_raw_oracle(raw_mixed):
    b = raw_mixed
    rng = random.Random(17)
    for _ in range(10):
        x1, x2, x3, x4 = (rand_vec(rng, 3) for _ in range(4))
        want = (
            b.br3(x1, x2, b.mul(x3, x4))
            - b.mul(x3, b.br3(x1, x2, x4))
            - b.mul(b.br3(x1, x2, x3), x4)
        )
        assert leibnizator3(b, x1, x2, x3, x4) == want


def test_leibnizator3_swap_symmetry_when_commutative(raw_mixed):
    for b in (raw_mixed, fil4(), trunc(3)):
        e = b.basis_vectors()
        n = b.dim
        for a, b_, c, d in itertools.product(range(n), repeat=4):
            assert leibnizator3(b, e[a], e[b_], e[c], e[d]) == leibnizator3(
                b, e[a], e[b_], e[d], e[c]
            )


def test_leibnizator2_zero_cases():
    heis = Tensor(3, 3, {(0, 1, 2): 1, (1, 0, 2): -1})
    b = AlgebraBundle(3, product=Tensor(3, 3, {}), binary_bracket=heis)
    rng = random.Random(2)
    assert leibnizator2(b, *(rand_vec(rng, 3) for _ in range(3))).is_zero()
    b2 = AlgebraBundle(3, product=trunc(3).product, binary_bracket=Tensor(3, 3, {}))
    assert leibnizator2(b2, *(rand_vec(rng, 3) for _ in range(3))).is_zero()


def test_f1_f2_zero_pre_structure():
    b = zero_bundle(3)
    rng = random.Random(9)
    args = tuple(rand_vec(rng, 3) for _ in range(4))
    assert f1(b, *args).is_zero()
    assert f2(b, *args).is_zero()


def test_f1_with_zero_diamond(f4):
    b = AlgebraBundle(4, product=Tensor(4, 3, {}), bracket=f4.bracket)
    e = b.basis_vectors()
    assert f1(b, e[0], e[1], e[2], e[3]).is_zero()


def test_f1_f2_match_direct_expansion():
    # oracle: expand the definitions term by term on the induced pre-structure
    from ternalg.catalog import fil4_adjoint, fil4_rb
    from ternalg.operators import induced_pre_fmanifold

    pre = induced_pre_fmanifold(fil4_rb(), fil4_adjoint())
    e = pre.basis_vectors()

    def sym(x, y):
        return pre.mul(x, y) + pre.mul(y, x)

    def cyc(x, y, z):
        return pre.br3(x, y, z) + pre.br3(y, z, x) + pre.br3(z, x, y)

    for idx in itertools.product(range(4), repeat=4):
        x1, x2, x3, x4 = (e[i] for i in idx)
        want1 = (
            pre.br3(x1, x2, pre.mul(x3, x4))
            - pre.mul(x3, pre.br3(x1, x2, x4))
            - pre.mul(cyc(x1, x2, x3), x4)
        )
        want2 = (
            pre.mul(x3, pre.br3(x1, x2, x4))
            + pre.mul(x2, pre.br3(x1, x3, x4))
            - pre.br3(x1, sym(x2, x3), x4)
        )
        assert f1(pre, x1, x2, x3, x4) == want1
        assert f2(pre, x1, x2, x3, x4) == want2


def test_k_op_zero_cases(f4, t3):
    rng = random.Random(4)
    assert k_op(f4, *(rand_vec(rng, 4) for _ in range(4))).is_zero()
    assert k_op(t3, *(rand_vec(rng, 3) for _ in range(4))).is_zero()


def test_k_op_direct_expansion(f4):
    prod = Tensor(4, 3, {(0, 0, 0): 1})
    b = AlgebraBundle(4, product=prod, bracket=f4.bracket)
    rng = random.Random(8)
    for _ in range(10):
        x, y, z, u = (rand_vec(rng, 4) for _ in range(4))
        want = (
            b.br3(x, y, b.mul(z, u))
            + b.br3(x, z, b.mul(u, y))
            + b.br3(x, u, b.mul(y, z))
        )
        assert k_op(b, x, y, z, u) == want


# -- homomorphisms ---------------------------------------------------------------

def test_homomorphism_identity_and_zero(f4):
    assert check_homomorphism(InterMap.identity(4), f4, f4).passed
    assert check_homomorphism(InterMap.zero(4, 4), f4, f4).passed


def test_homomorphism_detects_failure(f4, t3):
    m = Matrix.identity(4).scale(2)
    report = check_homomorphism(InterMap(m), f4, f4)
    assert not report.passed
    assert report.counterexamples[0].identity == "hom-bracket"


# -- structural invariants ---------------------------------------------------------

def test_basis_sufficiency_random_sampling(f4):
    rng = random.Random(101)
    report = check_axioms("ternary-f-manifold", f4)
    assert report.passed
    for name in report.checked_identities:
        from ternalg.structures import IDENTITIES

        arity = IDENTITIES[name].arity
        for _ in range(25):
            args = tuple(rand_vec(rng, 4) for _ in range(arity))
            assert eval_defect(name, f4, args).is_zero()


def test_three_lie_pass_implies_alternating(f4):
    e = f4.basis_vectors()
    assert check_axioms("3-lie", f4).passed
    for i, j in itertools.product(range(4), repeat=2):
        assert f4.br3(e[i], e[i], e[j]).is_zero()
        assert f4.br3(e[i], e[j], e[j]).is_zero()
        assert f4.br3(e[i], e[j], e[i]).is_zero()


def test_pre_lie_subadjacent_is_three_lie():
    from ternalg.catalog import fil4_adjoint, fil4_rb
    from ternalg.constructions import subadjacent_commutator
    from ternalg.operators import induced_3prelie

    p = induced_3prelie(fil4_rb(), fil4_adjoint())
    assert check_axioms("3-pre-lie", p).passed
    assert check_axioms("3-lie", subadjacent_commutator(p)).passed


def test_zinbiel_symmetrization_is_comm_assoc():
    from ternalg.catalog import r_int
    from ternalg.constructions import symmetrize_zinbiel
    from ternalg.operators import induced_zinbiel

    z = induced_zinbiel(r_int(3), adjoint_rep(trunc(3)))
    assert check_axioms("zinbiel", z).passed
    assert check_axioms("comm-assoc", symmetrize_zinbiel(z)).passed


# Every check kind's maps in scan order, written out here and not read from
# the library: a kind that loses, gains or reorders a map fails below.
KIND_MAPS = {
    "comm-assoc": ["comm", "assoc"],
    "zinbiel": ["zinbiel"],
    "lie": ["skew2", "jacobi"],
    "3-lie": ["skew3", "fundamental"],
    "3-pre-lie": ["prelie3-skew", "prelie3-a", "prelie3-b"],
    "f-manifold": ["comm", "assoc", "skew2", "jacobi", "hm2"],
    "ternary-f-manifold": ["comm", "assoc", "skew3", "fundamental", "hm3"],
    "ternary-nambu-poisson": ["comm", "assoc", "skew3", "fundamental", "leibniz-np"],
    "ternary-pre-f-manifold": ["zinbiel", "prelie3-skew", "prelie3-a", "prelie3-b",
                               "prefm-1", "prefm-11", "prefm-2"],
    "ternary-pre-nambu-poisson": ["zinbiel", "prelie3-skew", "prelie3-a", "prelie3-b",
                                  "prenp-1", "prenp-2"],
    "coherence": ["comm", "assoc", "skew3", "fundamental", "hm3", "coh1", "coh2", "coh3"],
    "comm-assoc-rep": ["mu-mult"],
    "lie-rep": ["rho-lie"],
    "three-lie-rep": ["rho-skew", "kasymov-i", "kasymov-ii"],
    "fmanifold-rep": ["rho-lie", "mu-mult", "brep-1", "brep-2"],
    "ternary-fmanifold-rep": ["rho-skew", "kasymov-i", "kasymov-ii", "mu-mult",
                              "rep-1", "rep-3", "rep-2"],
    "dual-conditions": ["corep-1", "corep-2", "corep-3"],
    "relative-rb-comm": ["rb-comm"],
    "relative-rb-3lie": ["rb-3lie"],
    "relative-rb": ["rb-comm", "rb-3lie"],
    "cyclic-2cocycle": ["cocycle"],
    "symplectic": ["symplectic"],
    "nijenhuis": ["nijenhuis-comm", "nijenhuis-3lie"],
    "trace": ["trace"],
    "induced-condition": ["induced-condition"],
    "homomorphism": ["hom-product", "hom-bracket", "hom-binary-bracket"],
}

# zero data, on which every map of every kind passes
ZERO = AlgebraBundle(2, product=Tensor(2, 3, {}), bracket=Tensor(2, 4, {}),
                     binary_bracket=Tensor(2, 3, {}))
ZERO_MAP = InterMap.zero(2, 2)
ZERO_FORM = BilinearForm(Matrix.zero(2, 2))
ZERO_TAU = TraceFunctional.zero(2)


def zero_rep(rho=BiRep):
    return RepBundle(algebra=ZERO, rho=rho.zero(2, 2), mu=LinRep.zero(2, 2))


# the check of each kind, on zero data
ZERO_CHECKS = {
    **{k.value: lambda k=k: check_axioms(k, ZERO) for k in StructureKind},
    **{k.value: lambda k=k: check_representation(k, zero_rep()) for k in RepKind},
    "lie-rep": lambda: check_representation("lie-rep", zero_rep(LinRep)),
    "fmanifold-rep": lambda: check_representation("fmanifold-rep", zero_rep(LinRep)),
    "relative-rb-comm": lambda: check_relative_rb_comm(ZERO_MAP, zero_rep()),
    "relative-rb-3lie": lambda: check_relative_rb_3lie(ZERO_MAP, zero_rep()),
    "relative-rb": lambda: check_relative_rb(ZERO_MAP, zero_rep()),
    "cyclic-2cocycle": lambda: check_cyclic_2cocycle(ZERO_FORM, ZERO),
    "symplectic": lambda: check_symplectic(ZERO_FORM, ZERO),
    "nijenhuis": lambda: check_nijenhuis(ZERO_MAP, ZERO),
    "trace": lambda: check_trace(ZERO, ZERO_TAU),
    "induced-condition": lambda: check_induced_condition(ZERO, ZERO_TAU),
    "homomorphism": lambda: check_homomorphism(ZERO_MAP, ZERO, ZERO),
}


def test_kind_identity_table_complete():
    # every kind the library checks is pinned, and every map it defines
    # belongs to a kind
    assert list(KINDS) == list(KIND_MAPS) == list(ZERO_CHECKS)
    assert {name for names in KIND_MAPS.values() for name in names} == \
        {*IDENTITIES, *CONDITIONS, *REP_CONDITIONS}


@pytest.mark.parametrize("kind", list(KIND_MAPS))
def test_each_kind_scans_its_maps_in_order(kind):
    """A kind's check on zero data scans its whole list of maps, in order."""
    report = ZERO_CHECKS[kind]()
    assert report.passed and report.kind == kind
    assert list(report.checked_identities) == KIND_MAPS[kind]


def test_unknown_kind_names_the_choices():
    with pytest.raises(UnknownKind, match=r"^unknown structure kind 'frob' \(choices: "
                                          r"\['comm-assoc', .*, 'coherence'\]\)$"):
        check_axioms("frob", fil4())
    with pytest.raises(UnknownKind, match=r"^unknown representation kind 'frob' \(choices: "
                                          r"\['comm-assoc-rep', .*, 'dual-conditions'\]\)$"):
        check_representation("frob", adjoint_rep(fil4()))


def test_dimension_cap_enforced():
    from ternalg.errors import DimensionCapExceeded
    from ternalg.structures import dimension_cap, set_dimension_cap

    assert dimension_cap() == 16
    with pytest.raises(DimensionCapExceeded):
        AlgebraBundle(17, product=Tensor(17, 3, {}))
    # only an int of at least 1 is a cap: bools, floats and strings are refused
    for bad in (True, False, 2.5, 0, -3, "17", None):
        with pytest.raises(ValueError, match="int of at least 1"):
            set_dimension_cap(bad)
        assert dimension_cap() == 16
    set_dimension_cap(17)
    try:
        b = AlgebraBundle(17, product=Tensor(17, 3, {}))
        assert b.dim == 17
    finally:
        set_dimension_cap(16)


# -- invariants under python -O --------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

OPTIMIZED_INVARIANTS = textwrap.dedent("""
    import sys
    from ternalg.catalog import fil4
    from ternalg.errors import InternalError
    from ternalg.linalg import Vec
    from ternalg.representations import adjoint_rep, check_representation
    from ternalg.structures import (CheckReport, Counterexample, _groups, _ops, _support,
                                    _table, check_axioms)

    # the scan path forced on every integer table below, or "" to plan
    path = sys.argv[1] or None

    def raises(fn):
        try:
            fn()
        except InternalError:
            return True
        return False

    bad = Counterexample("comm", (0, 1), Vec([1]))
    report = raises(lambda: CheckReport(passed=True, kind="comm-assoc",
                                        checked_identities=("comm",),
                                        counterexamples=(bad,), tuple_count=1))

    # e1 -> e1 at (e1, e1, e1), the first tuple in rank order, in op's
    # integer support and in its rows, both read first; its groups, which
    # the contractions join, are laid out from the support afterwards
    def corrupt(ops, op):
        rows = _table(ops, op)
        _support(ops, op).insert(0, (0, 0, 0, 0, 1))
        rows[0][0][0] = ((0, 1),)

    # integer tables that disagree with the exact ones: e1 -> e1 at [e1,e1,e1]
    b = fil4()
    corrupt(_ops(b, path), "br3")
    structure_scan = raises(lambda: check_axioms("3-lie", b))

    # the same for the integer rho table, shared with the algebra's br3:
    # column e1 of rho(e1, e1) -> e1
    r = adjoint_rep(fil4())
    ops = _ops(r, path)
    if _table(ops, "rho") is not _table(ops.base, "br3"):
        sys.exit("rho's rows are not shared")
    corrupt(ops, "rho")
    rep_scan = raises(lambda: check_representation("three-lie-rep", r))
    if any(_groups(ops, "rho", q) is not _groups(ops.base, "br3", q) for q in range(4)):
        sys.exit("rho's groups are not shared")

    # and for an operator condition: the symplectic scan reads the bundle's
    # integer bracket table, where [e1,e1,e1] -> e1 meets B(e1, e2) = 1
    from ternalg.catalog import fil4_symplectic
    from ternalg.operators import check_symplectic
    b = fil4()
    corrupt(_ops(b, path), "br3")
    operator_scan = raises(lambda: check_symplectic(fil4_symplectic(), b))

    # a symmetry certificate claiming assoc symmetric in all three slots: on
    # e1 e1 = e2, e1 e2 = e2 e1 = e1 it fails at (e1, e1, e2), but the orbit
    # member (e1, e2, e1) has a zero exact residual; a contraction uses no
    # certificate, so there the check finds the true failures
    from ternalg import structures
    from ternalg.linalg import Tensor
    from ternalg.structures import IDENTITIES, AlgebraBundle, Symmetry
    structures._CERTIFICATES[(IDENTITIES["assoc"], ("comm",))] = Symmetry(
        (((0, 1, 2), 1),), ("comm",))
    b = AlgebraBundle(2, product=Tensor(2, 3, {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}))
    _ops(b, path)
    if path == "contract":
        found = check_axioms("comm-assoc", b, max_counterexamples=100).counterexamples
        certificate = [ce.indices for ce in found] == [
            (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)]
    else:
        certificate = raises(lambda: check_axioms("comm-assoc", b, max_counterexamples=100))
    print(sys.flags.optimize, report, structure_scan, rep_scan, operator_scan, certificate)
""")


def test_invariants_survive_python_O():
    # once as planned, once with each scan path forced
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    for path in ("", "tuples", "contract"):
        proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_INVARIANTS, path],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (path, proc.stderr)
        assert proc.stdout.split() == ["1", "True", "True", "True", "True", "True"], path


TENSOR_ORDERS = textwrap.dedent("""
    from ternalg.errors import BundleError, DimensionMismatch
    from ternalg.linalg import Tensor
    from ternalg.structures import AlgebraBundle

    def refused(**tensors):
        try:
            AlgebraBundle(2, **tensors)
        except (BundleError, DimensionMismatch) as exc:
            return f"{type(exc).__name__}: {exc}"
        return "accepted"

    print(refused(bracket=Tensor(2, 3, {})))
    print(refused(product=Tensor(2, 4, {})))
    print(refused(binary_bracket=Tensor(2, 4, {})))
    print(refused(product=[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_tensor_order_checked_under_python_O(flags):
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run([sys.executable, *flags, "-c", TENSOR_ORDERS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "DimensionMismatch: AlgebraBundle: br3 of shape (2, 2, 2) has order 3, not 4",
        "DimensionMismatch: AlgebraBundle: mul of shape (2, 2, 2, 2) has order 4, not 3",
        "DimensionMismatch: AlgebraBundle: br2 of shape (2, 2, 2, 2) has order 4, not 3",
        "BundleError: product must be a Tensor, got list",
    ]
