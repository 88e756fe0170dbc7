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
from ternalg.errors import ArityMismatch, MissingTensor, UnknownIdentity
from ternalg.linalg import InterMap, Matrix, Tensor3, Tensor4, Vec
from ternalg.representations import adjoint_rep, semidirect
from ternalg.structures import (
    AlgebraBundle,
    KIND_IDENTITIES,
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
    return AlgebraBundle(n, product=Tensor3.zero(n), bracket=Tensor4.zero(n))


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
    prod = Tensor3.from_nonzeros(3, {(0, 0, 0): 1})
    brk = Tensor4.from_nonzeros(
        3,
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
    b = AlgebraBundle(4, product=f4.product, bracket=Tensor4.from_nonzeros(4, entries))
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
    b = AlgebraBundle(4, product=f4.product, bracket=Tensor4.from_nonzeros(4, entries))
    report = check_axioms("3-lie", b, max_counterexamples=4)
    assert len(report.counterexamples) == 4
    ranks = [ce.indices for ce in report.counterexamples]
    assert ranks == sorted(ranks)


def test_jobs_do_not_change_report(f4):
    r1 = check_axioms("ternary-f-manifold", f4, jobs=1)
    r4 = check_axioms("ternary-f-manifold", f4, jobs=4)
    assert r1 == r4


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
    heis = Tensor3.from_nonzeros(3, {(0, 1, 2): 1, (1, 0, 2): -1})
    b = AlgebraBundle(3, product=Tensor3.zero(3), binary_bracket=heis)
    rng = random.Random(2)
    assert leibnizator2(b, *(rand_vec(rng, 3) for _ in range(3))).is_zero()
    b2 = AlgebraBundle(3, product=trunc(3).product, binary_bracket=Tensor3.zero(3))
    assert leibnizator2(b2, *(rand_vec(rng, 3) for _ in range(3))).is_zero()


def test_f1_f2_zero_pre_structure():
    b = zero_bundle(3)
    rng = random.Random(9)
    args = tuple(rand_vec(rng, 3) for _ in range(4))
    assert f1(b, *args).is_zero()
    assert f2(b, *args).is_zero()


def test_f1_with_zero_diamond(f4):
    b = AlgebraBundle(4, product=Tensor3.zero(4), bracket=f4.bracket)
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
    prod = Tensor3.from_nonzeros(4, {(0, 0, 0): 1})
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


def test_kind_identity_table_complete():
    for kind in StructureKind:
        assert KIND_IDENTITIES[kind]


def test_dimension_cap_enforced():
    from ternalg.errors import DimensionCapExceeded
    from ternalg.structures import dimension_cap, set_dimension_cap

    assert dimension_cap() == 16
    with pytest.raises(DimensionCapExceeded):
        AlgebraBundle(17, product=Tensor3.zero(17))
    set_dimension_cap(17)
    try:
        b = AlgebraBundle(17, product=Tensor3.zero(17))
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
    from ternalg.representations import _RepOps, adjoint_rep, check_representation
    from ternalg.structures import CheckReport, Counterexample, _int_ops, check_axioms

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

    # integer tables that disagree with the exact ones: e1 -> e1 at [e1,e1,e1]
    b = fil4()
    _int_ops(b).br3t[0][0][0] = ((0, 1),)
    structure_scan = raises(lambda: check_axioms("3-lie", b))

    init = _RepOps.__init__
    def patched(self, r, exact):
        init(self, r, exact)
        if not exact:
            self.rho[0][0][0] = ((0, 1),)
    _RepOps.__init__ = patched
    rep_scan = raises(lambda: check_representation("three-lie-rep", adjoint_rep(fil4())))
    print(sys.flags.optimize, report, structure_scan, rep_scan)
""")


def test_invariants_survive_python_O():
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_INVARIANTS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True", "True", "True"]
