import itertools
import logging
import random
from fractions import Fraction

import pytest

from ternalg.catalog import (
    fil4,
    fil4_adjoint,
    fil4_rb,
    fil4_symplectic,
    gl2_trace,
    r_int,
    trunc,
)
from ternalg.constructions import (
    TraceFunctional,
    check_induced_condition,
    check_trace,
    direct_sum,
    subadjacent_ternary_fmanifold,
    trace_induced,
)
from ternalg.errors import (
    MissingRep,
    MissingTensor,
    NotATrace,
    NotCoherent,
    NotCyclicCocycle,
    NotNijenhuis,
    NotRelativeRB,
    NotRotaBaxter,
    NotSkew,
    NotSymplectic,
    SingularMatrix,
)
from ternalg.linalg import InterMap, Matrix, Tensor, Vec, invert
from ternalg.operators import (
    BilinearForm,
    check_cyclic_2cocycle,
    check_nijenhuis,
    check_relative_rb,
    check_relative_rb_3lie,
    check_relative_rb_comm,
    check_symplectic,
    deform,
    induced_3prelie,
    induced_pre_fmanifold,
    induced_rep_on_A,
    induced_zinbiel,
    invertible_rb_to_pre,
    lift_nijenhuis,
    rb_induced_pre,
    symplectic_induced_pre,
)
from ternalg.representations import (
    BiRep,
    LinRep,
    RepBundle,
    adjoint_rep,
    check_coherence,
    check_representation,
    dual_rep,
    rep_of_subadjacent,
    semidirect,
)
from ternalg import structures
from ternalg.structures import AlgebraBundle, check_axioms, check_homomorphism


@pytest.fixture(scope="module")
def reg3():
    return adjoint_rep(trunc(3))


@pytest.fixture(scope="module")
def pre_f4():
    return induced_pre_fmanifold(fil4_rb(), fil4_adjoint())


def mult_by_t(n):
    t = trunc(n)
    return InterMap(
        Matrix.from_columns([t.mul(t.basis(1), t.basis(k)) for k in range(n)])
    )


# -- relative Rota-Baxter checks -----------------------------------------------

def test_rb_comm_zero_map(reg3):
    assert check_relative_rb_comm(InterMap.zero(3, 3), reg3).passed


def test_rb_comm_r_int(reg3):
    # R(1)R(1) = t^2 and R(2t) = t^2
    t = trunc(3)
    R = r_int(3)
    assert t.mul(R.apply(t.basis(0)), R.apply(t.basis(0))) == t.basis(2)
    assert R.apply(t.basis(1).scale(2)) == t.basis(2)
    assert check_relative_rb_comm(R, reg3).passed


def test_rb_comm_identity_on_unital_fails(reg3):
    report = check_relative_rb_comm(InterMap.identity(3), reg3)
    assert not report.passed
    assert report.counterexamples[0].indices == (0, 0)


def test_rb_3lie_zero_map():
    assert check_relative_rb_3lie(InterMap.zero(4, 4), fil4_adjoint()).passed


def test_rb_3lie_identity_on_subadjacent_rep(pre_f4):
    r = rep_of_subadjacent(pre_f4)
    assert check_relative_rb_3lie(InterMap.identity(4), r).passed
    assert check_relative_rb(InterMap.identity(4), r).passed


def test_rb_3lie_random_map_rejected():
    rng = random.Random(42)
    T = InterMap(Matrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]))
    report = check_relative_rb_3lie(T, fil4_adjoint())
    assert not report.passed
    assert len(report.counterexamples[0].indices) == 3


def test_rb_conjunction_mixed():
    # fil4_rb passes both parts; a map passing only one side fails overall
    assert check_relative_rb(fil4_rb(), fil4_adjoint()).passed
    rng = random.Random(42)
    bad = InterMap(Matrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]))
    comm_ok = check_relative_rb_comm(bad, fil4_adjoint()).passed
    lie_ok = check_relative_rb_3lie(bad, fil4_adjoint()).passed
    overall = check_relative_rb(bad, fil4_adjoint()).passed
    assert comm_ok  # the product is zero, so the comm side always holds
    assert not lie_ok
    assert not overall


def test_rb_conjunction_checks_rho_before_scanning(reg3):
    # the identity fails rb-comm on the unital trunc(3) at the first pair, so
    # k = 1 is full before rb-3lie; its missing pair action still raises
    mu_only = RepBundle(algebra=reg3.algebra, mu=reg3.mu)
    assert not check_relative_rb_comm(InterMap.identity(3), mu_only).passed
    with pytest.raises(MissingRep, match="pair action"):
        check_relative_rb(InterMap.identity(3), mu_only, max_counterexamples=1)


def test_homomorphism_checks_every_target_tensor_before_scanning():
    # 2 * identity fails hom-product at once; the target's missing bracket
    # still raises although the budget is full before hom-bracket
    t3 = trunc(3)
    product_only = AlgebraBundle(3, product=t3.product)
    double = InterMap(Matrix.identity(3).scale(2))
    assert not check_homomorphism(double, product_only, product_only).passed
    with pytest.raises(MissingTensor, match="bracket"):
        check_homomorphism(double, t3, product_only, max_counterexamples=1)


# -- induced structures -----------------------------------------------------------

def test_induced_zinbiel_zero_map(reg3):
    z = induced_zinbiel(InterMap.zero(3, 3), reg3)
    assert z.product.is_zero()


def test_induced_zinbiel_r_int(reg3):
    z = induced_zinbiel(r_int(3), reg3)
    assert z.mul(z.basis(0), z.basis(0)) == Vec([0, 1, 0])  # 1 <> 1 = t
    assert check_axioms("zinbiel", z).passed


def test_induced_zinbiel_rejects(reg3):
    with pytest.raises(NotRelativeRB):
        induced_zinbiel(InterMap.identity(3), reg3)


def test_induced_3prelie_zero_map():
    p = induced_3prelie(InterMap.zero(4, 4), fil4_adjoint())
    assert p.bracket.is_zero()


def test_induced_3prelie_identity_recovers(pre_f4):
    r = rep_of_subadjacent(pre_f4)
    again = induced_3prelie(InterMap.identity(4), r)
    assert again.bracket == pre_f4.bracket


def test_induced_3prelie_passes(pre_f4):
    p = induced_3prelie(fil4_rb(), fil4_adjoint())
    assert check_axioms("3-pre-lie", p).passed
    assert p.bracket == pre_f4.bracket


def test_induced_pre_fmanifold_zero_map(reg3):
    p = induced_pre_fmanifold(InterMap.zero(3, 3), reg3)
    assert p.product.is_zero() and p.bracket.is_zero()
    assert check_axioms("ternary-pre-f-manifold", p).passed


def test_induced_pre_fmanifold_identity_recovers(pre_f4):
    r = rep_of_subadjacent(pre_f4)
    again = induced_pre_fmanifold(InterMap.identity(4), r)
    assert again.product == pre_f4.product
    assert again.bracket == pre_f4.bracket


def test_induced_pre_fmanifold_r_int(reg3):
    p = induced_pre_fmanifold(r_int(3), reg3)
    assert p.bracket.is_zero()
    assert check_axioms("ternary-pre-f-manifold", p).passed


def test_rb_induced_pre_zero():
    p = rb_induced_pre(InterMap.zero(3, 3), trunc(3))
    assert p.product.is_zero() and p.bracket.is_zero()


def test_rb_induced_pre_r_int():
    t = trunc(3)
    p = rb_induced_pre(r_int(3), t)
    assert p.mul(p.basis(0), p.basis(0)) == Vec([0, 1, 0])  # 1 <> 1 = R(1) 1 = t
    from ternalg.constructions import subadjacent_ternary_fmanifold

    sub = subadjacent_ternary_fmanifold(p)
    assert check_axioms("ternary-f-manifold", sub).passed
    assert check_homomorphism(r_int(3), sub, t).passed


def test_rb_induced_pre_rejects():
    with pytest.raises(NotRotaBaxter):
        rb_induced_pre(InterMap.identity(3), trunc(3))


def test_invertible_rb_identity_recovers(pre_f4):
    r = rep_of_subadjacent(pre_f4)
    out = invertible_rb_to_pre(InterMap.identity(4), r)
    assert out.product == pre_f4.product
    assert out.bracket == pre_f4.bracket


def test_invertible_rb_diagonal_on_zero_structure():
    z = AlgebraBundle(2, product=Tensor(2, 3, {}), bracket=Tensor(2, 4, {}))
    r = RepBundle(algebra=z, rho=BiRep.zero(2, 2), mu=LinRep.zero(2, 2))
    out = invertible_rb_to_pre(InterMap(Matrix([[2, 0], [0, 3]])), r)
    assert out.product.is_zero() and out.bracket.is_zero()


def test_invertible_rb_subadjacent_equals_input(pre_f4):
    from ternalg.constructions import subadjacent_ternary_fmanifold

    r = rep_of_subadjacent(pre_f4)
    out = invertible_rb_to_pre(InterMap.identity(4), r)
    sub = subadjacent_ternary_fmanifold(out)
    amb = subadjacent_ternary_fmanifold(pre_f4)
    assert sub.product == amb.product
    assert sub.bracket == amb.bracket


def test_invertible_rb_requires_invertibility(reg3):
    with pytest.raises(SingularMatrix):
        invertible_rb_to_pre(r_int(3), reg3)  # R is nilpotent, not invertible


# -- homomorphism law (T is a homomorphism from the sub-adjacent bundle) ------------

def test_homomorphism_law_all_tuples(pre_f4):
    T = fil4_rb()
    amb = fil4()
    e = pre_f4.basis_vectors()
    for p, q in itertools.product(range(4), repeat=2):
        sym = pre_f4.mul(e[p], e[q]) + pre_f4.mul(e[q], e[p])
        assert T.apply(sym) == amb.mul(T.apply(e[p]), T.apply(e[q]))
    for p, q, s in itertools.product(range(4), repeat=3):
        cyc = (
            pre_f4.br3(e[p], e[q], e[s])
            + pre_f4.br3(e[q], e[s], e[p])
            + pre_f4.br3(e[s], e[p], e[q])
        )
        assert T.apply(cyc) == amb.br3(T.apply(e[p]), T.apply(e[q]), T.apply(e[s]))


# -- bilinear forms ------------------------------------------------------------------

def test_form_checks_zero_structures():
    z = AlgebraBundle(2, product=Tensor(2, 3, {}), bracket=Tensor(2, 4, {}))
    B = BilinearForm(Matrix([[0, 1], [-1, 0]]))
    assert check_cyclic_2cocycle(B, z).passed
    assert check_symplectic(B, z).passed
    zero_form = BilinearForm(Matrix.zero(2, 2))
    assert check_cyclic_2cocycle(zero_form, trunc(2)).passed


def test_form_not_skew_rejected():
    with pytest.raises(NotSkew):
        check_cyclic_2cocycle(BilinearForm(Matrix([[1, 0], [0, 1]])), trunc(2))


def test_trunc2_cocycle_counterexample():
    B = BilinearForm(Matrix([[0, 1], [-1, 0]]))
    t2 = trunc(2)
    # hand value at (1, t, 1): B(t,1) + B(t,1) + B(1,t) = -1
    one, t = t2.basis(0), t2.basis(1)
    val = (
        B.value(t2.mul(one, t), one)
        + B.value(t2.mul(t, one), one)
        + B.value(t2.mul(one, one), t)
    )
    assert val == Fraction(-1)
    report = check_cyclic_2cocycle(B, t2)
    assert not report.passed
    assert report.counterexamples[0].residual == Vec([-1])


def test_fil4_form_passes_both():
    B = fil4_symplectic()
    f = fil4()
    assert check_cyclic_2cocycle(B, f).passed
    assert check_symplectic(B, f).passed


# -- symplectic-induced pre-structure ---------------------------------------------------

def test_symplectic_pre_zero_algebra():
    z = AlgebraBundle(2, product=Tensor(2, 3, {}), bracket=Tensor(2, 4, {}))
    B = BilinearForm(Matrix([[0, 1], [-1, 0]]))
    out = symplectic_induced_pre(B, z)
    assert out.product.is_zero() and out.bracket.is_zero()


def test_symplectic_pre_scale_invariant():
    B = fil4_symplectic()
    f = fil4()
    out1 = symplectic_induced_pre(B, f)
    out2 = symplectic_induced_pre(BilinearForm(B.matrix.scale(Fraction(7, 3))), f)
    assert out1.product == out2.product
    assert out1.bracket == out2.bracket


def test_symplectic_pre_full_pipeline():
    B = fil4_symplectic()
    f = fil4()
    out = symplectic_induced_pre(B, f)
    assert check_axioms("ternary-pre-f-manifold", out).passed
    from ternalg.constructions import subadjacent_ternary_fmanifold

    sub = subadjacent_ternary_fmanifold(out)
    assert sub.product == f.product
    assert sub.bracket == f.bracket


def test_musical_inverse_is_relative_rb_on_coadjoint():
    B = fil4_symplectic()
    f = fil4()
    co = dual_rep(adjoint_rep(f))
    sharp_inv = InterMap(invert(B.musical()))
    assert check_relative_rb(sharp_inv, co).passed


def test_symplectic_pre_requires_coherence():
    bad = AlgebraBundle(
        2, product=Tensor(2, 3, {(0, 1, 0): 1}), bracket=Tensor(2, 4, {})
    )
    with pytest.raises(NotCoherent):
        symplectic_induced_pre(BilinearForm(Matrix([[0, 1], [-1, 0]])), bad)


def product4():
    """Zero bracket, e2 e4 = e4 e2 = -e3 and e4 e4 = 2 e1: coherent, and W4 is
    a symplectic cyclic 2-cocycle on it with a nonzero pre-product."""
    return AlgebraBundle(4, product=Tensor(4, 3, {(1, 3, 2): -1, (3, 1, 2): -1, (3, 3, 0): 2}),
                         bracket=Tensor(4, 4, {}))


W4 = Matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


def block_form(m1: Matrix, m2: Matrix) -> Matrix:
    n1, n2 = m1.rows, m2.rows
    return Matrix([list(row) + [0] * n2 for row in m1.entries]
                  + [[0] * n1 + list(row) for row in m2.entries])


SYMPLECTIC_WITH_PRODUCT = {
    "product4": lambda: (BilinearForm(W4), product4()),
    "product4-scaled": lambda: (BilinearForm(W4.scale(Fraction(5, 3))), product4()),
    "fil4-plus-product4": lambda: (BilinearForm(block_form(fil4_symplectic().matrix, W4)),
                                   direct_sum(fil4(), product4())),
}


@pytest.mark.parametrize("name", sorted(SYMPLECTIC_WITH_PRODUCT))
def test_symplectic_pre_defining_equations(name):
    # B(x<>y, z) = B(y, xz) and B({x,y,z}, u) = -B(z, [x,y,u]) at every basis
    # tuple, as dense sums over the constants
    b, a = SYMPLECTIC_WITH_PRODUCT[name]()
    out = symplectic_induced_pre(b, a)
    n, m = a.dim, b.matrix.entries
    span = range(n)
    assert len(out.product.nonzeros()) == 3
    for x, y, z in itertools.product(span, repeat=3):
        assert (sum(out.product[x, y, l] * m[l][z] for l in span)
                == sum(m[y][l] * a.product[x, z, l] for l in span)), (x, y, z)
    for x, y, z, u in itertools.product(span, repeat=4):
        assert (sum(out.bracket[x, y, z, l] * m[l][u] for l in span)
                == -sum(m[z][l] * a.bracket[x, y, u, l] for l in span)), (x, y, z, u)
    assert check_axioms("ternary-pre-f-manifold", out).passed
    sub = subadjacent_ternary_fmanifold(out)
    assert sub.product == a.product
    assert sub.bracket == a.bracket


def pairing_form(n: int) -> BilinearForm:
    """B(e_2k, e_2k+1) = 1 = -B(e_2k+1, e_2k)."""
    return BilinearForm(Matrix([[1 if j == i + 1 and i % 2 == 0 else
                                 -1 if i == j + 1 and j % 2 == 0 else 0
                                 for j in range(n)] for i in range(n)]))


NONCOHERENT2 = AlgebraBundle(2, product=Tensor(2, 3, {(0, 1, 0): 1}),
                             bracket=Tensor(2, 4, {}))

# each input passes the preconditions listed before its own
SYMPLECTIC_PRECONDITIONS = [
    (NotCoherent, lambda: (BilinearForm(Matrix([[0, 1], [-1, 0]])), NONCOHERENT2)),
    (NotSkew, lambda: (BilinearForm(Matrix.identity(4)), fil4())),
    (NotCyclicCocycle, lambda: (BilinearForm(Matrix([[0, 1], [-1, 0]])), trunc(2))),
    (NotSymplectic, lambda: (pairing_form(8), semidirect(adjoint_rep(fil4())))),
    (SingularMatrix, lambda: (BilinearForm(Matrix.zero(4, 4)), fil4())),
]


@pytest.mark.parametrize("error, inputs", SYMPLECTIC_PRECONDITIONS,
                         ids=[e.__name__ for e, _ in SYMPLECTIC_PRECONDITIONS])
def test_symplectic_pre_precondition_errors(error, inputs):
    with pytest.raises(error) as exc:
        symplectic_induced_pre(*inputs())
    assert type(exc.value) is error


def test_symplectic_pre_checks_preconditions_in_order():
    # a form failing several preconditions raises the first one's error
    singular_non_cocycle = BilinearForm(Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    for error, b, a in ((NotCoherent, BilinearForm(Matrix.identity(2)), NONCOHERENT2),
                        (NotSkew, BilinearForm(Matrix.identity(2)), trunc(2)),
                        (NotCyclicCocycle, singular_non_cocycle, trunc(3))):
        with pytest.raises(error) as exc:
            symplectic_induced_pre(b, a)
        assert type(exc.value) is error


# -- Nijenhuis operators -----------------------------------------------------------------

def test_nijenhuis_scalar_family():
    t3 = trunc(3)
    for nop in (InterMap.zero(3, 3), InterMap.identity(3),
                InterMap(Matrix.identity(3).scale(2)), mult_by_t(3)):
        assert check_nijenhuis(nop, t3).passed
    f = fil4()
    for nop in (InterMap.zero(4, 4), InterMap.identity(4),
                InterMap(Matrix.identity(4).scale(2))):
        assert check_nijenhuis(nop, f).passed


def test_nijenhuis_random_rejected():
    rng = random.Random(99)
    N = InterMap(Matrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]))
    report = check_nijenhuis(N, trunc(3))
    assert not report.passed
    assert len(report.counterexamples[0].indices) == 2


def test_deform_identity_reproduces():
    f = fil4()
    out = deform(InterMap.identity(4), f)
    assert out.product == f.product
    assert out.bracket == f.bracket


def test_deform_zero_map():
    out = deform(InterMap.zero(3, 3), trunc(3))
    assert out.product.is_zero() and out.bracket.is_zero()


def test_deform_mult_by_t():
    out = deform(mult_by_t(3), trunc(3))
    assert out.mul(out.basis(0), out.basis(0)) == Vec([0, 1, 0])  # 1 *_N 1 = t
    assert check_axioms("ternary-f-manifold", out).passed


def test_deform_rejects():
    rng = random.Random(5)
    N = InterMap(Matrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]))
    with pytest.raises(NotNijenhuis):
        deform(N, trunc(3))


# -- the lift and the induced representation on A ------------------------------------------

def test_lift_zero_map(reg3):
    nt = lift_nijenhuis(InterMap.zero(3, 3), reg3)
    assert nt.matrix.is_zero()


def test_lift_squares_to_zero(reg3):
    rng = random.Random(12)
    T = InterMap(Matrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]))
    nt = lift_nijenhuis(T, reg3)
    assert (nt.matrix @ nt.matrix).is_zero()


def test_lift_is_nijenhuis_on_semidirect(reg3):
    nt = lift_nijenhuis(r_int(3), reg3)
    sd = semidirect(reg3)
    assert check_nijenhuis(nt, sd).passed


def test_induced_rep_on_A_zero_map(reg3):
    out = induced_rep_on_A(InterMap.zero(3, 3), reg3)
    assert all(m.is_zero() for m in out.mu.mats)
    assert all(m.is_zero() for row in out.rho.mats for m in row)


def test_induced_rep_on_A_value(reg3):
    out = induced_rep_on_A(r_int(3), reg3)
    # mu_T(1)(1) = R(1) 1 - R(1 1) = t - t = 0
    assert out.mu.mats[0].column(0).is_zero()


def test_induced_rep_on_A_passes(reg3):
    out = induced_rep_on_A(r_int(3), reg3)
    assert check_representation("ternary-fmanifold-rep", out).passed


def test_induced_rep_on_A_fil4():
    out = induced_rep_on_A(fil4_rb(), fil4_adjoint())
    assert check_representation("ternary-fmanifold-rep", out).passed


def test_block_expansion_identity(reg3):
    # deform(N_T, semidirect) reproduces the induced operations blockwise
    T = r_int(3)
    nt = lift_nijenhuis(T, reg3)
    sd = semidirect(reg3)
    deformed = deform(nt, sd)
    pre = induced_pre_fmanifold(T, reg3)
    from ternalg.constructions import subadjacent_ternary_fmanifold

    alg_v = subadjacent_ternary_fmanifold(pre)
    rep_a = induced_rep_on_A(T, reg3)
    n = 3
    m = 3

    def expected_product(i, j, k):
        # order: A indices 0..n-1 then V indices n..n+m-1
        ia, iv = (i, None) if i < n else (None, i - n)
        ja, jv = (j, None) if j < n else (None, j - n)
        out = Vec.zero(n + m)
        if iv is not None and jv is not None:
            w = alg_v.mul(alg_v.basis(iv), alg_v.basis(jv))
            out = Vec(list([0] * n) + list(w.entries))
        elif iv is not None and ja is not None:
            w = rep_a.mu.mats[iv].column(ja)
            out = Vec(list(w.entries) + [0] * m)
        elif ia is not None and jv is not None:
            w = rep_a.mu.mats[jv].column(ia)
            out = Vec(list(w.entries) + [0] * m)
        return out[k]

    for i, j, k in itertools.product(range(n + m), repeat=3):
        assert deformed.product[i, j, k] == expected_product(i, j, k)

    def expected_bracket(i, j, k, l):
        parts = [(x, x >= n) for x in (i, j, k)]
        vs = [x - n for x, isv in parts if isv]
        als = [x for x, isv in parts if not isv]
        out = Vec.zero(n + m)
        if len(vs) == 3:
            w = alg_v.br3(alg_v.basis(vs[0]), alg_v.basis(vs[1]), alg_v.basis(vs[2]))
            out = Vec([0] * n + list(w.entries))
        elif len(vs) == 2:
            # signs per slot pattern: [u,v,z] -> rho_T(u,v)z ; [u,y,w] -> rho_T(w,u)y ;
            # [x,v,w] -> rho_T(v,w)x
            if not parts[2][1]:  # (v,v,a)
                w = rep_a.rho.mats[vs[0]][vs[1]].column(als[0])
            elif not parts[1][1]:  # (v,a,v)
                w = rep_a.rho.mats[vs[1]][vs[0]].column(als[0])
            else:  # (a,v,v)
                w = rep_a.rho.mats[vs[0]][vs[1]].column(als[0])
            out = Vec(list(w.entries) + [0] * m)
        return out[l]

    for i, j, k, l in itertools.product(range(n + m), repeat=4):
        assert deformed.bracket[i, j, k, l] == expected_bracket(i, j, k, l)


def test_induction_closure_all_checkers(reg3):
    # whenever the relative RB check passes, all four induced bundles pass theirs
    for T, rep in ((r_int(3), reg3), (fil4_rb(), fil4_adjoint())):
        assert check_relative_rb(T, rep).passed
        assert check_axioms("zinbiel", induced_zinbiel(T, rep)).passed
        assert check_axioms("3-pre-lie", induced_3prelie(T, rep)).passed
        pre = induced_pre_fmanifold(T, rep)
        assert check_axioms("ternary-pre-f-manifold", pre).passed
        assert check_representation(
            "ternary-fmanifold-rep", induced_rep_on_A(T, rep)
        ).passed


# -- a builder checks its precondition once, on the owner it reads --------------------

def fil4_pre_rep():
    return rep_of_subadjacent(induced_pre_fmanifold(fil4_rb(), fil4_adjoint()))


# each builder that checks a precondition, and inputs that pass it, made
# before the call so that no table of theirs exists yet
BUILDS = {
    "induced_zinbiel": (induced_zinbiel, lambda: (r_int(3), adjoint_rep(trunc(3)))),
    "induced_3prelie": (induced_3prelie, lambda: (fil4_rb(), fil4_adjoint())),
    "induced_pre_fmanifold": (induced_pre_fmanifold, lambda: (fil4_rb(), fil4_adjoint())),
    "rb_induced_pre": (rb_induced_pre, lambda: (r_int(3), trunc(3))),
    "invertible_rb_to_pre": (invertible_rb_to_pre,
                             lambda: (InterMap.identity(4), fil4_pre_rep())),
    "induced_rep_on_A": (induced_rep_on_A, lambda: (fil4_rb(), fil4_adjoint())),
    "deform": (deform, lambda: (lift_nijenhuis(fil4_rb(), fil4_adjoint()),
                                semidirect(fil4_adjoint()))),
    "trace_induced": (trace_induced, gl2_trace),
    "symplectic_induced_pre": (symplectic_induced_pre, lambda: (fil4_symplectic(), fil4())),
}


# the checkers whose conditions read sub-map tables, with inputs that pass
CHECKS = {
    "check_relative_rb": (check_relative_rb, lambda: (fil4_rb(), fil4_adjoint())),
    "check_nijenhuis": (check_nijenhuis, BUILDS["deform"][1]),
    "check_induced_condition": (check_induced_condition, gl2_trace),
    "check_homomorphism": (check_homomorphism, lambda: (InterMap.identity(4), fil4(), fil4())),
}


def meaning(m):
    """The normal form of m expanded into trees of tensors: one per tree,
    whether a sub-map is named or an intermediate."""
    terms = [(c * k, t) for c, term in m.terms for k, t in structures._expand(term)]
    return frozenset(structures._normal(terms, {}, {}).items())


@pytest.mark.parametrize("name", sorted(BUILDS) + sorted(CHECKS))
def test_builder_scans_each_condition_and_builds_each_table_once(name, caplog):
    builder, inputs = BUILDS.get(name) or CHECKS[name]
    args = inputs()
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        builder(*args)
    lines = [r.getMessage() for r in caplog.records]
    scans = [line.split(":")[0] for line in lines if line.startswith("scan ")]
    built = [line.split(" table")[0] for line in lines if line.startswith("built ")]
    assert scans and len(set(scans)) == len(scans), scans
    assert built and len(set(built)) == len(built), built
    # no two tables of one tree: a named sub-map and an intermediate of the
    # same tree would show as two names
    shown = {m.name: meaning(m) for m in structures._SUBMAPS.values()}
    trees = [shown[line[len("built "):]] for line in built]
    assert len(set(trees)) == len(trees), built


def nijenhuis_fails():
    rng = random.Random(5)
    return InterMap(Matrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]))


def rb_fails():
    return InterMap.identity(3), adjoint_rep(trunc(3))


RB_FAILS = "map fails the relative Rota-Baxter identities"

# each builder that checks a precondition, an input that fails it, the error
# and message it raises, and the checker call whose report (at k = 1) that
# error carries; symplectic_induced_pre once for each of its three checks
REJECTS = [
    ("induced_zinbiel", lambda: induced_zinbiel(*rb_fails()), NotRelativeRB,
     "map fails the commutative relative Rota-Baxter identity",
     lambda: check_relative_rb_comm(*rb_fails())),
    ("induced_3prelie", lambda: induced_3prelie(InterMap.identity(4), fil4_adjoint()),
     NotRelativeRB, "map fails the 3-Lie relative Rota-Baxter identity",
     lambda: check_relative_rb_3lie(InterMap.identity(4), fil4_adjoint())),
    ("induced_pre_fmanifold", lambda: induced_pre_fmanifold(*rb_fails()), NotRelativeRB,
     RB_FAILS, lambda: check_relative_rb(*rb_fails())),
    ("rb_induced_pre", lambda: rb_induced_pre(InterMap.identity(3), trunc(3)), NotRotaBaxter,
     "map fails the Rota-Baxter identities on the adjoint action",
     lambda: check_relative_rb(*rb_fails())),
    ("invertible_rb_to_pre", lambda: invertible_rb_to_pre(*rb_fails()), NotRelativeRB,
     RB_FAILS, lambda: check_relative_rb(*rb_fails())),
    ("induced_rep_on_A", lambda: induced_rep_on_A(*rb_fails()), NotRelativeRB, RB_FAILS,
     lambda: check_relative_rb(*rb_fails())),
    ("deform", lambda: deform(nijenhuis_fails(), trunc(3)), NotNijenhuis,
     "map fails the Nijenhuis integrability conditions",
     lambda: check_nijenhuis(nijenhuis_fails(), trunc(3))),
    ("trace_induced", lambda: trace_induced(gl2_trace()[0], TraceFunctional.dual_of(4, 0)),
     NotATrace, "functional does not vanish on the bracket image",
     lambda: check_trace(gl2_trace()[0], TraceFunctional.dual_of(4, 0))),
    ("symplectic_induced_pre-coherence",
     lambda: symplectic_induced_pre(BilinearForm(Matrix([[0, 1], [-1, 0]])), NONCOHERENT2),
     NotCoherent, "bundle fails the coherence identities",
     lambda: check_coherence(NONCOHERENT2)),
    ("symplectic_induced_pre-cocycle",
     lambda: symplectic_induced_pre(BilinearForm(Matrix([[0, 1], [-1, 0]])), trunc(2)),
     NotCyclicCocycle, "form fails the cyclic 2-cocycle identity",
     lambda: check_cyclic_2cocycle(BilinearForm(Matrix([[0, 1], [-1, 0]])), trunc(2))),
    ("symplectic_induced_pre-symplectic",
     lambda: symplectic_induced_pre(pairing_form(8), semidirect(adjoint_rep(fil4()))),
     NotSymplectic, "form fails the symplectic identity",
     lambda: check_symplectic(pairing_form(8), semidirect(adjoint_rep(fil4())))),
]


@pytest.mark.parametrize("name, build, error, message, check", REJECTS,
                         ids=[r[0] for r in REJECTS])
def test_builder_precondition_failure_is_its_checkers(name, build, error, message, check):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message
    report = check()
    assert not report.passed and exc.value.report == report
