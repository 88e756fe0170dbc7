import itertools

import pytest

from ternalg.catalog import fil4, gl2_trace, heisenberg_trace, r_int, trunc
from ternalg.constructions import (
    TraceFunctional,
    check_induced_condition,
    check_trace,
    direct_sum,
    fix_slot_bracket,
    subadjacent_commutator,
    subadjacent_ternary_fmanifold,
    symmetrize_zinbiel,
    tensor_with_comm_assoc,
    trace_induced,
)
from ternalg.errors import MissingTensor, NotATrace
from ternalg.linalg import Tensor, Vec
from ternalg.representations import adjoint_rep
from ternalg.structures import AlgebraBundle, check_axioms


def zero_bundle(n):
    return AlgebraBundle(n, product=Tensor(n, 3, {}), bracket=Tensor(n, 4, {}))


# -- direct sum ---------------------------------------------------------------

def test_direct_sum_closure():
    ds = direct_sum(fil4(), trunc(3))
    assert ds.dim == 7
    assert check_axioms("ternary-f-manifold", ds).passed


def test_direct_sum_of_zeros():
    ds = direct_sum(zero_bundle(1), zero_bundle(1))
    assert ds.dim == 2
    assert ds.product.is_zero() and ds.bracket.is_zero()


def test_direct_sum_block_embedding():
    f = fil4()
    ds = direct_sum(f, trunc(3))
    e = ds.basis_vectors()
    assert ds.br3(e[0], e[1], e[2]) == Vec([0, 0, 0, 1, 0, 0, 0])
    # mixed bracket vanishes
    assert ds.br3(e[0], e[1], e[5]).is_zero()


def test_direct_sum_requires_tensors():
    with pytest.raises(MissingTensor):
        direct_sum(AlgebraBundle(2, product=Tensor(2, 3, {})), zero_bundle(2))


# -- tensor with a commutative associative factor ------------------------------

def test_tensor_closure():
    tp = tensor_with_comm_assoc(fil4(), trunc(2))
    assert tp.dim == 8
    assert check_axioms("ternary-f-manifold", tp).passed


def test_tensor_with_unital_line_is_isomorphic():
    one = trunc(1)  # 1-dim unital algebra, e*e = e
    f = fil4()
    tp = tensor_with_comm_assoc(f, one)
    assert tp.dim == 4
    assert tp.product == f.product
    assert tp.bracket == f.bracket


def test_tensor_bracket_annihilated_by_nilpotency():
    # y-factors t, t, 1 in trunc(2): t*t*1 = 0 kills the bracket value
    f = fil4()
    tp = tensor_with_comm_assoc(f, trunc(2))
    e = tp.basis_vectors()
    # index (i, p) -> 2*i + p; pick x-part (e1,e2,e3), y-parts (t, t, 1)
    assert tp.br3(e[1], e[3], e[4]).is_zero()


def test_tensor_unit():
    tp = tensor_with_comm_assoc(
        AlgebraBundle(
            2,
            product=trunc(2).product,
            bracket=Tensor(2, 4, {}),
            unit=Vec.basis(2, 0),
        ),
        trunc(2),
    )
    assert tp.unit == Vec.basis(4, 0)


# -- slot fixing ----------------------------------------------------------------

def test_fix_slot_zero_anchor():
    f = fil4()
    out = fix_slot_bracket(f, Vec.zero(4))
    assert out.binary_bracket.is_zero()


def test_fix_slot_fil4_e4_value():
    f = fil4()
    out = fix_slot_bracket(f, f.basis(3))
    # [e1,e2]_{e4} = [e1,e4,e2] = -e3
    assert out.br2(f.basis(0), f.basis(1)) == Vec([0, 0, -1, 0])


def test_fix_slot_passes_f_manifold():
    f = fil4()
    out = fix_slot_bracket(f, f.basis(3))
    assert check_axioms("f-manifold", out).passed


def test_fix_slot_linear_in_anchor():
    f = fil4()
    a1, a2 = f.basis(1), f.basis(3)
    t1 = fix_slot_bracket(f, a1).binary_bracket
    t2 = fix_slot_bracket(f, a2).binary_bracket
    ts = fix_slot_bracket(f, a1 + a2).binary_bracket
    got = Tensor(4, 3, [*t1.nonzeros(), *t2.nonzeros()])  # repeated indices add up
    assert ts == got


# -- traces ----------------------------------------------------------------------

def test_check_trace_zero_bracket():
    b = AlgebraBundle(2, binary_bracket=Tensor(2, 3, {}))
    assert check_trace(b, TraceFunctional.dual_of(2, 0)).passed


def test_check_trace_heisenberg():
    b, tau = heisenberg_trace()
    assert check_trace(b, tau).passed
    bad = TraceFunctional.dual_of(3, 2)
    report = check_trace(b, bad)
    assert not report.passed
    assert report.counterexamples[0].indices == (0, 1)


def test_trace_induced_zero_trace():
    b, _ = heisenberg_trace()
    out = trace_induced(b, TraceFunctional.zero(3))
    assert out.bracket.is_zero()


def test_trace_induced_gl2_values():
    b, tau = gl2_trace()
    out = trace_induced(b, tau)
    h, e, f, z = b.basis_vectors()
    assert out.br3(h, e, f).is_zero()
    assert out.br3(z, e, f) == h
    assert check_axioms("3-lie", out).passed


def test_trace_induced_rejects_non_trace():
    b, _ = heisenberg_trace()
    with pytest.raises(NotATrace):
        trace_induced(b, TraceFunctional.dual_of(3, 2))


def test_trace_induced_alternating_by_construction():
    b, tau = gl2_trace()
    out = trace_induced(b, tau)
    t = out.bracket
    for i, j, k, l in itertools.product(range(4), repeat=4):
        assert t[i, j, k, l] == -t[j, i, k, l]
        assert t[i, j, k, l] == -t[i, k, j, l]


def test_induced_condition_zero_product():
    b, tau = gl2_trace()
    assert check_induced_condition(b, tau).passed


def test_induced_condition_unital_with_zero_trace():
    # the unital hypothesis tau(x*y) 1 = tau(x) y + tau(y) x forces tau = 0 in
    # finite dimension; the zero trace satisfies it and the condition passes
    t = trunc(3)
    b = AlgebraBundle(
        3, product=t.product, binary_bracket=Tensor(3, 3, {}), unit=t.unit
    )
    assert check_induced_condition(b, TraceFunctional.zero(3)).passed


def test_induced_condition_trunc2_dual_of_unit():
    t = trunc(2)
    b = AlgebraBundle(
        2, product=t.product, binary_bracket=Tensor(2, 3, {}), unit=t.unit
    )
    tau = TraceFunctional.dual_of(2, 0)
    assert check_induced_condition(b, tau).passed
    out = trace_induced(b, tau)
    full = AlgebraBundle(2, product=out.product, bracket=out.bracket)
    assert check_axioms("ternary-f-manifold", full).passed


# -- symmetrisation and sub-adjacent structures -----------------------------------

def test_symmetrize_zero():
    b = AlgebraBundle(2, product=Tensor(2, 3, {}))
    assert symmetrize_zinbiel(b).product.is_zero()


def test_symmetrize_half_product_recovers():
    t = trunc(3)
    half = Tensor(3, 3, {idx: v / 2 for idx, v in t.product.nonzeros()})
    b = AlgebraBundle(3, product=half)
    assert symmetrize_zinbiel(b).product == t.product


def test_symmetrize_matches_rb_identity():
    from ternalg.operators import induced_zinbiel

    rep = adjoint_rep(trunc(3))
    R = r_int(3)
    z = induced_zinbiel(R, rep)
    sym = symmetrize_zinbiel(z)
    timg = [R.matrix.column(p) for p in range(3)]
    t = trunc(3)
    for p, q in itertools.product(range(3), repeat=2):
        want = t.mul(timg[p], t.basis(q)) + t.mul(timg[q], t.basis(p))
        assert sym.mul(sym.basis(p), sym.basis(q)) == want


def test_subadjacent_commutator_of_skew_bracket_is_triple():
    f = fil4()
    p = AlgebraBundle(4, bracket=f.bracket)
    out = subadjacent_commutator(p)
    tripled = Tensor(4, 4, {idx: 3 * v for idx, v in f.bracket.nonzeros()})
    assert out.bracket == tripled


def test_subadjacent_of_zero_pre_structure():
    out = subadjacent_ternary_fmanifold(zero_bundle(3))
    assert out.product.is_zero() and out.bracket.is_zero()


def test_subadjacent_closure_from_catalog_pre_structure():
    from ternalg.catalog import fil4_adjoint, fil4_rb
    from ternalg.operators import induced_pre_fmanifold
    from ternalg.structures import check_homomorphism

    pre = induced_pre_fmanifold(fil4_rb(), fil4_adjoint())
    assert check_axioms("ternary-pre-f-manifold", pre).passed
    sub = subadjacent_ternary_fmanifold(pre)
    assert check_axioms("ternary-f-manifold", sub).passed
    assert check_homomorphism(fil4_rb(), sub, fil4()).passed
