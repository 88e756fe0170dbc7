import itertools
import random
from fractions import Fraction

import pytest

from rep_oracle import action
from ternalg.catalog import fil4, fil4_adjoint, fil4_rb, trunc
from ternalg.errors import DimensionMismatch, MissingRep
from ternalg.linalg import Matrix, Tensor, Vec
from ternalg.operators import induced_pre_fmanifold
from ternalg.representations import (
    BiRep,
    LinRep,
    RepBundle,
    adjoint_rep,
    check_coherence,
    check_representation,
    dual_rep,
    fix_slot_rep,
    l1,
    l2,
    l3,
    rep_of_subadjacent,
    semidirect,
)
from ternalg.structures import AlgebraBundle, check_axioms, leibnizator3


def rand_vec(rng, n):
    return Vec([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)])


@pytest.fixture(scope="module")
def f4():
    return fil4()


@pytest.fixture(scope="module")
def adj(f4):
    return adjoint_rep(f4)


def act(mats, x, *more):
    """sum_i x_i mats[i]: an action's matrix at x, or, for a pair action,
    at x and the vector in `more`."""
    out = None
    for c, m in zip(x.entries, mats):
        m = act(m, *more) if more else m
        out = m.scale(c) if out is None else out + m.scale(c)
    return out


def perturb_rho(rep, i, j, row, col, delta, keep_skew=True):
    """Return a copy of rep with rho(e_i,e_j) nudged (and rho(e_j,e_i) if keep_skew)."""
    mats = [list(r) for r in rep.rho.mats]
    m = [list(r) for r in mats[i][j].entries]
    m[row][col] = m[row][col] + delta
    mats[i][j] = Matrix(m)
    if keep_skew:
        mats[j][i] = -Matrix(m)
    rho = action(BiRep, mats)
    return RepBundle(algebra=rep.algebra, rho=rho, mu=rep.mu)


# -- checkers ------------------------------------------------------------------

def test_adjoint_is_three_lie_rep(adj):
    assert check_representation("three-lie-rep", adj).passed


def test_adjoint_is_ternary_fmanifold_rep(adj):
    assert check_representation("ternary-fmanifold-rep", adj).passed


def test_zero_mu_is_comm_assoc_rep():
    t = trunc(3)
    r = RepBundle(algebra=t, mu=LinRep.zero(3, 2))
    assert check_representation("comm-assoc-rep", r).passed


def test_regular_rep_of_trunc_is_comm_assoc_rep():
    r = adjoint_rep(trunc(4))
    assert check_representation("comm-assoc-rep", r).passed


def test_perturbed_adjoint_fails(adj):
    bad = perturb_rho(adj, 0, 1, 0, 0, Fraction(1))
    report = check_representation("three-lie-rep", bad)
    assert not report.passed


def test_rep_kind_requires_components(f4):
    r = RepBundle(algebra=f4, mu=LinRep.zero(4, 4))
    with pytest.raises(MissingRep):
        check_representation("three-lie-rep", r)


# -- construction errors --------------------------------------------------------

def test_wrong_shaped_rep_matrix_is_refused():
    with pytest.raises(DimensionMismatch):
        LinRep(Tensor((2, 2, 3), {}))
    with pytest.raises(DimensionMismatch):
        BiRep(Tensor((2, 2, 2, 3), {}))


def test_action_count_must_match_the_algebra_dim(f4):
    with pytest.raises(DimensionMismatch):
        RepBundle(algebra=f4, mu=LinRep.zero(3, 2))
    with pytest.raises(DimensionMismatch):
        RepBundle(algebra=f4, rho=LinRep.zero(5, 2))
    with pytest.raises(DimensionMismatch):
        RepBundle(algebra=f4, rho=BiRep.zero(3, 2))
    with pytest.raises(DimensionMismatch):
        BiRep(Tensor((4, 2, 2, 2), {}))


def test_rho_and_mu_must_agree_on_the_module_dim(f4):
    with pytest.raises(DimensionMismatch):
        RepBundle(algebra=f4, rho=BiRep.zero(4, 2), mu=LinRep.zero(4, 3))
    with pytest.raises(DimensionMismatch):
        RepBundle(algebra=f4, rho=LinRep.zero(4, 3), mu=LinRep.zero(4, 2))


def test_rho_must_be_a_pair_or_single_action(f4):
    with pytest.raises(TypeError):
        RepBundle(algebra=f4, rho=LinRep.zero(4, 2).mats, mu=LinRep.zero(4, 2))


@pytest.mark.parametrize("mu", [BiRep.zero(3, 3), [Matrix.zero(3, 3)] * 3],
                         ids=["pair-action", "matrices"])
def test_mu_must_be_a_single_action(mu):
    with pytest.raises(TypeError, match="^mu must be a LinRep$"):
        RepBundle(algebra=trunc(3), mu=mu)


def test_action_tensors_are_the_constants(adj, f4):
    """The adjoint actions are the bracket and product themselves, equal to
    the actions built from their dense views; a tensor of another order is
    refused, and so is anything but a tensor."""
    assert adj.rho.tensor is f4.bracket and adj.mu.tensor is f4.product
    assert adj.rho == action(BiRep, adj.rho.mats) and adj.mu == action(LinRep, adj.mu.mats)
    with pytest.raises(DimensionMismatch):
        BiRep(f4.product)
    with pytest.raises(DimensionMismatch):
        LinRep(f4.bracket)
    with pytest.raises(TypeError, match="^LinRep takes a Tensor, not tuple$"):
        LinRep(adj.mu.mats)


@pytest.mark.parametrize("cls, algebra_dim, module_dim, idx", [
    (LinRep, 2, 4, (3, 0, 0)), (LinRep, 4, 2, (0, 3, 0)), (LinRep, 4, 2, (0, 0, 2)),
    (BiRep, 2, 4, (0, 2, 0, 0)), (BiRep, 4, 2, (0, 0, 0, 3))],
    ids=["mu-algebra", "mu-column", "mu-row", "rho-algebra", "rho-row"])
def test_action_constants_must_lie_in_its_ranges(cls, algebra_dim, module_dim, idx):
    """An action's tensor has the shape (algebra_dim, [algebra_dim,]
    module_dim, module_dim), so a constant at an algebra index past
    algebra_dim, or a module index past module_dim, is refused by the
    `Tensor` constructor, the one range check; a tensor padded to the
    larger dim, where such a constant fits, is an action of other dims, read
    from its shape."""
    shape = (algebra_dim,) * (cls.order - 2) + (module_dim, module_dim)
    with pytest.raises(DimensionMismatch, match=rf"^indices \[{', '.join(map(str, idx))}\] do "
                                                rf"not fit the shape"):
        Tensor(shape, {idx: 1})
    padded = cls(Tensor(max(algebra_dim, module_dim), cls.order, {idx: 1}))
    assert (padded.algebra_dim, padded.module_dim) != (algebra_dim, module_dim)
    fit = cls(Tensor(shape, {tuple(0 for _ in idx): 1}))
    assert (fit.algebra_dim, fit.module_dim) == (algebra_dim, module_dim)


# -- L maps ---------------------------------------------------------------------

def test_l1_with_zero_rho(f4):
    mu = action(LinRep, tuple(Matrix.identity(4) for _ in range(4)))
    r = RepBundle(algebra=f4, rho=BiRep.zero(4, 4), mu=mu)
    rng = random.Random(3)
    x, y, z, u = (rand_vec(rng, 4) for _ in range(4))
    assert l1(r, x, y, z, u) == -act(mu.mats, f4.br3(x, y, z)).apply(u)


def test_l2_with_zero_mu(adj):
    rng = random.Random(4)
    x, y, z, u = (rand_vec(rng, 4) for _ in range(4))
    a = adj.algebra
    assert l2(adj, x, y, z, u) == -act(adj.rho.mats, x, a.mul(y, z)).apply(u)
    assert l2(adj, x, y, z, u).is_zero()  # fil4 product is zero


def test_adjoint_l1_equals_leibnizator(adj, f4):
    e = f4.basis_vectors()
    for idx in itertools.product(range(4), repeat=4):
        args = tuple(e[i] for i in idx)
        assert l1(adj, *args) == leibnizator3(f4, *args)


def test_adjoint_l2_is_permuted_leibnizator():
    # on the adjoint bundle, L2(x,y,z,u) = L(x,u,y,z); exercised on a bundle
    # with interacting product and bracket so the identity has content
    prod = Tensor(3, 3, {(0, 0, 0): 1})
    brk = Tensor(
        3, 4,
        {
            (0, 1, 2, 0): 1, (1, 2, 0, 0): 1, (2, 0, 1, 0): 1,
            (1, 0, 2, 0): -1, (0, 2, 1, 0): -1, (2, 1, 0, 0): -1,
        },
    )
    for b in (
        AlgebraBundle(3, product=prod, bracket=brk),
        fil4(),
    ):
        r = adjoint_rep(b)
        e = b.basis_vectors()
        for idx in itertools.product(range(b.dim), repeat=4):
            x, y, z, u = (e[i] for i in idx)
            assert l2(r, x, y, z, u) == leibnizator3(b, x, u, y, z)


def test_l3_matches_k_op_on_adjoint():
    # needs a fully alternating bracket: [x,u,y*z] = -[x,y*z,u]
    from ternalg.structures import k_op

    prod = Tensor(3, 3, {(0, 0, 0): 1})
    brk = Tensor(
        3, 4,
        {
            (0, 1, 2, 0): 1, (1, 2, 0, 0): 1, (2, 0, 1, 0): 1,
            (1, 0, 2, 0): -1, (0, 2, 1, 0): -1, (2, 1, 0, 0): -1,
        },
    )
    b = AlgebraBundle(3, product=prod, bracket=brk)
    r = adjoint_rep(b)
    e = b.basis_vectors()
    for idx in itertools.product(range(3), repeat=4):
        x, y, z, u = (e[i] for i in idx)
        assert l3(r, x, y, z, u) == k_op(b, x, y, z, u)


# -- adjoint -----------------------------------------------------------------------

def test_adjoint_matrices(adj, f4):
    ad12 = adj.rho.mats[0][1]
    e = f4.basis_vectors()
    assert ad12.apply(e[2]) == e[3]
    assert ad12.apply(e[3]) == e[2]
    assert ad12.apply(e[0]).is_zero()
    assert ad12.apply(e[1]).is_zero()


def test_adjoint_of_zero_bundle():
    z = AlgebraBundle(2, product=Tensor(2, 3, {}), bracket=Tensor(2, 4, {}))
    r = adjoint_rep(z)
    assert all(m.is_zero() for m in r.mu.mats)
    assert all(m.is_zero() for row in r.rho.mats for m in row)


# -- duals ------------------------------------------------------------------------

def test_dual_rep_transposes():
    t = trunc(2)
    mu = action(LinRep, (Matrix([[0, 1], [0, 0]]), Matrix.zero(2, 2)))
    r = RepBundle(algebra=t, mu=mu)
    d = dual_rep(r)
    assert d.mu.mats[0] == Matrix([[0, 0], [1, 0]])


def test_dual_rep_involution(adj):
    dd = dual_rep(dual_rep(adj))
    assert dd.mu.mats == adj.mu.mats
    assert dd.rho.mats == adj.rho.mats


def test_dual_rep_of_single_argument_action(adj, f4):
    r = fix_slot_rep(adj, Vec([1, -2, 0, 3]))
    assert any(not m.is_zero() for m in r.rho.mats)
    d = dual_rep(r)
    assert isinstance(d.rho, LinRep)
    assert d.rho.mats == tuple((-m).T for m in r.rho.mats)
    dd = dual_rep(d)
    assert dd.rho == r.rho and dd.mu == r.mu
    assert dd.rho.mats == r.rho.mats and dd.mu.mats == r.mu.mats


def test_coadjoint_passes_rep_checker(adj):
    co = dual_rep(adj)
    assert check_representation("ternary-fmanifold-rep", co).passed


def test_dual_conditions_on_coherent_adjoint(adj):
    assert check_representation("dual-conditions", adj).passed


def test_pairing_lemma_identities(adj):
    # L1*(x,y,z) = L1(x,y,z)^T and L2*(x,y,z) = -L3(x,y,z)^T as matrices,
    # where the starred maps are the L maps of the dual bundle
    co = dual_rep(adj)
    a = adj.algebra
    e = a.basis_vectors()
    m = adj.module_dim
    vb = [Vec.basis(m, p) for p in range(m)]

    def mat(fn, rep, x, y, z):
        return Matrix.from_columns([fn(rep, x, y, z, u) for u in vb])

    for idx in itertools.product(range(4), repeat=3):
        x, y, z = (e[i] for i in idx)
        assert mat(l1, co, x, y, z) == mat(l1, adj, x, y, z).T
        assert mat(l2, co, x, y, z) == -mat(l3, adj, x, y, z).T


# -- coherence ----------------------------------------------------------------------

def test_coherence_zero_product(f4):
    assert check_coherence(f4).passed


def test_coherence_zero_bracket():
    t = trunc(3)
    assert check_coherence(t).passed


def test_coherence_fails_on_non_tfm():
    bad = AlgebraBundle(2, product=Tensor(2, 3, {(0, 1, 0): 1}),
                        bracket=Tensor(2, 4, {}))
    report = check_coherence(bad)
    assert not report.passed
    assert report.counterexamples[0].identity == "comm"


# -- semidirect product ---------------------------------------------------------------

def test_semidirect_adjoint_passes(adj):
    sd = semidirect(adj)
    assert sd.dim == 8
    assert check_axioms("ternary-f-manifold", sd).passed


def test_semidirect_zero_rep_is_direct_sum(f4):
    from ternalg.constructions import direct_sum

    z = AlgebraBundle(2, product=Tensor(2, 3, {}), bracket=Tensor(2, 4, {}))
    r = RepBundle(algebra=f4, rho=BiRep.zero(4, 2), mu=LinRep.zero(4, 2))
    sd = semidirect(r)
    ds = direct_sum(f4, z)
    assert sd.product == ds.product
    assert sd.bracket == ds.bracket


def test_semidirect_equivalence_on_catalog_reps(adj):
    # positive direction of the equivalence on both catalog representations
    for rep in (adj, adjoint_rep(trunc(3))):
        assert check_representation("ternary-fmanifold-rep", rep).passed
        assert check_axioms("ternary-f-manifold", semidirect(rep)).passed


def test_semidirect_iff_on_perturbations(adj):
    # representation verdict and semidirect structure verdict always agree
    rng = random.Random(2024)
    for _ in range(5):
        i, j = rng.sample(range(4), 2)
        row, col = rng.randrange(4), rng.randrange(4)
        keep_skew = rng.random() < 0.5
        bad = perturb_rho(adj, i, j, row, col, Fraction(rng.randint(1, 3)), keep_skew)
        rep_ok = check_representation("ternary-fmanifold-rep", bad).passed
        sd_ok = check_axioms("ternary-f-manifold", semidirect(bad)).passed
        assert not rep_ok
        assert not sd_ok


# -- slot-fixed and sub-adjacent representations ----------------------------------------

def test_fix_slot_rep_zero_anchor(adj):
    out = fix_slot_rep(adj, Vec.zero(4))
    assert all(m.is_zero() for m in out.rho.mats)


def test_fix_slot_rep_value(adj, f4):
    out = fix_slot_rep(adj, f4.basis(3))
    # rho_{e4}(e1) maps e2 -> [e1,e4,e2] = -e3
    assert out.rho.mats[0].apply(f4.basis(1)) == Vec([0, 0, -1, 0])


def test_fix_slot_rep_passes_binary_checker(adj):
    out = fix_slot_rep(adj, Vec.basis(4, 3))
    assert check_representation("fmanifold-rep", out).passed


def test_rep_of_subadjacent_zero():
    z = AlgebraBundle(2, product=Tensor(2, 3, {}), bracket=Tensor(2, 4, {}))
    r = rep_of_subadjacent(z)
    assert all(m.is_zero() for m in r.mu.mats)


def test_rep_of_subadjacent_catalog_instance():
    pre = induced_pre_fmanifold(fil4_rb(), fil4_adjoint())
    r = rep_of_subadjacent(pre)
    assert check_representation("ternary-fmanifold-rep", r).passed


def test_rep_of_subadjacent_columns():
    pre = induced_pre_fmanifold(fil4_rb(), fil4_adjoint())
    r = rep_of_subadjacent(pre)
    e = pre.basis_vectors()
    for i, j, k in itertools.product(range(4), repeat=3):
        assert r.rho.mats[i][j].column(k) == pre.br3(e[i], e[j], e[k])
