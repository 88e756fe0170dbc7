"""Pinned report bytes of every operator and construction checker.

Each case is a seeded near-miss of a catalog pass: a nudged relative
Rota-Baxter map, symplectic form, Nijenhuis candidate, trace or
homomorphism.  For k = 1, 5 and 100 the sha256 of
`schema.dumps(report_to_obj(...))` and the `tuple_count` are pinned, so any
change to the scan order, the shared first-k budget, the tuple count or the
exact residuals shows here.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from ternalg import schema
from ternalg.catalog import (
    fil4,
    fil4_adjoint,
    fil4_rb,
    fil4_symplectic,
    gl2_trace,
    heisenberg_trace,
    r_int,
    trunc,
)
from ternalg.constructions import (
    TraceFunctional,
    check_induced_condition,
    check_trace,
    direct_sum,
)
from ternalg.linalg import InterMap, Matrix, Vec
from ternalg.operators import (
    BilinearForm,
    check_cyclic_2cocycle,
    check_nijenhuis,
    check_relative_rb,
    check_relative_rb_3lie,
    check_relative_rb_comm,
    check_symplectic,
)
from ternalg.representations import adjoint_rep
from ternalg.structures import AlgebraBundle, check_homomorphism

KS = (1, 5, 100)
DELTAS = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(-1, 7))


def nudged(rows, rng, times=2, skew=False):
    """The matrix rows with `times` seeded entries moved by non-unit
    rationals; with `skew`, the transposed entry moves the other way."""
    rows = [list(r) for r in rows]
    for _ in range(times):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        if skew and i == j:
            j = (j + 1) % len(rows)
        d = rng.choice(DELTAS)
        rows[i][j] += d
        if skew:
            rows[j][i] -= d
    return Matrix(rows)


def nudged_map(m, rng):
    return InterMap(nudged(m.matrix.entries, rng))


def nudged_tau(tau, rng):
    return TraceFunctional(Vec(nudged([tau.row.entries], rng).row(0)))


def with_product(b, product):
    return AlgebraBundle(b.dim, product=product, bracket=b.bracket,
                         binary_bracket=b.binary_bracket)


def relative_rb(check, rep, t):
    return lambda rng, k: check(nudged_map(t, rng), rep, max_counterexamples=k)


def form(check, bundle, b):
    return lambda rng, k: check(BilinearForm(nudged(b.matrix.entries, rng, skew=True)),
                                bundle, max_counterexamples=k)


def nijenhuis(bundle):
    def run(rng, k):
        scalar = InterMap(Matrix.identity(bundle.dim).scale(2))
        return check_nijenhuis(nudged_map(scalar, rng), bundle, max_counterexamples=k)
    return run


def trace(check, make):
    def run(rng, k):
        bundle, tau = make()
        return check(bundle, nudged_tau(tau, rng), max_counterexamples=k)
    return run


def homomorphism(bundle):
    return lambda rng, k: check_homomorphism(
        nudged_map(InterMap.identity(bundle.dim), rng), bundle, bundle, max_counterexamples=k)


def _heisenberg_trunc3():
    b, tau = heisenberg_trace()
    return with_product(b, trunc(3).product), tau


_R3, _R4 = adjoint_rep(trunc(3)), adjoint_rep(trunc(4))
_PRODUCT_ONLY = AlgebraBundle(3, product=trunc(3).product)
_BRACKET_ONLY = AlgebraBundle(4, bracket=fil4().bracket)
_BOTH = direct_sum(fil4(), trunc(3))
_SKEW4 = BilinearForm(Matrix([[0, 1, 0, 2], [-1, 0, 1, 0], [0, -1, 0, 1], [-2, 0, -1, 0]]))
_SKEW7 = BilinearForm(Matrix([[0, 1, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0, 0],
                              [0, 0, 0, 1, 0, 0, 0], [0, 0, -1, 0, 0, 0, 0],
                              [0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, -1, 0, 1],
                              [0, 0, 0, 0, 0, -1, 0]]))

CASES = {
    "rb-comm.fil4_rb": relative_rb(check_relative_rb_comm, fil4_adjoint(), fil4_rb()),
    "rb-3lie.fil4_rb": relative_rb(check_relative_rb_3lie, fil4_adjoint(), fil4_rb()),
    "rb.fil4_rb": relative_rb(check_relative_rb, fil4_adjoint(), fil4_rb()),
    "rb-comm.r_int3": relative_rb(check_relative_rb_comm, _R3, r_int(3)),
    "rb-3lie.r_int3": relative_rb(check_relative_rb_3lie, _R3, r_int(3)),
    "rb.r_int3": relative_rb(check_relative_rb, _R3, r_int(3)),
    "rb-comm.r_int4": relative_rb(check_relative_rb_comm, _R4, r_int(4)),
    "rb-3lie.r_int4": relative_rb(check_relative_rb_3lie, _R4, r_int(4)),
    "rb.r_int4": relative_rb(check_relative_rb, _R4, r_int(4)),
    "symplectic.fil4": form(check_symplectic, fil4(), fil4_symplectic()),
    "cocycle.fil4": form(check_cyclic_2cocycle, fil4(), fil4_symplectic()),
    "cocycle.trunc4": form(check_cyclic_2cocycle, trunc(4), _SKEW4),
    "symplectic.fil4_trunc3": form(check_symplectic, _BOTH, _SKEW7),
    "cocycle.fil4_trunc3": form(check_cyclic_2cocycle, _BOTH, _SKEW7),
    "nijenhuis.product": nijenhuis(_PRODUCT_ONLY),
    "nijenhuis.bracket": nijenhuis(_BRACKET_ONLY),
    "nijenhuis.both": nijenhuis(_BOTH),
    "trace.gl2": trace(check_trace, gl2_trace),
    "trace.heisenberg": trace(check_trace, heisenberg_trace),
    "induced.gl2": trace(check_induced_condition, gl2_trace),
    "induced.heisenberg": trace(check_induced_condition, heisenberg_trace),
    "induced.heisenberg_trunc3": trace(check_induced_condition, _heisenberg_trunc3),
    "hom.trunc3": homomorphism(trunc(3)),
    "hom.gl2": homomorphism(gl2_trace()[0]),
}

# case -> {k: (tuple_count, sha256 of the report bytes)}, computed with the
# checkers as they were before they moved onto the shared condition driver
PINNED = {
    'cocycle.fil4': {
        1: (64, "d95e8d84e817a3abc7c286c04c5e67e3717c7e54f9953812b6c333e8fd9a3649"),
        5: (64, "d95e8d84e817a3abc7c286c04c5e67e3717c7e54f9953812b6c333e8fd9a3649"),
        100: (64, "d95e8d84e817a3abc7c286c04c5e67e3717c7e54f9953812b6c333e8fd9a3649"),
    },
    'cocycle.fil4_trunc3': {
        1: (230, "2c86c7c648c684dc41782458edeea9f0e969801e026b8159bb2631aa7142b871"),
        5: (343, "bd03ef3e9719591b29db21146da5289d60230b147aa1b9df178712f26d55d8ec"),
        100: (343, "bd03ef3e9719591b29db21146da5289d60230b147aa1b9df178712f26d55d8ec"),
    },
    'cocycle.trunc4': {
        1: (2, "9f5a72cc5d7def38afb62510e0d68b9f05a53691162b07f1ac2cfecbea62158e"),
        5: (6, "01af4ccc8ee9bda002ba162be96f40c37a81a11bf31cde3ac55b61a84139bb32"),
        100: (64, "0415fcdb229809f117f104f585b228b19a95e54a3d66884f23c044fab2c1ca9b"),
    },
    'hom.gl2': {
        1: (19, "c00db03e2fd40c5b4b86a326c6faca6bd1b87f943d89b6d6d1c3dbcb57a2b93a"),
        5: (32, "a57cd8aa47d652301cb5e59f95518c7168384bf03478dc159289425909685b00"),
        100: (32, "a57cd8aa47d652301cb5e59f95518c7168384bf03478dc159289425909685b00"),
    },
    'hom.trunc3': {
        1: (1, "66ef7c565bf2ae821a3bb9b6a48567ee781c7c0f38bdbd4c2b86a425a8e99871"),
        5: (7, "cbecf95011870fc31ab91240eb667961c62c015bc11d0dc97dd5a5c5caa9d426"),
        100: (36, "b124c01f7321d5ac7de7c49ac5eeddb7168a32a60a39d0fdd3fb45de8ed9378c"),
    },
    'induced.gl2': {
        1: (1024, "c58d7e60e2ac5387748101f7e8a26465c1075efb45fe611ecc86e41dc531561a"),
        5: (1024, "c58d7e60e2ac5387748101f7e8a26465c1075efb45fe611ecc86e41dc531561a"),
        100: (1024, "c58d7e60e2ac5387748101f7e8a26465c1075efb45fe611ecc86e41dc531561a"),
    },
    'induced.heisenberg': {
        1: (243, "7915fe5705234adc2d18304c57074c31e945ca71a8194902d76848200de9cf29"),
        5: (243, "7915fe5705234adc2d18304c57074c31e945ca71a8194902d76848200de9cf29"),
        100: (243, "7915fe5705234adc2d18304c57074c31e945ca71a8194902d76848200de9cf29"),
    },
    'induced.heisenberg_trunc3': {
        1: (10, "62f7aa255103aca0dd12bf892c2b5a064c2bf7aba31a1638db073dba0faddcbe"),
        5: (243, "fc8a511e088621b1b9e3670a04009247bec2e1068e299ce1727f1fad1ae3cb93"),
        100: (243, "fc8a511e088621b1b9e3670a04009247bec2e1068e299ce1727f1fad1ae3cb93"),
    },
    'nijenhuis.both': {
        1: (62, "460fed074cf06458f9a180c73fe98b3be4d0ccc8743981c901c7e01ce8306a9a"),
        5: (296, "f3abdf6d484ba20f9d5f0412ab10ea9b0737ca4fbdea81d2520df771bfbf642f"),
        100: (392, "2040ee763d045697c743b7be7ba0b262b0384a35d3963b35052e1022b15b7c22"),
    },
    'nijenhuis.bracket': {
        1: (8, "eedc3bd748beec0c735859ae30396235bf2a64d095de2e7f93c03ac07ba88d42"),
        5: (29, "33f7fa862352d998454f791d472782b91a6f47fea8f049b0ebc5a332901b6c99"),
        100: (64, "8fc57ed953a6dcfa1f801c200155d71bad1ef86d77e7ef3f042f325c9ca9767d"),
    },
    'nijenhuis.product': {
        1: (6, "64d26051758a6732ecb647c82518b27376a7bba2151bab9a823b4a4d539fbf42"),
        5: (9, "a2b0f67f9dae8ca6780ccb0846bdee424ad983bd7cbef4c3456c806c6dece9b3"),
        100: (9, "a2b0f67f9dae8ca6780ccb0846bdee424ad983bd7cbef4c3456c806c6dece9b3"),
    },
    'rb-3lie.fil4_rb': {
        1: (7, "00f7d83999a5e48230dd44cdf93150cca0f910138d5813c62187210c02ebf868"),
        5: (14, "df880863c099680c9c9952d26387f4554071da07de7e021637f9bcec80dd7425"),
        100: (64, "28cf3ed7a372a92f4a1d32c9efdec27ff854659702af63d47b55b960ed0da16e"),
    },
    'rb-3lie.r_int3': {
        1: (27, "788e01b3f50f4715125ed5a66826458bdcb925880c802da520f647f1d3d5becf"),
        5: (27, "788e01b3f50f4715125ed5a66826458bdcb925880c802da520f647f1d3d5becf"),
        100: (27, "788e01b3f50f4715125ed5a66826458bdcb925880c802da520f647f1d3d5becf"),
    },
    'rb-3lie.r_int4': {
        1: (64, "18fac13402eb8858d4b3497629017a5c7eda5ad23c63898ebe283ce2c261443d"),
        5: (64, "18fac13402eb8858d4b3497629017a5c7eda5ad23c63898ebe283ce2c261443d"),
        100: (64, "18fac13402eb8858d4b3497629017a5c7eda5ad23c63898ebe283ce2c261443d"),
    },
    'rb-comm.fil4_rb': {
        1: (16, "a3eb0ed750b078da2bb7d172a04609c9f773345c0f58cf3d6c26026a8fc89547"),
        5: (16, "a3eb0ed750b078da2bb7d172a04609c9f773345c0f58cf3d6c26026a8fc89547"),
        100: (16, "a3eb0ed750b078da2bb7d172a04609c9f773345c0f58cf3d6c26026a8fc89547"),
    },
    'rb-comm.r_int3': {
        1: (1, "a923f087e18e09bf0700c33a0a5943e57a3c2baefeacbfb82a080de83a10ced0"),
        5: (9, "78bd0a2f034fcf7d4df1264214723ed63334365d09c73177688050a85f9cd079"),
        100: (9, "78bd0a2f034fcf7d4df1264214723ed63334365d09c73177688050a85f9cd079"),
    },
    'rb-comm.r_int4': {
        1: (1, "c186ed0ffd3c2e68ffb432718bdc98c8b04e4cf4724a1174916f73b23f929a9e"),
        5: (16, "631030b2fbc41e41065029ff02ca166488699204069c19f3c4bb5c0582943b88"),
        100: (16, "631030b2fbc41e41065029ff02ca166488699204069c19f3c4bb5c0582943b88"),
    },
    'rb.fil4_rb': {
        1: (23, "3639c9c462d468424c8dcc841f97800b73e220588658e9d5de59cfec6c6943b2"),
        5: (35, "5a02196e205c8dacbcd2d1bc07a45706d34fa0043eec538318e2e679e4728c68"),
        100: (80, "32518d91b5c5d81b724f5a9282384de96bcf7bc7ce819e17d35150ae6607aecb"),
    },
    'rb.r_int3': {
        1: (1, "b03af5009d55e0357f7afa54d81d59978946c3d844d1d28245459186b2b112bb"),
        5: (7, "472dcf80bf3a71bc5531dc43520bbc91d8ff450ad6aaa752b17b1afe483286c2"),
        100: (36, "98cbeda9c4572f15cb3c293649a0aee97dc900976a6f92908e587009bfb6f13a"),
    },
    'rb.r_int4': {
        1: (1, "8c55b6e999b6efd1e5755938b3d03d20fde035f8e61b74f5e1f41f4f496eefd4"),
        5: (8, "69869396c7097e291b119cf112a085b4c404e6ee0f5263595431377ffaee53c1"),
        100: (80, "a15ab5f19e11b8c064526617975a0a1945a33a213905c44b1f30f08bda6901b9"),
    },
    'symplectic.fil4': {
        1: (256, "c0f9275345a68ba57487c9d3cdacc1a149612b6626dcdcfd21cec287183b6d23"),
        5: (256, "c0f9275345a68ba57487c9d3cdacc1a149612b6626dcdcfd21cec287183b6d23"),
        100: (256, "c0f9275345a68ba57487c9d3cdacc1a149612b6626dcdcfd21cec287183b6d23"),
    },
    'symplectic.fil4_trunc3': {
        1: (467, "436fdac7c6341f6e44ba3ed54ba29f07af20158dc1cd580a69a3897157dc3452"),
        5: (509, "44f96f693697d511f7e411f18ce123df51b6f422e16909f7086f61a31cddbdca"),
        100: (2401, "6dd3519b7f9df089675593943b437702e1332e18dbd8348e4b3b3d94f98c0c48"),
    },
    'trace.gl2': {
        1: (2, "96ec23f7ff5698bd5b8ad8d238d785df6c01d86b401dfe84e1e12920b4eda23f"),
        5: (16, "685813a64b4e431680a1cf5097444c81eddac160fa2e509facab4a005765f0f7"),
        100: (16, "685813a64b4e431680a1cf5097444c81eddac160fa2e509facab4a005765f0f7"),
    },
    'trace.heisenberg': {
        1: (2, "4b563ec6b8cf8ad958124c9cc69ad7f67d33ac3d59efd453442317a9e11371ed"),
        5: (9, "81769da20093adb32c5c9a0c975697cd341f75681458f8650c57c089e6a91937"),
        100: (9, "81769da20093adb32c5c9a0c975697cd341f75681458f8650c57c089e6a91937"),
    },
}


def report_digest(case, k):
    report = CASES[case](random.Random(case), k)
    text = schema.dumps(schema.report_to_obj(report))
    return report.tuple_count, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_checker_report_pinned(case):
    for k in KS:
        assert report_digest(case, k) == PINNED[case][k], (case, k)


def test_every_checker_has_a_failing_case():
    # a pin of a passing report would not see the budget or the residuals
    failing = {case.split(".")[0] for case in CASES
               if not CASES[case](random.Random(case), 1).passed}
    assert failing == {case.split(".")[0] for case in CASES}
