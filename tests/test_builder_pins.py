"""Pinned output bytes of every builder.

Each case builds a bundle, representation or map from catalog inputs, from
seeded rational bundles, or at n = 16 (`direct_sum(sd, sd)` and
`semidirect(adjoint_rep(sd))`, with sd = semidirect(adjoint_rep(fil4))),
and pins the sha256 of `schema.dumps(document_to_obj(...))`.  The document
lists every nonzero structure constant, representation matrix and basis
label in canonical order; a unit and a single-argument action, which the
schema does not serialize, are added as named maps.  So any change to what
a builder emits shows here.
"""

import hashlib
import itertools
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
    direct_sum,
    fix_slot_bracket,
    subadjacent_commutator,
    subadjacent_ternary_fmanifold,
    symmetrize_zinbiel,
    tensor_with_comm_assoc,
    trace_induced,
)
from ternalg.linalg import InterMap, Matrix, Tensor, Vec
from ternalg.operators import (
    BilinearForm,
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
    LinRep,
    RepBundle,
    adjoint_rep,
    dual_rep,
    fix_slot_rep,
    rep_of_subadjacent,
    semidirect,
)
from ternalg.structures import AlgebraBundle


def rational(seed, n, density=0.3):
    """A seeded bundle with all three tensors, about `density` of the
    constants nonzero rationals (a drawn zero is passed on as a nonzero)."""
    rng = random.Random(seed)

    def nonzeros(arity):
        return {idx: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for idx in itertools.product(range(n), repeat=arity)
                if rng.random() < density}

    return AlgebraBundle(n, product=Tensor(n, 3, nonzeros(3)),
                         bracket=Tensor(n, 4, nonzeros(4)),
                         binary_bracket=Tensor(n, 3, nonzeros(3)))


def doc(bundle, rep=None, maps=None):
    maps = dict(maps or {})
    if bundle.unit is not None:
        maps["unit"] = InterMap(Matrix([bundle.unit.entries]))
    if rep is not None and isinstance(rep.rho, LinRep):
        maps.update({f"rho{i}": InterMap(m) for i, m in enumerate(rep.rho.mats)})
        rep = RepBundle(algebra=rep.algebra, mu=rep.mu)
    return schema.document_to_obj(bundle, rep=rep, maps=maps)


def rep_doc(rep):
    return doc(rep.algebra, rep=rep)


def sd():
    return semidirect(fil4_adjoint())


def pre_f4():
    return induced_pre_fmanifold(fil4_rb(), fil4_adjoint())


def regular(n):
    return adjoint_rep(trunc(n))


ANCHOR = Vec([1, Fraction(-1, 2), 0, 3])

CASES = {
    "direct_sum.fil4_trunc4": lambda: doc(direct_sum(fil4(), trunc(4))),
    "direct_sum.trunc3_trunc2": lambda: doc(direct_sum(trunc(3), trunc(2))),
    "direct_sum.rational": lambda: doc(direct_sum(rational(1, 3), rational(2, 2))),
    "direct_sum.sd_sd": lambda: doc(direct_sum(sd(), sd())),
    "tensor_with_comm_assoc.fil4_trunc2": lambda: doc(tensor_with_comm_assoc(fil4(), trunc(2))),
    "tensor_with_comm_assoc.trunc2_trunc3": lambda: doc(
        tensor_with_comm_assoc(trunc(2), trunc(3))),
    "tensor_with_comm_assoc.rational": lambda: doc(
        tensor_with_comm_assoc(rational(3, 3), rational(4, 2))),
    "fix_slot_bracket.fil4": lambda: doc(fix_slot_bracket(fil4(), ANCHOR)),
    "fix_slot_bracket.rational": lambda: doc(
        fix_slot_bracket(rational(5, 3), Vec([Fraction(2, 3), 0, -1]))),
    "trace_induced.heisenberg": lambda: doc(trace_induced(
        heisenberg_trace()[0], TraceFunctional(Vec([Fraction(3, 2), Fraction(-2, 5), 0])))),
    "trace_induced.gl2": lambda: doc(trace_induced(
        gl2_trace()[0], TraceFunctional(Vec([0, 0, 0, Fraction(7, 3)])))),
    "symmetrize_zinbiel.r_int4": lambda: doc(
        symmetrize_zinbiel(induced_zinbiel(r_int(4), regular(4)))),
    "symmetrize_zinbiel.rational": lambda: doc(symmetrize_zinbiel(rational(6, 3))),
    "subadjacent_commutator.fil4_rb": lambda: doc(
        subadjacent_commutator(induced_3prelie(fil4_rb(), fil4_adjoint()))),
    "subadjacent_commutator.rational": lambda: doc(subadjacent_commutator(rational(7, 3))),
    "subadjacent_ternary_fmanifold.fil4_rb": lambda: doc(
        subadjacent_ternary_fmanifold(pre_f4())),
    "subadjacent_ternary_fmanifold.r_int4": lambda: doc(
        subadjacent_ternary_fmanifold(rb_induced_pre(r_int(4), trunc(4)))),
    "subadjacent_ternary_fmanifold.rational": lambda: doc(
        subadjacent_ternary_fmanifold(rational(8, 3))),
    "adjoint_rep.fil4": lambda: rep_doc(adjoint_rep(fil4())),
    "adjoint_rep.trunc4": lambda: rep_doc(regular(4)),
    "adjoint_rep.rational": lambda: rep_doc(adjoint_rep(rational(9, 3))),
    "dual_rep.trunc3": lambda: rep_doc(dual_rep(regular(3))),
    "dual_rep.rational": lambda: rep_doc(dual_rep(adjoint_rep(rational(10, 3)))),
    "fix_slot_rep.fil4": lambda: rep_doc(fix_slot_rep(fil4_adjoint(), ANCHOR)),
    "fix_slot_rep.rational": lambda: rep_doc(
        fix_slot_rep(adjoint_rep(rational(11, 3)), Vec([1, Fraction(5, 2), -2]))),
    "rep_of_subadjacent.fil4_rb": lambda: rep_doc(rep_of_subadjacent(pre_f4())),
    "semidirect.fil4": lambda: doc(sd()),
    "semidirect.trunc3": lambda: doc(semidirect(regular(3))),
    "semidirect.rational": lambda: doc(semidirect(adjoint_rep(rational(12, 3)))),
    "semidirect.adjoint_sd": lambda: doc(semidirect(adjoint_rep(sd()))),
    "induced_zinbiel.r_int4": lambda: doc(induced_zinbiel(r_int(4), regular(4))),
    "induced_3prelie.fil4_rb": lambda: doc(induced_3prelie(fil4_rb(), fil4_adjoint())),
    "induced_pre_fmanifold.fil4_rb": lambda: doc(pre_f4()),
    "induced_pre_fmanifold.r_int4": lambda: doc(induced_pre_fmanifold(r_int(4), regular(4))),
    "rb_induced_pre.r_int4": lambda: doc(rb_induced_pre(r_int(4), trunc(4))),
    "invertible_rb_to_pre.fil4_rb": lambda: doc(
        invertible_rb_to_pre(InterMap.identity(4), rep_of_subadjacent(pre_f4()))),
    "invertible_rb_to_pre.r_int3": lambda: doc(invertible_rb_to_pre(
        InterMap.identity(3), rep_of_subadjacent(rb_induced_pre(r_int(3), trunc(3))))),
    "symplectic_induced_pre.fil4": lambda: doc(
        symplectic_induced_pre(fil4_symplectic(), fil4())),
    "symplectic_induced_pre.fil4_scaled": lambda: doc(symplectic_induced_pre(
        BilinearForm(fil4_symplectic().matrix.scale(Fraction(7, 3))), fil4())),
    "lift_nijenhuis.r_int4": lambda: doc(
        trunc(1), maps={"N": lift_nijenhuis(r_int(4), regular(4))}),
    "deform.lift_fil4_rb": lambda: doc(
        deform(lift_nijenhuis(fil4_rb(), fil4_adjoint()), sd())),
    "deform.lift_r_int3": lambda: doc(
        deform(lift_nijenhuis(r_int(3), regular(3)), semidirect(regular(3)))),
    "induced_rep_on_A.fil4_rb": lambda: rep_doc(induced_rep_on_A(fil4_rb(), fil4_adjoint())),
    "induced_rep_on_A.r_int4": lambda: rep_doc(induced_rep_on_A(r_int(4), regular(4))),
}

PINNED = {
    "adjoint_rep.fil4": "9a71e5dd204ff02d38bd0a5a46015cab5687fbbe29265fe14d43afc9b782388d",
    "adjoint_rep.rational": "0f22f83edb7a1038fa9d600fd31acef96427f92c9d9ef9d1229c435f35293b12",
    "adjoint_rep.trunc4": "d790d6e2dacf745dcaa6f5fb6125c851a4b635493d4f2bcb09f74ce2c3aac50f",
    "deform.lift_fil4_rb": "cee6cae6bf1e73fb02db30d75fc851c345a485825bece7df5f238ce6efc380f8",
    "deform.lift_r_int3": "63a290b3a8b38add8230ea4ef4a4f76b60796530c2c66c5d553d880d3adf850f",
    "direct_sum.fil4_trunc4": "4ab91be420d3063156aa3d7ace1da522ffbd83f04363c37d2227da40aaccc31f",
    "direct_sum.rational": "df6c5391c35253d65feaa2eeefe009659cc9acc8cd2514bc9b7809c68e087ca5",
    "direct_sum.sd_sd": "22a8ff3c7d6d75c9f6636a4d23472e93067534ac27b68a526e2ff9332cf1c74d",
    "direct_sum.trunc3_trunc2": "f2167ef4458d4539850db9d8e50c93e5bd29fc646f03bf056c62db4b21e546f8",
    "dual_rep.rational": "ff532adbf89fe79424a631151d203ca06a108d9f844dfdeea9ce9e19743eb439",
    "dual_rep.trunc3": "c133c354a134aab5a7565ac9c188d4c3475f2c5d983d6aa996d2bed348a2aa6c",
    "fix_slot_bracket.fil4": "7d3e76a0448764f7560d5ac4a872a073de0e15354621724a43cf8cc7eb8ca6af",
    "fix_slot_bracket.rational": "2920da8f3d0d48da09044d9919ee430f8e6d4b833e7725e082db02ba3c9ee88e",
    "fix_slot_rep.fil4": "963716d06d1717275f9bf8a753592e106e2441c716898e1ded2c2c8ee109d14e",
    "fix_slot_rep.rational": "21df10f55fe7688a92af1e2bbd2eaf0b3212dfd680816801963204cc42ed9868",
    "induced_3prelie.fil4_rb": "05b1b7cb349795d79900f2d1651d7bfd4b7c14c15ab66911101b76380dd48716",
    "induced_pre_fmanifold.fil4_rb": "0e0e5b798ca88be126dee28d0090f64d6fcc2fbcdcdd5c5f523700b39f85fd8b",
    "induced_pre_fmanifold.r_int4": "352efe9661274aeb9c35d3a7129ffd4226d9f925e0e6c6fed39f2d41fd8af7be",
    "induced_rep_on_A.fil4_rb": "f89ee1afad359cab447ba53e49dfa7cfb8ce39442bb56f49c1b5caf7689eb424",
    "induced_rep_on_A.r_int4": "f128a3462b560124514450e424fc547f3fd6091ca3e4c04f1a9fc479a2cb2f66",
    "induced_zinbiel.r_int4": "d2a86bde187348ad9ba6d8733039f0163c6f2247ae43ce7217b4c74e7c4411d2",
    "invertible_rb_to_pre.fil4_rb": "0e0e5b798ca88be126dee28d0090f64d6fcc2fbcdcdd5c5f523700b39f85fd8b",
    "invertible_rb_to_pre.r_int3": "9f2edab7568449ce923197e3eab4f59e8ddda41b9f0feb683d7b16c0d9bff4a5",
    "lift_nijenhuis.r_int4": "bdc9ed3b70f4e0071cad289cb3c3f42925f83e43fcafc040395d7b9191d99bb9",
    "rb_induced_pre.r_int4": "5aa1f32704722795845e77c0e7645720bf62f3ec96c642dce7d8d29f1f9da688",
    "rep_of_subadjacent.fil4_rb": "e94d6812cfc28ce772b2a24e3ed5e55aca599d7bcd0d67883059893e97630f07",
    "semidirect.adjoint_sd": "dc60c21a9425f56b985af4e8b83a3cec7073ac3e2ea69a63e50fcc541587083a",
    "semidirect.fil4": "44fe20fb00a639d95d1693421d9fdf27d54f75f98693c79ac8b52fafc1e9d87a",
    "semidirect.rational": "50b4273e7c944f17fff0aa5b22c4e94d24b8ee0ea1b3e186b728b96ee2d20f68",
    "semidirect.trunc3": "349dde7ed1fc75d84eaf77cc9b375000f57534ac5a02ff57970f41813f14c1de",
    "subadjacent_commutator.fil4_rb": "7fbb35f8730e0f93df487748116b7ccb91156cbc8cbff11b58614b7d22f83346",
    "subadjacent_commutator.rational": "458fd7ee51fd9eb7219aa9063664f7362d36643e7e1f9533c1b3f4b123f25451",
    "subadjacent_ternary_fmanifold.fil4_rb": "f57decf3cd68026e8c318aaa83f7317dca64bcb95e113017e413a073cbdccb4b",
    "subadjacent_ternary_fmanifold.r_int4": "48cdcb3bc3a4e6aa37deed2aa3832de3592f51de7a6f32df5927cf779c49e428",
    "subadjacent_ternary_fmanifold.rational": "a264c4609384136be98c4811d2235566607956784ff1f68be73bed793740142f",
    "symmetrize_zinbiel.r_int4": "4d80973bc6342714141d713af34c21b29db011f53bd79c7cc0e38b8a14adfab5",
    "symmetrize_zinbiel.rational": "53f4708b43e3146be3d4a036662906a0f5a2313670f2f5658b92d25404194740",
    "symplectic_induced_pre.fil4": "8dbe40e27299ff1c3d86bf2fe067d9cfb79d2091ac668982b87d3304c97a31d9",
    "symplectic_induced_pre.fil4_scaled": "8dbe40e27299ff1c3d86bf2fe067d9cfb79d2091ac668982b87d3304c97a31d9",
    "tensor_with_comm_assoc.fil4_trunc2": "c7e1d56d0e12b259bb0e05b87aade9711c29b7ad6b699df45ff9fc79be6bbbb6",
    "tensor_with_comm_assoc.rational": "f2d355d020786aa500d92e2b68131b5bd9960949b165f0340106163d9bb6c0c0",
    "tensor_with_comm_assoc.trunc2_trunc3": "cc074b084b2193b21e31066b38fed370f26a2a46b5908071b9a180ae81a4bb8c",
    "trace_induced.gl2": "bf9c511717872fde3989f652bc40beec520418928cdbf6fb84a920b39f61e5b7",
    "trace_induced.heisenberg": "a92f7d5b44a9d6f21f117af62f04b1beaf2859e1bb2c79422955191fd94fb13e",
}


def digest(case):
    return hashlib.sha256(schema.dumps(CASES[case]()).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_builder_output_pinned(case):
    assert digest(case) == PINNED[case]
