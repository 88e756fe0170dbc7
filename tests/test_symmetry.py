"""Symmetry-reduced identity scans: the certificates and the reduced scan.

A scan visits one representative per orbit of an identity's certified
symmetry blocks once the identities the certificate assumes have passed in
the same run, and falls back to every tuple otherwise.  The reports must
still equal those of `structure_oracle`, which scans every tuple with dense
hand-written formulas: verdict, counterexample indices and residuals, and
`tuple_count`.  The certificate itself must prove only true symmetries.
"""

import itertools
import logging
import random
from fractions import Fraction
from math import comb

import pytest

import structure_oracle as oracle
from test_structure_fastpath import (
    KS,
    check,
    coherence_near_miss_n8,
    kinds,
    noncoherent_tfm,
    NONCOHERENT_A,
    perturb,
    random_bundle,
    scaled,
)
from ternalg.catalog import _alternating_tensor4, fil4, trunc
from ternalg.constructions import direct_sum
from ternalg.linalg import Tensor, Tensor3, Tensor4, Vec
from ternalg.representations import check_coherence
from ternalg.structures import (
    IDENTITIES,
    KIND_IDENTITIES,
    AlgebraBundle,
    StructureKind,
    Symmetry,
    _certificate,
    _define,
    _op,
    _make_scanner,
    _ops,
    _orbit,
    _representative_count,
    _SYMMETRY_OF,
    _transpositions,
    check_axioms,
    eval_defect,
)

TFM = KIND_IDENTITIES[StructureKind.TERNARY_F_MANIFOLD]


def assumable(names, pos):
    return tuple(a for a in names[:pos] if a in _SYMMETRY_OF)


# -- the certificates ------------------------------------------------------------

# what the normaliser proves for each identity in its kind lists; the same
# in every list an identity appears in
CERTIFIED = {
    "comm": "alt(x1,x2) given no identity",
    "assoc": "alt(x1,x3) given comm",
    "zinbiel": None,
    "skew2": "sym(x1,x2) given no identity",
    "jacobi": "alt(x1,x2,x3) given skew2",
    "skew3": None,
    "fundamental": "alt(x1,x2) alt(x3,x4,x5) given skew3",
    "prelie3-skew": "sym(x1,x2) given no identity",
    "prelie3-a": None,
    "prelie3-b": None,
    "leibniz-np": "alt(x1,x2) sym(x3,x4) given comm, skew3",
    "hm2": "sym(x1,x2) sym(x3,x4) given comm",
    "hm3": "sym(x1,x2) sym(x4,x5) given comm",
    "prefm-1": "sym(x1,x2) given no identity",
    "prefm-11": "sym(x1,x2) sym(x3,x4) given no identity",
    "prefm-2": "sym(x3,x4) given no identity",
    "prenp-1": None,
    "prenp-2": "sym(x2,x3) given no identity",
    "coh1": "sym(x1,x2) given comm",
    "coh2": "sym(x1,x2) sym(x3,x4) given comm",
    "coh3": "sym(x3,x4) given comm",
}


def test_certificates_pinned():
    seen = set()
    for _, names in kinds():
        for pos, name in enumerate(names):
            cert = _certificate(IDENTITIES[name], assumable(names, pos))
            assert (str(cert) if cert else None) == CERTIFIED[name], name
            seen.add(name)
    assert seen == set(CERTIFIED) == set(IDENTITIES)


def swept(arity, blocks, n):
    """The tuples a sweep over the blocks visits: it yields every one, on a
    bracket that sends each basis triple to e1, of a map with one term."""
    br3 = _op("br3")
    m = {3: _define("every3", lambda x, y, z: br3(x, y, z)),
         5: _define("every5", lambda x1, x2, x3, x4, x5: br3(x1, x2, br3(x3, x4, x5)))}[arity]
    bracket = Tensor(n, 4, [(t + (0,), 1) for t in itertools.product(range(n), repeat=3)])
    ops = _ops(AlgebraBundle(n, bracket=bracket))
    return [t for t, _ in _make_scanner(ops, m, "sweep", blocks)()]


def test_representative_counts_at_n16():
    fundamental = _certificate(IDENTITIES["fundamental"], ("comm", "skew3"))
    hm3 = _certificate(IDENTITIES["hm3"], ("comm", "skew3"))
    assert fundamental.assumes == ("skew3",) and hm3.assumes == ("comm",)
    for cert, count in ((fundamental, 67_200), (hm3, 295_936)):
        assert len(swept(5, cert.blocks, 16)) == count
        assert _representative_count((16,) * 5, cert.blocks) == count
    assert 67_200 == comb(16, 2) * comb(16, 3)
    assert 295_936 == comb(17, 2) * 16 * comb(17, 2)


def symmetric_bundle(seed, n=4):
    """Random rational tensors with a symmetric product and alternating
    brackets: every identity a certificate may assume holds."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.choice((-3, -1, 0, 0, 1, 2)), rng.choice((1, 2, 5)))

    prod, bb, br = {}, {}, {}
    for i, j, k in itertools.product(range(n), repeat=3):
        if i <= j:
            prod[(i, j, k)] = prod[(j, i, k)] = q()
        if i < j:
            bb[(i, j, k)] = q()
            bb[(j, i, k)] = -bb[(i, j, k)]
    for i, j, k in itertools.combinations(range(n), 3):
        br[(i, j, k)] = {l: q() for l in range(n)}
    return AlgebraBundle(n, product=Tensor3.from_nonzeros(n, prod),
                         bracket=_alternating_tensor4(n, br),
                         binary_bracket=Tensor3.from_nonzeros(n, bb))


def random_vectors(rng, n, count):
    return [Vec([Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)])
            for _ in range(count)]


@pytest.mark.parametrize("seed", range(3))
def test_certified_blocks_hold_at_random_vectors(seed):
    # on a bundle satisfying every assumption, and for a certificate that
    # assumes nothing, also on one with arbitrary tensors
    rng = random.Random(seed)
    symmetric, raw = symmetric_bundle(seed), random_bundle(seed)
    for _, names in kinds():
        for pos, name in enumerate(names):
            cert = _certificate(IDENTITIES[name], assumable(names, pos))
            if cert is None:
                continue
            for b in [symmetric] + ([raw] if not cert.assumes else []):
                x = random_vectors(rng, b.dim, IDENTITIES[name].arity)
                d = eval_defect(name, b, x)
                # the symmetric bundle (n = 4) only zeroes what it assumes
                assert b.dim < 4 or not d.is_zero() or name in (
                    "comm", "skew2", "jacobi", "prelie3-skew")
                for slots, sign in cert.blocks:
                    for i, j in itertools.combinations(slots, 2):
                        y = list(x)
                        y[i], y[j] = x[j], x[i]
                        assert eval_defect(name, b, y) == d.scale(sign), (name, i, j)


def test_wrong_symmetries_are_rejected():
    fundamental, hm3, zinbiel = IDENTITIES["fundamental"], IDENTITIES["hm3"], IDENTITIES["zinbiel"]
    skew = (-1, ("skew3",))
    assert _transpositions(fundamental, ("comm", "skew3")) == {
        (0, 1): skew, (2, 3): skew, (2, 4): skew, (3, 4): skew}
    # nothing about a bracket that is not known to be alternating
    assert _transpositions(fundamental, ()) == {}
    assert _certificate(fundamental, ("comm",)) is None
    # Zinbiel has no symmetry, even for a symmetric product
    for given in ((), ("comm",), ("comm", "skew3", "skew2")):
        assert _transpositions(zinbiel, given) == {}
    # hm3 is not skew in (x3, x4), and needs comm for its symmetries
    assert (2, 3) not in _transpositions(hm3, ("comm", "skew3"))
    assert _transpositions(hm3, ("skew3",)) == {}
    # and those claims are false: at random vectors of a bundle satisfying
    # every assumption, each swap changes the defect by more than a sign
    b = symmetric_bundle(11)
    x = random_vectors(random.Random(11), b.dim, 5)
    for name, (i, j) in (("fundamental", (0, 2)), ("hm3", (2, 3)), ("hm3", (0, 3)),
                         ("zinbiel", (0, 1)), ("zinbiel", (1, 2))):
        args = x[:IDENTITIES[name].arity]
        y = list(args)
        y[i], y[j] = args[j], args[i]
        d, e = eval_defect(name, b, args), eval_defect(name, b, y)
        assert e != d and e != -d, (name, i, j)


def test_certifier_on_new_definitions():
    mul = _op("mul")
    left = _define("left", lambda x, y, z: mul(mul(x, y), z))
    assert _certificate(left, ()) is None
    assert str(_certificate(left, ("comm",))) == "sym(x1,x2) given comm"
    commutator = _define("commutator", lambda x, y, z: mul(mul(x, y), z) - mul(mul(y, x), z))
    assert _certificate(commutator, ()) == Symmetry((((0, 1), -1),), ())


@pytest.mark.parametrize("blocks", [
    (((0, 1), -1), ((2, 3, 4), -1)),
    (((0, 1), 1), ((3, 4), 1)),
    (((0, 2), -1),),
    (((1, 2), 1),),
    (((0, 1, 2), 1),),
])
def test_representatives_are_the_orbit_minima(blocks):
    n, arity = 3, max(s for slots, _ in blocks for s in slots) + 1
    reps = swept(arity, blocks, n)
    assert reps == sorted(reps)
    alternating = [slots for slots, sign in blocks if sign < 0]
    covered = set()
    for t in itertools.product(range(n), repeat=arity):
        # the closed-form count up to t is the sweep's
        assert _representative_count((n,) * arity, blocks, t) == sum(r <= t for r in reps)
        if any(len({t[s] for s in slots}) < len(slots) for slots in alternating):
            continue  # a repeated value in an alternating block: the defect vanishes
        orbit = _orbit(t, blocks)
        assert t in orbit and min(orbit) in reps
        covered.add(t)
    assert covered == set().union(*(_orbit(t, blocks) for t in reps))


# -- reduced scans against the oracle ----------------------------------------------

def scans(caplog):
    """{condition name: its 'scan ...' debug line} of the captured records."""
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("scan ")]
    return {line.split(":")[0][len("scan "):]: line for line in lines}


def agrees(b, label, names, caplog):
    """Compare every k with the oracle; return the k = 100 report and the
    scan lines of its run."""
    expected = oracle.reports(b, names, label, KS)
    for k in KS:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ternalg"):
            assert check(label, names, b, k) == expected[k], (label, k)
    return expected[max(KS)], scans(caplog)


def fil4_with_product(prod):
    return AlgebraBundle(4, product=Tensor3.from_nonzeros(4, prod),
                         bracket=scaled(fil4()).bracket)


# nilpotent commutative products on fil4's space (every product lands where
# the product vanishes, so they are associative): comm and assoc pass, and
# hm3 is the first identity to fail
NILPOTENT = [
    {(0, 0, 1): Fraction(2, 3)},
    {(0, 1, 2): Fraction(1, 2), (1, 0, 2): Fraction(1, 2)},
    {(0, 0, 3): Fraction(-3, 5), (1, 2, 3): Fraction(1, 7), (2, 1, 3): Fraction(1, 7)},
]


def bracket_near_miss(base, seed):
    """base with an alternating bracket orbit moved by a non-unit rational,
    redrawn until the oracle finds fundamental broken."""
    rng = random.Random(seed)
    while True:
        b = perturb(base, rng, "bracket")
        if not oracle.reports(b, ("fundamental",), "fundamental", (1,))[1].passed:
            return b


@pytest.mark.parametrize("seed", range(3))
def test_fundamental_near_misses(seed, caplog):
    # skew3 passes, fundamental fails on the reduced scan
    base = scaled(fil4()) if seed < 2 else direct_sum(scaled(fil4()), trunc(1))
    b = bracket_near_miss(base, seed)
    for label in ("3-lie", "ternary-f-manifold", "ternary-nambu-poisson", "coherence"):
        report, lines = agrees(b, label, KIND_IDENTITIES[StructureKind(label)], caplog)
        assert not report.passed
        assert report.counterexamples[0].identity == "fundamental"
        assert "skew3" in report.checked_identities
        assert lines["fundamental"].startswith(
            "scan fundamental: symmetry-reduced over alt(x1,x2) alt(x3,x4,x5) given skew3;")


@pytest.mark.parametrize("prod", NILPOTENT)
def test_hm3_near_misses(prod, caplog):
    b = fil4_with_product(prod)
    for label, names in (("ternary-f-manifold", TFM), ("comm+hm3", ("comm", "hm3")),
                         ("coherence", KIND_IDENTITIES[StructureKind.COHERENCE])):
        report, lines = agrees(b, label, names, caplog)
        assert not report.passed
        assert report.counterexamples[0].identity == "hm3"
        assert lines["hm3"].startswith(
            "scan hm3: symmetry-reduced over sym(x1,x2) sym(x4,x5) given comm;")


def test_fallback_when_comm_fails(caplog):
    # e1 e2 = e4/2 but e2 e1 = 0: comm fails, assoc holds, hm3 scans all
    b = fil4_with_product({(0, 1, 3): Fraction(1, 2)})
    for label, names in (("ternary-f-manifold", TFM), ("comm+hm3", ("comm", "hm3"))):
        report, lines = agrees(b, label, names, caplog)
        assert {ce.identity for ce in report.counterexamples} == {"comm", "hm3"}
        assert lines["comm"].startswith("scan comm: symmetry-reduced")
        assert lines["hm3"] == (
            "scan hm3: full range, certified sym(x1,x2) sym(x4,x5) given comm unused; "
            "1024 of 1024 tuples scanned")


def test_fallback_when_skew3_fails(caplog):
    nz = dict(scaled(fil4()).bracket.nonzeros())
    nz[(0, 1, 2, 1)] = Fraction(1, 3)  # one entry without its skew partners
    b = AlgebraBundle(4, product=Tensor3.zero(4), bracket=Tensor4.from_nonzeros(4, nz))
    for label, names in (("3-lie", ("skew3", "fundamental")),
                         ("skew3+fundamental", ("skew3", "fundamental"))):
        report, lines = agrees(b, label, names, caplog)
        assert {ce.identity for ce in report.counterexamples} == {"skew3", "fundamental"}
        assert lines["fundamental"].startswith(
            "scan fundamental: full range, certified alt(x1,x2) alt(x3,x4,x5) given skew3 "
            "unused;")


def test_coherence_near_miss_n8(caplog):
    b = bracket_near_miss(coherence_near_miss_n8(), 1)
    report, lines = agrees(b, "coherence", KIND_IDENTITIES[StructureKind.COHERENCE], caplog)
    assert {ce.identity for ce in report.counterexamples} == {"fundamental"}
    assert lines["fundamental"].startswith("scan fundamental: symmetry-reduced")


# -- observability -----------------------------------------------------------------

def test_scan_debug_lines(caplog):
    b = fil4_with_product(NILPOTENT[0])
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        report = check_axioms("ternary-f-manifold", b)
    assert not report.passed
    assert list(scans(caplog).values()) == [
        "scan comm: symmetry-reduced over alt(x1,x2) given no identity; 6 of 16 tuples scanned",
        "scan assoc: symmetry-reduced over alt(x1,x3) given comm; 24 of 64 tuples scanned",
        "scan skew3: full range; 64 of 64 tuples scanned",
        "scan fundamental: symmetry-reduced over alt(x1,x2) alt(x3,x4,x5) given skew3; "
        "24 of 1024 tuples scanned",
        # the budget of one fills with the first failing representative,
        # released before the next representative is scanned
        f"scan hm3: symmetry-reduced over sym(x1,x2) sym(x4,x5) given comm; "
        f"{scanned_until(b, report)} of 1024 tuples scanned",
    ]
    assert all(r.name == "ternalg" and r.levelno == logging.DEBUG for r in caplog.records)


def scanned_until(b, report):
    """Representatives of hm3 up to its first failure, counted by brute force."""
    first = report.counterexamples[0].indices
    return sum(1 for t in itertools.product(range(b.dim), repeat=5)
               if t[0] <= t[1] and t[3] <= t[4] and t <= first)


def test_no_output_by_default(capfd):
    b = fil4_with_product(NILPOTENT[1])
    assert not check_axioms("ternary-f-manifold", b, max_counterexamples=100).passed
    assert not check_coherence(noncoherent_tfm(*NONCOHERENT_A)).passed
    out, err = capfd.readouterr()
    assert out == err == ""
