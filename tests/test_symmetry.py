"""Symmetry-reduced identity and representation scans: the certificates
and the reduced scan.

A scan visits one representative per orbit of a map's certified symmetry
blocks once the identities the certificate assumes have passed in the same
run, and falls back to every tuple otherwise.  The reports must still equal
those of `structure_oracle` and `rep_oracle`, which scan every tuple with
dense hand-written formulas: verdict, counterexample indices and residuals,
and `tuple_count`.  The certificate itself must prove only true symmetries,
also where an assumed identity makes an operation symmetric or alternating
in its leading slots alone (`prelie3-skew`, `rho-skew`).
"""

import itertools
import logging
import random
from fractions import Fraction
from math import comb

import pytest

import rep_oracle
import structure_oracle as oracle
from test_rep_fastpath import nudged, random_rep
from test_structure_fastpath import (
    KS,
    check,
    coherence_near_miss_n8,
    forced,
    kinds,
    noncoherent_tfm,
    NONCOHERENT_A,
    perturb,
    random_bundle,
    scaled,
)
from ternalg import schema, structures
from ternalg.catalog import _alternating_tensor4, fil4, fil4_adjoint, fil4_rb, r_int, trunc
from ternalg.constructions import direct_sum
from ternalg.linalg import Tensor, Vec
from ternalg.operators import induced_pre_fmanifold
from ternalg.representations import (
    REP_CONDITIONS,
    BiRep,
    LinRep,
    RepBundle,
    RepKind,
    adjoint_rep,
    check_coherence,
    check_representation,
    semidirect,
)
from ternalg.structures import (
    IDENTITIES,
    KINDS,
    AlgebraBundle,
    CheckReport,
    Symmetry,
    _certificate,
    _define,
    _eval_map,
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

TFM = KINDS["ternary-f-manifold"]


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
    "prelie3-a": "alt(x1,x2) alt(x3,x4) given prelie3-skew",
    "prelie3-b": "alt(x1,x2,x3) given prelie3-skew",
    "leibniz-np": "alt(x1,x2) sym(x3,x4) given comm, skew3",
    "hm2": "sym(x1,x2) sym(x3,x4) given comm",
    "hm3": "sym(x1,x2) sym(x4,x5) given comm",
    "prefm-1": "sym(x1,x2) given no identity",
    "prefm-11": "sym(x1,x2) sym(x3,x4) given no identity",
    "prefm-2": "sym(x3,x4) given no identity",
    "prenp-1": "alt(x1,x2) given prelie3-skew",
    "prenp-2": "sym(x2,x3) given no identity",
    "coh1": "sym(x1,x2) given comm",
    "coh2": "sym(x1,x2) sym(x3,x4) given comm",
    "coh3": "sym(x3,x4) given comm",
}


# the same for every representation condition: only rho-skew and kasymov-i
# have a symmetry, the second given the first; kasymov-i is not skew in
# (x1, x2) since a representation check assumes nothing of the bracket
REP_CERTIFIED = {
    "rho-skew": "sym(x1,x2) given no identity",
    "kasymov-i": "alt(x3,x4) given rho-skew",
    "kasymov-ii": None,
    "mu-mult": None,
    "rho-lie": None,
    "brep-1": None,
    "brep-2": None,
    "rep-1": None,
    "rep-3": None,
    "rep-2": None,
    "corep-1": None,
    "corep-2": None,
    "corep-3": None,
}


def rep_kinds():
    return [(k.value, KINDS[k.value]) for k in RepKind]


def assert_pinned(registry, lists, pins):
    seen = set()
    for _, names in lists:
        for pos, name in enumerate(names):
            cert = _certificate(registry[name], assumable(names, pos))
            assert (str(cert) if cert else None) == pins[name], name
            seen.add(name)
    assert seen == set(pins) == set(registry)


def test_certificates_pinned():
    assert_pinned(IDENTITIES, kinds(), CERTIFIED)


def test_rep_certificates_pinned():
    assert_pinned(REP_CONDITIONS, rep_kinds(), REP_CERTIFIED)


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
    return AlgebraBundle(n, product=Tensor(n, 3, prod),
                         bracket=_alternating_tensor4(n, br),
                         binary_bracket=Tensor(n, 3, bb))


def prelie_bundle(seed, n=4):
    """Random rational tensors with a bracket alternating in its first two
    slots alone and an arbitrary product and binary bracket: prelie3-skew
    holds, and neither skew3 nor comm does."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5)))

    br = {}
    for i, j in itertools.combinations(range(n), 2):
        for k, l in itertools.product(range(n), repeat=2):
            br[(i, j, k, l)] = q()
            br[(j, i, k, l)] = -br[(i, j, k, l)]
    prod, bb = ({idx: q() for idx in itertools.product(range(n), repeat=3)} for _ in range(2))
    b = AlgebraBundle(n, product=Tensor(n, 3, prod), bracket=Tensor(n, 4, br),
                      binary_bracket=Tensor(n, 3, bb))
    assert not check_axioms("3-lie", b).passed and not check_axioms("comm-assoc", b).passed
    return b


def skew_rep(seed, n=3, m=2):
    """A representation whose rho is alternating in its two algebra slots
    alone, with an arbitrary mu, over an algebra with arbitrary tensors:
    rho-skew holds, and no identity of the algebra is assumed."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 3, 4)))

    rho = {}
    for i, j in itertools.combinations(range(n), 2):
        for a, c in itertools.product(range(m), repeat=2):
            rho[(i, j, a, c)] = q()
            rho[(j, i, a, c)] = -rho[(i, j, a, c)]
    mu = {idx: q() for idx in itertools.product(range(n), range(m), range(m))}
    algebra = AlgebraBundle(n, product=Tensor(n, 3, {idx: q() for idx in itertools.product(
        range(n), repeat=3)}), bracket=Tensor(n, 4, {idx: q() for idx in itertools.product(
            range(n), repeat=4)}))
    return RepBundle(algebra=algebra, rho=BiRep(Tensor((n, n, m, m), rho)),
                     mu=LinRep(Tensor((n, m, m), mu)))


def random_vectors(rng, n, count):
    return [Vec([Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)])
            for _ in range(count)]


def sizes_of(owner, m):
    """Each slot's size of the map m on owner, a bundle or a representation."""
    if isinstance(owner, AlgebraBundle):
        return [owner.dim] * m.arity
    return [owner.module_dim if s == "V" else owner.algebra.dim for s in m.sorts]


def assert_blocks_hold(rng, m, cert, owner, zero_ok):
    """Swapping two slots of a block of cert moves m's value at random
    vectors on owner by the block's sign; the value is not zero unless
    zero_ok, so the check is not vacuous."""
    x = [random_vectors(rng, n, 1)[0] for n in sizes_of(owner, m)]
    d = _eval_map(owner, m, x)
    assert zero_ok or not d.is_zero(), m.name
    for slots, sign in cert.blocks:
        for i, j in itertools.combinations(slots, 2):
            y = list(x)
            y[i], y[j] = x[j], x[i]
            assert _eval_map(owner, m, y) == d.scale(sign), (m.name, i, j)


@pytest.mark.parametrize("seed", range(3))
def test_certified_blocks_hold_at_random_vectors(seed):
    # on every owner satisfying a certificate's assumptions: a bundle
    # satisfying them all, one with a bracket alternating in its first two
    # slots alone, one with arbitrary tensors; and representations whose rho
    # is alternating in its algebra slots alone, or arbitrary
    rng = random.Random(seed)
    bundles = [(symmetric_bundle(seed), {"comm", "skew2", "skew3", "prelie3-skew"},
                # the symmetric bundle (n = 4) only zeroes what it assumes
                {"comm", "skew2", "jacobi", "prelie3-skew"}),
               (prelie_bundle(seed), {"prelie3-skew"}, {"prelie3-skew"}),
               (random_bundle(seed), set(), None)]
    # zeroes: the maps the owner zeroes, or None where any value may vanish
    # by chance (n = 2-3)
    reps = [(skew_rep(seed), {"rho-skew"}, {"rho-skew"}), (random_rep(seed, False), set(), None)]
    seen = set()
    for registry, lists, owners in ((IDENTITIES, kinds, bundles),
                                    (REP_CONDITIONS, rep_kinds, reps)):
        for _, names in lists():
            for pos, name in enumerate(names):
                cert = _certificate(registry[name], assumable(names, pos))
                if cert is None:
                    continue
                for owner, holds, zeroes in owners:
                    if set(cert.assumes) <= holds:
                        zero_ok = zeroes is None or name in zeroes
                        assert_blocks_hold(rng, registry[name], cert, owner, zero_ok)
                        seen.add((name, tuple(sorted(holds))))
    assert {("prelie3-a", ("prelie3-skew",)), ("prenp-1", ("prelie3-skew",)),
            ("kasymov-i", ("rho-skew",)), ("rho-skew", ())} <= seen


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


def test_wrong_partial_symmetries_are_rejected():
    br3, mu = _op("br3"), _op("mu")
    # alternating in (x2, x3) as written, and in all three slots given
    # skew3, which makes it 2 [x,y,z]; prelie3-skew, which sorts only a
    # bracket's first two arguments, proves no more than nothing does
    twisted = _define("twisted", lambda x, y, z: br3(x, y, z) - br3(x, z, y))
    assert str(_certificate(twisted, ("skew3",))) == "alt(x1,x2,x3) given skew3"
    assert _transpositions(twisted, ("prelie3-skew",)) == {(1, 2): (-1, ())}
    assert str(_certificate(twisted, ("prelie3-skew",))) == "alt(x2,x3) given no identity"
    # where both are assumed on br3, the wider skew3 decides
    assert str(_certificate(twisted, ("skew3", "prelie3-skew"))) == "alt(x1,x2,x3) given skew3"
    # prelie3-a is not alternating in (x2, x3), nor prelie3-b in (x3, x4)
    assert (1, 2) not in _transpositions(IDENTITIES["prelie3-a"], ("prelie3-skew",))
    assert (2, 3) not in _transpositions(IDENTITIES["prelie3-b"], ("prelie3-skew",))
    # and those claims are false on a bracket alternating in its first two
    # slots alone: each swap changes the value by more than a sign
    b = prelie_bundle(12)
    x = random_vectors(random.Random(12), b.dim, 5)
    for m, (i, j) in ((twisted, (0, 1)), (twisted, (0, 2)), (IDENTITIES["prelie3-a"], (1, 2)),
                      (IDENTITIES["prelie3-b"], (2, 3))):
        args = x[:m.arity]
        y = list(args)
        y[i], y[j] = args[j], args[i]
        d, e = _eval_map(b, m, args), _eval_map(b, m, y)
        assert e != d and e != -d, (m.name, i, j)

    # only slots of one sort transpose: a map whose terms cancel is zero,
    # and so formally symmetric in every pair, but an algebra slot never
    # trades places with the module slot
    assert _transpositions(_define("void", lambda x, v: mu(x, v) - mu(x, v)), ()) == {}
    twice = _certificate(REP_CONDITIONS["rho-skew"], ("rho-skew",))
    assert str(twice) == "sym(x1,x2) given no identity"
    # kasymov-i given a rho that is only known to be skew is not skew in
    # (x1, x2): the bracket's own skewness is not assumed
    assert set(_transpositions(REP_CONDITIONS["kasymov-i"], ("rho-skew",))) == {(2, 3)}
    r = skew_rep(12)
    rng = random.Random(13)
    x = [random_vectors(rng, n, 1)[0] for n in (3, 3, 3, 3, 2)]
    y = [x[1], x[0]] + x[2:]
    d, e = (_eval_map(r, REP_CONDITIONS["kasymov-i"], v) for v in (x, y))
    assert e != d and e != -d


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
    """Compare every k with the oracle, as planned and on a copy of b forced
    to the tuple path; return the k = 100 report and the scan lines of its
    forced run."""
    expected = oracle.reports(b, names, label, KS)
    swept = forced(AlgebraBundle(b.dim, product=b.product, bracket=b.bracket,
                                 binary_bracket=b.binary_bracket), "tuples")
    for k in KS:
        assert check(label, names, b, k) == expected[k], (label, k)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ternalg"):
            assert check(label, names, swept, k) == expected[k], (label, k, "tuples")
    return expected[max(KS)], scans(caplog)


def fil4_with_product(prod):
    return AlgebraBundle(4, product=Tensor(4, 3, prod),
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
        report, lines = agrees(b, label, KINDS[label], caplog)
        assert not report.passed
        assert report.counterexamples[0].identity == "fundamental"
        assert "skew3" in report.checked_identities
        assert lines["fundamental"].startswith(
            "scan fundamental: symmetry-reduced over alt(x1,x2) alt(x3,x4,x5) given skew3;")


@pytest.mark.parametrize("prod", NILPOTENT)
def test_hm3_near_misses(prod, caplog):
    b = fil4_with_product(prod)
    for label, names in (("ternary-f-manifold", TFM), ("comm+hm3", ("comm", "hm3")),
                         ("coherence", KINDS["coherence"])):
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
    b = AlgebraBundle(4, product=Tensor(4, 3, {}), bracket=Tensor(4, 4, nz))
    for label, names in (("3-lie", ("skew3", "fundamental")),
                         ("skew3+fundamental", ("skew3", "fundamental"))):
        report, lines = agrees(b, label, names, caplog)
        assert {ce.identity for ce in report.counterexamples} == {"skew3", "fundamental"}
        assert lines["fundamental"].startswith(
            "scan fundamental: full range, certified alt(x1,x2) alt(x3,x4,x5) given skew3 "
            "unused;")


def test_coherence_near_miss_n8(caplog):
    b = bracket_near_miss(coherence_near_miss_n8(), 1)
    report, lines = agrees(b, "coherence", KINDS["coherence"], caplog)
    assert {ce.identity for ce in report.counterexamples} == {"fundamental"}
    assert lines["fundamental"].startswith("scan fundamental: symmetry-reduced")


# -- observability -----------------------------------------------------------------

def test_scan_debug_lines(caplog, monkeypatch):
    b = forced(fil4_with_product(NILPOTENT[0]), "tuples")
    read = {}
    nonzeros = structures._nonzeros

    def counted(ops, m, blocks=()):  # each map's nonzeros, counted as its scan reads them
        made, found = nonzeros(ops, m, blocks)
        read[m.name] = 0

        def each():
            for item in found:
                read[m.name] += 1
                yield item
        return made, each()

    monkeypatch.setattr(structures, "_nonzeros", counted)
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        report = check_axioms("ternary-f-manifold", b)
    assert not report.passed
    # every nonzero of hm3 fails, and the budget of one fills with the
    # first: its scan reads no further nonzero
    assert read["hm3"] == 1
    assert list(scans(caplog).values()) == [
        "scan comm: symmetry-reduced over alt(x1,x2) given no identity; 6 of 16 tuples scanned",
        "scan assoc: symmetry-reduced over alt(x1,x3) given comm; 24 of 64 tuples scanned",
        "scan skew3: full range; 64 of 64 tuples scanned",
        "scan fundamental: symmetry-reduced over alt(x1,x2) alt(x3,x4,x5) given skew3; "
        "24 of 1024 tuples scanned",
        # the first failing representative fills the budget of one
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


# -- partial symmetries: reduced scans against the full range and the oracles --------

def report_bytes(report):
    return schema.dumps(schema.report_to_obj(report))


def three_ways(build, algebra_of, run, expected, caplog):
    """At each k, run(owner, k) on a fresh build() gives the report bytes of
    expected(k), an oracle's: as planned, with the contraction forced, which
    covers the full range, and with the tuple path forced, which sweeps the
    certified representatives.  Returns the k = 100 report and the scan
    lines of the forced tuple path."""
    for k in KS:
        want = report_bytes(expected(k))
        for path in (None, "contract", "tuples"):
            owner = build()
            forced(algebra_of(owner), path)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="ternalg"):
                report = run(owner, k)
            assert report_bytes(report) == want, (k, path)
    return report, scans(caplog)


def assert_scanned(lines, certified, assumed, held):
    """Each scan line of a map certified given `assumed` alone reads
    symmetry-reduced when that identity held, else full range with the
    certificate unused."""
    seen = 0
    for name, line in lines.items():
        cert = certified.get(name)
        if cert and cert.endswith(f" given {assumed}"):
            want = (f"symmetry-reduced over {cert};" if held
                    else f"full range, certified {cert} unused;")
            assert line.startswith(f"scan {name}: {want}"), line
            seen += 1
    assert seen


def adj_sd():
    return adjoint_rep(semidirect(adjoint_rep(fil4())))


# (builder, whether rho stays skew): a rho entry moved with its skew partner
# keeps rho-skew and breaks kasymov-i; one moved alone breaks rho-skew
REP_NEAR_MISSES = {
    "fil4-skew-kept": (lambda: nudged(adjoint_rep(fil4()), "rho", 0, 1, 2, 3, Fraction(2, 3),
                                      keep_skew=True), True),
    "sd-skew-kept": (lambda: nudged(adj_sd(), "rho", 0, 1, 0, 0, Fraction(2, 3),
                                    keep_skew=True), True),
    "fil4-one-entry": (lambda: nudged(adjoint_rep(fil4()), "rho", 1, 3, 0, 2, Fraction(-1, 4)),
                       False),
    "sd-one-entry": (lambda: nudged(adj_sd(), "rho", 2, 5, 1, 6, Fraction(3, 5)), False),
}


@pytest.mark.parametrize("case", sorted(REP_NEAR_MISSES))
def test_rep_near_misses_reduced_full_and_oracle(case, caplog):
    build, skew = REP_NEAR_MISSES[case]
    three_lie = {}

    def expected(kind, k):
        # three-lie-rep's conditions lead ternary-fmanifold-rep's, so a
        # budget that fills within them ends both scans at one report
        if kind == "three-lie-rep":
            return three_lie.setdefault(k, rep_oracle.check(kind, build(), k))
        lead = three_lie[k]
        if len(lead.counterexamples) < k:
            return rep_oracle.check(kind, build(), k)
        return CheckReport(passed=False, kind=kind, checked_identities=lead.checked_identities,
                           counterexamples=lead.counterexamples, tuple_count=lead.tuple_count)

    for kind in ("three-lie-rep", "ternary-fmanifold-rep"):
        report, lines = three_ways(
            build, lambda r: r.algebra,
            lambda r, k: check_representation(kind, r, max_counterexamples=k),
            lambda k: expected(kind, k), caplog)
        failed = [ce.identity for ce in report.counterexamples]
        assert ("rho-skew" not in failed) == skew and "kasymov-i" in failed, kind
        assert_scanned(lines, REP_CERTIFIED, "rho-skew", skew)


PRE_BASES = {
    "fil4": lambda: induced_pre_fmanifold(fil4_rb(), fil4_adjoint()),
    "r_int4": lambda: induced_pre_fmanifold(r_int(4), adjoint_rep(trunc(4))),
}


def pre_near_miss(base, seed, keep):
    """base with a non-unit rational added to one bracket entry and, if
    keep, its negative to the entry with the first two slots swapped."""
    rng = random.Random(seed)
    n, nz = base.dim, dict(base.bracket.nonzeros())
    i, j = rng.sample(range(n), 2)
    k, l = rng.randrange(n), rng.randrange(n)
    q = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((2, 3, 7)))
    for idx, v in [((i, j, k, l), q)] + ([((j, i, k, l), -q)] if keep else []):
        nz[idx] = nz.get(idx, 0) + v
    return AlgebraBundle(n, product=base.product, bracket=Tensor(n, 4, nz))


# (base, seed, whether prelie3-skew holds): on fil4's, prelie3-a and -b
# fail; on r_int(4)'s, whose bracket is zero before the nudge, prenp-1 and
# prenp-2 do, prenp-1 after a reduced or a full scan.  The kinds are those
# whose maps prelie3-skew certifies: ternary-pre-f-manifold adds only maps
# certified given no identity, and its oracle is the slowest
PRE_NEAR_MISSES = [("fil4", 0, True), ("fil4", 0, False), ("r_int4", 0, True),
                   ("r_int4", 1, False)]


@pytest.mark.parametrize("base, seed, keep", PRE_NEAR_MISSES)
def test_pre_structure_near_misses_reduced_full_and_oracle(base, seed, keep, caplog):
    b = PRE_BASES[base]()
    assert all(check_axioms(kind, b).passed for kind in (
        "3-pre-lie", "ternary-pre-nambu-poisson"))

    def build():  # a bundle of its own each time, so its tables are new
        return pre_near_miss(b, seed, keep)

    failed = set()
    for kind in ("3-pre-lie", "ternary-pre-nambu-poisson"):
        names = KINDS[kind]
        expected = oracle.reports(build(), names, kind, KS)
        report, lines = three_ways(build, lambda b: b,
                                   lambda b, k: check_axioms(kind, b, max_counterexamples=k),
                                   expected.get, caplog)
        failed.update(ce.identity for ce in report.counterexamples)
        assert_scanned(lines, CERTIFIED, "prelie3-skew", keep)
    assert ("prelie3-skew" not in failed) == keep
    assert failed & {"prelie3-a", "prelie3-b", "prenp-1"}
