"""In-process operations of the benchmark, each one a call into ternalg.

An operation parses its documents afresh, runs the builders it needs, makes
one timed check call and serializes the result.  Parsing afresh means the
integer tables are built inside the check, as a CLI user pays for them.
Every call into a layer sits in a span named ``<layer>.<function>``.

Each operation names the gate its output must pass (see gate.py):
``golden`` for fixed inputs, ``passes`` for seeded bundles that must pass
with the closed-form tuple count, ``nearmiss`` for seeded perturbations.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, NamedTuple

from ternalg import schema
from ternalg.constructions import direct_sum
from ternalg.operators import (
    check_cyclic_2cocycle,
    check_nijenhuis,
    check_relative_rb,
    check_symplectic,
    deform,
    lift_nijenhuis,
)
from ternalg.representations import (
    adjoint_rep,
    check_coherence,
    check_representation,
    semidirect,
)
from ternalg.structures import CheckReport, check_axioms, eval_defect

TFM = "ternary-f-manifold"


class Op(NamedTuple):
    case: str
    run: Callable  # Ctx -> result of the timed call
    gate: tuple


class Ctx:
    """Parses and builds inside spans; times the one check call of an op."""

    def __init__(self, texts: dict[str, str], tracer):
        self.texts = texts
        self.tracer = tracer
        self.check_t = (0.0, 0.0)  # perf_counter at the start and end of the check
        self.tuples = 0

    def parse(self, doc: str):
        with self.tracer.span("schema.parse_document", doc):
            return schema.parse_document(self.texts[doc])[0]

    def build(self, name: str, case: str, fn, *args):
        with self.tracer.span(name, case):
            return fn(*args)

    def check(self, name: str, case: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        with self.tracer.span(name, case) as rec:
            result = fn(*args, **kwargs)
        self.check_t = (t0, time.perf_counter())
        if isinstance(result, CheckReport):
            self.tuples = result.tuple_count
            rec["tuples"] = result.tuple_count
            rec["counterexamples"] = len(result.counterexamples)
        return result


def dump(result) -> str:
    if isinstance(result, CheckReport):
        return schema.dumps(schema.report_to_obj(result))
    return schema.dumps(schema.document_to_obj(result))


# ---------------------------------------------------------------------------
# builders shared by several operations


def _sd(c: Ctx):
    fil4 = c.parse("fil4").bundle
    rep = c.build("representations.adjoint_rep", "fil4", adjoint_rep, fil4)
    return c.build("representations.semidirect", "sd", semidirect, rep)


def _sd16(c: Ctx):
    sd = _sd(c)
    return c.build("constructions.direct_sum", "sd16", direct_sum, sd, sd)


def _adj_sd(c: Ctx):
    return c.build("representations.adjoint_rep", "sd", adjoint_rep, _sd(c))


def _lift_sd(c: Ctx):
    doc = c.parse("fil4_rb")
    n = c.build("operators.lift_nijenhuis", "fil4_rb", lift_nijenhuis,
                doc.require_map("T"), doc.rep)
    return n, c.build("representations.semidirect", "sd", semidirect, doc.rep)


def _structure(kind: str, make, case: str, k: int = 1) -> Callable:
    def run(c: Ctx):
        bundle = make(c)
        if kind == "coherence":
            return c.check("structures.check_coherence", f"coherence.{case}",
                           check_coherence, bundle, max_counterexamples=k)
        return c.check("structures.check_axioms", f"{kind}.{case}", check_axioms,
                       kind, bundle, max_counterexamples=k)

    return run


def _rep(kind: str) -> Callable:
    def run(c: Ctx):
        return c.check("representations.check_representation", f"{kind}.adj_sd",
                       check_representation, kind, _adj_sd(c))

    return run


def _parsed(doc: str) -> Callable:
    return lambda c: c.parse(doc).bundle


def _relative_rb(c: Ctx):
    doc = c.parse("r_int5")
    return c.check("operators.check_relative_rb", "relative_rb.r_int5",
                   check_relative_rb, doc.require_map("T"), doc.rep)


def _nijenhuis(c: Ctx):
    n, sd = _lift_sd(c)
    return c.check("operators.check_nijenhuis", "nijenhuis.lift_sd", check_nijenhuis, n, sd)


def _deform(c: Ctx):
    n, sd = _lift_sd(c)
    return c.check("operators.deform", "lift_sd", deform, n, sd)


def _symplectic(c: Ctx):
    doc = c.parse("fil4_symplectic")
    return c.check("operators.check_symplectic", "symplectic.fil4",
                   check_symplectic, doc.require_form(), doc.bundle)


def _cocycle(c: Ctx):
    doc = c.parse("fil4_symplectic")
    return c.check("operators.check_cyclic_2cocycle", "cyclic_2cocycle.fil4",
                   check_cyclic_2cocycle, doc.require_form(), doc.bundle)


GOLDEN = ("golden",)

WORKLOAD_OPS: dict[str, list[Op]] = {
    "scan-special-n16": [
        Op(f"{TFM}.sd16", _structure(TFM, _sd16, "sd16"), GOLDEN),
    ],
    "scan-generic-n8": [
        Op("coherence.sd", _structure("coherence", _sd, "sd"), GOLDEN),
        Op("coherence.dense8", _structure("coherence", _parsed("dense8"), "dense8"),
           ("passes", "coherence", 8)),
    ],
    "rep-matrix-n8": [
        Op("ternary-fmanifold-rep.adj_sd", _rep("ternary-fmanifold-rep"), GOLDEN),
        Op("relative_rb.r_int5", _relative_rb, GOLDEN),
        Op("nijenhuis.lift_sd", _nijenhuis, GOLDEN),
        Op("deform.lift_sd", _deform, GOLDEN),
        Op("symplectic.fil4", _symplectic, GOLDEN),
        Op("cyclic_2cocycle.fil4", _cocycle, GOLDEN),
    ],
}

# Run once each in the traced run only: they split the workloads' checks into
# identity groups (3-lie against ternary-f-manifold, the tfm part of coherence,
# representation condition groups) and time the failure path with its exact
# re-check of 100 counterexamples.
TRACED_EXTRA_OPS: list[Op] = [
    Op("3-lie.sd16", _structure("3-lie", _sd16, "sd16"), GOLDEN),
    Op(f"{TFM}.sd", _structure(TFM, _sd, "sd"), GOLDEN),
    Op(f"{TFM}.dense8", _structure(TFM, _parsed("dense8"), "dense8"), ("passes", TFM, 8)),
    Op(f"{TFM}.nearmiss_a", _structure(TFM, _parsed("nearmiss_a"), "nearmiss_a", k=100),
       ("nearmiss", "nearmiss_a")),
    Op(f"{TFM}.nearmiss_b", _structure(TFM, _parsed("nearmiss_b"), "nearmiss_b", k=100),
       ("nearmiss", "nearmiss_b")),
    Op("three-lie-rep.adj_sd", _rep("three-lie-rep"), GOLDEN),
    Op("comm-assoc-rep.adj_sd", _rep("comm-assoc-rep"), GOLDEN),
    Op("dual-conditions.adj_sd", _rep("dual-conditions"), GOLDEN),
]


# ---------------------------------------------------------------------------
# single-layer probes of the traced run

# Identity name and arity, in the library's registry order.
IDENTITIES = (
    ("comm", 2), ("assoc", 3), ("zinbiel", 3), ("skew2", 2), ("jacobi", 3),
    ("skew3", 3), ("fundamental", 5), ("prelie3-skew", 3), ("prelie3-a", 5),
    ("prelie3-b", 5), ("leibniz-np", 4), ("hm2", 4), ("hm3", 5), ("prefm-1", 5),
    ("prefm-11", 5), ("prefm-2", 5), ("prenp-1", 4), ("prenp-2", 4), ("coh1", 5),
    ("coh2", 5), ("coh3", 5),
)
# dense8 is an isomorphic copy of a coherent bundle whose binary bracket is a
# Lie bracket, so these defects vanish on it.
HOLDS_ON_DENSE8 = frozenset(
    ("comm", "assoc", "skew2", "jacobi", "skew3", "fundamental", "hm3",
     "coh1", "coh2", "coh3")
)
EVAL_SAMPLE = 8
PROBE_REPS = 5


def eval_defect_probe(texts: dict[str, str], tracer) -> tuple[dict, dict]:
    """Per-call microseconds of eval_defect for every identity on dense8, on
    a fixed sample of basis tuples; and per identity, whether every residual
    that must vanish did."""
    bundle = schema.parse_document(texts["dense8"])[0].bundle
    basis = bundle.basis_vectors()
    per_call, ok = {}, {}
    for name, arity in IDENTITIES:
        rng = random.Random(f"eval-defect:{name}")
        sample = [[basis[rng.randrange(bundle.dim)] for _ in range(arity)]
                  for _ in range(EVAL_SAMPLE)]
        times, zero = [], True
        with tracer.span("structures.eval_defect", name):
            for args in sample:
                t0 = time.perf_counter()
                residual = eval_defect(name, bundle, args)
                times.append(time.perf_counter() - t0)
                zero = zero and residual.is_zero()
        per_call[name] = statistics.median(times) * 1e6
        ok[name] = zero or name not in HOLDS_ON_DENSE8
    return per_call, ok


def parse_probe(texts: dict[str, str], docs, tracer) -> None:
    for doc in docs:
        for _ in range(PROBE_REPS):
            with tracer.span("schema.parse_document", doc):
                schema.parse_document(texts[doc])


def dump_probe(case: str, make_obj, tracer) -> str:
    """Serialize ``make_obj()`` PROBE_REPS times inside spans; return the text."""
    for _ in range(PROBE_REPS):
        with tracer.span("schema.dumps", case):
            text = schema.dumps(make_obj())
    return text


def document_obj(text: str) -> Callable[[], dict]:
    doc = schema.parse_document(text)[0]
    return lambda: schema.document_to_obj(doc.bundle, rep=doc.rep, maps=doc.maps or None,
                                          form=doc.form)


def report_obj(report) -> Callable[[], dict]:
    return lambda: schema.report_to_obj(report)
