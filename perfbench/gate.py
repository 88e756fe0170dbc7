"""Correctness gate: every output the benchmark timed is checked here.

- ``golden``: fixed inputs; report or document bytes and exit code must equal
  the goldens recorded in golden.json.
- ``passes``: seeded bundles that must pass, with the identity list and the
  closed-form tuple count, the sum of n**arity over the identities.
- ``nearmiss``: seeded perturbations; the report must fail, only in the
  quintic identities, and every residual must equal an independent
  ``eval_defect`` at its indices.
- ``malformed``: exit 2 with an ``error:`` line and no traceback.
- ``true``: a check the worker made itself, which reports "ok".

A case counts once per time it ran; it fails when it raised, when its output
differed from its first output, or when the first output fails its gate.
"""

from __future__ import annotations

import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# Identity lists and arities, written out here rather than read from the
# library so that the tuple counts are checked against an independent source.
KINDS = {
    "3-lie": (("skew3", 3), ("fundamental", 5)),
    "ternary-f-manifold": (("comm", 2), ("assoc", 3), ("skew3", 3), ("fundamental", 5),
                           ("hm3", 5)),
}
KINDS["coherence"] = KINDS["ternary-f-manifold"] + (("coh1", 5), ("coh2", 5), ("coh3", 5))
QUINTIC = {"fundamental", "hm3"}


def load_goldens() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _passes(first: dict, kind: str, n: int) -> str | None:
    rep = json.loads(first["out"])
    names = [name for name, _ in KINDS[kind]]
    want = sum(n ** arity for _, arity in KINDS[kind])
    if first["exit"] not in (None, 0):
        return f"exit {first['exit']}"
    if rep["verdict"] != "pass" or rep["counterexamples"]:
        return "does not pass"
    if rep["checked_identities"] != names:
        return f"checked {rep['checked_identities']}"
    if rep["tuple_count"] != want:
        return f"tuple_count {rep['tuple_count']} != {want}"
    return None


def _nearmiss(first: dict, doc_text: str) -> str | None:
    from ternalg import schema
    from ternalg.structures import eval_defect

    if first["exit"] not in (None, 1):
        return f"exit {first['exit']}"
    rep = json.loads(first["out"])
    ces = rep["counterexamples"]
    if rep["verdict"] != "fail" or not ces or len(ces) > 100:
        return f"verdict {rep['verdict']} with {len(ces)} counterexamples"
    bundle = schema.parse_document(doc_text)[0].bundle
    basis = bundle.basis_vectors()
    for ce in ces:
        if ce["identity"] not in QUINTIC:
            return f"failure in {ce['identity']}"
        want = eval_defect(ce["identity"], bundle, [basis[i] for i in ce["indices"]])
        if ce["residual"] != [str(v) for v in want.entries]:
            return f"residual at {ce['identity']} {ce['indices']} differs from eval_defect"
    return None


def _malformed(first: dict) -> str | None:
    if first["exit"] != 2 or first["out"] or "Traceback" in first["err"]:
        return f"exit {first['exit']}, stdout {len(first['out'])} bytes"
    if not first["err"].startswith("error:"):
        return "no error line"
    return None


def judge(case: str, rec: dict, goldens: dict, docs: dict[str, str]) -> str | None:
    """Why the first output of a case fails its gate, or None."""
    first = rec["first"]
    if first is None:
        return "no output"
    kind, *args = rec["gate"]
    if kind == "golden":
        if case not in goldens:
            return "no golden recorded"
        gold = goldens[case]
        if (first["exit"], first["out"]) != (gold["exit"], gold["out"]):
            return "differs from golden"
        return None
    if kind == "passes":
        return _passes(first, args[0], args[1])
    if kind == "nearmiss":
        return _nearmiss(first, docs[args[0]])
    if kind == "malformed":
        return _malformed(first)
    if kind == "true":
        return None if first["out"] == "ok" else first["out"]
    return f"unknown gate {kind}"


def evaluate(cases: dict, goldens: dict, docs: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every run of every case."""
    attempted = failed = 0
    messages = []
    for case, rec in sorted(cases.items()):
        attempted += rec["runs"]
        try:
            why = judge(case, rec, goldens, docs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            why = f"unreadable output: {exc!r}"
        if why is not None:
            failed += rec["runs"] - rec["raised"]
            messages.append(f"{case}: {why}")
        else:
            failed += rec["differ"]
            if rec["differ"]:
                messages.append(f"{case}: {rec['differ']} outputs differ from the first")
        failed += rec["raised"]
        for err in rec.get("errors", [])[:1]:
            messages.append(f"{case}: raised\n{err}")
    return attempted, failed, messages
