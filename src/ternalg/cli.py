"""Command-line front end: check, derive, catalog.

Exit codes: 0 = pass/success, 1 = check failed or a builder precondition
failed (the failing report is printed as JSON), 2 = input or usage error.
Reports are byte-deterministic for fixed inputs and flags; timing is only
included under --timing so that the default output does not vary between
runs or with --jobs.
"""

from __future__ import annotations

import os
import sys
import time

import click

from . import catalog as cat
from . import schema
from .constructions import (
    direct_sum,
    fix_slot_bracket,
    tensor_with_comm_assoc,
    trace_induced,
)
from .errors import PreconditionError, SchemaError, TernalgError
from .linalg import InterMap, Matrix, Vec
from .operators import (
    deform,
    induced_pre_fmanifold,
    lift_nijenhuis,
    rb_induced_pre,
    symplectic_induced_pre,
)
from .representations import (
    RepKind,
    adjoint_rep,
    check_coherence,
    check_representation,
    dual_rep,
    semidirect,
)
from .structures import StructureKind, check_axioms

STRUCTURE_KINDS = [k.value for k in StructureKind] + ["coherence"]
REP_KINDS = [k.value for k in RepKind]


def _default_jobs() -> int:
    raw = os.environ.get("TERNALG_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _emit(obj: dict):
    click.echo(schema.dumps(obj), nl=False)


@click.group()
def main():
    """Exact verification and construction of finite-dimensional algebra structures."""


@main.command("check")
@click.option("--kind", "kind", required=True,
              help="Structure kind (or representation kind with --rep).")
@click.option("--rep", "as_rep", is_flag=True,
              help="Check the document's rep block against a representation kind.")
@click.option("--max-counterexamples", "-k", default=1, show_default=True, type=int)
@click.option("--jobs", "-j", default=None, type=int,
              help="Parallel tuple-scan workers (default: TERNALG_JOBS or 1).")
@click.option("--complete-skew", is_flag=True,
              help="Fill absent bracket orientations by skew-symmetry before checking.")
@click.option("--timing", is_flag=True, help="Include timing_ms in the report.")
@click.argument("input_path", type=click.Path())
def cmd_check(kind, as_rep, max_counterexamples, jobs, complete_skew, timing, input_path):
    """Run an axiom or representation check on a bundle document."""
    jobs = jobs if jobs is not None else _default_jobs()
    doc, filled = schema.load_document(input_path, complete_skew=complete_skew)
    if filled:
        click.echo(f"completed {filled} skew orientations", err=True)
    start = time.perf_counter()
    if as_rep:
        if kind not in REP_KINDS:
            raise SchemaError(f"unknown representation kind {kind!r} (choices: {REP_KINDS})")
        report = check_representation(
            kind, doc.require_rep(), max_counterexamples=max_counterexamples, jobs=jobs
        )
    elif kind == "coherence":
        report = check_coherence(
            doc.bundle, max_counterexamples=max_counterexamples, jobs=jobs
        )
    else:
        if kind not in [k.value for k in StructureKind]:
            raise SchemaError(
                f"unknown structure kind {kind!r} (choices: {STRUCTURE_KINDS})"
            )
        report = check_axioms(
            kind, doc.bundle, max_counterexamples=max_counterexamples, jobs=jobs
        )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    _emit(schema.report_to_obj(report, timing_ms=elapsed_ms if timing else None))
    sys.exit(0 if report.passed else 1)


_CONSTRUCTIONS = {
    "direct-sum": 2,
    "tensor": 2,
    "fix-slot": 1,
    "trace-induce": 1,
    "semidirect": 1,
    "dual-rep": 1,
    "induce-pre": 1,
    "deform": 1,
    "lift-nijenhuis": 1,
    "symplectic-pre": 1,
}


def _parse_anchor(spec: str, doc: schema.Document) -> Vec:
    bundle = doc.bundle
    if spec in bundle.basis_labels:
        return bundle.basis(bundle.basis_labels.index(spec))
    if "," in spec:
        parts = spec.split(",")
        if len(parts) != bundle.dim:
            raise SchemaError(
                f"--anchor: expected {bundle.dim} comma-separated rationals"
            )
        return Vec(parts)
    try:
        idx = int(spec)
    except ValueError:
        raise SchemaError(
            f"--anchor: {spec!r} is neither a basis label, an index, nor a coefficient list"
        ) from None
    if not 0 <= idx < bundle.dim:
        raise SchemaError(f"--anchor: index {idx} out of range for dim {bundle.dim}")
    return bundle.basis(idx)


@main.command("derive")
@click.argument("construction", type=click.Choice(sorted(_CONSTRUCTIONS)))
@click.argument("inputs", nargs=-1, type=click.Path())
@click.option("-o", "output_path", required=True, type=click.Path())
@click.option("--anchor", "anchor_spec", default=None,
              help="Slot-fixing anchor: basis label, basis index, or comma list.")
@click.option("--complete-skew", is_flag=True)
def cmd_derive(construction, inputs, output_path, anchor_spec, complete_skew):
    """Build a derived bundle document; precondition failures exit 1 with a report."""
    want = _CONSTRUCTIONS[construction]
    if len(inputs) != want:
        raise SchemaError(f"{construction} takes {want} input document(s), got {len(inputs)}")
    docs = [schema.load_document(p, complete_skew=complete_skew)[0] for p in inputs]

    rep_out = None
    maps_out = None
    if construction == "direct-sum":
        bundle = direct_sum(docs[0].bundle, docs[1].bundle)
    elif construction == "tensor":
        bundle = tensor_with_comm_assoc(docs[0].bundle, docs[1].bundle)
    elif construction == "fix-slot":
        if anchor_spec is None:
            raise SchemaError("fix-slot needs --anchor")
        bundle = fix_slot_bracket(docs[0].bundle, _parse_anchor(anchor_spec, docs[0]))
    elif construction == "trace-induce":
        bundle = trace_induced(docs[0].bundle, docs[0].trace())
    elif construction == "semidirect":
        bundle = semidirect(docs[0].require_rep())
    elif construction == "dual-rep":
        rep_out = dual_rep(docs[0].require_rep())
        bundle = rep_out.algebra
    elif construction == "induce-pre":
        doc = docs[0]
        if doc.rep is not None:
            bundle = induced_pre_fmanifold(doc.require_map("T", "R"), doc.rep)
        else:
            bundle = rb_induced_pre(doc.require_map("R", "T"), doc.bundle)
    elif construction == "deform":
        bundle = deform(docs[0].require_map("N", "N_T"), docs[0].bundle)
    elif construction == "lift-nijenhuis":
        rep = docs[0].require_rep()
        nt = lift_nijenhuis(docs[0].require_map("T"), rep)
        bundle = semidirect(rep)
        maps_out = {"N_T": nt}
    elif construction == "symplectic-pre":
        bundle = symplectic_induced_pre(docs[0].require_form(), docs[0].bundle)
    else:  # pragma: no cover
        raise SchemaError(f"unknown construction {construction!r}")

    obj = schema.document_to_obj(bundle, rep=rep_out, maps=maps_out)
    with open(output_path, "w", encoding="utf-8") as fh:
        fh.write(schema.dumps(obj))
    click.echo(f"wrote {output_path}", err=True)


def _catalog_document(name: str) -> dict:
    if name == "fil4":
        return schema.document_to_obj(cat.fil4())
    if name == "fil4_adjoint":
        rep = cat.fil4_adjoint()
        return schema.document_to_obj(rep.algebra, rep=rep)
    if name == "fil4_rb":
        rep = cat.fil4_adjoint()
        return schema.document_to_obj(rep.algebra, rep=rep, maps={"T": cat.fil4_rb()})
    if name == "fil4_symplectic":
        return schema.document_to_obj(cat.fil4(), form=cat.fil4_symplectic())
    if name.startswith("trunc"):
        return schema.document_to_obj(cat.trunc(int(name[len("trunc"):])))
    if name.startswith("r_int"):
        n = int(name[len("r_int"):])
        bundle = cat.trunc(n)
        return schema.document_to_obj(
            bundle, rep=adjoint_rep(bundle), maps={"T": cat.r_int(n)}
        )
    if name == "heisenberg_trace":
        bundle, tau = cat.heisenberg_trace()
        return schema.document_to_obj(
            bundle, maps={"tau": InterMap(Matrix([tau.row.entries]))}
        )
    if name == "gl2_trace":
        bundle, tau = cat.gl2_trace()
        return schema.document_to_obj(
            bundle, maps={"tau": InterMap(Matrix([tau.row.entries]))}
        )
    raise SchemaError(f"unknown catalog entry {name!r}")


@main.group("catalog")
def cmd_catalog():
    """List or export the built-in example documents."""


@cmd_catalog.command("list")
def catalog_list():
    for name in sorted(cat.CATALOG_DOC):
        click.echo(f"{name}: {cat.CATALOG_DOC[name]}")


@cmd_catalog.command("emit")
@click.argument("name")
@click.option("-o", "output_path", required=True, type=click.Path())
def catalog_emit(name, output_path):
    if name not in cat.CATALOG_DOC:
        raise SchemaError(
            f"unknown catalog entry {name!r} (run 'ternalg catalog list')"
        )
    obj = _catalog_document(name)
    with open(output_path, "w", encoding="utf-8") as fh:
        fh.write(schema.dumps(obj))
    click.echo(f"wrote {output_path}", err=True)


def _handle_errors(fn):
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SchemaError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except PreconditionError as exc:
            click.echo(f"error: {exc}", err=True)
            if exc.report is not None:
                _emit(schema.report_to_obj(exc.report))
            sys.exit(1)
        except TernalgError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapped


main.invoke = _handle_errors(main.invoke)
