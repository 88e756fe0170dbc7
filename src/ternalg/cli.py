"""Command-line front end: check, derive, catalog.

Exit codes: 0 = pass/success, 1 = check failed or a builder precondition
failed (the failing report is printed as JSON), 2 = input or usage error
(a usage error prints the usage line).  Reports are byte-deterministic for
fixed inputs and flags; timing is only included under --timing so that the
default output does not vary between runs.

Submodules load on first use: this module imports `structures`, `schema` and
`errors`, which every command reads; each command imports the rest of what it
runs (`representations`, `catalog`), and nothing else.  A `derive` command
reads its builder through the package's lazy names, so it loads only the
module that builds its output (and those its input documents' blocks need).
"""

from __future__ import annotations

# structures first: without a bytecode cache its compile is a CLI process's largest
# allocation, and made before other modules load it adds least to the peak RSS
# (18.5 MB for a check in this order, 19.7 MB with it imported last)
from .structures import check_axioms, coerce_kind  # isort: skip

import argparse
import sys
import time

import ternalg

from . import schema
from .errors import PreconditionError, SchemaError, TernalgError
from .linalg import Vec


def _emit(obj: dict):
    sys.stdout.write(schema.dumps(obj))


def _note(text: str):
    print(text, file=sys.stderr)


def cmd_check(args) -> int:
    """Run an axiom or representation check on a bundle document."""
    doc, filled = schema.load_document(args.input_path, complete_skew=args.complete_skew)
    if filled:
        _note(f"completed {filled} skew orientations")
    kind, budget = args.kind, args.max_counterexamples
    start = time.perf_counter()
    if args.as_rep:
        from .representations import RepKind, check_representation

        kind = coerce_kind(kind, RepKind, "representation")  # before the rep block is read
        report = check_representation(kind, doc.require_rep(), max_counterexamples=budget)
    else:
        report = check_axioms(kind, doc.bundle, max_counterexamples=budget)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    _emit(schema.report_to_obj(report, timing_ms=elapsed_ms if args.timing else None))
    return 0 if report.passed else 1


def _parse_anchor(spec: str | None, doc: schema.Document) -> Vec:
    if spec is None:
        raise SchemaError("fix-slot needs --anchor")
    bundle = doc.bundle
    if spec in bundle.basis_labels:
        return bundle.basis(bundle.basis_labels.index(spec))
    if "," in spec:
        parts = spec.split(",")
        if len(parts) != bundle.dim:
            raise SchemaError(
                f"--anchor: expected {bundle.dim} comma-separated rationals"
            )
        return Vec([schema.parse_scalar(x.strip(), f"--anchor[{i}]")
                    for i, x in enumerate(parts)])
    try:
        idx = int(spec)
    except ValueError:
        raise SchemaError(
            f"--anchor: {spec!r} is neither a basis label, an index, nor a coefficient list"
        ) from None
    if not 0 <= idx < bundle.dim:
        raise SchemaError(f"--anchor: index {idx} out of range for dim {bundle.dim}")
    return bundle.basis(idx)


def _dual_rep(docs, anchor):
    rep = ternalg.dual_rep(docs[0].require_rep())
    return rep.algebra, rep, None


def _induce_pre(docs, anchor):
    doc = docs[0]
    if doc.rep is not None:
        return ternalg.induced_pre_fmanifold(doc.require_map("T", "R"), doc.rep), None, None
    return ternalg.rb_induced_pre(doc.require_map("R", "T"), doc.bundle), None, None


def _lift_nijenhuis(docs, anchor):
    rep = docs[0].require_rep()
    nt = ternalg.lift_nijenhuis(docs[0].require_map("T"), rep)
    return ternalg.semidirect(rep), None, {"N_T": nt}


# Each construction: how many documents it reads, and its builder, which
# makes the output's (bundle, rep, maps) from those documents and --anchor.
_CONSTRUCTIONS = {
    "direct-sum": (2, lambda d, _: (ternalg.direct_sum(d[0].bundle, d[1].bundle), None, None)),
    "tensor": (2, lambda d, _: (
        ternalg.tensor_with_comm_assoc(d[0].bundle, d[1].bundle), None, None)),
    "fix-slot": (1, lambda d, anchor: (
        ternalg.fix_slot_bracket(d[0].bundle, _parse_anchor(anchor, d[0])), None, None)),
    "trace-induce": (1, lambda d, _: (
        ternalg.trace_induced(d[0].bundle, d[0].trace()), None, None)),
    "semidirect": (1, lambda d, _: (ternalg.semidirect(d[0].require_rep()), None, None)),
    "dual-rep": (1, _dual_rep),
    "induce-pre": (1, _induce_pre),
    "deform": (1, lambda d, _: (
        ternalg.deform(d[0].require_map("N", "N_T"), d[0].bundle), None, None)),
    "lift-nijenhuis": (1, _lift_nijenhuis),
    "symplectic-pre": (1, lambda d, _: (
        ternalg.symplectic_induced_pre(d[0].require_form(), d[0].bundle), None, None)),
}


def cmd_derive(args) -> int:
    """Build a derived bundle document; precondition failures exit 1 with a report."""
    construction, inputs = args.construction, args.inputs
    want, build = _CONSTRUCTIONS[construction]
    if len(inputs) != want:
        raise SchemaError(f"{construction} takes {want} input document(s), got {len(inputs)}")
    docs = [schema.load_document(p, complete_skew=args.complete_skew)[0] for p in inputs]
    obj = schema.document_to_obj(*build(docs, args.anchor_spec))
    schema.save_document(obj, args.output_path)
    _note(f"wrote {args.output_path}")
    return 0


def cmd_catalog_list(args) -> int:
    """List the catalog entries."""
    from .catalog import CATALOG_DOC

    for name in sorted(CATALOG_DOC):
        print(f"{name}: {CATALOG_DOC[name]}")
    return 0


def cmd_catalog_emit(args) -> int:
    """Write a catalog entry's document."""
    from .catalog import CATALOG_DOC, catalog_document

    if args.name not in CATALOG_DOC:
        raise SchemaError(
            f"unknown catalog entry {args.name!r} (run 'ternalg catalog list')"
        )
    schema.save_document(catalog_document(args.name), args.output_path)
    _note(f"wrote {args.output_path}")
    return 0


def _command(commands, name: str, run, summary: str | None = None) -> argparse.ArgumentParser:
    summary = summary or run.__doc__
    parser = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
    parser.set_defaults(run=run)
    return parser


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternalg", allow_abbrev=False,
        description="Exact verification and construction of finite-dimensional algebra "
                    "structures.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    check = _command(commands, "check", cmd_check)
    check.add_argument("--kind", required=True,
                       help="Structure kind (or representation kind with --rep).")
    check.add_argument("--rep", dest="as_rep", action="store_true",
                       help="Check the document's rep block against a representation kind.")
    check.add_argument("-k", "--max-counterexamples", type=int, default=1, metavar="K",
                       help="Report the first K failures in lexicographic order; K below 1 "
                            "counts as 1 (default: %(default)s).")
    check.add_argument("--complete-skew", action="store_true",
                       help="Fill absent bracket orientations by skew-symmetry before checking.")
    check.add_argument("--timing", action="store_true", help="Include timing_ms in the report.")
    check.add_argument("input_path", metavar="INPUT_PATH")

    derive = _command(commands, "derive", cmd_derive)
    derive.add_argument("construction", choices=sorted(_CONSTRUCTIONS), metavar="CONSTRUCTION",
                        help="One of %(choices)s.")
    derive.add_argument("inputs", nargs="*", default=[], metavar="INPUTS")
    derive.add_argument("-o", dest="output_path", required=True)
    derive.add_argument("--anchor", dest="anchor_spec",
                        help="Slot-fixing anchor: basis label, basis index, or comma list.")
    derive.add_argument("--complete-skew", action="store_true")

    catalog = _command(commands, "catalog", None, "List or export the built-in example documents.")
    entries = catalog.add_subparsers(metavar="COMMAND", required=True)
    _command(entries, "list", cmd_catalog_list)
    emit = _command(entries, "emit", cmd_catalog_emit)
    emit.add_argument("name", metavar="NAME")
    emit.add_argument("-o", dest="output_path", required=True)
    return parser


# The options that take a value.  Each takes the next argument whatever it
# starts with ("-o -x.json", "--anchor -1,0,2"), which argparse would read as
# an option, so `main` attaches such a value with "=".
_VALUED = ("--kind", "-k", "--max-counterexamples", "-o", "--anchor")


def _attach_values(argv) -> list:
    out: list = []
    for arg in argv:
        if out and out[-1] in _VALUED and arg.startswith("-"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    """Run the command in argv (default: the process's arguments) and exit
    with its code: 2 for a usage or input error, 1 with the failing report
    for a failed builder precondition."""
    parser = _parser()
    argv = _attach_values(sys.argv[1:] if argv is None else argv)
    args, extra = parser.parse_known_args(argv)
    if args.run is cmd_derive:  # inputs after an option come back as extras
        args.inputs = args.inputs + [a for a in extra if not a.startswith("-")]
        extra = [a for a in extra if a.startswith("-")]
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        code = args.run(args)
    except PreconditionError as exc:
        _note(f"error: {exc}")
        if exc.report is not None:
            _emit(schema.report_to_obj(exc.report))
        code = 1
    except TernalgError as exc:  # SchemaError and every other input error
        _note(f"error: {exc}")
        code = 2
    sys.exit(code)
