"""JSON document schema for bundles, representations, maps, forms and reports.

One document describes a full scenario:

    {
      "schema_version": 1,
      "dim": 4,
      "basis": ["e1", "e2", "e3", "e4"],
      "unit": 0,                                        # optional basis index
      "product":        [{"indices": [i,j,k],   "value": "1"}, ...],
      "bracket":        [{"indices": [i,j,k,l], "value": "1"}, ...],
      "binary_bracket": [{"indices": [i,j,k],   "value": "-2"}, ...],
      "rep": {"module_dim": m,
              "mu":  [{"index": i,       "matrix": [["0","1"],["0","0"]]}, ...],
              "rho": [{"indices": [i,j], "matrix": [[...]]}, ...]},
      "maps": [{"name": "T", "matrix": [[...]]}, ...],
      "form": {"matrix": [[...]]}
    }

Indices are 0-based.  Scalars are exact rationals written as strings
("3", "-3/2": an optional sign, digits and an optional "/digits", never a
decimal or an exponent); bare JSON integers are accepted on input.  `dim` and
`module_dim` are refused past the dimension cap before any table is built.
Sparse entry lists carry only nonzero entries; a key that is present (even
as an empty list) means the tensor exists and unlisted entries are zero,
while an absent key means the bundle does not carry that tensor.  Serialization is canonical
(entries sorted by indices, scalars always strings), so serialize-parse
round trips are byte identical.
"""

from __future__ import annotations

# structures first, for the peak RSS of a process that starts here (see cli)
from .structures import AlgebraBundle, CheckReport, dimension_cap  # isort: skip

import itertools
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import SchemaError, TernalgError
from .linalg import ZERO, InterMap, Matrix, Tensor, Value, Vec, parse_rational

if TYPE_CHECKING:  # imported where a rep, form or trace block is read or written
    from .constructions import TraceFunctional
    from .operators import BilinearForm
    from .representations import RepBundle

SCHEMA_VERSION = 1

# Each tensor block: its key, also the `AlgebraBundle` field, its order, and
# how many of its leading slots --complete-skew alternates.
_TENSORS = (("product", 3, 0), ("bracket", 4, 3), ("binary_bracket", 3, 2))


class Document(Value):
    """A parsed scenario: one bundle plus optional representation, maps, form."""

    bundle: AlgebraBundle
    rep: Optional[RepBundle] = None
    maps: dict[str, InterMap]
    form: Optional[BilinearForm] = None

    def __init__(self, bundle, rep=None, maps=None, form=None):
        super().__init__(bundle, rep, {} if maps is None else maps, form)

    def require_rep(self) -> RepBundle:
        if self.rep is None:
            raise SchemaError("document has no 'rep' block")
        return self.rep

    def require_map(self, *names: str) -> InterMap:
        for name in names:
            if name in self.maps:
                return self.maps[name]
        raise SchemaError(f"document has no map named {' or '.join(repr(n) for n in names)}")

    def require_form(self) -> BilinearForm:
        if self.form is None:
            raise SchemaError("document has no 'form' block")
        return self.form

    def trace(self) -> TraceFunctional:
        from .constructions import TraceFunctional

        tau = self.require_map("tau")
        if tau.dst_dim != 1:
            raise SchemaError("map 'tau' must have a 1-row matrix (a functional)")
        return TraceFunctional(tau.matrix.row(0))


def parse_scalar(x, where: str) -> Fraction:
    """A document scalar: an integer, or a string "p" or "p/q" (no exponents,
    no decimals); SchemaError otherwise."""
    if isinstance(x, bool):
        raise SchemaError(f"{where}: booleans are not scalars")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return parse_rational(x)
        except ValueError as exc:
            raise SchemaError(f"{where}: cannot parse rational {x[:40]!r}: {exc}") from None
    raise SchemaError(
        f"{where}: scalars must be integers or 'p/q' strings, got {type(x).__name__}"
    )


def _check_cap(where: str, n: int):
    """Refuse a dimension past the cap before anything of that size is built:
    the exhaustive scans visit up to n**5 basis tuples, and a representation
    holds m x m matrices."""
    if n > dimension_cap():
        raise SchemaError(f"{where}: {n} exceeds the dimension cap {dimension_cap()}; "
                          "raise it with set_dimension_cap()")


def _parse_indices(entry, where: str, count: int, dim: int) -> tuple[int, ...]:
    idx = entry.get("indices")
    if not isinstance(idx, list) or len(idx) != count:
        raise SchemaError(f"{where}.indices: expected a list of {count} integers")
    out = []
    for pos, i in enumerate(idx):
        if not isinstance(i, int) or isinstance(i, bool):
            raise SchemaError(f"{where}.indices[{pos}]: expected an integer")
        if not 0 <= i < dim:
            raise SchemaError(
                f"{where}.indices[{pos}]: index {i} out of range for dim {dim}"
            )
        out.append(i)
    return tuple(out)


def _parse_sparse(raw, where: str, count: int, dim: int) -> dict[tuple[int, ...], Fraction]:
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: expected a list of {{indices, value}} entries")
    entries: dict[tuple[int, ...], Fraction] = {}
    for pos, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}[{pos}]: expected an object")
        idx = _parse_indices(entry, f"{where}[{pos}]", count, dim)
        if idx in entries:
            raise SchemaError(f"{where}[{pos}]: duplicate indices {list(idx)}")
        entries[idx] = parse_scalar(entry.get("value"), f"{where}[{pos}].value")
    return entries


def _complete_skew(entries: dict[tuple[int, ...], Fraction], count: int,
                   where: str) -> tuple[dict[tuple[int, ...], Fraction], int]:
    """Fill absent orientations of the first `count` slots by alternation."""
    out = dict(entries)
    for idx, v in entries.items():
        for perm in itertools.permutations(range(count)):
            new = tuple(idx[p] for p in perm) + idx[count:]
            val = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)) * v
            if out.setdefault(new, val) != val:
                raise SchemaError(
                    f"{where}: entries at {list(idx)} and {list(new)} conflict under "
                    "skew-symmetric completion" if new in entries
                    else f"{where}: completion of {list(idx)} conflicts at {list(new)}")
    return out, len(out) - len(entries)


def _parse_matrix(raw, where: str, rows: int, cols: int) -> list[list[Fraction]]:
    """The rows of a rows x cols matrix of document scalars; the zeros 0
    and "0", most entries of a sparse action's matrices, skip the parser."""
    if not isinstance(raw, list) or len(raw) != rows:
        raise SchemaError(f"{where}: expected {rows} rows")
    grid = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{where}[{i}]: expected {cols} entries")
        grid.append([ZERO if type(x) is int and not x or x == "0"
                     else parse_scalar(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
    return grid


def _parse_action(raw, key: str, dim: int, m: int) -> list:
    """The nonzeros (i, [j,] q, p) of rep.mu (key "mu") or rep.rho (key
    "rho"): row p, column q of the m x m matrix of each index."""
    where = f"rep.{key}"
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: expected a list")
    nonzeros, seen = [], set()
    for pos, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}[{pos}]: expected an object")
        if key == "mu":
            i = entry.get("index")
            if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < dim:
                raise SchemaError(f"{where}[{pos}].index: out of range for dim {dim}")
            idx, duplicate = (i,), f"duplicate index {i}"
        else:
            idx = _parse_indices(entry, f"{where}[{pos}]", 2, dim)
            duplicate = f"duplicate indices {list(idx)}"
        if idx in seen:
            raise SchemaError(f"{where}[{pos}]: {duplicate}")
        seen.add(idx)
        grid = _parse_matrix(entry.get("matrix"), f"{where}[{pos}].matrix", m, m)
        nonzeros += [(idx + (q, p), v) for p, row in enumerate(grid)
                     for q, v in enumerate(row) if v]
    return nonzeros


def parse_document(data, *, complete_skew: bool = False) -> tuple[Document, int]:
    """Parse a JSON document (text or loaded object) into a Document.

    Returns the document and the number of entries filled in by the optional
    skew-symmetric completion (0 when the flag is off).
    """
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError("document root must be an object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError(f"dim: expected a positive integer, got {dim!r}")
    _check_cap("dim", dim)
    basis = data.get("basis")
    if basis is not None:
        if not isinstance(basis, list) or len(basis) != dim or not all(
            isinstance(s, str) for s in basis
        ):
            raise SchemaError(f"basis: expected a list of {dim} strings")
        basis = tuple(basis)

    filled, tensors = 0, {}
    for key, order, skew in _TENSORS:
        if key in data:
            entries = _parse_sparse(data[key], key, order, dim)
            if complete_skew:
                entries, f = _complete_skew(entries, skew, key)
                filled += f
            tensors[key] = Tensor(dim, order, entries)

    unit = None
    if "unit" in data:
        u = data["unit"]
        if not isinstance(u, int) or isinstance(u, bool) or not 0 <= u < dim:
            raise SchemaError(f"unit: expected a basis index in [0, {dim}), got {u!r}")
        unit = Vec.basis(dim, u)

    try:
        bundle = AlgebraBundle(dim, **tensors, unit=unit, basis_labels=basis)
    except TernalgError as exc:  # a library fault (InternalError, TypeError) propagates
        raise SchemaError(f"bundle: {exc}") from None

    rep = None
    if "rep" in data:
        from .representations import BiRep, LinRep, RepBundle

        raw = data["rep"]
        if not isinstance(raw, dict):
            raise SchemaError("rep: expected an object")
        m = raw.get("module_dim")
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise SchemaError(f"rep.module_dim: expected a positive integer, got {m!r}")
        _check_cap("rep.module_dim", m)
        mu = rho = None
        if "mu" in raw:
            mu = LinRep(Tensor((dim, m, m), _parse_action(raw["mu"], "mu", dim, m)))
        if "rho" in raw:
            rho = BiRep(Tensor((dim, dim, m, m), _parse_action(raw["rho"], "rho", dim, m)))
        try:
            rep = RepBundle(algebra=bundle, rho=rho, mu=mu)
        except TernalgError as exc:
            raise SchemaError(f"rep: {exc}") from None

    maps: dict[str, InterMap] = {}
    if "maps" in data:
        if not isinstance(data["maps"], list):
            raise SchemaError("maps: expected a list")
        for pos, entry in enumerate(data["maps"]):
            if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
                raise SchemaError(f"maps[{pos}]: expected an object with a 'name'")
            name = entry["name"]
            if name in maps:
                raise SchemaError(f"maps[{pos}]: duplicate map name {name!r}")
            raw_m = entry.get("matrix")
            if not isinstance(raw_m, list) or not raw_m or not isinstance(raw_m[0], list):
                raise SchemaError(f"maps[{pos}].matrix: expected a nested list")
            rows = len(raw_m)
            cols = len(raw_m[0])
            maps[name] = InterMap(Matrix(_parse_matrix(raw_m, f"maps[{pos}].matrix", rows, cols)))

    form = None
    if "form" in data:
        from .operators import BilinearForm

        raw = data["form"]
        if not isinstance(raw, dict):
            raise SchemaError("form: expected an object")
        form = BilinearForm(Matrix(_parse_matrix(raw.get("matrix"), "form.matrix", dim, dim)))

    return Document(bundle=bundle, rep=rep, maps=maps, form=form), filled


def load_document(path, *, complete_skew: bool = False) -> tuple[Document, int]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    return parse_document(text, complete_skew=complete_skew)


def save_document(obj: dict, path) -> None:
    """Write obj, as `dumps` renders it, to path; SchemaError if it cannot."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(obj))
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# serialization


def _sparse_out(nonzeros) -> list:
    return [{"indices": list(idx), "value": str(v)} for idx, v in sorted(nonzeros)]


def _matrix_out(rows) -> list:
    return [[str(v) for v in row] for row in rows]


def document_to_obj(bundle: AlgebraBundle, rep: Optional[RepBundle] = None,
                    maps: Optional[dict[str, InterMap]] = None,
                    form: Optional[BilinearForm] = None) -> dict:
    """Canonical JSON object for a scenario; only basis-vector units serialize."""
    out: dict = {"schema_version": SCHEMA_VERSION, "dim": bundle.dim,
                 "basis": list(bundle.basis_labels)}
    if bundle.unit is not None:
        ones = [i for i, v in enumerate(bundle.unit.entries) if v]
        if len(ones) == 1 and bundle.unit[ones[0]] == 1:
            out["unit"] = ones[0]
    for key, _, _ in _TENSORS:
        if getattr(bundle, key) is not None:
            out[key] = _sparse_out(getattr(bundle, key).nonzeros())
    if rep is not None:
        from .representations import BiRep

        block: dict = {"module_dim": rep.module_dim}
        if rep.mu is not None:
            block["mu"] = [{"index": i, "matrix": _matrix_out(rows)}
                           for (i,), rows in rep.mu.grids().items()]
        if rep.rho is not None:
            if not isinstance(rep.rho, BiRep):
                raise SchemaError("only pair actions (BiRep) serialize in the rep block")
            block["rho"] = [{"indices": [i, j], "matrix": _matrix_out(rows)}
                            for (i, j), rows in rep.rho.grids().items()]
        out["rep"] = block
    if maps:
        out["maps"] = [
            {"name": name, "matrix": _matrix_out(maps[name].matrix.entries)}
            for name in sorted(maps)
        ]
    if form is not None:
        out["form"] = {"matrix": _matrix_out(form.matrix.entries)}
    return out


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def report_to_obj(report: CheckReport, timing_ms: Optional[float] = None) -> dict:
    out: dict = {
        "schema_version": SCHEMA_VERSION,
        "kind": report.kind,
        "verdict": report.verdict,
        "checked_identities": list(report.checked_identities),
        "tuple_count": report.tuple_count,
        "counterexamples": [
            {
                "identity": ce.identity,
                "indices": list(ce.indices),
                "residual": [str(v) for v in ce.residual.entries],
            }
            for ce in report.counterexamples
        ],
    }
    if timing_ms is not None:
        out["timing_ms"] = timing_ms
    return out
