"""Mutation check of the fast path, the term language, the builders'
preconditions and the input checks: each mutation in `MUTATIONS`, applied
alone to a copy of the source tree, must make one of the tests it names
fail.  A mutation that no named test kills is a survivor: a fault the
tests would let through.

A mutation is an exact snippet of a file under `src`, which must occur
there exactly once, and its replacement.  It names the tests that must
kill it, or is marked equivalent with the reason it changes no output;
an equivalent mutation is listed, not run.  For each mutation the tool
copies `COPIED` (the package, the tests and what they read) to a
temporary directory, applies the mutation there and runs the named tests
with pytest, stopping at the first failure, against the copy's `src`.
Tests that start a Python process of their own point it at the copy too,
since they find `src` next to their own file.  A run that exceeds
`TIMEOUT` seconds counts as killed.

Run from the repository root: ``python3 tools/mutate.py``.  It runs
every mutation, prints one line per mutation and exits 1 when any
survives or cannot run.  `tests/test_tools.py` checks, without running
any mutant, that every snippet still occurs exactly once and that pytest
still collects every named test id.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("pyproject.toml", "src", "tests", "fixtures", "tools")
TIMEOUT = 900


class Mutation(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    kill: tuple[str, ...] = ()  # pytest ids of the tests that must kill it
    equivalent: Optional[str] = None  # why it changes no output, instead of kill


STRUCTURES = "src/ternalg/structures.py"
FASTPATH = "tests/test_structure_fastpath.py"
CLI = "src/ternalg/cli.py"
CLI_TESTS = "tests/test_cli.py"

MUTATIONS = [
    # the four baseline mutants of the scan driver
    Mutation(
        "empty-factor-rule-any", STRUCTURES,
        "all(any(not _support(ops, f) for f in term) for term in factors)",
        "any(any(not _support(ops, f) for f in term) for term in factors)",
        kill=("tests/test_rep_fastpath.py::test_near_misses_of_adjoint_fil4_match_oracle"
              "[mu-one-entry]",)),
    Mutation(
        "alternating-count-off-by-one", STRUCTURES,
        "comb(N + k - 1, k) if sign > 0 else comb(N, k)",
        "comb(N + k - 1, k) if sign > 0 else comb(N + 1, k)",
        kill=("tests/test_symmetry.py::test_representative_counts_at_n16",
              "tests/test_symmetry.py::test_scan_debug_lines")),
    Mutation(
        "strict-start-swapped", STRUCTURES,
        """f"x{prev}{' + 1' if sign < 0 else ''}, \"""",
        """f"x{prev}{' + 1' if sign > 0 else ''}, \"""",
        kill=(f"{FASTPATH}::test_random_bundles_every_kind[0]",)),
    Mutation(
        "orbit-release-strict", STRUCTURES,
        "while waiting and waiting[0] <= t and len(found) < budget:",
        "while waiting and waiting[0] < t and len(found) < budget:",
        kill=("tests/test_symmetry.py::test_scan_debug_lines",
              f"{FASTPATH}::test_plan_and_contraction_debug_lines")),
    # the table layer: every table starts as its support
    Mutation(
        "nested-rows-drop-a-nonzero", "src/ternalg/linalg.py",
        "level[idx[-1]] = tuple(e[-2:] for e in run)",
        "level[idx[-1]] = tuple(e[-2:] for e in run)[1:]",
        kill=("tests/test_linalg.py::test_tensor_is_structural_and_sparse",
              f"{FASTPATH}::test_scan_is_L_times_the_exact_value[0]")),
    Mutation(
        "tensor-support-unscaled", STRUCTURES,
        "v.numerator * scale // v.denominator,",
        "v.numerator,",
        kill=("tests/test_linalg.py::test_tensor_is_structural_and_sparse",
              f"{FASTPATH}::test_support_first_tables_equal_both_forced_paths[dense8]")),
    # the contraction: each chunk's nonzeros in rank order, and a nested
    # term joined on the inner table's value
    Mutation(
        "chunk-keys-unsorted", STRUCTURES,
        "for k in sorted(k for k, v in acc.items() if v):",
        "for k in [k for k, v in acc.items() if v]:",
        kill=(f"{FASTPATH}::test_failure_reports_equal_on_both_paths[tfm4_scaled]",)),
    Mutation(
        "nested-join-on-the-wrong-position", STRUCTURES,
        'rows, then = group(inner, len(slots)), names(slots + ("_", "v"))',
        'rows, then = group(inner, len(slots) - 1), names(slots + ("_", "v"))',
        kill=(f"{FASTPATH}::test_contraction_is_L_times_the_exact_value_on_interacting_tables"
              "[tfm4]",)),
    Mutation(
        "probes-count-the-inner-table", STRUCTURES,
        "probes += len(_support(ops, inner if 0 in slots else op))",
        "probes += len(_support(ops, inner))",
        kill=(f"{FASTPATH}::test_plan_estimates_count_each_paths_work[fil4]",)),
    Mutation(
        "groups-keyed-one-position-off", STRUCTURES,
        "hit.setdefault(e[q], []).append(e)",
        "hit.setdefault(e[q + 1], []).append(e)",
        kill=(f"{FASTPATH}::test_scan_is_L_times_the_exact_value[0]",)),
    Mutation(
        "shared-tensor-not-resolved", STRUCTURES,
        "    if op in ops.shared:\n        return _built(ops.base, ops.shared[op])\n",
        "",
        kill=(f"{FASTPATH}::test_adjoint_representation_shares_the_algebra_tables",
              f"{FASTPATH}::test_exact_evaluation_builds_no_support",
              "tests/test_structures.py::test_invariants_survive_python_O")),
    # the exact evaluator's one operation: a vector's denominator dropped
    # from the result's, which a re-check at unit vectors meets wherever a
    # nested term's value carries denominators
    Mutation(
        "apply-drops-a-vector-denominator", "src/ternalg/linalg.py",
        "den *= prod(dens)",
        "den *= prod(dens[1:])",
        kill=("tests/test_random_point.py::test_tensor_apply_matches_the_oracle_loop[nnn]",
              "tests/test_checker_pins.py::test_checker_report_pinned[rb.fil4_rb]")),
    # shaped tensors: the constructor's one range check, and each sort's
    # size read from the shapes, two tensors agreeing on it
    Mutation(
        "tensor-bound-off-by-one", "src/ternalg/linalg.py",
        "isinstance(i, int) and 0 <= i < n for i, n in zip(idx, shape)",
        "isinstance(i, int) and 0 <= i <= n for i, n in zip(idx, shape)",
        kill=("tests/test_linalg.py::test_tensor_shape_validation",
              "tests/test_representations.py::test_action_constants_must_lie_in_its_ranges"
              "[mu-row]")),
    Mutation(
        "sort-size-from-the-first-tensor", STRUCTURES,
        "        if t.shape != want:",
        "        if len(t.shape) != len(want):",
        kill=(f"{FASTPATH}::test_sort_sizes_are_read_from_the_shapes",)),
    # the size rule runs over the owner chain, bases first, before the
    # presence check: a map sized only against its own owner's tensors is
    # refused later, as a missing component or by the tables' own sizing
    Mutation(
        "components-sized-without-their-bases", STRUCTURES,
        "    for tensors in () if sized else reversed(chain):",
        "    for tensors in () if sized else chain[:1]:",
        kill=("tests/test_preconditions.py::test_single_fault_raises_its_error[no-action-rb-T]",
              "tests/test_preconditions.py::test_errors_name_their_context")),
    # the constructors size their own tensors by the same rule: an action as
    # its own operation, here a BiRep as A B B -> B, which lets its two
    # algebra slots differ, and a bundle every tensor it holds
    Mutation(
        "action-sized-as-another-operation", "src/ternalg/representations.py",
        '    op, order = "rho", 4',
        '    op, order = "br3B__f__x1__x2__x3", 4',
        kill=("tests/test_representations.py::test_action_count_must_match_the_algebra_dim",)),
    Mutation(
        "bundle-sizes-no-binary-bracket", STRUCTURES,
        '_sort_sizes("AlgebraBundle", self._components()[0], {"k": 1, "A": dim})',
        '_sort_sizes("AlgebraBundle", {**self._components()[0], "br2": None}, {"k": 1, "A": dim})',
        kill=("tests/test_preconditions.py::test_single_fault_raises_its_error"
              "[bundle-binary-order]",
              "tests/test_structures.py::test_tensor_order_checked_under_python_O[flags0]")),
    # the kind table: each kind's maps, and over an algebra bundle's maps
    # only those of the tensors it carries
    Mutation(
        "lie-loses-jacobi", STRUCTURES,
        '"lie": ("skew2", "jacobi"),',
        '"lie": ("skew2",),',
        kill=("tests/test_structures.py::test_each_kind_scans_its_maps_in_order[lie]",)),
    Mutation(
        "every-map-of-a-bundle-kind-scanned", STRUCTURES,
        "    if isinstance(owner, _Maps) and isinstance(owner.base, AlgebraBundle):",
        "    if False:",
        kill=("tests/test_operators.py::test_homomorphism_checks_every_target_tensor"
              "_before_scanning",)),
    # the terms, scales, re-check and certificates the scans rest on
    Mutation(
        "fundamental-term-sign", STRUCTURES,
        "- br3(x3, br3(x1, x2, x4), x5) - br3(x3, x4, br3(x1, x2, x5))))",
        "- br3(x3, br3(x1, x2, x4), x5) + br3(x3, x4, br3(x1, x2, x5))))",
        kill=("tests/test_acceptance.py::test_c01_fil4_three_lie",)),
    Mutation(
        "hm3-term-dropped", STRUCTURES,
        "x4, x5))\n                - mul(x2, leib3(x1, x3, x4, x5)))),",
        "x4, x5)))),",
        kill=("tests/test_symmetry.py::test_hm3_near_misses[prod0]",
              f"{FASTPATH}::test_random_bundles_every_kind[1]")),
    Mutation(
        "sub-map-scale-off-by-one", STRUCTURES,
        "s = ops.scales[op] = _multipliers(ops, _SUBMAPS[op])[0]",
        "s = ops.scales[op] = _multipliers(ops, _SUBMAPS[op])[0] + 1",
        kill=(f"{FASTPATH}::test_scan_is_L_times_the_exact_value[0]",)),
    Mutation(
        "exact-recheck-skipped", STRUCTURES,
        "            if residual.is_zero():\n",
        "            if False:\n",
        kill=("tests/test_structures.py::test_invariants_survive_python_O",)),
    Mutation(
        "certificate-sign-flipped", STRUCTURES,
        "certified[i, j] = (1 if image == base else -1, s)",
        "certified[i, j] = (-1 if image == base else 1, s)",
        kill=("tests/test_symmetry.py::test_certificates_pinned",)),
    # partial symmetries: an assumed identity sorts the leading k arguments
    # of its operation, and only slots of one sort transpose
    Mutation(
        "rho-skew-sign-flipped", STRUCTURES,
        '"rho-skew": ("rho", -1, 2)',
        '"rho-skew": ("rho", 1, 2)',
        kill=("tests/test_symmetry.py::test_rep_certificates_pinned",)),
    Mutation(
        "canonical-sorts-one-argument-more", STRUCTURES,
        "            k = signs[op][1]\n",
        "            k = min(signs[op][1] + 1, len(canon))\n",
        kill=("tests/test_symmetry.py::test_wrong_partial_symmetries_are_rejected",)),
    Mutation(
        "transpositions-across-sorts", STRUCTURES,
        "        if ident.sorts[i] != ident.sorts[j]:\n            continue\n",
        "",
        kill=("tests/test_symmetry.py::test_wrong_partial_symmetries_are_rejected",)),
    # the term language: sums distribute with their coefficients, and a
    # named sub-map's tree is the one intermediate of that tree
    Mutation(
        "sum-coefficient-dropped", STRUCTURES,
        "return _Sum((prod(cs), (name, ts))",
        "return _Sum((1, (name, ts))",
        kill=(f"{FASTPATH}::test_terms_of_any_shape",
              f"{FASTPATH}::test_registry_maps_expand_as_pinned")),
    Mutation(
        "named-tree-not-shared", STRUCTURES,
        "_TREES.setdefault(written[0][1], name) != name",
        "False",
        kill=("tests/test_operators.py::test_builder_scans_each_condition_and_builds_each_table_once"
              "[rb_induced_pre]",)),
    # the input checks: a bundle needs a dimension, and only a TernalgError
    # from a constructor is a document's fault
    Mutation(
        "bundle-accepts-dim-0", STRUCTURES,
        "        if dim < 1:\n            raise BundleError(",
        "        if dim < 0:\n            raise BundleError(",
        kill=("tests/test_values.py::test_input_checks_raise_their_errors[bundle-dim]",)),
    Mutation(
        "schema-catches-every-exception", "src/ternalg/schema.py",
        "    except TernalgError as exc:  # a library fault",
        "    except Exception as exc:  # a library fault",
        kill=("tests/test_schema.py::test_library_faults_in_a_bundle_constructor_are_not_bad_input"
              "[algebra]",)),
    # the builders: a precondition that fails raises
    Mutation(
        "builder-precondition-disarmed", STRUCTURES,
        "    if not report.passed:\n        raise error(message, report)",
        "    if False:\n        raise error(message, report)",
        kill=("tests/test_operators.py::test_induced_zinbiel_rejects",
              "tests/test_operators.py::test_builder_precondition_failure_is_its_checkers"
              "[deform]")),
    # the CLI's construction table: each builder's inputs and output blocks
    Mutation(
        "direct-sum-documents-swapped", CLI,
        "ternalg.direct_sum(d[0].bundle, d[1].bundle)",
        "ternalg.direct_sum(d[1].bundle, d[0].bundle)",
        kill=(f"{CLI_TESTS}::test_derive_output_bytes_equal_the_library_builders[direct-sum]",)),
    Mutation(
        "dual-rep-writes-no-rep-block", CLI,
        "return rep.algebra, rep, None",
        "return rep.algebra, None, None",
        kill=(f"{CLI_TESTS}::test_derive_output_bytes_equal_the_library_builders[dual-rep]",)),
]


def run(m: Mutation) -> tuple[str, float]:
    """The outcome of m, "killed by <test>", "killed by timeout",
    "SURVIVED" or "ERROR ...", and the seconds its tests took."""
    with tempfile.TemporaryDirectory(prefix="ternalg-mutant-") as tmp:
        copy = pathlib.Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        target = copy / m.path
        text = target.read_text(encoding="utf-8")
        if text.count(m.snippet) != 1:
            return f"ERROR: the snippet occurs {text.count(m.snippet)} times", 0.0
        target.write_text(text.replace(m.snippet, m.replacement), encoding="utf-8")
        pythonpath = filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath),
               "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
                 *m.kill], cwd=copy, env=env, capture_output=True, text=True,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "killed by timeout", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "SURVIVED", seconds
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    if proc.returncode == 1 and failed:
        return f"killed by {failed[0]}", seconds
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return f"ERROR: pytest exited {proc.returncode}: {' '.join(tail)}", seconds


def main() -> int:
    bad = 0
    for m in MUTATIONS:
        if m.equivalent:
            print(f"{m.name}: equivalent, not run: {m.equivalent}")
            continue
        outcome, seconds = run(m)
        bad += not outcome.startswith("killed")
        print(f"{m.name}: {outcome} ({seconds:.1f} s)", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
