"""What a process loads: the package's public names load their submodule on
first use, a CLI command imports only the modules it runs, the `ternalg`
logger reaches `logging` without importing it, and only `structures` builds
tables."""

import ast
import importlib
import json
import logging
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import ternalg
from ternalg import catalog, check_axioms

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# every name `ternalg` exports; `Tensor` builds every tensor, so the
# `Tensor3`/`Tensor4` shims are not among them
EXPORTED = {
    "constructions": [
        "TraceFunctional", "check_induced_condition", "check_trace", "direct_sum",
        "fix_slot_bracket", "subadjacent_commutator", "subadjacent_ternary_fmanifold",
        "symmetrize_zinbiel", "tensor_with_comm_assoc", "trace_induced",
    ],
    "errors": [
        "ArityMismatch", "BundleError", "DimensionMismatch", "InternalError", "MissingRep",
        "MissingTensor", "NotATrace", "NotCoherent", "NotNijenhuis", "NotRelativeRB",
        "NotRotaBaxter", "NotSkew", "PreconditionError", "SchemaError", "SingularMatrix",
        "TernalgError",
    ],
    "linalg": ["InterMap", "Matrix", "Scalar", "Tensor", "Vec", "invert"],
    "operators": [
        "BilinearForm", "check_cyclic_2cocycle", "check_nijenhuis", "check_relative_rb",
        "check_relative_rb_3lie", "check_relative_rb_comm", "check_symplectic", "deform",
        "induced_3prelie", "induced_pre_fmanifold", "induced_rep_on_A", "induced_zinbiel",
        "invertible_rb_to_pre", "lift_nijenhuis", "rb_induced_pre", "symplectic_induced_pre",
    ],
    "representations": [
        "BiRep", "LinRep", "RepBundle", "RepKind", "adjoint_rep", "check_coherence",
        "check_representation", "dual_rep", "fix_slot_rep", "l1", "l2", "l3",
        "rep_of_subadjacent", "semidirect",
    ],
    "structures": [
        "AlgebraBundle", "CheckReport", "Counterexample", "StructureKind", "check_axioms",
        "check_homomorphism", "dimension_cap", "eval_defect", "f1", "f2", "k_op",
        "leibnizator2", "leibnizator3", "set_dimension_cap",
    ],
}


def test_every_exported_name_imports_from_the_package():
    for module, names in EXPORTED.items():
        source = importlib.import_module(f"ternalg.{module}")
        for name in names:
            namespace: dict = {}
            exec(f"from ternalg import {name}", namespace)
            assert namespace[name] is getattr(source, name), name
    assert sorted(ternalg.__all__) == sorted(n for names in EXPORTED.values() for n in names)
    assert set(ternalg.__all__) <= set(dir(ternalg))
    assert ternalg.schema is sys.modules["ternalg.schema"]
    for name in ("no_such_name", "Tensor3", "Tensor4"):
        with pytest.raises(AttributeError):
            getattr(ternalg, name)


def loaded_in_fresh_process(code: str, *args) -> dict:
    """Run code, with the checkout's src first on the path, in a new
    interpreter; return the JSON object it prints last on stderr."""
    pythonpath = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          capture_output=True, text=True, env=env)
    assert proc.stderr, proc
    return json.loads(proc.stderr.splitlines()[-1])


LOADED = """
    import json, sys

    def loaded():
        return sorted(m for m in sys.modules if m == "click" or m.startswith("ternalg"))
"""


def test_submodules_load_on_first_use():
    steps = loaded_in_fresh_process(LOADED + """
    import ternalg
    steps = {"package": loaded(), "attribute": ternalg.errors.__name__}
    steps["after attribute"] = loaded()
    steps["name"] = ternalg.check_axioms.__module__
    steps["after name"] = loaded()
    print(json.dumps(steps), file=sys.stderr)
    """)
    assert steps == {
        "package": ["ternalg"], "attribute": "ternalg.errors",
        "after attribute": ["ternalg", "ternalg.errors"], "name": "ternalg.structures",
        "after name": ["ternalg", "ternalg.errors", "ternalg.linalg", "ternalg.structures"],
    }


COMMAND = LOADED + """
    import ternalg.cli
    steps = {"cli": loaded()}
    try:
        ternalg.cli.main(sys.argv[1:])
    except SystemExit as exc:
        steps["exit"] = exc.code
    steps["command"] = loaded()
    print(json.dumps(steps), file=sys.stderr)
"""


STRUCTURE_ABSENT = ["click", "ternalg.catalog", "ternalg.constructions", "ternalg.operators",
                    "ternalg.representations"]
# a derive command loads the module that builds its output, and those its
# input documents' blocks need
CONSTRUCTION_ABSENT = ["click", "ternalg.catalog", "ternalg.operators", "ternalg.representations"]


@pytest.mark.parametrize("args, absent", [
    (["check", "--kind", "3-lie", "fil4"], STRUCTURE_ABSENT),
    (["check", "--kind", "coherence", "fil4"], STRUCTURE_ABSENT),
    (["check", "--rep", "--kind", "ternary-fmanifold-rep", "fil4_adjoint"],
     ["click", "ternalg.catalog", "ternalg.operators"]),
    (["derive", "direct-sum", "fil4", "trunc3"], CONSTRUCTION_ABSENT),
    (["derive", "trace-induce", "gl2_trace"], CONSTRUCTION_ABSENT),
    (["derive", "semidirect", "fil4_adjoint"], ["click", "ternalg.catalog", "ternalg.operators"]),
], ids=["structure-kind", "coherence", "rep-kind", "derive-direct-sum", "derive-trace-induce",
        "derive-semidirect"])
def test_command_loads_only_the_modules_it_runs(args, absent, tmp_path):
    args = [str(FIXTURES / f"{a}.json") if (FIXTURES / f"{a}.json").is_file() else a
            for a in args]
    if args[0] == "derive":
        args += ["-o", str(tmp_path / "derived.json")]
    steps = loaded_in_fresh_process(COMMAND, *args)
    assert steps["exit"] == 0
    # the CLI module loads what every command reads, and nothing else
    assert steps["cli"] == ["ternalg", "ternalg.cli", "ternalg.errors", "ternalg.linalg",
                            "ternalg.schema", "ternalg.structures"]
    assert not set(absent) & set(steps["command"])


# stdlib modules that no command needs: `dataclasses` loads `inspect`, `ast`
# and `dis`, and running its decorator costs about 1 ms per class; `logging`
# loads `traceback`, `tokenize`, `linecache`, `textwrap` and `string`, about
# 9 ms on a 2-vCPU x86_64 VM with CPython 3.11, for debug lines that no
# command shows
UNUSED = """
    import json, sys

    def unused():
        return sorted({"dataclasses", "inspect", "logging", "traceback"} & set(sys.modules))

    import ternalg.cli
    steps = {"cli": unused()}
    try:
        ternalg.cli.main(sys.argv[1:])
    except SystemExit as exc:
        steps["exit"] = exc.code
    steps["command"] = unused()
    print(json.dumps(steps), file=sys.stderr)
"""


@pytest.mark.parametrize("args", [
    ["check", "--kind", "ternary-f-manifold", "fil4"],
    ["check", "--rep", "--kind", "ternary-fmanifold-rep", "fil4_adjoint"],
    ["derive", "induce-pre", "fil4_rb"],
], ids=["structure-kind", "rep-kind", "derive"])
def test_no_command_loads_dataclasses_or_inspect(args, tmp_path):
    args = [*args[:-1], str(FIXTURES / f"{args[-1]}.json")]
    if args[0] == "derive":
        args += ["-o", str(tmp_path / "derived.json")]
    steps = loaded_in_fresh_process(UNUSED, *args)
    assert steps == {"cli": [], "exit": 0, "command": []}


# logging configured at DEBUG, with a handler that keeps what it is given
CONFIGURE = """
    import logging
    lines = []

    class Keep(logging.Handler):
        def emit(self, record):
            lines.append([record.name, record.levelname, record.funcName, record.getMessage()])

    logging.basicConfig(level=logging.DEBUG, handlers=[Keep()])
"""
IMPORT = """
    from ternalg import catalog, check_axioms
    imported_with_logging = "logging" in sys.modules
"""
RUN = """
    assert check_axioms("3-lie", catalog.fil4()).passed
    print(json.dumps([imported_with_logging, lines]), file=sys.stderr)
"""


def plans_and_scans(lines: list) -> list:
    return [line for line in lines if line[-1].startswith(("plan ", "scan "))]


@pytest.mark.parametrize("configured_first", (True, False),
                         ids=["configured-before-import", "configured-after-import"])
def test_debug_lines_reach_logging_configured_before_or_after_import(caplog, configured_first):
    """`ternalg` never imports `logging`, but once the host has configured it
    the debug lines arrive, from their call sites, as they do in this process."""
    with caplog.at_level(logging.DEBUG, logger="ternalg"):
        assert check_axioms("3-lie", catalog.fil4()).passed
    expected = plans_and_scans([[r.name, r.levelname, r.funcName, r.getMessage()]
                                for r in caplog.records])
    # from their call sites, not from the forwarder
    assert [(line[2], line[3].split(":")[0]) for line in expected] == [
        ("_plan", "plan skew3, dim 4"), ("_failures", "scan skew3"),
        ("_plan", "plan fundamental, dim 4"), ("_failures", "scan fundamental")]
    code = LOADED + (CONFIGURE + IMPORT if configured_first else IMPORT + CONFIGURE) + RUN
    imported_with_logging, lines = loaded_in_fresh_process(code)
    assert imported_with_logging == configured_first
    assert plans_and_scans(lines) == expected


def calls(tree: ast.AST, names: set) -> set:
    """The names in `names` that tree calls, by name or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                out.add(name)
    return out


def test_only_structures_builds_tables_or_missing_tensor_errors():
    """`structures` alone builds an owner's tables and decides what a missing
    component raises: no other module calls `_ops` or constructs a
    `MissingTensor`; a builder names the components it reads instead."""
    found = {path.name: calls(ast.parse(path.read_text()), {"_ops", "MissingTensor"})
             for path in sorted((ROOT / "src" / "ternalg").glob("*.py"))}
    assert {name: got for name, got in found.items() if got} == {
        "structures.py": {"_ops", "MissingTensor"}}


def unused_imports(tree: ast.AST) -> list:
    """The names an import in tree binds that no expression in it reads;
    `from __future__` imports bind nothing."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(ast.parse(path.read_text()))
             for path in sorted((ROOT / "src" / "ternalg").glob("*.py"))}
    assert {name: got for name, got in found.items() if got} == {}
    # the check sees what it looks for
    assert unused_imports(ast.parse("import os.path\nfrom x import y as z\nz()")) == ["os"]
