"""What a process loads: the package's public names load their submodule on
first use, and a CLI command imports only the modules it runs."""

import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import ternalg

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# every name `ternalg` exported when its __init__ imported each submodule
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
    "linalg": ["InterMap", "Matrix", "Scalar", "Tensor", "Tensor3", "Tensor4", "Vec", "invert"],
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
    assert not hasattr(ternalg, "no_such_name")


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


@pytest.mark.parametrize("args, absent", [
    (["check", "--kind", "3-lie", "fil4"],
     ["click", "ternalg.catalog", "ternalg.constructions", "ternalg.operators",
      "ternalg.representations"]),
    (["check", "--rep", "--kind", "ternary-fmanifold-rep", "fil4_adjoint"],
     ["click", "ternalg.catalog", "ternalg.operators"]),
], ids=["structure-kind", "rep-kind"])
def test_command_loads_only_the_modules_it_runs(args, absent):
    steps = loaded_in_fresh_process(COMMAND, *args[:-1], str(FIXTURES / f"{args[-1]}.json"))
    assert steps["exit"] == 0
    # the CLI module loads what every command reads, and nothing else
    assert steps["cli"] == ["ternalg", "ternalg.cli", "ternalg.errors", "ternalg.linalg",
                            "ternalg.schema", "ternalg.structures"]
    assert not set(absent) & set(steps["command"])
