"""The scripts under `tools/` still run against the package."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_plan_costs_runs_and_fits_every_constant(tmp_path):
    out = tmp_path / "costs.json"
    pythonpath = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "plan_costs.py"),
                           "--n", "2", "--repeats", "1", "--json", str(out)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    got = json.loads(out.read_text())
    assert proc.stdout.startswith(f"{len(got['cases'])} cases, n = 2, best of 1;")
    assert got["cases"] and got["fit"].keys() == got["in_use"].keys() == {
        "tuple", "term", "step", "chunk", "probe", "contribution"}
