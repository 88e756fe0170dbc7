"""The scripts under `tools/` still run against the package."""

import importlib.util
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


def test_mutations_still_apply():
    """Every mutation of `tools/mutate.py` still finds its snippet exactly
    once under `src`, and names a reason it is equivalent or test ids that
    pytest still collects, parameter ids included; no mutant is run."""
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    assert len({m.name for m in mutate.MUTATIONS}) == len(mutate.MUTATIONS)
    for m in mutate.MUTATIONS:
        assert m.path.startswith("src/") and m.snippet != m.replacement, m.name
        assert (ROOT / m.path).read_text(encoding="utf-8").count(m.snippet) == 1, m.name
        assert bool(m.kill) != bool(m.equivalent), m.name
    kill = sorted({test for m in mutate.MUTATIONS for test in m.kill})
    pythonpath = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *kill],
                          cwd=ROOT, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(line for line in proc.stdout.splitlines() if "::" in line) == kill
