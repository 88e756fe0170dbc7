"""The CLI command list: one ternalg CLI subprocess per command.

There is no installed ``ternalg`` executable, so every command runs as
``python -c "from ternalg.cli import main; main()" ...`` with the checkout's
``src`` on PYTHONPATH.  One pass over the list is the cli-docs workload's
pass, and the list runs once in every traced run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import NamedTuple

CLI = "from ternalg.cli import main; main()"
# The cli-docs workload runs each command under a calibration sampler
# (calib.py) that starts before ternalg is imported and writes its samples
# when the process exits; the parent restates the command's wall time with
# them.  The traced run uses plain CLI.
SAMPLED_CLI = ("import sys; sys.path.append({here!r}); import calib; sys.path.pop(); "
               "calib.sample_until_exit(); " + CLI)
HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 120


class Cmd(NamedTuple):
    case: str
    args: tuple  # CLI arguments; paths are templates over {docs} and {out}
    output: str | None  # derived file the command writes
    gate: tuple


GOLDEN = ("golden",)
TFM = "ternary-f-manifold"


def _path(doc: str) -> str:
    """A generated document by name, or a derived file when it starts with @."""
    if doc.startswith("@"):
        return "{out}/" + doc[1:] + ".json"
    return "{docs}/" + doc + ".json"


def _check(kind: str, doc: str, *flags: str, gate=GOLDEN) -> Cmd:
    rep = ("--rep",) if kind.endswith("-rep") or kind == "dual-conditions" else ()
    return Cmd(f"cli.check.{kind}.{doc.lstrip('@')}",
               ("check", *rep, "--kind", kind, *flags, _path(doc)), None, gate)


def _derive(construction: str, doc: str, out: str) -> Cmd:
    return Cmd(f"cli.derive.{construction}.{doc.lstrip('@')}",
               ("derive", construction, _path(doc), "-o", _path("@" + out)), out, GOLDEN)


COMMANDS: tuple[Cmd, ...] = (
    # check on every fixture kind
    _check("3-lie", "fil4"),
    _check(TFM, "fil4"),
    _check("comm-assoc", "trunc4"),
    _check("lie", "gl2_trace"),
    _check("ternary-fmanifold-rep", "fil4_adjoint"),
    _check("dual-conditions", "fil4_adjoint"),
    _check("comm-assoc-rep", "r_int4"),
    # derive chains
    _derive("semidirect", "fil4_adjoint", "sd_derived"),
    _check(TFM, "@sd_derived"),
    _derive("induce-pre", "fil4_rb", "pre"),
    _check("ternary-pre-f-manifold", "@pre"),
    _derive("trace-induce", "gl2_trace", "trace_3lie"),
    _check("3-lie", "@trace_3lie"),
    _derive("symplectic-pre", "fil4_symplectic", "symplectic_pre"),
    _derive("lift-nijenhuis", "fil4_rb", "lift"),
    _derive("deform", "@lift_n", "deformed"),
    # seeded failure paths
    _check(TFM, "nearmiss_a", "-k", "100", gate=("nearmiss", "nearmiss_a")),
    _check(TFM, "nearmiss_b", "-k", "100", gate=("nearmiss", "nearmiss_b")),
    _check(TFM, "malformed", gate=("malformed",)),
)

DERIVED = tuple(c.output for c in COMMANDS if c.output)


def cli_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TERNALG_JOBS"}
    env["PYTHONPATH"] = src
    return env


def _rename_lift_map(out_dir: str) -> None:
    """lift-nijenhuis names its map N_T, but deform reads a map named N."""
    with open(os.path.join(out_dir, "lift.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    for entry in obj.get("maps", []):
        if entry["name"] == "N_T":
            entry["name"] = "N"
    with open(os.path.join(out_dir, "lift_n.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def run_command(cmd: Cmd, docs_dir: str, out_dir: str, env: dict,
                sampled: bool = False) -> dict:
    """Run one command; return its wall time, exit code, output and stderr,
    and when ``sampled`` its time at the reference speed (``ref_seconds``).

    For a derive command the output is the file it wrote, otherwise stdout.
    """
    code = CLI
    if sampled:
        code = SAMPLED_CLI.format(here=HERE)
        samples = os.path.join(out_dir, "samples.json")
        env = dict(env, PERFBENCH_SAMPLES=samples)
    argv = [sys.executable, "-c", code, *(a.format(docs=docs_dir, out=out_dir) for a in cmd.args)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=TIMEOUT_S)
    t1 = time.perf_counter()
    res = {"seconds": t1 - t0, "exit": proc.returncode, "err": proc.stderr.decode()}
    if sampled:
        import calib

        res["ref_seconds"] = calib.load(samples).ref_seconds(t0, t1)
        os.remove(samples)
    out = proc.stdout.decode()
    if cmd.output and proc.returncode == 0:
        with open(os.path.join(out_dir, cmd.output + ".json"), encoding="utf-8") as fh:
            out = fh.read()
        if cmd.output == "lift":
            _rename_lift_map(out_dir)
    res["out"] = out
    return res
