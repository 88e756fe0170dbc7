"""Verdict benchmark for ternalg: times checks from outside, through the
library's public functions and its CLI, and gates every verdict it times.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads (see BENCHMARK.json for why each
was chosen): scan-special-n16, scan-generic-n8 and rep-matrix-n8 call the
library in-process; cli-docs runs the CLI command list (clidocs.py), which
also runs in every traced run.

The parent generates the seeded documents (gen.py) before any child starts,
warms ``__pycache__`` once, measures set-up in fresh processes, then runs the
workload in one fresh child (worker.py), gates every output (gate.py) and
prints the metrics as one JSON line, last on stdout.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones; both come from
BENCHMARK.json.  The exit code is 1 when the gate fails and 2 on a usage or
environment error, which includes a checkout without ``src/ternalg``.

``--record-goldens`` runs the traced sweep once and writes the outputs of
every fixed-input case to golden.json.  Do that only when the program's
output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("scan-special-n16", "scan-generic-n8", "rep-matrix-n8", "cli-docs")
SETUP_REPS = 7
CHILD_TIMEOUT_S = 170


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TERNALG_JOBS"}
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> str:
    proc = subprocess.run([sys.executable, *argv], env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        fail(f"{' '.join(argv[:2])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def end_to_end(passes: list[dict], setup: list[tuple[float, float]]) -> dict[str, float]:
    """Medians over the run's passes, set-ups and operations.  Times are
    reference seconds (calib.py); ``op_ms`` and the ``wall_`` entries are
    for the log line only, the latter in wall seconds."""
    check_s = statistics.median(p["check_s"] for p in passes)
    op_ms = [t * 1e3 for p in passes for t in p["ops"]]
    return {
        "setup_s": statistics.median(ref for ref, _ in setup),
        "check_s": check_s,
        "tuples_per_s": passes[0]["tuples"] / check_s,
        "total_s": statistics.median(p["total_s"] for p in passes),
        "op_p50_ms": statistics.median(op_ms),
        "op_ms": op_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "wall_setup_s": statistics.median(wall for _, wall in setup),
        "wall_check_s": statistics.median(p["wall_check_s"] for p in passes),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ternalg", "__init__.py")):
        fail(f"no ternalg sources under {SRC}; run from the root of a checkout")
    if args.record_goldens:
        args.workload, args.trace = WORKLOADS[0], 1
    elif args.workload is None:
        fail("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, SRC)
    import gate
    import gen

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    docs_dir = os.path.join(work, "docs")
    texts = gen.documents(args.seed)
    gen.write(texts, docs_dir)

    # Compile every module once, so that timed imports read __pycache__.
    run_child(["-c", "import ternalg.cli"])
    setup = []
    if not args.trace:
        for _ in range(SETUP_REPS):
            out = run_child([os.path.join(HERE, "setup_probe.py"), args.workload, docs_dir])
            ref, wall = out.split()
            setup.append((float(ref), float(wall)))

    result_path = os.path.join(work, "result.json")
    run_child([os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--docs", docs_dir, "--work", work, "--src", SRC,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--run-id", f"{args.workload}:{args.seed}:{os.getpid()}",
               "--result", result_path])
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    if args.record_goldens:
        fixed = {case: {"exit": rec["first"]["exit"], "out": rec["first"]["out"]}
                 for case, rec in sorted(result["cases"].items())
                 if rec["gate"] == ["golden"] and rec["first"] is not None}
        with open(gate.GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump(fixed, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(fixed)} goldens to {gate.GOLDEN_PATH}")
        return

    attempted, failed, messages = gate.evaluate(result["cases"], gate.load_goldens(), texts)
    for line in messages:
        print(f"gate: {line}", file=sys.stderr)
    measured = result["layer"] if args.trace else end_to_end(result["passes"], setup)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        fail(f"declared metrics not measured: {missing}")
    if not args.trace:
        op_ms = measured["op_ms"]
        # A p90 needs ten samples beyond it; only cli-docs runs that many.
        p90 = (f", p90 {statistics.quantiles(op_ms, n=10)[-1]:.1f} ms"
               if len(op_ms) >= 100 else "")
        print(f"{args.workload} seed {args.seed}: {len(result['passes'])} passes, "
              f"{len(op_ms)} operations{p90}, {SETUP_REPS} set-ups; "
              f"wall medians: setup {measured['wall_setup_s']:.4f} s, "
              f"check {measured['wall_check_s']:.3f} s; mismatch_rate {failed}/{attempted}")
    else:
        print(f"{args.workload} seed {args.seed}: traced; spans in "
              f"{os.path.relpath(os.path.join(work, 'spans.json'), ROOT)}; "
              f"mismatch_rate {failed}/{attempted}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
