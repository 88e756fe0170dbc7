"""Measurement child: runs one workload's passes and writes what it saw.

Started by run.py as a fresh process, one at a time, with the checkout's
``src`` on PYTHONPATH and TERNALG_JOBS unset.  It writes a JSON file with
the per-pass timings, the first output of every case with how often later
outputs differed from it, and, in the traced run, the per-layer metrics.
Correctness is judged by run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

import clidocs
from calib import Sampler
from spans import Tracer, self_times

CLI_WORKLOAD = "cli-docs"
# Command samples per cli-docs run: at least 100, so that ten lie beyond p90.
CLI_MIN_PASSES = -(-100 // len(clidocs.COMMANDS))
LAYERS = ("cli", "schema", "constructions", "structures", "representations", "operators")


class Outputs:
    """First output per case; counts of runs, differing outputs and errors."""

    def __init__(self):
        self.cases: dict[str, dict] = {}

    def add(self, case: str, gate: tuple, exit_code, out: str | None, err: str = "",
            error: str | None = None) -> None:
        rec = self.cases.setdefault(case, {"gate": list(gate), "runs": 0, "differ": 0,
                                           "raised": 0, "first": None})
        rec["runs"] += 1
        if error is not None:
            rec["raised"] += 1
            rec.setdefault("errors", []).append(error)
            return
        got = {"exit": exit_code, "out": out, "err": err}
        if rec["first"] is None:
            rec["first"] = got
        elif got != rec["first"]:
            rec["differ"] += 1


def wall_seconds(t0: float, t1: float) -> float:
    return t1 - t0


def new_pass() -> dict:
    """A pass's check and total times, reported and wall, its tuple count
    and the reported time of each operation."""
    out = dict.fromkeys(("check_s", "total_s", "wall_check_s", "wall_total_s"), 0.0)
    out.update(tuples=0, ops=[])
    return out


def in_process_pass(op_list, texts, tracer, outputs: Outputs, keep=None,
                    seconds=wall_seconds) -> dict:
    """One pass over ``op_list``; times are converted by ``seconds`` (see
    calib.Sampler.ref_seconds), except the ``wall_`` ones."""
    import ops

    out = new_pass()
    for op in op_list:
        ctx = ops.Ctx(texts, tracer)
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op", op.case):
                result = op.run(ctx)
                with tracer.span("schema.dumps", op.case):
                    text = ops.dump(result)
        except Exception:
            outputs.add(op.case, op.gate, None, None, error=traceback.format_exc())
            continue
        t1 = time.perf_counter()
        outputs.add(op.case, op.gate, None, text)
        if keep is not None:
            keep[op.case] = result
        total = seconds(t0, t1)
        out["check_s"] += seconds(*ctx.check_t)
        out["total_s"] += total
        out["wall_check_s"] += wall_seconds(*ctx.check_t)
        out["wall_total_s"] += wall_seconds(t0, t1)
        out["tuples"] += ctx.tuples
        out["ops"].append(total)
    return out


def cli_pass(docs_dir, out_dir, env, tracer, outputs: Outputs, sampled=False) -> dict:
    """One pass over the command list.  A command's whole process counts:
    ``check`` commands on fixed inputs make up ``check_s`` and ``tuples``,
    every command ``total_s``.  The seeded near-misses stop scanning after
    100 counterexamples, so their tuple counts depend on the seed.
    ``sampled`` reports reference seconds, measured in each command's
    process (clidocs.SAMPLED_CLI); otherwise wall seconds."""
    out = new_pass()
    for cmd in clidocs.COMMANDS:
        try:
            with tracer.span("cli.command", cmd.case):
                res = clidocs.run_command(cmd, docs_dir, out_dir, env, sampled)
        except (OSError, subprocess.SubprocessError):
            outputs.add(cmd.case, cmd.gate, None, None, error=traceback.format_exc())
            continue
        outputs.add(cmd.case, cmd.gate, res["exit"], res["out"], res["err"])
        latency = res["ref_seconds"] if sampled else res["seconds"]
        out["total_s"] += latency
        out["wall_total_s"] += res["seconds"]
        out["ops"].append(latency)
        if cmd.args[0] == "check" and cmd.gate == clidocs.GOLDEN and res["exit"] == 0:
            out["check_s"] += latency
            out["wall_check_s"] += res["seconds"]
            out["tuples"] += json.loads(res["out"])["tuple_count"]
    return out


class Runner:
    def __init__(self, args):
        self.workload = args.workload
        self.docs_dir = args.docs
        self.out_dir = os.path.join(args.work, "cli-out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.env = clidocs.cli_env(args.src)
        self.texts = {}
        for name in os.listdir(self.docs_dir):
            with open(os.path.join(self.docs_dir, name), encoding="utf-8") as fh:
                self.texts[name[:-len(".json")]] = fh.read()
        self.outputs = Outputs()

    def one_pass(self, workload: str, tracer, seconds=wall_seconds) -> dict:
        import ops

        if workload == CLI_WORKLOAD:
            return cli_pass(self.docs_dir, self.out_dir, self.env, tracer, self.outputs)
        return in_process_pass(ops.WORKLOAD_OPS[workload], self.texts, tracer, self.outputs,
                               seconds=seconds)

    @contextlib.contextmanager
    def timed_pass(self):
        """Yields a function that runs one pass of the workload with a given
        tracer and reports reference seconds: in-process passes run under a
        calibration sampler, and a CLI command samples in its own process."""
        if self.workload == CLI_WORKLOAD:
            yield lambda tracer: cli_pass(self.docs_dir, self.out_dir, self.env, tracer,
                                          self.outputs, sampled=True)
        else:
            with Sampler() as sampler:
                yield lambda tracer: self.one_pass(self.workload, tracer, sampler.ref_seconds)

    def measure(self, seconds: float) -> list[dict]:
        """Passes until the next one would overrun ``seconds``, at least one,
        and on cli-docs at least CLI_MIN_PASSES."""
        off = Tracer("", enabled=False)
        min_passes = CLI_MIN_PASSES if self.workload == CLI_WORKLOAD else 1
        passes = []
        start = time.perf_counter()
        with self.timed_pass() as one_pass:
            while True:
                p = one_pass(off)
                passes.append(p)
                if (len(passes) >= min_passes
                        and time.perf_counter() - start + p["wall_total_s"] > seconds):
                    return passes

    def traced(self, run_id: str, spans_path: str) -> dict:
        """Every layer case once, traced, so that any workload's traced run
        gives every per-layer metric.  Before that, this workload's pass runs
        untraced and traced, timed as in ``measure``; their difference in
        check time is the tracing overhead."""
        import ops

        with self.timed_pass() as one_pass:
            untraced = one_pass(Tracer("", enabled=False))
            overhead = one_pass(Tracer(run_id, enabled=True))["check_s"] - untraced["check_s"]
        tr = Tracer(run_id, enabled=True)
        for workload in (*ops.WORKLOAD_OPS, CLI_WORKLOAD):
            self.one_pass(workload, tr)
        kept: dict = {}
        in_process_pass(ops.TRACED_EXTRA_OPS, self.texts, tr, self.outputs, kept)
        per_call, vanished = ops.eval_defect_probe(self.texts, tr)
        for name, ok in vanished.items():
            self.outputs.add(f"eval_defect.{name}", ("true",), None, "ok" if ok else "nonzero")
        ops.parse_probe(self.texts, [d for d in sorted(self.texts) if d != "malformed"], tr)
        for name in clidocs.DERIVED:
            try:
                with open(os.path.join(self.out_dir, name + ".json"), encoding="utf-8") as fh:
                    text = fh.read()
            except OSError:
                self.outputs.add(f"dump.{name}", ("true",), None, None,
                                 error=traceback.format_exc())
                continue
            again = ops.dump_probe(name, ops.document_obj(text), tr)
            self.outputs.add(f"dump.{name}", ("true",), None, "ok" if again == text else "differs")
        report = kept.get("ternary-f-manifold.nearmiss_a")
        if report is not None:
            ops.dump_probe("report_k100", ops.report_obj(report), tr)
        tr.write(spans_path)

        metrics = layer_metrics(tr.records)
        for name, us in per_call.items():
            metrics[f"structures.eval_defect_us.{name}"] = us
        metrics.update(cli_probes(self.env))
        selfs = self_times(tr.records)
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = selfs.get(layer, 0.0) * 1e3
        metrics["trace.overhead_ms"] = overhead * 1e3
        return metrics


def _metric_stem(name: str) -> str:
    layer, fn = name.split(".", 1)
    if fn.startswith("check"):
        return f"{layer}.check_ms"
    if fn == "parse_document":
        return f"{layer}.parse_ms"
    if fn == "dumps":
        return f"{layer}.dump_ms"
    return f"{layer}.{fn}_ms"


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Median duration per (span name, case), with the counts on the spans."""
    groups: dict[tuple, list[dict]] = {}
    for rec in records:
        if rec["name"] not in ("bench.op", "cli.command", "structures.eval_defect"):
            groups.setdefault((rec["name"], rec["case"]), []).append(rec)
    out: dict[str, float] = {}
    for (name, case), recs in groups.items():
        ms = statistics.median(r["end"] - r["start"] for r in recs) * 1e3
        out[f"{_metric_stem(name)}.{case}"] = ms
        layer = name.split(".", 1)[0]
        unit = {"structures": "tuples", "representations": "columns"}.get(layer)
        if unit and "tuples" in recs[0]:
            out[f"{layer}.{unit}.{case}"] = recs[0]["tuples"]
            out[f"{layer}.{unit}_per_s.{case}"] = recs[0]["tuples"] / (ms / 1e3)
            if layer == "structures":
                out[f"structures.counterexamples.{case}"] = recs[0]["counterexamples"]
    return out


def cli_probes(env: dict, reps: int = 5) -> dict[str, float]:
    """Fresh-process import time of ternalg.cli, and bare interpreter start."""
    imports, starts = [], []
    code = ("import time; t = time.perf_counter(); import ternalg.cli; "
            "print(repr(time.perf_counter() - t))")
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             check=True, timeout=60)
        imports.append(float(out.stdout))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        starts.append(time.perf_counter() - t0)
    return {"cli.import_ms": statistics.median(imports) * 1e3,
            "cli.python_startup_ms": statistics.median(starts) * 1e3}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--docs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    runner = Runner(args)
    result: dict = {}
    if args.trace:
        result["layer"] = runner.traced(args.run_id, os.path.join(args.work, "spans.json"))
    else:
        result["passes"] = runner.measure(args.seconds)
    result["cases"] = runner.outputs.cases
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
