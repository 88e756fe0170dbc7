"""One set-up in a fresh process; prints its seconds at the reference speed
(see calib.py) and its wall seconds.

Usage: python3 perfbench/setup_probe.py <workload> <docs-dir>

The clock starts after the documents are read from disk and before ternalg
is imported, so it covers import, parsing and the builders the workload
needs, and not interpreter start-up.  On cli-docs it covers the import of
ternalg.cli alone.  Only sys, time and the calibration sampler (which
imports no module that ternalg needs) are loaded before the clock starts.
"""

import sys
import time

from calib import Sampler

DOCS = {
    "scan-special-n16": ("fil4",),
    "scan-generic-n8": ("fil4", "dense8"),
    "rep-matrix-n8": ("fil4", "r_int5", "fil4_rb", "fil4_symplectic"),
}
# A set-up lasts a few tenths of a second; sample more often than a pass does.
INTERVAL_S = 0.01


def main() -> None:
    workload, docs_dir = sys.argv[1], sys.argv[2]
    if workload == "cli-docs":
        with Sampler(INTERVAL_S) as sampler:
            t0 = time.perf_counter()
            import ternalg.cli  # noqa: F401

            t1 = time.perf_counter()
        print(repr(sampler.ref_seconds(t0, t1)), repr(t1 - t0))
        return

    texts = {}
    for name in DOCS[workload]:
        with open(f"{docs_dir}/{name}.json", encoding="utf-8") as fh:
            texts[name] = fh.read()

    with Sampler(INTERVAL_S) as sampler:
        t0 = time.perf_counter()
        from ternalg import direct_sum, lift_nijenhuis, schema
        from ternalg.representations import adjoint_rep, semidirect

        docs = {name: schema.parse_document(text)[0] for name, text in texts.items()}
        sd = semidirect(adjoint_rep(docs["fil4"].bundle))
        if workload == "scan-special-n16":
            direct_sum(sd, sd)
        elif workload == "rep-matrix-n8":
            adjoint_rep(sd)
            rb = docs["fil4_rb"]
            lift_nijenhuis(rb.require_map("T"), rb.rep)
            semidirect(rb.rep)
        t1 = time.perf_counter()
    print(repr(sampler.ref_seconds(t0, t1)), repr(t1 - t0))


if __name__ == "__main__":
    main()
