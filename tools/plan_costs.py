"""Measure the scan planner's cost constants (`structures._TUPLE_COST` and
the rest) on this machine, and how well the fitted model predicts.

For every identity of `IDENTITIES` and every sub-map, on seeded random
integer bundles of a few densities, it times the generated sweep over the
whole range and the generated contraction over every chunk, each the best
of a few runs, and counts what the cost model counts: tuples, tuples times
terms, and contributions (the sweep's steps) for the tuple scan; chunks,
probes (one per nonzero a nested term walks) and contributions for the
contraction.  A least-squares fit of each path's times on its counts gives
the constants, in tenths of a microsecond, and each case's predicted over
measured time shows the fit.  Both loops are timed bare, as `_nonzeros` drives them:
the sweep's generator, and each chunk with its nonzero sums found.  The
work done per nonzero tuple (the dense values `_nonzeros` makes of a
contraction's sums, `_failures`' orbit heap, `_tabulate`'s entries) is
left out: it is paid only where a map is nonzero, and every random bundle
is nonzero nearly everywhere.

Run from the repository root:
``PYTHONPATH=src python3 tools/plan_costs.py [--n 7] [--repeats 3] [--json out.json]``
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import random
import sys
import time
from fractions import Fraction
from math import prod

from ternalg import structures
from ternalg.linalg import Tensor
from ternalg.structures import IDENTITIES, AlgebraBundle

DENSITIES = (0.0, 0.05, 0.15, 0.4)


def random_bundle(n: int, density: float, rng: random.Random) -> AlgebraBundle:
    """Product, bracket and binary bracket with about `density` of their
    entries nonzero small integers; they satisfy no identity."""

    def tensor(order):
        cells = list(itertools.product(range(n), repeat=order))
        return Tensor(n, order, {c: Fraction(rng.choice((-2, -1, 1, 2)))
                                 for c in rng.sample(cells, round(density * len(cells)))})

    return AlgebraBundle(n, product=tensor(3), bracket=tensor(4), binary_bracket=tensor(3))


def best(fn, repeats: int) -> float:
    """The least of `repeats` wall times of fn(), in tenths of a microsecond."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e7


def measure(ops, m, repeats: int) -> dict:
    sizes = structures._shape(ops, m)[0]
    sweep = structures._make_scanner(ops, m)
    chunk = structures._make_scanner(ops, m, "contract")

    def run_scan():  # the sweep `_nonzeros` runs, over every tuple
        for t, out in sweep():
            pass

    def run_contraction():  # the chunks `_nonzeros` contracts
        for x0 in range(sizes[0]):
            acc, made = chunk(x0)
            for k, v in acc.items():
                if v:
                    pass

    probes, contributions = structures._contributions(ops, m)
    rows = prod(sizes)
    return {"map": m.name, "rows": rows, "terms": len(m.terms), "chunks": sizes[0],
            "probes": probes,
            "contributions": contributions, "scan": best(run_scan, repeats),
            "contract": best(run_contraction, repeats)}


def solve(rows: list[list[float]], ys: list[float]) -> list[float]:
    """Least squares in relative error, each case weighted by 1 / its time:
    the normal equations, by Gaussian elimination."""
    rows = [[x / y for x in r] for r, y in zip(rows, ys)]
    ys = [1.0] * len(ys)
    k = len(rows[0])
    a = [[sum(r[i] * r[j] for r in rows) for j in range(k)]
         + [sum(r[i] * y for r, y in zip(rows, ys))] for i in range(k)]
    for i in range(k):
        pivot = max(range(i, k), key=lambda j: abs(a[j][i]))
        a[i], a[pivot] = a[pivot], a[i]
        for j in range(k):
            if j != i and a[i][i]:
                f = a[j][i] / a[i][i]
                a[j] = [x - f * y for x, y in zip(a[j], a[i])]
    return [a[i][k] / a[i][i] if a[i][i] else 0.0 for i in range(k)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=7, help="dimension of the random bundles")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", help="also write the cases and the fit here")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    cases = []
    for density in DENSITIES:
        b = random_bundle(args.n, density, rng)
        ops = structures._ops(b)
        for m in (*IDENTITIES.values(), *structures._SUBMAPS.values()):
            if m.tensors <= ops.tensors.keys() | structures._SUBMAPS.keys():
                cases.append({"density": density, **measure(ops, m, args.repeats)})

    scan_x = [[c["rows"], c["rows"] * c["terms"], c["contributions"]] for c in cases]
    contract_x = [[c["chunks"], c["probes"], c["contributions"]] for c in cases]
    tuple_cost, term_cost, step_cost = solve(scan_x, [c["scan"] for c in cases])
    chunk_cost, probe_cost, contribution_cost = solve(contract_x, [c["contract"] for c in cases])
    fit = {"tuple": tuple_cost, "term": term_cost, "step": step_cost, "chunk": chunk_cost,
           "probe": probe_cost, "contribution": contribution_cost}
    used = {"tuple": structures._TUPLE_COST, "term": structures._TERM_COST,
            "step": structures._STEP_COST, "chunk": structures._CHUNK_COST,
            "probe": structures._PROBE_COST, "contribution": structures._CONTRIBUTION_COST}

    def ratios(costs):
        out = {}
        for c in cases:
            scan = c["rows"] * (costs["tuple"] + costs["term"] * c["terms"]) \
                + costs["step"] * c["contributions"]
            contract = costs["chunk"] * c["chunks"] + costs["probe"] * c["probes"] \
                + costs["contribution"] * c["contributions"]
            out[(c["map"], c["density"])] = (scan / c["scan"], contract / c["contract"])
        return out

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"n": args.n, "repeats": args.repeats, "python": sys.version,
                       "fit": fit, "in_use": used, "cases": cases}, fh, indent=1)
    print(f"{len(cases)} cases, n = {args.n}, best of {args.repeats}; "
          f"Python {platform.python_version()} on {platform.machine()}")
    print("costs in tenths of a microsecond:  fitted   in use")
    for name in fit:
        print(f"  {name:<14}{fit[name]:>22.2f}{used[name]:>9}")
    print("predicted / measured, with the constants in use: scan, contraction")
    spread = ratios(used)
    for (name, density), (s, c) in spread.items():
        print(f"  {name:<14} density {density:<5} {s:6.2f} {c:6.2f}")


if __name__ == "__main__":
    main()
