"""The pinned report and builder bytes do not depend on the hash seed.

`test_checker_pins` and `test_builder_pins` run under the one hash seed
of the test process; here a few of their cases run again in processes
with other PYTHONHASHSEED values and must give the same pinned digests, so
no output depends on the iteration order of a set or dict of strings.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

from test_builder_pins import PINNED as BUILDER_PINNED
from test_checker_pins import KS
from test_checker_pins import PINNED as CHECKER_PINNED

# checks of maps of each sort (T: V -> A, f: A -> B, forms and traces into k)
# and builders that read their sub-map tables through `_Maps`
CHECKS = ("rb.r_int4", "hom.gl2", "symplectic.fil4_trunc3", "induced.heisenberg_trunc3",
          "nijenhuis.both")
BUILDS = ("induced_pre_fmanifold.r_int4", "symplectic_induced_pre.fil4", "trace_induced.gl2",
          "deform.lift_r_int3", "fix_slot_rep.rational", "semidirect.rational")
DIGESTS = textwrap.dedent("""
    import json, sys
    import test_builder_pins as builders, test_checker_pins as checkers
    checks, builds = json.loads(sys.argv[1])
    print(json.dumps([{case: [checkers.report_digest(case, k) for k in checkers.KS]
                       for case in checks}, {case: builders.digest(case) for case in builds}]))
""")


def test_pins_hold_under_other_hash_seeds():
    here = pathlib.Path(__file__).resolve().parent
    path = [str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH")]
    want = [{case: [list(CHECKER_PINNED[case][k]) for k in KS] for case in CHECKS},
            {case: BUILDER_PINNED[case] for case in BUILDS}]
    for seed in ("1", "4099"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run([sys.executable, "-c", DIGESTS, json.dumps([CHECKS, BUILDS])],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == want, seed
