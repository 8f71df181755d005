"""Time a cold start of caspr in this fresh process; run.py starts it.

    coldstart.py ROOT SCENARIO

Imports caspr.runner and caspr.scenario from ROOT/src and loads the
bundled scenario, timing both from a bare interpreter: nothing else is
imported first, so every module caspr needs (numpy, yaml, jsonschema,
...) is loaded inside the timed region.  Then runs the calibration loop
(calib.py) and prints {"setup_s", "slowdown"} as JSON.
"""

import os
import sys
import time


def main(root: str, scenario_name: str) -> None:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import caspr.runner  # noqa: F401 - the import is what is timed
    from caspr import scenario
    scenario.load(scenario.bundled_path(scenario_name))
    setup_s = time.perf_counter() - t0

    import json

    import calib
    import worker
    worker.check_origin(src)
    print(json.dumps({"setup_s": setup_s, "slowdown": calib.slowdown()}))


if __name__ == "__main__":
    main(*sys.argv[1:])
