"""Print the SHA-256 of every artifact the bundled scenarios write.

    PYTHONPATH=src python tests/digest_gate.py OUT_DIR > digests.txt

Runs each bundled scenario with traces on, into OUT_DIR/<name>, and
prints one ``sha256  path`` line per file, paths relative to OUT_DIR.
A refactor that claims byte-identical behaviour diffs this output
against the parent commit's, once as is (seeds pooled on the usable
CPUs) and once under ``taskset -c 0`` (seeds run in process).  Not a
pytest module: one pass runs every bundled seed, about 11 s pooled on
2 CPUs and 16 s under ``taskset -c 0``.
"""

import hashlib
import os
import sys

from caspr import runner, scenario


def main(out_dir: str) -> None:
    for name in scenario.bundled_names():
        cfg = scenario.load(scenario.bundled_path(name))
        runner.run_scenario(cfg, os.path.join(out_dir, name), trace=True)
    for root, _, files in sorted(os.walk(out_dir)):
        for fname in sorted(files):
            path = os.path.join(root, fname)
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            print(f"{digest}  {os.path.relpath(path, out_dir)}")


if __name__ == "__main__":
    main(sys.argv[1])
