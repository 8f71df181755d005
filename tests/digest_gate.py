"""Print the SHA-256 of every artifact the bundled scenarios write.

    PYTHONPATH=src python tests/digest_gate.py OUT_DIR > digests.txt
    PYTHONPATH=src python tests/digest_gate.py OUT_DIR --against OLD.txt
    PYTHONPATH=src python tests/digest_gate.py OUT_DIR --serial --against OLD.txt
    PYTHONPATH=src python tests/digest_gate.py OUT_DIR --untraced --against OLD.txt

Runs each bundled scenario with traces on, into OUT_DIR/<name>, and
prints one ``sha256  path`` line per file, paths relative to OUT_DIR.
A refactor that claims byte-identical behaviour checks this output
against the parent commit's three times: once as is (seeds pooled on
the usable CPUs), once with ``--serial``, which pins this process to
one CPU so the runner runs every seed in process, and once with
``--untraced``, which writes the CSVs only.  A traced seed never
splits, so only the untraced pass runs the one-seed scenarios split
across two processes (on two or more usable CPUs).  ``--against``
reads a file this script printed, by any of the passes: an untraced
pass leaves the trace files out of the comparison.  After printing, it
names on stderr every artifact that differs, is missing or is extra,
and exits 1 if there is any.  Not a pytest module: one pass runs every
bundled seed, about 6 s pooled on 2 CPUs and 9 s serial.
"""

import argparse
import hashlib
import os
import sys

from caspr import runner, scenario


def is_trace(rel: str) -> bool:
    return os.path.basename(rel).startswith("trace-")


def digests(out_dir: str, trace: bool = True) -> dict[str, str]:
    """Run every bundled scenario into out_dir; path -> SHA-256 of each file."""
    for name in scenario.bundled_names():
        cfg = scenario.load(scenario.bundled_path(name))
        runner.run_scenario(cfg, os.path.join(out_dir, name), trace=trace)
    found = {}
    for root, _, files in sorted(os.walk(out_dir)):
        for fname in sorted(files):
            path = os.path.join(root, fname)
            with open(path, "rb") as f:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(f.read()).hexdigest()
    return found


def read_digests(path: str) -> dict[str, str]:
    with open(path) as f:
        return {rel: digest for digest, rel in
                (line.rstrip("\n").split("  ", 1) for line in f if line.strip())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir")
    parser.add_argument("--against", metavar="OLD.txt",
                        help="digests printed by this script at another commit")
    parser.add_argument("--serial", action="store_true",
                        help="pin this process to one CPU: every seed runs in process")
    parser.add_argument("--untraced", action="store_true",
                        help="write no traces, so one-seed scenarios run split")
    args = parser.parse_args(argv)
    old = read_digests(args.against) if args.against else None
    if args.serial:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    new = digests(args.out_dir, trace=not args.untraced)
    if old is not None and args.untraced:
        old = {rel: digest for rel, digest in old.items() if not is_trace(rel)}
    for rel, digest in new.items():
        print(f"{digest}  {rel}")
    if old is None:
        return 0
    faults = []
    for rel in sorted(old.keys() | new.keys()):
        if rel not in new:
            faults.append(f"missing: {rel}")
        elif rel not in old:
            faults.append(f"extra: {rel}")
        elif old[rel] != new[rel]:
            faults.append(f"differs: {rel}")
    for fault in faults:
        print(fault, file=sys.stderr)
    print(f"{len(new)} files, {len(faults)} not identical to {args.against}",
          file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
