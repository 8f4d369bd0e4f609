"""Record stdout digests and exit codes of the fixed commands.

    python3 perfbench/record.py

Writes expected.json, which the `digest` and `verify` checks compare
against; for `verify` it also keeps the pipeline terms.  The recorded
outputs are those of the seed commit; re-record only when a
change is meant to alter the CLI output.
"""

import json
import os

import child
import checks
import workloads

FIXED = ("prefix-terms", "full-expansion", "oracle-verify")


def main():
    expected = {}
    for name in FIXED:
        for cmd in workloads.commands(name, 0):
            if cmd.key is None:  # seeded, checked independently
                continue
            code, out, seconds = child.execute(cmd.argv)
            expected[cmd.key] = {"argv": cmd.argv, "exit": code,
                                 "sha256": checks.digest(out), "bytes": len(out)}
            if cmd.check == "verify":
                expected[cmd.key]["pipeline"] = json.loads(out)["pipeline"]
            print(f"{cmd.key}: exit {code}, {len(out)} bytes, {seconds:.2f} s")
    with open(os.path.join(child.BENCH_DIR, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
