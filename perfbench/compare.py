"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.json [BASE2.json ...] -- NEW.json [NEW2.json ...]

Each file is a result that run.py wrote to results/.  Prints, per
workload and metric, the median over each side's files and the change
as a share of the base.  Results from different interpreter versions are
refused: CPython 3.12 changed big-int str() and division, and a gain
from the interpreter must not be credited to a code change.
"""

import json
import statistics
import sys


def load(paths):
    out = []
    for path in paths:
        with open(path) as fh:
            result = json.load(fh)
        result["metrics"].update(result.get("info", {}))
        out.append(result)
    return out


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    versions = {r["env"]["python"] for r in base + new}
    if len(versions) != 1:
        sys.exit("refusing to compare results from different interpreters:\n  "
                 + "\n  ".join(sorted(versions)))
    keys = sorted({(r["workload"], m) for r in base + new for m in r["metrics"]})
    for workload, metric in keys:
        a = [r["metrics"][metric]["value"] for r in base
             if r["workload"] == workload and metric in r["metrics"]]
        b = [r["metrics"][metric]["value"] for r in new
             if r["workload"] == workload and metric in r["metrics"]]
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        change = f"{(mb - ma) / ma:+.3f}" if ma else "n/a"
        print(f"{workload:15s} {metric:28s} {ma:12.6g} -> {mb:12.6g}  {change}"
              f"  (n={len(a)}/{len(b)})")


if __name__ == "__main__":
    main(sys.argv[1:])
