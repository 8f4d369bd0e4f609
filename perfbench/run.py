"""Benchmark of the `sturmian` CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each run spawns fresh child processes (`child.py`) with the interpreter
that runs this script; to measure another CPython, run this script with
it (e.g. `python3.12 perfbench/run.py ...`).  Whole passes over the
workload's command list run one after another, closed loop, until
`--seconds` is used up (at least MIN_PASSES passes).  Before each pass
SETUPS_PER_PASS children only import `sturmian.cli`, so set-up samples
are spread over the run like the passes.  Every output of every pass is checked.

--trace 0 reports the end-to-end metrics (medians over the run's passes):
  wall_s       s   wall time of one pass over the command list
  setup_s      s   spawn until `sturmian.cli` is imported and ready
  peak_rss_mb  MB  the pass child's own peak RSS, from os.wait4
and prints beside them, outside the result line:
  cmd_p50_ms   ms  median per-command latency, all passes pooled
  cmd_p90_ms   ms  90th percentile of the same
  fail_frac        the workload's commands that failed in any pass, over
                   its commands (`failed` and `attempted` in the result)
The per-command percentiles stay out of the result line: on the fixed
workloads they rest on a handful of distinct commands, and on
full-expansion they are those of the small sweep, whose interpreter-bound
speed drifts too much on a shared host to hold a bound.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of `tracing.METRICS` from the traced ones, plus
trace.overhead_frac = traced wall_s / untraced wall_s - 1.

The last stdout line is one JSON object {"correct", "attempted",
"failed", "metrics"}.  The full result, with the interpreter version,
sys.int_info, CPU count and model, goes to results/<workload>-seed<N>-
trace<T>.json; compare.py compares two such files.  Uses the stdlib
only, so it runs under any CPython >= 3.10.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from tracing import METRICS as LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS_PER_PASS = 3
MIN_PASSES = 3
RUN_LIMIT_S = 170  # a whole run must end within 180 s

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
LATENCY = [("cmd_p50_ms", "ms"), ("cmd_p90_ms", "ms")]  # printed only


class BenchError(Exception):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def spawn(mode, workload, seed, traced, deadline):
    """Run one child; returns its report plus setup_s and rss_mb."""
    argv = [sys.executable, "-E", "-s", os.path.join(BENCH_DIR, "child.py"), mode,
            workload, str(seed), str(int(traced)), str(max(1, int(deadline)))]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, cwd=ROOT)
    with proc.stdout:
        text = proc.stdout.read().decode(errors="replace")
    # reap with wait4 so ru_maxrss is this child's own peak, not the
    # maximum over every child reaped so far
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{text[-3000:]}")
    report = json.loads(text.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - t_spawn
    report["rss_mb"] = usage.ru_maxrss / 1024
    return report


def run(workload, seed, seconds, trace):
    start = time.monotonic()

    def left():
        return RUN_LIMIT_S - (time.monotonic() - start)

    setups, passes = [], []
    while True:
        setups += [spawn("setup", workload, seed, False, left())
                   for _ in range(SETUPS_PER_PASS)]
        traced = trace and len(passes) % 2 == 1
        passes.append(spawn("pass", workload, seed, traced, left()))
        passes[-1]["traced"] = traced
        last = passes[-1]["wall_s"]
        if (len(passes) >= MIN_PASSES
                and time.monotonic() - start + last / 2 >= seconds):
            break
        if left() < 1.5 * last + 5:
            if len(passes) < MIN_PASSES:
                raise BenchError("run limit reached before the minimum passes")
            break
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    # counted per command, not per execution, so that the counts depend
    # on the seed only and not on how many passes fit in the run
    attempted = passes[0]["attempted"]
    failed = len(set().union(*(p["failed"] for p in passes)))
    wrong = [w for p in passes for w in p["wrong"]]
    walls = [p["wall_s"] for p in plain]
    info = {}
    if trace:
        metrics = {}
        for name, _, _ in LAYER_METRICS:
            if name != "trace.overhead_frac":
                metrics[name] = statistics.median(p["layers"][name] for p in traced_passes)
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced_passes)
            / statistics.median(walls) - 1)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        lat_ms = sorted(1000 * x for p in plain for x in p["latencies"])
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(p["setup_s"] for p in setups + passes),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
        units = dict(END_TO_END + LATENCY)
        info = {"cmd_p50_ms": statistics.median(lat_ms),
                "cmd_p90_ms": statistics.quantiles(lat_ms, n=10)[8]}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": {"python": sys.version, "int_info": list(sys.int_info),
                "executable": sys.executable, "nproc": os.cpu_count(),
                "cpu": cpu_model(), "platform": platform.platform()},
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "wrong": wrong[:5],
        "samples": {"passes": len(plain), "traced_passes": len(traced_passes),
                    "setups": len(setups) + len(passes),
                    "commands": sum(len(p["latencies"]) for p in plain)},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "info": {k: {"value": v, "unit": units[k]} for k, v in info.items()},
        "pass_walls": [p["wall_s"] for p in passes],
    }


def publish(result) -> None:
    env = result["env"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"python={env['python'].split()[0]} nproc={env['nproc']} cpu={env['cpu']!r}")
    s = result["samples"]
    print(f"# samples: {s['passes']} passes ({s['commands']} commands), "
          f"{s['traced_passes']} traced passes, {s['setups']} set-ups")
    for name, m in {**result["metrics"], **result["info"]}.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':28s} {result['fail_frac']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for w in result["wrong"]:
        print(f"# WRONG {w}")
    out_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": result["metrics"]}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            publish(run(name, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
