"""One measured child process: import the CLI, then run one pass.

    python3 perfbench/child.py setup|pass WORKLOAD SEED TRACE DEADLINE_S

`setup` only imports `sturmian.cli` and reports when it was ready (on
the system-wide monotonic clock, so the parent can subtract its spawn
time).  `pass` then drives `sturmian.cli.main(argv)` in-process over the
workload's whole command list with stdout and stderr captured, checks
every output after the timed loop, and prints one JSON line.
"""

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path[:0] = [SRC, BENCH_DIR]

import sturmian.cli as cli  # noqa: E402  (set-up ends here)

READY = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import signal  # noqa: E402
from time import perf_counter  # noqa: E402

_NUMBER = re.compile(r"-?\d+(/\d+)?")


def _max_payload_digits(out: bytes) -> int:
    """Longest decimal payload string in a JSON output (0 for others)."""
    try:
        payload = json.loads(out)
    except ValueError:
        return 0
    best, todo = 0, [payload]
    while todo:
        x = todo.pop()
        if isinstance(x, dict):
            todo.extend(x.values())
        elif isinstance(x, list):
            todo.extend(x)
        elif isinstance(x, str) and _NUMBER.fullmatch(x):
            best = max(best, len(x) - x.count("-") - x.count("/"))
    return best


def execute(argv):
    """(exit code, stdout bytes, seconds) of `sturmian.cli.main(argv)`."""
    buf = io.BytesIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.TextIOWrapper(buf, encoding="utf-8"), io.StringIO()
    t0 = perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # a crash is a failed command, not a dead pass
        code = 1
    finally:
        sys.stdout.flush()
        seconds = perf_counter() - t0
        sys.stdout.detach()
        sys.stdout, sys.stderr = real_out, real_err
    return code, buf.getvalue(), seconds


def run_pass(workload, seed, traced):
    import checks
    import workloads

    cmds = workloads.commands(workload, seed)
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        expected = json.load(fh)
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    results, latencies = [], []
    start = perf_counter()
    for i, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.begin(i, cmd.argv)
        code, out, seconds = execute(cmd.argv)
        results.append((code, out))
        latencies.append(seconds)
    wall = perf_counter() - start
    failed, wrong = checks.judge(cmds, results, expected)
    report = {"wall_s": wall, "latencies": latencies, "attempted": len(cmds),
              "failed": failed, "wrong": wrong[:5], "n_wrong": len(wrong)}
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.out_bytes"] = sum(len(out) for _, out in results)
        layers["cli.max_payload_digits"] = max(
            (_max_payload_digits(out) for _, out in results), default=0)
        report["layers"] = layers
        out_dir = os.path.join(BENCH_DIR, "results")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(
            out_dir, f"spans-{workload}-seed{seed}.jsonl"))
    return report


def main(argv):
    mode, workload, seed, traced, deadline = argv
    signal.alarm(max(1, int(float(deadline))))  # never outlive the run
    if not cli.__file__.startswith(SRC + os.sep):
        sys.exit(f"sturmian imported from {cli.__file__}, not from the checkout")
    report = {"ready": READY}
    if mode == "pass":
        report.update(run_pass(workload, int(seed), traced == "1"))
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
