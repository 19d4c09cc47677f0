"""funcon benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload t15ii-m2n4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the program is imported from its src/.
Each workload runs in a fresh interpreter (perfbench/worker.py) as a closed
loop with one client, and workloads run one after another.  The worker runs
the workload's seeded ops in rounds and times a fixed reference work between
them (perfbench/reference.py); the end-to-end latency figures are taken over
each op's median latency in refs, the time the reference work took around
the op.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  The exit
code is 0 only when every op passed its correctness gate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import highest_supported_percentile, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# setup_s is the median of the worker's set-up and of SETUPS_AROUND
# set-up-only workers before it and as many after it: the host's speed moves
# over tens of seconds, and samples taken in one burst all share its state.
SETUPS_AROUND = 2
WORKER_TIMEOUT_S = 170
WORK = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    pass


def run_worker(workload, seed, seconds, trace, setup_only, timeout):
    """Start a worker; returns (seconds from spawn to READY, result or None)."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", str(ROOT), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    setup_s = float(lines[0].split()[1]) - spawned
    return setup_s, (json.loads(lines[-1]) if not setup_only else None)


def end_to_end(result, setups):
    """The end-to-end metrics, over each op's median latency in refs."""
    refs = result["op_refs"]
    passed = len(refs) - result["failed_ops"]
    return {
        "ops_per_kref": (1000 * passed / sum(refs), "ops/kref"),
        "op_p50_ref": (percentile(refs, 50), "ref"),
        "op_p90_ref": (percentile(refs, 90), "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def wall_clock(result):
    """The same figures in wall-clock time, for the human-readable lines."""
    seconds = result["op_seconds"]
    passed = len(seconds) - result["failed_ops"]
    return {
        "ops_per_s": (passed / sum(seconds), "ops/s"),
        "op_p50_ms": (1000 * percentile(seconds, 50), "ms"),
        "op_p90_ms": (1000 * percentile(seconds, 90), "ms"),
        "ref_ms": (1000 * result["ref_seconds"], "ms"),
    }


def per_layer(result):
    layers = {name: tuple(v) for name, v in result["layers"].items()}
    traced = result["attempted"] / sum(result["latencies"])
    untraced = len(result["untraced_latencies"]) / sum(result["untraced_latencies"])
    layers["trace.ops_per_s_traced"] = (traced, "ops/s")
    layers["trace.ops_per_s_untraced"] = (untraced, "ops/s")
    layers["trace.overhead_pct"] = (100 * (untraced / traced - 1), "%")
    return layers


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns (result line dict, human-readable lines)."""
    if trace:
        result = run_worker(workload, seed, seconds, trace, False, WORKER_TIMEOUT_S)[1]
        metrics = per_layer(result)
    else:
        def setup_only():
            return run_worker(workload, seed, seconds, 0, True, WORKER_TIMEOUT_S)[0]

        setups = [setup_only() for _ in range(SETUPS_AROUND)]
        setup_s, result = run_worker(workload, seed, seconds, 0, False, WORKER_TIMEOUT_S)
        setups += [setup_s] + [setup_only() for _ in range(SETUPS_AROUND)]
        metrics = end_to_end(result, setups)
    attempted, failed = result["attempted"], result["failed"]
    samples = len(result["latencies"]) // result["rounds"]
    supported = highest_supported_percentile(samples)
    notes = [
        f"workload {workload}  seed {seed}  trace {trace}  ops {samples} x rounds "
        f"{result['rounds']} = {attempted} runs (latency samples: the {samples} ops' "
        f"medians over the rounds; highest percentile with ten beyond it: "
        f"{'p%d' % supported if supported else 'none'})",
        f"  fail_ratio = {failed / attempted:.6g} failed/attempted ({failed}/{attempted})",
    ]
    notes += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    if not trace:
        notes += [f"  (wall clock) {name} = {value:.6g} {unit}"
                  for name, (value, unit) in wall_clock(result).items()]
        notes.append(f"  (setup_s is the median of {len(setups)} set-ups)")
    notes += [f"  failure: {reason}" for reason in result["failures"]]
    notes.append("  inputs: " + json.dumps(result["inputs"], sort_keys=True))
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return line, notes


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for row in fh:
                if row.startswith("model name"):
                    model = row.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc {os.cpu_count()}, cpu {model}, python {platform.python_version()}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="funcon benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "funcon" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/funcon to benchmark", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print(machine(), file=sys.stderr)
    lines = {}
    try:
        for name in names:
            lines[name], notes = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(notes), file=sys.stderr if args.workload != "all" else sys.stdout,
                  flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()  # each worker removed its own directory
    if args.workload == "all":
        line = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}/{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
        }
    else:
        line = lines[args.workload]
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
