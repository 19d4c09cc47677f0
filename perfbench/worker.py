"""One workload in one fresh interpreter: one process, one thread.

Prints ``READY <monotonic time>`` when set-up (import, input generation and
warm-up) is done.  The workload's seeded ops are then run in rounds, every
round the same ops in the same order, until the workload's number of rounds
is done and the summed op latency has reached ``--seconds``.  Every run of
every op is checked.  Between ops the reference work is timed
(reference.py), and one JSON line reports each op's median latency over the
rounds, in seconds and in refs.  With ``--trace 1`` the ops run under the
span tracer, each followed or preceded by an untraced run on the same state,
to measure the tracer's overhead; one round is then enough, and the
reference work is not timed.
"""

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from reference import RefClock
from tracer import CHECK_OP, MODULES, Tracer, layer_metrics
from workloads import WORKLOADS


def load_funcon(root: Path):
    """Import funcon from the checkout's own src/, never an installed copy."""
    src = root / "src"
    if not (src / "funcon" / "__init__.py").is_file():
        raise SystemExit(f"no funcon sources under {src}")
    sys.path.insert(0, str(src))
    funcon = importlib.import_module("funcon")
    if Path(funcon.__file__).resolve().parent != (src / "funcon").resolve():
        raise SystemExit(f"imported funcon from {funcon.__file__}, expected {src}")
    for name in MODULES:
        importlib.import_module("funcon." + name)
    return funcon


def timed(workload, op):
    """((start, end), result, failure reason or None) of one timed call."""
    started = time.perf_counter()
    try:
        result = workload.run(op)
    except Exception as exc:  # a failed op is counted and the loop goes on
        return (started, time.perf_counter()), None, f"{type(exc).__name__}: {exc}"
    return (started, time.perf_counter()), result, None


def run_round(workload, ops, clock=None, tracer=None, first_op_id=0):
    """Run ops back to back and check each, timing the reference work on
    clock, if given, between them; returns ((start, end) spans, failure
    reasons, untraced latencies), the first two aligned with ops and a
    reason None for an op that passed.  Under a tracer every op runs twice,
    traced and untraced in alternating order with the workload's state
    restored in between, so drift in machine speed cancels out of the
    overhead figure; spans carry the op's id, first_op_id + its index."""
    spans, failures, untraced = [], [], []
    for index, op in enumerate(ops):
        workload.prepare(op)
        if clock is not None:
            clock.tick()
        if tracer is None:
            span, result, reason = timed(workload, op)
        else:
            state = workload.snapshot()
            for turn, traced in enumerate((True, False) if index % 2 else (False, True)):
                if turn:
                    workload.restore(state)
                if traced:
                    tracer.op = first_op_id + index
                    with tracer:
                        span, result, reason = timed(workload, op)
                else:
                    start, end = timed(workload, op)[0]
                    untraced.append(end - start)
        spans.append(span)
        if reason is None:
            if tracer is not None:
                tracer.op = CHECK_OP
            with tracer or contextlib.nullcontext():
                try:
                    reason = workload.check(op, result)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
        failures.append(reason or None)
    if clock is not None:
        clock.tick(force=True)
    return spans, failures, untraced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--root", required=True, help="checkout root holding src/funcon")
    p.add_argument("--workdir", required=True, help="scratch directory, removed at exit")
    args = p.parse_args(argv)

    root, workdir = Path(args.root), Path(args.workdir)
    funcon = load_funcon(root)
    workdir.mkdir(parents=True)
    try:
        tracer = Tracer() if args.trace else None
        with tracer or contextlib.nullcontext():
            workload = WORKLOADS[args.workload](funcon, args.seed, workdir, tracer)
            workload.warm_up()
        print(f"READY {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0

        ops = workload.build_ops()
        rounds = 1 if tracer is not None else workload.ROUNDS
        clock = RefClock() if tracer is None else None
        spans, failures, untraced = [], [], []
        failed_ops = set()
        while len(spans) < rounds * len(ops) or sum(e - s for s, e in spans) < args.seconds:
            workload.begin_round(len(spans) // len(ops))
            span, fail, base = run_round(workload, ops, clock, tracer, len(spans))
            spans += span
            untraced += base
            failed_ops |= {i for i, reason in enumerate(fail) if reason}
            failures += [reason for reason in fail if reason]
        latencies = [end - start for start, end in spans]
        n = len(ops)  # entry r * n + i is round r's run of op i

        def per_op(values):
            return [statistics.median(values[i::n]) for i in range(n)]

        out = {
            "attempted": len(latencies),
            "failed": len(failures),
            "failed_ops": len(failed_ops),
            "failures": failures[:20],
            "latencies": latencies,
            "rounds": len(latencies) // len(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "inputs": workload.props,
        }
        if clock is not None:
            out["op_seconds"] = per_op(latencies)
            out["op_refs"] = per_op([clock.in_refs(start, end) for start, end in spans])
            out["ref_seconds"] = clock.ref_seconds()
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, sum(latencies), len(latencies))
            out["untraced_latencies"] = untraced
            tracer.write(root / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
