"""Run one wrice benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline|extract --seed N \\
        --seconds S --trace 0|1

Run from anywhere inside a checkout; the program under test is the checkout's
src/wrice. The run sets its workload up several times, then repeats the
workload's iteration for about S seconds, stopping at the iteration boundary
nearest to S, then checks the outputs.

Standard output: a JSON line with the environment, the workload's detail and
every check; one `name value unit` line per figure; and, last, the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, from untraced iterations. With --trace 1 every
iteration runs twice on the same input, once untraced and once traced, and
the metrics are the per-layer ones from the traced runs (and from the first
set-up, which also runs traced) plus the tracing overhead; the spans are
written to .perfbench_work/.

Exit status: 0 when every command and check succeeded; 1 when any
failed; 2 when the checkout has no program to run.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402

# Before numpy is imported anywhere: the program runs with the BLAS thread
# defaults of a plain shell, whatever the caller's shell set.
REMOVED_BLAS_ENV = env.scrub_blas_env()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from perfbench import layers, stats, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

WORK_DIR = env.ROOT / ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child (a
    pool worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(workload, seconds: float, tracer):
    """Repeat the workload's iteration; returns (untraced, traced) op lists.

    Traced mode runs each iteration twice on the same input, alternating
    which of the two goes first, so the pair gives the tracing overhead.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    k = 0
    while True:
        if tracer is None:
            untraced.append(workload.iteration(k))
        else:
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.trace_id = k
                    with tracer.installed(), tracer.span("bench.iteration"):
                        traced.append(workload.iteration(k, tracer))
                else:
                    untraced.append(workload.iteration(k))
        k += 1
        elapsed = time.perf_counter() - start
        # stop at the iteration boundary nearest to `seconds`
        if elapsed + elapsed / k / 2 >= seconds:
            return untraced, traced


def end_to_end_metrics(untraced, setup_times):
    """setup_s and the median wall time of a whole iteration (a pipeline
    pass, an extract command)."""
    done = [ops for ops in untraced if ops and all(op.ok for op in ops)]
    if not done:
        return {}
    iteration_ms = [1000.0 * sum(op.seconds for op in ops) for ops in done]
    return {"setup_s": (stats.median(setup_times), "s"),
            "iter_ms_p50": (stats.median(iteration_ms), "ms")}


def trace_overhead(untraced, traced):
    pairs = [(sum(op.seconds for op in a), sum(op.seconds for op in b))
             for a, b in zip(untraced, traced)]
    overhead = stats.median([b - a for a, b in pairs])
    base = stats.median([a for a, _ in pairs])
    return {"trace.overhead_s": overhead, "trace.overhead_pct": 100.0 * overhead / base}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.import_wrice()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=WORK_DIR))
    try:
        workers = env.worker_count()
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed, workers)
        tracer = Tracer() if args.trace else None
        setup_times = workload.run_setups(tracer)
        untraced, traced = measure(workload, args.seconds, tracer)
        ops = [op for ops in untraced + traced for op in ops]
        try:
            checks = workload.checks()
        except Exception:
            traceback.print_exc()
            checks = [workloads.Check("checks_ran", False, "a check raised; see stderr")]
        attempted = len(ops) + len(checks)
        failed = sum(not op.ok for op in ops) + sum(not c.ok for c in checks)

        figures = workload.figures(untraced)
        figures["failed_ratio"] = (failed / attempted, "ratio")
        trace_path = None
        if args.trace:
            values = layers.layer_metrics(tracer.spans, len(traced))
            values.update(trace_overhead(untraced, traced))
            metrics = {name: (values[name], unit)
                       for name, (unit, _) in layers.LAYER_METRICS.items()}
            trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
        else:
            metrics = end_to_end_metrics(untraced, setup_times)
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
            metrics["success_ratio"] = (1.0 - failed / attempted, "ratio")

        info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "trace_file": trace_path and str(trace_path),
                "environment": env.environment(REMOVED_BLAS_ENV, workers),
                "setup_runs_s": setup_times, "iterations": len(untraced),
                "iteration_s": [sum(op.seconds for op in ops) for ops in untraced],
                "detail": workload.detail(),
                "checks": [vars(c) for c in checks]}
        print(json.dumps(info, default=str))
        for name, (value, unit) in {**figures, **metrics}.items():
            print(f"{name} {value:.6g} {unit}")
        complete = bool(metrics) and all(name in metrics for name in (
            [*layers.LAYER_METRICS] if args.trace else workloads.END_TO_END))
        result = {"correct": failed == 0 and complete, "attempted": attempted,
                  "failed": failed,
                  "metrics": {name: {"value": value, "unit": unit}
                              for name, (value, unit) in metrics.items()}}
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
