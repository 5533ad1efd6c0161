"""Run a workload once per seed and report how much each metric spreads.

    python3 perfbench/spread.py --workload extract --seeds 1 2 3 4 5 [--seconds 12]

Each run is `perfbench/run.py --trace 0` in its own process, one after the
other. For every end-to-end metric it prints the values, their median and
the quartile spread (Q3 - Q1) / median, with quartiles as
statistics.quantiles(n=4) gives them, next to the metric's bound from
BENCHMARK.json. A steady benchmark keeps each spread (setup_s aside) under a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and proc.returncode == 0 and result["correct"]
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        spread = stats.quartile_spread(vals) if len(vals) >= 2 and stats.median(vals) else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            "ok" if spread <= bound / 3 else "within bound" if spread <= bound else "TOO WIDE")
        print(f"{name}: median {stats.median(vals):.6g} spread {spread:.4f} "
              f"bound {bound} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
