"""The benchmark's workloads and the checks on what they produce.

Every workload drives wrice through `wrice.cli.run([...])` in this process
(pool workers are the program's own) and reads results back through public
module functions. A workload has a set-up, which writes its inputs and which the run repeats
(at least SETUP_REPEATS times) and times as `setup_s`, and an iteration,
which the run repeats for the measured seconds:

Both workloads set up with README step 1, `wrice synth` of a 14-file corpus
of 30 s recordings. An iteration is

- pipeline: steps 2-4, extract -> train -> eval with noise, on that corpus;
- extract: step 2 alone, `wrice extract` of that corpus.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import inputs, stats

# The end-to-end metrics every workload reports (BENCHMARK.json end_to_end).
END_TO_END = ("setup_s", "iter_ms_p50", "peak_rss_mb", "success_ratio")
# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_SECONDS have
# been spent on it, so a set-up made fast is still timed often enough for
# its median to hold still.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
# A model trained on the 10 training rows of the 14-file corpus misses 1-2
# of the 14 files for about a third of seeds (measured on subsets of real
# features), short of the paper's 0.95. The floor only catches a broken
# pipeline, and the noise accuracies may rise by one recording (sampling
# noise) but not more.
PIPELINE_ACCURACY_MIN = 0.5
GOLDEN_RTOL = 1e-9


@dataclass
class Op:
    """One timed CLI command or request."""

    name: str
    seconds: float
    ok: bool


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int, workers: int):
        self.cli = importlib.import_module("wrice.cli")
        self.audio_io = importlib.import_module("wrice.audio_io")
        self.dataset = importlib.import_module("wrice.dataset")
        self.features = importlib.import_module("wrice.features")
        self.mlp = importlib.import_module("wrice.mlp")
        self.workdir = workdir
        self.seed = seed
        self.workers = workers
        self.reference = inputs.load_reference()
        self.inputs: Path | None = None
        self.synth_times: list[float] = []

    # -- set-up ---------------------------------------------------------------

    def run_setups(self, tracer=None) -> list[float]:
        """Set up from scratch repeatedly and keep the last set-up. The first
        one runs traced when a tracer is given (trace id -1)."""
        times: list[float] = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_SECONDS:
            dest = self.workdir / f"setup{len(times)}"
            traced = tracer is not None and not times
            start = time.perf_counter()
            dest.mkdir(parents=True)
            if traced:
                tracer.trace_id = -1
                with tracer.installed(), tracer.span("bench.setup"):
                    self.setup(dest, tracer)
            else:
                self.setup(dest)
            times.append(time.perf_counter() - start)
            if self.inputs is not None:
                shutil.rmtree(self.inputs)
            self.inputs = dest
        return times

    def setup(self, dest: Path, tracer=None) -> None:
        """README step 1: synthesise the corpus under dest."""
        op, _ = self.run_cli(["synth", "--out", dest / "corpus", "--seed", self.seed,
                              "--counts", ",".join(map(str, inputs.CORPUS_COUNTS))], tracer)
        if not op.ok:
            raise RuntimeError("set-up command failed: wrice synth")
        self.synth_times.append(op.seconds)

    # -- measurement ----------------------------------------------------------

    def iteration(self, k: int, tracer=None) -> list[Op]:
        """Run the k-th unit of work; `tracer` is set on traced iterations."""
        raise NotImplementedError

    def run_cli(self, args: list[str], tracer=None) -> tuple[Op, str]:
        args = [str(a) for a in args]
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    code = self.cli.run(args)
                else:
                    with tracer.span(f"bench.{args[0]}"):
                        code = self.cli.run(args)
        except Exception:
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
        if code != 0:
            print(f"wrice {' '.join(args)} exited {code}:\n{out.getvalue()}", file=sys.stderr)
        return Op(args[0], seconds, code == 0), out.getvalue()

    # -- results --------------------------------------------------------------

    def figures(self, iterations: list[list[Op]]) -> dict[str, tuple[float, str]]:
        """The workload's own figures, by the names the README workflow uses,
        from the untraced iterations that fully succeeded."""
        raise NotImplementedError

    def checks(self) -> list[Check]:
        raise NotImplementedError

    def detail(self) -> dict:
        return {"files": sum(inputs.CORPUS_COUNTS)}

    def feature_rows_check(self, path: Path) -> Check:
        """One finite 26-value row per corpus file, labelled with the class
        directory the file sits in."""
        rows = self.dataset.read_features_csv(path)
        n_files = sum(inputs.CORPUS_COUNTS)
        mislabelled = [src for src, label in zip(rows.source_paths, rows.labels)
                       if Path(src).parent.name != rows.label_map[label]]
        ok = (rows.n == n_files and rows.features.shape[1] == len(self.features.feature_names())
              and bool(np.isfinite(rows.features).all()) and not mislabelled)
        return Check("feature_rows", ok, f"{rows.n} rows of {rows.features.shape[1]} "
                     f"for {n_files} files; mislabelled: {mislabelled}")

    def golden_check(self) -> Check:
        """extract_features on seeded test signals against stored 26-vectors."""
        worst = 0.0
        for entry in self.reference["golden"]:
            buf = self.audio_io.AudioBuffer(inputs.golden_buffer(entry["seed"]), 22050)
            got = self.features.extract_features(buf).values
            want = np.array(entry["values"])
            if got.shape != want.shape:
                return Check("golden_features", False, f"shape {got.shape} != {want.shape}")
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
        return Check("golden_features", worst <= GOLDEN_RTOL,
                     f"max relative difference {worst:.3g} (limit {GOLDEN_RTOL:g})")

    def round_trip_check(self, model_path: Path) -> Check:
        """load_model(save_model(m)) must give bit-identical forward output."""
        model = self.mlp.load_model(model_path)
        copy = self.workdir / "round_trip.wrice"
        self.mlp.save_model(model, copy)
        again = self.mlp.load_model(copy)
        x = np.random.default_rng([self.seed, 5]).standard_normal((64, model.n_inputs))
        same = np.array_equal(self.mlp.forward(model, x), self.mlp.forward(again, x))
        copy.unlink()
        return Check("model_round_trip", bool(same), "forward outputs bit-identical"
                     if same else "forward outputs differ after save/load")


def _median_of(iterations, pick) -> float:
    return stats.median([pick(ops) for ops in iterations])


class Pipeline(Workload):
    name = "pipeline"
    STEPS = ("extract", "train", "eval")

    def iteration(self, k, tracer=None):
        d = self.inputs / "pass"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
        corpus, feats, model, report = (self.inputs / "corpus", d / "features.csv",
                                        d / "model.wrice", d / "report.json")
        steps = [
            ["extract", "--in", corpus, "--out", feats, "--workers", self.workers],
            ["train", "--features", feats, "--out", model, "--seed", self.seed],
            ["eval", "--model", model, "--in", corpus, "--noise", inputs.NOISE_SCALES,
             "--seed", self.seed, "--json", report, "--workers", self.workers],
        ]
        ops = []
        for args in steps:
            op, _ = self.run_cli(args, tracer)
            ops.append(op)
            if not op.ok:
                break
        return ops

    def figures(self, iterations):
        done = [ops for ops in iterations if len(ops) == len(self.STEPS)
                and all(op.ok for op in ops)]
        if not done:
            return {}
        synth_s = stats.median(self.synth_times)
        metrics = {"synth_s": (synth_s, "s")}
        metrics.update({f"{step}_s": (_median_of(done, lambda ops, i=i: ops[i].seconds), "s")
                        for i, step in enumerate(self.STEPS)})
        metrics["pipeline_s"] = (
            synth_s + _median_of(done, lambda ops: sum(op.seconds for op in ops)), "s")
        return metrics

    def checks(self):
        d = self.inputs / "pass"
        doc = json.loads((d / "report.json").read_text())
        clean = doc["clean"]["accuracy"]
        noisy = sorted((entry["noise_scale"], entry["accuracy"]) for entry in doc["noise"])
        self._accuracies = {"clean": clean, **{f"noise_{s:g}": a for s, a in noisy}}
        n_files = sum(inputs.CORPUS_COUNTS)
        rising = [f"{a:g}@{s:g} -> {b:g}@{t:g}"
                  for (s, a), (t, b) in zip(noisy, noisy[1:]) if b > a + 1.0 / n_files + 1e-9]
        return [
            Check("clean_accuracy", clean >= PIPELINE_ACCURACY_MIN,
                  f"accuracy {clean:.4f} (minimum {PIPELINE_ACCURACY_MIN})"),
            Check("noise_accuracy_not_rising", not rising and len(noisy) == 3,
                  "; ".join(rising) or f"{noisy}"),
            self.feature_rows_check(d / "features.csv"),
            self.round_trip_check(d / "model.wrice"),
            self.golden_check(),
        ]

    def detail(self):
        return {**super().detail(), "accuracy": getattr(self, "_accuracies", None)}


class Extract(Workload):
    name = "extract"

    def iteration(self, k, tracer=None):
        out = self.inputs / f"features{min(k, 1)}.csv"
        op, _ = self.run_cli(["extract", "--in", self.inputs / "corpus", "--out", out,
                              "--workers", self.workers], tracer)
        return [op]

    def figures(self, iterations):
        done = [ops for ops in iterations if ops[0].ok]
        if not done:
            return {}
        return {"synth_s": (stats.median(self.synth_times), "s"),
                "extract_s": (_median_of(done, lambda ops: ops[0].seconds), "s")}

    def checks(self):
        first, last = (self.inputs / f"features{i}.csv" for i in (0, 1))
        same = not last.exists() or first.read_bytes() == last.read_bytes()
        return [
            self.feature_rows_check(first),
            Check("extract_deterministic", same,
                  "every extract wrote the same CSV" if same
                  else "the last extract wrote another CSV than the first"),
            self.golden_check(),
        ]


WORKLOADS = {cls.name: cls for cls in (Pipeline, Extract)}
