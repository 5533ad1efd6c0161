"""Per-layer metrics, computed from the spans of a traced run.

LAYER_METRICS names each metric with its unit and the end-to-end figure it
should move, on which workload. Times of audio layers (`dsp`, `features`)
are per 30 s of analysed audio, so 60 s recordings and 30 s segments are
comparable; other `_ms`/`_s` figures are the mean per call, over the traced
set-up and iterations alike. Counts and `<module>.self_s` are per iteration
(a pipeline pass, an extract command) and leave set-up out
(its spans have trace id -1). A layer the workload never reaches reads 0.
`<module>.self_s` is the time spent in that module's public functions minus
the time their traced callees cover, summed over all processes.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench import stats
from perfbench.tracing import JOB_SUFFIX, MAP_SPAN, MODULES

EXTRACTION = "extract_s, eval_s (pipeline); extract_s (extract)"

# feature family -> the public function that computes it
FAMILIES = {"zcr": "zcr_mean", "centroid": "spectral_centroid_mean",
            "bandwidth": "spectral_bandwidth_mean", "rolloff": "spectral_rolloff_mean",
            "rms": "rms_mean", "chroma": "chroma_mean", "mfcc": "mfcc_means"}

LAYER_METRICS = {
    "cli.synth_s": ("s", "setup_s (pipeline, extract)"),
    "cli.extract_s": ("s", "iter_ms_p50 (pipeline, extract)"),
    "cli.train_s": ("s", "iter_ms_p50 (pipeline); none on extract"),
    "cli.eval_s": ("s", "iter_ms_p50 (pipeline); none on extract"),
    "synth.sample_ms": ("ms", "setup_s (pipeline, extract)"),
    "synth.add_noise_ms": ("ms", "eval_s (pipeline)"),
    "audio_io.read_wav_calls": ("count", "eval_s (pipeline): 3 per file per pass today, "
                                         "1 in extract and 2 in eval"),
    "audio_io.read_wav_ms": ("ms", EXTRACTION),
    "audio_io.write_wav_ms": ("ms", "setup_s (pipeline, extract)"),
    "audio_io.resample_ms": ("ms", "none: about 0 on pipeline; a rise means needless resampling"),
    "dsp.stft_ms": ("ms", EXTRACTION),
    "dsp.stft_frames": ("count", EXTRACTION),
    "features.extract_ms": ("ms", EXTRACTION),
    **{f"features.{family}_ms": ("ms", EXTRACTION) for family in FAMILIES},
    "dataset.ingest_s": ("s", EXTRACTION),
    "dataset.jobs": ("count", EXTRACTION),
    "dataset.pool_efficiency": ("ratio", EXTRACTION),
    "dataset.csv_write_ms": ("ms", "extract_s (pipeline, extract)"),
    "dataset.csv_read_ms": ("ms", "train_s (pipeline)"),
    "mlp.steps": ("count", "train_s (pipeline); none on extract"),
    "mlp.fwd_bwd_ms": ("ms", "train_s (pipeline); none on extract"),
    "mlp.adam_ms": ("ms", "train_s (pipeline); none on extract"),
    "mlp.save_ms": ("ms", "train_s (pipeline); none on extract"),
    "mlp.load_ms": ("ms", "eval_s (pipeline); none on extract"),
    "mlp.model_bytes": ("bytes", "eval_s (pipeline); none on extract"),
    "evaluation.noise_validation_s": ("s", "eval_s (pipeline)"),
    "evaluation.evaluate_ms": ("ms", "eval_s (pipeline)"),
    **{f"{module}.self_s": ("s", "its module's share of the iteration") for module in MODULES},
    "trace.spans": ("count", "none: spans recorded per iteration"),
    "trace.overhead_s": ("s", "none: traced minus untraced iteration time"),
    "trace.overhead_pct": ("%", "none: overhead as a share of the untraced time"),
}


def layer_metrics(spans, iterations: int) -> dict[str, float]:
    """Every LAYER_METRICS value except the trace overhead, from the spans
    of a traced set-up and `iterations` traced iterations."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)
    measured = [span for span in spans if span.trace_id >= 0]

    def count(name):
        return sum(1 for s in measured if s.name == name)

    def total(name):
        return sum(s.seconds for s in by_name[name])

    def mean(name, scale=1.0):
        found = by_name[name]
        return scale * total(name) / len(found) if found else 0.0

    def per_iteration(n):
        return n / iterations

    def attr_sum(name, key, among=None):
        return sum(s.attrs.get(key, 0) for s in (by_name[name] if among is None else
                                                 [s for s in among if s.name == name]))

    def per_30s_ms(name, audio_s):
        return 1000.0 * 30.0 * total(name) / audio_s if audio_s else 0.0

    out = {
        "cli.synth_s": mean("bench.synth"),
        "cli.extract_s": mean("bench.extract"),
        "cli.train_s": mean("bench.train"),
        "cli.eval_s": mean("bench.eval"),
        "synth.sample_ms": mean("synth.synth_sample", 1000.0),
        "synth.add_noise_ms": mean("synth.add_noise", 1000.0),
        "audio_io.read_wav_calls": per_iteration(count("audio_io.read_wav")),
        "audio_io.read_wav_ms": mean("audio_io.read_wav", 1000.0),
        "audio_io.write_wav_ms": mean("audio_io.write_wav", 1000.0),
        "audio_io.resample_ms": mean("audio_io.resample_linear", 1000.0),
        "dsp.stft_ms": per_30s_ms("dsp.stft", attr_sum("dsp.stft", "audio_s")),
        "dsp.stft_frames": per_iteration(attr_sum("dsp.stft", "frames", measured)),
        "dataset.ingest_s": mean("dataset.ingest_corpus"),
        "dataset.csv_write_ms": mean("dataset.write_features_csv", 1000.0),
        "dataset.csv_read_ms": mean("dataset.read_features_csv", 1000.0),
        "mlp.adam_ms": mean("mlp.adam_step", 1000.0),
        "mlp.save_ms": mean("mlp.save_model", 1000.0),
        "mlp.load_ms": mean("mlp.load_model", 1000.0),
        "evaluation.noise_validation_s": mean("evaluation.noise_validation"),
        "evaluation.evaluate_ms": mean("evaluation.evaluate", 1000.0),
    }

    extracted_s = attr_sum("features.extract_features", "audio_s")
    out["features.extract_ms"] = per_30s_ms("features.extract_features", extracted_s)
    for family, function in FAMILIES.items():
        out[f"features.{family}_ms"] = per_30s_ms(f"features.{function}", extracted_s)

    jobs = [s for s in spans if s.name.endswith(JOB_SUFFIX)]
    maps = by_name[MAP_SPAN]
    out["dataset.jobs"] = per_iteration(sum(1 for s in jobs if s.trace_id >= 0))
    capacity = sum(s.seconds * s.attrs["workers"] for s in maps)
    out["dataset.pool_efficiency"] = (
        stats.pool_efficiency(sum(s.seconds for s in jobs), capacity, 1) if capacity else 0.0)

    steps = len(by_name["mlp.adam_step"])
    out["mlp.steps"] = per_iteration(count("mlp.adam_step"))
    # Everything a training step does besides Adam: batching, forward, loss
    # and backward, which run in private functions the tracer does not see.
    outside_adam = sum(s.seconds - sum(c.seconds for c in children[s.id]
                                       if c.name == "mlp.adam_step")
                       for s in by_name["mlp.train"])
    out["mlp.fwd_bwd_ms"] = 1000.0 * outside_adam / steps if steps else 0.0
    out["mlp.model_bytes"] = float(max((s.attrs.get("bytes", 0) for s in
                                        by_name["mlp.save_model"] + by_name["mlp.load_model"]),
                                       default=0))

    self_by_module = defaultdict(float)
    for span in measured:
        module = span.name.partition(".")[0]
        if module in MODULES:
            self_by_module[module] += stats.self_time(
                span.start, span.end, [(c.start, c.end) for c in children[span.id]])
    for module in MODULES:
        out[f"{module}.self_s"] = per_iteration(self_by_module[module])
    out["trace.spans"] = per_iteration(len(measured))
    return out
