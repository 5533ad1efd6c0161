"""Tests of the benchmark's own arithmetic, inputs and tracing.

    python3 -m pytest perfbench
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from perfbench import env, inputs, layers, stats
from perfbench.tracing import MAP_SPAN, Span, Tracer

env.import_wrice()

from wrice import cli, dataset, dsp, synth  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class TestSpread:
    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        # quantiles(n=4): 11.75, 14.5, 17.25
        assert stats.quartile_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)

    def test_median(self):
        assert stats.median([3, 1, 2, 10]) == 2.5


class TestSelfTime:
    def test_no_children(self):
        assert stats.self_time(0.0, 10.0, []) == 10.0

    def test_overlapping_children_count_once(self):
        assert stats.self_time(0.0, 10.0, [(1, 3), (2, 5), (7, 8)]) == pytest.approx(5.0)

    def test_children_are_clipped_to_the_span(self):
        assert stats.self_time(0.0, 10.0, [(-2, 1), (9, 12)]) == pytest.approx(8.0)

    def test_nested_and_touching_children(self):
        assert stats.self_time(0.0, 10.0, [(1, 6), (2, 3), (6, 7)]) == pytest.approx(4.0)


class TestPoolEfficiency:
    def test_busy_share_of_capacity(self):
        assert stats.pool_efficiency(8.0, 5.0, 2) == pytest.approx(0.8)

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError):
            stats.pool_efficiency(1.0, 0.0, 2)


class TestInputs:
    def test_corpus_repeats_per_seed(self, tmp_path):
        def corpus(seed, name):
            root = tmp_path / name
            assert cli.run(["synth", "--out", str(root), "--seed", str(seed),
                            "--duration", "0.5", "--counts", "1,1,1,1"]) == 0
            return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*.wav"))}

        a, b, c = corpus(3, "a"), corpus(3, "b"), corpus(4, "c")
        assert len(a) == 4 and a == b
        assert a.keys() == c.keys() and a != c

    def test_golden_buffer_repeats_per_seed(self):
        assert np.array_equal(inputs.golden_buffer(1), inputs.golden_buffer(1))
        assert not np.array_equal(inputs.golden_buffer(1), inputs.golden_buffer(2))

    def test_corpus_counts_follow_the_default_mix(self):
        scaled = [round(n / 16) for n in synth.DEFAULT_COUNTS.values()]
        assert list(inputs.CORPUS_COUNTS) == scaled


def _span(span_id, name, start, end, parent=None, **attrs):
    return Span(span_id, name, start, end, parent, 1, 0, attrs)


class TestLayerMetrics:
    def test_pool_efficiency_and_jobs_from_spans(self):
        spans = [_span("m", MAP_SPAN, 0.0, 5.0, workers=2),
                 _span("j1", "dataset.job", 0.5, 4.5, "m"),
                 _span("j2", "dataset.job", 0.5, 4.5, "m")]
        out = layers.layer_metrics(spans, iterations=1)
        assert out["dataset.pool_efficiency"] == pytest.approx(0.8)
        assert out["dataset.jobs"] == 2

    def test_fwd_bwd_is_train_time_outside_adam_per_step(self):
        spans = [_span("t", "mlp.train", 0.0, 1.0),
                 _span("a1", "mlp.adam_step", 0.1, 0.3, "t"),
                 _span("a2", "mlp.adam_step", 0.5, 0.7, "t")]
        out = layers.layer_metrics(spans, iterations=1)
        assert out["mlp.steps"] == 2
        assert out["mlp.adam_ms"] == pytest.approx(200.0)
        assert out["mlp.fwd_bwd_ms"] == pytest.approx(300.0)

    def test_audio_layers_are_per_30_seconds_of_audio(self):
        spans = [_span("e", "features.extract_features", 0.0, 1.0, audio_s=60.0),
                 _span("s", "dsp.stft", 0.0, 0.4, "e", audio_s=60.0, frames=2576)]
        out = layers.layer_metrics(spans, iterations=2)
        assert out["features.extract_ms"] == pytest.approx(500.0)
        assert out["dsp.stft_ms"] == pytest.approx(200.0)
        assert out["dsp.stft_frames"] == 1288
        assert out["features.self_s"] == pytest.approx(0.3)

    def test_set_up_spans_count_in_means_but_not_per_iteration(self):
        setup = Span("s", "audio_io.read_wav", 0.0, 0.3, None, 1, -1, {})
        spans = [setup, _span("r", "audio_io.read_wav", 1.0, 1.1)]
        out = layers.layer_metrics(spans, iterations=1)
        assert out["audio_io.read_wav_calls"] == 1
        assert out["audio_io.read_wav_ms"] == pytest.approx(200.0)
        assert out["audio_io.self_s"] == pytest.approx(0.1)

    def test_unreached_layers_read_zero(self):
        out = layers.layer_metrics([], iterations=1)
        assert out["audio_io.resample_ms"] == 0.0 and out["mlp.steps"] == 0.0


def _job(n):
    return dsp.hann_window(n).size


class TestTracer:
    def test_install_wraps_cross_module_names_and_uninstall_restores(self):
        original = dataset.read_wav
        tracer = Tracer()
        with tracer.installed():
            assert dataset.read_wav is not original
            assert dsp.hann_window(4).size == 4
        assert dataset.read_wav is original
        assert [s.name for s in tracer.spans] == ["dsp.hann_window"]

    def test_pool_workers_send_their_spans_back(self):
        tracer = Tracer()
        with tracer.installed():
            assert dataset.map_per_file(_job, [8, 16, 32, 64], 2) == [8, 16, 32, 64]
        (map_span,) = [s for s in tracer.spans if s.name == MAP_SPAN]
        jobs = [s for s in tracer.spans if s.name.endswith(".job")]
        windows = [s for s in tracer.spans if s.name == "dsp.hann_window"]
        assert len(jobs) == 4 and len(windows) == 4
        assert all(j.parent == map_span.id for j in jobs)
        assert {w.parent for w in windows} == {j.id for j in jobs}
        assert all(j.pid != os.getpid() for j in jobs)
        assert map_span.attrs == {"jobs": 4, "workers": 2}


def test_scrub_blas_env_unsets_and_reports(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert env.scrub_blas_env() == {"OPENBLAS_NUM_THREADS": "1"}
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_metric_lists_match_benchmark_json():
    from perfbench.workloads import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == [(name, unit) for name, (unit, _) in layers.LAYER_METRICS.items()])
