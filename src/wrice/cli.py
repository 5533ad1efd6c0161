"""Command-line entry point: synth, extract, train, eval, predict, augment,
spectrogram.

Exit codes: 0 success, 1 domain error (bad data, schema mismatch, I/O),
2 usage error. All randomness is controlled by --seed; identical command
lines produce identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from . import evaluation, mlp, synth
from .audio_io import AudioBuffer, WavReader, resampled_length, write_wav
from .dsp import WINDOW, BlockSpectra, StftConfig, block_spans
from .errors import WriceError

_LOG_FLOOR_DB = -80.0  # PGM dynamic range floor below the spectrogram peak
_DEFAULTS = ds_mod.Extraction()
_TRAINING = mlp.TrainConfig()


def _add_stft_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sr", type=int, default=_DEFAULTS.sample_rate,
                        help="analysis sample rate in Hz (default %(default)s)")
    parser.add_argument("--frame", type=int, default=_DEFAULTS.stft.frame_len,
                        help="frame length in samples, power of two (default %(default)s)")
    parser.add_argument("--hop", type=int, default=_DEFAULTS.stft.hop,
                        help="hop between frames in samples (default %(default)s)")


def _int_at_least(low: int):
    """The argparse type of a flag whose value is an integer of at least `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_int_at_least(1), default=None,
                        help="parallel worker processes (default: the CPUs this "
                             "process may run on)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrice",
        description="Rolling-noise feature extraction and adhesion-condition classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--out", required=True, help="corpus root directory")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--sr", type=int, default=ds_mod.DEFAULT_SAMPLE_RATE)
    p.add_argument("--duration", type=float, default=synth.DEFAULT_DURATION_S,
                   help="seconds per file (default %(default)s)")
    counts = ",".join(str(synth.DEFAULT_COUNTS[c]) for c in synth.CATEGORIES)
    p.add_argument("--counts", default=None,
                   help="per-category file counts, comma-separated in sorted "
                        f"category order (default {counts})")
    _add_workers_flag(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", help="extract feature rows from a corpus into CSV")
    p.add_argument("--in", dest="in_path", required=True, help="corpus root directory")
    p.add_argument("--out", required=True, help="output feature CSV")
    _add_stft_flags(p)
    p.add_argument("--segment-seconds", type=float, default=_DEFAULTS.segment_seconds,
                   help="analysis segment length (default %(default)s)")
    _add_workers_flag(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train the classifier and save a model file")
    p.add_argument("--features", required=True,
                   help="feature CSV from `extract`; its `#` meta sets the model's extraction")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--epochs", type=int, default=_TRAINING.epochs)
    p.add_argument("--batch", type=int, default=_TRAINING.batch_size)
    p.add_argument("--lr", type=float, default=_TRAINING.learning_rate)
    p.add_argument("--seed", type=_int_at_least(0), default=_TRAINING.seed)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--arch", choices=sorted(mlp.ARCHITECTURES), default="paper4")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a corpus, optionally under noise")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="in_path", required=True, help="corpus root directory")
    p.add_argument("--noise", default=None,
                   help="comma-separated noise scales, e.g. 0.5,0.05,0.005")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--json", dest="json_path", default=None,
                   help="also write a machine-readable report here")
    _add_workers_flag(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="classify one WAV file")
    p.add_argument("--model", required=True)
    p.add_argument("wav", help="input WAV file")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("augment", help="write noisy copies of a WAV or corpus")
    p.add_argument("--in", dest="in_path", required=True, help="WAV file or corpus root")
    p.add_argument("--out", required=True, help="output file or directory")
    p.add_argument("--scale", type=float, required=True, help="noise scale")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("spectrogram", help="dump a magnitude spectrogram as CSV or PGM")
    p.add_argument("--in", dest="in_path", required=True, help="input WAV file")
    p.add_argument("--out", required=True,
                   help="output path: PGM if it ends in .pgm (any case), else CSV")
    _add_stft_flags(p)
    p.set_defaults(func=_cmd_spectrogram)

    return parser


def _parse_list(text: str, convert, flag: str, kind: str) -> list:
    """The comma-separated entries of a flag's value, each through `convert`;
    ValueError naming the flag and the first entry that does not parse."""
    values = []
    for entry in text.split(","):
        try:
            values.append(convert(entry))
        except ValueError:
            raise ValueError(f"{flag} {text!r}: entry {entry!r} is not {kind}") from None
    return values


def _cmd_synth(args) -> int:
    counts = None
    if args.counts is not None:
        values = _parse_list(args.counts, int, "--counts", "an integer")
        if len(values) != len(synth.CATEGORIES):
            raise ValueError(f"--counts needs {len(synth.CATEGORIES)} values "
                             f"for {synth.CATEGORIES}")
        counts = dict(zip(synth.CATEGORIES, values))
    manifest = synth.synth_corpus(args.out, counts=counts, sample_rate=args.sr,
                                  seed=args.seed, workers=args.workers,
                                  duration_s=args.duration)
    print(f"wrote {len(manifest)} files under {args.out}")
    return 0


def _cmd_extract(args) -> int:
    ex = ds_mod.Extraction(args.sr, args.segment_seconds, StftConfig(args.frame, args.hop))
    ds_mod.check_csv_labels(ds_mod.corpus_labels(args.in_path), args.out)
    ds = ds_mod.ingest_corpus(args.in_path, ex, workers=args.workers)
    ds_mod.write_features_csv(ds, args.out)
    print(f"wrote {ds.n} rows x {ds.features.shape[1]} features to {args.out}")
    return 0


def _cmd_train(args) -> int:
    data = ds_mod.read_features_csv(args.features)
    train_set, test_set = ds_mod.stratified_split(data, args.test_fraction, args.seed)
    dims = mlp.layer_dims_for(args.arch, data.features.shape[1], len(data.label_map))
    model = mlp.init_model(dims, seed=args.seed, scaler=ds_mod.fit_scaler(train_set),
                           label_map=list(data.label_map), extraction=data.extraction)
    cfg = mlp.TrainConfig(epochs=args.epochs, batch_size=args.batch,
                          learning_rate=args.lr, seed=args.seed)
    model, history = mlp.train(model, train_set, cfg)
    if history.loss:
        print(f"trained {args.epochs} epochs: loss {history.loss[-1]:.4f} "
              f"accuracy {history.accuracy[-1]:.4f} ({train_set.n} rows)")
    report = evaluation.evaluate(model, test_set)
    print(evaluation.format_report(report).replace("clean", "test", 1))
    mlp.save_model(model, args.out)
    print(f"saved model to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    scales = [] if args.noise is None else _parse_list(args.noise, float, "--noise", "a number")
    model = mlp.load_model(args.model)
    # clean goes last so each noise scale keeps its index, hence its realization
    *noisy, clean = evaluation.noise_validation(model, args.in_path, [*scales, None],
                                                seed=args.seed, workers=args.workers)
    for report in (clean, *noisy):
        print(evaluation.format_report(report))
    if args.json_path:
        configs = {"model": str(args.model), "corpus": str(args.in_path),
                   "sample_rate": model.extraction.sample_rate, "layer_dims": model.layer_dims}
        doc = evaluation.report_document(clean, noisy, seed=args.seed, configs=configs)
        evaluation.write_report(doc, args.json_path)
        print(f"wrote report to {args.json_path}")
    return 0


def _cmd_predict(args) -> int:
    model = mlp.load_model(args.model)
    # the per-file job of extract and eval, so the file is segmented like training
    [rows] = ds_mod.file_rows(args.wav, model.extraction)
    label, probs = mlp.predict(model, rows)
    print(label)
    for name, p in zip(model.label_map, probs):
        print(f"  {name}: {p:.6f}")
    if len(rows) > 1:
        for i, row in enumerate(rows):
            seg_label, seg_probs = mlp.predict(model, row)
            print(f"segment {i}: {seg_label} "
                  + " ".join(f"{name}={p:.6f}" for name, p in zip(model.label_map, seg_probs)))
    return 0


def _augment_file(src, target, scale: float, rng) -> None:
    """Write `src` plus `scale` times the draws of the generator `rng` to
    `target` as 16-bit PCM: the noise kernel that `file_rows` runs, on the
    mono samples that its `WavReader` decodes."""
    with WavReader(src) as wav:
        clean, rate = wav.read(0, wav.frames), wav.sample_rate
    noisy = np.empty(clean.size)
    ds_mod.add_noise_into(noisy, clean, scale, rng)
    write_wav(target, AudioBuffer(noisy, rate))


def _cmd_augment(args) -> int:
    ds_mod.check_noise_scale(args.scale)
    src = Path(args.in_path)
    out = Path(args.out)
    if out.resolve() == src.resolve():
        raise ValueError(f"--out {out} is --in {src}: augment would overwrite its input")
    if src.is_dir() and src.resolve() in out.resolve().parents:
        raise ValueError(f"--out {out} lies inside the --in corpus {src}: "
                         "augment would write into its input")
    if src.is_dir():
        _, pairs = ds_mod.corpus_files(src)
        targets = [out / category / path.name for path, category in pairs]
        ds_mod.check_no_stale_wavs(targets)
        for file_idx, ((path, _), target) in enumerate(zip(pairs, targets)):
            target.parent.mkdir(parents=True, exist_ok=True)
            _augment_file(path, target, args.scale, ds_mod.noise_rng(args.seed, 0, file_idx))
        with open(out / "manifest.csv", "w", newline="") as fh:
            fh.write(f"# wrice-augment scale={args.scale} seed={args.seed} source={src}\n")
            writer = csv.writer(fh)
            writer.writerow(["path", "category"])
            writer.writerows((str(target), category)
                             for target, (_, category) in zip(targets, pairs))
        print(f"wrote {len(targets)} noisy files under {out}")
    else:
        _augment_file(src, out, args.scale, np.random.default_rng(args.seed))
        print(f"wrote {out}")
    return 0


def _cmd_spectrogram(args) -> int:
    cfg = StftConfig(args.frame, args.hop)
    if args.sr <= 0:
        raise ValueError(f"--sr must be a positive sample rate, got {args.sr}")
    meta = (f"sr={args.sr} frame={args.frame} hop={args.hop} "
            f"window={WINDOW} source={args.in_path}")
    with WavReader(args.in_path) as wav:
        n = resampled_length(wav.frames, wav.sample_rate, args.sr)
        try:
            spans = block_spans(n, cfg)
        except ValueError as exc:  # a file shorter than one frame
            raise ValueError(f"{args.in_path}: {exc}") from exc
        spectra = BlockSpectra(cfg)

        def blocks():
            """Each block's magnitudes, its samples read and resampled as
            `file_rows` reads them; the array is reused by the next block."""
            for start, stop in spans:
                yield spectra(wav.read_resampled(args.sr, start, stop))[1]

        n_frames, n_bins = cfg.n_frames(n), cfg.frame_len // 2 + 1
        if str(args.out).lower().endswith(".pgm"):
            _write_pgm(blocks, (n_frames, n_bins), args.out, meta)
        else:
            _write_csv(blocks, args.out, meta, np.arange(n_bins) * (args.sr / cfg.frame_len))
    print(f"wrote {n_frames}x{n_bins} spectrogram to {args.out}")
    return 0


def _write_csv(blocks, path, meta: str, bin_freqs: np.ndarray) -> None:
    """The magnitudes as text, one frame per row, written as `blocks()`
    yields them."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# wrice-spectrogram {meta}\n")
        writer = csv.writer(fh)
        writer.writerow([format(f, ".17g") for f in bin_freqs])
        for magnitudes in blocks():
            for row in magnitudes:
                writer.writerow([format(v, ".17g") for v in row])


def _write_pgm(blocks, shape: tuple[int, int], path, meta: str) -> None:
    """8-bit binary PGM, log-scaled with a -80 dB floor, low bins at the bottom.

    `blocks()` yields the magnitudes of a (frames, bins) `shape` a block of
    frames at a time; a first pass over them finds the peak, and a second
    fills the image, so only the image and one block are held."""
    peak = max(magnitudes.max() for magnitudes in blocks())
    floor = _LOG_FLOOR_DB
    image = np.zeros(shape[::-1], dtype=np.uint8)  # rows = bins, cols = frames
    if peak > 0:
        first = 0
        for magnitudes in blocks():
            db = 20.0 * np.log10(np.maximum(magnitudes / peak, 10.0 ** (floor / 20.0)))
            levels = (db - floor) / -floor
            last = first + len(magnitudes)
            image[::-1, first:last] = np.rint(levels * 255).astype(np.uint8).T
            first = last
    header = f"P5\n# wrice-spectrogram {meta}\n{shape[0]} {shape[1]}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(image)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (WriceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
