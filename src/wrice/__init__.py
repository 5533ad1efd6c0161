"""Wheel-rail rolling-noise analysis: features, classifier, synthetic corpus."""

from .audio_io import (AudioBuffer, WavInfo, read_wav, resample_linear, segment,
                       to_mono, write_wav)
from .dataset import (DEFAULT_SAMPLE_RATE, DEFAULT_SEGMENT_SECONDS, LabeledDataset,
                      Scaler, apply_scaler, encode_labels, fit_scaler, ingest_corpus,
                      read_features_csv, scale_rows, stratified_split,
                      write_features_csv)
from .dsp import Spectrogram, StftConfig, fft, frame_signal, hann_window, rfft, stft
from .errors import (ClassTooSmallError, CorruptModelError, DuplicateLabelError,
                     EmptyCorpusError, MalformedWavError, NonFiniteError,
                     SchemaMismatchError, UnsupportedEncodingError,
                     VersionMismatchError, WriceError)
from .evaluation import EvalReport, evaluate, noise_validation
from .features import (FeatureConfig, FeatureVector, chroma_mean, extract_features,
                       feature_names, mel_filterbank, mfcc_means, rms_mean,
                       spectral_bandwidth_mean, spectral_centroid_mean,
                       spectral_rolloff_mean, zcr_mean)
from .mlp import (AdamState, MlpModel, TrainConfig, TrainHistory, adam_step, backward,
                  forward, init_model, load_model, loss_sparse_ce, predict, save_model,
                  softmax, train)
from .synth import ConditionSpec, add_noise, spec_for_category, synth_corpus, synth_sample

__version__ = "0.1.0"
