"""Wheel-rail rolling-noise analysis: features, classifier, synthetic corpus."""

from .audio_io import AudioBuffer, read_wav, write_wav
from .dataset import (DEFAULT_SAMPLE_RATE, DEFAULT_SEGMENT_SECONDS, Extraction,
                      LabeledDataset, Scaler, corpus_rows, file_rows,
                      fit_scaler, ingest_corpus, read_extraction, read_features_csv,
                      scale_rows, stratified_split, write_features_csv)
from .dsp import StftConfig, frame_signal, hann_window
from .errors import (ClassTooSmallError, CorruptModelError, DuplicateLabelError,
                     EmptyCorpusError, MalformedWavError, NonFiniteError,
                     SchemaMismatchError, UnsupportedEncodingError,
                     VersionMismatchError, WriceError)
from .evaluation import EvalReport, evaluate, noise_validation
from .features import (FeatureConfig, FeatureVector, bandwidths, centroids, chroma_projector,
                       chromas, extract_features, feature_names, mel_filterbank,
                       mel_projector, mfccs, rms, rolloffs, zcr)
from .mlp import (AdamState, MlpModel, TrainConfig, TrainHistory, adam_step, forward,
                  init_model, layer_dims_for, load_model, loss_sparse_ce, predict, save_model,
                  softmax, train)
from .synth import ConditionSpec, spec_for_category, synth_corpus, synth_sample

__version__ = "0.1.0"
