"""Spectral peak sequence features and a GMM speech/music classifier.

The pipeline: decode audio into 1 s intervals, frame each interval
(30 ms / 1 ms by default), take the half-spectrum magnitude of every frame,
keep the p most prominent spectral peaks per frame as a p x L matrix of bin
indices, and summarize each row of that matrix into periodicity (sps_p),
zero-crossing (sps_zcr), and centroid-statistics (sps_scg) features.  A
diagonal-covariance GMM per class, with grid-searched component count,
classifies intervals as speech or music; the evaluation harness reruns
stratified 70:30 splits and reports macro-F statistics.
"""

from .audio_io import (
    AudioInterval,
    AudioSignal,
    ScanReport,
    decode_wav,
    load_intervals,
    scan_corpus,
    segment_intervals,
    write_wav,
)
from .classifier import (
    ClassScore,
    GmmModel,
    Rows,
    Standardizer,
    as_rows,
    fit_gmm,
    grid_search,
    late_fuse_score,
    load_model,
    model_from_text,
    model_to_text,
    save_model,
    score,
)
from .errors import ConfigError, DecodeError, FitError, InputError, SpsgmmError
from .evaluate import (
    EvalReport,
    TrialConfig,
    f_score,
    run_experiment,
    stratified_split,
)
from .pipeline import extract_corpus, extract_features
from .spectral import (
    FrameConfig,
    frame_interval,
    magnitude_spectra,
    make_frame_config,
)
from .sps_core import PeakSequenceMatrix, build_peak_matrix
from .sps_features import (
    FeatureVector,
    SpsAttributes,
    compute_attributes,
    early_fuse,
    feature_dim,
    sps_periodicity,
    sps_scg,
    sps_zcr,
)
from .synth import make_corpus

__version__ = "0.1.0"
