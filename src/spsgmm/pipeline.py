"""Feature extraction, the one module that knows the stage order and the
cache layout: interval -> frames -> spectra -> peak matrix -> features.
`vectors_of` reads one kind back, for `classifier.as_rows` to stack."""

from .errors import ConfigError
from .sps_core import build_peak_matrix
from .sps_features import (
    BASE_KINDS,
    compute_attributes,
    early_fuse,
    sps_periodicity,
    sps_scg,
    sps_zcr,
)
from .spectral import frame_interval, magnitude_spectra, make_frame_config


def analyze(interval, *, frame_ms=30.0, hop_ms=1.0, window="rect", p=20):
    """(magnitude spectra, peak matrix, attributes) of one interval, which
    must hold two frames, since peaks are followed from frame to frame."""
    cfg = make_frame_config(interval.sample_rate, frame_ms, hop_ms, window)
    if len(interval.data) < cfg.frame_len + cfg.hop:
        raise ConfigError(
            f"{interval.source_id} interval {interval.index}: {len(interval.data)} samples "
            f"at {interval.sample_rate} Hz, but two {cfg.frame_len}-sample frames {cfg.hop} "
            f"apart need {cfg.frame_len + cfg.hop}; lengthen the interval or shorten the "
            "frame or the hop"
        )
    mags = magnitude_spectra(frame_interval(interval, cfg), cfg)
    m = build_peak_matrix(mags, p)
    return mags, m, compute_attributes(m.data)


def check_p(p):
    """Refuse a p that feature extraction cannot use."""
    if p < 2:
        raise ConfigError(
            f"p must be >= 2 to extract features, got {p}: the centroid "
            "gradient of sps_scg compares neighbouring peak rows"
        )


def extract_features(interval, *, frame_ms=30.0, hop_ms=1.0, window="rect", p=20):
    """All four feature vectors of one interval, plus the peakless-frame
    diagnostic count, as ({kind: FeatureVector}, peakless)."""
    check_p(p)
    _, m, attrs = analyze(interval, frame_ms=frame_ms, hop_ms=hop_ms, window=window, p=p)
    fp = sps_periodicity(attrs, interval.label)
    fz = sps_zcr(attrs, interval.label)
    fs = sps_scg(attrs, interval.label)
    vectors = {
        "sps_p": fp,
        "sps_zcr": fz,
        "sps_scg": fs,
        "early_fused": early_fuse(fp, fz, fs),
    }
    return vectors, m.peakless_frames


def extract_corpus(intervals, *, frame_ms=30.0, hop_ms=1.0, window="rect", p=20):
    """Feature cache for a whole corpus, read back with vectors_of, and
    aggregate diagnostics."""
    cache = {}
    peakless = 0
    for iv in intervals:
        vectors, pl = extract_features(
            iv, frame_ms=frame_ms, hop_ms=hop_ms, window=window, p=p
        )
        cache[(iv.source_id, iv.index)] = vectors
        peakless += pl
    return cache, {"peakless_frames": peakless, "n_intervals": len(intervals)}


def vectors_of(cache, intervals, kind):
    """The cached vectors of one kind, in the order of the intervals."""
    return [cache[(iv.source_id, iv.index)][kind] for iv in intervals]
