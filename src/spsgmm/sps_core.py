"""Stage one: spectral peaks per frame and the peak-sequence matrix.

A peak is a strict interior local maximum of the magnitude spectrum.  Each
frame keeps its p most prominent peaks (largest amplitude, ties toward the
lower bin); frames with fewer than p peaks repeat the weakest selected peak's
bin to keep the matrix rectangular, and every column is sorted so row 0 holds
the highest frequencies.  Row r of the resulting p x L matrix, read across
frames, is one spectral peak sequence.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True, eq=False)
class PeakSet:
    bins: np.ndarray  # ascending int64 bin indices
    amplitudes: np.ndarray  # matching magnitudes


@dataclass(frozen=True, eq=False)
class PeakSequenceMatrix:
    data: np.ndarray  # (p, L) int64 bin indices, columns non-increasing
    p: int
    L: int
    n_f: int
    peakless_frames: int = 0  # diagnostic: frames that had no peak at all


def interior_maxima(v):
    """Mask over v[..., 1:-1]: True where a value is above both neighbours
    along the last axis.  Endpoints never qualify, so fewer than 3 values give
    an empty mask."""
    mid = v[..., 1:-1]
    return (mid > v[..., :-2]) & (mid > v[..., 2:])


def detect_peaks(values):
    """Strict interior local maxima of a sequence.  Endpoints never qualify;
    sequences shorter than 3 return an empty set (documented degenerate
    case, not an error)."""
    v = np.asarray(values, np.float64)
    ks = np.nonzero(interior_maxima(v))[0] + 1
    return PeakSet(bins=ks.astype(np.int64), amplitudes=v[ks])


def select_prominent(peaks, p):
    """Length-p column of bin indices: the top-p peaks by amplitude (ties
    prefer the lower bin), padded by repeating the weakest selected peak's
    bin, sorted descending.  A peakless frame yields the all-zeros column."""
    if p < 1:
        raise InputError(f"p must be >= 1, got {p}")
    n = peaks.bins.size
    if n == 0:
        return np.zeros(p, np.int64)
    order = np.argsort(-peaks.amplitudes, kind="stable")
    q = min(n, p)
    chosen = peaks.bins[order[:q]]
    if q < p:
        chosen = np.concatenate([chosen, np.full(p - q, chosen[q - 1])])
    return np.sort(chosen)[::-1]


def build_peak_matrix(mags, p):
    """Peak matrix for a whole interval from its (L, n_bins) magnitudes."""
    mags = np.ascontiguousarray(mags, np.float64)
    if mags.ndim != 2:
        raise InputError(f"expected a 2-D magnitude array, got shape {mags.shape}")
    L, n_bins = mags.shape
    if L < 2:
        raise InputError(f"need at least 2 spectra, got {L}")
    if p < 1:
        raise InputError(f"p must be >= 1, got {p}")
    data = np.zeros((p, L), np.int64)
    peakless = 0
    is_peak = interior_maxima(mags)
    for l in range(L):
        ks = np.nonzero(is_peak[l])[0] + 1
        if ks.size == 0:
            peakless += 1
            continue
        order = np.argsort(-mags[l, ks], kind="stable")
        q = min(ks.size, p)
        chosen = ks[order[:q]]
        if q < p:
            chosen = np.concatenate([chosen, np.full(p - q, chosen[q - 1])])
        data[:, l] = np.sort(chosen)[::-1]
    return PeakSequenceMatrix(data=data, p=p, L=L, n_f=n_bins, peakless_frames=peakless)


def sps_csv_lines(m):
    """CSV lines `row,frame,bin` for overlaying peak sequences on a
    spectrogram."""
    lines = ["row,frame,bin"]
    for r in range(m.p):
        row = m.data[r]
        for l in range(m.L):
            lines.append(f"{r},{l},{row[l]}")
    return lines
