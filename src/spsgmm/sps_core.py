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


def build_peak_matrix(mags, p):
    """Peak matrix for a whole interval from its (L, n_bins) magnitudes.

    All frames are ranked at once: each frame's peaks are packed, in bin
    order, into one row of an (L, most peaks in a frame) array, and one
    stable argsort per row puts the strongest first and, among equal
    amplitudes, the lower bin first."""
    mags = np.ascontiguousarray(mags, np.float64)
    if mags.ndim != 2:
        raise InputError(f"expected a 2-D magnitude array, got shape {mags.shape}")
    L, n_bins = mags.shape
    if L < 2:
        raise InputError(f"need at least 2 spectra, got {L}")
    if p < 1:
        raise InputError(f"p must be >= 1, got {p}")
    is_peak = interior_maxima(mags)
    # one flat nonzero and a divmod are faster than the 2-D nonzero
    rows, ks = np.divmod(np.flatnonzero(is_peak), is_peak.shape[1])
    ks += 1  # mask column -> bin
    counts = np.bincount(rows, minlength=L)
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]  # index within its frame
    width = max(int(counts.max()), 1)
    # a peak exceeds a neighbour, so its negated amplitude is below inf: pads sort last
    neg = np.full((L, width), np.inf)
    neg[rows, slot] = -mags[rows, ks]
    bins = np.zeros((L, width), np.int64)  # pads read 0, a peakless frame's bin
    bins[rows, slot] = ks
    order = np.argsort(neg, axis=1, kind="stable")[:, :p]
    # slots past a frame's peak count repeat its weakest chosen peak
    take = np.minimum(np.arange(p), np.clip(counts, 1, p)[:, None] - 1)
    chosen = np.take_along_axis(bins, np.take_along_axis(order, take, axis=1), axis=1)
    data = np.ascontiguousarray(np.sort(chosen, axis=1)[:, ::-1].T)
    peakless = int(np.count_nonzero(counts == 0))
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
