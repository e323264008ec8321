"""Stage one: spectral peaks per frame and the peak-sequence matrix.

A peak is a strict interior local maximum of the magnitude spectrum.  Each
frame keeps its p most prominent peaks (largest amplitude, ties toward the
lower bin); frames with fewer than p peaks repeat the weakest selected peak's
bin to keep the matrix rectangular, and every column is sorted so row 0 holds
the highest frequencies.  Row r of the resulting p x L matrix, read across
frames, is one spectral peak sequence.

All frames of an interval are ranked at once, by one plain sort of integer
keys that order peaks by amplitude and then by lower bin; a frame whose
leading keys tie in their amplitude bits is ranked again by a stable argsort
of its full amplitudes.
"""

from dataclasses import dataclass

import numpy as np

from ._util import cells, csv_text
from .errors import InputError


@dataclass(frozen=True, eq=False)
class PeakSequenceMatrix:
    data: np.ndarray  # (p, L) int64 bin indices, columns non-increasing
    peakless_frames: int = 0  # diagnostic: frames that had no peak at all


def interior_maxima(v):
    """Mask over a 2-D array v: True where a value is above both neighbours
    in its row.  The first and last columns never qualify, so rows of fewer
    than 3 values have no maximum.  Each comparison is one pass over the
    flattened array, faster than one over row slices; the pairs that
    straddle two rows only decide those first and last columns, which are
    then cleared."""
    v = np.ascontiguousarray(v)
    mask = np.empty(v.shape, bool)
    flat, x = mask.reshape(-1), v.reshape(-1)
    np.greater(x[1:-1], x[:-2], out=flat[1:-1])
    flat[1:-1] &= x[1:-1] > x[2:]
    mask[:, :1] = False
    mask[:, -1:] = False
    return mask


def build_peak_matrix(mags, p):
    """Peak matrix for a whole interval from its (L, n_bins) magnitudes.

    All frames are ranked at once.  Each peak becomes one uint64 key: the
    order-preserving image of its amplitude whose low b bits are replaced by
    the tag n_bins - 1 - bin, so a larger key means a larger amplitude or,
    where the amplitude bits tie, the lower bin.  The keys are packed, in
    bin order, into one row per frame of an (L, most peaks in a frame) array
    whose empty slots read 0, and one plain sort per row ranks them.  Equal
    amplitude bits can hide amplitudes that differ in their low b bits, so a
    frame with such a tie among its first p + 1 keys is ranked again by a
    stable argsort of its full amplitudes."""
    mags = np.ascontiguousarray(mags, np.float64)
    if mags.ndim != 2:
        raise InputError(f"expected a 2-D magnitude array, got shape {mags.shape}")
    L, n_bins = mags.shape
    if L < 2:
        raise InputError(f"need at least 2 spectra, got {L}")
    if p < 1:
        raise InputError(f"p must be >= 1, got {p}")
    at = np.flatnonzero(interior_maxima(mags))  # frame * n_bins + bin, bins ascending
    counts = np.diff(np.searchsorted(at, np.arange(L + 1) * n_bins))  # peaks per frame
    amps = mags.reshape(-1)[at] + 0.0  # + 0.0 turns -0.0 into 0.0
    # flip the sign bit of a positive amplitude and every bit of a negative one
    s = amps.view(np.int64)
    keys = s ^ ((s >> 63) | np.iinfo(np.int64).min)
    b = (n_bins - 2).bit_length()  # the low bits hold the tag, at most n_bins - 2
    tag_bits = np.uint64((1 << b) - 1)
    keys &= -1 << b
    keys |= np.repeat(np.arange(1, L + 1) * n_bins - 1, counts) - at  # tag, at least 1
    width = max(int(counts.max()), 1)
    packed = np.zeros((L, width), np.uint64)  # empty slots read 0, below every key
    packed[np.arange(width) < counts[:, None]] = keys.view(np.uint64)
    packed.sort(axis=1)
    ranked = packed[:, ::-1]  # strongest first
    k = min(p + 1, width)
    top = np.zeros((L, p + 1), np.uint64)
    top[:, :k] = ranked[:, :k]
    high = top >> b
    tied = np.flatnonzero(((high[:, 1:] == high[:, :-1]) & (top[:, 1:] != 0)).any(axis=1))
    if tied.size:
        top[tied, :k] = _rank_exactly(mags, tied, ranked[tied], tag_bits)[:, :k]
    # slots past a frame's peak count repeat its weakest chosen peak
    chosen = top[:, :p]
    weakest = chosen[np.arange(L), np.clip(counts, 1, p) - 1]
    chosen = np.where(chosen == 0, weakest[:, None], chosen)
    tags = np.sort(chosen & tag_bits, axis=1)  # ascending tag: descending bin
    data = np.ascontiguousarray(tags.T, np.int64)
    np.subtract(n_bins - 1, data, out=data)
    peakless = counts == 0
    data[:, peakless] = 0  # a peakless frame's column reads 0
    return PeakSequenceMatrix(data=data, peakless_frames=int(np.count_nonzero(peakless)))


def _rank_exactly(mags, frames, keys, tag_bits):
    """Rows of descending keys, one per frame in `frames`, put in the order
    of a stable argsort of the frame's full negated amplitudes: strongest
    first, equal amplitudes keep their lower-bin-first order, empty slots
    (key 0) last."""
    bins = mags.shape[1] - 1 - (keys & tag_bits).astype(np.int64)
    neg = np.where(keys != 0, -mags[frames[:, None], bins], np.inf)
    return np.take_along_axis(keys, np.argsort(neg, axis=1, kind="stable"), axis=1)


def sps_csv(m):
    """CSV `row,frame,bin` for overlaying peak sequences on a spectrogram."""
    return csv_text(("row", "frame", "bin"), cells(m.data.tolist()))
