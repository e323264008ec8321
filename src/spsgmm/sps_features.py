"""Stage two: per-row statistics of the peak-sequence matrix.

Each row of the matrix is treated as a time series over frames.  All averages
use the population convention (1/L).  The statistics follow from exact integer
sums: with D = L*S - sum(S) (so that L*C = D), the biased autocorrelation is
A[tau] = R[tau] / L**3 with the integer R[tau] = sum_l D[l] * D[l + tau], and
the centroid, the standard deviation and the gap variance of sps_p are integer
ratios too.  R needs the lagged sums P[tau] = sum_l S[l] * S[l + tau]: one FFT
of all rows gives them within a stated worst-case error below 1/4, so rounding
makes them exact.  Each value is the exact one, correctly rounded once.  While
R < 2**52 (every interval up to about 5 s at 22050 Hz with a 1 ms hop), that
rounding keeps the strict order of distinct R values, so the maxima sps_p finds
on the rounded autocorrelation are those of the exact one; beyond that point
they are found on correctly rounded values.

A FeatureVector holds a kind, its values and the interval's label, nothing
of the interval's identity: the feature cache keys each interval's vectors
by (source id, index), and feature_csv_lines reads those from the intervals.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from ._util import is_smooth
from .errors import ConfigError, InputError
from .sps_core import PeakSequenceMatrix, interior_maxima

BASE_KINDS = ("sps_p", "sps_zcr", "sps_scg")
KINDS = BASE_KINDS + ("early_fused",)


def feature_dim(kind, p):
    """Feature dimensionality by kind: p, p, 3p, 5p."""
    return {"sps_p": p, "sps_zcr": p, "sps_scg": 3 * p, "early_fused": 5 * p}[kind]


@dataclass(frozen=True, eq=False)
class SpsAttributes:
    centroids: np.ndarray  # mu_r, length p
    centered: np.ndarray  # C_r = S - mu, (p, L)
    autocorr: np.ndarray  # A_r, (p, lag_cap + 1)
    lag_cap: int


@dataclass(frozen=True, eq=False)
class FeatureVector:
    kind: str
    values: np.ndarray
    label: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown feature kind {self.kind!r}")
        if not np.isfinite(self.values).all():
            raise InputError(f"non-finite value in {self.kind} feature")


def lag_cap(L):
    return (L + 1) // 2


def _matrix_data(m):
    return m.data if isinstance(m, PeakSequenceMatrix) else np.asarray(m)


def _lagged_sum_error_bound(L, hi, n):
    """Worst-case |P^ - P| for lagged sums P of L values in [0, hi] computed
    through length-n FFTs: e * L * hi**2 * (3 + 4 * sqrt(L)).

    Each transform is taken to err by at most e = k / (1 - k) in the 2-norm,
    k = log2(n) * 8u with u = 2**-53: Higham's bound for the radix-2 FFT
    (Accuracy and Stability of Numerical Algorithms, 2nd ed., section 24.1,
    Theorem 24.2), where eta = mu + gamma_4 * (sqrt(2) + mu) < 8u for twiddle
    factors within mu <= 2u.  For a row x (||x||_2**2 <= L * hi**2,
    ||x||_1 <= L * hi) with X = F x, ||X||_2**2 = n * ||x||_2**2:
    - |X|**2 = X * conj(X) carries the error of both forward factors, and
      the squares and the sum add gamma_2, so its 1-norm error is at most
      (2e + e**2 + gamma_2 * (1 + e)**2) * n * ||x||_2**2 <= 3e * n * ||x||_2**2;
      the inverse DFT, whose entries are 1/n in modulus, passes at most
      3e * L * hi**2 of it to any lag.
    - the inverse transform and its 1/n scale err by at most 2e times the
      2-norm of its exact output, which is at most ||x||_1 * ||x||_2 plus the
      error above, <= 2 * L**1.5 * hi**2 since n <= 4L.
    At L = 9971 and hi = 661 (10 s at 44100 Hz with a 1 ms hop) the bound is
    0.022."""
    k = np.log2(n) * 8 * 2.0**-53
    return k / (1 - k) * L * hi**2 * (3 + 4 * np.sqrt(L))


def compute_attributes(m):
    """Centroid, centered rows, and biased autocorrelation up to the lag cap
    (L/2 for even L, (L+1)/2 for odd) of a matrix of non-negative integer
    bin indices."""
    S = _matrix_data(m)
    if S.ndim != 2 or S.shape[1] < 2:
        raise InputError(f"need a (p, L>=2) matrix, got shape {S.shape}")
    if not np.issubdtype(S.dtype, np.integer) or S.min(initial=0) < 0:
        raise InputError(f"need non-negative integer bin indices, got a {S.dtype} matrix")
    L = S.shape[1]
    hi = int(S.max(initial=0))
    cap = lag_cap(L)
    # the smallest FFT length >= L + cap that pocketfft transforms fastest
    n = next(n for n in itertools.count(L + cap) if is_smooth(n))
    # int64 holds every R exactly, and rint gives every P exactly
    if L**3 * hi**2 >= 2**63 or _lagged_sum_error_bound(L, hi, n) >= 0.25:
        raise InputError(
            f"peak matrix too large for exact autocorrelation: L = {L}, max bin = {hi}"
        )
    Si = S.astype(np.int64)
    Sf = S.astype(np.float64)
    T = Si.sum(axis=1)[:, None]
    mu = T[:, 0] / L
    C = Sf - mu[:, None]
    tau = np.arange(cap + 1)
    # P of every row from one FFT; zero padding to n >= L + cap stops wrap-around
    F = np.fft.rfft(Sf, n)
    P = np.rint(np.fft.irfft(F.real**2 + F.imag**2, n)[:, : cap + 1]).astype(np.int64)
    cs = np.zeros((S.shape[0], L + 1), np.int64)
    np.cumsum(Si, axis=1, out=cs[:, 1:])
    head = cs[:, L - tau]  # sum of S[l] for l < L - tau
    tail = T - cs[:, tau]  # sum of S[l] for l >= tau
    # The products may wrap around in int64, but R itself is below 2**63 in
    # magnitude, so the wrapped terms cancel to the exact value.
    R = L * L * P - L * T * (head + tail) + (L - tau) * T * T
    return SpsAttributes(centroids=mu, centered=C, autocorr=R / L**3, lag_cap=cap)


def sps_periodicity(attrs, label=None):
    """V_r: variance of the spacing between autocorrelation peaks, one value
    per row.  Low values mean evenly spaced peaks, i.e. a periodic row; rows
    with fewer than two gaps count as perfectly periodic."""
    p = attrs.autocorr.shape[0]
    rows, lags = np.nonzero(interior_maxima(attrs.autocorr))
    within = rows[1:] == rows[:-1]  # no gap spans two rows
    r, g = rows[1:][within], np.diff(lags)[within]
    n = np.bincount(r, minlength=p)
    s1, s2 = (np.bincount(r, w, minlength=p) for w in (g, g * g))
    # integer sums, exact in float64, so the one division rounds correctly
    vals = np.zeros(p)
    np.divide(n * s2 - s1 * s1, n * n, out=vals, where=n >= 2)
    return FeatureVector(kind="sps_p", values=vals, label=label)


def sps_zcr(attrs, label=None):
    """Z_r = (1/2L) sum |sgn C[l] - sgn C[l-1]| per row, with sgn(0) = 0."""
    C = attrs.centered
    L = C.shape[1]
    s = np.sign(C)
    counts = np.abs(s[:, 1:] - s[:, :-1]).sum(axis=1)
    return FeatureVector(kind="sps_zcr", values=counts / (2 * L), label=label)


def sps_scg(m, attrs, label=None):
    """[mu | sigma | dmu]: per-row centroid, population standard deviation,
    and centroid gradient across rows (central differences, one-sided at the
    ends)."""
    S = _matrix_data(m)
    p = S.shape[0]
    if p < 2:
        raise ConfigError(f"sps_scg needs p >= 2 rows, got {p}")
    mu = attrs.centroids
    sigma = np.sqrt(attrs.autocorr[:, 0])
    dmu = np.empty(p)
    dmu[0] = mu[1] - mu[0]
    dmu[1:-1] = (mu[2:] - mu[:-2]) / 2
    dmu[-1] = mu[-1] - mu[-2]
    return FeatureVector(kind="sps_scg", values=np.concatenate([mu, sigma, dmu]), label=label)


def early_fuse(fp, fz, fs):
    """Concatenate [sps_p | sps_zcr | sps_scg] vectors of one interval."""
    got = (fp.kind, fz.kind, fs.kind)
    if got != BASE_KINDS:
        raise InputError(f"early_fuse expects kinds {BASE_KINDS}, got {got}")
    return FeatureVector(
        kind="early_fused",
        values=np.concatenate([fp.values, fz.values, fs.values]),
        label=fp.label,
    )


def distribution_csv_lines(attrs_list, p):
    """Plot-data export: per-row ZCR histograms (20 bins over [0, 1)) and the
    per-interval-normalized mean autocorrelation per lag, both as
    `row,bin_or_lag,value` lines."""
    n_bins = 20
    zcr_rows = np.stack([sps_zcr(a).values for a in attrs_list])
    zcr_lines = ["row,bin_or_lag,value"]
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    for r in range(p):
        hist, _ = np.histogram(zcr_rows[:, r], bins=edges)
        for b in range(n_bins):
            zcr_lines.append(f"{r},{b},{hist[b]}")
    cap = min(a.lag_cap for a in attrs_list)
    acc = np.zeros((p, cap + 1))
    for a in attrs_list:
        A = a.autocorr[:, : cap + 1]
        a0 = np.where(A[:, :1] != 0, A[:, :1], 1.0)
        acc += A / a0
    acc /= len(attrs_list)
    ac_lines = ["row,bin_or_lag,value"]
    for r in range(p):
        for tau in range(cap + 1):
            ac_lines.append(f"{r},{tau},{float(acc[r, tau])!r}")
    return zcr_lines, ac_lines


def feature_csv_lines(intervals, vectors):
    """CSV `source_id,interval_index,label,kind,v0..v{d-1}`, one line per
    interval and its vector (same kind throughout), the ids read from the
    interval; the two lists must have the same length."""
    if not vectors:
        raise InputError("no feature vectors to export")
    kinds = {f.kind for f in vectors}
    dims = {f.values.size for f in vectors}
    if len(kinds) > 1 or len(dims) > 1:
        raise InputError(f"mixed kinds/dims in one export: {kinds}, {dims}")
    d = dims.pop()
    header = ",".join(f"v{i}" for i in range(d))
    lines = [f"source_id,interval_index,label,kind,{header}"]
    for iv, f in zip(intervals, vectors, strict=True):
        vals = ",".join(repr(float(v)) for v in f.values)
        lines.append(f"{iv.source_id},{iv.index},{f.label or ''},{f.kind},{vals}")
    return lines
