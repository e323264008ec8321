"""Stage two: per-row statistics of the peak-sequence matrix.

Each row of the matrix is treated as a time series over frames.  All averages
use the population convention (1/L).  The statistics follow from exact integer
sums: with D = L*S - sum(S) (so that L*C = D), the biased autocorrelation is
A[tau] = R[tau] / L**3 with the integer R[tau] = sum_l D[l] * D[l + tau], and
the centroid, the standard deviation and the gap variance of sps_p are integer
ratios too.  Each value is the exact one, correctly rounded once.  While
R < 2**52 (every interval up to about 5 s at 22050 Hz with a 1 ms hop), that
rounding keeps the strict order of distinct R values, so the maxima sps_p finds
on the rounded autocorrelation are those of the exact one; beyond that point
they are found on correctly rounded values.
"""

from dataclasses import dataclass, field

import numpy as np

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
    source_id: str = ""
    interval_index: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown feature kind {self.kind!r}")
        if not np.isfinite(self.values).all():
            raise InputError(f"non-finite value in {self.kind} feature")


def lag_cap(L):
    return (L + 1) // 2


def _matrix_data(m):
    return m.data if isinstance(m, PeakSequenceMatrix) else np.asarray(m)


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
    # int64 holds every R, and float64 every lagged sum of products, exactly
    if L**3 * hi**2 >= 2**63 or L * hi**2 >= 2**53:
        raise InputError(
            f"peak matrix too large for exact autocorrelation: L = {L}, max bin = {hi}"
        )
    Si = S.astype(np.int64)
    Sf = S.astype(np.float64)
    T = Si.sum(axis=1)[:, None]
    mu = T[:, 0] / L
    C = Sf - mu[:, None]
    cap = lag_cap(L)
    tau = np.arange(cap + 1)
    # P[tau] = sum_l S[l] * S[l + tau]; integer partial sums below 2**53 are
    # exact in float64
    padded = np.zeros(L + cap)
    P = np.empty((S.shape[0], cap + 1), np.int64)
    for r, row in enumerate(Sf):
        padded[:L] = row
        P[r] = np.correlate(padded, row, "valid")
    cs = np.zeros((S.shape[0], L + 1), np.int64)
    np.cumsum(Si, axis=1, out=cs[:, 1:])
    head = cs[:, L - tau]  # sum of S[l] for l < L - tau
    tail = T - cs[:, tau]  # sum of S[l] for l >= tau
    # The products may wrap around in int64, but R itself is below 2**63 in
    # magnitude, so the wrapped terms cancel to the exact value.
    R = L * L * P - L * T * (head + tail) + (L - tau) * T * T
    return SpsAttributes(centroids=mu, centered=C, autocorr=R / L**3, lag_cap=cap)


def _provenance(kw):
    return {
        "label": kw.get("label"),
        "source_id": kw.get("source_id", ""),
        "interval_index": kw.get("interval_index", 0),
    }


def _gap_variance(a):
    """Population variance of the gaps between interior maxima of one
    autocorrelation row; fewer than two gaps count as perfectly periodic."""
    lags = np.nonzero(interior_maxima(a))[0] + 1
    if lags.size < 3:
        return 0.0
    gaps = np.diff(lags)
    n, s1, s2 = gaps.size, int(gaps.sum()), int((gaps * gaps).sum())
    return (n * s2 - s1 * s1) / (n * n)


def sps_periodicity(attrs, **kw):
    """V_r: variance of the spacing between autocorrelation peaks, one value
    per row.  Low values mean evenly spaced peaks, i.e. a periodic row."""
    vals = np.array([_gap_variance(a) for a in attrs.autocorr])
    return FeatureVector(kind="sps_p", values=vals, **_provenance(kw))


def sps_zcr(attrs, **kw):
    """Z_r = (1/2L) sum |sgn C[l] - sgn C[l-1]| per row, with sgn(0) = 0."""
    C = attrs.centered
    L = C.shape[1]
    s = np.sign(C)
    counts = np.abs(s[:, 1:] - s[:, :-1]).sum(axis=1)
    return FeatureVector(kind="sps_zcr", values=counts / (2 * L), **_provenance(kw))


def sps_scg(m, attrs, **kw):
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
    return FeatureVector(
        kind="sps_scg", values=np.concatenate([mu, sigma, dmu]), **_provenance(kw)
    )


def early_fuse(fp, fz, fs):
    """Concatenate [sps_p | sps_zcr | sps_scg] vectors of one interval."""
    got = (fp.kind, fz.kind, fs.kind)
    if got != BASE_KINDS:
        raise InputError(f"early_fuse expects kinds {BASE_KINDS}, got {got}")
    prov = {(f.source_id, f.interval_index) for f in (fp, fz, fs)}
    if len(prov) != 1:
        raise InputError(f"provenance mismatch in early_fuse: {sorted(prov)}")
    return FeatureVector(
        kind="early_fused",
        values=np.concatenate([fp.values, fz.values, fs.values]),
        label=fp.label,
        source_id=fp.source_id,
        interval_index=fp.interval_index,
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


def feature_csv_lines(vectors):
    """CSV `source_id,interval_index,label,kind,v0..v{d-1}` for a list of
    same-kind vectors."""
    if not vectors:
        raise InputError("no feature vectors to export")
    kinds = {f.kind for f in vectors}
    dims = {f.values.size for f in vectors}
    if len(kinds) > 1 or len(dims) > 1:
        raise InputError(f"mixed kinds/dims in one export: {kinds}, {dims}")
    d = dims.pop()
    header = ",".join(f"v{i}" for i in range(d))
    lines = [f"source_id,interval_index,label,kind,{header}"]
    for f in vectors:
        vals = ",".join(repr(float(v)) for v in f.values)
        lines.append(f"{f.source_id},{f.interval_index},{f.label or ''},{f.kind},{vals}")
    return lines
