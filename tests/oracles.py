"""Independent reference implementations used to cross-check the package.

Everything in this file is a deliberately naive, literal transcription of the
defining formulas, written with plain Python numbers and loops.  Nothing here
imports from spsgmm and nothing uses numpy, so agreement between these
references and the fast implementations is meaningful evidence rather than a
tautology.  The exceptions are the last two sections: the per-component
mixture loops are numpy on purpose, because there the reference is a
summation order, not a formula, and the list-based grid search and the
interval-object split are the package's earlier code paths, which the array
paths must reproduce bit for bit.

The row statistics are exact: lagged sums, variances and centroids are formed
from Python integers and ``Fraction``, and rounded to float once at the end.
The package gets the same integers by other means (lagged sums by one FFT of
all rows, rounded to the nearest integer within a stated error bound; gap sums
by ``bincount`` over all rows) and promises the same correctly rounded values
as long as the integer autocorrelation sums stay below 2**52 (intervals up to
about 5 s at 22050 Hz with a 1 ms hop), so the test suite compares them for bit
equality.
"""

import cmath
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np


# ---------------------------------------------------------------------------
# peak picking

def detect_peaks(values):
    """Indices k of strict interior local maxima: v[k-1] < v[k] > v[k+1]."""
    vals = [float(v) for v in values]
    return [
        k
        for k in range(1, len(vals) - 1)
        if vals[k - 1] < vals[k] and vals[k] > vals[k + 1]
    ]


def select_prominent(bins, amps, p):
    """Top-p peak bins by amplitude (ties -> lower bin), padded with the bin
    of the weakest selected peak, then sorted descending."""
    if not bins:
        return [0] * p
    order = sorted(range(len(bins)), key=lambda i: (-amps[i], bins[i]))
    q = min(len(bins), p)
    chosen = [bins[order[i]] for i in range(q)]
    chosen = chosen + [chosen[q - 1]] * (p - q)
    return sorted(chosen, reverse=True)


def select_prominent_bruteforce(bins, amps, p):
    """Same rule, but the selected subset is found by materializing every
    q-subset of the peaks: maximize the amplitude multiset (sorted
    descending, compared lexicographically — same winner as maximizing the
    total, but exact in floating point), break ties toward the smallest bin
    tuple.  The pad peak is the last element of the chosen subset ordered by
    (amplitude desc, bin asc)."""
    if not bins:
        return [0] * p
    q = min(len(bins), p)
    best = None
    best_key = None
    for subset in itertools.combinations(range(len(bins)), q):
        key = (
            tuple(sorted(-amps[i] for i in subset)),
            tuple(sorted(bins[i] for i in subset)),
        )
        if best_key is None or key < best_key:
            best_key = key
            best = subset
    ordered = sorted(best, key=lambda i: (-amps[i], bins[i]))
    chosen = [bins[i] for i in ordered]
    chosen = chosen + [chosen[-1]] * (p - q)
    return sorted(chosen, reverse=True)


def build_matrix(spectra, p):
    """Peak-sequence matrix as a list of p rows, plus the count of frames in
    which no peak was found."""
    columns = []
    peakless = 0
    for spec in spectra:
        ks = detect_peaks(spec)
        if not ks:
            peakless += 1
        columns.append(select_prominent(ks, [float(spec[k]) for k in ks], p))
    rows = [[columns[l][r] for l in range(len(columns))] for r in range(p)]
    return rows, peakless


# ---------------------------------------------------------------------------
# SPS attributes and features

def lag_cap(L):
    return L // 2 if L % 2 == 0 else (L + 1) // 2


def exact_autocorr(row):
    """Biased autocorrelation (1/L) sum C[l] C[l+tau] of an integer row, as
    exact Fractions for lags 0..lag_cap(L).  With C = S - mean(S), every
    product is formed from L*C = L*S - sum(S), an integer."""
    L = len(row)
    total = sum(row)
    D = [L * s - total for s in row]
    return [
        Fraction(sum(D[l] * D[l + tau] for l in range(L - tau)), L**3)
        for tau in range(lag_cap(L) + 1)
    ]


def attributes(S):
    """(mu, C, A) for an integer matrix S given as a list of rows; A is the
    exact autocorrelation rounded once to float."""
    L = len(S[0])
    mu = [sum(row) / L for row in S]
    C = [[S[r][l] - mu[r] for l in range(L)] for r in range(len(S))]
    A = [[float(a) for a in exact_autocorr(row)] for row in S]
    return mu, C, A


def population_variance(xs):
    """Exact population variance of integers, rounded once to float."""
    n = len(xs)
    mean = Fraction(sum(xs), n)
    return float(sum((x - mean) ** 2 for x in xs) / n)


def sps_p(A):
    """Per-row variance of the gaps between interior maxima of the
    autocorrelation sequence; rows with fewer than two gaps give 0."""
    out = []
    for a in A:
        lags = detect_peaks(a)
        gaps = [lags[u] - lags[u - 1] for u in range(1, len(lags))]
        out.append(population_variance(gaps) if len(gaps) >= 2 else 0.0)
    return out


def _sgn(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def sps_zcr(C):
    """Zero-crossing rate of each centered row: (1/2L) sum |sgn d - sgn d'|."""
    out = []
    for row in C:
        L = len(row)
        count = sum(abs(_sgn(row[l]) - _sgn(row[l - 1])) for l in range(1, L))
        out.append(count / (2 * L))
    return out


def sps_scg(S):
    """[mu_0..mu_{p-1}, sigma_0..sigma_{p-1}, dmu_0..dmu_{p-1}]."""
    p = len(S)
    L = len(S[0])
    mu = [sum(row) / L for row in S]
    # square root of the correctly rounded population variance
    sigma = [math.sqrt(population_variance(row)) for row in S]
    dmu = [mu[1] - mu[0]]
    for r in range(1, p - 1):
        dmu.append((mu[r + 1] - mu[r - 1]) / 2)
    dmu.append(mu[p - 1] - mu[p - 2])
    return mu + sigma + dmu


# ---------------------------------------------------------------------------
# transforms and metrics

def naive_dft(x):
    """Full N-point DFT by direct summation."""
    N = len(x)
    return [
        sum(x[m] * cmath.exp(-2j * cmath.pi * k * m / N) for m in range(N))
        for k in range(N)
    ]


def macro_f(cm):
    """Macro F1 of a {true: {pred: count}} nested dict over two classes.

    Conventions: a class with no predicted and no actual positives scores 1;
    no true positives but some false positives/negatives scores 0.
    """
    classes = sorted(cm)
    fs = []
    for c in classes:
        tp = cm[c].get(c, 0)
        fp = sum(cm[o].get(c, 0) for o in classes if o != c)
        fn = sum(v for k, v in cm[c].items() if k != c)
        if tp == 0 and fp == 0 and fn == 0:
            fs.append(1.0)
        elif tp == 0:
            fs.append(0.0)
        else:
            prec = tp / (tp + fp)
            rec = tp / (tp + fn)
            fs.append(2 * prec * rec / (prec + rec))
    return sum(fs) / len(fs)


# ---------------------------------------------------------------------------
# diagonal mixture EM, one component at a time
#
# A literal transcription of the classifier's EM and log density as they were
# written before they handled a group of components, and both classes, per
# numpy call.  The vectorized code promises every bit of every model, margin
# and EM trace, so these keep numpy's summation order: pairwise along a
# contiguous row, in sequence down a column.  A mixture is anything with
# .weights, .means, .vars and .log_prior; fit_mixture_loop returns a
# SimpleNamespace.

_LOG2PI = math.log(2.0 * math.pi)


def log_densities_loop(X, mix):
    """(n, K) log N(x | m_k, diag v_k), one component per pass."""
    lv = np.log(mix.vars)
    out = np.empty((X.shape[0], mix.weights.size))
    for k in range(mix.weights.size):
        z = (X - mix.means[k]) ** 2 / mix.vars[k]
        out[:, k] = -0.5 * (z.sum(axis=1) + lv[k].sum() + X.shape[1] * _LOG2PI)
    return out


def _logsumexp(a, axis=-1):
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _estep(X, mix):
    logjoint = log_densities_loop(X, mix) + np.log(mix.weights)
    ll = _logsumexp(logjoint, axis=1)
    resp = np.exp(logjoint - ll[:, None])
    return resp, ll.mean()


def _farthest_point_init(X, K, rng):
    centers = [int(rng.integers(X.shape[0]))]
    if K > 1:
        d2 = ((X - X[centers[0]]) ** 2).sum(axis=1)
        for _ in range(K - 1):
            nxt = int(np.argmax(d2))
            centers.append(nxt)
            d2 = np.minimum(d2, ((X - X[nxt]) ** 2).sum(axis=1))
    return X[np.array(centers)].copy()


def fit_mixture_loop(X, K, rng, log_prior, max_iter=200, tol=1e-6):
    """(mixture, per-iteration mean log-likelihoods), one component per
    M-step pass."""
    n, d = X.shape
    floor = np.maximum(1e-6 * X.var(axis=0), 1e-12)
    mix = SimpleNamespace(
        weights=np.full(K, 1.0 / K),
        means=_farthest_point_init(X, K, rng),
        vars=np.maximum(np.tile(X.var(axis=0), (K, 1)), floor),
        log_prior=log_prior,
    )
    trace = []
    for _ in range(max_iter):
        resp, ll = _estep(X, mix)
        trace.append(ll)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-1])):
            break
        for k in range(K):
            r = resp[:, k]
            nk = r.sum() + 1e-300
            mean = (r[:, None] * X).sum(axis=0) / nk
            var = (r[:, None] * (X - mean) ** 2).sum(axis=0) / nk
            mix.weights[k] = nk / n
            mix.means[k] = mean
            mix.vars[k] = np.maximum(var, floor)
        mix.weights /= mix.weights.sum()
    return mix, trace


# ---------------------------------------------------------------------------
# grid search over lists of labelled vectors
#
# A literal copy of the classifier's grid search as it ran before it took
# (n, d) rows: every fit validates the vector list and stacks it per class,
# the inner 80:20 split moves vectors, and the confusion matrix is counted
# vector by vector.  The EM kernel is passed in (the package's
# _fit_mixtures), so a comparison covers everything around it; validation
# scores come from log_densities_loop and the metric from macro_f.  Vectors
# are anything with .kind, .values and .label.

LABELS = ("speech", "music")


def collect_list(train):
    """(kind, {label: (n, d) array}) of a labelled vector list."""
    if not train:
        raise ValueError("empty training set")
    kinds = {f.kind for f in train}
    if len(kinds) != 1:
        raise ValueError(f"mixed feature kinds in training set: {sorted(kinds)}")
    dims = {f.values.size for f in train}
    if len(dims) != 1:
        raise ValueError(f"mixed feature dimensions in training set: {sorted(dims)}")
    by_label = {}
    for f in train:
        if f.label not in LABELS:
            raise ValueError(f"unlabeled or unknown-label vector: {f.label!r}")
        by_label.setdefault(f.label, []).append(f.values)
    for label in LABELS:
        if label not in by_label:
            raise ValueError(f"class {label!r} has no training vectors")
    return kinds.pop(), {lab: np.stack(v) for lab, v in by_label.items()}


def split_list(items, frac, seed):
    """The protocol's stratified split at interval granularity, on a list."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label in LABELS:
        members = [f for f in items if f.label == label]
        keys = list(range(len(members)))
        n_tr = min(max(round(frac * len(keys)), 1), len(keys) - 1)
        perm = rng.permutation(len(keys))
        chosen = {keys[i] for i in perm[:n_tr]}
        train.extend(members[i] for i in sorted(chosen))
        test.extend(members[i] for i in sorted(set(keys) - chosen))
    return train, test


# The protocol's stratified split as it ran on interval objects, before it
# took label and group codes and returned row positions: a literal copy, with
# ValueError for the package's InputError.  Intervals are anything with
# .label and .source_id.

def _drawn(rng, m, frac):
    """Mask of the round(frac * m) of m keys drawn, at least 1 and at most m - 1."""
    mask = np.zeros(m, bool)
    mask[rng.permutation(m)[: min(max(round(frac * m), 1), m - 1)]] = True
    return mask


def stratified_split_intervals(intervals, frac, seed, unit="file"):
    """Split labeled intervals into (train, test), per class.  With
    unit='file' whole sources move together; per-class proportions land
    within one file of frac, and both sides keep at least one group."""
    if unit not in ("file", "interval"):
        raise ValueError("unit must be 'file' or 'interval'")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label in LABELS:
        members = [iv for iv in intervals if iv.label == label]
        if not members:
            raise ValueError(f"both classes must be present, got no {label!r} intervals")
        if unit == "file":
            keys = sorted({iv.source_id for iv in members})
            if len(keys) < 2:
                raise ValueError(f"class {label!r} has a single source file; file-level "
                                 "splitting needs >= 2 (try unit='interval')")
            drawn = dict(zip(keys, _drawn(rng, len(keys), frac).tolist()))
            picks = [drawn[iv.source_id] for iv in members]
        else:
            picks = _drawn(rng, len(members), frac).tolist()
        train.extend(iv for iv, pick in zip(members, picks) if pick)
        test.extend(iv for iv, pick in zip(members, picks) if not pick)
    return train, test


def fit_gmm_list(train, K, seed, fit_mixtures):
    """A model namespace with the fields model_to_text reads."""
    kind, data = collect_list(train)
    d = next(iter(data.values())).shape[1]
    for label in LABELS:
        if data[label].shape[0] < K * d:
            raise ValueError(f"class {label!r} has too few vectors for K={K}")
    pooled = np.concatenate([data[lab] for lab in LABELS])
    std = SimpleNamespace(mean=pooled.mean(axis=0), std=np.maximum(pooled.std(axis=0), 1e-8))
    rng = np.random.default_rng(seed)
    fits = fit_mixtures([(data[lab] - std.mean) / std.std for lab in LABELS], K, rng)
    classes = {
        lab: SimpleNamespace(
            weights=w, means=m, vars=v, log_prior=math.log(data[lab].shape[0] / pooled.shape[0])
        )
        for lab, (w, m, v, _) in zip(LABELS, fits)
    }
    trace = {lab: fit[3] for lab, fit in zip(LABELS, fits)}
    return SimpleNamespace(
        feature_kind=kind,
        dim=d,
        standardizer=std,
        classes=classes,
        train_meta={"seed": seed, "k_grid": [K], "chosen_k": K, "em_trace": trace},
    )


def decisions_list(model, vectors):
    """Bayes decision per vector, ties to speech."""
    x = (np.stack([f.values for f in vectors]) - model.standardizer.mean) / model.standardizer.std
    post = {
        lab: _logsumexp(log_densities_loop(x, mix) + np.log(mix.weights), axis=1) + mix.log_prior
        for lab, mix in model.classes.items()
    }
    return ["speech" if g >= 0 else "music" for g in (post["speech"] - post["music"]).tolist()]


def grid_search_list(train, grid, seed, fit_mixtures):
    """The grid-searched model namespace, its train_meta holding k_grid,
    chosen_k, validation_f, skipped and the refit's em_trace; ValueError
    when no K in the grid is feasible."""
    grid = list(grid)
    _, data = collect_list(train)
    d = next(iter(data.values())).shape[1]
    inner_train, inner_val = split_list(train, 0.8, seed)
    inner_counts = {lab: sum(1 for f in inner_train if f.label == lab) for lab in LABELS}
    best_k, best_f, skipped, validation = None, -1.0, [], {}
    for K in sorted(set(grid)):
        if any(inner_counts[lab] < K * d for lab in LABELS):
            skipped.append(K)
            continue
        model = fit_gmm_list(inner_train, K, seed, fit_mixtures)
        cm = {t: {} for t in LABELS}
        for f, pred in zip(inner_val, decisions_list(model, inner_val), strict=True):
            cm[f.label][pred] = cm[f.label].get(pred, 0) + 1
        validation[K] = macro_f(cm)
        if validation[K] > best_f:
            best_k, best_f = K, validation[K]
    if best_k is None:
        raise ValueError(f"no feasible K in grid {grid}")
    model = fit_gmm_list(train, best_k, seed, fit_mixtures)
    model.train_meta.update(
        {"k_grid": grid, "chosen_k": best_k, "validation_f": validation, "skipped": skipped}
    )
    return model
