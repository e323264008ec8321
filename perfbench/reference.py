"""Reference implementations the benchmark checks the program's outputs
against.  Nothing here imports the package: each function follows the
defining formula with plain numpy and loops, and works on the samples the
benchmark generated rather than on what the program decoded.
"""

import math

import numpy as np

# Feature values may differ from the reference by summation order only.
FEATURE_RTOL = 1e-9
FEATURE_ATOL = 1e-9
# A stream decision may differ from the reference only on a margin this close
# to the speech/music tie.
MARGIN_TOL = 1e-9
LABELS = ("speech", "music")


def frame_geometry(rate, frame_ms=30.0, hop_ms=1.0):
    """(frame_len, hop): the frame is rounded to a sample and bumped to even."""
    frame_len = round(frame_ms * rate / 1000)
    frame_len += frame_len % 2
    return frame_len, max(1, round(hop_ms * rate / 1000))


def peak_matrix(samples, rate, p):
    """p x L peak-bin matrix: exact-length rfft of every frame, strict interior
    maxima, the p largest (amplitude ties to the lower bin), padded with the
    weakest chosen bin, each column sorted descending."""
    frame_len, hop = frame_geometry(rate)
    n_bins = frame_len // 2
    L = (samples.size - frame_len) // hop + 1
    out = np.zeros((p, L), np.int64)
    for l in range(L):
        mag = np.abs(np.fft.rfft(samples[l * hop : l * hop + frame_len]))[:n_bins]
        mid = mag[1:-1]
        ks = np.nonzero((mag[:-2] < mid) & (mid > mag[2:]))[0] + 1
        if ks.size == 0:
            continue
        chosen = [k for _, k in sorted(zip(-mag[ks], ks.tolist()))[:p]]
        chosen += [chosen[-1]] * (p - len(chosen))
        out[:, l] = sorted(chosen, reverse=True)
    return out


def _strict_maxima(a):
    return [k for k in range(1, len(a) - 1) if a[k - 1] < a[k] > a[k + 1]]


def features(S):
    """{kind: values} from a peak matrix S by the defining formulas."""
    p, L = S.shape
    cap = L // 2 if L % 2 == 0 else (L + 1) // 2
    mu = np.array([int(row.sum()) / L for row in S])
    C = S - mu[:, None]
    sps_p, zcr, sigma = [], [], []
    for r in range(p):
        a = np.correlate(C[r], C[r], "full")[L - 1 : L + cap] / L
        gaps = np.diff(_strict_maxima(a))
        sps_p.append(float(np.var(gaps)) if gaps.size >= 2 else 0.0)
        sgn = np.sign(C[r])
        zcr.append(np.abs(np.diff(sgn)).sum() / (2 * L))
        sigma.append(math.sqrt((C[r] ** 2).sum() / L))
    dmu = np.gradient(mu)
    out = {
        "sps_p": np.array(sps_p),
        "sps_zcr": np.array(zcr),
        "sps_scg": np.concatenate([mu, sigma, dmu]),
    }
    out["early_fused"] = np.concatenate([out["sps_p"], out["sps_zcr"], out["sps_scg"]])
    return out


def features_match(got, want):
    """True when every kind in want is present in got with matching values."""
    return all(
        kind in got
        and got[kind].shape == v.shape
        and np.allclose(got[kind], v, rtol=FEATURE_RTOL, atol=FEATURE_ATOL)
        for kind, v in want.items()
    )


def gmm_margin(params, x):
    """Speech-minus-music log posterior of one raw feature vector under
    params = {"mean", "std", label: (log_prior, weights, means, vars)}: a
    diagonal-covariance mixture per class on z-scored features."""
    z = (x - params["mean"]) / params["std"]
    post = {}
    for lab in LABELS:
        log_prior, w, m, v = params[lab]
        comp = [
            math.log(w[k])
            - 0.5 * (np.sum((z - m[k]) ** 2 / v[k]) + np.sum(np.log(v[k])) + z.size * math.log(2 * math.pi))
            for k in range(w.size)
        ]
        top = max(comp)
        post[lab] = top + math.log(sum(math.exp(c - top) for c in comp)) + log_prior
    return post["speech"] - post["music"]


def read_model_params(path):
    """Parse the plain-text model file the program wrote into gmm_margin's
    params.  The layout is the program's versioned text format."""
    lines = [l for l in open(path, encoding="utf-8").read().splitlines() if l.strip()]
    if lines[0] != "spsgmm v1":
        raise ValueError(f"{path}: unknown model format {lines[0]!r}")
    params, i, label = {}, 1, None
    while i < len(lines):
        head, _, rest = lines[i].partition(" ")
        if head in ("mean", "std") and label is None:
            params[head] = np.array(rest.split(), float)
        elif head == "class":
            label, fields = rest, {}
        elif head in ("log_prior", "weights"):
            fields[head] = np.array(rest.split(), float)
        elif head in ("means", "vars"):
            K = fields["weights"].size
            fields[head] = np.array([l.split() for l in lines[i + 1 : i + 1 + K]], float)
            i += K
            if head == "vars":
                params[label] = (
                    float(fields["log_prior"][0]),
                    fields["weights"],
                    fields["means"],
                    fields["vars"],
                )
        i += 1
    return params


def macro_f(cm):
    """Macro F1 of a 2x2 confusion matrix, rows true and columns predicted.
    A class absent from truth and predictions scores 1, one with no true
    positive but some errors scores 0."""
    fs = []
    for c in (0, 1):
        tp, fp, fn = int(cm[c][c]), int(cm[1 - c][c]), int(cm[c][1 - c])
        if tp + fp + fn == 0:
            fs.append(1.0)
        elif tp == 0:
            fs.append(0.0)
        else:
            fs.append(2 * tp / (2 * tp + fp + fn))
    return (fs[0] + fs[1]) / 2


def split_sizes(n_groups, frac):
    """(train, test) group counts of a per-class split: at least one group on
    each side."""
    n_tr = min(max(round(frac * n_groups), 1), n_groups - 1)
    return n_tr, n_groups - n_tr
