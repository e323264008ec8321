"""Two-class Gaussian-mixture classifier on feature rows.

Fitting and scoring take `Rows` (a feature kind, an (n, d) table, label
codes), which `as_rows` stacks from FeatureVectors; `score` also takes one
vector.  Per class, a diagonal-covariance mixture is fit by EM on z-scored
features (statistics from the training rows only; a Rows sorts and z-scores
its classes once, so the fits of one grid search share them).  Means are
initialized by farthest-point seeding from one seeded generator, speech
first, every M-step floors the variances, and the whole fit is
deterministic given the seed.

EM works on a stack of same-shape problems, (B, n, d), a group of components
per numpy call.  The two classes share one stack when they have the same
number of rows and a (2, n, 1, d) temporary fits BUDGET; otherwise each runs
alone (B = 1) through the same loop.  At those sizes a step costs its numpy
calls more than its arithmetic, so one shared step costs much less than two.
A problem leaves the stack in the iteration where it converges.  Every
reduction keeps the axis and memory layout of the one-class,
one-component-at-a-time loop, so neither stacking nor grouping changes a bit
of any model, EM trace or score.  Scoring stacks the two classes by the same
rule when their component counts agree.

The component count is grid-searched by macro-F on a stratified 80:20 split
of the training rows, drawn by the evaluation protocol's splitter with each
row its own group; that splitter and that metric are kept here so that
`evaluate` builds on this module and not the other way round.

Decision rule: argmax of class log-likelihood plus log prior; exact ties go
to speech so confusion matrices are reproducible.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FitError, InputError
from .sps_features import BASE_KINDS

LABELS = ("speech", "music")
DEFAULT_K_GRID = (1, 2, 4, 8, 16, 32)

_LOG2PI = math.log(2.0 * math.pi)
# Elements in one (n, components, d) EM or scoring temporary: 8 MB of float64.
BUDGET = 1 << 20


@dataclass(frozen=True, eq=False)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray  # floored at 1e-8

    def apply(self, X):
        return (X - self.mean) / self.std


@dataclass(eq=False)
class Mixture:
    weights: np.ndarray  # (K,), on the simplex
    means: np.ndarray  # (K, d)
    vars: np.ndarray  # (K, d), floored
    log_prior: float


@dataclass(eq=False)
class GmmModel:
    feature_kind: str
    standardizer: Standardizer
    classes: dict  # label -> Mixture
    train_meta: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.standardizer.mean.size


@dataclass(frozen=True)
class ClassScore:
    log_lik_speech: float
    log_lik_music: float
    decision: str
    margin: float  # speech posterior score minus music posterior score


@dataclass(frozen=True, eq=False)
class RowScores:
    """The ClassScore fields of n rows as (n,) arrays, decisions as codes."""

    log_lik_speech: np.ndarray
    log_lik_music: np.ndarray
    margin: np.ndarray

    @property
    def decision(self):
        return np.where(self.margin >= 0, 0, 1)  # exact ties to speech


@dataclass(frozen=True, eq=False)
class Rows:
    """Feature rows of one kind: X is (n, d) float64, y the (n,) label codes
    (indices into LABELS), or None for unlabelled rows."""

    kind: str
    X: np.ndarray
    y: np.ndarray | None = None

    def take(self, idx):
        """The rows at the positions idx, in that order."""
        return Rows(self.kind, self.X[idx], None if self.y is None else self.y[idx])

    @cached_property
    def by_class(self):
        """(class counts, Standardizer of all rows, each class's z-scored
        rows), computed on first use and kept, so every K that grid_search
        fits on one Rows shares them; None unless every code is 0 or 1.
        The arrays are not copied, so X must not change afterwards."""
        counts = [] if self.y is None else np.bincount(self.y, minlength=len(LABELS)).tolist()
        if len(counts) != len(LABELS):
            return None
        pooled = self.X[np.argsort(self.y, kind="stable")]  # speech rows, then music
        std = Standardizer(mean=pooled.mean(axis=0), std=np.maximum(pooled.std(axis=0), 1e-8))
        return counts, std, (std.apply(pooled[: counts[0]]), std.apply(pooled[counts[0] :]))


def as_rows(vectors):
    """Stack FeatureVectors of one kind and one dimension as Rows, their
    labels as codes; vectors that all lack a label give unlabelled rows."""
    if not vectors:
        raise InputError("empty feature vector set")
    kinds, dims = {f.kind for f in vectors}, {f.values.size for f in vectors}
    if len(kinds) != 1 or len(dims) != 1:
        raise InputError(f"mixed feature kinds or dimensions: {sorted(kinds)}, {sorted(dims)}")
    labels = {f.label for f in vectors}
    if labels - set(LABELS) and labels != {None}:
        raise InputError(f"unlabeled or unknown-label vectors among {sorted(labels, key=repr)}")
    y = None if labels == {None} else np.array([LABELS.index(f.label) for f in vectors])
    return Rows(kinds.pop(), np.stack([f.values for f in vectors]), y)


def _logsumexp(a):
    """log sum exp over the last axis."""
    m = np.maximum.reduce(a, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.log(np.add.reduce(np.exp(a - m), axis=-1)) + m[..., 0]


def _groups(K, n, d, B=1):
    """Slices of the K components, each small enough that a (B, n, g, d)
    temporary holds at most BUDGET elements, or one component when a single
    one is already larger.  Per-component arithmetic is the same in any
    group, so the slicing changes memory, never results."""
    g = max(1, BUDGET // max(B * n * d, 1))
    return [slice(k, k + g) for k in range(0, K, g)]


def _stacks(parts, alike, n, d):
    """parts as one stack when they are alike and a (len(parts), n, 1, d)
    temporary fits BUDGET, else one stack per part."""
    return [parts] if alike and len(parts) * n * d <= BUDGET else [[p] for p in parts]


def _log_joint(X, means, vars, logw, groups):
    """(B, n, K) log w_k + log N(x | m_k, diag v_k) for B stacked problems:
    X is (B, n, d) (or (1, n, d), shared), means and vars (B, K, d), logw
    (B, K).  A group of components per pass, each step in place."""
    d = X.shape[2]
    lv = np.add.reduce(np.log(vars), axis=2)
    out = np.empty((means.shape[0], X.shape[1], means.shape[1]))
    x = X[:, :, None, :]
    for g in groups:
        z = np.subtract(x, means[:, None, g])
        np.square(z, out=z)
        np.divide(z, vars[:, None, g], out=z)
        out[:, :, g] = np.add.reduce(z, axis=3) + lv[:, None, g]
        del z  # before the next group's temporary
    out += d * _LOG2PI
    out *= -0.5
    out += logw[:, None, :]
    return out


def _estep(X, means, vars, weights, groups):
    """Responsibilities (B, n, K) and per-row log-likelihoods (B, n)."""
    L = _log_joint(X, means, vars, np.log(weights), groups)
    ll = _logsumexp(L)
    np.subtract(L, ll[:, :, None], out=L)
    return np.exp(L, out=L), ll


def _farthest_point_init(X, K, rng):
    """First center uniform at random, then repeatedly the point farthest
    from the chosen set (deterministic argmax, first index on ties)."""
    centers = [int(rng.integers(X.shape[0]))]
    if K > 1:
        d2 = ((X - X[centers[0]]) ** 2).sum(axis=1)
        for _ in range(K - 1):
            nxt = int(np.argmax(d2))
            centers.append(nxt)
            d2 = np.minimum(d2, ((X - X[nxt]) ** 2).sum(axis=1))
    return X[np.array(centers)].copy()


def _fit_mixtures(Xs, K, rng, max_iter=200, tol=1e-6):
    """[(weights, means, vars, trace)] of a K-component mixture per (n, d)
    array of Xs, seeded from rng in that order; one stack when they fit."""
    n, d = Xs[0].shape
    alike = all(x.shape == (n, d) for x in Xs)
    return [fit for xs in _stacks(Xs, alike, n, d) for fit in _em(xs, K, rng, max_iter, tol)]


def _em(xs, K, rng, max_iter, tol):
    """EM on B same-shape (n, d) problems as one (B, n, d) stack, the whole
    stack per numpy call."""
    X = np.stack(xs) if len(xs) > 1 else xs[0][None]  # one alone: no copy
    B, n, d = X.shape
    v = X.var(axis=1, keepdims=True)
    floor = np.maximum(1e-6 * v, 1e-12)
    vars = np.repeat(np.maximum(v, floor), K, axis=1)
    means = np.array([_farthest_point_init(x, K, rng) for x in X])
    weights = np.full((B, K), 1.0 / K)
    groups = _groups(K, n, d, B)
    active = list(range(B))  # the problem in each row of the stack
    traces = [[] for _ in range(B)]
    fits = [None] * B
    for _ in range(max_iter):
        resp, ll = _estep(X, means, vars, weights, groups)
        t = np.add.reduce(ll, axis=1) / n
        keep = []
        for b, i in enumerate(active):
            trace = traces[i]
            trace.append(t[b])
            if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-1])):
                fits[i] = (weights[b], means[b], vars[b], trace)
            else:
                keep.append(b)
        if len(keep) < len(active):
            if not keep:
                return fits
            X, resp, means, vars, weights, floor = (
                a[keep] for a in (X, resp, means, vars, weights, floor)
            )
            active = [active[b] for b in keep]
        # nk adds each component's responsibilities pairwise along a
        # contiguous row; a sum down the n axis would add in sequence and
        # change the last bits of every model.
        R = np.ascontiguousarray(resp.transpose(0, 2, 1))
        nk = np.add.reduce(R, axis=2)
        nk += 1e-300
        Xg = X[:, None]
        for g in groups:
            r = R[:, g, :, None]
            T = np.multiply(r, Xg)
            mean = means[:, g]
            np.add.reduce(T, axis=2, out=mean)
            mean /= nk[:, g, None]
            np.subtract(Xg, mean[:, :, None], out=T)
            np.square(T, out=T)
            T *= r
            var = vars[:, g]
            np.add.reduce(T, axis=2, out=var)
            var /= nk[:, g, None]
            np.maximum(var, floor, out=var)
            del T  # before the next group's temporary
        np.divide(nk, n, out=weights)
        weights /= np.add.reduce(weights, axis=1, keepdims=True)
    for b, i in enumerate(active):
        fits[i] = (weights[b], means[b], vars[b], traces[i])
    return fits


def check_counts(name, values):
    """Refuse, by name, values that are not integers >= 1 (numpy ints count)."""
    odd = [v for v in values if isinstance(v, bool) or not isinstance(v, (int, np.integer))]
    if odd:
        raise InputError(f"{name} must be an integer, got {', '.join(map(repr, odd))}")
    bad = [v for v in values if v < 1]
    if bad:
        raise InputError(f"{name} must be >= 1, got {', '.join(map(str, bad))}")


def fit_gmm(train, K, seed=0):
    """Fit one K-component diagonal GMM per class on z-scored features;
    train is labelled Rows or a list of labelled FeatureVectors."""
    check_counts("K", [K])
    rows = train if isinstance(train, Rows) else as_rows(train)
    if rows.by_class is None:
        raise InputError("training rows must be labeled, with codes 0 (speech) and 1 (music)")
    counts, std, z = rows.by_class
    d = rows.X.shape[1]
    for label, n in zip(LABELS, counts):
        if n < K * d:
            raise FitError(f"class {label!r} has {n} vectors; "
                           f"K={K} with dim {d} needs at least {K * d}")
    rng = np.random.default_rng(seed)
    fits = _fit_mixtures(z, K, rng)
    classes = {
        lab: Mixture(w, m, v, math.log(n / sum(counts)))
        for lab, n, (w, m, v, _) in zip(LABELS, counts, fits)
    }
    trace = {lab: fit[3] for lab, fit in zip(LABELS, fits)}
    return GmmModel(
        feature_kind=rows.kind,
        standardizer=std,
        classes=classes,
        train_meta={"seed": seed, "k_grid": [K], "chosen_k": K, "em_trace": trace},
    )


def confusion_matrix(y_true, y_pred):
    """2x2 counts of label codes, rows true and columns predicted."""
    if np.shape(y_true) != np.shape(y_pred):
        raise ValueError(f"{np.size(y_true)} true labels against {np.size(y_pred)} predictions")
    return np.bincount(2 * np.asarray(y_true) + y_pred, minlength=4).reshape(2, 2)


def f_score(cm):
    """Macro F1 of a 2x2 confusion matrix (rows true, cols predicted).

    A class absent from both truth and predictions scores 1; a class with no
    true positives but some mistakes scores 0."""
    cm = np.asarray(cm)
    if cm.sum() == 0:
        raise InputError("empty confusion matrix")
    fs = []
    for c in (0, 1):
        tp = cm[c, c]
        fp = cm[1 - c, c]
        fn = cm[c, 1 - c]
        if tp == 0 and fp == 0 and fn == 0:
            fs.append(1.0)
        elif tp == 0:
            fs.append(0.0)
        else:
            prec = tp / (tp + fp)
            rec = tp / (tp + fn)
            fs.append(2 * prec * rec / (prec + rec))
    return (fs[0] + fs[1]) / 2


def _drawn(rng, m, frac):
    """Mask of the round(frac * m) of m keys drawn, at least 1 and at most m - 1."""
    mask = np.zeros(m, bool)
    mask[rng.permutation(m)[: min(max(round(frac * m), 1), m - 1)]] = True
    return mask


def stratified_split(y, groups, frac, seed):
    """(train, test) row positions: per class of the label codes y, round(frac
    * count) of its sorted distinct groups go to train (one or more each side,
    a lone group to test), and each of its rows, in order, where its group
    goes.  groups: source codes keep files whole, np.arange(n) splits rows."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for c in range(len(LABELS)):
        members = np.flatnonzero(y == c)
        keys, at = np.unique(groups[members], return_inverse=True)
        picks = _drawn(rng, keys.size, frac)[at]
        train.append(members[picks])
        test.append(members[~picks])
    return np.concatenate(train), np.concatenate(test)


def grid_search(train, grid=DEFAULT_K_GRID, seed=0):
    """Pick K from the grid by macro-F on a stratified 80:20 split of the
    training rows (ties to the smaller K), then refit on all of them.
    Infeasible grid entries are skipped with a warning.  train is labelled
    Rows or a list of labelled FeatureVectors."""
    grid = list(grid)
    if not grid:
        raise FitError("empty K grid")
    check_counts("K", grid)
    rows = train if isinstance(train, Rows) else as_rows(train)
    if rows.y is None:
        raise InputError("training rows must be labeled")
    d = rows.X.shape[1]
    inner_train, inner_val = (
        rows.take(part) for part in stratified_split(rows.y, np.arange(rows.y.size), 0.8, seed)
    )
    inner_counts = np.bincount(inner_train.y, minlength=len(LABELS))
    best_k, best_f, skipped, validation = None, -1.0, [], {}
    for K in sorted(set(grid)):
        if (inner_counts < K * d).any():
            skipped.append(K)
            continue
        model = fit_gmm(inner_train, K, seed)
        fval = f_score(confusion_matrix(inner_val.y, score(model, inner_val).decision))
        validation[K] = fval
        if fval > best_f:
            best_k, best_f = K, fval
    if skipped:
        warnings.warn(
            f"grid entries {skipped} skipped: fewer than K*d={d}*K training "
            "vectors in a class"
        )
    if best_k is None:
        raise FitError(f"no feasible K in grid {grid} for {d}-dim features")
    model = fit_gmm(rows, best_k, seed)
    model.train_meta.update(
        {"k_grid": grid, "chosen_k": best_k, "validation_f": validation, "skipped": skipped}
    )
    return model


def _check_rows(model, rows):
    if rows.kind != model.feature_kind:
        raise InputError(f"model expects {model.feature_kind}, got {rows.kind}")
    if rows.X.shape[1] != model.dim:
        raise InputError(f"model expects dim {model.dim}, got {rows.X.shape[1]}")


def _class_log_liks(model, X):
    """{label: (n,) log-likelihoods} of the rows of X under each class;
    mixtures with the same K are scored as one stack when it fits."""
    n, d = X.shape
    x = model.standardizer.apply(X)[None]
    mixes = [model.classes[lab] for lab in LABELS]
    alike = len({mix.weights.size for mix in mixes}) == 1
    ll = []
    for ms in _stacks(mixes, alike, n, d):
        L = _log_joint(
            x,
            np.array([m.means for m in ms]),
            np.array([m.vars for m in ms]),
            np.log([m.weights for m in ms]),
            _groups(ms[0].weights.size, n, d, len(ms)),
        )
        ll.extend(_logsumexp(L))
    return dict(zip(LABELS, ll))


def score(model, f):
    """Bayes decision on every row of a Rows, as RowScores, or on one
    FeatureVector, as a ClassScore; one pass over all the rows."""
    rows = f if isinstance(f, Rows) else Rows(f.kind, f.values[None])
    _check_rows(model, rows)
    ll = _class_log_liks(model, rows.X)
    post = {lab: ll[lab] + model.classes[lab].log_prior for lab in LABELS}
    scores = RowScores(ll["speech"], ll["music"], post["speech"] - post["music"])
    if rows is f:
        return scores
    speech, music, margin = (float(a[0]) for a in (ll["speech"], ll["music"], scores.margin))
    return ClassScore(speech, music, LABELS[scores.decision[0]], margin)


def late_fuse_score(models, rows):
    """Combine per-feature models by a dimension-normalized sum of class
    scores (log-likelihood plus log prior, divided by that model's feature
    dimension so no single feature dominates).  rows maps each kind to its
    Rows, row i of every kind from the same interval; returns RowScores."""
    if sorted(models) != sorted(BASE_KINDS) or sorted(rows) != sorted(BASE_KINDS):
        raise InputError(f"late fusion needs models/features for kinds {BASE_KINDS}")
    lengths = {rows[k].X.shape[0] for k in BASE_KINDS}
    if len(lengths) != 1:
        raise InputError(f"late fusion rows differ in length: {sorted(lengths)}")
    for kind in BASE_KINDS:
        _check_rows(models[kind], rows[kind])
    fused = {lab: 0.0 for lab in LABELS}
    for kind in BASE_KINDS:
        model = models[kind]
        ll = _class_log_liks(model, rows[kind].X)
        for lab in LABELS:
            fused[lab] += (ll[lab] + model.classes[lab].log_prior) / model.dim
    return RowScores(fused["speech"], fused["music"], fused["speech"] - fused["music"])


# ---------------------------------------------------------------------------
# model file format: versioned plain text, 17 significant digits

def _fmt(values):
    return " ".join(f"{v:.17g}" for v in np.atleast_1d(values))


def model_to_text(model):
    meta = model.train_meta
    lines = [
        "spsgmm v1",
        "meta",
        f"feature_kind {model.feature_kind}",
        f"dim {model.dim}",
        f"seed {meta.get('seed', 0)}",
        "k_grid " + ",".join(str(k) for k in meta.get("k_grid", [])),
        f"chosen_k {meta.get('chosen_k', model.classes['speech'].weights.size)}",
        "standardizer",
        f"mean {_fmt(model.standardizer.mean)}",
        f"std {_fmt(model.standardizer.std)}",
    ]
    for label in LABELS:
        mix = model.classes[label]
        lines.append(f"class {label}")
        lines.append(f"log_prior {mix.log_prior:.17g}")
        lines.append(f"weights {_fmt(mix.weights)}")
        lines.append("means")
        for row in mix.means:
            lines.append(_fmt(row))
        lines.append("vars")
        for row in mix.vars:
            lines.append(_fmt(row))
    return "\n".join(lines) + "\n"


def _numbers(convert, tokens, line):
    try:
        return [convert(t) for t in tokens]
    except ValueError:
        raise InputError(f"non-numeric value in model file line {line!r}") from None


def _floats(text, line):
    return np.array(_numbers(float, text.split(), line))


def model_from_text(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != "spsgmm v1":
        raise InputError("not a spsgmm v1 model file")
    meta = {"k_grid": []}
    std_fields = {}
    classes = {}
    i = 1
    current = None  # (label, mixture fields)
    mode = None
    while i < len(lines):
        line = lines[i]
        head, _, rest = line.partition(" ")
        if head == "meta":
            mode = "meta"
        elif head == "standardizer":
            mode = "standardizer"
        elif head == "class":
            if rest not in LABELS:
                raise InputError(f"unknown class {rest!r} in model file")
            current = {"label": rest}
            classes[rest] = current
            mode = "class"
        elif mode == "meta":
            if head == "k_grid":
                meta["k_grid"] = _numbers(int, [k for k in rest.split(",") if k], line)
            elif head in ("seed", "chosen_k", "dim"):
                meta[head] = _numbers(int, [rest], line)[0]
            else:
                meta[head] = rest
        elif mode == "standardizer":
            std_fields[head] = _floats(rest, line)
        elif mode == "class":
            if head in ("means", "vars"):
                K = current["weights"].size if "weights" in current else 0
                if K == 0:
                    raise InputError(f"{head} block before a nonempty weights line")
                if i + K >= len(lines):
                    raise InputError(f"model file ends inside a {head} block")
                rows = [_floats(row, row) for row in lines[i + 1 : i + 1 + K]]
                if len({r.size for r in rows}) != 1:
                    raise InputError(f"ragged {head} block in model file")
                current[head] = np.stack(rows)
                i += K
            elif head == "log_prior":
                current[head] = _numbers(float, [rest], line)[0]
            elif head == "weights":
                current[head] = _floats(rest, line)
            else:
                raise InputError(f"unexpected line in model file: {line!r}")
        else:
            raise InputError(f"unexpected line in model file: {line!r}")
        i += 1
    missing = [lab for lab in LABELS if lab not in classes]
    if missing or "mean" not in std_fields or "std" not in std_fields:
        raise InputError(f"model file incomplete (missing {missing or 'standardizer'})")
    d = std_fields["mean"].size
    if std_fields["std"].size != d or meta.get("dim", d) != d:
        raise InputError(
            f"model file dims disagree: standardizer mean {d}, "
            f"std {std_fields['std'].size}, dim line {meta.get('dim', d)}"
        )
    for lab, c in classes.items():
        lacking = [k for k in ("log_prior", "weights", "means", "vars") if k not in c]
        if lacking:
            raise InputError(f"model file incomplete (class {lab} lacks {lacking})")
        K = c["weights"].size
        if c["means"].shape != (K, d) or c["vars"].shape != (K, d):
            raise InputError(
                f"class {lab}: means {c['means'].shape} and vars {c['vars'].shape} "
                f"must both be ({K}, {d})"
            )
    # a fitted model never breaks these: std is floored at 1e-8, vars at
    # 1e-12 or more, and EM adds 1e-300 to every component's mass
    blocks = {"standardizer mean": std_fields["mean"], "standardizer std": std_fields["std"]}
    blocks.update((f"class {lab} {k}", c[k]) for lab, c in classes.items()
                  for k in ("log_prior", "weights", "means", "vars"))
    for name, values in blocks.items():
        if not np.isfinite(values).all():
            raise InputError(f"model file {name}: non-finite value")
        if name.endswith(("std", "weights", "vars")) and not (values > 0).all():
            raise InputError(f"model file {name}: value not above 0")
    mixes = {
        lab: Mixture(
            weights=c["weights"],
            means=c["means"],
            vars=c["vars"],
            log_prior=c["log_prior"],
        )
        for lab, c in classes.items()
    }
    return GmmModel(
        feature_kind=meta.get("feature_kind", ""),
        standardizer=Standardizer(mean=std_fields["mean"], std=std_fields["std"]),
        classes=mixes,
        train_meta=meta,
    )


def save_model(model, path):
    from ._util import atomic_write_text

    atomic_write_text(path, model_to_text(model))


def load_model(path):
    with open(path, "r", encoding="utf-8") as f:
        return model_from_text(f.read())
