"""Two-class Gaussian-mixture classifier on feature rows.

Fitting and scoring take `Rows` (a feature kind, an (n, d) table, label
codes), which `as_rows` stacks from FeatureVectors; `score` also takes one
vector.  Per class, a diagonal-covariance mixture is fit by EM on z-scored
features (statistics from the training rows only).  Means are initialized
by farthest-point seeding from one seeded generator, speech first, every
M-step floors the variances, and the whole fit is deterministic given the
seed.

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

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, InputError
from .sps_features import BASE_KINDS

LABELS = ("speech", "music")
DEFAULT_K_GRID = (1, 2, 4, 8, 16, 32)

_LOG2PI = math.log(2.0 * math.pi)
# Elements in one (n, components, d) EM or scoring temporary: 8 MB of float64.
BUDGET = 1 << 20
MAX_ITER, TOL = 200, 1e-6  # EM's step cap and relative log-likelihood tolerance


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


def _fit_mixtures(Xs, K, rng):
    """[(weights, means, vars, trace)] of a K-component mixture per (n, d)
    array of Xs, seeded from rng in that order; one stack when they fit."""
    n, d = Xs[0].shape
    alike = all(x.shape == (n, d) for x in Xs)
    return [fit for xs in _stacks(Xs, alike, n, d) for fit in _em(xs, K, rng)]


def _em(xs, K, rng):
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
    for _ in range(MAX_ITER):
        resp, ll = _estep(X, means, vars, weights, groups)
        t = np.add.reduce(ll, axis=1) / n
        keep = []
        for b, i in enumerate(active):
            trace = traces[i]
            trace.append(t[b])
            if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= TOL * max(1.0, abs(trace[-1])):
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


def check_counts(name, values, least=1):
    """Refuse, by name, values that are not integers >= least (numpy ints count)."""
    odd = [v for v in values if isinstance(v, bool) or not isinstance(v, (int, np.integer))]
    if odd:
        raise InputError(f"{name} must be an integer, got {', '.join(map(repr, odd))}")
    bad = [v for v in values if v < least]
    if bad:
        raise InputError(f"{name} must be >= {least}, got {', '.join(map(str, bad))}")


def check_seed(name, value):
    """Refuse, by name, a seed that is not an integer >= 0."""
    check_counts(name, [value], least=0)


def _class_counts(rows):
    """[speech rows, music rows] of rows whose y holds one integer code, 0 or
    1, per row, in a dtype that casts safely to intp as np.bincount needs;
    any other y raises InputError."""
    y = rows.y
    if (not isinstance(y, np.ndarray) or not np.can_cast(y.dtype, np.intp)
            or y.shape != rows.X.shape[:1] or not ((y == 0) | (y == 1)).all()):
        raise InputError("training rows must be labeled, with codes 0 (speech) and 1 (music)")
    music = int(np.count_nonzero(y))
    return [y.size - music, music]


def fit_gmm(train, K, seed=0):
    """Fit one K-component diagonal GMM per class on z-scored features;
    train is labelled Rows or a list of labelled FeatureVectors.  The
    standardizer and each class's z-scored rows come from train alone, on
    every call."""
    check_counts("K", [K])
    check_seed("seed", seed)
    rows = train if isinstance(train, Rows) else as_rows(train)
    counts = _class_counts(rows)
    d = rows.X.shape[1]
    for label, n in zip(LABELS, counts):
        if n < K * d:
            raise FitError(f"class {label!r} has {n} vectors; "
                           f"K={K} with dim {d} needs at least {K * d}")
    pooled = rows.X[np.argsort(rows.y, kind="stable")]  # speech rows, then music
    std = Standardizer(mean=pooled.mean(axis=0), std=np.maximum(pooled.std(axis=0), 1e-8))
    z = std.apply(pooled[: counts[0]]), std.apply(pooled[counts[0] :])
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
    check_seed("seed", seed)
    rows = train if isinstance(train, Rows) else as_rows(train)
    _class_counts(rows)
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


def _numbers(convert, tokens, line):
    try:
        return [convert(t) for t in tokens]
    except ValueError:
        raise InputError(f"non-numeric value in model file line {line!r}") from None


# A fitted model passes both checks: std is floored at 1e-8, vars at 1e-12
# or more, and EM adds 1e-300 to every component's mass.
def _finite(name, values):
    if not np.isfinite(values).all():
        raise InputError(f"{name}: non-finite value")


def _positive(name, values):
    _finite(name, values)
    if not (values > 0).all():
        raise InputError(f"{name}: value not above 0")


@dataclass(frozen=True)
class _Shape:
    """How a value is written as the text after its key, and read back from
    that text (the whole line names it in errors)."""

    write: object  # value -> text
    read: object  # (text, line) -> value


# A "marker" line is its key alone, and so is a "rows" line, which one line of
# numbers per mixture component follows.
_SHAPES = {
    "str": _Shape(str, lambda rest, line: rest),
    "int": _Shape(str, lambda rest, line: _numbers(int, [rest], line)[0]),
    "float": _Shape(_fmt, lambda rest, line: _numbers(float, [rest], line)[0]),
    "ints": _Shape(lambda v: ",".join(map(str, v)),
                   lambda rest, line: _numbers(int, rest.split(",") if rest else [], line)),
    "floats": _Shape(_fmt, lambda rest, line: np.array(_numbers(float, rest.split(), line))),
}

# The v1 layout, one (section, key, shape, check) row per line or block, in
# file order.  A check takes the value's name and the value.
_LAYOUT = (
    ("meta", "meta", "marker", None),
    ("meta", "feature_kind", "str", None),
    ("meta", "dim", "int", None),
    ("meta", "seed", "int", check_seed),
    ("meta", "k_grid", "ints", check_counts),
    ("meta", "chosen_k", "int", None),
    ("standardizer", "standardizer", "marker", None),
    ("standardizer", "mean", "floats", _finite),
    ("standardizer", "std", "floats", _positive),
) + tuple(
    (f"class {label}", key, shape, check)
    for label in LABELS
    for key, shape, check in (
        (f"class {label}", "marker", None),
        ("log_prior", "float", _finite),
        ("weights", "floats", _positive),
        ("means", "rows", _finite),
        ("vars", "rows", _positive),
    )
)


def model_to_text(model):
    meta = {"seed": 0, "k_grid": [], "chosen_k": model.classes["speech"].weights.size,
            **model.train_meta, "feature_kind": model.feature_kind, "dim": model.dim}
    values = {"meta": meta, "standardizer": vars(model.standardizer),
              **{f"class {label}": vars(model.classes[label]) for label in LABELS}}
    lines = ["spsgmm v1"]
    for section, key, shape, _ in _LAYOUT:
        value = values[section].get(key)
        if shape == "marker":
            lines.append(key)
        elif shape == "rows":
            lines += [key, *map(_fmt, value)]
        else:
            lines.append(f"{key} {_SHAPES[shape].write(value)}")
    return "\n".join(lines) + "\n"


def model_from_text(text):
    """The model of a spsgmm v1 file, which must hold the lines model_to_text
    writes in the order it writes them (blank lines aside).  Any other line,
    order or repeat, and any value no fitted model holds, raises InputError."""
    lines = iter([l for l in text.splitlines() if l.strip()])
    if next(lines, None) != "spsgmm v1":
        raise InputError("not a spsgmm v1 model file")
    got = {}
    for section, key, shape, check in _LAYOUT:
        values = got.setdefault(section, {})
        line = next(lines, None)
        if line is None:
            raise InputError(f"model file incomplete (it ends before its {key} line)")
        if line != key if shape in ("marker", "rows") else not line.startswith(key + " "):
            raise InputError(f"unexpected line in model file: {line!r}")
        if shape == "rows":
            K = values["weights"].size
            rows = [_numbers(float, row.split(), row) for row in itertools.islice(lines, K)]
            if len(rows) < K:
                raise InputError(f"model file ends inside a {key} block")
            if len({len(r) for r in rows}) != 1:
                raise InputError(f"ragged {key} block in model file")
            d = got["standardizer"]["mean"].size
            if len(rows[0]) != d:
                raise InputError(
                    f"model file dims disagree: standardizer {d}, {key} rows {len(rows[0])}"
                )
            values[key] = np.array(rows)
        elif shape != "marker":
            values[key] = _SHAPES[shape].read(line[len(key) + 1 :], line)
        if check:
            check(f"model file {key}" if section == "meta" else f"model file {section} {key}",
                  values[key])
        if key == "std" and not values["mean"].size == values["std"].size == got["meta"]["dim"]:
            raise InputError(
                f"model file dims disagree: standardizer mean {values['mean'].size}, "
                f"std {values['std'].size}, dim line {got['meta']['dim']}"
            )
        if key == "weights":
            # EM divides the weights by their sum, which leaves them within a
            # few ulps per component of summing to 1
            K, total = values[key].size, math.fsum(values[key])
            if abs(total - 1.0) > 4 * K * np.finfo(np.float64).eps:
                raise InputError(f"model file {section} weights: sum {total!r} is not 1")
            # both classes are fitted at the chosen K
            if K != got["meta"]["chosen_k"]:
                raise InputError(f"model file {section} weights: K = {K}, "
                                 f"but chosen_k is {got['meta']['chosen_k']}")
    extra = next(lines, None)
    if extra is not None:
        raise InputError(f"unexpected line in model file: {extra!r}")
    meta = got["meta"]
    classes = {label: Mixture(**got[f"class {label}"]) for label in LABELS}
    return GmmModel(meta["feature_kind"], Standardizer(**got["standardizer"]), classes, meta)


def save_model(model, path):
    from ._util import atomic_write_text

    atomic_write_text(path, model_to_text(model))


def load_model(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError:  # a WAV passed where the model goes, say
        raise InputError("not a spsgmm v1 model file") from None
    return model_from_text(text)
