"""Evaluation harness: repeated stratified 70:30 splits, macro F per trial,
mean/variance aggregates, and report serialization.

Splits default to file granularity so intervals of one recording never land
on both sides (interval granularity is available for comparability, but it
leaks same-recording information and inflates scores).  All randomness flows
from one master seed; each trial derives its own seed, so trials could be
run in any order without changing the result.  Each experiment stacks each
kind it trains once, as Rows in interval order, and splits them by position
into whole groups, so the kinds of late fusion line up by construction.

Late fusion reuses the base models that earlier runs already trained.  After
all its trials, a run of a base kind stores one record in a module table,
replacing its kind's last one: what its grid searches read (the kind's rows,
the split groups, train_frac, the master seed, the K grid and n_trials) and
its per-trial models.  A late_fused run takes every base kind's record out of
the table, and reuses its models only when those inputs equal its own, arrays
byte for byte: equal inputs give equal trial seeds and splits, so each reused
model is the one training would return, bit for bit.  Otherwise it trains,
and it stores nothing.  So `evaluate --feature all` fits each base model once,
and the table holds at most one run's models per base kind.
"""

from dataclasses import dataclass, field

import numpy as np

from ._util import csv_text
from .classifier import (
    DEFAULT_K_GRID,
    LABELS,
    as_rows,
    check_counts,
    check_seed,
    confusion_matrix,
    f_score,
    grid_search,
    late_fuse_score,
    score,
    stratified_split,
)
from .errors import InputError
from .pipeline import BASE_KINDS, extract_corpus, vectors_of
from .sps_features import feature_dim

EVAL_KINDS = ("sps_p", "sps_zcr", "sps_scg", "early_fused", "late_fused")


@dataclass(frozen=True)
class TrialConfig:
    n_trials: int = 20
    train_frac: float = 0.7
    seed: int = 0
    split_unit: str = "file"  # or "interval"

    def __post_init__(self):
        if not 0.0 < self.train_frac < 1.0:
            raise InputError(f"train_frac must be in (0, 1), got {self.train_frac}")
        check_counts("n_trials", [self.n_trials])
        check_seed("seed", self.seed)
        if self.split_unit not in ("file", "interval"):
            raise InputError(f"split_unit must be 'file' or 'interval', got {self.split_unit!r}")


@dataclass(frozen=True)
class TrialResult:
    trial: int
    chosen_k: str
    f: float
    confusion: np.ndarray  # 2x2, rows true (speech, music), cols predicted


@dataclass(eq=False)
class EvalReport:
    feature_kind: str
    trials: list
    mean_f: float
    var_f: float
    config: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


# base kind -> (what its last run's grid searches read, its per-trial models)
_HANDOFF = {}


def _trial_seed(master, t):
    return master * 1_000_003 + t


def _same(a, b):
    """Whether two runs' grid-search inputs are equal, arrays byte for byte."""
    return all(
        (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b, strict=True)
    )


def _run_trial(groups, rows, kind, cfg, t, k_grid, reused):
    """(TrialResult, models) of trial t; rows maps kinds to interval-order
    Rows, groups their rows' split groups, and reused kinds to the per-trial
    models to take instead of training."""
    tseed = _trial_seed(cfg.seed, t)
    train, test = stratified_split(next(iter(rows.values())).y, groups, cfg.train_frac, tseed)
    models = {k: reused[k][t] if k in reused else grid_search(r.take(train), k_grid, tseed)
              for k, r in rows.items()}
    tested = {k: r.take(test) for k, r in rows.items()}
    if kind == "late_fused":
        scores = late_fuse_score(models, tested)
    else:
        scores = score(models[kind], tested[kind])
    chosen = "-".join(str(m.train_meta["chosen_k"]) for m in models.values())
    cm = confusion_matrix(next(iter(tested.values())).y, scores.decision)
    return TrialResult(trial=t, chosen_k=chosen, f=f_score(cm), confusion=cm), models


def run_experiment(
    intervals,
    feature_kind,
    cfg=TrialConfig(),
    *,
    frame_ms=30.0,
    hop_ms=1.0,
    window="rect",
    p=20,
    k_grid=DEFAULT_K_GRID,
    feature_cache=None,
    diagnostics=None,
):
    """Full protocol for one feature kind: n_trials times, split / fit /
    score, then aggregate mean and population variance of the macro-F."""
    if feature_kind not in EVAL_KINDS:
        raise InputError(f"feature_kind must be one of {EVAL_KINDS}")
    if not intervals:
        raise InputError("no intervals given to run_experiment")
    rates = {iv.sample_rate for iv in intervals}
    if len(rates) != 1:
        raise InputError(
            f"refusing to mix sample rates in one experiment: {sorted(rates)}"
        )
    if feature_cache is None:
        feature_cache, diagnostics = extract_corpus(
            intervals, frame_ms=frame_ms, hop_ms=hop_ms, window=window, p=p
        )
    kinds = BASE_KINDS if feature_kind == "late_fused" else (feature_kind,)
    rows = {k: as_rows(vectors_of(feature_cache, intervals, k)) for k in kinds}
    for kind, r in rows.items():
        if r.X.shape[1] != feature_dim(kind, p):
            raise InputError(f"feature cache holds {kind} vectors of size {r.X.shape[1]}, "
                             f"expected {feature_dim(kind, p)} at p = {p}")
    y = rows[kinds[0]].y  # None when unlabelled
    ids = [iv.source_id for iv in intervals] if cfg.split_unit == "file" else range(len(intervals))
    groups = np.unique(ids, return_inverse=True)[1]  # split groups: sources, or rows
    for c, label in enumerate(LABELS):
        n = 0 if y is None else np.unique(groups[y == c]).size
        if n == 0:
            raise InputError(f"both classes must be present, got no {label!r} intervals")
        if n < 2 and cfg.split_unit == "file":
            raise InputError(f"class {label!r} has a single source file; file-level "
                             "splitting needs >= 2 (try unit='interval')")
    read = {k: (r.X, r.y, groups, cfg.train_frac, cfg.seed, tuple(k_grid), cfg.n_trials)
            for k, r in rows.items()}
    records = {k: _HANDOFF.pop(k, None) for k in kinds} if feature_kind == "late_fused" else {}
    reused = {k: rec[1] for k, rec in records.items() if rec and _same(rec[0], read[k])}
    runs = [_run_trial(groups, rows, feature_kind, cfg, t, k_grid, reused)
            for t in range(cfg.n_trials)]
    if feature_kind in BASE_KINDS:
        _HANDOFF[feature_kind] = (read[feature_kind], [models[feature_kind] for _, models in runs])
    trials = [trial for trial, _ in runs]
    fs = [tr.f for tr in trials]
    mean_f = sum(fs) / len(fs)
    var_f = sum((x - mean_f) ** 2 for x in fs) / len(fs)
    config = {
        "feature": feature_kind,
        "trials": cfg.n_trials,
        "train_frac": cfg.train_frac,
        "split_unit": cfg.split_unit,
        "seed": cfg.seed,
        "p": p,
        "frame_ms": frame_ms,
        "hop_ms": hop_ms,
        "window": window,
        "k_grid": list(k_grid),
        "sample_rate": rates.pop(),
        "n_intervals": dict(zip(LABELS, np.bincount(y, minlength=2).tolist())),
    }
    return EvalReport(
        feature_kind=feature_kind,
        trials=trials,
        mean_f=mean_f,
        var_f=var_f,
        config=config,
        diagnostics=dict(diagnostics or {}),
    )


# ---------------------------------------------------------------------------
# report rendering (keep byte-stable: no timestamps, repr floats in CSV)

def trials_csv(reports):
    rows = ((t.trial, r.feature_kind, t.chosen_k, float(t.f)) for r in reports for t in r.trials)
    return csv_text(("trial", "feature", "chosen_K", "f_score"), rows)


def summary_csv(reports):
    rows = ((r.feature_kind, float(r.mean_f), float(r.var_f)) for r in reports)
    return csv_text(("feature", "mean_f", "var_f"), rows)


def report_text(reports):
    out = ["speech/music evaluation report", "=" * 30, ""]
    first = reports[0]
    out.append("config:")
    for key, val in first.config.items():
        if key == "feature":
            continue
        out.append(f"  {key}: {val}")
    out.append("")
    if first.diagnostics:
        out.append("diagnostics:")
        for key, val in first.diagnostics.items():
            out.append(f"  {key}: {val}")
        out.append("")
    out.append(f"{'trial':>5}  {'feature':<12} {'chosen_K':>8}  f_score")
    for rep in reports:
        for tr in rep.trials:
            out.append(
                f"{tr.trial:>5}  {rep.feature_kind:<12} {tr.chosen_k:>8}  {tr.f:.4f}"
            )
    out.append("")
    out.append("summary:")
    out.append(f"{'feature':<12} {'mean_f':>8} {'var_f':>10}")
    for rep in reports:
        out.append(f"{rep.feature_kind:<12} {rep.mean_f:>8.4f} {rep.var_f:>10.6f}")
    return "\n".join(out) + "\n"
