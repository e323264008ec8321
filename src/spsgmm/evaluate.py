"""Evaluation harness: repeated stratified 70:30 splits, macro F per trial,
mean/variance aggregates, and report serialization.

Splits default to file granularity so intervals of one recording never land
on both sides (interval granularity is available for comparability, but it
leaks same-recording information and inflates scores).  All randomness flows
from one master seed; each trial derives its own seed, so trials could be
run in any order without changing the result.  Each experiment stacks each
kind it trains once, as Rows in interval order, and splits them by position
into whole groups, so the kinds of late fusion line up by construction.

Late fusion reuses the base models that earlier runs already trained.  A run
of a base kind empties its kind's entries in a module table, then publishes
each trial's grid-searched model under the key (digest of the trial's
training rows, the K grid, the trial seed): exactly the inputs of that grid
search, so a hit is the model training would return, bit for bit.  Only a
late_fused run reads the table, and it pops each entry it uses; on a miss it
trains as before and publishes nothing.  So `evaluate --feature all` fits
each base model once, a repeated run of one kind repeats its training, and
the table holds at most one run's models per base kind.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ._util import csv_text
from .classifier import (
    DEFAULT_K_GRID,
    LABELS,
    as_rows,
    check_counts,
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
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
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


# base kind -> {(training rows digest, K grid, trial seed): GmmModel}
_HANDOFF = {}


def _trial_seed(master, t):
    return master * 1_000_003 + t


def _digest(rows):
    """blake2b of a Rows table: the shape and dtype of X, then X and y."""
    h = hashlib.blake2b(f"{rows.X.shape} {rows.X.dtype.str}".encode())
    h.update(rows.X.tobytes())
    h.update(rows.y.tobytes())  # unlabelled rows never reach a trial
    return h.digest()


def _trained(run_kind, train_rows, k_grid, tseed):
    """grid_search(train_rows, k_grid, tseed) through the hand-off table: a
    late_fused run takes a model that a base-kind run published, a base-kind
    run publishes the one it trains."""
    key = (_digest(train_rows), tuple(k_grid), tseed)
    if run_kind == "late_fused":
        model = _HANDOFF.get(train_rows.kind, {}).pop(key, None)
        if model is not None:
            return model
    model = grid_search(train_rows, k_grid, tseed)
    if run_kind in BASE_KINDS:
        _HANDOFF.setdefault(train_rows.kind, {})[key] = model
    return model


def _run_trial(groups, rows, kind, cfg, t, k_grid):
    """(TrialResult, models) of trial t; rows maps kinds to interval-order
    Rows, groups their rows' split groups."""
    tseed = _trial_seed(cfg.seed, t)
    train, test = stratified_split(next(iter(rows.values())).y, groups, cfg.train_frac, tseed)
    models = {k: _trained(kind, r.take(train), k_grid, tseed) for k, r in rows.items()}
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
    if feature_kind in BASE_KINDS:
        _HANDOFF[feature_kind] = {}
    trials = [_run_trial(groups, rows, feature_kind, cfg, t, k_grid)[0]
              for t in range(cfg.n_trials)]
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
