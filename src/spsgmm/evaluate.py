"""Evaluation harness: repeated stratified 70:30 splits, macro F per trial,
mean/variance aggregates, and report serialization.

Splits default to file granularity so intervals of one recording never land
on both sides (interval granularity is available for comparability, but it
leaks same-recording information and inflates scores).  All randomness flows
from one master seed; each trial derives its own seed, so trials could be
run in any order without changing the result.
"""

from dataclasses import dataclass, field

import numpy as np

from .classifier import LABELS, DEFAULT_K_GRID, grid_search, late_fuse_score, score
from .errors import InputError
from .pipeline import BASE_KINDS, extract_corpus

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
        if self.n_trials < 1:
            raise InputError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.split_unit not in ("file", "interval"):
            raise InputError(f"split_unit must be 'file' or 'interval'")


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


def confusion_matrix(y_true, y_pred):
    cm = np.zeros((2, 2), np.int64)
    for t, p in zip(y_true, y_pred, strict=True):
        cm[LABELS.index(t), LABELS.index(p)] += 1
    return cm


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


def stratified_split(intervals, frac, seed, unit="file"):
    """Split labeled intervals into (train, test), per class.  With
    unit='file' whole sources move together; per-class proportions land
    within one file of frac, and both sides keep at least one group."""
    if unit not in ("file", "interval"):
        raise InputError("unit must be 'file' or 'interval'")
    present = {iv.label for iv in intervals}
    if set(LABELS) - present:
        raise InputError(f"both classes must be present, got {sorted(present)}")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label in LABELS:
        members = [iv for iv in intervals if iv.label == label]
        if unit == "file":
            keys = sorted({iv.source_id for iv in members})
            if len(keys) < 2:
                raise InputError(
                    f"class {label!r} has a single source file; file-level "
                    "splitting needs >= 2 (try unit='interval')"
                )
        else:
            keys = list(range(len(members)))
        n_tr = min(max(round(frac * len(keys)), 1), len(keys) - 1)
        perm = rng.permutation(len(keys))
        chosen = {keys[i] for i in perm[:n_tr]}
        if unit == "file":
            train.extend(iv for iv in members if iv.source_id in chosen)
            test.extend(iv for iv in members if iv.source_id not in chosen)
        else:
            train.extend(members[i] for i in sorted(chosen))
            test.extend(members[i] for i in sorted(set(keys) - chosen))
    return train, test


def _trial_seed(master, t):
    return master * 1_000_003 + t


def _vectors_for(cache, intervals, kind):
    return [cache[(iv.source_id, iv.index)][kind] for iv in intervals]


def _run_trial(intervals, cache, kind, cfg, t, k_grid):
    tseed = _trial_seed(cfg.seed, t)
    train_iv, test_iv = stratified_split(intervals, cfg.train_frac, tseed, cfg.split_unit)
    y_true = [iv.label for iv in test_iv]
    if kind == "late_fused":
        models = {
            k: grid_search(_vectors_for(cache, train_iv, k), k_grid, tseed)
            for k in BASE_KINDS
        }
        scores = late_fuse_score(
            models, {k: _vectors_for(cache, test_iv, k) for k in BASE_KINDS}
        )
        chosen = "-".join(str(models[k].train_meta["chosen_k"]) for k in BASE_KINDS)
        trained = models
    else:
        model = grid_search(_vectors_for(cache, train_iv, kind), k_grid, tseed)
        scores = score(model, _vectors_for(cache, test_iv, kind))
        chosen = str(model.train_meta["chosen_k"])
        trained = {kind: model}
    preds = [s.decision for s in scores]
    cm = confusion_matrix(y_true, preds)
    return TrialResult(trial=t, chosen_k=chosen, f=f_score(cm), confusion=cm), trained


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
    save_models_dir=None,
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
    trials = []
    for t in range(cfg.n_trials):
        result, trained = _run_trial(intervals, feature_cache, feature_kind, cfg, t, k_grid)
        trials.append(result)
        if save_models_dir is not None:
            from .classifier import save_model
            import os

            for k, model in trained.items():
                save_model(
                    model, os.path.join(save_models_dir, f"trial{t:03d}_{k}.model")
                )
    fs = [tr.f for tr in trials]
    mean_f = sum(fs) / len(fs)
    var_f = sum((x - mean_f) ** 2 for x in fs) / len(fs)
    n_by_label = {
        lab: sum(1 for iv in intervals if iv.label == lab) for lab in LABELS
    }
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
        "n_intervals": n_by_label,
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

def trials_csv_lines(reports):
    lines = ["trial,feature,chosen_K,f_score"]
    for rep in reports:
        for tr in rep.trials:
            lines.append(f"{tr.trial},{rep.feature_kind},{tr.chosen_k},{float(tr.f)!r}")
    return lines


def summary_csv_lines(reports):
    lines = ["feature,mean_f,var_f"]
    for rep in reports:
        lines.append(f"{rep.feature_kind},{float(rep.mean_f)!r},{float(rep.var_f)!r}")
    return lines


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
