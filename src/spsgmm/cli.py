"""Command-line front end.

Subcommands: extract, train, predict, evaluate, inspect.  Every command is
deterministic given its flags (train and evaluate draw from --seed), checks
every flag it can before reading any audio, and writes all file output
atomically (temp file + rename) so a failed run never leaves a truncated
artifact.  Exit codes: 0 success, 1 runtime failure, 2 usage/input error.
"""

import argparse
import os
import sys

from . import audio_io, pipeline
from ._util import atomic_write_text
from .classifier import LABELS, as_rows, grid_search, load_model, save_model, score
from .errors import ConfigError, DecodeError, FitError, InputError, SpsgmmError
from .evaluate import (
    EVAL_KINDS,
    TrialConfig,
    report_text,
    run_experiment,
    summary_csv_lines,
    trials_csv_lines,
)
from .spectral import WINDOWS, spectrogram_csv_lines
from .sps_core import sps_csv_lines
from .sps_features import KINDS, distribution_csv_lines, feature_csv_lines

_FEATURE_FLAG = {
    "sps-p": "sps_p",
    "sps-zcr": "sps_zcr",
    "sps-scg": "sps_scg",
    "fused": "early_fused",
    "late-fused": "late_fused",
}


def _add_pipeline_flags(p):
    p.add_argument("--interval-ms", type=float, default=1000.0,
                   help="analysis interval duration (default: 1000)")
    p.add_argument("--frame-ms", type=float, default=30.0,
                   help="frame duration (default: 30)")
    p.add_argument("--hop-ms", type=float, default=1.0,
                   help="frame shift (default: 1)")
    p.add_argument("--p", type=int, default=20,
                   help="peaks kept per frame (default: 20)")
    p.add_argument("--window", choices=WINDOWS, default="rect",
                   help="analysis window (default: rect)")


def _add_fit_flags(p):
    p.add_argument("--k-grid", default="1,2,4,8,16,32",
                   help="comma-separated GMM component grid (default: 1,2,4,8,16,32)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed for all randomness (default: 0)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="spsgmm",
        description="Spectral peak sequence features and a GMM speech/music classifier.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="write feature CSVs for a wav file or directory")
    p.add_argument("input", help="wav file or directory of wav files")
    p.add_argument("--feature", choices=[*sorted(_FEATURE_FLAG), "all"],
                   default="all", help="feature kind(s) to extract (default: all)")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="fit a grid-searched GMM on a labeled corpus")
    p.add_argument("speech_dir")
    p.add_argument("music_dir")
    p.add_argument("--feature", choices=["sps-p", "sps-zcr", "sps-scg", "fused"],
                   default="sps-scg", help="feature kind (default: sps-scg)")
    p.add_argument("--out", required=True, help="model file path")
    _add_pipeline_flags(p)
    _add_fit_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify intervals of a wav file or directory")
    p.add_argument("model", help="model file written by train")
    p.add_argument("input", help="wav file or directory")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="repeated-split evaluation on a labeled corpus")
    p.add_argument("speech_dir")
    p.add_argument("music_dir")
    p.add_argument("--feature", choices=[*sorted(_FEATURE_FLAG), "all"],
                   default="all", help="feature kind(s) to evaluate (default: all)")
    p.add_argument("--out", required=True, help="output directory for report files")
    _add_pipeline_flags(p)
    _add_fit_flags(p)
    p.add_argument("--trials", type=int, default=20,
                   help="number of repeated splits (default: 20)")
    p.add_argument("--split", type=float, default=0.7,
                   help="training fraction (default: 0.7)")
    p.add_argument("--split-unit", choices=["file", "interval"], default="file",
                   help="split granularity (default: file)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="export plot data (spectrogram, peak overlay, distributions)")
    p.add_argument("input", help="wav file or directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--emit", choices=["all", "spectrogram", "sps", "dist"],
                   default="all", help="which CSV families to write (default: all)")
    p.add_argument("--interval-index", type=int, default=0,
                   help="which interval of the input to render, counted across "
                        "its files in name order (default: 0)")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_inspect)

    return ap


def _pipeline_kwargs(args):
    return dict(frame_ms=args.frame_ms, hop_ms=args.hop_ms, window=args.window, p=args.p)


def _interval_s(args):
    if not 0 < args.interval_ms < float("inf"):
        raise InputError(f"--interval-ms must be finite and above 0, got {args.interval_ms}")
    return args.interval_ms / 1000.0


def _parse_grid(text):
    try:
        grid = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"bad --k-grid {text!r}; expected comma-separated integers")
    if not grid or any(k < 1 for k in grid):
        raise InputError(f"bad --k-grid {text!r}; entries must be >= 1")
    return grid


def _load_intervals(path, interval_s):
    """The intervals of a WAV file or directory, refusing every file that
    gives none with its reason."""
    intervals, skipped = audio_io.load_intervals(path, interval_s)
    if skipped:
        raise InputError("\n".join(f"{f}: {reason}" for f, reason in skipped))
    if not intervals:
        raise InputError(f"no files in directory {path}")
    return intervals


def _note(msg):
    print(msg, file=sys.stderr)


def _extract(intervals, args):
    """The feature cache of the intervals, noting any peakless frames."""
    cache, diag = pipeline.extract_corpus(intervals, **_pipeline_kwargs(args))
    if diag["peakless_frames"]:
        _note(f"diagnostics: {diag['peakless_frames']} peakless frames")
    return cache


def cmd_extract(args):
    pipeline.check_p(args.p)
    kinds = KINDS if args.feature == "all" else [_FEATURE_FLAG[args.feature]]
    if "late_fused" in kinds:
        raise InputError("late-fused is a scoring scheme, not an extractable vector")
    intervals = _load_intervals(args.input, _interval_s(args))
    cache = _extract(intervals, args)
    base, ext = os.path.splitext(args.out)
    for kind in kinds:
        vectors = pipeline.vectors_of(cache, intervals, kind)
        out = args.out if len(kinds) == 1 else f"{base}_{kind}{ext or '.csv'}"
        atomic_write_text(out, "\n".join(feature_csv_lines(intervals, vectors)) + "\n")
        print(f"wrote {out} ({len(vectors)} rows)")
    return 0


def cmd_train(args):
    pipeline.check_p(args.p)
    grid = _parse_grid(args.k_grid)
    intervals, report = audio_io.scan_corpus(args.speech_dir, args.music_dir, _interval_s(args))
    if report.skipped:
        _note(report.render())
    kind = _FEATURE_FLAG[args.feature]
    rows = as_rows(pipeline.vectors_of(_extract(intervals, args), intervals, kind))
    model = grid_search(rows, grid, args.seed)
    save_model(model, args.out)
    meta = model.train_meta
    print(f"wrote {args.out} (feature {kind}, K={meta['chosen_k']}, "
          f"validation F={meta['validation_f'][meta['chosen_k']]:.4f})")
    return 0


def cmd_predict(args):
    pipeline.check_p(args.p)
    model = load_model(args.model)
    if model.feature_kind not in KINDS:
        raise InputError(f"model feature kind {model.feature_kind!r} not extractable")
    intervals = _load_intervals(args.input, _interval_s(args))
    vectors = pipeline.vectors_of(_extract(intervals, args), intervals, model.feature_kind)
    sc = score(model, as_rows(vectors))
    lines = ["source_id,interval_index,decision,margin,log_lik_speech,log_lik_music"]
    columns = (sc.decision, sc.margin, sc.log_lik_speech, sc.log_lik_music)
    for iv, code, g, s, m in zip(intervals, *(a.tolist() for a in columns)):
        lines.append(f"{iv.source_id},{iv.index},{LABELS[code]},{g!r},{s!r},{m!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out} ({len(intervals)} intervals)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args):
    pipeline.check_p(args.p)
    grid = _parse_grid(args.k_grid)
    cfg = TrialConfig(
        n_trials=args.trials,
        train_frac=args.split,
        seed=args.seed,
        split_unit=args.split_unit,
    )
    intervals, scan = audio_io.scan_corpus(args.speech_dir, args.music_dir, _interval_s(args))
    if scan.skipped:
        _note(scan.render())
    kinds = list(EVAL_KINDS) if args.feature == "all" else [_FEATURE_FLAG[args.feature]]
    cache, diag = pipeline.extract_corpus(intervals, **_pipeline_kwargs(args))
    diag["skipped_files"] = len(scan.skipped)
    reports, failed = [], []
    for kind in kinds:
        try:
            reports.append(run_experiment(
                intervals,
                kind,
                cfg,
                **_pipeline_kwargs(args),
                k_grid=grid,
                feature_cache=cache,
                diagnostics=diag,
            ))
        except FitError as exc:  # report the kinds that finish, then exit 1
            _note(f"error: {kind}: {exc}")
            failed.append(kind)
    if not reports:
        return 1
    os.makedirs(args.out, exist_ok=True)
    text = report_text(reports)
    atomic_write_text(os.path.join(args.out, "report.txt"), text)
    atomic_write_text(
        os.path.join(args.out, "trials.csv"), "\n".join(trials_csv_lines(reports)) + "\n"
    )
    atomic_write_text(
        os.path.join(args.out, "summary.csv"), "\n".join(summary_csv_lines(reports)) + "\n"
    )
    sys.stdout.write(text[text.index("summary:"):])
    print(f"wrote report.txt, trials.csv, summary.csv to {args.out}")
    return 1 if failed else 0


def cmd_inspect(args):
    intervals = _load_intervals(args.input, _interval_s(args))
    if not 0 <= args.interval_index < len(intervals):
        raise InputError(
            f"interval index {args.interval_index} out of range (input has {len(intervals)})"
        )
    os.makedirs(args.out, exist_ok=True)
    emit = {"spectrogram", "sps", "dist"} if args.emit == "all" else {args.emit}
    chosen = intervals[args.interval_index]
    attrs_list, peakless = [], 0
    for iv in intervals if "dist" in emit else [chosen]:
        iv_mags, iv_m, attrs = pipeline.analyze(iv, **_pipeline_kwargs(args))
        peakless += iv_m.peakless_frames
        attrs_list.append(attrs)
        if iv is chosen:
            mags, m = iv_mags, iv_m

    def write(name, lines):
        path = os.path.join(args.out, name)
        atomic_write_text(path, "\n".join(lines) + "\n")
        print(f"wrote {path}")

    if "spectrogram" in emit:
        write("spectrogram.csv", spectrogram_csv_lines(mags))
    if "sps" in emit:
        write("sps.csv", sps_csv_lines(m))
    if "dist" in emit:
        zcr_lines, ac_lines = distribution_csv_lines(attrs_list, args.p)
        write("dist_zcr.csv", zcr_lines)
        write("dist_autocorr.csv", ac_lines)
    if peakless:
        _note(f"diagnostics: {peakless} peakless frames")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DecodeError, ConfigError, InputError, OSError) as exc:
        _note(f"error: {exc}")
        return 2
    except SpsgmmError as exc:
        _note(f"error: {exc}")
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
