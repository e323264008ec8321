"""Command-line front end.

Subcommands: extract, train, predict, evaluate, inspect.  Every command is
deterministic given its flags (train and evaluate draw from --seed), checks
every flag it can before reading any audio, and writes all file output
atomically (temp file + rename) so a failed run never leaves a truncated
artifact.  Exit codes: 0 success, 1 runtime failure, 2 usage/input error.
"""

import argparse
import errno
import os
import sys
import warnings

from . import audio_io, pipeline, spectral
from ._util import atomic_write_text, csv_text
from .classifier import (LABELS, as_rows, check_counts, check_seed, grid_search, load_model,
                         save_model, score)
from .errors import ConfigError, DecodeError, FitError, InputError, SpsgmmError
from .evaluate import (
    EVAL_KINDS,
    TrialConfig,
    report_text,
    run_experiment,
    summary_csv,
    trials_csv,
)
from .spectral import WINDOWS, spectrogram_csv
from .sps_core import sps_csv
from .sps_features import KINDS, distribution_csv, feature_csv, feature_dim

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


def _front_end(args):
    """(pipeline keywords, interval in seconds), once every analysis flag and
    output is known to be usable.  inspect needs no sps_scg, so one peak row
    will do; feature extraction needs two.  Peaks need two frames, so the
    interval must last a frame plus a hop.  The rate is not known before
    decoding, so this compares durations; rounding each to samples can still
    leave an interval a sample or two short of two frames, which extraction
    then refuses by file.  No output may be a directory; its directory must
    exist or, for a directory --out (made once the input is read), have a
    directory as its nearest existing ancestor."""
    if args.command != "inspect":
        pipeline.check_p(args.p)
    elif args.p < 1:
        raise InputError(f"p must be >= 1, got {args.p}")
    if not 0 < args.interval_ms < float("inf"):
        raise InputError(f"--interval-ms must be finite and above 0, got {args.interval_ms}")
    spectral.check_frame(args.frame_ms, args.hop_ms)
    if args.interval_ms < args.frame_ms + args.hop_ms:
        raise InputError(
            "--interval-ms must be at least --frame-ms + --hop-ms, got "
            f"{args.interval_ms} < {args.frame_ms} + {args.hop_ms}"
        )
    made = args.command in _DIR_FILES
    read = [getattr(args, a, "") for a in ("model", "input", "speech_dir", "music_dir")]
    for path in _outputs(args).values():
        head = os.path.dirname(os.path.abspath(path))
        while made and not os.path.lexists(head):
            head = os.path.dirname(head)
        if not os.path.isdir(head):
            at_out = head == os.path.abspath(args.out)
            fault = errno.ENOENT if not made else errno.EEXIST if at_out else errno.ENOTDIR
            raise OSError(fault, os.strerror(fault), args.out)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        # an input file, or a file of an input directory, would be read and then replaced
        if os.path.isfile(path) and any(os.path.samefile(p, r) for p in (path, head)
                                        for r in read if os.path.exists(r)):
            raise InputError(f"refusing to write {path}: this command reads it")
    kw = dict(frame_ms=args.frame_ms, hop_ms=args.hop_ms, window=args.window, p=args.p)
    return kw, args.interval_ms / 1000.0


# the files evaluate and inspect write inside --out; inspect's are named for their --emit
_DIR_FILES = {"evaluate": ("report.txt", "trials.csv", "summary.csv"),
              "inspect": ("spectrogram.csv", "sps.csv", "dist_zcr.csv", "dist_autocorr.csv")}


def _outputs(args):
    """{name: path} of each file the command writes, in writing order: extract's
    CSV per kind ({base}_{kind}{ext} for each of --feature all), train's and
    predict's --out (none for predict to stdout), and _DIR_FILES by --emit."""
    if args.command in _DIR_FILES:
        emit = getattr(args, "emit", "all")
        return {name: os.path.join(args.out, name) for name in _DIR_FILES[args.command]
                if emit == "all" or name.startswith(emit)}
    if args.command != "extract":
        return {"out": args.out} if args.out else {}
    if args.feature != "all":
        return {_FEATURE_FLAG[args.feature]: args.out}
    base, ext = os.path.splitext(args.out)
    return {kind: f"{base}_{kind}{ext or '.csv'}" for kind in KINDS}


def _fit_flags(args):
    """The K grid, once --k-grid and --seed are known to be usable."""
    try:
        grid = [int(tok) for tok in args.k_grid.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"bad --k-grid {args.k_grid!r}; expected comma-separated integers")
    if not grid:
        raise InputError(f"bad --k-grid {args.k_grid!r}; entries must be >= 1")
    check_counts("--k-grid", grid)
    check_seed("--seed", args.seed)
    return grid


def _listing(skipped):
    """One "path: reason" line per file that gave no interval."""
    return "\n".join(f"{f}: {reason}" for f, reason in skipped)


def _load_intervals(path, interval_s):
    """The intervals of a WAV file or directory, refusing every file that
    gives none with its reason."""
    intervals, skipped = audio_io.load_intervals(path, interval_s)
    if skipped:
        raise InputError(_listing(skipped))
    if not intervals:
        raise InputError(f"no files in directory {path}")
    return intervals


def _note(msg):
    print(msg, file=sys.stderr)


def _extract(intervals, kw):
    """The feature cache of the intervals, noting any peakless frames."""
    cache, diag = pipeline.extract_corpus(intervals, **kw)
    if diag["peakless_frames"]:
        _note(f"diagnostics: {diag['peakless_frames']} peakless frames")
    return cache


def cmd_extract(args):
    kw, interval_s = _front_end(args)
    outs = _outputs(args)
    if "late_fused" in outs:
        raise InputError("late-fused is a scoring scheme, not an extractable vector")
    intervals = _load_intervals(args.input, interval_s)
    cache = _extract(intervals, kw)
    for kind, out in outs.items():
        vectors = pipeline.vectors_of(cache, intervals, kind)
        atomic_write_text(out, feature_csv(intervals, vectors))
        print(f"wrote {out} ({len(vectors)} rows)")
    return 0


def cmd_train(args):
    kw, interval_s = _front_end(args)
    grid = _fit_flags(args)
    intervals, skipped = audio_io.scan_corpus(args.speech_dir, args.music_dir, interval_s)
    if skipped:
        _note(f"skipped:\n{_listing(skipped)}")
    kind = _FEATURE_FLAG[args.feature]
    rows = as_rows(pipeline.vectors_of(_extract(intervals, kw), intervals, kind))
    model = grid_search(rows, grid, args.seed)
    save_model(model, args.out)
    meta = model.train_meta
    print(f"wrote {args.out} (feature {kind}, K={meta['chosen_k']}, "
          f"validation F={meta['validation_f'][meta['chosen_k']]:.4f})")
    return 0


def cmd_predict(args):
    kw, interval_s = _front_end(args)
    model = load_model(args.model)
    if model.feature_kind not in KINDS:
        raise InputError(f"model feature kind {model.feature_kind!r} not extractable")
    dim = feature_dim(model.feature_kind, args.p)
    if dim != model.dim:
        raise InputError(f"model expects dim {model.dim}, got {dim}")
    intervals = _load_intervals(args.input, interval_s)
    vectors = pipeline.vectors_of(_extract(intervals, kw), intervals, model.feature_kind)
    sc = score(model, as_rows(vectors))
    columns = (sc.decision, sc.margin, sc.log_lik_speech, sc.log_lik_music)
    rows = zip(intervals, *(a.tolist() for a in columns))
    text = csv_text(
        ("source_id", "interval_index", "decision", "margin", "log_lik_speech", "log_lik_music"),
        ((iv.source_id, iv.index, LABELS[code], *values) for iv, code, *values in rows),
    )
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out} ({len(intervals)} intervals)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args):
    kw, interval_s = _front_end(args)
    grid = _fit_flags(args)
    cfg = TrialConfig(
        n_trials=args.trials,
        train_frac=args.split,
        seed=args.seed,
        split_unit=args.split_unit,
    )
    intervals, skipped = audio_io.scan_corpus(args.speech_dir, args.music_dir, interval_s)
    if skipped:
        _note(f"skipped:\n{_listing(skipped)}")
    kinds = list(EVAL_KINDS) if args.feature == "all" else [_FEATURE_FLAG[args.feature]]
    cache, diag = pipeline.extract_corpus(intervals, **kw)
    diag["skipped_files"] = len(skipped)
    reports, failed = [], []
    for kind in kinds:
        try:
            reports.append(run_experiment(
                intervals,
                kind,
                cfg,
                **kw,
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
    texts = [report_text(reports), trials_csv(reports), summary_csv(reports)]
    for path, text in zip(_outputs(args).values(), texts, strict=True):
        atomic_write_text(path, text)
    sys.stdout.write(texts[0][texts[0].index("summary:"):])
    print(f"wrote {', '.join(_DIR_FILES[args.command])} to {args.out}")
    return 1 if failed else 0


def cmd_inspect(args):
    kw, interval_s = _front_end(args)
    if args.interval_index < 0:
        raise InputError(f"interval index must be >= 0, got {args.interval_index}")
    intervals = _load_intervals(args.input, interval_s)
    if args.interval_index >= len(intervals):
        raise InputError(
            f"interval index {args.interval_index} out of range (input has {len(intervals)})"
        )
    os.makedirs(args.out, exist_ok=True)
    dist = args.emit in ("all", "dist")
    chosen = intervals[args.interval_index]
    attrs_list, peakless = [], 0
    for iv in intervals if dist else [chosen]:
        iv_mags, iv_m, attrs = pipeline.analyze(iv, **kw)
        peakless += iv_m.peakless_frames
        attrs_list.append(attrs)
        if iv is chosen:
            mags, m = iv_mags, iv_m
    texts = [spectrogram_csv(mags)] if args.emit in ("all", "spectrogram") else []
    texts += [sps_csv(m)] if args.emit in ("all", "sps") else []
    texts += distribution_csv(attrs_list) if dist else []
    for path, text in zip(_outputs(args).values(), texts, strict=True):
        atomic_write_text(path, text)
        print(f"wrote {path}")
    if peakless:
        _note(f"diagnostics: {peakless} peakless frames")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    shown = set()

    def show(message, *_):  # the CLI's format, each message once, no source path
        if str(message) not in shown:
            shown.add(str(message))
            _note(f"warning: {message}")

    with warnings.catch_warnings():
        warnings.showwarning = show
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
