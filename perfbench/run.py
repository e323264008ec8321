#!/usr/bin/env python3
"""Benchmark of the spsgmm speech/music classifier.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload extract_22k --seed 0 --seconds 10 --trace 0

Workloads (each a closed loop: one caller in one process):

  extract_22k  scan_corpus + extract_corpus (p = 20) over speech/ and music/
               directories of multi-second PCM16 WAV files at 22050 Hz.
  stream_16k   decode and segment one 16 kHz recording, then extract_features
               + score per 1 s interval with a model trained at set-up.
  protocol     run_experiment for every evaluation kind (20 file-level
               trials each) on a feature cache extracted at set-up (p = 10).

Every input is generated from --seed by the benchmark itself.  Outputs are
checked against the reference implementations in reference.py; an operation
(an interval, or a kind-trial for protocol) that raises or fails its check
counts as failed.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, measured with tracing off; with --trace 1 they are
the per-layer ones, from wrappers around the package's public functions.
The two lines before it record the machine and a human-readable summary.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings

import numpy as np

import reference
import signals
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
MIN_LATENCY_SAMPLES = 100  # so the p90 has at least ten samples beyond it
CHECKS_PER_PASS = 1  # intervals per pass checked against the reference


def import_package():
    """The package from this checkout's src/, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "spsgmm", "__init__.py")):
        raise SystemExit(f"perfbench: no package source at {os.path.join(src, 'spsgmm')}")
    sys.path.insert(0, src)
    import spsgmm

    for layer in ("audio_io", "classifier", "evaluate", "pipeline", "spectral", "sps_core", "sps_features"):
        importlib.import_module(f"spsgmm.{layer}")
    if not os.path.abspath(spsgmm.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported spsgmm from {spsgmm.__file__}, not {src}")
    return spsgmm


def machine(pkg):
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        pass
    backend = getattr(pkg, "active_backend", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": backend() if callable(backend) else None,
        "spsgmm": getattr(pkg, "__version__", None),
    }


class Pass:
    """One repetition of a workload's timed region and its checks."""

    def __init__(self):
        self.seconds = 0.0  # wall time of the timed region, checks excluded
        self.ops = 0
        self.failed = 0
        self.intervals = 0  # 1 s intervals through the timed region
        self.latencies = []  # seconds per interval


def write_class_dirs(root, rng, files, rate):
    """speech/ and music/ directories of PCM16 files; files lists the length
    in seconds of each file of a class.  File names differ between classes so
    every interval has its own (file name, index) key.  Returns {(file name,
    index): (label, float samples)}."""
    truth = {}
    for label in ("speech", "music"):
        d = os.path.join(root, label)
        os.makedirs(d)
        for i, n_sec in enumerate(files):
            name = f"{label}-{i:03d}.wav"
            x = signals.recording(rng, [label] * n_sec, rate)
            signals.write_pcm16(os.path.join(d, name), x, rate)
            for j in range(n_sec):
                truth[(name, j)] = (label, x[j * rate : (j + 1) * rate] / 32768.0)
    return truth


def check_interval(pkg, iv, vectors, samples, p):
    """The package's peak matrix equals the reference exactly, and its feature
    vectors match the reference formulas."""
    cfg = pkg.spectral.make_frame_config(iv.sample_rate, 30.0, 1.0)
    mags = pkg.spectral.magnitude_spectra(pkg.spectral.frame_interval(iv, cfg), cfg)
    got = pkg.sps_core.build_peak_matrix(mags, p).data
    want = reference.peak_matrix(samples, iv.sample_rate, p)
    if got.shape != want.shape or not np.array_equal(got, want):
        return False
    return reference.features_match({k: v.values for k, v in vectors.items()}, reference.features(want))


class ExtractWorkload:
    """Feature extraction of a labelled corpus at 22050 Hz, the paper's rate:
    662-sample frames (2 x 331, so the FFT is Bluestein), p = 20."""

    name = "extract_22k"
    rate = 22050
    p = 20
    files = (2, 2)  # seconds per file, per class
    min_ops = MIN_LATENCY_SAMPLES

    def __init__(self, pkg, seed):
        self.pkg, self.seed = pkg, seed
        self.ops_per_pass = 2 * sum(self.files)

    def setup(self, work):
        rng = np.random.default_rng([self.seed, 1])
        self.truth = write_class_dirs(work, rng, self.files, self.rate)
        self.dirs = (os.path.join(work, "speech"), os.path.join(work, "music"))

    def run(self, index, tracer):
        pkg, res = self.pkg, Pass()
        pipeline = pkg.pipeline
        inner = pipeline.extract_features
        if tracer is None:  # per-interval latency, with no other bookkeeping
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                out = inner(*args, **kwargs)
                res.latencies.append(time.perf_counter() - t0)
                return out

            pipeline.extract_features = timed
        try:
            t0 = time.perf_counter()
            intervals, _ = pkg.audio_io.scan_corpus(*self.dirs)
            cache, _ = pipeline.extract_corpus(intervals, p=self.p)
            res.seconds = time.perf_counter() - t0
        finally:
            pipeline.extract_features = inner
        res.ops = res.intervals = len(self.truth)
        # every interval needs its own cache entry: colliding keys would
        # silently hand one interval another's features
        keys = {(iv.source_id, iv.index) for iv in intervals}
        res.failed = res.ops - len(keys & cache.keys())
        rng = np.random.default_rng([self.seed, 1, index])
        for i in rng.choice(len(intervals), CHECKS_PER_PASS, replace=False):
            iv = intervals[i]
            label, samples = self.truth.get((os.path.basename(iv.source_id), iv.index), (None, None))
            vectors = cache.get((iv.source_id, iv.index))
            ok = label == iv.label and vectors is not None and check_interval(pkg, iv, vectors, samples, self.p)
            res.failed += not ok
        return res


class StreamWorkload:
    """Per-second decisions on a 16 kHz recording: 480-sample frames, which
    pocketfft factors into small radices, and the classifier in inference."""

    name = "stream_16k"
    rate = 16000
    p = 20
    kind = "sps_zcr"
    train_files = (3,) * 9  # 27 intervals per class: K = 1 is feasible at d = p
    stream_blocks = 6  # blocks of 2-4 s alternating between the classes
    min_ops = MIN_LATENCY_SAMPLES

    def __init__(self, pkg, seed):
        self.pkg, self.seed = pkg, seed

    def setup(self, work):
        pkg = self.pkg
        rng = np.random.default_rng([self.seed, 2])
        write_class_dirs(work, rng, self.train_files, self.rate)
        intervals, _ = pkg.audio_io.scan_corpus(os.path.join(work, "speech"), os.path.join(work, "music"))
        cache, _ = pkg.pipeline.extract_corpus(intervals, p=self.p)
        train = [v[self.kind] for v in cache.values()]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # infeasible K are skipped, by design
            model = pkg.classifier.grid_search(train, seed=self.seed)
        path = os.path.join(work, "model.txt")
        pkg.classifier.save_model(model, path)
        self.model = pkg.classifier.load_model(path)
        self.params = reference.read_model_params(path)
        labels = []
        for b in range(self.stream_blocks):
            labels += [("speech", "music")[b % 2]] * int(rng.integers(2, 5))
        x = signals.recording(rng, labels, self.rate)
        self.ops_per_pass = len(labels)
        self.path = os.path.join(work, "stream.wav")
        signals.write_pcm16(self.path, x, self.rate)
        self.samples = x / 32768.0

    def run(self, index, tracer):
        pkg, res = self.pkg, Pass()
        t0 = time.perf_counter()
        sig = pkg.audio_io.decode_wav(self.path)
        intervals = pkg.audio_io.segment_intervals(sig, 1.0, source_id="stream")
        res.seconds = time.perf_counter() - t0
        decoded_ok = np.array_equal(sig.samples, self.samples)
        n = self.samples.size // self.rate
        rng = np.random.default_rng([self.seed, 2, index])
        sampled = set(rng.choice(n, CHECKS_PER_PASS, replace=False).tolist())
        for iv in intervals:
            t0 = time.perf_counter()
            vectors, _ = pkg.pipeline.extract_features(iv, p=self.p)
            sc = pkg.classifier.score(self.model, vectors[self.kind])
            dt = time.perf_counter() - t0
            res.seconds += dt
            res.latencies.append(dt)
            want = reference.gmm_margin(self.params, vectors[self.kind].values)
            ok = decoded_ok and abs(sc.margin - want) <= reference.MARGIN_TOL * max(1.0, abs(want))
            ok = ok and (sc.decision == ("speech" if want >= 0 else "music") or abs(want) <= reference.MARGIN_TOL)
            if ok and iv.index in sampled:
                s = self.samples[iv.index * self.rate : (iv.index + 1) * self.rate]
                ok = check_interval(pkg, iv, vectors, s, self.p)
            res.failed += not ok
        res.intervals = len(intervals)
        res.ops = max(n, res.intervals)
        res.failed += res.ops - res.intervals
        return res


class ProtocolWorkload:
    """The evaluation protocol on a cached corpus: grid search, EM, scoring
    and the late_fused refits do all the timed work."""

    name = "protocol"
    rate = 22050
    p = 10  # every kind has a feasible K on the inner split at 90 per class
    files = (3,) * 30
    trials = 20
    min_ops = 0

    def __init__(self, pkg, seed):
        self.pkg, self.seed = pkg, seed
        with open(os.path.join(HERE, "protocol_expected.json"), encoding="utf-8") as f:
            self.expected = json.load(f)["seeds"].get(str(seed))
        self.ops_per_pass = len(pkg.evaluate.EVAL_KINDS) * self.trials
        self.first = None  # trial results of the first pass

    def setup(self, work):
        pkg = self.pkg
        rng = np.random.default_rng([self.seed, 3])
        write_class_dirs(work, rng, self.files, self.rate)
        self.intervals, _ = pkg.audio_io.scan_corpus(os.path.join(work, "speech"), os.path.join(work, "music"))
        self.cache, self.diag = pkg.pipeline.extract_corpus(self.intervals, p=self.p)

    def run(self, index, tracer):
        ev, res = self.pkg.evaluate, Pass()
        cfg = ev.TrialConfig(n_trials=self.trials, seed=self.seed)
        n_test = reference.split_sizes(len(self.files), cfg.train_frac)[1] * self.files[0]
        results = {}
        split, starts = ev.stratified_split, []
        if tracer is None:  # each trial starts with its split
            def timed(*args, **kwargs):
                starts.append(time.perf_counter())
                return split(*args, **kwargs)

            ev.stratified_split = timed
        # Trial t of every kind together is one latency sample, so each sample
        # has the same mix of kinds whatever their relative costs.
        trial_s, trial_n = np.zeros(self.trials), np.zeros(self.trials)
        try:
            for kind in ev.EVAL_KINDS:
                starts.clear()
                t0 = time.perf_counter()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    rep = ev.run_experiment(
                        self.intervals, kind, cfg, p=self.p,
                        feature_cache=self.cache, diagnostics=self.diag,
                    )
                t1 = time.perf_counter()
                res.seconds += t1 - t0
                sizes = [int(tr.confusion.sum()) for tr in rep.trials]
                res.intervals += sum(sizes)
                if len(starts) == self.trials:
                    trial_s += np.diff(starts + [t1])
                else:  # no split per trial to time by: share the time evenly
                    trial_s += (t1 - t0) / self.trials
                trial_n += sum(sizes) / self.trials
                self._check(kind, rep, n_test, results, res)
        finally:
            ev.stratified_split = split
        if tracer is None:
            res.latencies = list(trial_s / trial_n)
        if self.first is None:
            self.first = results
        self.last = results
        return res

    def _check(self, kind, rep, n_test, results, res):
        """Count the kind's trials and failed trials into res, and keep their
        results in results."""
        results[kind] = [[tr.chosen_k, float(tr.f)] for tr in rep.trials]
        want = (self.expected or {}).get(kind)
        for t, tr in enumerate(rep.trials):
            ok = (
                [int(n) for n in tr.confusion.sum(axis=1)] == [n_test, n_test]
                and abs(reference.macro_f(tr.confusion) - tr.f) <= 1e-12
                and all(int(k) in self.pkg.evaluate.DEFAULT_K_GRID for k in tr.chosen_k.split("-"))
            )
            if want is not None:
                ok = ok and want[t][0] == tr.chosen_k and abs(want[t][1] - tr.f) <= 1e-12
            if self.first is not None:
                ok = ok and self.first[kind][t] == results[kind][t]
            res.failed += not ok
        res.ops += self.trials
        res.failed += self.trials - len(rep.trials)


WORKLOADS = {w.name: w for w in (ExtractWorkload, StreamWorkload, ProtocolWorkload)}

# Which traced spans each workload's timed region must call.  A span with no
# calls where one is expected is reported as missing, never as 0 ms, so a
# renamed or inlined function cannot pass for a saving.
EXTRACTION_SPANS = {
    "spectral.frame_interval",
    "spectral.magnitude_spectra",
    "sps_core.build_peak_matrix",
    "sps_features.compute_attributes",
    "sps_features.stats",
    "pipeline.extract_features",
    "audio_io.decode_wav",
}
EXPECTED_SPANS = {
    "extract_22k": EXTRACTION_SPANS,
    "stream_16k": EXTRACTION_SPANS | {"classifier.score"},
    "protocol": {
        "classifier.grid_search",
        "classifier.fit_gmm",
        "classifier.score",
        "classifier.late_fuse_score",
        "evaluate.run_experiment",
        "evaluate.stratified_split",
    },
}


def _add(key, f):
    def count(counts, args, out):
        counts[key] += f(args, out)

    return count


def install_spans(tracer, pkg):
    """Wrap every traced function where its caller looks it up."""
    a, pl, cl, ev = pkg.audio_io, pkg.pipeline, pkg.classifier, pkg.evaluate
    tracer.patch(a, "decode_wav", "audio_io.decode_wav", _add("bytes", lambda args, out: os.path.getsize(args[0])))

    def frames(counts, args, out):
        counts["frames"] += out.shape[0]
        counts["frame_len"] += out.shape[1]

    tracer.patch(pl, "frame_interval", "spectral.frame_interval", frames)
    tracer.patch(pl, "magnitude_spectra", "spectral.magnitude_spectra")
    tracer.patch(pl, "build_peak_matrix", "sps_core.build_peak_matrix", _add("peakless", lambda args, out: out.peakless_frames))
    tracer.patch(pl, "compute_attributes", "sps_features.compute_attributes", _add("autocorr", lambda args, out: out.autocorr.size))
    for fn in ("sps_periodicity", "sps_zcr", "sps_scg", "early_fuse"):
        tracer.patch(pl, fn, "sps_features.stats")
    tracer.patch(pl, "extract_features", "pipeline.extract_features")
    tracer.patch(ev, "grid_search", "classifier.grid_search", _add("skipped", lambda args, out: len(out.train_meta.get("skipped", ()))))
    tracer.patch(
        cl, "fit_gmm", "classifier.fit_gmm",
        _add("em_iters", lambda args, out: sum(len(t) for t in out.train_meta["em_trace"].values())),
    )
    tracer.patch(cl, "score", "classifier.score")
    tracer.patch(ev, "score", "classifier.score")
    tracer.patch(ev, "late_fuse_score", "classifier.late_fuse_score")
    tracer.patch(ev, "run_experiment", "evaluate.run_experiment", _add("trials", lambda args, out: len(out.trials)))
    tracer.patch(ev, "stratified_split", "evaluate.stratified_split")


# (metric, unit, span it derives from, numerator, base).  Numerators are the
# span's calls, ms or self_ms, or a counter added by install_spans; bases are
# the 1 s intervals extracted ("intervals"), the ops (an interval, or a
# kind-trial for protocol) of the traced passes, or the span's calls.
LAYER_METRICS = [
    ("audio_io.decode_wav.ms", "ms", "audio_io.decode_wav", "ms", "ops"),
    ("audio_io.bytes_decoded", "B", "audio_io.decode_wav", "bytes", "ops"),
    ("spectral.frame_interval.ms_per_interval", "ms", "spectral.frame_interval", "ms", "intervals"),
    ("spectral.magnitude_spectra.ms_per_interval", "ms", "spectral.magnitude_spectra", "ms", "intervals"),
    ("spectral.frame_len", "count", "spectral.frame_interval", "frame_len", "calls"),
    ("spectral.frames_per_interval", "count", "spectral.frame_interval", "frames", "calls"),
    ("sps_core.build_peak_matrix.ms_per_interval", "ms", "sps_core.build_peak_matrix", "ms", "intervals"),
    ("sps_core.peakless_frames", "count", "sps_core.build_peak_matrix", "peakless", "calls"),
    ("sps_features.compute_attributes.ms_per_interval", "ms", "sps_features.compute_attributes", "ms", "intervals"),
    ("sps_features.autocorr_values_per_interval", "count", "sps_features.compute_attributes", "autocorr", "calls"),
    ("sps_features.stats.ms_per_interval", "ms", "sps_features.stats", "ms", "intervals"),
    ("pipeline.extract_features.ms_per_interval", "ms", "pipeline.extract_features", "ms", "intervals"),
    ("pipeline.extract_features.self_ms_per_interval", "ms", "pipeline.extract_features", "self_ms", "intervals"),
    ("classifier.grid_search.calls", "count", "classifier.grid_search", "calls", "ops"),
    ("classifier.grid_search.self_ms", "ms", "classifier.grid_search", "self_ms", "ops"),
    ("classifier.grid_skipped", "count", "classifier.grid_search", "skipped", "ops"),
    ("classifier.fit_gmm.calls", "count", "classifier.fit_gmm", "calls", "ops"),
    ("classifier.fit_gmm.ms", "ms", "classifier.fit_gmm", "ms", "ops"),
    ("classifier.em_iters", "count", "classifier.fit_gmm", "em_iters", "ops"),
    ("classifier.score.calls", "count", "classifier.score", "calls", "ops"),
    ("classifier.score.ms", "ms", "classifier.score", "ms", "ops"),
    ("classifier.late_fuse_score.calls", "count", "classifier.late_fuse_score", "calls", "ops"),
    ("classifier.late_fuse_score.ms", "ms", "classifier.late_fuse_score", "ms", "ops"),
    ("evaluate.run_experiment.self_ms", "ms", "evaluate.run_experiment", "self_ms", "ops"),
    ("evaluate.stratified_split.ms", "ms", "evaluate.stratified_split", "ms", "ops"),
    ("evaluate.trials", "count", "evaluate.run_experiment", "trials", None),
]


def layer_metrics(workload, tracer, ops, intervals):
    """Per-layer metrics of the traced passes, and the expected spans that
    recorded no call."""
    totals = tracer.totals()
    expected = EXPECTED_SPANS[workload]
    missing = sorted(n for n in expected if n in tracer.missing_attrs or n not in totals)
    metrics = {}
    for name, unit, span, numerator, per in LAYER_METRICS:
        calls, total, own = totals.get(span, (0, 0.0, 0.0))
        values = {"calls": calls, "ms": 1000 * total, "self_ms": 1000 * own, **tracer.counts}
        bases = {"ops": ops, "intervals": intervals, "calls": calls, None: 1}
        v = None if span in missing else values.get(numerator, 0.0) / (bases[per] or 1)
        metrics[name] = {"value": v, "unit": unit}
    return metrics, missing


def measure(wl, seconds, min_ops, tracer, passes, traced, broken):
    """Repeat passes for the given wall time and at least min_ops ops,
    appending them to passes; with a tracer, alternate untraced and traced
    passes, the latter appended to traced.  A pass that raises counts all its
    operations as failed, gives no timing and goes to broken."""
    start, ops, n = time.perf_counter(), 0, 0
    while len(broken) < 3:
        index = len(passes) + len(traced) + len(broken)
        on = tracer is not None and index % 2 == 1
        if on:
            install_spans(tracer, wl.pkg)
        try:
            res = wl.run(index, tracer if on else None)
            (traced if on else passes).append(res)
            if on or tracer is None:
                ops, n = ops + res.ops, n + 1
        except Exception:
            traceback.print_exc()
            res = Pass()
            res.ops = res.failed = wl.ops_per_pass
            broken.append(res)
        finally:
            if on:
                tracer.restore()
        if time.perf_counter() - start >= seconds and ops >= min_ops and n >= (2 if tracer else 1):
            break


def main(argv=None):
    ap = argparse.ArgumentParser(description="spsgmm benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pkg = import_package()
    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    wl = WORKLOADS[args.workload](pkg, args.seed)
    tracer = Tracer() if args.trace else None
    # Untraced runs set up SETUP_REPEATS times and time a share of the passes
    # after each set-up, so one run samples this shared machine over a longer
    # stretch; the last share follows extra set-ups up to SETUP_MIN_S.
    segments = 1 if args.trace else SETUP_REPEATS
    passes, traced, broken, setup_times = [], [], [], []
    try:
        for seg in range(segments):
            while len(setup_times) <= seg or (
                seg == segments - 1 and not args.trace and sum(setup_times) < SETUP_MIN_S
            ):
                shutil.rmtree(work, ignore_errors=True)
                os.makedirs(work)
                t0 = time.perf_counter()
                wl.setup(work)
                setup_times.append(time.perf_counter() - t0)
            min_ops = 0 if args.trace else -(-wl.min_ops // segments)
            measure(wl, args.seconds / segments, min_ops, tracer, passes, traced, broken)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    if not passes or (args.trace and not traced):
        raise SystemExit(f"perfbench: every pass of {args.workload} raised")
    attempted = sum(p.ops for p in passes + traced + broken)
    failed = sum(p.failed for p in passes + traced + broken)
    if args.trace:
        metrics, missing = layer_metrics(
            args.workload, tracer, sum(p.ops for p in traced), sum(p.intervals for p in traced)
        )
        plain = statistics.median(p.seconds / p.ops for p in passes)
        with_spans = statistics.median(p.seconds / p.ops for p in traced)
        metrics["trace.overhead_frac"] = {"value": with_spans / plain - 1.0, "unit": "ratio"}
        metrics["trace.region_ms_per_op"] = {"value": 1000 * with_spans, "unit": "ms"}
        metrics["trace.ops"] = {"value": sum(p.ops for p in traced), "unit": "count"}
        if missing:
            print(f"perfbench: missing spans (expected calls, none recorded): {missing}", file=sys.stderr)
    else:
        missing = []
        lat_ms = [1000 * x for p in passes for x in p.latencies]
        timed = sum(p.seconds for p in passes)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "intervals_per_s": {"value": sum(p.intervals for p in passes) / timed, "unit": "1/s"},
            "interval_ms_p50": {"value": statistics.median(lat_ms), "unit": "ms"},
            "interval_ms_p90": {"value": statistics.quantiles(lat_ms, n=10)[8], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        summary = dict(metrics)
        note = ""
        if args.workload == "protocol":
            summary["trials_per_s"] = {"value": sum(p.ops for p in passes) / timed, "unit": "1/s"}
            note = ", recorded trial results " + ("checked" if wl.expected else "absent for this seed")
        summary["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
        print(
            f"summary {args.workload} seed={args.seed}: "
            + " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in summary.items())
            + f" (passes={len(passes)}, latency samples={len(lat_ms)}{note})"
        )
    print("machine " + json.dumps(machine(pkg), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
