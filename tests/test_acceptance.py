"""Acceptance gate: one test per shipped guarantee, so `pytest -v` prints one
pass/fail line per criterion.

c1  every defining formula agrees with naive references (exactly, < 30 s)
c2  analytic invariants of the features hold on seeded sweeps
c3  the spectral transform matches a direct DFT, pure tones, and Parseval
c4  desk-scale synthetic experiment: centroid stats lead, mean F >= 0.90
c5  benchmark-corpus replication (runs only when SPSGMM_GTZAN_DIR is set)
c6  CLI evaluation is byte-for-byte reproducible under a fixed seed
c7  throughput telemetry (informational; never gates)
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from experiments.conditions import make_corpus
from spsgmm.audio_io import AudioInterval, scan_corpus
from spsgmm.evaluate import TrialConfig, f_score, run_experiment
from spsgmm.pipeline import BASE_KINDS, extract_corpus, extract_features
from spsgmm.spectral import (
    FrameConfig,
    frame_interval,
    magnitude_spectra,
    make_frame_config,
)
from spsgmm.sps_core import build_peak_matrix
from spsgmm.sps_features import (
    compute_attributes,
    sps_periodicity,
    sps_scg,
    sps_zcr,
)

SR = 22050


def _interval(samples, label=None, source="acc"):
    return AudioInterval(
        data=np.asarray(samples, np.float64),
        sample_rate=SR,
        source_id=source,
        index=0,
        label=label,
    )


def test_c1_formula_reference_sweep():
    """1000+ random instances of every derived formula against the pure-Python
    references, bit for bit, in under 30 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    n_iter = 1000
    for i in range(n_iter):
        n_bins = int(rng.integers(3, 40))
        L = int(rng.integers(2, 12))
        p = int(rng.integers(1, 6))
        mags = rng.uniform(0.0, 4.0, (L, n_bins))
        if i % 2:
            mags = np.round(mags * 4.0) / 4.0  # quantize to force ties

        for frame in mags:
            ks = oracles.detect_peaks(frame)
            amps = [float(frame[k]) for k in ks]
            pair = np.stack([frame, frame])
            # with p = n_bins every peak is chosen, so the column's values are the peaks
            every = build_peak_matrix(pair, n_bins).data[:, 0]
            assert sorted(set(every.tolist())) == (ks or [0])
            got = build_peak_matrix(pair, p).data
            assert got.T.tolist() == [oracles.select_prominent(ks, amps, p)] * 2

        m = build_peak_matrix(mags, p)
        ref_rows, ref_peakless = oracles.build_matrix([f.tolist() for f in mags], p)
        assert m.data.tolist() == ref_rows
        assert m.peakless_frames == ref_peakless

        attrs = compute_attributes(m.data)
        mu, C, A = oracles.attributes(m.data.tolist())
        np.testing.assert_array_equal(attrs.centroids, mu)
        np.testing.assert_array_equal(attrs.centered, C)
        np.testing.assert_array_equal(attrs.autocorr, A)
        np.testing.assert_array_equal(sps_periodicity(attrs).values, oracles.sps_p(A))
        np.testing.assert_array_equal(sps_zcr(attrs).values, oracles.sps_zcr(C))
        if p >= 2:
            np.testing.assert_array_equal(
                sps_scg(attrs).values, oracles.sps_scg(m.data.tolist())
            )

    for _ in range(n_iter):
        cm = rng.integers(0, 8, (2, 2))
        if cm.sum() == 0:
            cm[0, 0] = 1
        nested = {
            "speech": {"speech": int(cm[0, 0]), "music": int(cm[0, 1])},
            "music": {"speech": int(cm[1, 0]), "music": int(cm[1, 1])},
        }
        assert f_score(cm) == pytest.approx(oracles.macro_f(nested), abs=1e-12)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"reference sweep took {elapsed:.1f}s (budget 30s)"


class TestC2AnalyticInvariants:
    def test_c2_lag0_is_variance_and_dominates(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            S = rng.integers(0, 331, (int(rng.integers(2, 7)), int(rng.integers(2, 40))))
            attrs = compute_attributes(S)
            sigma = sps_scg(attrs).values[S.shape[0] : 2 * S.shape[0]]
            np.testing.assert_allclose(attrs.autocorr[:, 0], sigma**2, rtol=1e-9)
            a0 = attrs.autocorr[:, :1]
            assert np.all(np.abs(attrs.autocorr) <= a0 + 1e-12 * (1.0 + a0))

    def test_c2_zcr_range(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            S = rng.integers(0, 331, (int(rng.integers(1, 7)), int(rng.integers(2, 40))))
            z = sps_zcr(compute_attributes(S)).values
            assert np.all(z >= 0.0) and np.all(z < 1.0)

    def test_c2_amplitude_scaling_leaves_features_unchanged(self):
        rng = np.random.default_rng(1234)
        base = rng.standard_normal(SR) * 0.1
        reference, _ = extract_features(_interval(base), p=20)
        for c in (2.0**-8, 0.5, 2.0, 2.0**7, 1.7, 0.3, 3.14159):
            scaled, _ = extract_features(_interval(base * c), p=20)
            for kind, vec in reference.items():
                assert np.array_equal(scaled[kind].values, vec.values), (
                    f"feature {kind} changed under amplitude scale {c}"
                )

    def test_c2_frequency_shift_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p, L = int(rng.integers(2, 7)), int(rng.integers(2, 30))
            S = rng.integers(0, 200, (p, L))
            s = int(rng.integers(1, 100))
            a, b = compute_attributes(S), compute_attributes(S + s)
            np.testing.assert_allclose(b.centroids, a.centroids + s, rtol=1e-12)
            assert np.array_equal(
                sps_zcr(b).values, sps_zcr(a).values
            ), "zero-crossing rate must be exactly shift invariant"
            np.testing.assert_allclose(
                sps_periodicity(b).values,
                sps_periodicity(a).values,
                rtol=1e-9,
                atol=1e-12,
            )
            ga, gb = sps_scg(a).values, sps_scg(b).values
            np.testing.assert_allclose(gb[p:], ga[p:], rtol=1e-9, atol=1e-12)

    def test_c2_periodic_impulse_rows_have_zero_dispersion(self):
        for period in range(2, 13):
            for reps in (3, 4, 6):
                for base in (0, 7):
                    for pos in (0, period - 1):
                        pattern = np.full(period, base, np.int64)
                        pattern[pos] = base + 5
                        row = np.tile(pattern, reps)
                        v = sps_periodicity(compute_attributes(row[None, :]))
                        assert v.values[0] == 0.0, (
                            f"period {period} x {reps}, impulse at {pos}"
                        )


class TestC3Transform:
    def test_c3_matches_naive_dft(self):
        rng = np.random.default_rng(33)
        for n in (2, 4, 8, 16, 34, 64):
            for window in ("rect", "hamming"):
                cfg = FrameConfig(frame_len=n, hop=1, window=window)
                for _ in range(3):
                    frame = rng.standard_normal(n)
                    ref_in = frame * np.hamming(n) if window == "hamming" else frame
                    ref = [abs(z) for z in oracles.naive_dft(ref_in.tolist())]
                    got = magnitude_spectra(frame[None, :], cfg)[0]
                    np.testing.assert_allclose(got, ref[: n // 2], rtol=0, atol=1e-9)

    def test_c3_pure_tone_lands_on_its_bin(self):
        cfg = make_frame_config(SR, 30.0, 1.0)
        n = cfg.frame_len
        for m in (1, 7, 100, 330):
            frame = np.cos(2 * np.pi * m * np.arange(n) / n)
            bins = magnitude_spectra(frame[None, :], cfg)[0]
            assert bins[m] == pytest.approx(n / 2, rel=1e-9)
            others = np.delete(bins, m)
            assert np.all(others <= 1e-9 * n)

    def test_c3_parseval(self):
        cfg = make_frame_config(SR, 30.0, 1.0)
        n = cfg.frame_len
        rng = np.random.default_rng(44)
        for _ in range(50):
            frame = rng.standard_normal(n)
            bins = magnitude_spectra(frame[None, :], cfg)[0]
            nyquist = abs(frame @ (-1.0) ** np.arange(n))
            spec_energy = bins[0] ** 2 + 2 * np.sum(bins[1:] ** 2) + nyquist**2
            time_energy = n * np.sum(frame**2)
            assert spec_energy == pytest.approx(time_energy, rel=1e-6)


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore:grid entries")
def test_c4_desk_scale_experiment():
    """200 + 200 synthetic intervals, 20 trials, full defaults: the centroid
    statistics must reach mean F >= 0.90 and beat the other two features,
    all inside 10 minutes."""
    t0 = time.perf_counter()
    intervals = make_corpus(200, seed=0)
    cache, diag = extract_corpus(intervals)
    reports = {
        kind: run_experiment(
            intervals,
            kind,
            TrialConfig(n_trials=20, seed=0),
            feature_cache=cache,
            diagnostics=diag,
        )
        for kind in BASE_KINDS
    }
    elapsed = time.perf_counter() - t0
    means = {k: r.mean_f for k, r in reports.items()}
    detail = ", ".join(
        f"{k}={means[k]:.4f} (var {reports[k].var_f:.6f})" for k in BASE_KINDS
    )
    print(f"desk-scale means: {detail}; elapsed {elapsed:.1f}s")
    assert elapsed < 600.0, f"desk-scale run took {elapsed:.1f}s (budget 600s)"
    assert means["sps_scg"] >= 0.90, detail
    assert means["sps_scg"] >= means["sps_p"], detail
    assert means["sps_scg"] >= means["sps_zcr"], detail


_GTZAN = os.environ.get("SPSGMM_GTZAN_DIR", "")


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore:grid entries")
@pytest.mark.skipif(
    not _GTZAN, reason="SPSGMM_GTZAN_DIR not set; benchmark corpus unavailable"
)
def test_c5_benchmark_corpus_replication():
    root = Path(_GTZAN)
    dirs = {}
    for label, names in (
        ("speech", ("speech_wav", "speech")),
        ("music", ("music_wav", "music")),
    ):
        found = next((root / n for n in names if (root / n).is_dir()), None)
        assert found, f"no {names} directory under {root}"
        dirs[label] = found
    intervals, skipped = scan_corpus(dirs["speech"], dirs["music"], 1.0)
    for f, reason in skipped:
        print(f"skipped {f}: {reason}")
    cache, diag = extract_corpus(intervals)
    targets = {"sps_scg": (0.93, 0.05), "sps_p": (0.83, 0.08), "sps_zcr": (0.81, 0.08)}
    failures = []
    for kind, (target, tol) in targets.items():
        rep = run_experiment(
            intervals,
            kind,
            TrialConfig(n_trials=20, seed=0),
            feature_cache=cache,
            diagnostics=diag,
        )
        print(f"{kind}: mean F {rep.mean_f:.4f} (target {target} +- {tol})")
        if abs(rep.mean_f - target) > tol:
            failures.append(f"{kind}: {rep.mean_f:.4f} not within {tol} of {target}")
    assert not failures, "; ".join(failures)


@pytest.mark.slow
def test_c6_cli_evaluation_reproducible(cli, corpus_dirs, tmp_path):
    def run(out):
        r = cli(
            "evaluate", corpus_dirs[0], corpus_dirs[1],
            "--feature", "sps-scg", "--p", 3, "--k-grid", "1,2",
            "--trials", 3, "--seed", 11, "--out", out,
        )
        assert r.returncode == 0, r.stderr
        return r

    run(tmp_path / "first")
    run(tmp_path / "second")
    for name in ("report.txt", "trials.csv", "summary.csv"):
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, f"{name} differs between identically seeded runs"


def test_c7_throughput_telemetry():
    intervals = make_corpus(12, seed=9)  # 24 one-second intervals
    t0 = time.perf_counter()
    for iv in intervals:
        extract_features(iv)
    per_interval_ms = 1000.0 * (time.perf_counter() - t0) / len(intervals)
    status = "PASS" if per_interval_ms < 50.0 else "WARN (informational only)"
    print(f"throughput: {per_interval_ms:.1f} ms per 1 s interval -> {status}")
    assert math.isfinite(per_interval_ms) and per_interval_ms > 0.0
