"""The benchmark's own checks must be able to fail.

Each test corrupts one output of the program (by wrapping a package function
for the duration of the test) and asserts that the workload counts failed
operations.  Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from tracer import Tracer

PKG = run.import_package()


@pytest.fixture
def work(tmp_path):
    return str(tmp_path)


def replace(monkeypatch, modules, attr, make):
    """Wrap modules' attr (one shared original) with make(original)."""
    wrapped = make(getattr(modules[0], attr))
    for m in modules:
        monkeypatch.setattr(m, attr, wrapped)


def small_extract(work):
    wl = run.ExtractWorkload(PKG, 0)
    wl.files = (1,)
    wl.ops_per_pass = 2
    wl.setup(work)
    return wl


def test_extract_clean_pass_has_no_failures(work):
    res = small_extract(work).run(0, None)
    assert (res.ops, res.failed) == (2, 0)


def test_extract_one_peak_bin_off_by_one_fails(work, monkeypatch):
    def make(orig):
        def corrupted(mags, p):
            m = orig(mags, p)
            m.data[p // 2, 100] += 1
            return m
        return corrupted

    replace(monkeypatch, [PKG.sps_core, PKG.pipeline], "build_peak_matrix", make)
    assert small_extract(work).run(0, None).failed > 0


def test_extract_colliding_cache_keys_fail(work):
    wl = small_extract(work)
    music = os.path.join(work, "music")
    os.rename(os.path.join(music, "music-000.wav"), os.path.join(music, "speech-000.wav"))
    assert wl.run(0, None).failed > 0


def test_stream_flipped_decision_fails(work, monkeypatch):
    wl = run.StreamWorkload(PKG, 0)
    wl.setup(work)
    assert wl.run(0, None).failed == 0
    calls = []

    def make(orig):
        def corrupted(model, f):
            sc = orig(model, f)
            calls.append(1)
            if len(calls) == 3:
                flipped = "music" if sc.decision == "speech" else "speech"
                return type(sc)(sc.log_lik_speech, sc.log_lik_music, flipped, sc.margin)
            return sc
        return corrupted

    replace(monkeypatch, [PKG.classifier], "score", make)
    assert wl.run(1, None).failed == 1


def test_protocol_flipped_decision_fails(work, monkeypatch):
    wl = run.ProtocolWorkload(PKG, 0)
    assert wl.expected is not None, "seed 0 must be recorded"
    wl.setup(work)
    calls = []

    def make(orig):
        def corrupted(model, f):
            sc = orig(model, f)
            calls.append(1)
            if len(calls) == 10:
                flipped = "music" if sc.decision == "speech" else "speech"
                return type(sc)(sc.log_lik_speech, sc.log_lik_music, flipped, sc.margin)
            return sc
        return corrupted

    replace(monkeypatch, [PKG.evaluate], "score", make)
    res = wl.run(0, None)
    assert res.failed == 1 and res.ops == 100


def test_span_without_calls_is_missing_not_zero():
    tracer = Tracer()
    tracer.patch(PKG.pipeline, "no_such_function", "sps_features.stats")
    metrics, missing = run.layer_metrics("extract_22k", tracer, ops=1, intervals=1)
    assert "spectral.magnitude_spectra" in missing and "sps_features.stats" in missing
    assert metrics["spectral.magnitude_spectra.ms_per_interval"]["value"] is None
    assert metrics["classifier.score.ms"]["value"] == 0.0  # not expected on this workload


def test_reference_peak_matrix_matches_formula_on_a_tone():
    rate = 16000
    x = np.sin(2 * np.pi * 1000.0 * np.arange(rate) / rate)
    m = run.reference.peak_matrix(x, rate, 1)
    assert m.shape == (1, 971)
    assert (m[0] == 30).all()  # 1000 Hz at 480 samples -> bin 30


def test_without_package_source_exits_nonzero_without_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract_22k", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
