"""Shared fixtures: deterministic hypothesis profile, independent WAV byte
builders, synthetic corpora on disk, and a CLI runner.

The WAV builders here are written from the RIFF byte layout on purpose, so
decoder tests compare against bytes assembled independently of the package's
own writer.
"""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "det",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")

SR = 22050


# ---------------------------------------------------------------------------
# independent RIFF/WAVE builders


def fmt_chunk_bytes(tag, channels, sample_rate, bits, extensible=False):
    block = channels * bits // 8
    base = struct.pack(
        "<HHIIHH",
        0xFFFE if extensible else tag,
        channels,
        sample_rate,
        sample_rate * block,
        block,
        bits,
    )
    if extensible:
        guid = struct.pack("<H", tag) + b"\x00\x00" + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        base += struct.pack("<HHI", 22, bits, 0) + guid
    return base


def wav_bytes(data, sample_rate=SR, *, fmt="pcm16", extensible=False, pre_chunks=()):
    """Assemble a RIFF/WAVE file. data: (n,) or (n, channels) array; int16
    values for pcm16, float values for float32. pre_chunks: extra (id, body)
    chunks inserted before fmt to exercise chunk skipping."""
    data = np.asarray(data)
    if data.ndim == 1:
        data = data[:, None]
    channels = data.shape[1]
    if fmt == "pcm16":
        payload = data.astype("<i2").tobytes()
        tag, bits = 1, 16
    else:
        payload = data.astype("<f4").tobytes()
        tag, bits = 3, 32
    body = b""
    for cid, cbody in pre_chunks:
        body += cid + struct.pack("<I", len(cbody)) + cbody
        if len(cbody) % 2:
            body += b"\x00"
    fmt_body = fmt_chunk_bytes(tag, channels, sample_rate, bits, extensible)
    body += b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    body += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) % 2:
        body += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


@pytest.fixture
def make_wav(tmp_path):
    """Write wav bytes to a temp file and return the path."""

    def _make(name, data, **kw):
        path = tmp_path / name
        path.write_bytes(wav_bytes(data, **kw))
        return path

    return _make


# ---------------------------------------------------------------------------
# synthetic corpora on disk (for CLI and harness tests)


def _write_corpus(root, n_files, seconds, rng):
    from spsgmm.audio_io import write_wav
    from spsgmm.synth import music_interval, speech_interval

    speech = root / "speech"
    music = root / "music"
    speech.mkdir()
    music.mkdir()
    for i in range(n_files):
        s = np.concatenate([speech_interval(rng) for _ in range(seconds)])
        write_wav(speech / f"sp{i:02d}.wav", s, SR, fmt="float32")
        m = np.concatenate([music_interval(rng) for _ in range(seconds)])
        write_wav(music / f"mu{i:02d}.wav", m, SR, fmt="float32")
    return speech, music


@pytest.fixture(scope="session")
def corpus_dirs(tmp_path_factory):
    """6 speech + 6 music files of 3 s each (18 intervals per class)."""
    root = tmp_path_factory.mktemp("corpus")
    return _write_corpus(root, 6, 3, np.random.default_rng(2024))


@pytest.fixture(scope="session")
def corpus_intervals(corpus_dirs):
    from spsgmm.audio_io import scan_corpus

    intervals, report = scan_corpus(*corpus_dirs, 1.0)
    assert not report.skipped
    return intervals


@pytest.fixture(scope="session")
def feature_cache(corpus_intervals):
    """Features of the session corpus at p=3 (small dims keep GMM grids
    feasible on 18 intervals per class)."""
    from spsgmm.pipeline import extract_corpus

    return extract_corpus(corpus_intervals, p=3)


# ---------------------------------------------------------------------------
# late fusion's hand-off table


@pytest.fixture(autouse=True)
def empty_handoff():
    """Empty evaluate's table of published base models around every test, so
    a model published while a test had patched the trainer reaches no other."""
    from spsgmm.evaluate import _HANDOFF

    _HANDOFF.clear()
    yield
    _HANDOFF.clear()


# ---------------------------------------------------------------------------
# CLI runner


@pytest.fixture(scope="session")
def cli():
    """Run the CLI in a fresh interpreter, where a numpy RuntimeWarning is an
    error as it is in the tests themselves."""

    def _run(*args, env_extra=None):
        env = os.environ.copy()
        env["PYTHONWARNINGS"] = "error::RuntimeWarning"
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "spsgmm", *map(str, args)],
            capture_output=True,
            text=True,
            env=env,
        )

    return _run
