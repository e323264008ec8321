"""Seeded synthetic speech/music conditions, and a WAV writer to put them
on disk, for desk-scale experiments and tests.

Music-like intervals: 3-5 sustained harmonic tones with abrupt onsets and
slow exponential decay, so their spectral peaks sit still across frames.
Speech-like intervals: short voiced segments whose pitch drifts by up to
+/-20 percent, separated by 50-100 ms silences, so the peak trajectories
glide and break.  Both carry a faint noise floor to keep silent frames from
being exactly zero.

write_wav writes mono PCM16 or float32 WAV files, the two formats
spsgmm.audio_io.decode_wav reads.
"""

import struct

import numpy as np

from spsgmm.audio_io import AudioInterval
from spsgmm.errors import InputError

# write_wav's format tags, written out here rather than imported from the
# reader: a wrong tag shared by writer and reader would round-trip unnoticed
_PCM = 0x0001
_IEEE_FLOAT = 0x0003


def music_interval(rng, sample_rate=22050, duration=1.0):
    n = round(sample_rate * duration)
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    # one vibrato character per interval, from none to pronounced
    depth_iv = rng.uniform(0.0, 0.015)
    for j in range(int(rng.integers(3, 6))):
        f0 = rng.uniform(220.0, 1800.0)
        # the first tone starts almost immediately so no long noise-only
        # stretch precedes it
        onset = rng.uniform(0.0, 0.05) if j == 0 else rng.uniform(0.0, 0.25)
        decay = rng.uniform(1.0, 4.0)  # seconds; slow relative to the interval
        amp = rng.uniform(0.2, 0.5)
        depth = depth_iv * rng.uniform(0.7, 1.3)
        rate = rng.uniform(4.5, 7.0)
        tau = t - onset
        gate = tau >= 0.0  # abrupt onset
        env = gate * np.exp(-np.where(gate, tau, 0.0) / decay)
        inst = f0 * (tau + depth / (2 * np.pi * rate) * (1.0 - np.cos(2 * np.pi * rate * tau)))
        phase = rng.uniform(0.0, 2 * np.pi)
        for h in range(1, int(rng.integers(2, 5)) + 1):
            if f0 * h > 0.45 * sample_rate:
                break
            x += (amp / h) * env * np.sin(2 * np.pi * h * inst + phase)
    x += 1e-4 * rng.standard_normal(n)
    return 0.9 * x / np.max(np.abs(x))


def speech_interval(rng, sample_rate=22050, duration=1.0):
    n = round(sample_rate * duration)
    x = 1e-4 * rng.standard_normal(n)
    pos = int(rng.integers(0, int(0.05 * sample_rate)))
    seg_len = round(0.150 * sample_rate)
    edge = round(0.010 * sample_rate)
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
    while pos + seg_len <= n:
        f0 = rng.uniform(80.0, 180.0)
        drift = rng.uniform(-0.2, 0.2)  # up to +/-20% across the segment
        s = np.arange(seg_len) / sample_rate
        freq = f0 * (1.0 + drift * s / s[-1])
        phase = 2 * np.pi * np.cumsum(freq) / sample_rate
        seg = np.zeros(seg_len)
        for h in range(1, 13):
            if f0 * h > 0.4 * sample_rate:
                break
            seg += (rng.uniform(0.5, 1.0) / h) * np.sin(h * phase)
        seg[:edge] *= ramp
        seg[-edge:] *= ramp[::-1]
        x[pos : pos + seg_len] += 0.5 * seg
        # gaps near the top of the silence band keep a consistent
        # voiced/silence alternation in every interval
        pos += seg_len + int(rng.uniform(0.080, 0.100) * sample_rate)
    return 0.9 * x / np.max(np.abs(x))


def make_corpus(n_per_class=200, seed=0, sample_rate=22050):
    """Labeled 1 s intervals, each its own source, deterministic in seed."""
    rng = np.random.default_rng(seed)
    intervals = []
    for i in range(n_per_class):
        intervals.append(
            AudioInterval(
                data=speech_interval(rng, sample_rate),
                sample_rate=sample_rate,
                source_id=f"synth-speech-{i:03d}",
                index=0,
                label="speech",
            )
        )
    for i in range(n_per_class):
        intervals.append(
            AudioInterval(
                data=music_interval(rng, sample_rate),
                sample_rate=sample_rate,
                source_id=f"synth-music-{i:03d}",
                index=0,
                label="music",
            )
        )
    return intervals


def write_wav(path, samples, sample_rate, fmt="pcm16"):
    """Write a mono WAV file; fmt is 'pcm16' or 'float32'."""
    x = np.asarray(samples, np.float64)
    if fmt == "pcm16":
        tag, bits = _PCM, 16
        payload = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
    elif fmt == "float32":
        tag, bits = _IEEE_FLOAT, 32
        payload = x.astype("<f4").tobytes()
    else:
        raise InputError(f"unknown wav format {fmt!r}")
    block = bits // 8
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        tag,
        1,
        sample_rate,
        sample_rate * block,
        block,
        bits,
        b"data",
        len(payload),
    )
    with open(path, "wb") as f:
        f.write(hdr)
        f.write(payload)
