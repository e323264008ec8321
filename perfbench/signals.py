"""Seeded speech-like and music-like audio for the benchmark.

This is the benchmark's own copy of the recipes behind the package's
synthetic corpus.  The benchmark never calls the package to make its inputs,
so a change to the package cannot change the audio it is measured on.

Every 1 s interval is drawn on its own and peak-normalised, then quantised to
PCM16.  Multi-second files are concatenations of such intervals, so each
interval the program cuts out is exactly one drawn interval.
"""

import struct

import numpy as np


def music_second(rng, rate):
    """3-5 sustained harmonic tones with abrupt onsets and slow decay."""
    n = rate
    t = np.arange(n) / rate
    x = np.zeros(n)
    depth_iv = rng.uniform(0.0, 0.015)
    for j in range(int(rng.integers(3, 6))):
        f0 = rng.uniform(220.0, 1800.0)
        onset = rng.uniform(0.0, 0.05) if j == 0 else rng.uniform(0.0, 0.25)
        decay = rng.uniform(1.0, 4.0)
        amp = rng.uniform(0.2, 0.5)
        depth = depth_iv * rng.uniform(0.7, 1.3)
        vib = rng.uniform(4.5, 7.0)
        tau = t - onset
        gate = tau >= 0.0
        env = gate * np.exp(-np.where(gate, tau, 0.0) / decay)
        inst = f0 * (tau + depth / (2 * np.pi * vib) * (1.0 - np.cos(2 * np.pi * vib * tau)))
        phase = rng.uniform(0.0, 2 * np.pi)
        for h in range(1, int(rng.integers(2, 5)) + 1):
            if f0 * h > 0.45 * rate:
                break
            x += (amp / h) * env * np.sin(2 * np.pi * h * inst + phase)
    x += 1e-4 * rng.standard_normal(n)
    return 0.9 * x / np.max(np.abs(x))


def speech_second(rng, rate):
    """150 ms voiced segments with +/-20 % pitch drift between 80-100 ms
    silences."""
    n = rate
    x = 1e-4 * rng.standard_normal(n)
    pos = int(rng.integers(0, int(0.05 * rate)))
    seg_len = round(0.150 * rate)
    edge = round(0.010 * rate)
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
    while pos + seg_len <= n:
        f0 = rng.uniform(80.0, 180.0)
        drift = rng.uniform(-0.2, 0.2)
        s = np.arange(seg_len) / rate
        freq = f0 * (1.0 + drift * s / s[-1])
        phase = 2 * np.pi * np.cumsum(freq) / rate
        seg = np.zeros(seg_len)
        for h in range(1, 13):
            if f0 * h > 0.4 * rate:
                break
            seg += (rng.uniform(0.5, 1.0) / h) * np.sin(h * phase)
        seg[:edge] *= ramp
        seg[-edge:] *= ramp[::-1]
        x[pos : pos + seg_len] += 0.5 * seg
        pos += seg_len + int(rng.uniform(0.080, 0.100) * rate)
    return 0.9 * x / np.max(np.abs(x))


RECIPES = {"speech": speech_second, "music": music_second}


def pcm16(x):
    return np.clip(np.rint(x * 32768.0), -32768, 32767).astype(np.int16)


def recording(rng, labels, rate):
    """PCM16 samples of one recording whose i-th second is drawn from
    RECIPES[labels[i]]."""
    return np.concatenate([pcm16(RECIPES[lab](rng, rate)) for lab in labels])


def write_pcm16(path, samples, rate):
    """Mono PCM16 RIFF/WAVE file with a minimal 16-byte fmt chunk."""
    payload = samples.astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 1, rate, 2 * rate, 2, 16,
        b"data", len(payload),
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
