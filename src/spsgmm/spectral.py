"""Framing and half-spectrum magnitudes.

An interval is sliced into L overlapping frames of an even length 2*n_f; each
frame is windowed and transformed with an exact-length DFT (no zero padding —
padding would move peak bins, and peak bins are the feature substrate).  Only
bins 0..n_f-1 are kept.
"""

from dataclasses import dataclass

import numpy as np

from ._util import is_smooth, map_row_blocks
from .errors import ConfigError, InputError

WINDOWS = ("rect", "hamming")


@dataclass(frozen=True)
class FrameConfig:
    frame_len: int  # even, = 2 * n_f
    hop: int
    window: str = "rect"

    def __post_init__(self):
        if self.frame_len <= 0 or self.frame_len % 2:
            raise ConfigError(f"frame_len must be even and positive, got {self.frame_len}")
        if self.hop < 1:
            raise ConfigError(f"hop must be >= 1, got {self.hop}")
        if self.window not in WINDOWS:
            raise ConfigError(f"window must be one of {WINDOWS}, got {self.window!r}")

    @property
    def n_f(self):
        return self.frame_len // 2


def make_frame_config(sample_rate, frame_ms, hop_ms, window="rect"):
    """Frame/hop lengths in samples from durations in milliseconds.  The
    frame length is rounded to the nearest sample and bumped up to the next
    even number so the half-spectrum size n_f is well defined."""
    if not np.inf > frame_ms > hop_ms > 0:
        raise ConfigError(f"need finite frame_ms > hop_ms > 0, got {frame_ms}/{hop_ms}")
    frame_len = round(frame_ms * sample_rate / 1000)
    if frame_len % 2:
        frame_len += 1
    hop = max(1, round(hop_ms * sample_rate / 1000))
    return FrameConfig(frame_len=frame_len, hop=hop, window=window)


def frame_interval(interval, cfg):
    """(L, frame_len) view of the interval's samples; frame l starts at
    l*hop, and a final partial frame is dropped."""
    x = np.asarray(interval.samples if hasattr(interval, "samples") else interval)
    if x.size < cfg.frame_len:
        raise ConfigError(
            f"frame_len {cfg.frame_len} exceeds interval length {x.size}"
        )
    return np.lib.stride_tricks.sliding_window_view(x, cfg.frame_len)[:: cfg.hop]


def _window_vector(cfg):
    if cfg.window == "hamming":
        return np.hamming(cfg.frame_len)
    return None


def magnitude_spectra(frames, cfg):
    """|DFT| of every frame, bins 0..n_f-1, as an (L, n_f) array.

    numpy's pocketfft evaluates the exact mixed-radix/Bluestein transform for
    any length, so frame_len never needs padding.  It transforms each row on
    its own, so a block of rows gives the same bits as the whole array.  A
    frame length with a prime factor above 5 (662 = 2 * 331 at 22050 Hz) is
    slow enough per frame that row blocks go to every usable core; smooth
    lengths (480 at 16 kHz) are cheaper in one call than the hand-off."""
    frames = np.asarray(frames, np.float64)
    if frames.ndim != 2 or frames.shape[1] != cfg.frame_len:
        raise InputError(
            f"expected frames of shape (L, {cfg.frame_len}), got {frames.shape}"
        )
    if not np.isfinite(frames).all():
        raise InputError("non-finite sample in frame")
    w = _window_vector(cfg)
    if w is not None:
        frames = frames * w
    if is_smooth(cfg.frame_len):
        # slicing first makes the modulus a contiguous array of only the kept bins
        return np.abs(np.fft.rfft(frames, axis=1)[:, : cfg.n_f])
    # the full complex spectrum is allocated once, as by the single call, so
    # blocks add no temporaries and the allocator sees the same sizes
    spec = np.empty((frames.shape[0], cfg.n_f + 1), np.complex128)
    out = np.empty((frames.shape[0], cfg.n_f))

    def block(rows):
        np.fft.rfft(frames[rows], axis=1, out=spec[rows])
        np.abs(spec[rows, : cfg.n_f], out=out[rows])

    map_row_blocks(block, frames.shape[0])
    return out


def spectrogram_csv_lines(mags):
    """CSV lines `frame,bin,magnitude` (row-major by frame) for an (L, n_f)
    magnitude array."""
    lines = ["frame,bin,magnitude"]
    for l in range(mags.shape[0]):
        row = mags[l]
        for k in range(mags.shape[1]):
            lines.append(f"{l},{k},{float(row[k])!r}")
    return lines
