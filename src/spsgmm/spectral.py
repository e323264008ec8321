"""Framing and half-spectrum magnitudes.

An interval is sliced into L overlapping frames of an even length 2*n_f; each
frame is windowed and transformed with an exact-length DFT (no zero padding —
padding would move peak bins, and peak bins are the feature substrate).  Only
bins 0..n_f-1 are kept.
"""

from dataclasses import dataclass

import numpy as np

from ._util import cells, csv_text, map_row_blocks
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


def check_frame(frame_ms, hop_ms):
    """Refuse frame and hop durations that make_frame_config cannot use."""
    if not np.inf > frame_ms > hop_ms > 0:
        raise ConfigError(f"need finite frame_ms > hop_ms > 0, got {frame_ms}/{hop_ms}")


def make_frame_config(sample_rate, frame_ms, hop_ms, window="rect"):
    """Frame/hop lengths in samples from durations in milliseconds.  The
    frame length is rounded to the nearest sample and bumped up to the next
    even number so the half-spectrum size n_f is well defined."""
    check_frame(frame_ms, hop_ms)
    samples = frame_ms * sample_rate / 1000  # above the hop's, as frame_ms > hop_ms
    if not 0.5 < samples < np.inf:  # round() would give 0, or fail
        raise ConfigError(f"frame of {frame_ms:g} ms is {samples:g} samples at {sample_rate} Hz, "
                          "which rounds to no usable frame length")
    frame_len = round(samples)
    if frame_len % 2:
        frame_len += 1
    hop = max(1, round(hop_ms * sample_rate / 1000))
    return FrameConfig(frame_len=frame_len, hop=hop, window=window)


def frame_interval(interval, cfg):
    """(L, frame_len) view of the interval's samples as float64; frame l
    starts at l*hop, and a final partial frame is dropped.  Narrower samples
    are widened here, one interval's worth, so the frame stack is never
    converted."""
    x = np.asarray(interval.samples if hasattr(interval, "samples") else interval, np.float64)
    if x.size < cfg.frame_len:
        raise ConfigError(
            f"frame_len {cfg.frame_len} exceeds interval length {x.size}"
        )
    return np.lib.stride_tricks.sliding_window_view(x, cfg.frame_len)[:: cfg.hop]


def magnitude_spectra(frames, cfg):
    """|DFT| of every frame, bins 0..n_f-1, as an (L, n_f) array.

    numpy's pocketfft evaluates the exact mixed-radix/Bluestein transform for
    any length, so frame_len never needs padding.  It transforms each row on
    its own, so a block of rows gives the same bits as the whole array: row
    blocks go to every usable core, at every frame length."""
    frames = np.asarray(frames, np.float64)
    if frames.ndim != 2 or frames.shape[1] != cfg.frame_len:
        raise InputError(
            f"expected frames of shape (L, {cfg.frame_len}), got {frames.shape}"
        )
    if not np.isfinite(frames).all():
        raise InputError("non-finite sample in frame")
    if cfg.window == "hamming":
        frames = frames * np.hamming(cfg.frame_len)
    # The full complex spectrum is allocated once, as one rfft call would, and
    # not block by block.  Freeing a buffer this large (3.7 MB at 16 kHz and
    # 5.2 MB at 22050 Hz, for 1 s at the default hop) raises glibc's mmap and
    # trim thresholds above the later stages' temporaries, so build_peak_matrix
    # and the stages after it reuse heap pages instead of faulting in new ones
    # every interval.
    spec = np.empty((frames.shape[0], cfg.n_f + 1), np.complex128)
    out = np.empty((frames.shape[0], cfg.n_f))

    def block(rows):
        np.fft.rfft(frames[rows], axis=1, out=spec[rows])
        np.abs(spec[rows, : cfg.n_f], out=out[rows])

    map_row_blocks(block, frames.shape[0])
    return out


def spectrogram_csv(mags):
    """CSV `frame,bin,magnitude` (row-major by frame) of an (L, n_f)
    magnitude array."""
    return csv_text(("frame", "bin", "magnitude"), cells(mags.tolist()))
