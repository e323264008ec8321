"""WAV decoding, mono mixdown, and segmentation into analysis intervals.

load_intervals is the one path from a WAV file or directory to intervals and
their (source id, index), the feature cache's key.  It and scan_corpus, its
form for a corpus of two class directories, return (intervals, skipped),
where skipped names each file that gave no interval with its reason."""

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DecodeError, InputError

_PCM = 0x0001
_IEEE_FLOAT = 0x0003
_EXTENSIBLE = 0xFFFE


@dataclass(frozen=True, eq=False)
class AudioSignal:
    """Mono floating-point samples at a known sample rate."""

    samples: np.ndarray  # float32 where exact, else float64 (see decode_wav); range [-1, 1]
    sample_rate: int


@dataclass(frozen=True, eq=False)
class AudioInterval:
    """One fixed-duration window of a signal; the unit of classification."""

    samples: np.ndarray
    sample_rate: int
    source_id: str
    index: int
    label: str | None = None  # "speech" | "music" | None


def _read_exact(f, n, what):
    # read no more than the file holds: f.read(n) would first allocate
    # whatever size a header claims
    left = max(os.fstat(f.fileno()).st_size - f.tell(), 0)
    data = f.read(min(n, left))
    if len(data) != n:
        raise DecodeError(f"{what}: truncated (wanted {n} bytes, got {len(data)})")
    return data


def decode_wav(path):
    """Decode a RIFF/WAVE file (PCM16 or float32, mono or stereo) to a mono
    AudioSignal.  16-bit samples are scaled by 1/32768; stereo is mixed
    down by averaging channels in float64.  The samples are kept as float32
    when that holds every value exactly (always for PCM16, mono or stereo,
    and for mono float32), and as float64 otherwise; frame_interval widens
    them to float64 one interval at a time, so the features are the same
    bits either way."""
    with open(path, "rb") as f:
        header = _read_exact(f, 12, "RIFF header")
        if header[:4] != b"RIFF" or header[8:12] != b"WAVE":
            raise DecodeError("RIFF header: not a RIFF/WAVE file")
        fmt = None
        data = None
        while True:
            chunk_hdr = f.read(8)
            if len(chunk_hdr) == 0:
                break
            if len(chunk_hdr) != 8:
                raise DecodeError("chunk header: truncated")
            cid, size = struct.unpack("<4sI", chunk_hdr)
            if cid == b"fmt ":
                body = _read_exact(f, size, "fmt chunk")
                if size < 16:
                    raise DecodeError("fmt chunk: too short")
                tag, channels, rate, _, _, bits = struct.unpack("<HHIIHH", body[:16])
                if tag == _EXTENSIBLE:
                    if size < 40:
                        raise DecodeError("fmt chunk: extensible header too short")
                    tag = struct.unpack("<H", body[24:26])[0]
                fmt = (tag, channels, rate, bits)
            elif cid == b"data":
                data = _read_exact(f, size, "data chunk")
            else:
                f.seek(size, os.SEEK_CUR)
            if size % 2:  # chunks are word aligned
                f.seek(1, os.SEEK_CUR)
        if fmt is None:
            raise DecodeError("fmt chunk: missing")
        if data is None:
            raise DecodeError("data chunk: missing")

    tag, channels, rate, bits = fmt
    if channels not in (1, 2):
        raise DecodeError(f"fmt chunk: unsupported channel count {channels}")
    if rate <= 0:
        raise DecodeError(f"fmt chunk: invalid sample rate {rate}")
    if tag == _PCM and bits == 16:
        raw = np.frombuffer(data[: len(data) // 2 * 2], dtype="<i2")
        samples = np.divide(raw, 32768, dtype=np.float32)  # k / 2**15 is exact
    elif tag == _IEEE_FLOAT and bits == 32:
        raw = np.frombuffer(data[: len(data) // 4 * 4], dtype="<f4")
        if not np.isfinite(raw).all():
            raise DecodeError("data chunk: non-finite sample")
        samples = raw.astype(np.float32)
    else:
        raise DecodeError(
            f"fmt chunk: unsupported format tag 0x{tag:04X} with {bits} bits per sample"
        )
    if channels == 2:  # averaged in float64, kept as float32 where that is exact
        wide = samples[: len(samples) // 2 * 2].reshape(-1, 2).mean(axis=1, dtype=np.float64)
        samples = wide.astype(np.float32)
        if not np.array_equal(samples, wide):
            samples = wide
    if samples.size == 0:
        raise DecodeError("data chunk: no samples")
    return AudioSignal(samples=samples, sample_rate=int(rate))


def segment_intervals(sig, interval_s, source_id="", label=None):
    """Cut a signal into consecutive non-overlapping intervals of
    round(interval_s * sample_rate) samples; the trailing remainder is
    dropped.  A signal shorter than one interval is an error."""
    if not 0 < interval_s < np.inf:
        raise InputError(f"interval_s must be finite and positive, got {interval_s}")
    ilen = round(interval_s * sig.sample_rate)
    if ilen == 0:
        raise InputError(
            f"interval of {interval_s * 1000:g} ms is under one sample at "
            f"{sig.sample_rate} Hz"
        )
    n = sig.samples.size // ilen
    if n == 0:
        raise InputError(
            f"signal of {sig.samples.size} samples is shorter than one "
            f"{ilen}-sample interval"
        )
    return [
        AudioInterval(
            samples=sig.samples[i * ilen : (i + 1) * ilen],
            sample_rate=sig.sample_rate,
            source_id=source_id,
            index=i,
            label=label,
        )
        for i in range(n)
    ]


def load_intervals(path, interval_s, label=None):
    """(intervals, skipped) of a WAV file, or of every file of a directory in
    name order (entries that are not files are ignored).  Each file is decoded
    and cut by segment_intervals, with the source id "<label>/<file name>"
    when labelled and "<file name>" when not; a file that gives no interval
    is left out and listed in skipped as a (path, reason) pair.  A path that
    is neither a file nor a directory is an error."""
    if os.path.isdir(path):
        files = [os.path.join(path, n) for n in sorted(os.listdir(path))]
        files = [f for f in files if os.path.isfile(f)]
    elif os.path.isfile(path):
        files = [path]
    else:
        raise InputError(f"no such file or directory: {path}")
    intervals, skipped = [], []
    for f in files:
        name = os.path.basename(f)
        source_id = name if label is None else f"{label}/{name}"
        try:
            intervals += segment_intervals(decode_wav(f), interval_s, source_id, label)
        except (DecodeError, InputError) as exc:
            skipped.append((f, str(exc)))
    return intervals, skipped


def scan_corpus(speech_dir, music_dir, interval_s=1.0):
    """(intervals, skipped) of the two class directories: what load_intervals
    gives for each with its label, speech first.  The source id
    "<label>/<file name>" keeps equal file names of the two classes
    distinct.  A class ending up with zero usable intervals is an error
    that lists the files of that class it skipped, and so is a corpus of
    more than one sample rate, whose features could not share a model."""
    for d in (speech_dir, music_dir):
        if not os.path.isdir(d):
            raise InputError(f"not a directory: {d}")
    intervals, skipped = [], []
    for label, d in (("speech", speech_dir), ("music", music_dir)):
        ivs, bad = load_intervals(d, interval_s, label)
        if not ivs:
            raise InputError(
                f"no usable intervals for class {label!r}"
                + "".join(f"\n  {f}: {reason}" for f, reason in bad)
            )
        intervals += ivs
        skipped += bad
    at = {iv.sample_rate: iv.source_id for iv in intervals}  # one file at each rate
    if len(at) > 1:
        raise InputError("refusing a corpus of more than one sample rate: "
                         + ", ".join(f"{r} Hz ({s})" for r, s in sorted(at.items())))
    return intervals, skipped
