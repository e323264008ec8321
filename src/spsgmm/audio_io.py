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
_DTYPES = {(_PCM, 16): np.dtype("<i2"), (_IEEE_FLOAT, 32): np.dtype("<f4")}
_SCAN = 1 << 16  # float32 values checked for finiteness at a time


def _widen(data):
    """Mono floating-point samples of decoded data, the one conversion rule:
    16-bit values k become float32 k / 32768, which is exact; float32 values
    are kept as stored; two channels, an (n, 2) array, are averaged in
    float64 and narrowed to float32 when every mean of this array fits it,
    so a slice can read float32 where the whole reads float64, with the same
    values.  A float array of one channel, such as samples built in memory,
    is returned as it is."""
    x = np.divide(data, 32768, dtype=np.float32) if data.dtype.kind == "i" else data
    if x.ndim == 2:
        wide = x.mean(axis=1, dtype=np.float64)
        x = wide.astype(np.float32)
        if not np.array_equal(x, wide):
            x = wide
    return x


@dataclass(frozen=True, eq=False)
class AudioSignal:
    """Audio at a known sample rate.  data holds what decode_wav read (16-bit
    or float32 values, one column per channel), or mono floats built in
    memory; samples gives them as mono floats in [-1, 1], converted on each
    access by _widen."""

    data: np.ndarray
    sample_rate: int

    @property
    def samples(self):
        return _widen(self.data)


@dataclass(frozen=True, eq=False)
class AudioInterval(AudioSignal):
    """One fixed-duration window of a signal; the unit of classification.
    An AudioSignal whose data is a slice of the signal's data, with the
    file it came from, its position there and its class."""

    source_id: str
    index: int
    label: str | None = None  # "speech" | "music" | None


def _check_left(f, n, what):
    # compare with what the file holds before reading: f.read(n) would first
    # allocate whatever size a header claims
    left = max(os.fstat(f.fileno()).st_size - f.tell(), 0)
    if left < n:
        raise DecodeError(f"{what}: truncated (wanted {n} bytes, got {left})")


def _read_exact(f, n, what):
    _check_left(f, n, what)
    return f.read(n)


def decode_wav(path):
    """Decode a RIFF/WAVE file (PCM16 or float32, mono or stereo) to an
    AudioSignal whose data is the data chunk's values as stored, read-only:
    dtype <i2 or <f4, shape (n,) for mono and (n, 2) for stereo.  A trailing
    partial sample or stereo frame is dropped.  float32 data is refused if
    any sample is not finite.

    Nothing is converted here: samples widens on access (see _widen), and
    frame_interval widens one interval at a time to float64, so decoded
    audio costs the file's own bytes.  The file is read once and closed."""
    with open(path, "rb") as f:
        header = _read_exact(f, 12, "RIFF header")
        if header[:4] != b"RIFF" or header[8:12] != b"WAVE":
            raise DecodeError("RIFF header: not a RIFF/WAVE file")
        fmt = None
        data_at = None
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
            else:
                if cid == b"data":
                    _check_left(f, size, "data chunk")
                    data_at = (f.tell(), size)
                f.seek(size, os.SEEK_CUR)
            if size % 2:  # chunks are word aligned
                f.seek(1, os.SEEK_CUR)
        if fmt is None:
            raise DecodeError("fmt chunk: missing")
        if data_at is None:
            raise DecodeError("data chunk: missing")

        tag, channels, rate, bits = fmt
        if channels not in (1, 2):
            raise DecodeError(f"fmt chunk: unsupported channel count {channels}")
        if rate <= 0:
            raise DecodeError(f"fmt chunk: invalid sample rate {rate}")
        dtype = _DTYPES.get((tag, bits))
        if dtype is None:
            raise DecodeError(
                f"fmt chunk: unsupported format tag 0x{tag:04X} with {bits} bits per sample"
            )
        offset, size = data_at
        n = size // (dtype.itemsize * channels)
        if n == 0:
            raise DecodeError("data chunk: no samples")
        f.seek(offset)
        data = np.fromfile(f, dtype, count=n * channels)
    if data.size != n * channels:  # the file shrank since it was measured
        raise DecodeError(f"data chunk: truncated (wanted {size} bytes, got {data.nbytes})")
    data = data.reshape(n, 2) if channels == 2 else data
    data.flags.writeable = False  # intervals share it
    if dtype.kind == "f":
        flat = data.reshape(-1)
        for i in range(0, flat.size, _SCAN):
            if not np.isfinite(flat[i : i + _SCAN]).all():
                raise DecodeError("data chunk: non-finite sample")
    return AudioSignal(data=data, sample_rate=int(rate))


def segment_intervals(sig, interval_s, source_id="", label=None):
    """Cut a signal into consecutive non-overlapping intervals of
    round(interval_s * sample_rate) samples; the trailing remainder is
    dropped.  A signal shorter than one interval is an error."""
    if not 0 < interval_s < np.inf:
        raise InputError(f"interval_s must be finite and positive, got {interval_s}")
    samples = interval_s * sig.sample_rate
    if samples == np.inf:  # round() cannot count it
        raise InputError(f"interval of {interval_s * 1000:g} ms is {samples:g} samples at "
                         f"{sig.sample_rate} Hz, too many to count")
    ilen = round(samples)
    if ilen == 0:
        raise InputError(
            f"interval of {interval_s * 1000:g} ms is under one sample at "
            f"{sig.sample_rate} Hz"
        )
    n = len(sig.data) // ilen
    if n == 0:
        raise InputError(
            f"signal of {len(sig.data)} samples is shorter than one "
            f"{ilen}-sample interval"
        )
    return [
        AudioInterval(
            data=sig.data[i * ilen : (i + 1) * ilen],
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
