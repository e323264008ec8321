"""WAV decoding, mono mixdown, and segmentation into analysis intervals.

load_intervals is the one path from a WAV file or directory to intervals and
their (source id, index), the feature cache's key; it reports each file that
gives no interval, which scan_corpus skips and the CLI refuses."""

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

    samples: np.ndarray  # float64, nominal range [-1, 1]
    sample_rate: int


@dataclass(frozen=True, eq=False)
class AudioInterval:
    """One fixed-duration window of a signal; the unit of classification."""

    samples: np.ndarray
    sample_rate: int
    source_id: str
    index: int
    label: str | None = None  # "speech" | "music" | None


@dataclass
class ScanReport:
    """What a corpus scan skipped and why, plus per-class tallies."""

    skipped: list  # (path, reason)
    n_files: dict  # label -> usable file count
    n_intervals: dict  # label -> interval count

    def render(self):
        lines = [
            f"files: speech={self.n_files.get('speech', 0)} "
            f"music={self.n_files.get('music', 0)}",
            f"intervals: speech={self.n_intervals.get('speech', 0)} "
            f"music={self.n_intervals.get('music', 0)}",
            f"skipped files: {len(self.skipped)}",
        ]
        for path, reason in self.skipped:
            lines.append(f"  {path}: {reason}")
        return "\n".join(lines) + "\n"


def _read_exact(f, n, what):
    data = f.read(n)
    if len(data) != n:
        raise DecodeError(f"{what}: truncated (wanted {n} bytes, got {len(data)})")
    return data


def decode_wav(path):
    """Decode a RIFF/WAVE file (PCM16 or float32, mono or stereo) to a mono
    AudioSignal.  Stereo is mixed down by averaging channels; 16-bit samples
    are scaled by 1/32768."""
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
        samples = raw.astype(np.float64) / 32768.0
    elif tag == _IEEE_FLOAT and bits == 32:
        raw = np.frombuffer(data[: len(data) // 4 * 4], dtype="<f4")
        samples = raw.astype(np.float64)
    else:
        raise DecodeError(
            f"fmt chunk: unsupported format tag 0x{tag:04X} with {bits} bits per sample"
        )
    if channels == 2:
        samples = samples[: len(samples) // 2 * 2].reshape(-1, 2).mean(axis=1)
    if samples.size == 0:
        raise DecodeError("data chunk: no samples")
    return AudioSignal(samples=samples, sample_rate=int(rate))


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
    """Load every decodable file under the two class directories into labeled
    intervals (lexicographic file order, then interval index), each with the
    source id "<label>/<file name>" so equal file names in the two classes
    stay distinct.  Undecodable files are skipped and recorded in the returned
    ScanReport; a class ending up with zero usable intervals is an error that
    lists the files of that class it skipped."""
    for d in (speech_dir, music_dir):
        if not os.path.isdir(d):
            raise InputError(f"not a directory: {d}")
    intervals = []
    report = ScanReport(skipped=[], n_files={}, n_intervals={})
    for label, d in (("speech", speech_dir), ("music", music_dir)):
        ivs, skipped = load_intervals(d, interval_s, label)
        if not ivs:
            raise InputError(
                f"no usable intervals for class {label!r}"
                + "".join(f"\n  {f}: {reason}" for f, reason in skipped)
            )
        intervals += ivs
        report.skipped += skipped
        report.n_files[label] = len({iv.source_id for iv in ivs})
        report.n_intervals[label] = len(ivs)
    return intervals, report
