"""WAV decoding, segmentation, and corpus scanning."""

import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from experiments.conditions import music_interval, speech_interval, write_wav
from spsgmm.audio_io import (
    AudioInterval,
    AudioSignal,
    decode_wav,
    load_intervals,
    scan_corpus,
    segment_intervals,
)
from spsgmm.errors import DecodeError, InputError
from spsgmm.pipeline import extract_corpus, extract_features
from spsgmm.spectral import frame_interval, magnitude_spectra, make_frame_config
from spsgmm.sps_core import build_peak_matrix

from conftest import SR, fmt_chunk_bytes, wav_bytes


def _riff(*chunks):
    """A RIFF/WAVE file of the (id, body) chunks, each word aligned."""
    body = b"".join(cid + struct.pack("<I", len(b)) + b + b"\x00" * (len(b) % 2)
                    for cid, b in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


_FMT = (b"fmt ", fmt_chunk_bytes(1, 1, SR, 16))
_DATA = (b"data", struct.pack("<h", 16384))


class TestDecodeWav:
    def test_pcm16_scaling(self, make_wav):
        path = make_wav("a.wav", np.array([0, 16384, -32768], np.int16))
        sig = decode_wav(path)
        assert sig.sample_rate == SR
        np.testing.assert_array_equal(sig.samples, [0.0, 0.5, -1.0])

    def test_stereo_channel_average(self, make_wav):
        path = make_wav("a.wav", np.array([[1000, -1000]], np.int16))
        np.testing.assert_array_equal(decode_wav(path).samples, [0.0])

    def test_length_and_rate_passthrough(self, make_wav):
        path = make_wav("a.wav", np.zeros(44100, np.int16), sample_rate=22050)
        sig = decode_wav(path)
        assert sig.samples.size == 44100
        assert sig.sample_rate == 22050

    def test_float32_values(self, make_wav):
        vals = np.array([0.25, -0.5, 1.0], np.float32)
        path = make_wav("a.wav", vals, fmt="float32")
        np.testing.assert_array_equal(decode_wav(path).samples, vals.astype(np.float64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_non_finite_float_sample_refused(self, make_wav, bad, channels):
        vals = np.zeros((4, channels), np.float32)
        vals[2, -1] = bad
        path = make_wav("a.wav", vals, fmt="float32")
        with pytest.raises(DecodeError, match="data chunk: non-finite sample"):
            decode_wav(path)

    def test_stereo_identical_channels_equals_mono(self, make_wav):
        rng = np.random.default_rng(1)
        mono = rng.integers(-30000, 30000, 64).astype(np.int16)
        p_mono = make_wav("m.wav", mono)
        p_stereo = make_wav("s.wav", np.stack([mono, mono], axis=1))
        np.testing.assert_array_equal(
            decode_wav(p_mono).samples, decode_wav(p_stereo).samples
        )

    def test_extensible_header(self, make_wav):
        path = make_wav("a.wav", np.array([16384], np.int16), extensible=True)
        np.testing.assert_array_equal(decode_wav(path).samples, [0.5])

    def test_extra_chunks_skipped(self, make_wav):
        path = make_wav(
            "a.wav",
            np.array([16384], np.int16),
            pre_chunks=[(b"LIST", b"INFOabc")],  # odd size: checks word align
        )
        np.testing.assert_array_equal(decode_wav(path).samples, [0.5])

    def test_unsupported_codec_names_chunk(self, tmp_path):
        raw = wav_bytes(np.array([0], np.int16))
        # flip the format tag to 0x0055 (an unsupported codec id)
        idx = raw.index(b"fmt ") + 8
        raw = raw[:idx] + b"\x55\x00" + raw[idx + 2 :]
        path = tmp_path / "bad.wav"
        path.write_bytes(raw)
        with pytest.raises(DecodeError, match="fmt chunk"):
            decode_wav(path)

    def test_unsupported_bit_depth(self, tmp_path):
        raw = wav_bytes(np.array([0], np.int16))
        idx = raw.index(b"fmt ") + 8 + 14  # bits-per-sample field
        raw = raw[:idx] + b"\x08\x00" + raw[idx + 2 :]
        path = tmp_path / "bad.wav"
        path.write_bytes(raw)
        with pytest.raises(DecodeError, match="unsupported format"):
            decode_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        raw = wav_bytes(np.arange(100, dtype=np.int16))
        path = tmp_path / "bad.wav"
        path.write_bytes(raw[:-50])
        with pytest.raises(DecodeError, match="truncated"):
            decode_wav(path)

    def test_file_shrunk_after_its_size_was_read(self, tmp_path, monkeypatch):
        """The samples are read after the header's size claim was checked;
        a file that holds fewer bytes by then is refused, not cut short."""
        raw = wav_bytes(np.arange(100, dtype=np.int16))
        path = tmp_path / "bad.wav"
        path.write_bytes(raw[:-50])
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            (*real_fstat(fd)[:6], len(raw), *real_fstat(fd)[7:])))
        with pytest.raises(DecodeError) as exc:
            decode_wav(path)
        assert str(exc.value) == "data chunk: truncated (wanted 200 bytes, got 150)"

    def test_claimed_chunk_size_is_not_allocated(self, tmp_path):
        """A data chunk claiming 0xFFFFFFF0 bytes of a 52-byte file is refused
        without first reserving the 4 GB it claims."""
        raw = wav_bytes(np.arange(4, dtype=np.int16))
        idx = raw.index(b"data") + 4
        path = tmp_path / "huge.wav"
        path.write_bytes(raw[:idx] + struct.pack("<I", 0xFFFFFFF0) + raw[idx + 4 :])
        assert path.stat().st_size == 52
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError) as exc:
                decode_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "data chunk: truncated (wanted 4294967280 bytes, got 8)"
        assert peak < 1e6

    # A data chunk that ends inside a sample or a stereo frame keeps its whole
    # samples or frames and drops the rest.
    def test_odd_byte_of_pcm16_dropped(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(_with_tail(np.array([16384, -16384], np.int16), b"\x7f"))
        np.testing.assert_array_equal(decode_wav(path).samples, [0.5, -0.5])

    @pytest.mark.parametrize("fmt, tail", [
        ("pcm16", b"\x00\x40"), ("pcm16", b"\x00"), ("pcm16", b"\x00\x40\x00"),
        ("float32", struct.pack("<f", 0.5)), ("float32", b"\x00\x00\x00\x3f\x00"),
    ])
    def test_half_frame_of_stereo_dropped(self, tmp_path, fmt, tail):
        vals = np.array([[16384, 0], [-16384, -16384]], np.int16)
        if fmt == "float32":
            vals = vals / 32768
        path = tmp_path / "a.wav"
        path.write_bytes(_with_tail(vals, tail, fmt=fmt))
        np.testing.assert_array_equal(decode_wav(path).samples, [0.25, -0.5])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_partial_float32_sample_dropped(self, tmp_path, n):
        path = tmp_path / "a.wav"
        # four 0xff bytes would be a NaN, which decoding refuses
        path.write_bytes(_with_tail(np.array([0.25, -0.5], np.float32), b"\xff" * n, fmt="float32"))
        np.testing.assert_array_equal(decode_wav(path).samples, [0.25, -0.5])

    @pytest.mark.parametrize("raw, message", [
        (_riff(_FMT, _DATA) + b"LIS", "chunk header: truncated"),
        (_riff((b"fmt ", _FMT[1][:14]), _DATA), "fmt chunk: too short"),
        (_riff((b"fmt ", struct.pack("<H", 0xFFFE) + _FMT[1][2:]), _DATA),
         "fmt chunk: extensible header too short"),
        (_riff(_DATA), "fmt chunk: missing"),
        (_riff((b"fmt ", fmt_chunk_bytes(1, 3, SR, 16)), _DATA),
         "fmt chunk: unsupported channel count 3"),
        (_riff((b"fmt ", fmt_chunk_bytes(1, 1, 0, 16)), _DATA), "fmt chunk: invalid sample rate 0"),
        (_riff(_FMT, (b"data", b"")), "data chunk: no samples"),
    ], ids=["short-chunk-header", "short-fmt", "short-extensible-fmt", "no-fmt",
            "three-channels", "zero-rate", "empty-data"])
    def test_malformed_chunk_refused_by_name(self, tmp_path, raw, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(raw)
        with pytest.raises(DecodeError) as exc:
            decode_wav(path)
        assert str(exc.value) == message

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(DecodeError, match="RIFF"):
            decode_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        raw = wav_bytes(np.array([0], np.int16))
        path = tmp_path / "bad.wav"
        path.write_bytes(raw[: raw.index(b"data")])
        with pytest.raises(DecodeError, match="data chunk"):
            decode_wav(path)

    def test_write_wav_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 500)
        p16 = tmp_path / "a16.wav"
        write_wav(p16, x, SR, fmt="pcm16")
        got = decode_wav(p16)
        assert got.sample_rate == SR
        np.testing.assert_allclose(got.samples, x, atol=1.0 / 32768)
        pf = tmp_path / "af.wav"
        write_wav(pf, x, SR, fmt="float32")
        np.testing.assert_array_equal(
            decode_wav(pf).samples, x.astype(np.float32).astype(np.float64)
        )


def _with_tail(values, tail, **kw):
    """wav_bytes of the values with the bytes tail appended to the data chunk,
    its last chunk, and the pad byte that an odd chunk size needs."""
    raw = wav_bytes(values, **kw)
    at = raw.index(b"data") + 4
    size = struct.unpack("<I", raw[at : at + 4])[0] + len(tail)
    body = raw[:at] + struct.pack("<I", size) + raw[at + 4 :] + tail + b"\x00" * (size % 2)
    return body[:4] + struct.pack("<I", len(body) - 8) + body[8:]


def float64_decode(raw, fmt):
    """The decoder's float64 formula, (n,) mono or (n, 2) stereo raw values:
    16-bit values over 32768 or float32 values widened, then the mean of the
    two channels."""
    x = raw.astype(np.float64) / 32768.0 if fmt == "pcm16" else raw.astype(np.float64)
    return x.mean(axis=1) if x.ndim == 2 else x


def _raw(fmt, channels, seed):
    rng = np.random.default_rng(seed)
    shape = (4000, channels) if channels == 2 else (4000,)
    if fmt == "pcm16":
        raw = rng.integers(-32768, 32768, shape).astype(np.int16)
        raw.flat[:4] = [-32768, 32767, -1, 1]  # the extremes and the smallest steps
        return raw
    return rng.uniform(-1, 1, shape).astype(np.float32)


class TestDecodedDtype:
    """Decoded samples are float32 where float32 holds every value of the
    float64 formula exactly, float64 otherwise; no feature sees the
    difference, because frame_interval widens each interval to float64."""

    @pytest.mark.parametrize(
        "fmt, channels, dtype",
        [
            ("pcm16", 1, np.float32),
            ("pcm16", 2, np.float32),  # (a + b) / 65536 has at most 17 significant bits
            ("float32", 1, np.float32),
            ("float32", 2, np.float64),  # the mean of two float32 values needs 25 bits
        ],
    )
    def test_dtype_and_values(self, make_wav, fmt, channels, dtype):
        raw = _raw(fmt, channels, seed=channels)
        sig = decode_wav(make_wav("a.wav", raw, fmt=fmt))
        assert sig.samples.dtype == dtype
        want = float64_decode(raw, fmt)
        assert np.array_equal(sig.samples.astype(np.float64), want)

    def test_float32_stereo_mean_that_fits_stays_float32(self, make_wav):
        rng = np.random.default_rng(5)
        raw = (rng.integers(-1024, 1025, (4000, 2)) / 1024).astype(np.float32)
        raw[::2, 1] = raw[::2, 0]  # equal channels: the mean is either one
        tiny, big = np.finfo(np.float32).smallest_subnormal, np.finfo(np.float32).max
        raw[:2] = [[tiny, tiny], [big, big]]
        sig = decode_wav(make_wav("a.wav", raw, fmt="float32"))
        assert sig.samples.dtype == np.float32
        assert np.array_equal(sig.samples.astype(np.float64), float64_decode(raw, "float32"))

    def test_pcm16_kept_at_four_bytes_a_sample(self, make_wav):
        # widening at decode would double the memory of every decoded corpus
        sig = decode_wav(make_wav("a.wav", _raw("pcm16", 1, seed=3)))
        samples = sig.samples
        assert samples.nbytes == 4 * samples.size
        intervals = segment_intervals(AudioSignal(samples, 1000), 1.0)
        assert len(intervals) == 4
        assert all(np.shares_memory(iv.samples, samples) for iv in intervals)

    @pytest.mark.parametrize("rate, fmt, channels", [
        pytest.param(rate, fmt, channels, id=f"{rate}-{fmt}" + ("-stereo" if channels == 2 else ""))
        for rate in (16000, 22050, 44100)
        for fmt in ("pcm16", "float32")
        for channels in (1, 2)
    ])
    def test_features_same_bits_as_float64_copy(self, make_wav, rate, fmt, channels):
        rng = np.random.default_rng(rate)
        x = speech_interval(rng, rate)
        if channels == 2:
            x = np.stack([x, music_interval(rng, rate)], axis=1)
        raw = (np.clip(np.rint(x * 32768), -32768, 32767).astype(np.int16) if fmt == "pcm16"
               else x.astype(np.float32))
        sig = decode_wav(make_wav("a.wav", raw, sample_rate=rate, fmt=fmt))
        (narrow,) = segment_intervals(sig, 1.0, "a.wav", "speech")
        assert np.shares_memory(narrow.data, sig.data)
        if (fmt, channels) != ("float32", 2):  # that mean needs float64 (TestDecodedDtype)
            assert narrow.samples.dtype == np.float32
        wide = AudioInterval(
            data=float64_decode(raw, fmt),
            sample_rate=rate,
            source_id="a.wav",
            index=0,
            label="speech",
        )
        cfg = make_frame_config(rate, 30.0, 1.0)
        frames = frame_interval(narrow, cfg)
        assert frames.dtype == np.float64
        assert np.array_equal(frames, frame_interval(wide, cfg))
        peaks = [
            build_peak_matrix(magnitude_spectra(frame_interval(iv, cfg), cfg), 20).data
            for iv in (narrow, wide)
        ]
        assert peaks[0].tobytes() == peaks[1].tobytes()
        got, _ = extract_features(narrow)
        want, _ = extract_features(wide)
        assert got.keys() == want.keys() == {"sps_p", "sps_zcr", "sps_scg", "early_fused"}
        for kind in want:
            assert got[kind].values.dtype == want[kind].values.dtype == np.float64
            assert got[kind].values.tobytes() == want[kind].values.tobytes()


class TestRawData:
    """Decoded audio is the data chunk's values as stored, read-only, and
    each interval a slice of them; samples are widened on access."""

    @pytest.mark.parametrize("fmt, channels", [("pcm16", 1), ("pcm16", 2), ("float32", 1), ("float32", 2)])
    def test_intervals_are_slices_of_the_raw_values(self, make_wav, fmt, channels):
        raw = _raw(fmt, channels, seed=4)
        sig = decode_wav(make_wav("a.wav", raw, sample_rate=1000, fmt=fmt))
        assert not sig.data.flags.writeable
        assert sig.data.dtype == ("<i2" if fmt == "pcm16" else "<f4")
        assert sig.data.shape == raw.shape
        intervals = segment_intervals(sig, 1.0)
        assert len(intervals) == 4
        for iv in intervals:
            assert np.shares_memory(iv.data, sig.data)
            assert np.array_equal(iv.samples.astype(np.float64),
                                  float64_decode(raw, fmt)[iv.index * 1000 : (iv.index + 1) * 1000])

    def test_in_memory_floats_pass_through(self):
        x = np.linspace(-1, 1, 8)
        assert AudioSignal(x, 8).samples is x
        assert AudioInterval(x, 8, "x", 0).samples is x

    def test_load_intervals_holds_the_file_bytes(self, tmp_path):
        """60 s of 44.1 kHz PCM16 is 5.3 MB of samples; a float32 copy of
        them would add 10.6 MB."""
        path = tmp_path / "long.wav"
        write_wav(path, np.random.default_rng(0).uniform(-0.5, 0.5, 60 * 44100), 44100)
        tracemalloc.start()
        try:
            intervals, skipped = load_intervals(path, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(intervals) == 60 and skipped == []
        assert peak < 60 * 44100 * 2 + 1e6

    def test_float32_scan_holds_the_file_bytes(self, tmp_path):
        """decode_wav checks every float32 sample for finiteness, in pieces of
        bounded size: 60 s of 44.1 kHz float32 is 10.6 MB of samples."""
        path = tmp_path / "long.wav"
        write_wav(path, np.random.default_rng(0).uniform(-0.5, 0.5, 60 * 44100), 44100, fmt="float32")
        tracemalloc.start()
        try:
            sig = decode_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * 44100 * 4 + 1e6
        assert len(sig.data) == 60 * 44100

    def test_more_files_than_descriptors(self, tmp_path):
        """Decoded files hold no open descriptor: a directory of more files
        than the process may have open at once decodes whole."""
        rng = np.random.default_rng(5)
        for i in range(80):
            write_wav(tmp_path / f"{i:02d}.wav", rng.uniform(-0.5, 0.5, SR // 10), SR)
        script = (
            "import resource, sys\n"
            "from spsgmm.audio_io import load_intervals\n"
            "hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (48, hard))\n"
            "intervals, skipped = load_intervals(sys.argv[1], 0.1)\n"
            "print(len(intervals), len(skipped))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["80", "0"]


class TestSegmentIntervals:
    def test_exact_division(self):
        sig = AudioSignal(data=np.arange(66150, dtype=float), sample_rate=22050)
        ivs = segment_intervals(sig, 1.0, source_id="x", label="speech")
        assert [iv.index for iv in ivs] == [0, 1, 2]
        assert all(iv.samples.size == 22050 for iv in ivs)
        assert all(iv.label == "speech" and iv.source_id == "x" for iv in ivs)

    def test_trailing_remainder_dropped(self):
        sig = AudioSignal(data=np.zeros(60000), sample_rate=22050)
        assert len(segment_intervals(sig, 1.0)) == 2

    def test_too_short_is_error(self):
        sig = AudioSignal(data=np.zeros(4000), sample_rate=8000)
        with pytest.raises(InputError, match="shorter than one"):
            segment_intervals(sig, 1.0)

    def test_interval_under_one_sample_is_error(self):
        sig = AudioSignal(data=np.zeros(22050), sample_rate=22050)
        with pytest.raises(InputError, match=r"0\.01 ms is under one sample at 22050 Hz"):
            segment_intervals(sig, 0.01 / 1000)  # round(0.2205) -> 0 samples

    def test_interval_too_long_to_count_is_error(self):
        sig = AudioSignal(data=np.zeros(22050), sample_rate=22050)
        with pytest.raises(InputError, match=r"1e\+308 ms is inf samples at 22050 Hz, too many"):
            segment_intervals(sig, 1e305)  # 2.2e309 samples: round(inf) would overflow

    @pytest.mark.parametrize("interval_s", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_non_finite_or_nonpositive_interval_is_named(self, interval_s):
        sig = AudioSignal(data=np.zeros(22050), sample_rate=22050)
        with pytest.raises(InputError, match=f"finite and positive, got {interval_s}"):
            segment_intervals(sig, interval_s)

    def test_concatenation_reproduces_prefix(self):
        rng = np.random.default_rng(4)
        sig = AudioSignal(data=rng.standard_normal(50000), sample_rate=22050)
        ivs = segment_intervals(sig, 1.0)
        joined = np.concatenate([iv.samples for iv in ivs])
        np.testing.assert_array_equal(joined, sig.samples[: joined.size])

    def test_deterministic(self):
        sig = AudioSignal(data=np.arange(50000, dtype=float), sample_rate=22050)
        a = segment_intervals(sig, 1.0)
        b = segment_intervals(sig, 1.0)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.samples, y.samples)

    def test_fractional_interval_length_rounds(self):
        sig = AudioSignal(data=np.zeros(1000), sample_rate=999)
        ivs = segment_intervals(sig, 0.5)  # round(499.5) -> 500 samples
        assert ivs[0].samples.size == 500


class TestLoadIntervals:
    @pytest.fixture
    def folder(self, tmp_path):
        rng = np.random.default_rng(8)
        d = tmp_path / "in"
        d.mkdir()
        for name, seconds in (("b.wav", 1), ("a.wav", 2)):
            write_wav(d / name, rng.uniform(-0.5, 0.5, seconds * SR), SR)
        (d / "0-sub").mkdir()  # not a file, so ignored
        write_wav(d / "0-sub" / "c.wav", rng.uniform(-0.5, 0.5, SR), SR)
        return d

    def test_file_gives_unlabelled_ids(self, folder):
        intervals, skipped = load_intervals(folder / "a.wav", 1.0)
        assert [(iv.source_id, iv.index, iv.label) for iv in intervals] == [
            ("a.wav", 0, None),
            ("a.wav", 1, None),
        ]
        assert skipped == []

    def test_directory_in_name_order(self, folder):
        intervals, skipped = load_intervals(folder, 1.0)
        assert [(iv.source_id, iv.index) for iv in intervals] == [
            ("a.wav", 0),
            ("a.wav", 1),
            ("b.wav", 0),
        ]
        assert skipped == []
        np.testing.assert_array_equal(
            intervals[2].samples, decode_wav(folder / "b.wav").samples
        )

    def test_labelled_ids(self, folder):
        intervals, _ = load_intervals(folder, 1.0, label="music")
        assert [(iv.source_id, iv.label) for iv in intervals] == [
            ("music/a.wav", "music"),
            ("music/a.wav", "music"),
            ("music/b.wav", "music"),
        ]

    def test_files_without_intervals_are_skipped_with_reasons(self, folder):
        (folder / "c.wav").write_bytes(b"not audio")
        intervals, skipped = load_intervals(folder, 1.5)
        assert [(iv.source_id, iv.index) for iv in intervals] == [("a.wav", 0)]
        assert skipped == [
            (str(folder / "b.wav"), "signal of 22050 samples is shorter than one 33075-sample interval"),
            (str(folder / "c.wav"), "RIFF header: truncated (wanted 12 bytes, got 9)"),
        ]

    def test_missing_path_is_error(self, tmp_path):
        with pytest.raises(InputError, match="no such file or directory"):
            load_intervals(tmp_path / "ghost.wav", 1.0)


class TestScanCorpus:
    def test_labels_order_and_counts(self, tmp_path):
        rng = np.random.default_rng(5)
        for d in ("speech", "music"):
            (tmp_path / d).mkdir()
        for name in ("b.wav", "a.wav"):
            write_wav(tmp_path / "speech" / name, rng.uniform(-0.5, 0.5, int(2.5 * SR)), SR)
        write_wav(tmp_path / "music" / "c.wav", rng.uniform(-0.5, 0.5, SR), SR)
        intervals, skipped = scan_corpus(tmp_path / "speech", tmp_path / "music", 1.0)
        assert [(iv.source_id, iv.index, iv.label) for iv in intervals] == [
            ("speech/a.wav", 0, "speech"),
            ("speech/a.wav", 1, "speech"),
            ("speech/b.wav", 0, "speech"),
            ("speech/b.wav", 1, "speech"),
            ("music/c.wav", 0, "music"),
        ]
        assert skipped == []

    def test_equals_the_two_labelled_loads(self, tmp_path):
        rng = np.random.default_rng(8)
        for d in ("speech", "music"):
            (tmp_path / d).mkdir()
            for name in ("x.wav", "y.wav"):
                write_wav(tmp_path / d / name, rng.uniform(-0.5, 0.5, int(1.5 * SR)), SR)
        write_wav(tmp_path / "speech" / "short.wav", np.zeros(SR // 2), SR)
        (tmp_path / "music" / "notes.txt").write_text("not audio")
        intervals, skipped = scan_corpus(tmp_path / "speech", tmp_path / "music", 1.0)
        speech, speech_skipped = load_intervals(tmp_path / "speech", 1.0, "speech")
        music, music_skipped = load_intervals(tmp_path / "music", 1.0, "music")

        def keys(ivs):
            return [(iv.source_id, iv.index, iv.label) for iv in ivs]

        assert keys(intervals) == keys(speech + music)
        for got, want in zip(intervals, speech + music):
            np.testing.assert_array_equal(got.samples, want.samples)
        assert skipped == speech_skipped + music_skipped
        assert [f for f, _ in skipped] == [
            str(tmp_path / "speech" / "short.wav"),
            str(tmp_path / "music" / "notes.txt"),
        ]

    def test_same_file_name_in_both_classes_keeps_distinct_keys(self, tmp_path):
        rng = np.random.default_rng(7)
        for d in ("speech", "music"):
            (tmp_path / d).mkdir()
            write_wav(tmp_path / d / "f0.wav", rng.uniform(-0.5, 0.5, 2 * SR), SR)
        intervals, _ = scan_corpus(tmp_path / "speech", tmp_path / "music", 1.0)
        cache, _ = extract_corpus(intervals, p=3)
        assert len(intervals) == len(cache) == 4
        for iv in intervals:
            want, _ = extract_features(iv, p=3)
            got = cache[(iv.source_id, iv.index)]["sps_scg"]
            assert got.label == iv.label
            np.testing.assert_array_equal(got.values, want["sps_scg"].values)

    def test_undecodable_file_skipped_and_reported(self, tmp_path):
        rng = np.random.default_rng(6)
        for d in ("speech", "music"):
            (tmp_path / d).mkdir()
            write_wav(tmp_path / d / "ok.wav", rng.uniform(-0.5, 0.5, SR), SR)
        (tmp_path / "speech" / "broken.wav").write_bytes(b"not a wav at all")
        intervals, skipped = scan_corpus(tmp_path / "speech", tmp_path / "music", 1.0)
        assert len(intervals) == 2
        assert skipped == [
            (str(tmp_path / "speech" / "broken.wav"), "RIFF header: not a RIFF/WAVE file")
        ]

    def test_empty_class_is_error(self, tmp_path):
        rng = np.random.default_rng(7)
        for d in ("speech", "music"):
            (tmp_path / d).mkdir()
        write_wav(tmp_path / "speech" / "ok.wav", rng.uniform(-0.5, 0.5, SR), SR)
        with pytest.raises(InputError, match="music"):
            scan_corpus(tmp_path / "speech", tmp_path / "music", 1.0)

    def test_empty_class_error_lists_its_skipped_files(self, tmp_path):
        rng = np.random.default_rng(9)
        for d in ("speech", "music"):
            (tmp_path / d).mkdir()
        write_wav(tmp_path / "speech" / "short.wav", rng.uniform(-0.5, 0.5, SR), SR)
        (tmp_path / "speech" / "notes.txt").write_text("not audio")
        write_wav(tmp_path / "music" / "long.wav", rng.uniform(-0.5, 0.5, 3 * SR), SR)
        with pytest.raises(InputError) as err:
            scan_corpus(tmp_path / "speech", tmp_path / "music", 2.0)
        assert str(err.value).splitlines() == [
            "no usable intervals for class 'speech'",
            f"  {tmp_path / 'speech' / 'notes.txt'}: RIFF header: truncated (wanted 12 bytes, got 9)",
            f"  {tmp_path / 'speech' / 'short.wav'}: signal of 22050 samples is shorter than one "
            "44100-sample interval",
        ]

    def test_more_than_one_sample_rate_is_error(self, tmp_path):
        rng = np.random.default_rng(4)
        for d in ("speech", "music"):
            (tmp_path / d).mkdir()
            write_wav(tmp_path / d / "a.wav", rng.uniform(-0.5, 0.5, SR), SR)
        write_wav(tmp_path / "speech" / "b.wav", rng.uniform(-0.5, 0.5, 16000), 16000)
        write_wav(tmp_path / "music" / "c.wav", rng.uniform(-0.5, 0.5, 44100), 44100)
        with pytest.raises(InputError) as err:
            scan_corpus(tmp_path / "speech", tmp_path / "music", 1.0)
        assert str(err.value) == (
            "refusing a corpus of more than one sample rate: "
            "16000 Hz (speech/b.wav), 22050 Hz (music/a.wav), 44100 Hz (music/c.wav)"
        )

    def test_missing_directory_is_error(self, tmp_path):
        with pytest.raises(InputError, match="not a directory"):
            scan_corpus(tmp_path / "nope", tmp_path / "nope2", 1.0)
