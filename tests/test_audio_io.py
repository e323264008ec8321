"""WAV decoding, segmentation, and corpus scanning."""

import numpy as np
import pytest

from spsgmm.audio_io import (
    AudioSignal,
    decode_wav,
    load_intervals,
    scan_corpus,
    segment_intervals,
    write_wav,
)
from spsgmm.errors import DecodeError, InputError
from spsgmm.pipeline import extract_corpus, extract_features

from conftest import SR, wav_bytes


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


class TestSegmentIntervals:
    def test_exact_division(self):
        sig = AudioSignal(samples=np.arange(66150, dtype=float), sample_rate=22050)
        ivs = segment_intervals(sig, 1.0, source_id="x", label="speech")
        assert [iv.index for iv in ivs] == [0, 1, 2]
        assert all(iv.samples.size == 22050 for iv in ivs)
        assert all(iv.label == "speech" and iv.source_id == "x" for iv in ivs)

    def test_trailing_remainder_dropped(self):
        sig = AudioSignal(samples=np.zeros(60000), sample_rate=22050)
        assert len(segment_intervals(sig, 1.0)) == 2

    def test_too_short_is_error(self):
        sig = AudioSignal(samples=np.zeros(4000), sample_rate=8000)
        with pytest.raises(InputError, match="shorter than one"):
            segment_intervals(sig, 1.0)

    def test_interval_under_one_sample_is_error(self):
        sig = AudioSignal(samples=np.zeros(22050), sample_rate=22050)
        with pytest.raises(InputError, match=r"0\.01 ms is under one sample at 22050 Hz"):
            segment_intervals(sig, 0.01 / 1000)  # round(0.2205) -> 0 samples

    @pytest.mark.parametrize("interval_s", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_non_finite_or_nonpositive_interval_is_named(self, interval_s):
        sig = AudioSignal(samples=np.zeros(22050), sample_rate=22050)
        with pytest.raises(InputError, match=f"finite and positive, got {interval_s}"):
            segment_intervals(sig, interval_s)

    def test_concatenation_reproduces_prefix(self):
        rng = np.random.default_rng(4)
        sig = AudioSignal(samples=rng.standard_normal(50000), sample_rate=22050)
        ivs = segment_intervals(sig, 1.0)
        joined = np.concatenate([iv.samples for iv in ivs])
        np.testing.assert_array_equal(joined, sig.samples[: joined.size])

    def test_deterministic(self):
        sig = AudioSignal(samples=np.arange(50000, dtype=float), sample_rate=22050)
        a = segment_intervals(sig, 1.0)
        b = segment_intervals(sig, 1.0)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.samples, y.samples)

    def test_fractional_interval_length_rounds(self):
        sig = AudioSignal(samples=np.zeros(1000), sample_rate=999)
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
        intervals, report = scan_corpus(tmp_path / "speech", tmp_path / "music", 1.0)
        speech = [iv for iv in intervals if iv.label == "speech"]
        assert [(iv.source_id, iv.index) for iv in speech] == [
            ("speech/a.wav", 0),
            ("speech/a.wav", 1),
            ("speech/b.wav", 0),
            ("speech/b.wav", 1),
        ]
        assert report.n_intervals == {"speech": 4, "music": 1}
        assert report.n_files == {"speech": 2, "music": 1}

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
        intervals, report = scan_corpus(tmp_path / "speech", tmp_path / "music", 1.0)
        assert len(intervals) == 2
        assert len(report.skipped) == 1
        assert "broken.wav" in report.skipped[0][0]
        assert "broken.wav" in report.render()

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

    def test_missing_directory_is_error(self, tmp_path):
        with pytest.raises(InputError, match="not a directory"):
            scan_corpus(tmp_path / "nope", tmp_path / "nope2", 1.0)
