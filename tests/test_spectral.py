"""Framing arithmetic and DFT magnitudes against naive references."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from spsgmm.errors import ConfigError, InputError
from spsgmm.spectral import (
    WINDOWS,
    FrameConfig,
    frame_interval,
    magnitude_spectra,
    make_frame_config,
    spectrogram_csv_lines,
)


class TestMakeFrameConfig:
    def test_30ms_at_22050(self):
        cfg = make_frame_config(22050, 30, 1)
        assert (cfg.frame_len, cfg.hop, cfg.n_f) == (662, 22, 331)

    def test_30ms_at_16000(self):
        cfg = make_frame_config(16000, 30, 1)
        assert (cfg.frame_len, cfg.hop) == (480, 16)

    def test_hop_longer_than_frame_is_error(self):
        with pytest.raises(ConfigError):
            make_frame_config(8000, 30, 40)

    def test_nonpositive_hop_is_error(self):
        with pytest.raises(ConfigError):
            make_frame_config(8000, 30, 0)

    def test_odd_rounding_bumps_to_even(self):
        # 0.030 * 22050 = 661.5 rounds half-to-even to 662 already; force an
        # odd product instead
        cfg = make_frame_config(22100, 30, 1)  # 663 -> 664
        assert cfg.frame_len == 664

    def test_config_invariants_enforced(self):
        with pytest.raises(ConfigError):
            FrameConfig(frame_len=7, hop=1)
        with pytest.raises(ConfigError):
            FrameConfig(frame_len=8, hop=0)
        with pytest.raises(ConfigError):
            FrameConfig(frame_len=8, hop=1, window="kaiser")


class TestFrameInterval:
    def test_reference_frame_count(self):
        cfg = FrameConfig(frame_len=662, hop=22)
        frames = frame_interval(np.zeros(22050), cfg)
        assert frames.shape == (973, 662)

    def test_single_frame_when_equal(self):
        cfg = FrameConfig(frame_len=662, hop=22)
        assert frame_interval(np.zeros(662), cfg).shape[0] == 1

    def test_hop_beyond_data(self):
        cfg = FrameConfig(frame_len=662, hop=22050)
        assert frame_interval(np.zeros(22050), cfg).shape[0] == 1

    def test_frame_content_matches_slices(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        cfg = FrameConfig(frame_len=64, hop=17)
        frames = frame_interval(x, cfg)
        for l in range(frames.shape[0]):
            np.testing.assert_array_equal(frames[l], x[l * 17 : l * 17 + 64])

    def test_too_short_is_error(self):
        with pytest.raises(ConfigError):
            frame_interval(np.zeros(10), FrameConfig(frame_len=64, hop=1))

    def test_count_matches_enumeration_on_1000_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            frame = 2 * int(rng.integers(1, 200))
            hop = int(rng.integers(1, 400))
            n = int(rng.integers(frame, 2000))
            got = frame_interval(np.zeros(n), FrameConfig(frame_len=frame, hop=hop)).shape[0]
            want = sum(1 for start in range(0, n, hop) if start + frame <= n)
            assert got == want == (n - frame) // hop + 1


def one_frame(frame, cfg):
    """Magnitudes of a single frame, as a one-row frame array."""
    return magnitude_spectra(np.asarray(frame)[None, :], cfg)[0]


class TestMagnitudeSpectrum:
    def test_zero_frame(self):
        cfg = FrameConfig(frame_len=16, hop=1)
        np.testing.assert_array_equal(one_frame(np.zeros(16), cfg), np.zeros(8))

    @pytest.mark.parametrize("frame_len,m", [(16, 3), (662, 1), (662, 7), (662, 100), (662, 330)])
    def test_exact_bin_cosine_localizes(self, frame_len, m):
        cfg = FrameConfig(frame_len=frame_len, hop=1)
        n = np.arange(frame_len)
        frame = np.cos(2 * np.pi * m * n / frame_len)
        bins = one_frame(frame, cfg)
        n_f = cfg.n_f
        assert abs(bins[m] - n_f) <= 1e-9 * n_f
        others = np.delete(bins, m)
        assert np.all(others <= 1e-9 * n_f)

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.default_rng(1)
        cfg = FrameConfig(frame_len=662, hop=1)
        frame = rng.standard_normal(662)
        base = one_frame(frame, cfg)
        for c in (2.0, 0.5, 1024.0):
            np.testing.assert_array_equal(one_frame(c * frame, cfg), c * base)

    @given(seed=st.integers(0, 10_000))
    def test_naive_dft_agreement_small_n(self, seed):
        rng = np.random.default_rng(seed)
        frame_len = 2 * int(rng.integers(2, 33))  # up to 64
        frame = rng.standard_normal(frame_len)
        for window in ("rect", "hamming"):
            cfg = FrameConfig(frame_len=frame_len, hop=1, window=window)
            windowed = frame * np.hamming(frame_len) if window == "hamming" else frame
            want = [abs(v) for v in oracles.naive_dft(list(windowed))][: cfg.n_f]
            got = one_frame(frame, cfg)
            np.testing.assert_allclose(got, want, atol=1e-9, rtol=0)

    @given(seed=st.integers(0, 10_000))
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        frame_len = 2 * int(rng.integers(2, 400))
        frame = rng.standard_normal(frame_len)
        cfg = FrameConfig(frame_len=frame_len, hop=1)
        bins = one_frame(frame, cfg)
        nyquist = abs(frame @ (-1.0) ** np.arange(frame_len))
        spectral = bins[0] ** 2 + 2 * np.sum(bins[1:] ** 2) + nyquist**2
        temporal = frame_len * np.sum(frame**2)
        assert spectral == pytest.approx(temporal, rel=1e-6)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        cfg = FrameConfig(frame_len=128, hop=1)
        frames = rng.standard_normal((7, 128))
        batch = magnitude_spectra(frames, cfg)
        for l in range(7):
            np.testing.assert_array_equal(batch[l], one_frame(frames[l], cfg))

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("frame_len", [16, 480, 662])
    def test_contiguous_and_equal_to_abs_then_slice(self, frame_len, window):
        cfg = FrameConfig(frame_len=frame_len, hop=1, window=window)
        frames = np.random.default_rng(frame_len).standard_normal((9, frame_len))
        got = magnitude_spectra(frames, cfg)
        assert got.flags.c_contiguous and got.shape == (9, cfg.n_f)
        windowed = frames * np.hamming(frame_len) if window == "hamming" else frames
        np.testing.assert_array_equal(got, np.abs(np.fft.rfft(windowed, axis=1))[:, : cfg.n_f])

    def test_non_finite_sample_is_error(self):
        cfg = FrameConfig(frame_len=16, hop=1)
        frame = np.zeros(16)
        frame[3] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            one_frame(frame, cfg)

    def test_wrong_length_is_error(self):
        cfg = FrameConfig(frame_len=16, hop=1)
        with pytest.raises(InputError):
            one_frame(np.zeros(15), cfg)


def test_spectrogram_csv_shape():
    rng = np.random.default_rng(3)
    mags = np.abs(rng.standard_normal((4, 5)))
    lines = spectrogram_csv_lines(mags)
    assert lines[0] == "frame,bin,magnitude"
    assert len(lines) == 1 + 4 * 5
    assert lines[1].startswith("0,0,")
    frame, bin_, mag = lines[-1].split(",")
    assert (frame, bin_) == ("3", "4")
    assert float(mag) == mags[3, 4]
