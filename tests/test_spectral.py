"""Framing arithmetic and DFT magnitudes against naive references."""

import os
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from spsgmm import _util, spectral
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


def one_rfft_call(frames, cfg):
    """The spectra as one batched rfft, the way smooth lengths compute them."""
    windowed = frames * np.hamming(cfg.frame_len) if cfg.window == "hamming" else frames
    return np.abs(np.fft.rfft(windowed, axis=1)[:, : cfg.n_f])


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
        np.testing.assert_array_equal(got, one_rfft_call(frames, cfg))

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


def meeting_block(barrier):
    """A block function that returns only once `barrier.parties` threads are
    inside it at the same time (or raises BrokenBarrierError on timeout)."""
    def fn(rows):
        barrier.wait()
        return threading.get_ident()

    return fn


@pytest.fixture
def spy_blocks(monkeypatch):
    """The row counts spectral.magnitude_spectra hands to map_row_blocks."""
    calls = []

    def spy(fn, n_rows):
        calls.append(n_rows)
        return _util.map_row_blocks(fn, n_rows)

    monkeypatch.setattr(spectral, "map_row_blocks", spy)
    return calls


class TestRowBlockSplit:
    @pytest.fixture(params=[2, 3])
    def cores(self, request, monkeypatch):
        monkeypatch.setattr(_util, "usable_cores", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("frame_len", [662, 1324])
    @pytest.mark.parametrize("n_frames", [2, 127, 128, 129, 973])
    def test_bit_identical_to_one_rfft_call(self, cores, spy_blocks, n_frames, frame_len, window):
        cfg = FrameConfig(frame_len=frame_len, hop=1, window=window)
        frames = np.random.default_rng(n_frames).standard_normal((n_frames, frame_len))
        got = magnitude_spectra(frames, cfg)
        assert spy_blocks == [n_frames]
        assert got.flags.c_contiguous and got.shape == (n_frames, cfg.n_f)
        np.testing.assert_array_equal(got, one_rfft_call(frames, cfg))

    @pytest.mark.parametrize("frame_len", [480, 240, 1440])
    def test_smooth_lengths_stay_one_call(self, cores, spy_blocks, frame_len):
        cfg = FrameConfig(frame_len=frame_len, hop=1)
        frames = np.random.default_rng(frame_len).standard_normal((300, frame_len))
        np.testing.assert_array_equal(magnitude_spectra(frames, cfg), one_rfft_call(frames, cfg))
        assert spy_blocks == []

    @pytest.mark.parametrize("frame_len", [662, 1324, 882])  # 882 = 2 * 3^2 * 7^2
    def test_lengths_with_a_prime_above_5_split(self, cores, spy_blocks, frame_len):
        cfg = FrameConfig(frame_len=frame_len, hop=1)
        frames = np.random.default_rng(frame_len).standard_normal((300, frame_len))
        np.testing.assert_array_equal(magnitude_spectra(frames, cfg), one_rfft_call(frames, cfg))
        assert spy_blocks == [300]

    def test_one_core_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(_util, "usable_cores", lambda: 1)
        cfg = FrameConfig(frame_len=662, hop=1)
        frames = np.random.default_rng(0).standard_normal((973, 662))
        before = threading.active_count()
        idents = _util.map_row_blocks(lambda rows: threading.get_ident(), 973)
        got = magnitude_spectra(frames, cfg)
        assert threading.active_count() == before
        assert idents == [threading.get_ident()] * 8
        np.testing.assert_array_equal(got, one_rfft_call(frames, cfg))

    def test_blocks_in_order_and_helpers_take_blocks(self, cores):
        assert _util.map_row_blocks(lambda rows: (rows.start, rows.stop), 300) == [
            (0, 128), (128, 256), (256, 300),
        ]
        assert _util.map_row_blocks(lambda rows: rows, 0) == []
        # every worker must be inside a block at once for any block to finish
        idents = _util.map_row_blocks(meeting_block(threading.Barrier(cores, timeout=30)), 128 * cores)
        assert len(set(idents)) == cores

    def test_helper_exception_reaches_the_caller(self, cores):
        caller, raised = threading.get_ident(), threading.Event()

        def fn(rows):
            if threading.get_ident() != caller:
                raised.set()
                raise ValueError(f"block {rows.start}")
            raised.wait(timeout=30)  # leave blocks for the helpers
            return rows.start

        with pytest.raises(ValueError, match="block"):
            _util.map_row_blocks(fn, 128 * 8)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_helpers(self, monkeypatch):
        monkeypatch.setattr(_util, "usable_cores", lambda: 2)
        cfg = FrameConfig(frame_len=662, hop=1)
        frames = np.random.default_rng(5).standard_normal((973, 662))
        want = magnitude_spectra(frames, cfg)  # the parent's pool now has a thread
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                same = np.array_equal(magnitude_spectra(frames, cfg), want)
                met = _util.map_row_blocks(meeting_block(threading.Barrier(2, timeout=20)), 256)
                code = 0 if same and len(set(met)) == 2 else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung")
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_non_finite_sample_raises_before_any_block(self, cores, spy_blocks):
        cfg = FrameConfig(frame_len=662, hop=1)
        frames = np.zeros((973, 662))
        frames[900, 5] = np.inf
        with pytest.raises(InputError, match="non-finite"):
            magnitude_spectra(frames, cfg)
        assert spy_blocks == []


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
