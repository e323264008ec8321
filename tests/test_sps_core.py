"""Peak detection, prominent-peak selection, and the peak-sequence matrix."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from spsgmm.errors import InputError
from spsgmm.sps_core import (
    PeakSet,
    build_peak_matrix,
    detect_peaks,
    select_prominent,
    sps_csv_lines,
)
from spsgmm.spectral import (
    frame_interval,
    magnitude_spectra,
    make_frame_config,
)


def _random_spectra(rng, L, n_bins, quantize=False):
    mags = np.abs(rng.standard_normal((L, n_bins)))
    if quantize:  # low-resolution amplitudes force plenty of exact ties
        mags = np.round(mags * 4) / 4
    return mags


class TestDetectPeaks:
    def test_reference_example(self):
        ps = detect_peaks([1, 3, 2, 5, 1])
        np.testing.assert_array_equal(ps.bins, [1, 3])
        np.testing.assert_array_equal(ps.amplitudes, [3, 5])

    def test_monotone_has_no_peaks(self):
        assert detect_peaks([1, 2, 3, 4]).bins.size == 0

    def test_plateau_is_not_a_peak(self):
        assert detect_peaks([1, 2, 2, 1]).bins.size == 0

    def test_endpoints_never_qualify(self):
        assert detect_peaks([5, 1, 1]).bins.size == 0
        assert detect_peaks([1, 1, 5]).bins.size == 0

    def test_short_input_degenerates_to_empty(self):
        assert detect_peaks([1, 2]).bins.size == 0
        assert detect_peaks([]).bins.size == 0

    @given(seed=st.integers(0, 5000))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        vals = _random_spectra(rng, 1, int(rng.integers(3, 64)), quantize=bool(seed % 2))[0]
        ps = detect_peaks(vals)
        assert list(ps.bins) == oracles.detect_peaks(vals)


class TestSelectProminent:
    def test_top2_by_amplitude_descending_bins(self):
        ps = PeakSet(bins=np.array([1, 3, 6]), amplitudes=np.array([3.0, 5.0, 4.0]))
        np.testing.assert_array_equal(select_prominent(ps, 2), [6, 3])

    def test_padding_repeats_weakest_selected(self):
        ps = PeakSet(bins=np.array([2]), amplitudes=np.array([5.0]))
        np.testing.assert_array_equal(select_prominent(ps, 3), [2, 2, 2])

    def test_amplitude_tie_prefers_lower_bin(self):
        ps = PeakSet(bins=np.array([4, 9]), amplitudes=np.array([7.0, 7.0]))
        np.testing.assert_array_equal(select_prominent(ps, 1), [4])

    def test_peakless_frame_yields_zero_column(self):
        ps = PeakSet(bins=np.empty(0, np.int64), amplitudes=np.empty(0))
        np.testing.assert_array_equal(select_prominent(ps, 4), [0, 0, 0, 0])

    def test_invalid_p(self):
        ps = PeakSet(bins=np.array([2]), amplitudes=np.array([5.0]))
        with pytest.raises(InputError):
            select_prominent(ps, 0)

    @given(seed=st.integers(0, 5000))
    def test_matches_literal_oracle(self, seed):
        rng = np.random.default_rng(seed)
        vals = _random_spectra(rng, 1, int(rng.integers(3, 64)), quantize=True)[0]
        p = int(rng.integers(1, 9))
        ps = detect_peaks(vals)
        want = oracles.select_prominent(
            list(ps.bins), [float(a) for a in ps.amplitudes], p
        )
        np.testing.assert_array_equal(select_prominent(ps, p), want)

    @given(seed=st.integers(0, 2000))
    def test_matches_subset_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        vals = _random_spectra(rng, 1, int(rng.integers(3, 32)), quantize=True)[0]
        p = int(rng.integers(1, 5))
        ps = detect_peaks(vals)
        want = oracles.select_prominent_bruteforce(
            list(ps.bins), [float(a) for a in ps.amplitudes], p
        )
        np.testing.assert_array_equal(select_prominent(ps, p), want)


class TestBuildPeakMatrix:
    def test_composes_per_column(self):
        rng = np.random.default_rng(0)
        mags = _random_spectra(rng, 2, 40)
        m = build_peak_matrix(mags, 5)
        assert (m.p, m.L, m.n_f) == (5, 2, 40)
        for l in range(2):
            np.testing.assert_array_equal(
                m.data[:, l], select_prominent(detect_peaks(mags[l]), 5)
            )

    def test_all_zero_spectra(self):
        m = build_peak_matrix(np.zeros((5, 16)), 3)
        np.testing.assert_array_equal(m.data, np.zeros((3, 5)))
        assert m.peakless_frames == 5

    @pytest.mark.parametrize("n_bins", [0, 1, 2])
    def test_too_few_bins_for_an_interior_peak(self, n_bins):
        mags = np.random.default_rng(n_bins).random((4, n_bins)) + 1.0
        m = build_peak_matrix(mags, 3)
        np.testing.assert_array_equal(m.data, np.zeros((3, 4)))
        assert (m.peakless_frames, m.n_f) == (4, n_bins)

    def test_single_spectrum_error(self):
        with pytest.raises(InputError, match="at least 2"):
            build_peak_matrix(np.zeros((1, 16)), 2)

    @given(seed=st.integers(0, 1000))
    def test_columns_non_increasing_and_members_are_peaks(self, seed):
        rng = np.random.default_rng(seed)
        L, n_bins, p = int(rng.integers(2, 10)), int(rng.integers(3, 48)), int(rng.integers(1, 8))
        mags = _random_spectra(rng, L, n_bins, quantize=bool(seed % 2))
        m = build_peak_matrix(mags, p)
        assert np.all(m.data[:-1] >= m.data[1:])
        for l in range(L):
            peaks = set(detect_peaks(mags[l]).bins)
            column = set(m.data[:, l].tolist())
            if peaks:
                assert column <= peaks
            else:
                assert column == {0}

    @given(exponent=st.integers(-20, 20), seed=st.integers(0, 200))
    def test_power_of_two_scaling_invariance(self, exponent, seed):
        rng = np.random.default_rng(seed)
        mags = _random_spectra(rng, 4, 32)
        c = 2.0**exponent
        a = build_peak_matrix(mags, 4)
        b = build_peak_matrix(c * mags, 4)
        np.testing.assert_array_equal(a.data, b.data)
        assert a.peakless_frames == b.peakless_frames

    def test_generic_scaling_invariance_on_fixed_inputs(self):
        rng = np.random.default_rng(7)
        mags = _random_spectra(rng, 6, 64)
        base = build_peak_matrix(mags, 6).data
        for c in (1.7, 0.3, 3.14159, 1e-6, 1e6):
            np.testing.assert_array_equal(build_peak_matrix(c * mags, 6).data, base)

    @given(seed=st.integers(0, 500))
    def test_whole_pipeline_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        L, n_bins, p = int(rng.integers(2, 8)), int(rng.integers(3, 32)), int(rng.integers(1, 5))
        mags = _random_spectra(rng, L, n_bins, quantize=True)
        m = build_peak_matrix(mags, p)
        rows, peakless = oracles.build_matrix([list(r) for r in mags], p)
        np.testing.assert_array_equal(m.data, rows)
        assert m.peakless_frames == peakless


    def test_full_size_interval_matches_oracle(self):
        # the 973 x 331 magnitude stack of a 1 s interval at 22050 Hz, p = 20
        sig = np.random.default_rng(7).standard_normal(22050)
        cfg = make_frame_config(22050, 30.0, 1.0)
        mags = magnitude_spectra(frame_interval(sig, cfg), cfg)
        assert mags.shape == (973, 331)
        m = build_peak_matrix(mags, 20)
        rows, peakless = oracles.build_matrix(mags.tolist(), 20)
        np.testing.assert_array_equal(m.data, rows)
        assert m.peakless_frames == peakless


def test_sps_csv_shape():
    m = build_peak_matrix(np.abs(np.random.default_rng(0).standard_normal((3, 16))), 2)
    lines = sps_csv_lines(m)
    assert lines[0] == "row,frame,bin"
    assert len(lines) == 1 + 2 * 3
    assert lines[1] == f"0,0,{m.data[0, 0]}"
