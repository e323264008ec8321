"""Peak detection, prominent-peak selection, and the peak-sequence matrix."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from spsgmm import sps_core
from spsgmm.errors import InputError
from spsgmm.sps_core import build_peak_matrix, sps_csv
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


def _column(values, p):
    """build_peak_matrix's column for one spectrum, from a two-row stack of
    it; both columns must agree."""
    m = build_peak_matrix(np.array([values, values], np.float64), p)
    np.testing.assert_array_equal(m.data[:, 0], m.data[:, 1])
    return m.data[:, 0]


def _peak_bins(values):
    """The peaks build_peak_matrix finds in one spectrum.  With p at least the
    peak count every peak is chosen, so the column's distinct values are the
    peaks; a peakless spectrum gives the all-zeros column."""
    column = _column(values, max(len(values), 1))
    return [] if not column.any() else sorted(set(column.tolist()))


class TestDetectPeaks:
    """The strict-maximum rule, read from build_peak_matrix columns."""

    def test_reference_example(self):
        assert _peak_bins([1, 3, 2, 5, 1]) == [1, 3]
        # the amplitudes are read at those bins: 5 at bin 3 beats 3 at bin 1
        np.testing.assert_array_equal(_column([1, 3, 2, 5, 1], 1), [3])

    def test_monotone_has_no_peaks(self):
        assert _peak_bins([1, 2, 3, 4]) == []

    def test_plateau_is_not_a_peak(self):
        assert _peak_bins([1, 2, 2, 1]) == []

    def test_endpoints_never_qualify(self):
        assert _peak_bins([5, 1, 1]) == []
        assert _peak_bins([1, 1, 5]) == []

    def test_short_input_degenerates_to_empty(self):
        assert _peak_bins([1, 2]) == []
        assert _peak_bins([]) == []

    @given(seed=st.integers(0, 5000))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        vals = _random_spectra(rng, 1, int(rng.integers(3, 64)), quantize=bool(seed % 2))[0]
        assert _peak_bins(vals) == oracles.detect_peaks(vals)


class TestSelectProminent:
    """The top-p, tie and padding rules, read from build_peak_matrix columns."""

    def test_top2_by_amplitude_descending_bins(self):
        # peaks at bins 1, 3, 6 with amplitudes 3, 5, 4
        np.testing.assert_array_equal(_column([0, 3, 0, 5, 0, 0, 4, 0], 2), [6, 3])

    def test_padding_repeats_weakest_selected(self):
        np.testing.assert_array_equal(_column([0, 0, 5, 0], 3), [2, 2, 2])
        # two peaks, p = 4: the pad is bin 3 (amplitude 3), not bin 1 (amplitude 5)
        np.testing.assert_array_equal(_column([0, 5, 0, 3, 0], 4), [3, 3, 3, 1])

    def test_amplitude_tie_prefers_lower_bin(self):
        vals = np.zeros(11)
        vals[[4, 9]] = 7.0
        np.testing.assert_array_equal(_column(vals, 1), [4])

    def test_peakless_frame_yields_zero_column(self):
        np.testing.assert_array_equal(_column(np.zeros(8), 4), [0, 0, 0, 0])

    def test_invalid_p(self):
        with pytest.raises(InputError, match="p must be"):
            build_peak_matrix(np.array([[0, 0, 5, 0], [0, 0, 5, 0]], np.float64), 0)

    @given(seed=st.integers(0, 5000))
    def test_matches_literal_oracle(self, seed):
        rng = np.random.default_rng(seed)
        vals = _random_spectra(rng, 1, int(rng.integers(3, 64)), quantize=True)[0]
        p = int(rng.integers(1, 9))
        ks = oracles.detect_peaks(vals)
        want = oracles.select_prominent(ks, [float(vals[k]) for k in ks], p)
        np.testing.assert_array_equal(_column(vals, p), want)

    @given(seed=st.integers(0, 2000))
    def test_matches_subset_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        vals = _random_spectra(rng, 1, int(rng.integers(3, 32)), quantize=True)[0]
        p = int(rng.integers(1, 5))
        ks = oracles.detect_peaks(vals)
        want = oracles.select_prominent_bruteforce(ks, [float(vals[k]) for k in ks], p)
        np.testing.assert_array_equal(_column(vals, p), want)


def _planted_row(rng, n_bins, k):
    """A quantized row with exactly min(k, (n_bins - 1) // 2) peaks, all on
    odd bins between zeros."""
    row = np.zeros(n_bins)
    odd = np.arange(1, n_bins - 1, 2)
    k = min(k, odd.size)
    row[rng.choice(odd, k, replace=False)] = rng.integers(1, 5, k) / 4
    return row


def _assert_layout(m, p, L):
    assert m.data.dtype == np.int64 and m.data.shape == (p, L)
    assert m.data.flags.c_contiguous
    assert type(m.peakless_frames) is int


class TestBuildPeakMatrix:
    def test_composes_per_column(self):
        rng = np.random.default_rng(0)
        mags = _random_spectra(rng, 2, 40)
        m = build_peak_matrix(mags, 5)
        assert m.data.shape == (5, 2)
        for l in range(2):
            ks = oracles.detect_peaks(mags[l])
            want = oracles.select_prominent(ks, [float(mags[l, k]) for k in ks], 5)
            np.testing.assert_array_equal(m.data[:, l], want)

    @given(
        L=st.integers(2, 12),
        n_bins=st.integers(0, 48),
        p=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
        planted=st.lists(st.sampled_from(["none", "p-1", "p"]), max_size=4),
        offset=st.sampled_from([0.0, -3.0]),
    )
    def test_matches_oracle_with_ties_and_planted_rows(self, L, n_bins, p, seed, planted, offset):
        # the offset makes every amplitude negative in some cases, below any pad value
        rng = np.random.default_rng(seed)
        mags = _random_spectra(rng, L, n_bins, quantize=True)
        n_peaks = {"none": 0, "p-1": p - 1, "p": p}
        for l, kind in zip(rng.permutation(L), planted):
            mags[l] = _planted_row(rng, n_bins, n_peaks[kind])
        mags += offset
        m = build_peak_matrix(mags, p)
        _assert_layout(m, p, L)
        rows, peakless = oracles.build_matrix(mags.tolist(), p)
        np.testing.assert_array_equal(m.data, rows)
        assert m.peakless_frames == peakless

    def test_all_zero_spectra(self):
        m = build_peak_matrix(np.zeros((5, 16)), 3)
        np.testing.assert_array_equal(m.data, np.zeros((3, 5)))
        assert m.peakless_frames == 5

    @pytest.mark.parametrize("n_bins", [0, 1, 2])
    def test_too_few_bins_for_an_interior_peak(self, n_bins):
        mags = np.random.default_rng(n_bins).random((4, n_bins)) + 1.0
        m = build_peak_matrix(mags, 3)
        np.testing.assert_array_equal(m.data, np.zeros((3, 4)))
        assert m.peakless_frames == 4

    @pytest.mark.parametrize("shape", [(16,), (2, 3, 16)])
    def test_not_two_dimensional_error(self, shape):
        message = f"expected a 2-D magnitude array, got shape {shape}"
        with pytest.raises(InputError, match=re.escape(message)):
            build_peak_matrix(np.zeros(shape), 2)

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
            peaks = set(oracles.detect_peaks(mags[l]))
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
        self._check_full_size(22050, 20, (973, 331))

    @pytest.mark.parametrize(
        "rate,p,shape",
        [(16000, 20, (971, 240)), (22050, 10, (973, 331))],
        ids=["16000-p20", "22050-p10"],
    )
    def test_full_size_interval_matches_oracle_at(self, rate, p, shape):
        self._check_full_size(rate, p, shape)

    @staticmethod
    def _check_full_size(rate, p, shape):
        sig = np.random.default_rng(7).standard_normal(rate)
        cfg = make_frame_config(rate, 30.0, 1.0)
        mags = magnitude_spectra(frame_interval(sig, cfg), cfg)
        assert mags.shape == shape
        m, reranked = _with_reranked(mags, p)
        assert reranked == []  # the key sort alone ranks real spectra
        _assert_layout(m, p, shape[0])
        rows, peakless = oracles.build_matrix(mags.tolist(), p)
        np.testing.assert_array_equal(m.data, rows)
        assert m.peakless_frames == peakless


def _with_reranked(mags, p):
    """build_peak_matrix(mags, p) and the frames it ranked again by their
    full amplitudes, in call order."""
    reranked = []
    real = sps_core._rank_exactly

    def spy(mags, frames, *rest):
        reranked.extend(frames.tolist())
        return real(mags, frames, *rest)

    sps_core._rank_exactly = spy
    try:
        return build_peak_matrix(mags, p), reranked
    finally:
        sps_core._rank_exactly = real


def _ulps(base, steps):
    """base moved up by each number of ulps in steps."""
    return (np.float64(base).view(np.int64) + np.asarray(steps, np.int64)).view(np.float64)


def _tag_bits(n_bins):
    """The low key bits that carry the bin: enough for n_bins - 2."""
    return (n_bins - 2).bit_length()


class TestRankingKeys:
    """Amplitudes that the truncated uint64 keys cannot tell apart: each
    frame must match the oracle, and frames whose first p + 1 keys tie in
    their amplitude bits must go through the exact re-rank."""

    def _check(self, rows, p, reranked_frames):
        mags = np.array(rows, np.float64)
        m, reranked = _with_reranked(mags, p)
        want, peakless = oracles.build_matrix(mags.tolist(), p)
        np.testing.assert_array_equal(m.data, want)
        assert m.peakless_frames == peakless
        assert reranked == reranked_frames
        return m.data

    def test_amplitudes_differing_in_low_bits(self):
        # n_bins = 16: 4 tag bits, so 1.0 and the next 15 doubles share a key
        # apart from their tags, and the tags alone would rank bin 1 first
        assert _tag_bits(16) == 4
        up = np.zeros(16)
        up[[1, 3, 5, 7]] = _ulps(1.0, [0, 1, 2, 3])
        down = np.zeros(16)
        down[[1, 3, 5, 7]] = _ulps(1.0, [3, 2, 1, 0])
        data = self._check([up, down, up], 1, [0, 1, 2])
        np.testing.assert_array_equal(data, [[7, 1, 7]])
        # two peaks p = 2 picks out of four, and its weakest one, by full amplitude
        data = self._check([up, down], 2, [0, 1])
        np.testing.assert_array_equal(data, [[7, 3], [5, 1]])

    def test_amplitudes_one_tag_step_apart_are_not_reranked(self):
        up = np.zeros(16)
        up[[1, 3, 5]] = _ulps(1.0, [0, 16, 32])
        data = self._check([up, up], 2, [])
        np.testing.assert_array_equal(data, [[5, 5], [3, 3]])

    def test_signed_zero_peaks_tie(self):
        # -0.0 == 0.0, so the lower bin wins whichever of the two it holds
        a = [-1.0, -0.0, -1.0, 0.0, -1.0, -0.5, -1.0]
        b = [-1.0, 0.0, -1.0, -0.0, -1.0, -0.5, -1.0]
        data = self._check([a, b], 1, [0, 1])
        np.testing.assert_array_equal(data, [[1, 1]])
        data = self._check([a, b], 2, [0, 1])
        np.testing.assert_array_equal(data, [[3, 3], [1, 1]])

    def test_subnormal_and_infinite_peaks(self):
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal, one ulp above 0.0
        big = np.finfo(np.float64).max
        row = [-1.0, 0.0, -1.0, tiny, -1.0, np.inf, -1.0, 1e-310, -1.0, big, -1.0]
        data = self._check([row, row[::-1]], 4, [0, 1])
        # inf, the largest double, 1e-310 and then the subnormal above 0.0
        np.testing.assert_array_equal(data.T, [[9, 7, 5, 3], [7, 5, 3, 1]])
        data = self._check([row, row[::-1]], 2, [])
        np.testing.assert_array_equal(data, [[9, 5], [5, 1]])

    @pytest.mark.parametrize("n_bins", [6, 10, 18, 34, 258])
    def test_tag_width_at_a_power_of_two(self, n_bins):
        # n_bins - 2 = 2**m takes m + 1 tag bits; bin 1 carries the largest tag
        b = _tag_bits(n_bins)
        assert n_bins - 2 == 1 << (b - 1)
        rows = []
        for steps in ([0, 1], [1, 0], [0, 0], [0, 1 << b]):
            row = np.zeros(n_bins)
            row[[1, n_bins - 2]] = _ulps(1.0, steps)
            rows.append(row)
        data = self._check(rows, 1, [0, 1, 2])
        np.testing.assert_array_equal(data, [[n_bins - 2, 1, 1, n_bins - 2]])

    def test_fewer_peaks_than_p_with_tied_weakest(self):
        rows = [
            [0, 3, 0, 2, 0, 2, 0],  # equal: the higher bin is the weaker
            [0, 3, 0, 2, 0, _ulps(2.0, 1), 0],  # bin 3 is one ulp weaker
            [0, 3, 0, _ulps(2.0, 1), 0, 2, 0],  # bin 5 is one ulp weaker
        ]
        data = self._check(rows, 5, [0, 1, 2])
        np.testing.assert_array_equal(data.T, [[5, 5, 5, 3, 1], [5, 3, 3, 3, 1], [5, 5, 5, 3, 1]])

    @given(
        L=st.integers(2, 6),
        n_bins=st.integers(3, 70),
        p=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_near_ties_match_oracle(self, L, n_bins, p, seed, sign):
        # peaks on odd bins, a few ulps apart, around 1 or -1
        rng = np.random.default_rng(seed)
        mags = np.full((L, n_bins), sign - 2.0)
        odd = np.arange(1, n_bins - 1, 2)
        spread = 1 << (_tag_bits(n_bins) + 1)
        mags[:, odd] = _ulps(sign, rng.integers(0, spread, (L, odd.size)))
        m, _ = _with_reranked(mags, p)
        want, peakless = oracles.build_matrix(mags.tolist(), p)
        np.testing.assert_array_equal(m.data, want)
        assert m.peakless_frames == peakless


def test_sps_csv_shape():
    m = build_peak_matrix(np.abs(np.random.default_rng(0).standard_normal((3, 16))), 2)
    lines = sps_csv(m).splitlines()
    assert lines[0] == "row,frame,bin"
    assert len(lines) == 1 + 2 * 3
    assert lines[1] == f"0,0,{m.data[0, 0]}"
