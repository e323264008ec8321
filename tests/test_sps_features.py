"""Row statistics of the peak matrix: periodicity, zero crossings, centroid
statistics, and fusion."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from spsgmm.audio_io import AudioInterval
from spsgmm.errors import ConfigError, InputError
from spsgmm.spectral import frame_interval, make_frame_config
from spsgmm.sps_features import (
    FeatureVector,
    SpsAttributes,
    compute_attributes,
    distribution_csv_lines,
    early_fuse,
    feature_csv_lines,
    feature_dim,
    lag_cap,
    sps_periodicity,
    sps_scg,
    sps_zcr,
)


def int_matrices(max_p=8, max_l=16, max_bin=330, min_p=1):
    return st.integers(min_p, max_p).flatmap(
        lambda p: st.integers(2, max_l).flatmap(
            lambda l: arrays(np.int64, (p, l), elements=st.integers(0, max_bin))
        )
    )


def crafted_attrs(autocorr_rows):
    """SpsAttributes with a hand-built autocorrelation (other fields unused
    by sps_periodicity)."""
    a = np.asarray(autocorr_rows, np.float64)
    return SpsAttributes(
        centroids=np.zeros(a.shape[0]),
        centered=np.zeros((a.shape[0], 2)),
        autocorr=a,
        lag_cap=a.shape[1] - 1,
    )


class TestComputeAttributes:
    def test_three_sample_row(self):
        attrs = compute_attributes(np.array([[4, 6, 8]]))
        assert attrs.centroids[0] == 6
        np.testing.assert_array_equal(attrs.centered[0], [-2, 0, 2])
        assert attrs.lag_cap == 2
        np.testing.assert_allclose(attrs.autocorr[0], [8 / 3, 0.0, -4 / 3], atol=1e-15)

    def test_constant_row(self):
        attrs = compute_attributes(np.array([[5, 5, 5, 5]]))
        np.testing.assert_array_equal(attrs.centered[0], np.zeros(4))
        np.testing.assert_array_equal(attrs.autocorr[0], np.zeros(3))

    def test_alternating_centered_row(self):
        attrs = compute_attributes(np.array([[2, 0, 2, 0]]))
        np.testing.assert_array_equal(attrs.centered[0], [1, -1, 1, -1])
        np.testing.assert_array_equal(attrs.autocorr[0], [1.0, -0.75, 0.5])

    def test_non_integer_or_negative_matrix_is_error(self):
        for S in ([[1.0, 2.0, 3.0]], [[1, -2, 3]]):
            with pytest.raises(InputError, match="non-negative integer"):
                compute_attributes(np.array(S))

    def test_too_long_for_exact_sums_is_error(self):
        # L**3 * 330**2 >= 2**63: int64 would wrap, so nothing is computed
        S = np.zeros((1, 60000), np.int64)
        S[0, ::2] = 330
        with pytest.raises(InputError, match="too large"):
            compute_attributes(S)

    @pytest.mark.parametrize(
        "L, hi",
        [
            (9971, 661),  # 10 s at 44100 Hz with a 1 ms hop, bins up to 661
            (2000, 8184),  # the largest max bin the error bound accepts at L = 2000
        ],
    )
    def test_largest_accepted_sizes_are_exact(self, L, hi):
        rng = np.random.default_rng(L)
        S = np.empty((3, L), np.int64)
        S[0] = hi  # constant at the max bin
        S[1] = np.arange(L) % 2 * hi  # alternating 0 / max
        S[2] = rng.integers(0, hi + 1, L)
        S[2, 0] = hi
        # R from integer np.correlate of D = L*S - sum(S), exact in int64 here
        D = L * S - S.sum(axis=1, keepdims=True)
        cap = lag_cap(L)
        pad = np.zeros(cap, np.int64)
        R = np.stack([np.correlate(np.concatenate([d, pad]), d, "valid") for d in D])
        np.testing.assert_array_equal(compute_attributes(S).autocorr, R / L**3)

    def test_past_the_fft_error_bound_is_error(self):
        # one bin above the largest max bin accepted at L = 2000: the int64 and
        # float64 limits still hold, so only the FFT error bound refuses it
        L, hi = 2000, 8185
        assert L**3 * hi**2 < 2**63 and L * hi**2 < 2**53
        S = np.zeros((1, L), np.int64)
        S[0, ::2] = hi
        with pytest.raises(InputError, match="too large"):
            compute_attributes(S)
        S[0, ::2] = hi - 1
        compute_attributes(S)

    @pytest.mark.parametrize("rate, n", [(16000, 1458), (22050, 1500)])
    def test_autocorrelation_fft_length_is_5_smooth(self, monkeypatch, rate, n):
        # 1 s at 30 ms / 1 ms: L = 971 (16 kHz) or 973 (22050 Hz) frames, so
        # L + lag cap = 1457 or 1460, and the next 5-smooth lengths are these
        cfg = make_frame_config(rate, 30.0, 1.0)
        L = frame_interval(np.zeros(rate), cfg).shape[0]
        lengths, rfft = [], np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, n: lengths.append(n) or rfft(a, n))
        compute_attributes(np.zeros((2, L), np.int64))
        assert lengths == [n]

    def test_lag_cap_even_odd(self):
        assert lag_cap(4) == 2
        assert lag_cap(5) == 3
        assert compute_attributes(np.zeros((1, 5), np.int64)).autocorr.shape == (1, 4)

    def test_centered_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        S = rng.integers(0, 331, (20, 973))
        attrs = compute_attributes(S)
        np.testing.assert_allclose(
            attrs.centered.sum(axis=1), 0.0, atol=1e-9 * S.shape[1]
        )

    @given(S=int_matrices())
    def test_autocorr_lag0_dominates(self, S):
        attrs = compute_attributes(S)
        a0 = attrs.autocorr[:, :1]
        assert np.all(np.abs(attrs.autocorr) <= a0 + 1e-12 * (1 + a0))

    @given(S=int_matrices(min_p=2))
    def test_lag0_equals_row_variance(self, S):
        attrs = compute_attributes(S)
        sigma = sps_scg(S, attrs).values[S.shape[0] : 2 * S.shape[0]]
        np.testing.assert_allclose(attrs.autocorr[:, 0], sigma**2, rtol=1e-9, atol=1e-12)


class TestSpsPeriodicity:
    def test_equal_gaps_give_zero(self):
        a = [9, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0]  # maxima at lags 3, 6, 9
        vec = sps_periodicity(crafted_attrs([a]))
        assert vec.values[0] == 0.0

    def test_unequal_gaps(self):
        a = [9, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0]  # maxima at 2, 5, 11
        vec = sps_periodicity(crafted_attrs([a]))
        assert vec.values[0] == pytest.approx(2.25)

    def test_few_maxima_convention(self):
        cases = [
            [9, 0, 0, 1, 0, 0],  # one maximum -> no gaps
            [9, 0, 1, 0, 1, 0],  # two maxima -> one gap
            [9, 8, 7],  # no interior maxima
        ]
        for a in cases:
            vec = sps_periodicity(crafted_attrs([a]))
            assert vec.values[0] == 0.0

    def test_rows_keep_their_own_gaps(self):
        # rows with 0, 1 and 2 interior maxima next to rows with many: a gap
        # taken across two rows would change the row after it
        rows = [
            [9, 0, 1, 0, 2, 0, 0, 1, 0, 0, 0, 3, 0],  # maxima at 2, 4, 7, 11
            [9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0],  # none
            [9, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0],  # 3, 5, 9, 11
            [9, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],  # 6
            [9, 0, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0],  # 2, 9
            [9, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0],  # 2, 4, 7, 11
            [9, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],  # 2, 10
            [9, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 0, 1],  # 3, 5, 7, 9
        ]
        vals = sps_periodicity(crafted_attrs(rows)).values
        np.testing.assert_array_equal(vals, oracles.sps_p(np.array(rows, float)))
        assert vals[0] == vals[5] == pytest.approx(2 / 3)
        assert vals[1] == vals[3] == vals[4] == vals[6] == 0.0

    @given(A=arrays(np.int64, st.tuples(st.integers(1, 12), st.integers(1, 16)),
                    elements=st.integers(0, 3)))
    def test_rows_match_the_oracle(self, A):
        vals = sps_periodicity(crafted_attrs(A)).values
        np.testing.assert_array_equal(vals, oracles.sps_p(A.astype(float)))

    @given(
        period=st.integers(2, 12),
        reps=st.integers(3, 9),
        base=st.integers(0, 300),
        delta=st.integers(1, 30),
        at_end=st.booleans(),
        negate=st.booleans(),
    )
    def test_periodic_impulse_rows_give_zero(
        self, period, reps, base, delta, at_end, negate
    ):
        # A bin track that revisits one standout value every `period` frames
        # (the "peak recurs every T frames" picture) puts the autocorrelation
        # maxima exactly at multiples of T, so the gaps are all equal.
        pattern = np.full(period, base, np.int64)
        pattern[period - 1 if at_end else 0] = max(
            base - delta, 0
        ) if negate else base + delta
        row = np.tile(pattern, reps)
        if np.all(row == row[0]):  # delta clipped away -> constant row
            return
        vec = sps_periodicity(compute_attributes(row[None, :]))
        assert vec.values[0] == 0.0

    @given(
        pattern=st.lists(st.integers(0, 330), min_size=2, max_size=3),
        reps=st.integers(3, 15),
    )
    def test_short_period_rows_give_zero(self, pattern, reps):
        row = np.tile(np.array(pattern, np.int64), reps)
        vec = sps_periodicity(compute_attributes(row[None, :]))
        assert vec.values[0] == 0.0

    def test_truncation_can_break_longer_periods(self):
        # Dispersion zero for "exactly periodic" rows is an idealisation:
        # the autocorrelation here divides the full-row sum of lagged
        # products by L, so fewer terms survive at larger lags and the
        # off-peak floor decays in remainder-sized steps.  For busy patterns
        # with period >= 4 those steps can create extra strict maxima
        # between the true period multiples.  This pins the behaviour so a
        # future "fix" that silently changes the estimator gets noticed.
        row = np.tile(np.array([4, 1, 2, 2, 1], np.int64), 4)
        vec = sps_periodicity(compute_attributes(row[None, :]))
        assert vec.values[0] == pytest.approx(0.25)

    def test_kind_and_dim(self):
        S = np.random.default_rng(1).integers(0, 331, (6, 12))
        vec = sps_periodicity(compute_attributes(S), label="music")
        assert vec.kind == "sps_p"
        assert vec.values.shape == (6,)
        assert vec.label == "music"


class TestSpsZcr:
    def test_alternating(self):
        vec = sps_zcr(compute_attributes(np.array([[2, 0, 2, 0]])))
        assert vec.values[0] == 0.75

    def test_constant_row(self):
        vec = sps_zcr(compute_attributes(np.array([[7, 7, 7, 7]])))
        assert vec.values[0] == 0.0

    def test_single_crossing(self):
        vec = sps_zcr(compute_attributes(np.array([[4, 3, 1, 0]])))
        assert vec.values[0] == 0.25

    @given(S=int_matrices())
    def test_range(self, S):
        vals = sps_zcr(compute_attributes(S)).values
        assert np.all(vals >= 0.0)
        assert np.all(vals < 1.0)


class TestSpsScg:
    def test_sigma_example(self):
        S = np.array([[4, 6, 8], [4, 6, 8]])
        vec = sps_scg(S, compute_attributes(S))
        assert vec.values[2] == pytest.approx(np.sqrt(8 / 3))

    def test_gradient_example(self):
        S = np.array([[10] * 4, [7] * 4, [1] * 4])
        vec = sps_scg(S, compute_attributes(S))
        np.testing.assert_array_equal(vec.values[:3], [10, 7, 1])
        np.testing.assert_array_equal(vec.values[6:], [-3, -4.5, -6])

    def test_constant_matrix(self):
        S = np.full((4, 6), 9)
        vec = sps_scg(S, compute_attributes(S))
        np.testing.assert_array_equal(vec.values, [9] * 4 + [0] * 8)

    def test_single_row_is_error(self):
        S = np.array([[1, 2, 3]])
        with pytest.raises(ConfigError, match="p >= 2"):
            sps_scg(S, compute_attributes(S))

    def test_kind_and_dim(self):
        S = np.random.default_rng(2).integers(0, 331, (5, 10))
        vec = sps_scg(S, compute_attributes(S))
        assert vec.kind == "sps_scg"
        assert vec.values.shape == (15,)


class TestShiftInvariance:
    @given(S=int_matrices(max_bin=200), shift=st.integers(1, 100))
    def test_row_statistics_unchanged(self, S, shift):
        p = S.shape[0]
        a = compute_attributes(S)
        b = compute_attributes(S + shift)
        # the centroid moves by exactly the shift (up to one rounding of the
        # shared division), everything centered is unchanged
        np.testing.assert_allclose(b.centroids, a.centroids + shift, rtol=1e-12)
        np.testing.assert_array_equal(
            sps_zcr(b).values, sps_zcr(a).values
        )
        np.testing.assert_allclose(
            sps_periodicity(b).values, sps_periodicity(a).values, rtol=1e-9, atol=1e-9
        )
        if p >= 2:
            sa = sps_scg(S, a).values
            sb = sps_scg(S + shift, b).values
            np.testing.assert_allclose(sb[p : 2 * p], sa[p : 2 * p], rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(sb[2 * p :], sa[2 * p :], rtol=1e-9, atol=1e-9)


class TestOracleAgreement:
    @given(seed=st.integers(0, 2000))
    def test_all_ops_match_literal_transcription(self, seed):
        rng = np.random.default_rng(seed)
        p, L = int(rng.integers(2, 9)), int(rng.integers(2, 17))
        S = rng.integers(0, 331, (p, L))
        rows = [[int(v) for v in row] for row in S]
        attrs = compute_attributes(S)
        mu, C, A = oracles.attributes(rows)
        np.testing.assert_array_equal(attrs.centroids, mu)
        np.testing.assert_array_equal(attrs.centered, C)
        np.testing.assert_array_equal(attrs.autocorr, A)
        np.testing.assert_array_equal(sps_periodicity(attrs).values, oracles.sps_p(A))
        np.testing.assert_array_equal(sps_zcr(attrs).values, oracles.sps_zcr(C))
        np.testing.assert_array_equal(sps_scg(S, attrs).values, oracles.sps_scg(rows))

    def test_full_size_interval(self):
        # p = 20 rows over the L = 973 frames of a 1 s interval at 22050 Hz
        S = np.random.default_rng(8).integers(0, 331, (20, 973))
        rows = S.tolist()
        attrs = compute_attributes(S)
        _, _, A = oracles.attributes(rows)
        np.testing.assert_array_equal(attrs.autocorr, A)
        np.testing.assert_array_equal(sps_periodicity(attrs).values, oracles.sps_p(A))
        np.testing.assert_array_equal(sps_scg(S, attrs).values, oracles.sps_scg(rows))


class TestEarlyFuse:
    def _vectors(self, p=2):
        fp = FeatureVector(kind="sps_p", values=np.arange(p, dtype=float), label="speech")
        fz = FeatureVector(kind="sps_zcr", values=np.arange(p, 2 * p, dtype=float), label="speech")
        fs = FeatureVector(kind="sps_scg", values=np.arange(2 * p, 5 * p, dtype=float), label="speech")
        return fp, fz, fs

    def test_concatenation_order(self):
        fp, fz, fs = self._vectors()
        fused = early_fuse(fp, fz, fs)
        assert fused.kind == "early_fused"
        np.testing.assert_array_equal(fused.values, np.arange(10, dtype=float))
        assert fused.label == "speech"

    def test_dimension_rule(self):
        assert feature_dim("early_fused", 20) == 100
        assert [feature_dim(k, 20) for k in ("sps_p", "sps_zcr", "sps_scg")] == [20, 20, 60]

    def test_wrong_kind_order_is_error(self):
        fp, fz, fs = self._vectors()
        with pytest.raises(InputError, match="kinds"):
            early_fuse(fz, fp, fs)


class TestFeatureVectorValidation:
    def test_unknown_kind(self):
        with pytest.raises(InputError, match="kind"):
            FeatureVector(kind="mfcc", values=np.zeros(3))

    def test_non_finite(self):
        with pytest.raises(InputError, match="non-finite"):
            FeatureVector(kind="sps_p", values=np.array([1.0, np.nan]))


class TestCsvExports:
    @staticmethod
    def _intervals(*ids):
        return [
            AudioInterval(samples=np.zeros(4), sample_rate=4, source_id=s, index=i)
            for s, i in ids
        ]

    def test_feature_csv(self):
        vecs = [
            FeatureVector(kind="sps_p", values=np.array([1.5, 2.5]), label="speech"),
            FeatureVector(kind="sps_p", values=np.array([0.0, 1.0])),
        ]
        lines = feature_csv_lines(self._intervals(("a.wav", 3), ("", 0)), vecs)
        assert lines[0] == "source_id,interval_index,label,kind,v0,v1"
        assert lines[1] == "a.wav,3,speech,sps_p,1.5,2.5"
        assert lines[2] == ",0,,sps_p,0.0,1.0"

    def test_feature_csv_rejects_mixed_kinds(self):
        vecs = [
            FeatureVector(kind="sps_p", values=np.zeros(2)),
            FeatureVector(kind="sps_zcr", values=np.zeros(2)),
        ]
        with pytest.raises(InputError, match="mixed"):
            feature_csv_lines(self._intervals(("a.wav", 0), ("a.wav", 1)), vecs)

    def test_feature_csv_rejects_fewer_intervals_than_vectors(self):
        vecs = [FeatureVector(kind="sps_p", values=np.zeros(2))] * 2
        with pytest.raises(ValueError, match="longer than argument 1"):
            feature_csv_lines(self._intervals(("a.wav", 0)), vecs)

    def test_distribution_csv(self):
        rng = np.random.default_rng(3)
        attrs = [compute_attributes(rng.integers(0, 64, (4, 12))) for _ in range(5)]
        zcr_lines, ac_lines = distribution_csv_lines(attrs, 4)
        assert zcr_lines[0] == ac_lines[0] == "row,bin_or_lag,value"
        assert len(zcr_lines) == 1 + 4 * 20
        cap = min(a.lag_cap for a in attrs)
        assert len(ac_lines) == 1 + 4 * (cap + 1)
