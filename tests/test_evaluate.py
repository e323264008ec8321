"""Evaluation protocol: macro F, stratified splitting, repeated trials, and
byte-stable reports."""

import dataclasses

import numpy as np
import pytest

from spsgmm.audio_io import AudioInterval
from spsgmm.classifier import as_rows, model_to_text
from spsgmm.errors import InputError
from spsgmm.evaluate import (
    TrialConfig,
    _run_trial,
    _trial_seed,
    confusion_matrix,
    f_score,
    report_text,
    run_experiment,
    stratified_split,
    summary_csv_lines,
    trials_csv_lines,
)
from spsgmm.pipeline import BASE_KINDS, vectors_of
from spsgmm.sps_features import FeatureVector

K1 = (1,)


def stacked(intervals, cache, kinds):
    """Each kind's cached vectors as Rows in interval order, as
    run_experiment stacks them for its trials."""
    return {k: as_rows(vectors_of(cache, intervals, k)) for k in kinds}


def iv(src, idx, label, sr=22050):
    return AudioInterval(
        samples=np.zeros(4), sample_rate=sr, source_id=src, index=idx, label=label
    )


class TestFScore:
    def test_perfect(self):
        assert f_score([[5, 0], [0, 5]]) == 1.0

    def test_mixed(self):
        # speech: prec 2/3, rec 1; music: prec 1, rec 2/3 -> macro 0.8
        assert f_score([[2, 0], [1, 2]]) == pytest.approx(0.8)

    def test_one_class_never_predicted_right(self):
        # speech all misclassified -> 0; music F 2/3 -> macro 1/3
        assert f_score([[0, 2], [0, 2]]) == pytest.approx(1 / 3)

    def test_absent_class_counts_as_one(self):
        assert f_score([[3, 0], [0, 0]]) == 1.0

    def test_empty_matrix(self):
        with pytest.raises(InputError, match="empty confusion matrix"):
            f_score([[0, 0], [0, 0]])


class TestConfusionMatrix:
    def test_counts(self):
        cm = confusion_matrix([0, 0, 1, 1, 1], [0, 1, 1, 1, 0])  # label codes
        np.testing.assert_array_equal(cm, [[1, 1], [1, 2]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0], [0, 1])


class TestStratifiedSplit:
    def test_interval_unit_sizes(self):
        pool = [iv("s", i, "speech") for i in range(64)] + [
            iv("m", i, "music") for i in range(64)
        ]
        train, test = stratified_split(pool, 0.7, seed=0, unit="interval")
        per = lambda part, lab: sum(1 for x in part if x.label == lab)
        assert per(train, "speech") == per(train, "music") == 45
        assert per(test, "speech") == per(test, "music") == 19
        assert len(train) + len(test) == 128

    def test_file_unit_keeps_sources_together(self):
        pool = [
            iv(f"{lab}{f}", i, lab)
            for lab in ("speech", "music")
            for f in range(10)
            for i in range(2)
        ]
        train, test = stratified_split(pool, 0.7, seed=4, unit="file")
        tr_src = {x.source_id for x in train}
        te_src = {x.source_id for x in test}
        assert not tr_src & te_src
        assert len(train) == 28 and len(test) == 12  # 7/3 files per class

    def test_deterministic(self):
        pool = [iv(f"{lab}{f}", 0, lab) for lab in ("speech", "music") for f in range(8)]
        a = stratified_split(pool, 0.7, seed=11, unit="file")
        b = stratified_split(pool, 0.7, seed=11, unit="file")
        assert [x.source_id for x in a[0]] == [x.source_id for x in b[0]]
        assert [x.source_id for x in a[1]] == [x.source_id for x in b[1]]

    def test_seed_varies_the_split(self):
        pool = [iv(f"{lab}{f}", 0, lab) for lab in ("speech", "music") for f in range(6)]
        picks = {
            frozenset(x.source_id for x in stratified_split(pool, 0.7, s, "file")[0])
            for s in range(6)
        }
        assert len(picks) >= 2

    def test_extreme_fraction_keeps_both_sides(self):
        pool = [iv(f"{lab}{f}", 0, lab) for lab in ("speech", "music") for f in range(2)]
        train, test = stratified_split(pool, 0.99, seed=0, unit="file")
        assert len(train) == 2 and len(test) == 2  # one file each side per class

    def test_single_file_class_rejected(self):
        pool = [iv("s0", i, "speech") for i in range(4)] + [
            iv(f"m{f}", 0, "music") for f in range(3)
        ]
        with pytest.raises(InputError, match="single source file.*interval"):
            stratified_split(pool, 0.7, seed=0, unit="file")

    def test_missing_class_rejected(self):
        with pytest.raises(InputError, match="both classes"):
            stratified_split([iv("s0", 0, "speech"), iv("s1", 0, "speech")], 0.7, 0)

    def test_bad_unit(self):
        with pytest.raises(InputError, match="unit"):
            stratified_split([], 0.7, 0, unit="minute")


class TestTrialConfig:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(train_frac=0.0), "train_frac"),
            (dict(train_frac=1.0), "train_frac"),
            (dict(n_trials=0), "n_trials"),
            (dict(split_unit="minute"), "split_unit"),
            (dict(n_trials=2.5), "n_trials must be an integer, got 2.5"),
            (dict(n_trials=True), "n_trials must be an integer, got True"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(InputError, match=match):
            TrialConfig(**kwargs)

    def test_numpy_integer_trials_are_accepted(self, corpus_intervals, feature_cache):
        rep = run_experiment(
            corpus_intervals, "sps_zcr", TrialConfig(n_trials=np.int64(2), seed=2),
            p=3, k_grid=K1, feature_cache=feature_cache[0],
        )
        assert len(rep.trials) == 2

    def test_rejected_split_unit_is_named(self):
        with pytest.raises(InputError, match="got 'minute'"):
            TrialConfig(split_unit="minute")


class TestRunExperiment:
    def test_aggregates_and_config(self, corpus_intervals, feature_cache):
        cache, diag = feature_cache
        cfg = TrialConfig(n_trials=3, seed=5)
        rep = run_experiment(
            corpus_intervals, "sps_scg", cfg, p=3, k_grid=K1,
            feature_cache=cache, diagnostics=diag,
        )
        assert len(rep.trials) == 3
        fs = [t.f for t in rep.trials]
        mean = sum(fs) / 3
        assert rep.mean_f == pytest.approx(mean, abs=1e-15)
        assert rep.var_f == pytest.approx(sum((x - mean) ** 2 for x in fs) / 3, abs=1e-15)
        assert rep.config["trials"] == 3
        assert rep.config["sample_rate"] == 22050
        assert rep.config["n_intervals"] == {"speech": 18, "music": 18}
        assert rep.diagnostics["n_intervals"] == 36
        for t in rep.trials:
            assert t.confusion.sum() == 12  # 2 test files x 3 intervals x 2 classes

    def test_single_trial_variance_zero(self, corpus_intervals, feature_cache):
        cache, _ = feature_cache
        rep = run_experiment(
            corpus_intervals, "sps_zcr", TrialConfig(n_trials=1, seed=2),
            p=3, k_grid=K1, feature_cache=cache,
        )
        assert rep.var_f == 0.0

    def test_same_seed_reports_byte_identical(self, corpus_intervals, feature_cache):
        cache, diag = feature_cache
        def once():
            reps = [
                run_experiment(
                    corpus_intervals, kind, TrialConfig(n_trials=2, seed=7),
                    p=3, k_grid=K1, feature_cache=cache, diagnostics=diag,
                )
                for kind in ("sps_p", "sps_scg")
            ]
            return report_text(reps), trials_csv_lines(reps), summary_csv_lines(reps)

        assert once() == once()

    def test_trials_are_order_independent(self, corpus_intervals, feature_cache):
        cache, _ = feature_cache
        cfg = TrialConfig(n_trials=3, seed=9)
        rep = run_experiment(
            corpus_intervals, "sps_scg", cfg, p=3, k_grid=K1, feature_cache=cache
        )
        rows = stacked(corpus_intervals, cache, ["sps_scg"])
        redone, _ = _run_trial(corpus_intervals, rows, "sps_scg", cfg, 2, K1)
        assert redone.f == rep.trials[2].f
        assert redone.chosen_k == rep.trials[2].chosen_k
        np.testing.assert_array_equal(redone.confusion, rep.trials[2].confusion)

    def test_late_fused_records_all_ks(self, corpus_intervals, feature_cache):
        cache, _ = feature_cache
        rep = run_experiment(
            corpus_intervals, "late_fused", TrialConfig(n_trials=1, seed=1),
            p=3, k_grid=K1, feature_cache=cache,
        )
        assert rep.trials[0].chosen_k == "1-1-1"
        assert 0.0 <= rep.trials[0].f <= 1.0

    def test_test_features_cannot_influence_training(
        self, corpus_intervals, feature_cache
    ):
        cache, _ = feature_cache
        cfg = TrialConfig(n_trials=1, seed=3)
        _, test_iv = stratified_split(
            corpus_intervals, cfg.train_frac, _trial_seed(cfg.seed, 0), cfg.split_unit
        )
        poisoned = dict(cache)
        for x in test_iv:
            key = (x.source_id, x.index)
            poisoned[key] = {
                kind: dataclasses.replace(f, values=f.values + 100.0)
                for kind, f in cache[key].items()
            }
        for kind, trained in (("sps_scg", ["sps_scg"]), ("late_fused", list(BASE_KINDS))):
            clean_rows = stacked(corpus_intervals, cache, trained)
            dirty_rows = stacked(corpus_intervals, poisoned, trained)
            _, clean = _run_trial(corpus_intervals, clean_rows, kind, cfg, 0, K1)
            _, dirty = _run_trial(corpus_intervals, dirty_rows, kind, cfg, 0, K1)
            assert list(clean) == list(dirty) == trained
            for k in trained:
                assert model_to_text(clean[k]) == model_to_text(dirty[k])

    @pytest.mark.parametrize(
        "kind,match",
        [("sps_scg", "sps_scg vectors of size 9, expected 12"),
         ("late_fused", "sps_p vectors of size 3, expected 4")],
    )
    def test_cache_built_at_another_p_rejected(
        self, corpus_intervals, feature_cache, kind, match
    ):
        cache, _ = feature_cache  # built at p = 3
        with pytest.raises(InputError, match=match):
            run_experiment(
                corpus_intervals, kind, TrialConfig(n_trials=1),
                p=4, k_grid=K1, feature_cache=cache,
            )

    def test_without_cache_matches_cached_run(self, corpus_intervals, feature_cache):
        cache, diag = feature_cache
        cfg = TrialConfig(n_trials=2, seed=4)
        own = run_experiment(corpus_intervals, "sps_scg", cfg, p=3, k_grid=K1)
        given = run_experiment(
            corpus_intervals, "sps_scg", cfg, p=3, k_grid=K1,
            feature_cache=cache, diagnostics=diag,
        )
        for a, b in zip(own.trials, given.trials, strict=True):
            assert (a.trial, a.chosen_k, a.f) == (b.trial, b.chosen_k, b.f)
            np.testing.assert_array_equal(a.confusion, b.confusion)
        assert (own.mean_f, own.var_f) == (given.mean_f, given.var_f)
        assert own.config == given.config
        assert own.diagnostics == given.diagnostics == diag

    def test_unknown_kind(self, corpus_intervals):
        with pytest.raises(InputError, match="feature_kind"):
            run_experiment(corpus_intervals, "pitch")

    def test_mixed_sample_rates_rejected(self, corpus_intervals, feature_cache):
        cache, _ = feature_cache
        odd = dataclasses.replace(corpus_intervals[0], sample_rate=16000)
        with pytest.raises(InputError, match="sample rates"):
            run_experiment(
                [odd, *corpus_intervals[1:]], "sps_p", feature_cache=cache
            )


class TestReportFormats:
    def _report(self, corpus_intervals, cache):
        return run_experiment(
            corpus_intervals, "sps_p", TrialConfig(n_trials=2, seed=0),
            p=3, k_grid=K1, feature_cache=cache,
        )

    def test_csv_headers_and_shape(self, corpus_intervals, feature_cache):
        rep = self._report(corpus_intervals, feature_cache[0])
        tl = trials_csv_lines([rep])
        assert tl[0] == "trial,feature,chosen_K,f_score"
        assert len(tl) == 3 and tl[1].startswith("0,sps_p,1,")
        sl = summary_csv_lines([rep])
        assert sl[0] == "feature,mean_f,var_f"
        assert len(sl) == 2 and sl[1].startswith("sps_p,")
        # floats round-trip: the value printed is the value aggregated
        assert float(sl[1].split(",")[1]) == rep.mean_f

    def test_report_text_sections(self, corpus_intervals, feature_cache):
        rep = self._report(corpus_intervals, feature_cache[0])
        text = report_text([rep])
        assert "config:" in text and "summary:" in text
        assert "seed: 0" in text
        assert text.count("sps_p") == 2 + 1  # one per trial row + summary row
