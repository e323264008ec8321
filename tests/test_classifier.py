"""Per-class diagonal GMMs: standardization, EM behaviour, K selection,
decision rule, and the plain-text model format."""

import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

from spsgmm import classifier, evaluate
from spsgmm.classifier import (
    BUDGET,
    DEFAULT_K_GRID,
    LABELS,
    GmmModel,
    Mixture,
    Rows,
    RowScores,
    Standardizer,
    _estep,
    _groups,
    as_rows,
    fit_gmm,
    grid_search,
    late_fuse_score,
    load_model,
    model_from_text,
    model_to_text,
    save_model,
    score,
)
from spsgmm.errors import FitError, InputError
from spsgmm.evaluate import TrialConfig, run_experiment
from spsgmm.sps_features import FeatureVector


def fvs(X, label, kind="sps_p"):
    return [
        FeatureVector(kind=kind, values=np.asarray(row, np.float64), label=label)
        for row in X
    ]


def blobs(seed, n_per_class, d=2, sep=8.0):
    """Two well-separated unit-variance clouds."""
    rng = np.random.default_rng(seed)
    Xs = rng.normal(-sep / 2, 1.0, (n_per_class, d))
    Xm = rng.normal(+sep / 2, 1.0, (n_per_class, d))
    return fvs(Xs, "speech") + fvs(Xm, "music")


def flat_model(kind="sps_p", d=2, mu_speech=0.0, mu_music=0.0):
    """Hand-built single-component model with unit standardization."""
    mk = lambda mu: Mixture(
        weights=np.array([1.0]),
        means=np.full((1, d), mu),
        vars=np.ones((1, d)),
        log_prior=math.log(0.5),
    )
    return GmmModel(
        feature_kind=kind,
        standardizer=Standardizer(mean=np.zeros(d), std=np.ones(d)),
        classes={"speech": mk(mu_speech), "music": mk(mu_music)},
    )


class TestStandardizer:
    def test_pooled_zscore(self):
        rng = np.random.default_rng(3)
        X = rng.normal(5.0, 3.0, (40, 4))
        std = Standardizer(mean=X.mean(axis=0), std=np.maximum(X.std(axis=0), 1e-8))
        Z = std.apply(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, rtol=1e-12)

    def test_constant_dimension_floored(self):
        train = fvs(np.array([[1.0, 2.0]] * 6), "speech") + fvs(
            np.array([[1.0, 5.0]] * 6), "music"
        )
        model = fit_gmm(train, K=1)
        assert model.standardizer.std[0] == 1e-8  # first dim constant across pool


class TestFitGmm:
    def test_k1_closed_form(self):
        train = blobs(1, 30, d=3)
        model = fit_gmm(train, K=1, seed=5)
        pooled = np.stack([f.values for f in train])
        np.testing.assert_allclose(model.standardizer.mean, pooled.mean(axis=0))
        np.testing.assert_allclose(
            model.standardizer.std, np.maximum(pooled.std(axis=0), 1e-8)
        )
        for label in ("speech", "music"):
            X = np.stack([f.values for f in train if f.label == label])
            Z = model.standardizer.apply(X)
            mix = model.classes[label]
            np.testing.assert_array_equal(mix.weights, [1.0])
            np.testing.assert_allclose(mix.means[0], Z.mean(axis=0), rtol=1e-9, atol=1e-12)
            floor = np.maximum(1e-6 * Z.var(axis=0), 1e-12)
            np.testing.assert_allclose(
                mix.vars[0], np.maximum(Z.var(axis=0), floor), rtol=1e-9
            )
            assert mix.log_prior == pytest.approx(math.log(0.5))

    def test_unbalanced_priors(self):
        train = fvs(np.random.default_rng(0).normal(0, 1, (30, 2)), "speech") + fvs(
            np.random.default_rng(1).normal(5, 1, (10, 2)), "music"
        )
        model = fit_gmm(train, K=1)
        assert model.classes["speech"].log_prior == pytest.approx(math.log(0.75))
        assert model.classes["music"].log_prior == pytest.approx(math.log(0.25))

    def test_separated_blobs_classified(self):
        train = blobs(2, 40)
        model = fit_gmm(train, K=2, seed=0)
        test = blobs(99, 25)
        decisions = [score(model, f).decision for f in test]
        assert decisions == [f.label for f in test]
        for f, d in zip(test, decisions):
            s = score(model, f)
            assert (s.margin >= 0) == (d == "speech")

    def test_em_trace_nondecreasing(self):
        train = blobs(4, 120, d=2)
        model = fit_gmm(train, K=4, seed=7)
        for label in ("speech", "music"):
            trace = model.train_meta["em_trace"][label]
            assert len(trace) >= 2
            diffs = np.diff(np.asarray(trace))
            assert np.all(diffs >= -1e-9)

    def test_weights_on_simplex(self):
        train = blobs(5, 100, d=2)
        model = fit_gmm(train, K=8, seed=3)
        for mix in model.classes.values():
            assert np.all(mix.weights >= 0)
            assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(mix.vars > 0)

    def test_responsibilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        X = rng.normal(0, 1, (2, 50, 3))
        resp, ll = _estep(
            X,
            rng.normal(0, 1, (2, 2, 3)),
            rng.uniform(0.5, 2.0, (2, 2, 3)),
            np.array([[0.25, 0.75], [0.5, 0.5]]),
            _groups(2, 50, 3, 2),
        )
        assert resp.shape == (2, 50, 2) and ll.shape == (2, 50)
        np.testing.assert_allclose(resp.sum(axis=2), 1.0, atol=1e-12)
        assert np.all(np.isfinite(ll))

    def test_deterministic_given_seed(self):
        train = blobs(6, 60)
        a = fit_gmm(train, K=4, seed=42)
        b = fit_gmm(train, K=4, seed=42)
        assert model_to_text(a) == model_to_text(b)

    @pytest.mark.parametrize("K", [0, -1])
    def test_k_below_one_is_error(self, K):
        with pytest.raises(InputError, match=f"K must be >= 1, got {K}"):
            fit_gmm(blobs(7, 5), K=K)

    @pytest.mark.parametrize("K", [1.5, True, 2.0])
    def test_non_integral_k_is_error_before_any_fit(self, K, monkeypatch):
        no_fitting(monkeypatch)
        with pytest.raises(InputError, match=re.escape(f"K must be an integer, got {K!r}")):
            fit_gmm(blobs(7, 20), K=K)

    @pytest.mark.parametrize(
        "seed,match",
        [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5"),
         (True, "seed must be an integer, got True")],
    )
    def test_bad_seed_is_error_before_any_fit(self, seed, match, monkeypatch):
        no_fitting(monkeypatch)
        with pytest.raises(InputError, match=match):
            fit_gmm(blobs(7, 20), K=1, seed=seed)

    def test_numpy_integer_k_is_accepted(self):
        train = blobs(7, 20)
        assert model_to_text(fit_gmm(train, np.int64(2))) == model_to_text(fit_gmm(train, 2))

    def test_rows_need_label_codes_of_both_classes(self, monkeypatch):
        no_fitting(monkeypatch)
        rows = as_rows(blobs(7, 20))
        for y in (None, np.where(rows.y == 1, 2, 0)):
            with pytest.raises(InputError, match="must be labeled"):
                fit_gmm(Rows("sps_p", rows.X, y), K=1)
        with pytest.raises(InputError, match="must be labeled"):
            grid_search(Rows("sps_p", rows.X), grid=[1])
        # a code of -1, float codes, and 30 codes for 40 rows
        for y in (np.where(rows.y == 1, -1, 0), rows.y.astype(float), rows.y[:30]):
            for fit in (lambda r: fit_gmm(r, K=1), lambda r: grid_search(r, grid=[1])):
                with pytest.raises(InputError, match=r"must be labeled, with codes 0 \(speech\)"):
                    fit(Rows("sps_p", rows.X, y))
        with pytest.raises(FitError, match="'music' has 0 vectors"):
            fit_gmm(Rows("sps_p", rows.X, np.zeros_like(rows.y)), K=1)

    def test_fits_follow_the_rows_they_are_given(self):
        rows = as_rows(blobs(8, 30))

        def copy_fit(K):
            return model_to_text(fit_gmm(Rows(rows.kind, rows.X.copy(), rows.y.copy()), K, 4))

        for K in (1, 2):
            assert model_to_text(fit_gmm(rows, K=K, seed=4)) == copy_fit(K)
        rows.X[:, 0] *= 3.0  # in place, after fits on rows
        assert model_to_text(fit_gmm(rows, K=2, seed=4)) == copy_fit(2)

    def test_too_few_vectors_for_k(self):
        train = blobs(7, 5, d=4)  # needs K*d = 12 per class
        with pytest.raises(FitError, match="needs at least"):
            fit_gmm(train, K=3)

    def test_empty_and_mixed_inputs(self):
        with pytest.raises(InputError, match="empty"):
            fit_gmm([], K=1)
        mixed = fvs([[0.0, 1.0]], "speech") + fvs([[1.0, 0.0]], "music", kind="sps_zcr")
        with pytest.raises(InputError, match="mixed feature kinds"):
            fit_gmm(mixed, K=1)
        speech_only = fvs(np.zeros((4, 2)), "speech")
        with pytest.raises(FitError, match="music"):
            fit_gmm(speech_only, K=1)
        bad_label = [
            FeatureVector(kind="sps_p", values=np.zeros(2), label=None),
            *fvs(np.ones((2, 2)), "music"),
        ]
        with pytest.raises(InputError, match="unlabeled"):
            fit_gmm(bad_label, K=1)


class TestAsRows:
    def test_labels_become_codes_or_none(self):
        rows = as_rows(fvs([[0.0], [1.0]], "music") + fvs([[2.0]], "speech"))
        assert rows.kind == "sps_p" and rows.X.shape == (3, 1)
        np.testing.assert_array_equal(rows.y, [1, 1, 0])
        assert as_rows([FeatureVector(kind="sps_p", values=np.zeros(2))]).y is None
        with pytest.raises(InputError, match="unknown-label"):
            as_rows(fvs([[0.0]], "cat"))


@st.composite
def em_cases(draw):
    """(train, K, seed, budget) with n = K*d (the feasibility edge) among the
    sizes and classes of equal or unequal size.  The budget is g*n*d (n of
    speech) for g from 0 to 2K + 2, or n*d // 2 for g = 0.  Equal classes
    share one stack (B = 2) from g = 2 on, with g // 2 components per group;
    otherwise each class runs alone with about g per group (one at a time
    for g = 0).  So both sides of the stacking threshold are drawn, each
    with groups of one, of 1 < size < K and of all K components."""
    K = draw(st.sampled_from([1, 2, 3, 5, 8]))
    d = draw(st.integers(1, 12))
    extra = st.sampled_from([0, 1, 9, 40])
    n = {"speech": K * d + draw(extra)}
    n["music"] = n["speech"] if draw(st.booleans()) else K * d + draw(extra)
    g = draw(st.integers(0, 2 * K + 2))
    seed = draw(st.integers(0, 1000))
    rng = np.random.default_rng(seed)
    X = {
        lab: rng.normal(0, 1, (n[lab], d)) + rng.integers(0, 3, (n[lab], 1)) * shift
        for lab, shift in (("speech", 2.0), ("music", -1.5))
    }
    train = fvs(X["speech"], "speech") + fvs(X["music"], "music")
    nd = n["speech"] * d
    return train, K, seed, max(g * nd, nd // 2)


def no_fitting(monkeypatch):
    """Make any EM run fail the test."""

    def boom(*args):
        raise AssertionError("fit before K was checked")

    monkeypatch.setattr(classifier, "_fit_mixtures", boom)


def oracle_fit(train, K, seed):
    """fit_gmm rebuilt from oracles.fit_mixture_loop: the same standardizer,
    then speech and music fit one after the other from one generator."""
    data = {lab: np.stack([f.values for f in train if f.label == lab]) for lab in LABELS}
    pooled = np.concatenate([data[lab] for lab in LABELS])
    std = Standardizer(mean=pooled.mean(axis=0), std=np.maximum(pooled.std(axis=0), 1e-8))
    rng = np.random.default_rng(seed)
    classes, trace = {}, {}
    for lab in LABELS:
        log_prior = math.log(data[lab].shape[0] / pooled.shape[0])
        mix, trace[lab] = oracles.fit_mixture_loop(std.apply(data[lab]), K, rng, log_prior)
        classes[lab] = Mixture(mix.weights, mix.means, mix.vars, mix.log_prior)
    return GmmModel(
        feature_kind=train[0].kind,
        standardizer=std,
        classes=classes,
        train_meta={"seed": seed, "k_grid": [K], "chosen_k": K, "em_trace": trace},
    )


def oracle_scores(model, fs):
    """fields() of each vector's score, from oracles.log_densities_loop."""
    x = model.standardizer.apply(np.stack([f.values for f in fs]))
    post = {}
    for lab, mix in model.classes.items():
        ll = oracles._logsumexp(oracles.log_densities_loop(x, mix) + np.log(mix.weights), axis=1)
        post[lab] = (ll, ll + mix.log_prior)
    margin = post["speech"][1] - post["music"][1]
    return [
        (g, s, m, "speech" if g >= 0 else "music")
        for g, s, m in zip(margin.tolist(), post["speech"][0].tolist(), post["music"][0].tolist())
    ]


@st.composite
def grid_cases(draw):
    """(train, grid, seed): classes of mostly unequal sizes, in 1 to 3
    dimensions, and grids of a small K plus up to three more, the larger ones
    infeasible on the inner split.  A class gets 2 to 40 vectors plus 0, 1 or
    2 times K * d for the grid's first K, so that K is often feasible and
    sometimes, with every other entry, not."""
    d = draw(st.integers(1, 3))
    grid = [draw(st.sampled_from([1, 2, 3]))]
    grid += draw(st.lists(st.sampled_from([1, 2, 4, 8, 16, 32]), max_size=3))
    n = {lab: draw(st.integers(2, 40)) + draw(st.integers(0, 2)) * grid[0] * d for lab in LABELS}
    seed = draw(st.integers(0, 1000))
    rng = np.random.default_rng(seed)
    X = {
        lab: rng.normal(0, 1, (n[lab], d)) + rng.integers(0, 3, (n[lab], 1)) * shift
        for lab, shift in (("speech", 1.0), ("music", -0.5))
    }
    return fvs(X["speech"], "speech") + fvs(X["music"], "music"), grid, seed


class TestVectorizedEm:
    """EM and scoring handle both classes and a group of components per numpy
    call and must give every bit the per-component loop gives."""

    @settings(max_examples=80)
    @given(case=em_cases())
    def test_matches_the_per_component_loop(self, case):
        train, K, seed, budget = case
        want = oracle_fit(train, K, seed)
        with mock.patch.object(classifier, "BUDGET", budget):
            got = fit_gmm(train, K, seed)
            got_scores = score(got, as_rows(train))
        assert model_to_text(got) == model_to_text(want)
        for label in LABELS:
            assert got.train_meta["em_trace"][label] == want.train_meta["em_trace"][label]
        assert row_fields(got_scores) == oracle_scores(want, train)

    @pytest.mark.parametrize(
        "n_speech, n_music, budget, stacks",
        [
            (30, 30, BUDGET, [2]),  # equal and small: one stack
            (30, 31, BUDGET, [1, 1]),  # unequal: one class at a time
            (30, 30, 2 * 30 * 4, [2]),  # (2, n, 1, d) just fits
            (30, 30, 2 * 30 * 4 - 1, [1, 1]),  # and just does not
        ],
    )
    def test_classes_share_a_stack_when_it_fits(self, n_speech, n_music, budget, stacks):
        rng = np.random.default_rng(3)
        train = fvs(rng.normal(0, 1, (n_speech, 4)), "speech") + fvs(
            rng.normal(1, 1, (n_music, 4)), "music"
        )
        seen = []
        real = classifier._em

        def em(xs, *args):
            seen.append(len(xs))
            return real(xs, *args)

        with mock.patch.object(classifier, "BUDGET", budget), \
                mock.patch.object(classifier, "_em", em):
            got = fit_gmm(train, 2, seed=4)
        assert seen == stacks
        assert model_to_text(got) == model_to_text(oracle_fit(train, 2, 4))

    def test_scores_mixtures_of_different_k(self):
        train = blobs(21, 40, d=3, sep=3.0)
        model = fit_gmm(train, 1, seed=2)
        model.classes["music"] = fit_gmm(train, 3, seed=2).classes["music"]
        test = blobs(22, 10, d=3, sep=3.0)
        assert row_fields(score(model, as_rows(test))) == oracle_scores(model, test)


class TestMemoryBound:
    """The (n, components, d) temporaries stay within BUDGET elements, so at
    GTZAN-like sizes (n = 20 000, d = 60, K = 32; ungrouped, one temporary
    would be 307 MB) peak traced memory stays within a few (n, d) arrays."""

    MULTIPLE = 6
    n, d, K = 20_000, 60, 32

    def _peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _limit(self):
        return self.MULTIPLE * max(BUDGET, self.n * self.d) * 8

    def test_scoring(self):
        rng = np.random.default_rng(5)

        def mix():
            return Mixture(
                weights=np.full(self.K, 1.0 / self.K),
                means=rng.normal(0, 1, (self.K, self.d)),
                vars=rng.uniform(0.5, 2.0, (self.K, self.d)),
                log_prior=math.log(0.5),
            )

        model = GmmModel(
            feature_kind="sps_p",
            standardizer=Standardizer(mean=np.zeros(self.d), std=np.ones(self.d)),
            classes={"speech": mix(), "music": mix()},
        )
        rows = Rows("sps_p", rng.normal(0, 1, (self.n, self.d)))
        assert self._peak(lambda: score(model, rows)) <= self._limit()

    def test_fit(self, monkeypatch):
        monkeypatch.setattr(classifier, "MAX_ITER", 2)
        rng = np.random.default_rng(6)
        Xs = [rng.normal(0, 1, (self.n, self.d)) for _ in LABELS]
        fit = lambda: classifier._fit_mixtures(Xs, self.K, rng)
        assert self._peak(fit) <= self._limit()


class TestGridSearch:
    def test_fits_and_scores_through_the_module_names(self, monkeypatch):
        # perfbench's classifier.fit_gmm span and em_iters counter wrap
        # classifier.fit_gmm; a private helper would leave them empty
        fits, scores, models = [], [], []
        real_fit, real_score = classifier.fit_gmm, classifier.score

        def fit(train, K, seed=0):
            fits.append(K)
            models.append(real_fit(train, K, seed))
            return models[-1]

        def counted_score(model, f):
            scores.append(1)
            return real_score(model, f)

        monkeypatch.setattr(classifier, "fit_gmm", fit)
        monkeypatch.setattr(classifier, "score", counted_score)
        train = blobs(12, 10, d=2)  # inner split: 8 per class, so K = 8 is infeasible
        with pytest.warns(UserWarning, match="skipped"):
            model = grid_search(train, grid=[1, 2, 4, 8], seed=1)
        assert fits == [1, 2, 4, model.train_meta["chosen_k"]]
        assert len(scores) == 3
        assert models[-1] is model
        assert all("em_trace" in m.train_meta for m in models)

    def test_singleton_grid_matches_direct_fit(self):
        train = blobs(8, 40)
        g = grid_search(train, grid=[1], seed=9)
        direct = fit_gmm(train, K=1, seed=9)
        assert g.train_meta["chosen_k"] == 1
        for label in ("speech", "music"):
            np.testing.assert_array_equal(
                g.classes[label].means, direct.classes[label].means
            )
            np.testing.assert_array_equal(
                g.classes[label].vars, direct.classes[label].vars
            )

    def test_ties_prefer_smaller_k(self):
        # both K values separate the blobs perfectly, so validation F ties
        train = blobs(10, 50)
        model = grid_search(train, grid=[2, 1], seed=0)
        assert model.train_meta["chosen_k"] == 1
        vf = model.train_meta["validation_f"]
        assert vf[1] == vf[2] == 1.0

    @pytest.mark.filterwarnings("ignore:grid entries")
    @pytest.mark.parametrize("seed", range(10))
    def test_unimodal_blobs_choose_k1(self, seed):
        train = blobs(100 + seed, 60)
        model = grid_search(train, grid=DEFAULT_K_GRID, seed=seed)
        assert model.train_meta["chosen_k"] == 1

    def test_infeasible_entries_warn_and_skip(self):
        train = blobs(12, 10, d=2)  # inner split: 8 per class
        with pytest.warns(UserWarning, match="skipped"):
            model = grid_search(train, grid=[1, 64], seed=1)
        assert model.train_meta["chosen_k"] == 1
        assert model.train_meta["skipped"] == [64]

    def test_no_feasible_k(self):
        train = blobs(13, 25, d=2)
        with pytest.warns(UserWarning, match="skipped"):
            with pytest.raises(FitError, match="no feasible K"):
                grid_search(train, grid=[64], seed=0)

    def test_empty_grid(self):
        with pytest.raises(FitError, match="empty K grid"):
            grid_search(blobs(14, 10), grid=[], seed=0)

    def test_k_below_one_is_error_before_any_fit(self, monkeypatch):
        def fit(*args):
            raise AssertionError("fit before the grid was checked")

        monkeypatch.setattr(classifier, "fit_gmm", fit)
        with pytest.raises(InputError, match="K must be >= 1, got 0"):
            grid_search(blobs(14, 10), grid=[0, 1], seed=0)
        with pytest.raises(InputError, match="got -2, 0"):
            grid_search(blobs(14, 10), grid=[2, -2, 0], seed=0)

    def test_non_integral_k_is_error_before_any_fit(self, monkeypatch):
        no_fitting(monkeypatch)
        with pytest.raises(InputError, match=r"K must be an integer, got 2\.0"):
            grid_search(blobs(14, 10), grid=[1, 2.0], seed=0)
        with pytest.raises(InputError, match="K must be an integer, got True"):
            grid_search(blobs(14, 10), grid=[True], seed=0)

    @pytest.mark.parametrize(
        "seed,match",
        [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5"),
         (True, "seed must be an integer, got True")],
    )
    def test_bad_seed_is_error_before_any_split(self, seed, match, monkeypatch):
        def split(*args):
            raise AssertionError("split before the seed was checked")

        monkeypatch.setattr(classifier, "stratified_split", split)
        with pytest.raises(InputError, match=match):
            grid_search(blobs(14, 10), grid=[1], seed=seed)

    def test_list_and_rows_give_the_same_model(self):
        train = blobs(15, 40, d=3, sep=2.0)
        a = grid_search(train, grid=[1, 2, 4], seed=5)
        b = grid_search(as_rows(train), grid=[1, 2, 4], seed=5)
        assert model_to_text(a) == model_to_text(b)
        for key in ("em_trace", "validation_f", "chosen_k", "skipped"):
            assert a.train_meta[key] == b.train_meta[key]

    @settings(max_examples=60)
    @given(case=grid_cases())
    def test_matches_the_list_path(self, case):
        """The array path reproduces the list-based grid search bit for bit:
        the inner split, the per-fit stacking and the validation F."""
        train, grid, seed = case
        try:
            want = oracles.grid_search_list(train, grid, seed, classifier._fit_mixtures)
        except ValueError:
            want = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if want is None:
                with pytest.raises(FitError, match="no feasible K"):
                    grid_search(as_rows(train), grid, seed)
                return
            got = grid_search(as_rows(train), grid, seed)
        assert model_to_text(got) == model_to_text(want)
        for key in ("em_trace", "validation_f", "chosen_k", "skipped"):
            assert got.train_meta[key] == want.train_meta[key]

    @pytest.mark.parametrize("K", [1, 2, 4])
    def test_validation_uses_the_protocol_split_and_metric(self, K):
        pooled = blobs(43, 50, d=2, sep=1.5)
        train = [f for pair in zip(pooled[:50], pooled[50:]) for f in pair]
        rows = as_rows(train)
        inner_train, inner_val = (
            rows.take(part) for part in evaluate.stratified_split(rows.y, np.arange(100), 0.8, 3)
        )
        pred = score(fit_gmm(inner_train, K, 3), inner_val).decision
        want = evaluate.f_score(evaluate.confusion_matrix(inner_val.y, pred))
        assert grid_search(train, [K], 3).train_meta["validation_f"][K] == want


class TestScore:
    def test_exact_tie_goes_to_speech(self):
        model = flat_model()
        s = score(model, FeatureVector(kind="sps_p", values=np.zeros(2)))
        assert s.margin == 0.0
        assert s.decision == "speech"
        assert s.log_lik_speech == s.log_lik_music

    def test_kind_and_dim_guards(self):
        model = flat_model(kind="sps_p", d=2)
        with pytest.raises(InputError, match="model expects sps_p"):
            score(model, FeatureVector(kind="sps_zcr", values=np.zeros(2)))
        with pytest.raises(InputError, match="dim"):
            score(model, FeatureVector(kind="sps_p", values=np.zeros(3)))

    def test_margin_moves_with_evidence(self):
        model = flat_model(mu_speech=-2.0, mu_music=2.0)
        toward_speech = score(model, FeatureVector(kind="sps_p", values=np.full(2, -2.0)))
        toward_music = score(model, FeatureVector(kind="sps_p", values=np.full(2, 2.0)))
        assert toward_speech.decision == "speech" and toward_speech.margin > 0
        assert toward_music.decision == "music" and toward_music.margin < 0

    def test_empty_list_returns_empty(self):
        scores = score(flat_model(), Rows("sps_p", np.empty((0, 2))))
        assert scores.margin.shape == scores.decision.shape == (0,)


def fields(s):
    return (s.margin, s.log_lik_speech, s.log_lik_music, s.decision)


def row_fields(scores):
    """fields() of each row of RowScores, decisions as label names."""
    columns = (scores.margin, scores.log_lik_speech, scores.log_lik_music, scores.decision)
    return [(g, s, m, LABELS[c]) for g, s, m, c in zip(*(a.tolist() for a in columns))]


def no_scoring(monkeypatch):
    """Make any log-density pass fail the test."""

    def boom(*args):
        raise AssertionError("scored before the input was checked")

    monkeypatch.setattr(classifier, "_log_joint", boom)


class TestBatchScore:
    @pytest.mark.parametrize("K", [1, 2, 4, 8])
    def test_list_equals_per_row_bit_for_bit(self, K):
        train = blobs(30 + K, 80, d=5, sep=2.0)
        model = fit_gmm(train, K=K, seed=K)
        test = blobs(60 + K, 40, d=5, sep=2.0)
        batch = score(model, as_rows(test))
        assert isinstance(batch, RowScores) and batch.margin.shape == (len(test),)
        rows = row_fields(batch)
        for f, row in zip(test, rows):
            assert fields(score(model, f)) == row
        assert {row[3] for row in rows} == {"speech", "music"}

    def test_mismatch_anywhere_raises_before_scoring(self, monkeypatch):
        model = flat_model(kind="sps_p", d=2)
        good = fvs(np.zeros((5, 2)), "speech")
        no_scoring(monkeypatch)
        wrong_kind = good[:3] + fvs([[0.0, 0.0]], "music", kind="sps_zcr") + good[3:]
        with pytest.raises(InputError, match="mixed feature kinds"):
            as_rows(wrong_kind)
        with pytest.raises(InputError, match="model expects sps_p"):
            score(model, Rows("sps_zcr", np.zeros((5, 2))))
        wrong_dim = good + [FeatureVector(kind="sps_p", values=np.zeros(3))]
        with pytest.raises(InputError, match="dimensions"):
            as_rows(wrong_dim)
        with pytest.raises(InputError, match="dim"):
            score(model, Rows("sps_p", np.zeros((5, 3))))


class TestLateFusion:
    def _models_and_features(self, winner="speech"):
        sign = -1.0 if winner == "speech" else 1.0
        models, feats = {}, {}
        for kind, d in (("sps_p", 2), ("sps_zcr", 2), ("sps_scg", 6)):
            models[kind] = flat_model(kind=kind, d=d, mu_speech=sign, mu_music=-sign)
            feats[kind] = Rows(kind, np.full((1, d), -1.0))
        return models, feats

    def test_fused_decision(self):
        models, feats = self._models_and_features(winner="speech")
        assert row_fields(late_fuse_score(models, feats))[0][3] == "speech"
        models, feats = self._models_and_features(winner="music")
        assert row_fields(late_fuse_score(models, feats))[0][3] == "music"

    def test_missing_kind(self):
        models, feats = self._models_and_features()
        del models["sps_p"]
        with pytest.raises(InputError, match="late fusion"):
            late_fuse_score(models, feats)

    def _fitted(self, K):
        models, test = {}, {}
        for j, (kind, d) in enumerate((("sps_p", 3), ("sps_zcr", 4), ("sps_scg", 6))):
            train = [
                FeatureVector(kind=kind, values=f.values, label=f.label)
                for f in blobs(40 + j, 80, d=d, sep=2.0)
            ]
            models[kind] = fit_gmm(train, K=K, seed=j)
            test[kind] = as_rows([
                FeatureVector(kind=kind, values=f.values)
                for f in blobs(50 + j, 30, d=d, sep=2.0)
            ])
        return models, test

    @pytest.mark.parametrize("K", [1, 2, 4])
    def test_list_equals_per_row_bit_for_bit(self, K):
        models, test = self._fitted(K)
        batch = row_fields(late_fuse_score(models, test))
        assert len(batch) == 60
        for i, row in enumerate(batch):
            one = late_fuse_score(models, {k: v.take([i]) for k, v in test.items()})
            assert row_fields(one) == [row]
        assert {row[3] for row in batch} == {"speech", "music"}

    def test_empty_lists_return_empty(self):
        models, test = self._fitted(1)
        scores = late_fuse_score(models, {k: v.take([]) for k, v in test.items()})
        assert scores.margin.shape == scores.decision.shape == (0,)

    def test_lists_of_different_lengths(self, monkeypatch):
        models, test = self._fitted(1)
        test["sps_zcr"] = test["sps_zcr"].take(np.arange(59))
        no_scoring(monkeypatch)
        with pytest.raises(InputError, match="differ in length"):
            late_fuse_score(models, test)

    def test_mismatch_anywhere_raises_before_scoring(self, monkeypatch):
        models, test = self._fitted(1)
        test["sps_scg"] = Rows("sps_scg", test["sps_scg"].X[:, :-1])
        no_scoring(monkeypatch)
        with pytest.raises(InputError, match="dim"):
            late_fuse_score(models, test)


class TestScoringCalls:
    """The trial loop splits once and scores each test set in one call, not
    row by row; grid search does not reach the protocol's split through
    `evaluate`."""

    def _count(self, monkeypatch, name):
        calls = []
        orig = getattr(evaluate, name)

        def counted(*args):
            calls.append(1)
            return orig(*args)

        monkeypatch.setattr(evaluate, name, counted)
        return calls

    @pytest.mark.parametrize("kind", ["sps_p", "late_fused"])
    def test_one_call_per_trial(self, kind, monkeypatch, corpus_intervals, feature_cache):
        split_calls = self._count(monkeypatch, "stratified_split")
        score_calls = self._count(monkeypatch, "score")
        fuse_calls = self._count(monkeypatch, "late_fuse_score")
        cache, _ = feature_cache
        rep = run_experiment(
            corpus_intervals, kind, TrialConfig(n_trials=2, seed=1),
            p=3, k_grid=[1], feature_cache=cache,
        )
        assert len(rep.trials) == len(split_calls) == 2
        if kind == "late_fused":
            assert (len(score_calls), len(fuse_calls)) == (0, 2)
        else:
            assert (len(score_calls), len(fuse_calls)) == (2, 0)


class TestModelFormat:
    def test_roundtrip_exact(self):
        model = fit_gmm(blobs(20, 30), K=2, seed=1)
        text = model_to_text(model)
        assert text.startswith("spsgmm v1\n")
        back = model_from_text(text)
        assert back.feature_kind == model.feature_kind
        assert back.train_meta["chosen_k"] == 2
        np.testing.assert_array_equal(back.standardizer.mean, model.standardizer.mean)
        np.testing.assert_array_equal(back.standardizer.std, model.standardizer.std)
        for label in ("speech", "music"):
            a, b = model.classes[label], back.classes[label]
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.vars, b.vars)
            assert a.log_prior == b.log_prior
        assert model_to_text(back) == text

    def test_save_load_byte_stable(self, tmp_path):
        model = grid_search(blobs(21, 20), grid=[1, 2], seed=2)
        path = tmp_path / "m.txt"
        save_model(model, path)
        first = path.read_bytes()
        save_model(load_model(path), path)
        assert path.read_bytes() == first

    def test_scores_survive_roundtrip(self, tmp_path):
        model = fit_gmm(blobs(22, 30), K=2, seed=3)
        path = tmp_path / "m.txt"
        save_model(model, path)
        back = load_model(path)
        f = FeatureVector(kind="sps_p", values=np.array([0.3, -4.0]))
        assert score(model, f) == score(back, f)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("hello\n", "not a spsgmm v1"),
            ("spsgmm v1\nbogus line\n", "unexpected line"),
            ("spsgmm v1\nmeta\nfeature_kind sps_p\n", "incomplete"),
        ],
    )
    def test_malformed_files(self, text, match):
        with pytest.raises(InputError, match=match):
            model_from_text(text)

    @staticmethod
    def _corrupted(text, how):
        lines = text.splitlines()
        m = lines.index("means")  # the speech class's block, after its weights
        if how == "truncated vars":
            lines = lines[:-1]
        elif how == "non-numeric":
            lines[m + 1] = "abc " + lines[m + 1].split(" ", 1)[1]
        elif how == "means before weights":
            weights = lines.pop(m - 1)
            lines.insert(lines.index("class music"), weights)
        elif how == "ragged means":
            lines[m + 1] = lines[m + 1].rsplit(" ", 1)[0]
        elif how == "narrow means":  # every row, so the block is not ragged
            lines[m + 1 : m + 3] = [row.rsplit(" ", 1)[0] for row in lines[m + 1 : m + 3]]
        elif how == "wide vars":
            v = lines.index("vars")
            lines[v + 1 : v + 3] = [row + " 1" for row in lines[v + 1 : v + 3]]
        elif how == "dim":
            lines[lines.index("dim 2")] = "dim 3"
        elif how == "unknown class":
            lines[lines.index("class music")] = "class cats"
        elif how == "second speech class":  # a copy of the speech block before the music one
            c = lines.index("class music")
            lines[c:c] = lines[lines.index("class speech") : c]
        elif how == "misspelt key":
            lines[lines.index("chosen_k 2")] = "chosen-k 2"
        elif how == "extra standardizer field":
            lines.insert(lines.index("class speech"), "scale 1 1")
        elif how == "trailing text":
            lines += ["meta", "feature_kind sps_zcr"]
        elif how == "chosen_k not the mixtures' K":
            lines[lines.index("chosen_k 2")] = "chosen_k 7"
        elif how == "negative seed":
            lines[lines.index("seed 4")] = "seed -5"
        elif how == "K grid below 1":
            lines[lines.index("k_grid 2")] = "k_grid -3,0"
        elif how == "one-component speech class":  # its first component, reweighted to 1
            w = lines.index("means") - 1
            lines[w] = "weights 1"
            for block in ("means", "vars"):
                del lines[lines.index(block) + 2]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "how,match",
        [
            ("truncated vars", "ends inside a vars block"),
            ("non-numeric", "non-numeric value"),
            ("means before weights", "unexpected line in model file: 'means'"),
            ("ragged means", "ragged means"),
            ("dim", "dims disagree"),
            ("narrow means", "dims disagree: standardizer 2, means rows 1"),
            ("wide vars", "dims disagree: standardizer 2, vars rows 3"),
            ("unknown class", "unexpected line in model file: 'class cats'"),
            ("second speech class", "unexpected line in model file: 'class speech'"),
            ("misspelt key", "unexpected line in model file: 'chosen-k 2'"),
            ("extra standardizer field", "unexpected line in model file: 'scale 1 1'"),
            ("trailing text", "unexpected line in model file: 'meta'"),
            ("chosen_k not the mixtures' K", "class speech weights: K = 2, but chosen_k is 7"),
            ("negative seed", "model file seed must be >= 0, got -5"),
            ("K grid below 1", "model file k_grid must be >= 1, got -3, 0"),
            ("one-component speech class", "class speech weights: K = 1, but chosen_k is 2"),
        ],
    )
    def test_corrupted_model_files(self, how, match):
        text = model_to_text(fit_gmm(blobs(23, 30), K=2, seed=4))
        bad = self._corrupted(text, how)
        assert bad != text
        with pytest.raises(InputError, match=match):
            model_from_text(bad)

    @pytest.mark.parametrize("K", [1, 2])
    def test_every_one_line_deletion_or_duplication_refused(self, K):
        lines = model_to_text(fit_gmm(blobs(23, 30), K=K, seed=4)).splitlines()
        for i in range(len(lines)):
            for bad in (lines[:i] + lines[i + 1 :], lines[: i + 1] + lines[i:]):
                with pytest.raises(InputError):
                    model_from_text("\n".join(bad) + "\n")

    def test_blank_lines_ignored(self):
        text = model_to_text(fit_gmm(blobs(23, 30), K=2, seed=4))
        spaced = "\n" + text.replace("\n", "\n\n \n")
        assert model_to_text(model_from_text(spaced)) == text

    @staticmethod
    def _with_value(text, block, value):
        """text with the first number of the block (the speech class's, for
        a class block) set to value, and the block's name in the error."""
        lines = text.splitlines()
        if block in ("means", "vars"):  # the first row under the block line
            i, j = lines.index(block) + 1, 0
        else:
            i, j = next(i for i, line in enumerate(lines) if line.startswith(block + " ")), 1
        tokens = lines[i].split(" ")
        tokens[j] = value
        lines[i] = " ".join(tokens)
        where = "standardizer" if block in ("mean", "std") else "class speech"
        return "\n".join(lines) + "\n", f"model file {where} {block}: "

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("block", ["mean", "std", "log_prior", "weights", "means", "vars"])
    def test_non_finite_values_refused(self, block, value):
        text = model_to_text(fit_gmm(blobs(24, 30), K=2, seed=5))
        bad, name = self._with_value(text, block, value)
        assert bad != text
        with pytest.raises(InputError, match=name + "non-finite value"):
            model_from_text(bad)

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("block", ["std", "weights", "vars"])
    def test_non_positive_values_refused(self, block, value):
        text = model_to_text(fit_gmm(blobs(24, 30), K=2, seed=5))
        bad, name = self._with_value(text, block, value)
        with pytest.raises(InputError, match=name + "value not above 0"):
            model_from_text(bad)

    @pytest.mark.parametrize("K,weights", [(1, "5"), (2, "0.5 0.6"), (2, "0.25 0.25")])
    def test_weights_not_summing_to_one_refused(self, K, weights):
        text = model_to_text(fit_gmm(blobs(24, 30), K=K, seed=5))
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("weights "))  # speech
        lines[i] = "weights " + weights
        with pytest.raises(InputError, match="model file class speech weights: sum .* is not 1"):
            model_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 8])
    def test_fitted_weights_pass_the_sum_check(self, K):
        for seed in range(6):
            for X in (blobs(40 + seed, 30, d=3), blobs(50 + seed, 12 * K, d=6, sep=0.5)):
                model = fit_gmm(X, K=K, seed=seed)
                back = model_from_text(model_to_text(model))
                for label in LABELS:
                    np.testing.assert_array_equal(back.classes[label].weights, model.classes[label].weights)

    def test_grid_searched_models_on_corpus_features_load(self, feature_cache):
        cache, _ = feature_cache
        for kind in ("sps_p", "sps_zcr", "sps_scg"):
            rows = as_rows([v[kind] for v in cache.values()])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an infeasible K is skipped
                model = grid_search(rows, [1, 2, 3, 4], seed=3)
            model_from_text(model_to_text(model))
