"""Nearest-centroid classification and the threshold/cap accuracy sweep."""

import csv
import math

import numpy as np
import pytest

from viewrank import ambiguity, classify, so3, synthworld
from viewrank.classify import (
    CentroidClassifier,
    EmptyTrainSetError,
    SweepResult,
    SweepRow,
    default_noise_sigma,
    predict,
    threshold_sweep,
    train,
)


@pytest.fixture(scope="module")
def splits(tables):
    return [
        ambiguity.split_by_threshold(tables["A"], 0.5),
        ambiguity.split_by_threshold(tables["B"], 0.5),
    ]


@pytest.fixture(scope="module")
def clf(pair, splits):
    return train(list(pair), splits, noise_sigma=0.0, seed=0)


class TestTrain:
    def test_shape_and_metadata(self, pair, clf):
        a, _ = pair
        assert clf.classes == ("A", "B")
        assert clf.centroids.shape == (2, a.descriptor_dim)
        assert np.allclose(np.linalg.norm(clf.centroids, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self, pair, splits):
        c1 = train(list(pair), splits, noise_sigma=0.1, seed=3)
        c2 = train(list(pair), splits, noise_sigma=0.1, seed=3)
        c3 = train(list(pair), splits, noise_sigma=0.1, seed=4)
        assert np.array_equal(c1.centroids, c2.centroids)
        assert not np.array_equal(c1.centroids, c3.centroids)

    def test_noise_free_centroid_is_mean(self, pair, splits, clf):
        a, _ = pair
        z = synthworld.render_embeddings(a, splits[0].train_quats)
        mean = z.mean(axis=0)
        assert np.allclose(clf.centroids[0], mean / np.linalg.norm(mean), atol=1e-12)

    def test_empty_train_set_error(self, pair, tables):
        splits = [
            ambiguity.split_by_threshold(tables["A"], 0.0),
            ambiguity.split_by_threshold(tables["B"], 0.0),
        ]
        with pytest.raises(EmptyTrainSetError) as exc:
            train(list(pair), splits)
        assert exc.value.class_id == "A"
        assert exc.value.threshold == 0.0

    def test_negative_noise_rejected(self, pair, splits):
        with pytest.raises(ValueError, match="noise_sigma"):
            train(list(pair), splits, noise_sigma=-0.1)
        with pytest.raises(ValueError, match="noise_sigma"):
            classify._noisy_renders(pair[0], np.array([[1.0, 0.0, 0.0, 0.0]]), -1e-9,
                                    np.random.default_rng(0))

    def test_validation(self, pair, splits):
        with pytest.raises(ValueError):
            train(list(pair), splits, samples_per_rotation=0)
        with pytest.raises(ValueError):
            train(list(pair), splits[:1])

    def test_centroids_write_protected(self, clf):
        with pytest.raises(ValueError):
            clf.centroids[0, 0] = 0.0


class TestPredict:
    def test_unambiguous_views_classified_correctly(self, pair, tables, clf):
        # Clean views at low-ambiguity orientations should be easy.
        a, b = pair
        for obj, tab in ((a, tables["A"]), (b, tables["B"])):
            r = so3.Rotation(tab.r_a_quats[np.argmin(tab.ambiguity)])
            z = synthworld.render_embedding(obj, r)
            cls, margin = predict(clf, z)
            assert cls == obj.class_id
            assert margin > 0.0

    def test_roll_invariant(self, pair, clf):
        a, _ = pair
        d = np.asarray(a.meta["patch_center"], dtype=float)
        z0 = synthworld.render_embedding(a, so3.look_at(d, 0.0))
        z1 = synthworld.render_embedding(a, so3.look_at(d, 2.3))
        c0, m0 = predict(clf, z0)
        c1, m1 = predict(clf, z1)
        assert c0 == c1
        assert m0 == pytest.approx(m1, abs=1e-9)

    def test_scale_invariant(self, pair, clf, visible_rotation):
        a, _ = pair
        z = synthworld.render_embedding(a, visible_rotation)
        assert predict(clf, z) == predict(clf, 100.0 * z)

    def test_single_class_margin_infinite(self, pair, splits):
        a, _ = pair
        clf1 = train([a], splits[:1])
        z = synthworld.render_embedding(a, so3.look_at([0.0, 1.0, 0.0]))
        cls, margin = predict(clf1, z)
        assert cls == "A"
        assert margin == math.inf

    def test_zero_embedding_rejected(self, clf):
        with pytest.raises(ValueError):
            predict(clf, np.zeros(clf.centroids.shape[1]))

    def test_hidden_views_near_chance(self, pair, tables):
        # Views that hide the differing patch render identically for the
        # twins, so accuracy restricted to them must hover near 1/2.
        a, b = pair
        rng = np.random.default_rng(0)
        hidden = {}
        for obj, tab in ((a, tables["A"]), (b, tables["B"])):
            hidden[obj.class_id] = [
                p.r_a for p in tab.pairs
                if not synthworld.patch_visible(pair, p.r_a)
            ]
        assert min(len(v) for v in hidden.values()) >= 5
        sigma = default_noise_sigma(a, 0.5)
        correct = 0
        total = 0
        for trial in range(8):
            splits = [
                ambiguity.ThresholdSplit(0.5, tab.r_a_quats[rng.integers(0, len(tab), size=8)])
                for tab in (tables["A"], tables["B"])
            ]
            clf = train([a, b], splits, noise_sigma=sigma, seed=trial)
            for obj in (a, b):
                rots = hidden[obj.class_id]
                for i in rng.integers(0, len(rots), size=32):
                    z = synthworld.render_embedding(obj, rots[i], sigma, rng)
                    correct += predict(clf, z)[0] == obj.class_id
                    total += 1
        assert abs(correct / total - 0.5) < 0.08


@pytest.fixture(scope="module")
def sweep(pair, tables):
    a, _ = pair
    sigma = default_noise_sigma(a, 0.5)
    return threshold_sweep(
        list(pair),
        [tables["A"], tables["B"]],
        thresholds=[0.0, 0.25, 0.5, 1.0],
        caps=[0.25, 1.0],
        trials=4,
        eval_samples=40,
        noise_sigma=sigma,
        seed=0,
    )


class TestThresholdSweep:
    def test_row_grid(self, sweep):
        assert len(sweep.rows) == 8
        cells = [(r.train_threshold, r.eval_ambiguity_cap) for r in sweep.rows]
        assert cells == [(t, c) for t in (0.0, 0.25, 0.5, 1.0) for c in (0.25, 1.0)]

    def test_empty_train_rows(self, sweep):
        for r in sweep.rows:
            if r.train_threshold == 0.0:
                assert r.status == "empty_train"
                assert math.isnan(r.accuracy)
                assert r.n_samples == 0
            else:
                assert r.status == "ok"
                assert 0.0 <= r.accuracy <= 1.0
                assert r.n_samples == 40 * 2 * 4

    def test_empty_eval_rows(self, pair, tables):
        # No orientation has ambiguity below 0, so cap 0.0 leaves every
        # evaluation split empty; empty_train still wins at threshold 0.0.
        result = threshold_sweep(
            list(pair), [tables["A"], tables["B"]], thresholds=[0.0, 0.5], caps=[0.0, 1.0],
            trials=2, eval_samples=10, noise_sigma=0.0, seed=0,
        )
        by_cell = {(r.train_threshold, r.eval_ambiguity_cap): r for r in result.rows}
        assert by_cell[(0.0, 0.0)].status == by_cell[(0.0, 1.0)].status == "empty_train"
        empty = by_cell[(0.5, 0.0)]
        assert empty.status == "empty_eval"
        assert math.isnan(empty.accuracy) and empty.n_samples == 0
        assert by_cell[(0.5, 1.0)].status == "ok"

    def test_evaluate_without_rotations_raises(self, pair, clf):
        with pytest.raises(ValueError, match="no evaluation rotations"):
            classify.evaluate_on_rotations(clf, list(pair), [[], []], 10, 0.0,
                                           np.random.default_rng(0))

    def test_capping_evaluation_helps(self, sweep):
        # Restricting evaluation to low-ambiguity views should never hurt
        # much; at matched thresholds the capped cell outperforms the
        # uncapped one.
        by_cell = {(r.train_threshold, r.eval_ambiguity_cap): r.accuracy for r in sweep.rows}
        assert by_cell[(0.5, 0.25)] >= by_cell[(0.5, 1.0)] - 0.02

    def test_deterministic(self, pair, tables, sweep):
        a, _ = pair
        sigma = default_noise_sigma(a, 0.5)
        again = threshold_sweep(
            list(pair),
            [tables["A"], tables["B"]],
            thresholds=[0.0, 0.25, 0.5, 1.0],
            caps=[0.25, 1.0],
            trials=4,
            eval_samples=40,
            noise_sigma=sigma,
            seed=0,
        )
        for r1, r2 in zip(sweep.rows, again.rows):
            assert r1 == r2 or (math.isnan(r1.accuracy) and math.isnan(r2.accuracy)
                                and r1.status == r2.status)

    def test_validation(self, pair, tables):
        tabs = [tables["A"], tables["B"]]
        with pytest.raises(ValueError):
            threshold_sweep(list(pair), tabs, [0.5], [0.5], trials=0)
        with pytest.raises(ValueError):
            threshold_sweep(list(pair), tabs, [1.5], [0.5])
        with pytest.raises(ValueError):
            threshold_sweep(list(pair), tabs, [0.5], [-0.1])
        with pytest.raises(ValueError):
            threshold_sweep(list(pair), tabs, [0.5], [0.5], train_rotations_per_class=0)

    def test_csv_output(self, tmp_path, sweep):
        path = tmp_path / "sweep.csv"
        sweep.to_csv(path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["train_threshold", "eval_ambiguity_cap", "accuracy", "n_samples", "status"]
        assert len(rows) == len(sweep.rows) + 1
        for raw, r in zip(rows[1:], sweep.rows):
            assert float(raw[0]) == r.train_threshold
            assert float(raw[1]) == r.eval_ambiguity_cap
            if r.status in ("empty_train", "empty_eval"):
                assert raw[2] == ""
            else:
                assert float(raw[2]) == pytest.approx(r.accuracy, abs=1e-15)
            assert int(raw[3]) == r.n_samples
            assert raw[4] == r.status


class TestDefaultNoiseSigma:
    def test_scales_linearly_with_factor(self, pair):
        a, _ = pair
        assert default_noise_sigma(a, 1.0) == pytest.approx(2.0 * default_noise_sigma(a, 0.5))

    def test_noise_norm_near_factor_times_signal(self, pair):
        # A noise vector with this per-component sigma has expected norm of
        # about factor * mean embedding norm.
        a, _ = pair
        factor = 0.5
        sigma = default_noise_sigma(a, factor)
        rng = np.random.default_rng(0)
        norms = np.linalg.norm(rng.normal(0.0, sigma, size=(2000, a.descriptor_dim)), axis=1)
        signal = synthworld.mean_embedding_norm(a)
        assert np.mean(norms) == pytest.approx(factor * signal, rel=0.05)

    def test_zero_factor(self, pair):
        assert default_noise_sigma(pair[0], 0.0) == 0.0
