"""Baseline similarity metrics and the correlation/robustness harness."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from viewrank import seeding, so3, synthworld
from viewrank.ambiguity import AmbiguityTable, normalize_ambiguity
from viewrank.codebook import unit
from viewrank.baselines import (
    METRIC_NAMES,
    MetricReport,
    _correlation,
    blob_match_similarity,
    metric_comparison,
    mse_similarity,
    noise_robustness_sweep,
)


@pytest.fixture(scope="module")
def report(pair, tables):
    a, b = pair
    return metric_comparison(tables["A"], a, {"B": b})


class TestMseSimilarity:
    def test_identical_is_zero(self):
        assert mse_similarity([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_example(self):
        assert mse_similarity([0.0, 0.0], [2.0, 4.0]) == pytest.approx(-10.0)

    def test_nonpositive_and_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=(2, 6))
            assert mse_similarity(a, b) <= 0.0
            assert mse_similarity(a, b) == mse_similarity(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_similarity([1.0], [1.0, 2.0])


class TestBlobMatchSimilarity:
    def test_twin_hidden_view_full_match(self, pair, hidden_rotation):
        a, b = pair
        s = blob_match_similarity(a, hidden_rotation, b, hidden_rotation)
        assert s == 1.0

    def test_twin_visible_view_partial_match(self, pair, visible_rotation):
        a, b = pair
        s = blob_match_similarity(a, visible_rotation, b, visible_rotation)
        assert 0.0 < s < 1.0

    def test_self_same_view_is_one(self, pair):
        a, _ = pair
        r = so3.look_at([0.3, 0.4, -0.5])
        assert blob_match_similarity(a, r, a, r) == 1.0

    def test_self_opposite_views_is_zero(self, pair):
        # Opposite hemispheres share no visible blobs, so nothing can match.
        a, _ = pair
        r1 = so3.look_at([0.0, 0.0, 1.0])
        r2 = so3.look_at([0.0, 0.0, -1.0])
        assert blob_match_similarity(a, r1, a, r2) == 0.0

    def test_range_and_symmetry(self, pair):
        a, b = pair
        rng = np.random.default_rng(1)
        for _ in range(10):
            ra, rb = so3.random_rotation(rng), so3.random_rotation(rng)
            s = blob_match_similarity(a, ra, b, rb)
            assert 0.0 <= s <= 1.0
            assert s == blob_match_similarity(b, rb, a, ra)

    def test_mismatched_objects_rejected(self, pair):
        a, _ = pair
        small, _ = synthworld.make_ambiguous_pair(1, n_blobs=16, d=8)
        r = so3.Rotation([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            blob_match_similarity(a, r, small, r)


def scaled(values):
    """MetricReport.scaled_values of a single metric, which uses normalize_ambiguity."""
    return MetricReport(("m",), {"m": np.asarray(values, dtype=float)}, {}, {}).scaled_values("m")


class TestScaled:
    def test_example(self):
        assert np.allclose(scaled([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])

    def test_constant_maps_to_zero(self):
        assert np.array_equal(scaled([3.0, 3.0]), np.zeros(2))

    def test_is_normalize_ambiguity(self):
        # One normalizer: a range at or below 1e-12 counts as constant.
        values = [0.5, 0.5 + 1e-13, 0.5 + 5e-13]
        assert np.array_equal(scaled(values), normalize_ambiguity(values))
        assert np.array_equal(scaled(values), np.zeros(3))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    def test_range(self, values):
        out = scaled(values)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.array_equal(out, normalize_ambiguity(values))


class TestMetricComparison:
    def test_report_structure(self, report, tables):
        assert report.metric_names == METRIC_NAMES
        assert set(report.values) == set(METRIC_NAMES)
        for name in METRIC_NAMES:
            assert len(report.values[name]) == len(tables["A"])
            assert -1.0 <= report.spearman[name] <= 1.0
            assert -1.0 <= report.pearson[name] <= 1.0

    def test_primary_self_correlation(self, report, tables):
        assert report.spearman["primary"] == 1.0
        assert report.pearson["primary"] == 1.0
        assert np.array_equal(report.values["primary"], tables["A"].raw_similarity)

    def test_values_match_direct_evaluation(self, pair, report, tables):
        a, b = pair
        t = tables["A"]
        # Each object's rows are rendered in one block, as the comparison does.
        za = synthworld.render_embeddings(a, t.r_a_quats)
        zb = synthworld.render_embeddings(b, t.r_b_quats)
        for i in (0, 25, 60):
            p = t.pairs[i]
            assert report.values["mse"][i] == mse_similarity(za[i], zb[i])
            assert report.values["blob_match"][i] == pytest.approx(
                blob_match_similarity(a, p.r_a, b, p.r_b), abs=1e-15
            )

    def test_unknown_metric_rejected(self, pair, tables):
        a, b = pair
        with pytest.raises(ValueError):
            metric_comparison(tables["A"], a, {"B": b}, metrics=("primary", "ssim"))

    def test_empty_table_rejected(self, pair):
        a, b = pair
        empty = AmbiguityTable(object_class="A", pairs=(), ambiguity=np.zeros(0), grid_meta={})
        with pytest.raises(ValueError):
            metric_comparison(empty, a, {"B": b})

    def test_degenerate_table_correlations_zero(self, pair, tables, coarse_grid_small):
        # A table whose raw similarity is constant has no ranking to agree
        # with; every correlation is defined as 0 (primary included).
        a, b = pair
        t = tables["A"]
        pairs = tuple(
            type(p)(1.0, p.r_a, p.r_b, p.matched_class) for p in t.pairs[:10]
        )
        degenerate = AmbiguityTable(
            object_class="A", pairs=pairs, ambiguity=np.zeros(10), grid_meta={}
        )
        rep = metric_comparison(degenerate, a, {"B": b})
        assert rep.spearman["primary"] == 0.0
        assert rep.pearson["primary"] == 0.0

    def test_does_not_mutate_table(self, pair, tables):
        t = tables["A"]
        before = t.raw_similarity.copy()
        metric_comparison(t, pair[0], {"B": pair[1]}, metrics=("primary", "mse"))
        assert np.array_equal(t.raw_similarity, before)

    def test_metric_csv_roundtrip(self, tmp_path, report):
        path = tmp_path / "metric_mse.csv"
        report.save_metric_csv("mse", path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["pair_index", "scaled_value"]
        vals = np.array([float(r[1]) for r in rows[1:]])
        assert np.allclose(vals, report.scaled_values("mse"), atol=1e-15)

    def test_correlations_csv(self, tmp_path, report):
        path = tmp_path / "corr.csv"
        report.save_correlations_csv(path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["metric", "spearman", "pearson"]
        assert [r[0] for r in rows[1:]] == list(METRIC_NAMES)
        for r in rows[1:]:
            assert float(r[1]) == pytest.approx(report.spearman[r[0]], abs=1e-15)
            assert float(r[2]) == pytest.approx(report.pearson[r[0]], abs=1e-15)


def correlation_draws(kind, rng):
    """Seeded ``(x, y)`` pairs of one kind, from 2 to 2,000 points long."""
    for n in (2, 2, 2, 3, 5, 17, 100, 2000):
        x, y = rng.normal(size=n), rng.normal(size=n)
        if kind == "ties":
            x, y = rng.integers(0, 3, n).astype(float), rng.integers(0, 2, n) - 0.5
        elif kind == "scales":
            x, y = x * 1e200, y * 1e-200
        elif kind == "mixed-scales":
            x, y = x * 10.0 ** rng.uniform(-200, 200), y * 10.0 ** rng.uniform(-200, 200)
        elif kind == "near-constant":
            x = 1.0 - 1e-12 * rng.random(n)
        elif kind == "near-linear":
            y = 3.0 * x + 1e-9 * y
        yield x, y


class TestCorrelation:
    @pytest.mark.parametrize("kind", [
        "normal", "ties", "scales", "mixed-scales", "near-constant", "near-linear"])
    def test_matches_scipy_bit_for_bit(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(40):
            for x, y in correlation_draws(kind, rng):
                if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
                    continue
                with warnings.catch_warnings():
                    # scipy warns of nearly constant input; the statistic stands.
                    warnings.simplefilter("ignore")
                    want = (float(stats.spearmanr(x, y).statistic),
                            float(stats.pearsonr(x, y).statistic))
                assert _correlation(x, y) == want, (kind, len(x))

    @pytest.mark.parametrize("x, y", [
        ([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]),
        ([0.0, 1.0, 2.0], [3.0, 3.0, 3.0]),
        ([2.0], [5.0]),
    ])
    def test_constant_series_gives_zero(self, x, y):
        assert _correlation(np.array(x), np.array(y)) == (0.0, 0.0)


@pytest.fixture(scope="module")
def sweep(pair, tables):
    a, b = pair
    sigma1 = 0.5 * synthworld.mean_embedding_norm(a) / np.sqrt(a.descriptor_dim)
    return noise_robustness_sweep(
        tables["A"], a, {"B": b}, sigmas=[0.0, sigma1, 100.0 * sigma1], seed=0
    ), sigma1


class TestNoiseRobustness:
    def test_sigma_zero_is_perfect(self, sweep):
        rows, _ = sweep
        assert rows[0] == (0.0, 1.0)

    def test_non_increasing_with_noise(self, sweep):
        rows, _ = sweep
        corrs = [c for _, c in rows]
        assert corrs[0] >= corrs[1] - 0.05
        assert corrs[1] >= corrs[2] - 0.05

    def test_huge_noise_destroys_ranking(self, sweep):
        rows, _ = sweep
        assert abs(rows[2][1]) < 0.25

    def test_matches_per_pair_reference(self, pair, tables, sweep):
        # Reference: one-row renders, each pair with its own noise streams,
        # and the scalar cosine.
        a, b = pair
        rows, _ = sweep
        t = tables["A"]
        for si in (1, 2):
            sigma = rows[si][0]
            vals = [
                unit(synthworld.render_embedding(a, p.r_a, sigma, seeding.rng(0, "noise-a", si, i)))
                @ unit(synthworld.render_embedding(b, p.r_b, sigma,
                                                   seeding.rng(0, "noise-b", si, i)))
                for i, p in enumerate(t.pairs)
            ]
            want = stats.spearmanr(vals, t.raw_similarity).statistic
            assert rows[si][1] == pytest.approx(want, abs=1e-12)

    def test_deterministic(self, pair, tables):
        a, b = pair
        r1 = noise_robustness_sweep(tables["A"], a, {"B": b}, sigmas=[0.3], seed=5)
        r2 = noise_robustness_sweep(tables["A"], a, {"B": b}, sigmas=[0.3], seed=5)
        r3 = noise_robustness_sweep(tables["A"], a, {"B": b}, sigmas=[0.3], seed=6)
        assert r1 == r2
        assert r1 != r3

    def test_validation(self, pair, tables):
        a, b = pair
        with pytest.raises(ValueError):
            noise_robustness_sweep(tables["A"], a, {"B": b}, sigmas=[])
        with pytest.raises(ValueError):
            noise_robustness_sweep(tables["A"], a, {"B": b}, sigmas=[-0.1])
