"""Viewpoint ambiguity ranking: descent matcher, tables, splits, export."""

import csv
import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from viewrank import ambiguity, classify, so3, synthworld
from viewrank.ambiguity import (
    CSV_COLUMNS,
    AmbiguityTable,
    export_sorted_pairs,
    most_similar_view,
    normalize_ambiguity,
    rank_object,
    split_by_threshold,
)
from viewrank.codebook import build_codebook, roll_components, unit


def reference_direction_evaluator(target, z_unit, points=None):
    """Scalar oracle for ``ambiguity._direction_evaluator``; logs each point in ``points``.

    ``C`` and ``S`` come from the weights against the per-blob components, in
    the same product as the descriptor sum."""
    positions = target.positions
    d = target.descriptor_dim
    basis = np.hstack([target.descriptors,
                       np.stack(roll_components(z_unit, target.descriptors), axis=1)])

    def sim(theta, phi):
        if points is not None:
            points.append((theta, phi))
        sin_t = math.sin(theta)
        v = np.array([sin_t * math.cos(phi), sin_t * math.sin(phi), math.cos(theta)])
        w = np.clip(positions @ v, 0.0, None) ** 2
        t = w @ basis
        n = float(np.linalg.norm(t[:d]))
        if n == 0.0:
            return -1.0, 0.0
        return math.hypot(t[d], t[d + 1]) / n, math.atan2(t[d + 1], t[d])

    return sim


def reference_most_similar_view(z, target, target_cb, descent_steps, initial_step, points=None):
    """Scalar oracle for ``most_similar_view``: the descent that evaluates every
    probe afresh, repeats included, from the ``Codebook.best`` seed; logs each
    evaluated point in ``points``."""
    z = np.asarray(z, dtype=float)
    z_unit = z / float(np.linalg.norm(z))
    i, seed_score = target_cb.best(z)
    seed_rotation = target_cb.grid.entry(i)
    if descent_steps == 0:
        return seed_rotation, float(np.clip(seed_score, -1.0, 1.0))

    sim = reference_direction_evaluator(target, z_unit, points)
    v0 = seed_rotation.view_direction()
    x = [math.acos(max(-1.0, min(1.0, v0[2]))), math.atan2(v0[1], v0[0])]
    best, roll = sim(*x)
    best = max(best, seed_score)

    step = float(initial_step)
    for _ in range(descent_steps):
        for ci in range(2):
            xp = list(x)
            xp[ci] += step
            xm = list(x)
            xm[ci] -= step
            fp, rp = sim(*xp)
            fm, rm = sim(*xm)
            if fp > best or fm > best:
                if fp >= fm:
                    sign, x, best, roll = 1.0, xp, fp, rp
                else:
                    sign, x, best, roll = -1.0, xm, fm, rm
                for _ in range(ambiguity._MAX_INNER_STEPS):
                    nxt = list(x)
                    nxt[ci] += sign * step
                    fn, rn = sim(*nxt)
                    if fn > best:
                        x, best, roll = nxt, fn, rn
                    else:
                        break
            xp = list(x)
            xp[ci] += step
            xm = list(x)
            xm[ci] -= step
            fp, _ = sim(*xp)
            fm, _ = sim(*xm)
            denom = fp - 2.0 * best + fm
            if denom < 0.0:
                delta = 0.5 * step * (fm - fp) / denom
                if abs(delta) < 4.0 * step:
                    cand = list(x)
                    cand[ci] += delta
                    fc, rc = sim(*cand)
                    if fc > best:
                        x, best, roll = cand, fc, rc
        step *= 0.5

    theta, phi = x
    sin_t = math.sin(theta)
    direction = np.array([sin_t * math.cos(phi), sin_t * math.sin(phi), math.cos(theta)])
    return so3.look_at(direction, roll), min(1.0, max(-1.0, best))


@functools.lru_cache(maxsize=None)
def small_world(seed, n_blobs, patch_radius):
    """Twins ``a, b`` and a small codebook of ``b``."""
    a, b = synthworld.make_ambiguous_pair(seed, n_blobs=n_blobs, patch_radius=patch_radius)
    return a, b, build_codebook(b, so3.build_view_grid(64, 4))


class TestMostSimilarView:
    def test_self_match_is_exact(self, pair, codebooks, initial_step):
        a, _ = pair
        rng = np.random.default_rng(1)
        for _ in range(5):
            r = so3.random_rotation(rng)
            z = synthworld.render_embedding(a, r)
            r_hat, s = most_similar_view(z, a, codebooks[0], initial_step=initial_step)
            assert s == pytest.approx(1.0, abs=1e-6)
            z_hat = synthworld.render_embedding(a, r_hat)
            aligned = min(1.0, math.hypot(*roll_components(unit(z), unit(z_hat))))
            assert aligned == pytest.approx(1.0, abs=1e-6)

    def test_hidden_view_matches_twin_perfectly(self, pair, codebooks, hidden_rotation,
                                                initial_step):
        a, b = pair
        z = synthworld.render_embedding(a, hidden_rotation)
        _, s = most_similar_view(z, b, codebooks[1], initial_step=initial_step)
        assert s == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_blobs=st.integers(16, 96),
        patch_radius=st.floats(0.2, 1.2),
        direction=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
            lambda d: sum(c * c for c in d) > 1e-2),
        roll=st.floats(0.0, 2.0 * math.pi),
        noise=st.sampled_from([0.0, 0.05, 0.5]),
        initial_step=st.floats(0.05, 1.0),
    )
    # The ``pair`` fixture viewed head-on at its patch, from the ``initial_step`` fixture.
    @example(seed=0, n_blobs=512, patch_radius=math.pi / 3.0, direction=(1.0, 0.0, 0.0),
             roll=0.0, noise=0.0, initial_step=2.0 * math.sqrt(4.0 * math.pi / 384))
    def test_monotone_in_descent_steps(self, seed, n_blobs, patch_radius, direction, roll,
                                       noise, initial_step):
        a, b, cb = small_world(seed, n_blobs, patch_radius)
        sigma = classify.default_noise_sigma(a, noise)
        z = synthworld.render_embedding(a, so3.look_at(direction, roll), sigma,
                                        np.random.default_rng(seed))
        assume(np.any(z))
        sims = [most_similar_view(z, b, cb, k, initial_step=initial_step)[1]
                for k in (0, 1, 2, 3, 5, 8, 13, 21)]
        for lo, hi in zip(sims, sims[1:]):
            assert hi >= lo

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_blobs=st.integers(64, 160),
        patch_radius=st.floats(0.2, 1.2),
        pick=st.floats(0.0, 1.0),
        roll=st.floats(0.0, 2.0 * math.pi),
    )
    # The ``pair`` fixture's world.
    @example(seed=0, n_blobs=512, patch_radius=math.pi / 3.0, pick=0.5, roll=0.0)
    def test_saturates_where_patch_hidden(self, seed, n_blobs, patch_radius, pick, roll):
        # A view hiding every differing blob renders bit for bit as the twin's
        # view, so the descent reaches it; a view facing a differing blob by
        # more than 0.02 cannot.  Views grazing the patch may saturate within
        # the tolerance and are not drawn.  Worlds of 20-30 blobs are not
        # drawn either: their descent can stop at a local optimum short of
        # the twin's view.
        a, b, cb = small_world(seed, n_blobs, patch_radius)
        dirs = so3.fibonacci_directions(256)
        facing = np.max(dirs @ a.positions[synthworld.differing_blobs(a, b)].T, axis=1)
        step = 2.0 * math.sqrt(4.0 * math.pi / 64)
        for group, saturates in ((facing <= 0.0, True), (facing > 0.02, False)):
            candidates = dirs[group]
            v = candidates[min(int(pick * len(candidates)), len(candidates) - 1)]
            z = synthworld.render_embedding(a, so3.look_at(v, roll))
            _, s = most_similar_view(z, b, cb, initial_step=step)
            assert (s >= 1.0 - 1e-12) == saturates

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_blobs=st.integers(16, 96),
        patch_radius=st.floats(0.2, 1.2),
        view=st.tuples(st.floats(0.0, math.pi), st.floats(-math.pi, math.pi)),
        point=st.tuples(st.floats(-1.0, 4.0), st.floats(-4.0, 4.0)),
        noise=st.sampled_from([0.0, 0.05, 0.5]),
    )
    def test_evaluator_matches_components_of_the_sum(self, seed, n_blobs, patch_radius, view,
                                                     point, noise):
        # Per-blob components summed by the weights match the components of
        # the weighted descriptor sum, up to rounding.
        a, b, _ = small_world(seed, n_blobs, patch_radius)
        z = synthworld.render_embedding(a, so3.look_at(so3.unit_vector(*view)),
                                        classify.default_noise_sigma(a, noise),
                                        np.random.default_rng(seed))
        assume(np.any(z))
        z_unit = unit(z)
        sim, _ = ambiguity._direction_evaluator(b, z_unit)(*point)
        w = np.maximum(b.positions @ so3.unit_vector(*point), 0.0) ** 2
        s = w @ b.descriptors
        n = float(np.linalg.norm(s))
        if n == 0.0:
            assert sim == -1.0
        else:
            assert abs(sim - math.hypot(*roll_components(z_unit, s)) / n) <= 1e-13

    def test_zero_steps_returns_codebook_seed(self, pair, codebooks, initial_step):
        a, b = pair
        z = synthworld.render_embedding(a, so3.look_at([0.0, 1.0, 0.0], 0.3))
        cb = codebooks[1]
        r0, s0 = most_similar_view(z, b, cb, descent_steps=0, initial_step=initial_step)
        i, score = cb.best(z)
        assert r0 == cb.grid.entry(i)
        assert s0 == pytest.approx(score, abs=1e-12)

    def test_descent_beats_seed(self, pair, codebooks, visible_rotation, initial_step):
        a, b = pair
        z = synthworld.render_embedding(a, visible_rotation)
        _, s0 = most_similar_view(z, b, codebooks[1], descent_steps=0, initial_step=initial_step)
        _, s = most_similar_view(z, b, codebooks[1], descent_steps=32, initial_step=initial_step)
        assert s >= s0 - 1e-12

    def test_returned_similarity_matches_rendering(self, pair, codebooks, initial_step):
        a, b = pair
        z = synthworld.render_embedding(a, so3.look_at([0.4, -0.3, 0.86]))
        r_hat, s = most_similar_view(z, b, codebooks[1], initial_step=initial_step)
        z_hat = synthworld.render_embedding(b, r_hat)
        aligned = min(1.0, math.hypot(*roll_components(unit(z), unit(z_hat))))
        assert aligned == pytest.approx(s, abs=1e-9)

    def test_validation(self, pair, codebooks, initial_step):
        _, b = pair
        z = np.zeros(b.descriptor_dim)
        with pytest.raises(ValueError):
            most_similar_view(z, b, codebooks[1], initial_step=initial_step)
        with pytest.raises(ValueError):
            most_similar_view(np.ones(b.descriptor_dim), b, codebooks[1], descent_steps=-1,
                              initial_step=initial_step)
        with pytest.raises(TypeError):
            most_similar_view(np.ones(b.descriptor_dim), b, codebooks[1])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        noise=st.sampled_from([0.0, 0.01, 0.1, 1.0]),
        steps=st.sampled_from([0, 1, 2, 5, 32]),
        step=st.sampled_from([None, 0.25]),
    )
    def test_matches_reference_bit_for_bit(self, pair, codebooks, initial_step, seed, noise,
                                           steps, step):
        a, b = pair
        step = initial_step if step is None else step
        rng = np.random.default_rng(seed)
        z = synthworld.render_embedding(a, so3.random_rotation(rng), noise, rng)
        r, s = most_similar_view(z, b, codebooks[1], steps, initial_step=step)
        r_ref, s_ref = reference_most_similar_view(z, b, codebooks[1], steps, step)
        assert np.array_equal(r.q, r_ref.q)
        assert s == s_ref

    def test_each_point_evaluated_once(self, pair, codebooks, visible_rotation, initial_step,
                                       monkeypatch):
        a, b = pair
        z = synthworld.render_embedding(a, visible_rotation)
        points, ref_points = [], []
        inner = ambiguity._direction_evaluator

        def counting(target, z_unit):
            sim = inner(target, z_unit)

            def counted(theta, phi):
                points.append((theta, phi))
                return sim(theta, phi)

            return counted

        monkeypatch.setattr(ambiguity, "_direction_evaluator", counting)
        r, s = most_similar_view(z, b, codebooks[1], initial_step=initial_step)
        r_ref, s_ref = reference_most_similar_view(z, b, codebooks[1], 32, initial_step,
                                                   points=ref_points)
        assert (s, tuple(r.q)) == (s_ref, tuple(r_ref.q))
        assert len(points) == len(set(points))
        # The same points are visited; only the repeats are gone.
        assert set(points) == set(ref_points)
        assert len(points) <= 0.65 * len(ref_points)


class TestNormalizeAmbiguity:
    def test_affine_examples(self):
        out = normalize_ambiguity([0.2, 0.6, 1.0])
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_all_equal_maps_to_zero(self):
        assert np.array_equal(normalize_ambiguity([0.7, 0.7, 0.7]), np.zeros(3))

    def test_near_equal_degenerate(self):
        assert np.array_equal(normalize_ambiguity([0.5, 0.5 + 1e-13]), np.zeros(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_ambiguity([])

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=30))
    def test_range_and_order_preserved(self, raw):
        out = normalize_ambiguity(raw)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        v = np.asarray(raw)
        for i in range(len(raw)):
            for j in range(len(raw)):
                if v[i] < v[j]:
                    assert out[i] <= out[j] + 1e-12

    @given(
        st.lists(st.floats(-3, 3), min_size=2, max_size=20),
        st.floats(0.1, 10.0),
        st.floats(-5, 5),
    )
    def test_affine_invariance(self, raw, scale, shift):
        v = np.asarray(raw)
        if np.ptp(v) <= 1e-6:
            return
        out1 = normalize_ambiguity(v)
        out2 = normalize_ambiguity(scale * v + shift)
        assert np.allclose(out1, out2, atol=1e-6)


class TestRankObject:
    def test_table_shape_and_sorting(self, tables, coarse_grid):
        t = tables["A"]
        assert t.object_class == "A"
        assert len(t) == len(coarse_grid)
        raw = t.raw_similarity
        assert np.all(raw[:-1] >= raw[1:])
        assert np.all(t.ambiguity >= 0.0) and np.all(t.ambiguity <= 1.0)
        assert t.ambiguity[0] == pytest.approx(1.0)
        assert t.ambiguity[-1] == pytest.approx(0.0)
        # Normalized ambiguity is the affine rescaling of raw similarity.
        assert np.allclose(t.ambiguity, normalize_ambiguity(raw), atol=1e-12)

    def test_hidden_views_saturate(self, pair, tables):
        # Every orientation hiding the differing patch must sit at the top of
        # the ranking with raw similarity 1.
        t = tables["A"]
        for p in t.pairs:
            if not synthworld.patch_visible(pair, p.r_a):
                assert p.similarity == pytest.approx(1.0, abs=1e-6)

    def test_visible_views_below_one(self, pair, tables):
        t = tables["A"]
        vals = [
            p.similarity
            for p in t.pairs
            if synthworld.patch_visible(pair, p.r_a)
        ]
        assert min(vals) < 0.999

    def test_matched_class_is_other_twin(self, tables):
        assert {p.matched_class for p in tables["A"].pairs} == {"B"}
        assert {p.matched_class for p in tables["B"].pairs} == {"A"}

    def test_grid_meta(self, tables, coarse_grid):
        assert tables["A"].grid_meta == {
            "coarse_dirs": len(coarse_grid.base),
            "coarse_inplane": coarse_grid.n_inplane,
            "descent_steps": 16,
        }

    def test_similarity_is_lower_bounded_by_probe(self, pair, tables, codebooks):
        # Raw similarity at each orientation is a maximum, so it must beat any
        # explicit probe view of the other twin.
        a, b = pair
        rng = np.random.default_rng(7)
        for p in tables["A"].pairs[::37]:
            z = synthworld.render_embedding(a, p.r_a)
            probe = synthworld.render_embedding(b, so3.random_rotation(rng))
            aligned = min(1.0, math.hypot(*roll_components(unit(z), unit(probe))))
            assert p.similarity >= aligned - 1e-6

    def test_identical_twin_saturates(self, coarse_grid_small):
        # Ranking an object against an exact copy matches every orientation
        # to itself: raw similarity ~1 everywhere, limited only by how far
        # the descent converges.
        a, _ = synthworld.make_ambiguous_pair(0, n_blobs=64, d=8)
        clone = synthworld.SynthObject(
            a.positions.copy(), a.descriptors.copy(),
            class_id="B", group_id=a.group_id, meta=dict(a.meta),
        )
        cb = build_codebook(clone, so3.build_view_grid(128, 4))
        t = rank_object(a, [clone], [cb], coarse_grid_small, descent_steps=32)
        assert np.allclose(t.raw_similarity, 1.0, atol=1e-4)

    def test_threads_do_not_change_result(self, pair, codebooks, coarse_grid_small):
        a, b = pair
        t1 = rank_object(a, [b], [codebooks[1]], coarse_grid_small, descent_steps=8, threads=1)
        t4 = rank_object(a, [b], [codebooks[1]], coarse_grid_small, descent_steps=8, threads=4)
        assert np.array_equal(t1.raw_similarity, t4.raw_similarity)
        assert np.array_equal(t1.ambiguity, t4.ambiguity)
        assert all(p1.r_b == p4.r_b for p1, p4 in zip(t1.pairs, t4.pairs))

    def test_validation(self, pair, codebooks, coarse_grid):
        a, b = pair
        with pytest.raises(ValueError):
            rank_object(a, [], [], coarse_grid)
        with pytest.raises(ValueError):
            rank_object(a, [b], [], coarse_grid)
        with pytest.raises(ValueError, match="one in-plane roll"):
            rank_object(a, [b], [codebooks[1]], so3.build_view_grid(8, 2))

    def test_twin_symmetry_of_raw_values(self, tables):
        # The twins see near-mirror-image ambiguity structure; on a finite
        # coarse grid the sorted raw similarities agree only approximately.
        ra = np.sort(tables["A"].raw_similarity)
        rb = np.sort(tables["B"].raw_similarity)
        assert np.max(np.abs(ra - rb)) < 0.05


def indexed(t):
    """``t`` with ambiguity ``i`` at row ``i``, so that ``lookup`` returns
    the nearest row's index."""
    return replace(t, ambiguity=np.arange(len(t), dtype=float))


class TestTableQueries:
    def test_lookup_matches_nearest_index(self, tables):
        t = tables["A"]
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = so3.random_rotation(rng)
            assert t.lookup(r.q) == t.ambiguity[int(np.argmax(np.abs(t.r_a_quats @ r.q)))]

    def test_lookup_batch_matches_scalar(self, tables):
        t = tables["A"]
        rng = np.random.default_rng(4)
        rots = [so3.random_rotation(rng) for _ in range(32)]
        batch = t.lookup(np.array([r.q for r in rots]))
        assert np.array_equal(batch, [t.lookup(r.q) for r in rots])

    def test_r_a_array_is_pair_rows(self, tables):
        t = tables["A"]
        assert t.r_a_quats.shape == t.r_b_quats.shape == (len(t), 4)
        assert t.raw_similarity.shape == t.matched_class.shape == (len(t),)
        for i, p in enumerate(t.pairs):
            assert np.array_equal(p.r_a.q, t.r_a_quats[i])
            assert np.array_equal(p.r_b.q, t.r_b_quats[i])
            assert t.raw_similarity[i] == p.similarity
            assert t.matched_class[i] == p.matched_class
        for col in (t.raw_similarity, t.r_a_quats, t.r_b_quats, t.matched_class):
            with pytest.raises(ValueError):
                col[0] = col[1]
        # Replacing the pairs rebuilds every column from them.
        pairs = list(t.pairs)
        pairs[10], pairs[30] = pairs[30], pairs[10]
        swapped = replace(t, pairs=tuple(pairs))
        order = np.arange(len(t))
        order[[10, 30]] = [30, 10]
        for name in ("raw_similarity", "r_a_quats", "r_b_quats", "matched_class"):
            assert np.array_equal(getattr(swapped, name), getattr(t, name)[order])

    def test_exact_grid_point(self, tables):
        t = indexed(tables["A"])
        assert t.lookup(t.pairs[10].r_a.q) == 10

    def test_nearest_uses_quaternion_double_cover(self, tables):
        t = indexed(tables["A"])
        r = t.pairs[5].r_a
        flipped = so3.Rotation(so3.normalize(-r.q))
        assert t.lookup(flipped.q) == 5

    def test_json_roundtrip(self, tmp_path, pair, codebooks, assert_table_json):
        # 512 views: renormalizing on write would move the last bits of 3
        # r_a rows and 38 r_b rows of this table.
        a, b = pair
        t = rank_object(a, [b], [codebooks[1]], so3.build_view_grid(512, 1), 4)
        path = tmp_path / "table.json"
        t.save(path)
        assert_table_json(path, t)

    def test_length_mismatch_rejected(self, tables):
        t = tables["A"]
        with pytest.raises(ValueError):
            AmbiguityTable(
                object_class="A",
                pairs=t.pairs,
                ambiguity=t.ambiguity[:-1],
                grid_meta={},
            )


class TestSplitByThreshold:
    def test_partition(self, tables):
        t = tables["A"]
        split = split_by_threshold(t, 0.5)
        assert split.threshold == 0.5
        ambiguous = t.r_a_quats[t.ambiguity >= 0.5]
        assert len(split.train_quats) + len(ambiguous) == len(t)
        train = {q.tobytes() for q in split.train_quats}
        for q, v in zip(t.r_a_quats, t.ambiguity):
            assert (q.tobytes() in train) == (v < 0.5)
        with pytest.raises(ValueError):
            split.train_quats[0, 0] = 1.0

    def test_boundaries(self, tables):
        t = tables["A"]
        assert split_by_threshold(t, 0.0).train_quats.shape == (0, 4)
        full = split_by_threshold(t, 1.0)
        # Strict < keeps only the max-ambiguity entries out of train.
        assert len(t) - len(full.train_quats) == int(np.sum(t.ambiguity >= 1.0))

    def test_strictly_below(self, tables):
        t = tables["A"]
        v = float(t.ambiguity[len(t) // 2])
        split = split_by_threshold(t, v)
        assert np.all(t.lookup(split.train_quats) < v)

    def test_train_orientations_hide_patch_at_low_threshold(self, pair, tables):
        split = split_by_threshold(tables["A"], 0.05)
        assert len(split.train_quats) > 0
        visible = [synthworld.patch_visible(pair, so3.Rotation(q)) for q in split.train_quats]
        assert np.mean(visible) > 0.9

    def test_monotone_in_threshold(self, tables):
        t = tables["A"]
        sizes = [len(split_by_threshold(t, a).train_quats) for a in (0.1, 0.3, 0.6, 1.0)]
        assert sizes == sorted(sizes)

    def test_out_of_range_rejected(self, tables):
        with pytest.raises(ValueError):
            split_by_threshold(tables["A"], -0.1)
        with pytest.raises(ValueError):
            split_by_threshold(tables["A"], 1.5)


class TestBestOrientation:
    def test_best_orientation_shows_patch(self, pair, tables):
        t = tables["A"]
        best = so3.Rotation(t.r_a_quats[np.argmin(t.ambiguity)])
        assert synthworld.patch_visible(pair, best)


class TestExportSortedPairs:
    def test_csv_contents(self, tmp_path, tables):
        t = tables["A"]
        path = tmp_path / "pairs.csv"
        export_sorted_pairs(t, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == len(t) + 1
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            assert float(row[1]) == pytest.approx(t.pairs[i].similarity, abs=1e-15)
            assert float(row[2]) == pytest.approx(float(t.ambiguity[i]), abs=1e-15)
            assert row[11] == t.pairs[i].matched_class
        # Quaternions round-trip through the .17g formatting.
        q = [float(v) for v in rows[1][3:7]]
        assert so3.geodesic_distance(so3.Rotation(so3.normalize(q)), t.pairs[0].r_a) <= 1e-12

    def test_unwritable_path(self, tables, tmp_path):
        with pytest.raises(OSError, match="sorted pairs"):
            export_sorted_pairs(tables["A"], tmp_path / "no_dir" / "pairs.csv")

    def test_rewrites_identically(self, tmp_path, tables):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        export_sorted_pairs(tables["A"], p1)
        export_sorted_pairs(tables["A"], p2)
        assert p1.read_bytes() == p2.read_bytes()
