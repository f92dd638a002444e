"""Synthetic twin objects and the deterministic view-embedding renderer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewrank import so3, synthworld
from viewrank.synthworld import (
    SynthObject,
    differing_blobs,
    make_ambiguous_pair,
    mean_embedding_norm,
    patch_visible,
    render_embedding,
    render_embeddings,
)


class TestMakeAmbiguousPair:
    def test_deterministic(self, pair):
        a2, b2 = make_ambiguous_pair(0)
        a, b = pair
        assert np.array_equal(a.positions, a2.positions)
        assert np.array_equal(a.descriptors, a2.descriptors)
        assert np.array_equal(b.descriptors, b2.descriptors)

    def test_seed_changes_world(self):
        a0, _ = make_ambiguous_pair(0, n_blobs=32)
        a1, _ = make_ambiguous_pair(1, n_blobs=32)
        assert not np.array_equal(a0.positions, a1.positions)

    def test_twins_share_positions_differ_in_patch(self, pair):
        a, b = pair
        assert np.array_equal(a.positions, b.positions)
        diff = differing_blobs(a, b)
        assert 0 < int(np.sum(diff)) < a.n_blobs
        center = np.asarray(a.meta["patch_center"])
        cos_r = math.cos(a.meta["patch_radius"])
        inside = a.positions @ center > cos_r
        assert np.array_equal(diff, inside)

    def test_metadata(self, pair):
        a, b = pair
        assert a.class_id == "A" and b.class_id == "B"
        assert a.group_id == b.group_id == "pair-0"
        assert a.meta["seed"] == 0
        assert a.meta["twin"] == "A" and b.meta["twin"] == "B"

    def test_patch_fraction_tracks_cap_area(self):
        # Spherical cap of angular radius r covers (1 - cos r) / 2 of the
        # sphere; with many blobs the differing fraction should be close.
        a, b = make_ambiguous_pair(3, n_blobs=4096, patch_radius=math.pi / 3.0)
        frac = float(np.mean(differing_blobs(a, b)))
        assert abs(frac - 0.25) < 0.05

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_ambiguous_pair(0, n_blobs=3)
        with pytest.raises(ValueError):
            make_ambiguous_pair(0, patch_radius=0.0)
        with pytest.raises(ValueError):
            make_ambiguous_pair(0, patch_radius=math.pi / 2.0)
        with pytest.raises(ValueError, match="no blob landed"):
            make_ambiguous_pair(0, n_blobs=4, patch_radius=1e-3)


class TestSynthObject:
    def test_positions_must_be_unit(self):
        pos = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        with pytest.raises(ValueError):
            SynthObject(pos, np.zeros((4, 4)), class_id="A", group_id="g", meta={})

    def test_descriptor_dim_must_be_even(self):
        pos = np.eye(3)
        pos = np.vstack([pos, [0.0, 0.0, -1.0]])
        with pytest.raises(ValueError):
            SynthObject(pos, np.zeros((4, 5)), class_id="A", group_id="g", meta={})

    def test_arrays_write_protected(self, pair):
        a, _ = pair
        with pytest.raises(ValueError):
            a.positions[0, 0] = 0.0
        with pytest.raises(ValueError):
            a.descriptors[0, 0] = 0.0


class TestRenderEmbedding:
    def test_shape_and_determinism(self, pair):
        a, _ = pair
        r = so3.look_at([0.0, 1.0, 0.0])
        z1 = render_embedding(a, r)
        z2 = render_embedding(a, r)
        assert z1.shape == (a.descriptor_dim,)
        assert np.array_equal(z1, z2)

    def test_batch_matches_scalar(self, pair):
        a, _ = pair
        rng = np.random.default_rng(9)
        rots = [so3.random_rotation(rng) for _ in range(16)]
        batch = render_embeddings(a, np.array([r.q for r in rots]))
        for i, r in enumerate(rots):
            assert np.allclose(batch[i], render_embedding(a, r), atol=1e-12)

    @pytest.mark.parametrize("extra", [1, synthworld._RENDER_CHUNK // 2,
                                       synthworld._RENDER_CHUNK])
    def test_blocked_render_matches_single_call(self, pair, extra):
        # N = chunk + 1 and N = 2 chunk, plus a trailing block of half a chunk.
        a, _ = pair
        q = np.random.default_rng(12).normal(size=(synthworld._RENDER_CHUNK + extra, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        v = so3.view_directions(q)
        w = np.clip(v @ a.positions.T, 0.0, None) ** 2
        single = synthworld._mix_pairs(w @ a.descriptors, so3.roll_angles(q, v))
        assert np.array_equal(render_embeddings(a, q), single)

    def test_hidden_patch_views_identical(self, pair):
        # When no differing blob is visible, the twins render bitwise equal.
        a, b = pair
        center = np.asarray(a.meta["patch_center"])
        rng = np.random.default_rng(11)
        n_hidden = 0
        for _ in range(200):
            r = so3.random_rotation(rng)
            if patch_visible(pair, r):
                continue
            n_hidden += 1
            assert np.array_equal(render_embedding(a, r), render_embedding(b, r))
        assert n_hidden >= 10
        # And the deterministic anti-patch view is hidden.
        r = so3.look_at(-center)
        assert not patch_visible(pair, r)
        assert np.array_equal(render_embedding(a, r), render_embedding(b, r))

    def test_visible_patch_views_differ(self, pair):
        a, b = pair
        r = so3.look_at(np.asarray(a.meta["patch_center"]))
        assert patch_visible(pair, r)
        assert not np.allclose(render_embedding(a, r), render_embedding(b, r))

    @given(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_roll_equivariance(self, roll_a, roll_b):
        # Changing only the in-plane roll rotates consecutive embedding
        # component pairs by the roll difference.
        a, _ = make_ambiguous_pair(2, n_blobs=64, d=8)
        d = np.array([0.6, -0.48, 0.64])
        za = render_embedding(a, so3.look_at(d, roll_a))
        zb = render_embedding(a, so3.look_at(d, roll_b))
        delta = roll_b - roll_a
        c, s = math.cos(delta), math.sin(delta)
        rotated = np.empty_like(za)
        rotated[0::2] = c * za[0::2] - s * za[1::2]
        rotated[1::2] = s * za[0::2] + c * za[1::2]
        assert np.allclose(zb, rotated, atol=1e-9)

    def test_continuity(self, pair):
        a, _ = pair
        r = so3.look_at([0.0, 1.0, 0.0])
        step = so3.normalize([math.cos(0.5e-5), math.sin(0.5e-5), 0.0, 0.0])  # 1e-5 rad about x
        z0 = render_embedding(a, r)
        z1 = render_embedding(a, so3.Rotation(so3.normalize(so3.quat_mul(step, r.q))))
        norm = mean_embedding_norm(a)
        assert np.linalg.norm(z1 - z0) < 1e-3 * norm

    def test_noise_reproducible_and_scaled(self, pair):
        a, _ = pair
        r = so3.look_at([0.0, 0.0, 1.0])
        z1 = render_embedding(a, r, noise_sigma=0.5, rng=np.random.default_rng(7))
        z2 = render_embedding(a, r, noise_sigma=0.5, rng=np.random.default_rng(7))
        z3 = render_embedding(a, r, noise_sigma=0.5, rng=np.random.default_rng(8))
        assert np.array_equal(z1, z2)
        assert not np.array_equal(z1, z3)
        clean = render_embedding(a, r)
        assert not np.array_equal(z1, clean)
        with pytest.raises(ValueError):
            render_embedding(a, r, noise_sigma=-0.1)

    def test_noise_generator_stream(self, pair):
        a, _ = pair
        r = so3.look_at([1.0, 0.0, 0.0])
        gen = np.random.default_rng(3)
        z1 = render_embedding(a, r, noise_sigma=0.2, rng=gen)
        z2 = render_embedding(a, r, noise_sigma=0.2, rng=gen)
        clean = render_embedding(a, r)
        noise = np.random.default_rng(3).normal(0.0, 0.2, size=clean.shape)
        assert np.array_equal(z1, clean + noise)
        assert not np.array_equal(z1, z2)  # the stream moves on


class TestPatchVisible:
    def test_requires_shared_positions(self):
        a, _ = make_ambiguous_pair(0, n_blobs=32)
        a2, _ = make_ambiguous_pair(1, n_blobs=32)
        with pytest.raises(ValueError):
            differing_blobs(a, a2)

    def test_hidden_fraction_matches_cap_formula(self):
        # A small patch is hidden from a hemisphere shrunk by the patch
        # radius: hidden fraction ~= (1 - sin(radius)) / 2.
        radius = 0.2
        pair = make_ambiguous_pair(5, n_blobs=4096, patch_radius=radius)
        dirs = so3.fibonacci_directions(2000)
        hidden = np.mean(
            [not patch_visible(pair, so3.look_at(d)) for d in dirs]
        )
        assert abs(hidden - (1.0 - math.sin(radius)) / 2.0) < 0.03


class TestMeanEmbeddingNorm:
    def test_positive_and_deterministic(self, pair):
        a, _ = pair
        n1 = mean_embedding_norm(a)
        n2 = mean_embedding_norm(a)
        assert n1 > 0.0
        assert n1 == n2

    def test_matches_direct_average(self, pair):
        a, _ = pair
        grid = so3.build_view_grid(256, 1)
        z = render_embeddings(a, grid.base)
        assert mean_embedding_norm(a) == pytest.approx(
            float(np.mean(np.linalg.norm(z, axis=1))), rel=1e-12
        )
