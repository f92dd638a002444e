"""Codebook construction, cosine queries, the roll kernel, and pose estimation."""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viewrank import classify, codebook, so3, synthworld
from viewrank.codebook import (
    Codebook,
    PoseHypothesis,
    build_codebook,
    estimate_pose,
    hypotheses_for_group,
    roll_components,
    unit,
)


vectors = st.lists(
    st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4
).filter(lambda v: sum(x * x for x in v) > 1e-6)

EPS = np.finfo(float).eps
MIN_NORM = math.sqrt(np.finfo(float).tiny)

# Peak RSS growth, in KiB, from a 4096 x 36 grid and codebook to a 65536 x 72
# one, in a fresh process.
MEMORY_PROBE = """
import resource
from viewrank import so3, synthworld
from viewrank.codebook import build_codebook
a, _ = synthworld.make_ambiguous_pair(0)
peaks = []
for n_dirs, n_inplane in ((4096, 36), (65536, 72)):
    cb = build_codebook(a, so3.build_view_grid(n_dirs, n_inplane))
    del cb
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(peaks[1] - peaks[0])
"""

# Ordinary magnitudes mixed with every finite double, so that norms underflow,
# overflow and land in between.
components = st.one_of(
    st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False)
)
row_stacks = st.integers(1, 8).flatmap(
    lambda d: st.lists(st.lists(components, min_size=d, max_size=d), min_size=1, max_size=4)
)


class TestUnit:
    @given(row_stacks)
    @example([[3.0, 4.0], [1e300, 1e300]])
    @example([[0.0, 6.19e-161], [1.0, 0.0]])
    @example([[0.0, 1.5e-154]])
    def test_matches_numpy_where_its_norm_is_finite_and_accurate(self, rows):
        z = np.array(rows)
        with np.errstate(over="ignore"):
            vector_norms = [np.linalg.norm(r) for r in z]
            row_norms = np.linalg.norm(z, axis=1, keepdims=True)
        for r, n in zip(z, vector_norms):
            if n < MIN_NORM:
                with pytest.raises(ValueError, match="zero-norm"):
                    unit(r)
            elif math.isfinite(n):
                assert np.array_equal(unit(r), r / n)
        if np.any(row_norms < MIN_NORM):
            with pytest.raises(ValueError, match="zero-norm"):
                unit(z)
            return
        u = unit(z)
        finite = np.isfinite(row_norms[:, 0])
        assert np.array_equal(u[finite], z[finite] / row_norms[finite])
        assert np.all(np.isfinite(u))

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=32).filter(
            lambda v: sum(x * x for x in v) > 1e-6),
        st.floats(1e-100, 1e300),
    )
    @example([3.0, -4.0], 1e300)
    @example([1.0, 1e-5, -7.0], 1e-100)
    def test_scale_invariant_over_300_decades(self, x, scale):
        x = np.array(x)
        assert np.max(np.abs(unit(scale * x) - unit(x))) <= 8 * EPS
        rows = np.stack([x, -x[::-1]])
        assert np.max(np.abs(unit(scale * rows) - unit(rows))) <= 8 * EPS

    @pytest.mark.parametrize("z", [
        np.zeros(4), np.zeros((2, 3)), np.array([0.0, 1e-160]),
        np.array([[1.0, 0.0], [1e-155, 1e-155]]),
        np.array([np.inf, 1.0]), np.array([np.nan, 0.0]), np.array([[1.0, 0.0], [1.0, -np.inf]]),
    ])
    def test_zero_underflowing_or_non_finite_norm_rejected(self, z):
        with pytest.raises(ValueError, match="zero-norm, underflowing or non-finite"):
            unit(z)


class TestCossim:
    """The cosine of two embeddings is the dot product of their ``unit`` rows."""

    def test_parallel(self):
        assert unit([1.0, 2.0, 3.0]) @ unit([2.0, 4.0, 6.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert unit([1.0, 0.0]) @ unit([0.0, 5.0]) == pytest.approx(0.0, abs=1e-15)

    def test_antiparallel(self):
        assert unit([1.0, -1.0]) @ unit([-3.0, 3.0]) == pytest.approx(-1.0)

    @given(vectors, vectors)
    def test_range_and_symmetry(self, a, b):
        s = unit(a) @ unit(b)
        assert -1.0 - 4 * EPS <= s <= 1.0 + 4 * EPS
        assert s == pytest.approx(unit(b) @ unit(a), abs=1e-12)

    @given(vectors, st.floats(0.01, 100.0))
    def test_scale_invariant(self, a, scale):
        b = [scale * x for x in a]
        assert unit(a) @ unit(b) == pytest.approx(1.0, abs=1e-9)


class TestRollAlignedCossim:
    """The cosine maximized over a shared in-plane roll is, in closed form,
    ``hypot(C, S)`` of the ``unit`` rows' roll components."""

    def test_upper_bounds_plain_cossim(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            aligned = min(1.0, math.hypot(*roll_components(unit(a), unit(b))))
            assert aligned >= unit(a) @ unit(b) - 1e-12

    def test_matches_sampled_roll_maximum(self):
        # Brute-force over finely sampled rolls applied through the same
        # pair-mixing used by the renderer.
        rng = np.random.default_rng(2)
        rolls = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        for _ in range(10):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            mixed = synthworld._mix_pairs(np.tile(b, (len(rolls), 1)), rolls)
            sampled = np.max(mixed @ a) / (np.linalg.norm(a) * np.linalg.norm(b))
            aligned = min(1.0, math.hypot(*roll_components(unit(a), unit(b))))
            assert aligned == pytest.approx(sampled, abs=1e-6)

    def test_roll_shift_invariant(self, pair):
        a, _ = pair
        d = np.array([0.6, -0.48, 0.64])
        za = synthworld.render_embedding(a, so3.look_at(d, 0.3))
        zb = synthworld.render_embedding(a, so3.look_at(d, 2.1))
        aligned = min(1.0, math.hypot(*roll_components(unit(za), unit(zb))))
        assert aligned == pytest.approx(1.0, abs=1e-9)

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=10)
            aligned = min(1.0, math.hypot(*roll_components(unit(a), unit(a))))
            assert aligned == pytest.approx(1.0, abs=1e-12)


even_dims = st.integers(1, 6).map(lambda k: 2 * k)


def grid_entries(grid):
    """Every entry of a view grid, made one at a time by ``ViewGrid.entry``."""
    return np.array([grid.entry(i).q for i in range(len(grid))])


def expand(obj, cb):
    """The rendered full grid of a codebook: one unit row per rotation."""
    return unit(synthworld.render_embeddings(obj, grid_entries(cb.grid)))


def reference_best(cb, z):
    """Full-scan oracle for ``Codebook.best`` on a codebook with one roll per
    direction, whose embeddings are its full grid: every score, then the
    first index of a stable sort by score descending."""
    zu = np.asarray(z, dtype=float)
    s = cb.embeddings @ (zu / np.linalg.norm(zu))
    i = int(np.argsort(-s, kind="stable")[0])
    return i, float(s[i])


def reference_hypotheses(codebooks, z):
    """Oracle for ``hypotheses_for_group``: the full-scan best entry per
    codebook, sorted by unclipped score then codebook index."""
    hyps = []
    for ci, cb in enumerate(codebooks):
        i, s = reference_best(cb, z)
        hyps.append(((-s, ci), PoseHypothesis(
            cb.class_id, cb.grid.entry(i), float(np.clip(s, -1.0, 1.0)))))
    hyps.sort(key=lambda t: t[0])
    return [h for _, h in hyps]


@st.composite
def row_stacks(draw):
    """Two (n, d) and (m, d) float stacks sharing an even trailing dimension."""
    d = draw(even_dims)
    entries = st.floats(-10, 10, allow_nan=False)
    a = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=1, max_size=5))
    b = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=1, max_size=5))
    return np.array(a), np.array(b)


class TestRollComponents:
    @given(row_stacks())
    @settings(max_examples=200)
    def test_stack_entries_match_vector_form(self, stacks):
        # Stacked (matrix) and vector (dot) products may sum in different
        # orders, so entries agree to the dot-product rounding bound
        # 2 d eps sum|x_k y_k| over the products each sum adds, not bit for bit.
        a, b = stacks
        c, s = roll_components(a, b)
        assert c.shape == s.shape == (len(a), len(b))
        scale = 2 * a.shape[1] * np.finfo(float).eps
        for i in range(len(a)):
            for j in range(len(b)):
                ci, si = roll_components(a[i], b[j])
                assert np.ndim(ci) == np.ndim(si) == 0
                ae, ao = np.abs(a[i, 0::2]), np.abs(a[i, 1::2])
                be, bo = np.abs(b[j, 0::2]), np.abs(b[j, 1::2])
                assert abs(c[i, j] - ci) <= scale * (ae @ be + ao @ bo)
                assert abs(s[i, j] - si) <= scale * (ao @ be + ae @ bo)

    @given(row_stacks())
    @settings(max_examples=200)
    @example((np.array([[0.0, 1.0]]), np.array([[0.0, 6.19e-161]])))
    def test_hypot_matches_roll_aligned_cossim(self, stacks):
        a, b = stacks
        tiny = np.finfo(float).tiny
        for x in a:
            for y in b:
                if float(x @ x) < tiny or float(y @ y) < tiny:
                    with pytest.raises(ValueError):
                        roll_components(unit(x), unit(y))
                    continue
                nx, ny = np.linalg.norm(x), np.linalg.norm(y)
                c, s = roll_components(x, y)
                assert math.hypot(c, s) / (nx * ny) == pytest.approx(
                    min(1.0, math.hypot(*roll_components(unit(x), unit(y)))), abs=1e-12)

    def test_roll_is_atan2(self):
        # a is b rolled by delta through the renderer's pair mixing, so the
        # roll aligning b onto a, atan2(S, C), is delta (mod 2 pi).
        rng = np.random.default_rng(3)
        b = rng.normal(size=8)
        for delta in (0.0, 0.4, -1.3, 2.9):
            a = synthworld._mix_pairs(b[None, :], np.array([delta]))[0]
            c, s = roll_components(a, b)
            assert math.cos(math.atan2(s, c) - delta) == pytest.approx(1.0, abs=1e-12)


class TestBuildCodebook:
    def test_size_and_unit_rows(self, pair, codebooks, codebook_grid):
        cb = codebooks[0]
        assert len(cb) == len(codebook_grid)
        assert np.allclose(np.linalg.norm(cb.embeddings, axis=1), 1.0, atol=1e-12)

    def test_metadata(self, codebooks, codebook_grid):
        cb_a, cb_b = codebooks
        assert cb_a.class_id == "A" and cb_b.class_id == "B"
        assert cb_a.grid is cb_b.grid is codebook_grid

    def test_entries_match_renderer(self, pair, codebooks, codebook_grid):
        # Row j is the roll-0 render of direction j, grid rotation j * n.
        a, _ = pair
        n = codebook_grid.n_inplane
        n_dirs = len(codebook_grid.base)
        assert codebooks[0].embeddings.shape == (n_dirs, a.descriptor_dim)
        for j in (0, 137, n_dirs - 1):
            z = synthworld.render_embedding(a, codebook_grid.entry(j * n))
            assert np.allclose(codebooks[0].embeddings[j], z / np.linalg.norm(z), atol=1e-12)

    def test_memory_is_one_row_per_direction(self, pair, monkeypatch):
        # A 16384 x 72 grid renders and holds 16384 rows, not 1,179,648.
        a, _ = pair
        rendered = []

        def counting(obj, quats):
            rendered.append(len(quats))
            return synthworld.render_embeddings(obj, quats)

        monkeypatch.setattr(codebook, "render_embeddings", counting)
        cb = build_codebook(a, so3.build_view_grid(16384, 72))
        assert sum(rendered) == 16384
        assert len(cb.grid.base) == 16384
        assert len(cb) == 16384 * 72
        assert cb.embeddings.nbytes == 16384 * a.descriptor_dim * 8

    def test_peak_memory_bounded_as_grid_grows(self):
        # 72 rolls and 16 times the directions stay within 64 MB: a full
        # 65536 x 72 quaternion array alone is 144 MB.
        src = str(Path(codebook.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert int(out) < 64 * 1024

    def test_embeddings_write_protected(self, codebooks):
        with pytest.raises(ValueError):
            codebooks[0].embeddings[0, 0] = 0.0

    def test_empty_grid_rejected(self, pair):
        a, _ = pair
        empty = so3.ViewGrid(base=np.empty((0, 4)), n_inplane=1)
        with pytest.raises(ValueError):
            build_codebook(a, empty)

    def test_entry_count_mismatch_rejected(self, codebooks):
        cb = codebooks[0]
        with pytest.raises(ValueError):
            Codebook(
                grid=so3.ViewGrid(cb.grid.base[:-1], cb.grid.n_inplane),
                embeddings=cb.embeddings,
                class_id="A",
            )
        with pytest.raises(ValueError):
            Codebook(grid=cb.grid, embeddings=cb.embeddings[:0], class_id="A")
        # 768 x 4 has the 384 x 8 grid's entry count but twice its rows.
        with pytest.raises(ValueError, match="rows"):
            Codebook(grid=so3.build_view_grid(768, 4), embeddings=cb.embeddings, class_id="A")


@functools.lru_cache(maxsize=None)
def small_codebook(seed, n_dirs, n_inplane):
    """A small object, its codebook and the codebook's expanded full grid."""
    a, _ = synthworld.make_ambiguous_pair(seed, n_blobs=48, d=8)
    cb = build_codebook(a, so3.build_view_grid(n_dirs, n_inplane))
    return a, cb, expand(a, cb)


class TestScoresAndEstimatePose:
    def test_scores_are_cossims(self, pair, codebooks):
        a, _ = pair
        z = synthworld.render_embedding(a, so3.look_at([0.0, 1.0, 0.0]))
        i, s = codebooks[0].best(z)
        assert s == pytest.approx(expand(a, codebooks[0])[i] @ unit(z), abs=1e-12)

    def test_zero_query_rejected(self, codebooks):
        with pytest.raises(ValueError):
            codebooks[0].best(np.zeros(codebooks[0].embeddings.shape[1]))

    def test_grid_view_recovered_exactly(self, pair, codebooks, codebook_grid):
        a, _ = pair
        r = codebook_grid.entry(411)
        hyp = estimate_pose(codebooks[0], synthworld.render_embedding(a, r))
        assert hyp.rotation == r
        assert hyp.score == pytest.approx(1.0, abs=1e-9)
        assert hyp.class_id == "A"

    def test_matches_brute_force(self, pair, codebooks):
        a, _ = pair
        cb = codebooks[0]
        rows = expand(a, cb)
        rng = np.random.default_rng(6)
        for _ in range(10):
            z = synthworld.render_embedding(a, so3.random_rotation(rng))
            hyp = estimate_pose(cb, z)
            best = max(range(len(cb)), key=lambda i: (unit(rows[i]) @ unit(z), -i))
            assert hyp.rotation == cb.grid.entry(best)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 3),
        n_dirs=st.sampled_from([1, 7, 64]),
        n_inplane=st.sampled_from([1, 2, 3, 12, 36]),
        query_seed=st.integers(0, 2**32 - 1),
        noise=st.sampled_from([0.0, 0.05, 0.5, 5.0]),
        duplicated=st.booleans(),
    )
    def test_pruned_query_is_a_full_grid_maximizer(self, seed, n_dirs, n_inplane, query_seed,
                                                   noise, duplicated):
        a, cb, rows = small_codebook(seed, n_dirs, n_inplane)
        rng = np.random.default_rng(query_seed)
        if duplicated:
            # Every direction twice, so the best score is always tied with a
            # later direction, and the first copy must win.
            order = rng.permutation(np.repeat(np.arange(n_dirs), 2))
            cb = Codebook(so3.build_view_grid(2 * n_dirs, n_inplane),
                          cb.embeddings[order], "A")
            rows = rows.reshape(n_dirs, n_inplane, -1)[order].reshape(len(cb), -1)
        z = synthworld.render_embedding(a, so3.random_rotation(rng),
                                        classify.default_noise_sigma(a, noise), rng)
        i, s = cb.best(z)
        u = unit(z)
        full = rows @ u
        assert full[i] >= np.max(full) - 4 * EPS
        assert abs(s - full[i]) <= 4 * EPS
        # The closed form over every direction, none pruned.
        c, sn = roll_components(cb.embeddings, u)
        rolls = 2.0 * math.pi * np.arange(n_inplane) / n_inplane
        scores = (c[:, None] * np.cos(rolls) - sn[:, None] * np.sin(rolls)).ravel()
        assert (i, s) == (int(np.argmax(scores)), float(np.max(scores)))
        if duplicated:
            j = i // n_inplane
            assert j == int(np.flatnonzero(order == order[j])[0])

    def test_scale_invariance(self, pair, codebooks):
        a, _ = pair
        z = synthworld.render_embedding(a, so3.look_at([0.3, 0.4, -0.5]))
        h1 = estimate_pose(codebooks[0], z)
        h2 = estimate_pose(codebooks[0], 7.5 * z)
        assert h1.rotation == h2.rotation
        assert h1.score == pytest.approx(h2.score, abs=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        grid = so3.build_view_grid(3, 1)
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cb = Codebook(grid=grid, embeddings=emb, class_id="A")
        assert estimate_pose(cb, np.array([2.0, 0.0])).rotation == grid.entry(0)


class TestGroupQueries:
    def test_hypotheses_sorted_and_counted(self, pair, codebooks):
        a, _ = pair
        z = synthworld.render_embedding(a, so3.look_at([0.1, -0.9, 0.2]))
        hyps = hypotheses_for_group(codebooks, z)
        assert len(hyps) == 2
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)
        assert {h.class_id for h in hyps} == {"A", "B"}

    def test_top_hypothesis_matches_estimate_pose(self, pair, codebooks):
        a, _ = pair
        z = synthworld.render_embedding(a, so3.look_at([0.5, 0.5, 0.7]))
        hyps = hypotheses_for_group(codebooks, z)
        per_class = [estimate_pose(cb, z) for cb in codebooks]
        best = max(per_class, key=lambda h: h.score)
        assert hyps[0].score == pytest.approx(best.score, abs=1e-12)

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_stable_argsort_oracle(self, data):
        # Rows drawn from a few axis vectors make exact score ties, within a
        # codebook and between the two.
        d = data.draw(st.sampled_from([2, 4]))
        pool = np.vstack([np.eye(d), -np.eye(d)])
        codebooks = []
        for cls in ("A", "B"):
            n = data.draw(st.integers(1, 8))
            rows = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
            codebooks.append(Codebook(grid=so3.build_view_grid(n, 1),
                                      embeddings=pool[rows], class_id=cls))
        z = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), float)
        if not z.any():
            z[0] = 1.0
        for cb in codebooks:
            assert cb.best(z) == reference_best(cb, z)
            assert estimate_pose(cb, z) == reference_hypotheses([cb], z)[0]
        assert hypotheses_for_group(codebooks, z) == reference_hypotheses(codebooks, z)

    def test_equal_scores_keep_codebook_order(self):
        grid = so3.build_view_grid(2, 1)
        emb = np.array([[0.0, 1.0], [1.0, 0.0]])
        codebooks = [Codebook(grid=grid, embeddings=emb[::step], class_id=cls)
                     for cls, step in (("B", 1), ("A", -1))]
        hyps = hypotheses_for_group(codebooks, np.array([3.0, 0.0]))
        assert [h.class_id for h in hyps] == ["B", "A"]
        assert [h.score for h in hyps] == [1.0, 1.0]
        assert [h.rotation for h in hyps] == [grid.entry(1), grid.entry(0)]
        assert hypotheses_for_group(codebooks[::-1], np.array([3.0, 0.0]))[0].class_id == "A"

    def test_rotations_are_codebook_rows(self, pair, codebooks):
        a, _ = pair
        z = synthworld.render_embedding(a, so3.look_at([0.1, -0.9, 0.2]))
        for h in hypotheses_for_group(codebooks, z):
            cb = codebooks[0] if h.class_id == "A" else codebooks[1]
            assert np.any(np.all(grid_entries(cb.grid) == h.rotation.q, axis=1))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            hypotheses_for_group([], np.ones(4))


class TestCodebookJson:
    def test_non_canonical_row_rejected(self, codebooks):
        cb = codebooks[0]
        quats = cb.grid.base.copy()
        quats[3] = -quats[3]
        with pytest.raises(ValueError, match="canonical"):
            Codebook(so3.ViewGrid(quats, cb.grid.n_inplane), cb.embeddings, cb.class_id)

    def test_query_does_not_mutate(self, codebooks):
        cb = codebooks[0]
        quats, embeddings = cb.grid.base.copy(), cb.embeddings.copy()
        estimate_pose(cb, np.ones(cb.embeddings.shape[1]))
        hypotheses_for_group([cb], np.ones(cb.embeddings.shape[1]))
        assert np.array_equal(cb.grid.base, quats)
        assert np.array_equal(cb.embeddings, embeddings)
