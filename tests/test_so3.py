"""Rotation arithmetic, Fibonacci view grids and distances."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from viewrank import ambiguity, classify, codebook, policy, so3, synthworld
from viewrank.so3 import (
    Rotation,
    build_view_grid,
    fibonacci_directions,
    geodesic_distance,
    look_at,
    normalize,
    quat_conj,
    quat_mul,
)


def angle_between(u, v):
    return math.acos(max(-1.0, min(1.0, float(np.dot(u, v)))))


unit_quats = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda q: sum(c * c for c in q) > 1e-4)


def rotations(draw_quats=unit_quats):
    return draw_quats.map(lambda q: Rotation(normalize(q)))


IDENTITY = Rotation([1.0, 0.0, 0.0, 0.0])


def reference_normalize(q):
    """Scalar oracle for ``normalize`` on one row: divide by
    ``sqrt(q @ q)``, then negate if the first nonzero component is negative."""
    q = np.array(q, dtype=float)
    n = math.sqrt(float(q @ q))
    if not math.isfinite(n) or n < 1e-12:
        raise ValueError("quaternion norm is zero or non-finite")
    q /= n
    for c in q:
        if c != 0.0:
            if c < 0.0:
                q = -q
            break
    return q


def reference_quat_mul(a, b):
    """Scalar oracle for ``quat_mul``: the Hamilton product in Python floats."""
    w1, x1, y1, z1 = (float(c) for c in a)
    w2, x2, y2, z2 = (float(c) for c in b)
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def compose(a, b):
    """``a`` after ``b``, as a normalized Hamilton product."""
    return Rotation(normalize(quat_mul(a.q, b.q)))


def scipy_rotation(q):
    """Quaternion row ``q`` as a scipy rotation, which orders ``(x, y, z, w)``."""
    w, x, y, z = q
    return ScipyRotation.from_quat([x, y, z, w])


def from_axis_angle(axis, angle):
    """Oracle rotation by ``angle`` about ``axis``, built by scipy."""
    axis = np.asarray(axis, dtype=float)
    x, y, z, w = ScipyRotation.from_rotvec(angle * axis / np.linalg.norm(axis)).as_quat()
    return Rotation(normalize([w, x, y, z]))


def reference_look_at(direction, roll=0.0):
    """Scalar oracle: ``look_at(direction, roll).q``, one quaternion at a time,
    composed and renormalized step by step (with its half-turn snap near -z)."""
    d = np.asarray(direction, dtype=float)
    d = d / math.sqrt(float(d @ d))
    w = 1.0 + d[2]
    if w < 1e-12:
        q = np.array([0.0, 1.0, 0.0, 0.0])
    else:
        q = np.array([w, -d[1], d[0], 0.0])
        q = q / math.sqrt(float(q @ q))
    base = reference_normalize(q)
    if roll == 0.0:
        return base
    spin = reference_normalize([math.cos(roll / 2.0), 0.0, 0.0, math.sin(roll / 2.0)])
    return reference_normalize(reference_quat_mul(base, spin))


def reference_unit_vector(theta, phi):
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def reference_fibonacci(n):
    """Scalar oracle for ``fibonacci_directions``: one lattice point at a time."""
    if n == 1:
        return np.array([[0.0, 0.0, 1.0]])
    golden = math.pi * (3.0 - math.sqrt(5.0))
    rows = []
    for k in range(n):
        theta = math.acos(max(-1.0, min(1.0, 1.0 - 2.0 * (k + 0.5) / n)))
        phi = math.fmod(k * golden, 2.0 * math.pi)
        if phi < 0.0:
            phi += 2.0 * math.pi
        rows.append(reference_unit_vector(theta, phi))
    return np.array(rows)


def reference_view_grid(n_dirs, n_inplane):
    """Scalar oracle for ``build_view_grid``: the per-rotation loop."""
    rows = []
    for d in reference_fibonacci(n_dirs):
        for j in range(n_inplane):
            rows.append(reference_look_at(d, 2.0 * math.pi * j / n_inplane))
    return np.array(rows)


def grid_entries(grid):
    """Every entry of a view grid, made one at a time by ``ViewGrid.entry``."""
    return np.array([grid.entry(i).q for i in range(len(grid))]).reshape(-1, 4)


def reference_trajectory(grid):
    """Scalar oracle for ``policy.build_trajectory_reachable``."""
    rows = []
    for theta in grid.circles:
        for j in range(grid.steps):
            d = reference_unit_vector(theta, 2.0 * math.pi * j / grid.steps)
            rows.append(reference_look_at(d))
    return np.array(rows)


# Components at three scales, with signed zeros, so rows with zero leading
# components are drawn often.
quat_components = st.one_of(
    st.sampled_from([0.0, -0.0]),
    *(st.floats(-scale, scale, allow_nan=False) for scale in (1e-3, 1.0, 1e3)),
)
raw_quats = st.lists(quat_components, min_size=4, max_size=4).filter(
    lambda q: math.sqrt(float(np.dot(q, q))) >= 1e-12)


# ---------------------------------------------------------------------------
# normalize and the Rotation row


class TestNormalize:
    @given(raw_quats)
    @example([0.0, -0.0, -3.0, 4.0])
    @example([-0.0, 0.0, 0.0, -1e-3])
    @example([5e-324, -2.0, 0.0, 0.0])
    def test_row_matches_scalar_oracle_bit_for_bit(self, q):
        assert np.array_equal(normalize(q), reference_normalize(q))

    @given(st.lists(raw_quats, min_size=1, max_size=12))
    def test_batch_matches_rows_bit_for_bit(self, rows):
        expected = np.array([reference_normalize(q) for q in rows])
        assert np.array_equal(normalize(rows), expected)
        if len(rows) % 2 == 0:
            paired = normalize(np.reshape(rows, (2, -1, 4)))
            assert np.array_equal(paired, expected.reshape(2, -1, 4))

    @pytest.mark.parametrize("row", [
        (1e-13, 0.0, 0.0, 0.0), (math.inf, 0.0, 0.0, 0.0), (math.nan, 1.0, 0.0, 0.0),
    ])
    def test_tiny_or_non_finite_norm_rejected(self, row):
        with pytest.raises(ValueError, match="zero or non-finite"):
            normalize(row)
        with pytest.raises(ValueError, match="zero or non-finite"):
            normalize([(1.0, 0.0, 0.0, 0.0), row])

    def test_random_rotation_matches_oracle(self):
        q = np.random.default_rng(5).normal(size=4)
        assert np.array_equal(so3.random_rotation(np.random.default_rng(5)).q,
                              reference_normalize(q))


class TestRotation:
    def test_unit_norm_after_construction(self):
        r = Rotation(normalize([2.0, 3.0, -1.0, 0.5]))
        assert abs(np.linalg.norm(r.q) - 1.0) < 1e-9

    @given(rotations())
    def test_double_cover_collapsed(self, r):
        flipped = Rotation(normalize(-r.q))
        assert np.allclose(flipped.q, r.q, atol=1e-15)
        assert geodesic_distance(flipped, r) <= 1e-12

    def test_canonical_sign(self):
        assert normalize([-0.5, 0.5, 0.5, 0.5])[0] > 0.0
        # First nonzero component positive when w is exactly 0.
        assert normalize([0.0, -1.0, 0.0, 0.0])[1] > 0.0

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            normalize([0.0, 0.0, 0.0, 0.0])

    def test_keeps_row_bit_for_bit_and_read_only(self):
        row = normalize([0.3, -0.7, 0.1, 0.64])
        r = Rotation(row)
        assert np.array_equal(r.q, row)
        with pytest.raises(ValueError):
            r.q[0] = 1.0
        row[0] = 0.0
        assert r.q[0] != 0.0

    @given(rotations(), rotations())
    def test_unit_norm_after_composition(self, a, b):
        assert abs(np.linalg.norm(compose(a, b).q) - 1.0) < 1e-9

    @given(rotations())
    def test_inverse_composes_to_identity(self, r):
        inverse = Rotation(normalize(quat_conj(r.q)))
        assert geodesic_distance(compose(r, inverse), IDENTITY) < 1e-9

    @given(rotations())
    def test_inverse_matches_scipy(self, r):
        assert np.allclose(scipy_rotation(quat_conj(r.q)).as_matrix(),
                           scipy_rotation(r.q).inv().as_matrix(), atol=1e-9)

    @given(rotations())
    def test_view_direction_matches_scipy(self, r):
        expected = scipy_rotation(r.q).apply([0.0, 0.0, 1.0])
        assert np.allclose(r.view_direction(), expected, atol=1e-9)
        assert np.array_equal(r.view_direction(), so3.view_directions(r.q))

    @given(rotations(), rotations())
    def test_composition_matches_scipy(self, a, b):
        m = scipy_rotation(quat_mul(a.q, b.q)).as_matrix()
        assert np.allclose(m, scipy_rotation(a.q).as_matrix() @ scipy_rotation(b.q).as_matrix(),
                           atol=1e-9)

    def test_json_roundtrip(self):
        r = Rotation(normalize([0.3, -0.7, 0.1, 0.64]))
        assert Rotation(r.to_json()) == r

    def test_json_w_nonnegative(self):
        assert Rotation(normalize([-0.3, 0.7, -0.1, 0.64])).to_json()[0] >= 0.0


# ---------------------------------------------------------------------------
# fibonacci_directions


class TestFibonacciDirections:
    def test_single_direction_is_pole(self):
        (d,) = fibonacci_directions(1)
        assert np.array_equal(d, [0.0, 0.0, 1.0])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            fibonacci_directions(0)

    def test_two_directions_separation(self):
        d = fibonacci_directions(2)
        sep = angle_between(d[0], d[1])
        assert math.pi / 2.0 < sep <= math.pi

    def test_min_separation_at_256(self):
        vecs = fibonacci_directions(256)
        dots = np.clip(vecs @ vecs.T, -1.0, 1.0)
        np.fill_diagonal(dots, -1.0)
        min_sep = np.min(np.arccos(np.max(dots, axis=1)))
        assert min_sep >= 0.7 * math.sqrt(4.0 * math.pi / 256)

    def test_permutation_stable(self):
        a = fibonacci_directions(128)
        b = fibonacci_directions(128)
        assert np.array_equal(a, b)

    def test_directions_on_sphere(self):
        for d in fibonacci_directions(64):
            assert abs(np.linalg.norm(d) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 512, 4096])
    def test_matches_scalar_oracle_bit_for_bit(self, n):
        dirs = fibonacci_directions(n)
        assert dirs.shape == (n, 3)
        assert np.array_equal(dirs, reference_fibonacci(n))


# ---------------------------------------------------------------------------
# build_view_grid


class TestBuildViewGrid:
    def test_one_direction_four_rolls(self):
        grid = build_view_grid(1, 4)
        assert len(grid) == 4
        rolls = np.sort(so3.roll_angles(grid_entries(grid)) % (2.0 * math.pi))
        assert np.allclose(rolls, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2], atol=1e-9)

    def test_product_count(self):
        assert len(build_view_grid(92, 36)) == 3312

    def test_rotations_map_view_axis_to_direction(self):
        grid = build_view_grid(32, 4)
        dirs = fibonacci_directions(32)
        for i in range(len(grid)):
            r = grid.entry(i)
            d = dirs[i // 4]
            assert np.allclose(scipy_rotation(r.q).apply([0.0, 0.0, 1.0]), d, atol=1e-9)
            assert np.allclose(r.view_direction(), d, atol=1e-9)

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            build_view_grid(0, 4)
        with pytest.raises(ValueError):
            build_view_grid(4, 0)
        with pytest.raises(ValueError, match="n_inplane"):
            so3.ViewGrid(base=build_view_grid(4, 1).base, n_inplane=0)

    def test_direction_spacing(self):
        grid = build_view_grid(100, 1)
        assert grid.direction_spacing() == pytest.approx(math.sqrt(4 * math.pi / 100))

    @pytest.mark.parametrize("n_dirs,n_inplane", [
        (1, 1), (1, 4), (2, 3), (7, 5), (92, 36), (512, 1), (1024, 12), (2048, 1),
    ])
    def test_matches_scalar_oracle_bit_for_bit(self, n_dirs, n_inplane):
        grid = build_view_grid(n_dirs, n_inplane)
        assert np.array_equal(grid_entries(grid), reference_view_grid(n_dirs, n_inplane))

    @pytest.mark.parametrize("circles,steps", [(1, 1), (3, 8), (4, 16), (3, 128)])
    def test_trajectory_matches_scalar_oracle_bit_for_bit(self, circles, steps):
        grid = policy.TrajectoryGrid.evenly_spaced(circles, steps)
        reachable = policy.build_trajectory_reachable(grid)
        assert np.array_equal(reachable.quats, reference_trajectory(grid))

    def test_rotation_rows_kept_bit_for_bit(self):
        rows = grid_entries(build_view_grid(64, 6))
        for q in rows:
            assert np.array_equal(Rotation(q).q, q)

    def test_quats_read_only(self):
        grid = build_view_grid(8, 2)
        with pytest.raises(ValueError):
            grid.base[0, 0] = 1.0

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError):
            so3.ViewGrid(base=np.full((2, 4), 0.6), n_inplane=1)
        with pytest.raises(ValueError):
            so3.ViewGrid(base=np.zeros((2, 3)), n_inplane=1)

    @pytest.mark.parametrize("row", [(-1.0, 0.0, 0.0, 0.0), (0.0, -0.6, 0.8, 0.0),
                                     (0.0, 0.0, 0.0, -1.0)])
    def test_non_canonical_rows_rejected(self, row):
        with pytest.raises(ValueError, match="canonical"):
            so3.as_unit_quats([(1.0, 0.0, 0.0, 0.0), row])
        flipped = so3.as_unit_quats([tuple(-c for c in row)])
        assert Rotation(flipped[0]) == Rotation(normalize(row))


class TestLookAt:
    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 6.28))
    @example(0.0, 1e-9, -0.5, 0.0)
    @example(-3e-7, 2e-7, -1.0, 1.0)
    def test_roll_preserves_direction(self, x, y, z, roll):
        d = np.array([x, y, z])
        n = np.linalg.norm(d)
        if n < 1e-3:
            return
        d = d / n
        r = look_at(d, roll)
        assert np.allclose(r.view_direction(), d, atol=1e-9)

    def test_roll_angle_recovered(self):
        d = np.array([0.6, -0.48, 0.64])
        r = look_at(d, 1.234)
        assert float(so3.roll_angles(r.q)) % (2 * math.pi) == pytest.approx(1.234, abs=1e-9)

    def test_antipodal_direction(self):
        r = look_at([0.0, 0.0, -1.0])
        assert np.allclose(r.view_direction(), [0, 0, -1], atol=1e-9)
        assert np.array_equal(r.q, [0.0, 1.0, 0.0, 0.0])

    def test_near_antipodal_direction_not_snapped(self):
        # 1 + d_z cancels to 0 here; the direction must still be honoured.
        v = look_at((0.0, 1e-9, -0.5)).view_direction()
        assert v[1] == pytest.approx(2e-9, rel=1e-6)
        assert v[0] == 0.0 and v[2] == pytest.approx(-1.0, abs=1e-15)
        # Components whose squares underflow still give a finite rotation.
        r = look_at((1e-170, 0.0, -1.0))
        assert np.all(np.isfinite(r.q))
        assert np.allclose(r.view_direction(), [0, 0, -1], atol=1e-15)

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 6.28))
    def test_matches_scalar_oracle_bit_for_bit(self, x, y, z, roll):
        d = np.array([x, y, z])
        n = math.sqrt(float(d @ d))
        if n < 1e-3 or 1.0 + z / n < 1e-12:
            return  # the oracle snaps near -z, where look_at is exact
        assert np.array_equal(look_at(d, roll).q, reference_look_at(d, roll))

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            look_at([0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# geodesic_distance


class TestGeodesicDistance:
    def test_identity_case(self):
        r = Rotation(normalize([0.5, 0.5, 0.5, 0.5]))
        assert geodesic_distance(r, r) == 0.0

    def test_half_turn(self):
        half = from_axis_angle([0, 0, 1], math.pi)
        assert geodesic_distance(IDENTITY, half) == pytest.approx(math.pi)

    def test_double_cover_zero(self):
        r = Rotation(normalize([0.3, -0.7, 0.1, 0.64]))
        assert geodesic_distance(r, Rotation(normalize(-r.q))) == 0.0

    @given(rotations(), rotations())
    def test_symmetric(self, a, b):
        assert geodesic_distance(a, b) == pytest.approx(geodesic_distance(b, a), abs=1e-12)

    @given(rotations(), rotations())
    def test_range(self, a, b):
        d = geodesic_distance(a, b)
        assert 0.0 <= d <= math.pi + 1e-12

    def test_matches_axis_angle(self):
        for angle in (1e-8, 1e-4, 0.5, 2.0, 3.0):
            r = from_axis_angle([1, 2, 2], angle)
            assert geodesic_distance(IDENTITY, r) == pytest.approx(angle, rel=1e-9)

    @given(rotations(), rotations(), rotations())
    @settings(max_examples=50)
    def test_composition_associativity(self, a, b, c):
        assert geodesic_distance(compose(compose(a, b), c), compose(a, compose(b, c))) < 1e-9


# ---------------------------------------------------------------------------
# Vectorized helpers


class TestVectorizedHelpers:
    def test_quat_mul_matches_scalar(self):
        rng = np.random.default_rng(3)
        q1 = rng.normal(size=(10, 4))
        q2 = rng.normal(size=(10, 4))
        q1 /= np.linalg.norm(q1, axis=1, keepdims=True)
        q2 /= np.linalg.norm(q2, axis=1, keepdims=True)
        q1[::3, 0] = 0.0
        q2[::4, 1] = -0.0
        out = quat_mul(q1, q2)
        for i in range(10):
            assert np.array_equal(out[i], reference_quat_mul(q1[i], q2[i]))
            assert np.array_equal(normalize(out[i]),
                                  reference_normalize(reference_quat_mul(q1[i], q2[i])))

    def test_view_directions_and_rolls_match_scalar(self):
        grid = build_view_grid(24, 5)
        q = grid_entries(grid)
        dirs = so3.view_directions(q)
        rolls = so3.roll_angles(q)
        for i in range(len(grid)):
            r = Rotation(q[i])
            assert np.array_equal(dirs[i], r.view_direction())
            roll = float(so3.roll_angles(r.q))
            assert math.cos(rolls[i]) == pytest.approx(math.cos(roll), abs=1e-9)
            assert math.sin(rolls[i]) == pytest.approx(math.sin(roll), abs=1e-9)

    def test_random_rotation_deterministic(self):
        a = so3.random_rotation(np.random.default_rng(5))
        b = so3.random_rotation(np.random.default_rng(5))
        assert a == b



def _table_ambiguity(amb):
    pair = ambiguity.MatchedPair(0.5, IDENTITY, IDENTITY, "B")
    return ambiguity.AmbiguityTable("A", (pair, pair), amb, {}).ambiguity


def _synth_object(positions=np.eye(3), descriptors=np.ones((3, 4))):
    return synthworld.SynthObject(positions, descriptors, "A", "g")


# Every constructor that stores an array: a writeable input, and the array
# the constructed object keeps from it.
@pytest.mark.parametrize("make_input, stored_from", [
    pytest.param(lambda: build_view_grid(4, 1).base.copy(),
                 lambda a: so3.ViewGrid(a, 2).base, id="ViewGrid.base"),
    pytest.param(lambda: np.eye(4, 8),
                 lambda a: codebook.Codebook(build_view_grid(4, 2), a, "A").embeddings,
                 id="Codebook.embeddings"),
    pytest.param(lambda: np.eye(2, 8),
                 lambda a: classify.CentroidClassifier(("A", "B"), a).centroids,
                 id="CentroidClassifier.centroids"),
    pytest.param(lambda: np.eye(3), lambda a: _synth_object(positions=a).positions,
                 id="SynthObject.positions"),
    pytest.param(lambda: np.ones((3, 4)), lambda a: _synth_object(descriptors=a).descriptors,
                 id="SynthObject.descriptors"),
    pytest.param(lambda: np.array([0.25, 0.75]), _table_ambiguity,
                 id="AmbiguityTable.ambiguity"),
])
def test_constructor_leaves_caller_array_writeable(make_input, stored_from):
    given_array = make_input()
    stored = stored_from(given_array)
    assert given_array.flags.writeable
    assert not stored.flags.writeable
    assert np.array_equal(stored, given_array)
