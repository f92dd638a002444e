"""Rotation arithmetic and quasi-uniform view grids over SO(3).

Conventions used throughout the package:

- Quaternions are ``(w, x, y, z)``, unit norm, canonicalized so that the
  first nonzero component is positive (in practice ``w >= 0``).  ``q`` and
  ``-q`` denote the same rotation and compare equal.
- A view direction is a unit 3-vector, and a set of them an ``(N, 3)``
  array; ``unit_vector(theta, phi)`` builds one from polar angles.
- The canonical camera view axis is ``+z``.  A view rotation maps ``+z``
  to the direction from the object center toward the camera; the residual
  rotation about that axis is the in-plane roll.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VIEW_AXIS = np.array([0.0, 0.0, 1.0])
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

_UNIT_TOL = 1e-9


class Rotation:
    """A rotation stored as a canonicalized unit quaternion ``(w, x, y, z)``."""

    __slots__ = ("q",)

    def __init__(self, w: float, x: float, y: float, z: float):
        q = np.array([w, x, y, z], dtype=float)
        n = math.sqrt(float(q @ q))
        if not math.isfinite(n) or n < 1e-12:
            raise ValueError("quaternion norm is zero or non-finite")
        q /= n
        # Double cover collapsed: make the first nonzero component positive.
        for c in q:
            if c != 0.0:
                if c < 0.0:
                    q = -q
                break
        self.q = q
        self.q.flags.writeable = False

    @classmethod
    def wrap(cls, q) -> "Rotation":
        """The rotation ``q`` kept bit for bit, without renormalizing.

        ``q`` must already be a unit, canonical quaternion, such as a row of
        a rotation-set array; renormalizing such a row can move its last bit.
        """
        r = cls.__new__(cls)
        r.q = np.array(q, dtype=float)
        r.q.flags.writeable = False
        return r

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_quat(cls, q) -> "Rotation":
        w, x, y, z = (float(v) for v in q)
        return cls(w, x, y, z)

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Rotation":
        a = np.asarray(axis, dtype=float)
        n = math.sqrt(float(a @ a))
        if n < 1e-12:
            raise ValueError("axis has zero norm")
        s = math.sin(angle / 2.0) / n
        return cls(math.cos(angle / 2.0), a[0] * s, a[1] * s, a[2] * s)

    def __matmul__(self, other: "Rotation") -> "Rotation":
        """Composition: ``(a @ b)`` applies ``b`` first, then ``a``."""
        return Rotation.from_quat(quat_mul(self.q, other.q))

    def inverse(self) -> "Rotation":
        w, x, y, z = self.q
        return Rotation(w, -x, -y, -z)

    def apply(self, v) -> np.ndarray:
        """Rotate a 3-vector."""
        w, x, y, z = self.q
        u = np.array([x, y, z])
        v = np.asarray(v, dtype=float)
        return v + 2.0 * np.cross(u, np.cross(u, v) + w * v)

    def to_matrix(self) -> np.ndarray:
        w, x, y, z = self.q
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def view_direction(self) -> np.ndarray:
        """Image of the canonical view axis (+z) under this rotation."""
        w, x, y, z = self.q
        return np.array([2 * (x * z + w * y), 2 * (y * z - w * x), 1 - 2 * (x * x + y * y)])

    def roll_angle(self) -> float:
        """In-plane roll: angle of ``look_at(view_direction)^-1 @ self`` about z."""
        return float(roll_angles(self.q))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rotation):
            return NotImplemented
        return bool(np.array_equal(self.q, other.q))

    def __hash__(self) -> int:
        return hash(self.q.tobytes())

    def isclose(self, other: "Rotation", tol: float = 1e-9) -> bool:
        return geodesic_distance(self, other) <= tol

    def to_json(self) -> list:
        return self.q.tolist()

    def __repr__(self) -> str:
        w, x, y, z = self.q
        return f"Rotation({w:.6g}, {x:.6g}, {y:.6g}, {z:.6g})"


def unit_vector(theta: float, phi: float) -> np.ndarray:
    """Unit 3-vector at polar angle ``theta`` from +z and azimuth ``phi``."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def as_unit_quats(quats) -> np.ndarray:
    """Read-only ``(N, 4)`` array of unit, canonical quaternion rows (``N``
    may be 0), as ``Rotation`` holds them.

    Rows are checked, not changed: a row must have unit norm (within 1e-9)
    and a positive first nonzero component.  A read-only float array is
    returned as is, so rotation sets built from one another share their rows.
    """
    q = np.asarray(quats, dtype=float)
    if q.ndim != 2 or q.shape[1] != 4:
        raise ValueError(f"quaternions must form an (N, 4) array, got shape {q.shape}")
    if not np.all(np.abs(np.sqrt(np.vecdot(q, q)) - 1.0) <= _UNIT_TOL):
        raise ValueError("quaternion rows must have unit norm")
    if np.any(q[np.arange(len(q)), np.argmax(q != 0.0, axis=1)] < 0.0):
        raise ValueError("quaternion rows must be canonical (first nonzero component positive)")
    if q.flags.writeable:
        q = q.copy()
        q.flags.writeable = False
    return q


@dataclass(frozen=True)
class ViewGrid:
    """Ordered rotations as an ``(N, 4)`` quaternion array: one block of
    ``n_inplane`` rolls per sphere direction."""

    quats: np.ndarray
    n_dirs: int
    n_inplane: int

    def __post_init__(self):
        object.__setattr__(self, "quats", as_unit_quats(self.quats))

    def __len__(self) -> int:
        return len(self.quats)

    def rotation(self, i: int) -> Rotation:
        return Rotation.wrap(self.quats[i])

    def direction_spacing(self) -> float:
        """Expected angular spacing of the direction lattice, sqrt(4*pi/n)."""
        return math.sqrt(4.0 * math.pi / self.n_dirs)


def fibonacci_directions(n: int) -> np.ndarray:
    """``(n, 3)`` unit rows of the golden-angle Fibonacci lattice.

    Row ``k`` is ``unit_vector(acos(z_k), k * golden_angle mod 2 pi)`` with
    ``z_k = 1 - 2(k + 0.5)/n``; the single-point lattice degenerates to the
    pole.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return unit_vector(0.0, 0.0)[None, :]
    out = np.empty((n, 3))
    for k in range(n):
        z = 1.0 - 2.0 * (k + 0.5) / n
        theta = math.acos(max(-1.0, min(1.0, z)))
        phi = math.fmod(k * GOLDEN_ANGLE, 2.0 * math.pi)
        if phi < 0.0:
            phi += 2.0 * math.pi
        out[k] = unit_vector(theta, phi)
    return out


def look_at(direction, roll: float = 0.0) -> Rotation:
    """Rotation mapping the view axis (+z) to ``direction``, then rolled about it.

    The base alignment is the geodesic rotation from +z; the roll is applied
    about the view axis *before* the alignment, so the viewed direction is
    unchanged while the image rotates in-plane.
    """
    return Rotation.wrap(look_at_quats([direction], (roll,))[0])


def look_at_quats(directions, rolls=(0.0,)) -> np.ndarray:
    """``look_at(d, roll).q`` for every direction row ``d`` and every roll.

    Returns an ``(M * K, 4)`` array in direction-major order for ``M``
    directions and ``K`` rolls.  Each row is computed as the scalar
    composition would be: the direction and the base alignment normalized
    (the base twice, as alignment and as a rotation), the roll built as a
    ``Rotation``, their product normalized, every quaternion canonicalized.
    Squared norms use ``np.vecdot``, which rounds like the 1-d ``q @ q``.
    """
    d = np.asarray(directions, dtype=float)
    if d.ndim != 2 or d.shape[1] != 3:
        raise ValueError(f"directions must form an (M, 3) array, got shape {d.shape}")
    n = np.sqrt(np.vecdot(d, d))
    if not np.all((n >= 1e-12) & np.isfinite(n)):
        raise ValueError("direction has zero or non-finite norm")
    base = _canonical(_unit(_unit(_look_at_base(d / n[:, None]))))
    out = np.empty((len(d), len(rolls), 4))
    for j, roll in enumerate(rolls):
        if roll == 0.0:
            out[:, j] = base
        else:
            spin = Rotation(math.cos(roll / 2.0), 0.0, 0.0, math.sin(roll / 2.0))
            out[:, j] = _canonical(_unit(quat_mul(base, spin.q)))
    return out.reshape(-1, 4)


def build_view_grid(n_dirs: int, n_inplane: int) -> ViewGrid:
    """Fibonacci directions x uniform in-plane rolls, direction-major order."""
    if n_dirs < 1 or n_inplane < 1:
        raise ValueError(f"counts must be >= 1, got ({n_dirs}, {n_inplane})")
    rolls = [2.0 * math.pi * j / n_inplane for j in range(n_inplane)]
    return ViewGrid(look_at_quats(fibonacci_directions(n_dirs), rolls), n_dirs, n_inplane)


def geodesic_distance(a: Rotation, b: Rotation) -> float:
    """Angle of ``a^-1 b`` in [0, pi]; zero iff a == b up to quaternion sign."""
    qa, qb = a.q, b.q
    if float(qa @ qb) < 0.0:
        qb = -qb
    # 4*asin(|qa - qb|/2) is accurate near zero where acos of the dot is not.
    half_chord = 0.5 * math.sqrt(float((qa - qb) @ (qa - qb)))
    return 4.0 * math.asin(max(-1.0, min(1.0, half_chord)))


# ---------------------------------------------------------------------------
# Vectorized quaternion helpers on (..., 4) arrays, used by the hot paths.

def quat_mul(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    w1, x1, y1, z1 = q1[..., 0], q1[..., 1], q1[..., 2], q1[..., 3]
    w2, x2, y2, z2 = q2[..., 0], q2[..., 1], q2[..., 2], q2[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def view_directions(quats: np.ndarray) -> np.ndarray:
    """Images of the view axis (+z) for a (..., 4) quaternion array."""
    q = np.asarray(quats, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [2 * (x * z + w * y), 2 * (y * z - w * x), 1 - 2 * (x * x + y * y)], axis=-1
    )


def roll_angles(quats: np.ndarray, dirs: np.ndarray | None = None) -> np.ndarray:
    """In-plane roll of each rotation in a (..., 4) quaternion array."""
    q = np.asarray(quats, dtype=float)
    v = view_directions(q) if dirs is None else np.asarray(dirs, dtype=float)
    la = _look_at_base(v)
    # Rendered embeddings carry these bits: keep the summed squared norm.
    la = la / np.sqrt(np.sum(la * la, axis=-1, keepdims=True))
    rel = quat_mul(quat_conj(la), q)
    return 2.0 * np.arctan2(rel[..., 3], rel[..., 0])


def _look_at_base(d: np.ndarray) -> np.ndarray:
    """Unnormalized geodesic alignment quaternions from +z to unit rows ``d``.

    ``w = 1 + d_z`` cancels to 0 within about 1.4e-6 rad of -z; there it is
    recomputed as ``(d_x^2 + d_y^2) / (1 - d_z)`` and the row is scaled to a
    unit maximum, so its norm cannot underflow.  Only ``d = -z`` itself, which
    has no geodesic alignment, falls back to a half turn about x.
    """
    d = np.asarray(d, dtype=float)
    rows = d.reshape(-1, 3)
    w = 1.0 + rows[:, 2]
    q = np.stack([w, -rows[:, 1], rows[:, 0], np.zeros_like(w)], axis=-1)
    near = w < 1e-12
    if np.any(near):
        dn = rows[near]
        qn = q[near]
        qn[:, 0] = (dn[:, 0] * dn[:, 0] + dn[:, 1] * dn[:, 1]) / (1.0 - dn[:, 2])
        top = np.max(np.abs(qn), axis=1, keepdims=True)
        pole = top[:, 0] == 0.0
        qn[pole] = (0.0, 1.0, 0.0, 0.0)
        top[pole] = 1.0
        q[near] = qn / top
    return q.reshape(d.shape[:-1] + (4,))


def _unit(q: np.ndarray) -> np.ndarray:
    return q / np.sqrt(np.vecdot(q, q))[..., None]


def _canonical(q: np.ndarray) -> np.ndarray:
    """``(M, 4)`` rows with their first nonzero component made positive, in
    place, as ``Rotation`` does."""
    lead = q[np.arange(len(q)), np.argmax(q != 0.0, axis=1)]
    q[lead < 0.0] *= -1.0
    return q


def random_rotation(rng: np.random.Generator) -> Rotation:
    """Uniform random rotation (normalized 4-d Gaussian quaternion)."""
    q = rng.normal(size=4)
    return Rotation.from_quat(q)
