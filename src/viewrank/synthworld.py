"""Deterministic synthetic objects and their analytic view embeddings.

An object is a set of descriptor blobs on the unit sphere.  The embedding of
a view is the visibility-weighted sum of blob descriptors, rotated in pairs
by the camera's in-plane roll:

    z = M(roll) @ sum_m w(v . p_m) * descriptor_m + noise

where ``v`` is the viewing direction (object-to-camera), ``w(t) = max(0, t)^2``
is a smooth foreshortening ramp, and ``M(roll)`` applies a 2x2 rotation to
each consecutive descriptor pair.  With zero noise the embedding is an exact
pure function of (object, rotation), which makes ambiguity ground truth
computable: two objects differing only inside a spherical patch have
bit-identical embeddings whenever no differing blob is visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .so3 import Rotation, build_view_grid, read_only, roll_angles, view_directions

DEFAULT_N_BLOBS = 512
DEFAULT_DESCRIPTOR_DIM = 32
DEFAULT_PATCH_RADIUS = math.pi / 3.0

# Rows per render block, which bounds the (rows, n_blobs) weight matrix.  A
# trailing block under half of this joins the block before it: small blocks
# take other BLAS kernels than one call over all rows and round differently
# (a 1-row block is a matrix-vector product), while blocks this large give
# every row the bits of the single call (checked with OpenBLAS).
_RENDER_CHUNK = 4096


@dataclass(frozen=True)
class SynthObject:
    """Immutable blob cloud with class/group labels.

    ``positions`` is (n, 3) unit rows, ``descriptors`` is (n, d) with d even.
    """

    positions: np.ndarray
    descriptors: np.ndarray
    class_id: str
    group_id: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        desc = np.asarray(self.descriptors, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must be a nonempty (n, 3) array")
        if desc.shape[0] != pos.shape[0]:
            raise ValueError("positions and descriptors disagree on blob count")
        if desc.shape[1] % 2 != 0 or desc.shape[1] < 2:
            raise ValueError("descriptor dimension must be even and >= 2")
        norms = np.linalg.norm(pos, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("blob positions must lie on the unit sphere")
        object.__setattr__(self, "positions", read_only(pos))
        object.__setattr__(self, "descriptors", read_only(desc))

    @property
    def n_blobs(self) -> int:
        return self.positions.shape[0]

    @property
    def descriptor_dim(self) -> int:
        return self.descriptors.shape[1]


def make_ambiguous_pair(
    seed: int,
    n_blobs: int = DEFAULT_N_BLOBS,
    d: int = DEFAULT_DESCRIPTOR_DIM,
    patch_center=(1.0, 0.0, 0.0),
    patch_radius: float = DEFAULT_PATCH_RADIUS,
    group_id: str = "pair-0",
) -> tuple:
    """Twin objects identical everywhere except inside one spherical patch.

    Blob positions are shared.  Blobs whose position lies within
    ``patch_radius`` of ``patch_center`` get independently seeded descriptors
    on the second object; placement is redrawn until at least one blob falls
    inside the patch.  A patch that no blob lands in within 10000 draws is
    refused with ``ValueError``.
    """
    if n_blobs < 4:
        raise ValueError(f"n_blobs must be >= 4, got {n_blobs}")
    if not 0.0 < patch_radius < math.pi / 2.0:
        raise ValueError(f"patch_radius must be in (0, pi/2), got {patch_radius}")
    center = np.asarray(patch_center, dtype=float)
    center = center / np.linalg.norm(center)
    cos_r = math.cos(patch_radius)

    rng = np.random.default_rng(seed)
    for attempt in range(10000):
        pos = rng.normal(size=(n_blobs, 3))
        pos /= np.linalg.norm(pos, axis=1, keepdims=True)
        inside = pos @ center > cos_r
        if np.any(inside):
            break
    else:
        raise ValueError(
            f"no blob landed inside a patch of radius {patch_radius} after 10000 draws")

    desc_a = rng.normal(size=(n_blobs, d))
    rng_b = np.random.default_rng([seed, 1])
    desc_b = desc_a.copy()
    desc_b[inside] = rng_b.normal(size=(int(np.sum(inside)), d))

    meta = {
        "seed": int(seed),
        "n_blobs": int(n_blobs),
        "descriptor_dim": int(d),
        "patch_center": center.tolist(),
        "patch_radius": float(patch_radius),
        "placement_attempts": attempt + 1,
    }
    a = SynthObject(pos, desc_a, class_id="A", group_id=group_id, meta=dict(meta, twin="A"))
    b = SynthObject(pos.copy(), desc_b, class_id="B", group_id=group_id, meta=dict(meta, twin="B"))
    return a, b


def render_embeddings(obj: SynthObject, quats: np.ndarray) -> np.ndarray:
    """Noise-free embeddings for a (N, 4) quaternion array; returns (N, d).

    Rows are rendered in blocks of ``_RENDER_CHUNK``, so peak memory does not
    grow with N.
    """
    q = np.atleast_2d(np.asarray(quats, dtype=float))
    out = np.empty((len(q), obj.descriptor_dim))
    lo = 0
    while lo < len(q):
        hi = lo + _RENDER_CHUNK
        if len(q) - hi < _RENDER_CHUNK // 2:
            hi = len(q)
        block = q[lo:hi]
        v = view_directions(block)                               # (B, 3)
        w = v @ obj.positions.T                                  # (B, n)
        np.maximum(w, 0.0, out=w)
        w *= w
        out[lo:hi] = _mix_pairs(w @ obj.descriptors, roll_angles(block, v))
        lo = hi
    return out


def _mix_pairs(z: np.ndarray, rolls: np.ndarray) -> np.ndarray:
    """Rotate each consecutive component pair of z by the per-row roll angle."""
    c = np.cos(rolls)[..., None]
    s = np.sin(rolls)[..., None]
    even, odd = z[..., 0::2], z[..., 1::2]
    out = np.empty_like(z)
    out[..., 0::2] = c * even - s * odd
    out[..., 1::2] = s * even + c * odd
    return out


def render_embedding(
    obj: SynthObject,
    r: Rotation,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Embedding of one view, optionally with isotropic Gaussian noise drawn
    from ``rng`` (a fresh, unseeded generator if none is given)."""
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be >= 0")
    z = render_embeddings(obj, r.q[None, :])[0]
    if noise_sigma > 0.0:
        gen = np.random.default_rng() if rng is None else rng
        z = z + gen.normal(0.0, noise_sigma, size=z.shape)
    return z


def differing_blobs(a: SynthObject, b: SynthObject) -> np.ndarray:
    """Boolean mask of blobs whose descriptors differ between twin objects."""
    if a.positions.shape != b.positions.shape or not np.array_equal(a.positions, b.positions):
        raise ValueError("objects do not share blob positions")
    return np.any(a.descriptors != b.descriptors, axis=1)


def patch_visible(pair, r: Rotation) -> bool:
    """True iff some differing blob has positive visibility weight from r."""
    a, b = pair
    diff = differing_blobs(a, b)
    v = r.view_direction()
    return bool(np.any((a.positions[diff] @ v) > 0.0))


def mean_embedding_norm(obj: SynthObject, n_sample_dirs: int = 256) -> float:
    """Mean noise-free embedding norm over a Fibonacci direction grid.

    Used to express noise levels relative to the signal scale.
    """
    grid = build_view_grid(n_sample_dirs, 1)
    z = render_embeddings(obj, grid.base)
    return float(np.mean(np.linalg.norm(z, axis=1)))
