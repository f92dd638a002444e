"""Per-object embedding codebooks and cosine-similarity pose queries.

A codebook stores one unit-normalized embedding per view-grid rotation.
Every query goes through ``Codebook.best``: one exact matrix-vector product
and one ``argmax``, so ties resolve to the lowest entry index and results
are reproducible.  ``unit`` is the one embedding normalizer, for cosines,
codebooks and the classifier alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .so3 import Rotation, ViewGrid, as_unit_quats
from .synthworld import SynthObject, render_embeddings


_MIN_NORM = math.sqrt(np.finfo(float).tiny)
_NORMALIZE_BLOCK = 4096  # codebook rows normalized at a time


def unit(z: np.ndarray) -> np.ndarray:
    """``z`` over its norm, or each row of an ``(N, d)`` array over its own.

    The norm is numpy's for the shape, ``sqrt(z @ z)`` for a vector and the
    row-wise ``np.linalg.norm`` for a matrix, so finite inputs keep their
    bits.  A norm below ``sqrt(tiny)`` is refused: zero, or a squared norm
    that has underflowed, whose root is inaccurate.  Where the squared norm
    overflows, the norm is taken of ``z / max|z|`` instead; a non-finite
    ``z`` is refused.
    """
    z = np.asarray(z, dtype=float)
    rows = {} if z.ndim == 1 else {"axis": -1, "keepdims": True}
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.linalg.norm(z, **rows)
        over = n == np.inf
        if over.any():
            z = np.where(over, z / np.max(np.abs(z), axis=-1, keepdims=True), z)
            n = np.linalg.norm(z, **rows)
    if not ((n >= _MIN_NORM) & (n < np.inf)).all():
        raise ValueError("cannot normalize a zero-norm, underflowing or non-finite embedding")
    return z / n


def cossim(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two embeddings; rejects zero or underflowing norms."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.clip(unit(a) @ unit(b), -1.0, 1.0))


def roll_components(a: np.ndarray, b: np.ndarray):
    """Paired-component projections ``(C, S)`` of ``a`` against ``b``.

    Over consecutive (even, odd) component pairs of the trailing axis,
    ``C = sum(a_e b_e + a_o b_o)`` and ``S = sum(a_o b_e - a_e b_o)``; the
    roll that best aligns ``b`` onto ``a`` is ``atan2(S, C)`` and the aligned
    dot product is ``hypot(C, S)``.  ``(d,)`` inputs give scalars, ``(N, d)``
    against ``(M, d)`` gives ``(N, M)`` arrays.
    """
    ae, ao = a[..., 0::2], a[..., 1::2]
    be, bo = b[..., 0::2], b[..., 1::2]
    return ae @ be.T + ao @ bo.T, ao @ be.T - ae @ bo.T


def roll_aligned_cossim(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity maximized over a shared in-plane roll, in closed form.

    Embeddings are roll-equivariant through the 2x2 pair-mixing matrix, so
    max_delta cossim(a, M(delta) b) = hypot(C, S) / (|a| |b|) with ``C, S``
    from ``roll_components``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.shape[-1] % 2 != 0:
        raise ValueError("roll alignment requires an even embedding dimension")
    return min(1.0, math.hypot(*roll_components(unit(a), unit(b))))


@dataclass(frozen=True)
class PoseHypothesis:
    class_id: str
    rotation: Rotation
    score: float


@dataclass(frozen=True)
class Codebook:
    """Immutable (rotation, unit embedding) arrays for one object."""

    quats: np.ndarray       # (N, 4), unit rows
    embeddings: np.ndarray  # (N, d), unit rows
    class_id: str
    group_id: str
    grid_meta: dict

    def __post_init__(self):
        quats = as_unit_quats(self.quats)
        emb = np.asarray(self.embeddings, dtype=float)
        if emb.shape[0] != len(quats):
            raise ValueError("entry count does not match rotation count")
        emb.flags.writeable = False
        object.__setattr__(self, "quats", quats)
        object.__setattr__(self, "embeddings", emb)

    def __len__(self) -> int:
        return len(self.quats)

    def rotation(self, i: int) -> Rotation:
        return Rotation.wrap(self.quats[i])

    def best(self, z: np.ndarray) -> tuple:
        """``(index, score)`` of the entry most similar to ``z`` by cosine;
        ties go to the lowest index, and the score is not clipped."""
        s = self.embeddings @ unit(z)
        i = int(np.argmax(s))
        return i, float(s[i])


def build_codebook(obj: SynthObject, grid: ViewGrid) -> Codebook:
    """Noise-free embeddings of every grid rotation, normalized per entry."""
    if len(grid) == 0:
        raise ValueError("view grid is empty")
    z = render_embeddings(obj, grid.quats)
    # In place, a block at a time: a second codebook-sized array would raise
    # peak memory.
    for lo in range(0, len(z), _NORMALIZE_BLOCK):
        z[lo:lo + _NORMALIZE_BLOCK] = unit(z[lo:lo + _NORMALIZE_BLOCK])
    return Codebook(
        quats=grid.quats,
        embeddings=z,
        class_id=obj.class_id,
        group_id=obj.group_id,
        grid_meta={"n_dirs": grid.n_dirs, "n_inplane": grid.n_inplane},
    )


def estimate_pose(cb: Codebook, z: np.ndarray) -> PoseHypothesis:
    """Best codebook entry by cosine similarity, its score clipped to [-1, 1];
    ties go to the lowest index."""
    return _hypothesis(cb, *cb.best(z))


def _hypothesis(cb: Codebook, i: int, score: float) -> PoseHypothesis:
    return PoseHypothesis(cb.class_id, cb.rotation(i), float(np.clip(score, -1.0, 1.0)))


def hypotheses_for_group(codebooks, z: np.ndarray) -> list:
    """``estimate_pose`` for every in-group codebook, sorted by unclipped
    score, highest first; equal scores keep codebook order."""
    if not codebooks:
        raise ValueError("need at least one codebook")
    found = [(cb, *cb.best(z)) for cb in codebooks]
    found.sort(key=lambda t: -t[2])  # stable, so equal scores keep codebook order
    return [_hypothesis(cb, i, s) for cb, i, s in found]
