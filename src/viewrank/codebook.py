"""Per-object embedding codebooks and cosine-similarity pose queries.

A codebook holds a direction-major view grid and one unit roll-0 embedding
per direction.  The renderer is roll-equivariant, so the entry at
direction ``j`` and roll ``r`` has cosine ``C_j cos r - S_j sin r`` with a
unit query, for ``(C_j, S_j)`` from ``roll_components``.  Every query goes
through ``Codebook.best``, which scores only the directions whose amplitude
``hypot(C_j, S_j)`` can reach the best score; ties resolve to the lowest
entry index.  ``unit`` is the one embedding normalizer, for cosines,
codebooks and the classifier alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .so3 import ViewGrid, read_only
from .synthworld import SynthObject, render_embeddings


_MIN_NORM = math.sqrt(np.finfo(float).tiny)
_EPS = np.finfo(float).eps


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


@dataclass(frozen=True)
class Codebook:
    """Immutable view grid and unit roll-0 embeddings of one object.

    Embedding row ``j`` is the grid's direction ``j`` at roll 0; ``embeddings``
    holds ``n_dirs * d * 8`` bytes, and the rolled entries are never stored.
    """

    grid: ViewGrid
    embeddings: np.ndarray  # (n_dirs, d), unit roll-0 rows
    class_id: str

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=float)
        if len(emb) == 0 or len(emb) != len(self.grid.base):
            raise ValueError("embedding rows do not match the grid's directions")
        object.__setattr__(self, "embeddings", read_only(emb))

    def __len__(self) -> int:
        return len(self.grid)

    def best(self, z: np.ndarray) -> tuple:
        """``(index, score)`` of the grid entry most similar to ``z`` by
        cosine; ties go to the lowest index, and the score is not clipped."""
        n = self.grid.n_inplane
        rolls = 2.0 * math.pi * np.arange(n) / n
        cos, sin = np.cos(rolls), np.sin(rolls)
        c, s = roll_components(self.embeddings, unit(z))
        amp = np.hypot(c, s)
        lead = int(np.argmax(amp))
        top = float(np.max(c[lead] * cos - s[lead] * sin))
        # Over its rolls direction j scores at most amp_j: C cos - S sin and
        # |C cos| + |S sin| are at most amp_j hypot(cos, sin) <= amp_j (1 + eps),
        # rounding adds at most 2 eps of the latter, and the computed amp_j is
        # within eps of exact.  No computed score tops amp_j (1 + 4 eps +
        # O(eps^2)), so 8 eps keeps every direction that can reach or tie ``top``.
        # Subnormal products break the relative bound: below sqrt(tiny), keep all.
        keep = np.flatnonzero(amp * (1.0 + 8.0 * _EPS) >= (top if top >= _MIN_NORM else 0.0))
        scores = c[keep, None] * cos - s[keep, None] * sin
        r, k = divmod(int(np.argmax(scores)), n)
        return int(keep[r]) * n + k, float(scores[r, k])


def build_codebook(obj: SynthObject, grid: ViewGrid) -> Codebook:
    """Noise-free unit embeddings of the grid's roll-0 rotations, one per
    direction."""
    if len(grid) == 0:
        raise ValueError("view grid is empty")
    z = unit(render_embeddings(obj, grid.base))
    return Codebook(grid=grid, embeddings=z, class_id=obj.class_id)


def hypotheses_for_group(codebooks, z: np.ndarray) -> tuple:
    """``(class_ids, quats)``: each codebook's best entry for ``z``, as a
    tuple of class ids and a ``(K, 4)`` array of grid rows, sorted by
    unclipped score, highest first; equal scores keep codebook order."""
    if not codebooks:
        raise ValueError("need at least one codebook")
    found = [(cb, *cb.best(z)) for cb in codebooks]
    found.sort(key=lambda t: -t[2])  # stable, so equal scores keep codebook order
    return (tuple(cb.class_id for cb, _, _ in found),
            np.array([cb.grid.entry(i).q for cb, i, _ in found]))
