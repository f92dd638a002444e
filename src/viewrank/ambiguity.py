"""Ambiguity ranking: worst-case view similarity against the rest of a group.

For each orientation of an object, the raw ambiguity is the maximum cosine
similarity between its view embedding and the best-matching view of any other
object in the group.  The best match is found by seeding from the other
object's codebook and refining with a derivative-free cyclic coordinate
descent over the viewing-direction angles (elevation, azimuth), with a
halving step schedule; the in-plane angle is solved in closed form at every
evaluation, which the pair-mixing embedding structure makes exact.  Raw
values are then linearly normalized to [0, 1] per ranked object.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .codebook import Codebook, roll_components, unit
from .so3 import Rotation, ViewGrid, as_unit_quats, read_only
from .synthworld import SynthObject, render_embeddings

DEFAULT_DESCENT_STEPS = 32
_MAX_INNER_STEPS = 8  # per-coordinate moves at one step size before halving

CSV_COLUMNS = [
    "rank", "similarity", "ambiguity",
    "r_a_w", "r_a_x", "r_a_y", "r_a_z",
    "r_b_w", "r_b_x", "r_b_y", "r_b_z",
    "matched_class",
]


@dataclass(frozen=True)
class MatchedPair:
    similarity: float
    r_a: Rotation
    r_b: Rotation
    matched_class: str


@dataclass(frozen=True)
class AmbiguityTable:
    """Matched pairs sorted by similarity descending, with normalized ambiguity.

    ``pairs`` is the only row input.  Its fields are also held as read-only
    columns, built once from it: ``raw_similarity`` ``(N,)``, ``r_a_quats``
    and ``r_b_quats`` ``(N, 4)`` and ``matched_class`` ``(N,)``.  Every stage
    after ranking reads the columns; ``dataclasses.replace`` with new
    ``pairs`` rebuilds them.
    """

    object_class: str
    pairs: tuple
    ambiguity: np.ndarray
    grid_meta: dict
    raw_similarity: np.ndarray = field(init=False, repr=False, compare=False)
    r_a_quats: np.ndarray = field(init=False, repr=False, compare=False)
    r_b_quats: np.ndarray = field(init=False, repr=False, compare=False)
    matched_class: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        amb = np.asarray(self.ambiguity, dtype=float)
        if len(amb) != len(self.pairs):
            raise ValueError("ambiguity length does not match pair count")
        columns = {
            "ambiguity": amb,
            "raw_similarity": np.array([p.similarity for p in self.pairs], dtype=float),
            "r_a_quats": as_unit_quats(
                np.array([p.r_a.q for p in self.pairs], dtype=float).reshape(-1, 4)),
            "r_b_quats": as_unit_quats(
                np.array([p.r_b.q for p in self.pairs], dtype=float).reshape(-1, 4)),
            "matched_class": np.array([p.matched_class for p in self.pairs], dtype=str),
        }
        for name, col in columns.items():
            object.__setattr__(self, name, read_only(col))

    def __len__(self) -> int:
        return len(self.pairs)

    def lookup(self, r: Rotation) -> float:
        """Ambiguity of the nearest ranked orientation (geodesic nearest grid point)."""
        return float(self.ambiguity[self.nearest_index(r)])

    def nearest_index(self, r: Rotation) -> int:
        dots = np.abs(self.r_a_quats @ r.q)
        return int(np.argmax(dots))

    def lookup_batch(self, quats: np.ndarray) -> np.ndarray:
        """Vectorized nearest-orientation lookup for a (N, 4) quaternion array."""
        dots = np.abs(np.asarray(quats, dtype=float) @ self.r_a_quats.T)
        return self.ambiguity[np.argmax(dots, axis=1)]

    def to_json(self) -> dict:
        return {
            "object_class": self.object_class,
            "grid_meta": dict(self.grid_meta),
            "pairs": [
                {
                    "similarity": p.similarity,
                    "r_a": p.r_a.to_json(),
                    "r_b": p.r_b.to_json(),
                    "matched_class": p.matched_class,
                }
                for p in self.pairs
            ],
            "ambiguity": self.ambiguity.tolist(),
        }

    def save(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            json.dump(self.to_json(), f)


@dataclass(frozen=True)
class ThresholdSplit:
    """Train orientations of a table at an ambiguity threshold.

    ``train_quats`` is the read-only ``(N, 4)`` array of the ``r_a`` rows
    whose ambiguity is strictly below ``threshold``, in table order.
    """

    threshold: float
    train_quats: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "train_quats", as_unit_quats(self.train_quats))


def _direction_evaluator(target: SynthObject, z_unit: np.ndarray):
    """Best similarity over in-plane angle for a viewing direction (theta, phi).

    The embedding at a fixed direction is ``M(roll) @ s`` for the direction's
    weighted descriptor sum ``s = w @ descriptors``, so the similarity
    maximized over roll is ``hypot(C, S) / |s|`` with ``C, S =
    roll_components(z_unit, s)``; the argmax roll is ``atan2(S, C)``.  The
    kernel is linear in ``s``, so each point takes ``s``, ``C`` and ``S`` from
    one product of ``w`` with ``[descriptors | C_i | S_i]``, the per-blob
    components taken once here.  Returns ``(sim, roll)``.
    """
    positions = target.positions
    d = target.descriptor_dim
    basis = np.column_stack([target.descriptors, *roll_components(z_unit, target.descriptors)])

    def sim(theta: float, phi: float):
        w = positions @ so3.unit_vector(theta, phi)
        np.maximum(w, 0.0, out=w)
        w *= w
        t = w @ basis
        s = t[:d]
        n = math.sqrt(float(s.dot(s)))
        if n == 0.0:
            return -1.0, 0.0
        c, sn = t[d], t[d + 1]
        return math.hypot(c, sn) / n, math.atan2(sn, c)

    return sim


def most_similar_view(
    z: np.ndarray,
    target: SynthObject,
    target_cb: Codebook,
    descent_steps: int = DEFAULT_DESCENT_STEPS,
    *,
    initial_step: float,
):
    """Most similar view of ``target`` to the embedding ``z``.

    Seeds from the best codebook entry, then runs ``descent_steps`` sweeps of
    cyclic coordinate descent over the viewing-direction angles, the step
    starting at ``initial_step`` radians and halving each sweep; the in-plane
    angle is solved in closed form at every evaluation.  Each sweep walks
    along an improving coordinate and finishes with a parabolic refinement,
    so only strict improvements are accepted and the similarity is
    non-decreasing in ``descent_steps``.  Each distinct ``(theta, phi)`` point
    is evaluated once per call: a point the walk or the refinement revisits
    reuses its stored ``(sim, roll)``.
    ``descent_steps = 0`` returns the codebook seed unchanged.
    Returns ``(rotation, similarity)``.
    """
    if descent_steps < 0:
        raise ValueError("descent_steps must be >= 0")
    z = np.asarray(z, dtype=float)
    i, seed_score = target_cb.best(z)  # refuses a zero-norm z
    seed_rotation = target_cb.grid.entry(i)
    if descent_steps == 0:
        return seed_rotation, float(np.clip(seed_score, -1.0, 1.0))

    sim = _direction_evaluator(target, unit(z))
    seen = {}  # (theta, phi) -> (sim, roll) of every point evaluated so far

    def probe(x, ci, delta):
        """``x`` moved by ``delta`` along coordinate ``ci``, and its (sim, roll)."""
        p = (x[0] + delta, x[1]) if ci == 0 else (x[0], x[1] + delta)
        val = seen.get(p)
        if val is None:
            val = seen[p] = sim(*p)
        return p, val

    v0 = seed_rotation.view_direction()
    x = (math.acos(max(-1.0, min(1.0, v0[2]))), math.atan2(v0[1], v0[0]))
    best, roll = seen[x] = sim(*x)
    # Unclipped: a seed clipped to 1.0 would lose to a point at 1 + eps.
    best = max(best, seed_score)

    step = float(initial_step)
    for _ in range(descent_steps):
        for ci in range(2):
            xp, (fp, rp) = probe(x, ci, step)
            xm, (fm, rm) = probe(x, ci, -step)
            if fp > best or fm > best:
                if fp >= fm:
                    sign, x, best, roll = 1.0, xp, fp, rp
                else:
                    sign, x, best, roll = -1.0, xm, fm, rm
                for _ in range(_MAX_INNER_STEPS):
                    nxt, (fn, rn) = probe(x, ci, sign * step)
                    if fn > best:
                        x, best, roll = nxt, fn, rn
                    else:
                        break
            # Parabolic refinement through (x - step, x, x + step).
            _, (fp, _) = probe(x, ci, step)
            _, (fm, _) = probe(x, ci, -step)
            denom = fp - 2.0 * best + fm
            if denom < 0.0:
                delta = 0.5 * step * (fm - fp) / denom
                if abs(delta) < 4.0 * step:
                    cand, (fc, rc) = probe(x, ci, delta)
                    if fc > best:
                        x, best, roll = cand, fc, rc
        step *= 0.5

    r_best = so3.look_at(so3.unit_vector(*x), roll)
    return r_best, min(1.0, max(-1.0, best))


def normalize_ambiguity(raw) -> np.ndarray:
    """Affine map of raw values onto [0, 1]; an all-equal input maps to zeros.

    "All equal" is judged at 1e-12 so that exact-match similarities that
    differ only by float rounding still count as degenerate.
    """
    v = np.asarray(raw, dtype=float)
    if v.size < 1:
        raise ValueError("need at least one value")
    lo = float(np.min(v))
    hi = float(np.max(v))
    if hi - lo <= 1e-12:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


def rank_object(
    obj: SynthObject,
    others,
    codebooks,
    coarse_grid: ViewGrid,
    descent_steps: int = DEFAULT_DESCENT_STEPS,
    threads: int = 1,
) -> AmbiguityTable:
    """Ambiguity table of ``obj`` against the other objects of its group.

    ``others`` and ``codebooks`` are parallel lists, and ``coarse_grid`` has
    one in-plane roll.  For every coarse-grid orientation the raw value is
    the max over other objects of ``most_similar_view``; the table is sorted
    by similarity descending and carries the normalized ambiguity.  Views are
    ranked one after another; ``threads`` is accepted for compatibility and
    changes neither speed nor output.
    """
    if len(others) < 1:
        raise ValueError("need at least one other object in the group")
    if len(others) != len(codebooks):
        raise ValueError("others and codebooks must be parallel lists")
    if len(coarse_grid) == 0:
        raise ValueError("coarse grid is empty")
    if coarse_grid.n_inplane != 1:
        raise ValueError("coarse grid must have one in-plane roll")

    z_all = render_embeddings(obj, coarse_grid.base)
    step0 = 2.0 * coarse_grid.direction_spacing()

    def rank_one(idx: int):
        z = z_all[idx]
        best = None
        for other, cb in zip(others, codebooks):
            r_b, s = most_similar_view(z, other, cb, descent_steps, initial_step=step0)
            if best is None or s > best[0]:
                best = (s, r_b, other.class_id)
        s, r_b, cls = best
        return MatchedPair(s, Rotation(coarse_grid.base[idx]), r_b, cls)

    matched = [rank_one(i) for i in range(len(coarse_grid))]

    raw = np.array([p.similarity for p in matched])
    order = np.argsort(-raw, kind="stable")
    pairs = tuple(matched[i] for i in order)
    amb = normalize_ambiguity(raw[order])
    return AmbiguityTable(
        object_class=obj.class_id,
        pairs=pairs,
        ambiguity=amb,
        grid_meta={
            "coarse_dirs": len(coarse_grid.base),
            "coarse_inplane": coarse_grid.n_inplane,
            "descent_steps": int(descent_steps),
        },
    )


def split_by_threshold(table: AmbiguityTable, a: float) -> ThresholdSplit:
    """Orientations with ambiguity < a go to train."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {a}")
    return ThresholdSplit(float(a), table.r_a_quats[table.ambiguity < a])


def export_sorted_pairs(table: AmbiguityTable, path) -> None:
    """CSV of the sorted matched pairs (one row per ranked orientation)."""
    try:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for rank, (p, amb) in enumerate(zip(table.pairs, table.ambiguity)):
                writer.writerow(
                    [rank, f"{p.similarity:.17g}", f"{amb:.17g}"]
                    + [f"{c:.17g}" for c in p.r_a.q]
                    + [f"{c:.17g}" for c in p.r_b.q]
                    + [p.matched_class]
                )
    except OSError as e:
        raise OSError(f"failed to write sorted pairs to {path}: {e}") from e
