"""Alternative similarity metrics and the rank-correlation harness.

The harness evaluates each metric on the matched view pairs of an ambiguity
table, in primary-similarity order, and reports Spearman/Pearson correlation
against the primary metric.  Whether the baselines correlate is reported, not
asserted: with the synthetic embedding world there is no reason to expect the
real-image behaviour of pixel or keypoint metrics.

Tie convention: a constant series has correlation 0 (scipy returns NaN there).
Plot scaling: each metric is min-max mapped onto [0, 1] over its pair range
by ``normalize_ambiguity``; a metric whose range is at most 1e-12 scales to
all zeros.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import seeding
from .ambiguity import AmbiguityTable, normalize_ambiguity
from .codebook import unit
from .so3 import Rotation
from .synthworld import SynthObject, render_embeddings

DEFAULT_MATCH_TOLERANCE = 1e-6


def mse_similarity(view_a: np.ndarray, view_b: np.ndarray):
    """Negated mean squared error between raw embeddings (larger = more similar).

    ``(d,)`` inputs give a float, ``(N, d)`` inputs one value per row.
    """
    a = np.asarray(view_a, dtype=float)
    b = np.asarray(view_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return -np.mean((a - b) ** 2, axis=-1)


def blob_match_similarity(
    obj_a: SynthObject,
    r_a: Rotation,
    obj_b: SynthObject,
    r_b: Rotation,
    tolerance: float = DEFAULT_MATCH_TOLERANCE,
) -> float:
    """Fraction of visible blobs whose descriptors match within tolerance.

    Matches count blobs visible in both views with near-equal descriptors;
    the denominator is blobs visible in either view.
    """
    if obj_a.descriptor_dim != obj_b.descriptor_dim:
        raise ValueError("objects must share descriptor dimension")
    if obj_a.n_blobs != obj_b.n_blobs:
        raise ValueError("blob-match similarity requires paired blob clouds")
    vis_a = (obj_a.positions @ r_a.view_direction()) > 0.0
    vis_b = (obj_b.positions @ r_b.view_direction()) > 0.0
    union = vis_a | vis_b
    if not np.any(union):
        return 1.0
    close = np.linalg.norm(obj_a.descriptors - obj_b.descriptors, axis=1) < tolerance
    matched = vis_a & vis_b & close
    return float(np.sum(matched)) / float(np.sum(union))


def _correlation(values: np.ndarray, baseline: np.ndarray):
    if np.ptp(values) == 0.0 or np.ptp(baseline) == 0.0:
        return 0.0, 0.0
    sp = float(stats.spearmanr(values, baseline).statistic)
    pe = float(stats.pearsonr(values, baseline).statistic)
    return sp, pe


@dataclass(frozen=True)
class MetricReport:
    metric_names: tuple
    values: dict       # name -> per-pair values in primary-sorted order
    spearman: dict     # name -> correlation vs the primary similarity
    pearson: dict

    def __len__(self) -> int:
        return len(next(iter(self.values.values())))

    def scaled_values(self, name: str) -> np.ndarray:
        return normalize_ambiguity(self.values[name])

    def save_metric_csv(self, name: str, path) -> None:
        sv = self.scaled_values(name)
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["pair_index", "scaled_value"])
            for i, v in enumerate(sv):
                w.writerow([i, f"{v:.17g}"])

    def save_correlations_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["metric", "spearman", "pearson"])
            for name in self.metric_names:
                w.writerow([name, f"{self.spearman[name]:.17g}", f"{self.pearson[name]:.17g}"])


METRIC_NAMES = ("primary", "mse", "blob_match")


def _pair_renders(table: AmbiguityTable, obj: SynthObject, others_by_class: dict):
    """Noise-free ``(N, d)`` embeddings of both views of every pair: ``obj``
    at the ``r_a`` rows and each matched object at its ``r_b`` rows, one
    block render per object."""
    za = render_embeddings(obj, table.r_a_quats)
    zb = np.empty_like(za)
    for cls in np.unique(table.matched_class):
        rows = table.matched_class == cls
        zb[rows] = render_embeddings(others_by_class[cls], table.r_b_quats[rows])
    return za, zb


def metric_comparison(
    table: AmbiguityTable,
    obj: SynthObject,
    others_by_class: dict,
    metrics=METRIC_NAMES,
) -> MetricReport:
    """Evaluate each metric on every matched pair, in primary-rank order."""
    if len(table) == 0:
        raise ValueError("table is empty")
    unknown = set(metrics) - set(METRIC_NAMES)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    primary = table.raw_similarity
    values = {}
    for name in metrics:
        if name == "primary":
            values[name] = primary.copy()
        elif name == "mse":
            values[name] = mse_similarity(*_pair_renders(table, obj, others_by_class))
        else:
            rows = zip(table.r_a_quats, table.r_b_quats, table.matched_class)
            values[name] = np.array([
                blob_match_similarity(obj, Rotation.wrap(qa), others_by_class[c], Rotation.wrap(qb))
                for qa, qb, c in rows
            ])
    spearman = {}
    pearson = {}
    for name in metrics:
        if name == "primary":
            # Self-correlation is 1 by definition (unless degenerate).
            sp = 0.0 if np.ptp(primary) == 0.0 else 1.0
            spearman[name], pearson[name] = sp, sp
        else:
            spearman[name], pearson[name] = _correlation(values[name], primary)
    return MetricReport(tuple(metrics), values, spearman, pearson)


def noise_robustness_sweep(
    table: AmbiguityTable,
    obj: SynthObject,
    others_by_class: dict,
    sigmas,
    seed: int = 0,
) -> list:
    """Spearman correlation of noisy pair similarities against the clean ranking.

    Returns ``[(sigma, correlation)]``; sigma 0 reproduces the ranking exactly.
    Both views of every pair are rendered once, in one block per object; pair
    ``i`` then gets the noise of its own streams ``noise-a`` and ``noise-b``.
    """
    sigmas = list(sigmas)
    if len(sigmas) == 0:
        raise ValueError("need at least one sigma")
    if any(sigma < 0.0 for sigma in sigmas):
        raise ValueError("sigma must be >= 0")
    baseline = table.raw_similarity
    za, zb = _pair_renders(table, obj, others_by_class)

    def noisy(z, stream, si, sigma):
        d = z.shape[1]
        return z + np.array([seeding.rng(seed, stream, si, i).normal(0.0, sigma, size=d)
                             for i in range(len(z))])

    results = []
    for si, sigma in enumerate(sigmas):
        if sigma == 0.0:
            corr = 1.0 if np.ptp(baseline) > 0.0 else 0.0
        else:
            va, vb = noisy(za, "noise-a", si, sigma), noisy(zb, "noise-b", si, sigma)
            vals = np.vecdot(unit(va), unit(vb))
            corr, _ = _correlation(vals, baseline)
        results.append((float(sigma), float(corr)))
    return results
