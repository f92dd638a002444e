"""Nearest-centroid classification on ambiguity-filtered views.

The in-group classifier is one unit-normalized centroid per class, trained on
noisy embeddings rendered at the non-ambiguous orientations of a threshold
split.  ``threshold_sweep`` varies the training threshold and the evaluation
ambiguity cap and reports accuracy per (threshold, cap) cell.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import seeding
from .ambiguity import split_by_threshold
from .codebook import roll_components, unit
from .synthworld import SynthObject, render_embeddings


class EmptyTrainSetError(ValueError):
    """No trainable orientation survived the ambiguity threshold."""

    def __init__(self, class_id: str, threshold: float):
        super().__init__(
            f"class {class_id!r} has an empty train set at ambiguity threshold {threshold}"
        )
        self.class_id = class_id
        self.threshold = threshold


@dataclass(frozen=True)
class CentroidClassifier:
    classes: tuple
    centroids: np.ndarray  # (C, d), unit rows
    threshold: float
    noise_sigma: float

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "centroids", c)


@dataclass(frozen=True)
class SweepRow:
    train_threshold: float
    eval_ambiguity_cap: float
    accuracy: float  # nan when training or evaluation was impossible
    n_samples: int
    status: str  # "ok", "empty_train" or "empty_eval"


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["train_threshold", "eval_ambiguity_cap", "accuracy", "n_samples", "status"])
            for r in self.rows:
                acc = "" if math.isnan(r.accuracy) else f"{r.accuracy:.17g}"
                w.writerow(
                    [f"{r.train_threshold:.17g}", f"{r.eval_ambiguity_cap:.17g}", acc,
                     r.n_samples, r.status]
                )


def _noisy_renders(obj: SynthObject, quats: np.ndarray, noise_sigma: float,
                   gen: np.random.Generator, samples_per_rotation: int = 1) -> np.ndarray:
    """Embeddings of each ``(N, 4)`` row repeated ``samples_per_rotation``
    times in a row, plus Gaussian noise drawn from ``gen``."""
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be >= 0")
    z = render_embeddings(obj, np.repeat(quats, samples_per_rotation, axis=0))
    if noise_sigma > 0.0:
        z = z + gen.normal(0.0, noise_sigma, size=z.shape)
    return z


def train(
    objects,
    splits,
    samples_per_rotation: int = 1,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> CentroidClassifier:
    """One normalized mean embedding per class over its train rotations.

    ``objects`` and ``splits`` are parallel lists; any empty train set raises
    ``EmptyTrainSetError`` naming the class and threshold.
    """
    if samples_per_rotation < 1:
        raise ValueError("samples_per_rotation must be >= 1")
    if len(objects) != len(splits):
        raise ValueError("objects and splits must be parallel lists")
    classes = []
    centroids = []
    threshold = splits[0].threshold if splits else 0.0
    for ci, (obj, split) in enumerate(zip(objects, splits)):
        if len(split.train_quats) == 0:
            raise EmptyTrainSetError(obj.class_id, split.threshold)
        gen = seeding.rng(seed, "train", ci)
        z = _noisy_renders(obj, split.train_quats, noise_sigma, gen, samples_per_rotation)
        classes.append(obj.class_id)
        centroids.append(unit(z.mean(axis=0)))
    return CentroidClassifier(tuple(classes), np.array(centroids), float(threshold), float(noise_sigma))


def predict(clf: CentroidClassifier, z: np.ndarray):
    """Class of the nearest centroid by roll-aligned cosine similarity.

    Embeddings are equivariant under in-plane roll, so each centroid is
    compared at its best roll alignment (closed form over consecutive
    component pairs).  Margin is best minus second-best similarity
    (infinite for a single class).
    """
    s = np.hypot(*roll_components(unit(z), clf.centroids))
    order = np.argsort(-s, kind="stable")
    best = int(order[0])
    margin = float(s[best] - s[int(order[1])]) if len(s) > 1 else math.inf
    return clf.classes[best], margin


def evaluate_on_rotations(
    clf: CentroidClassifier,
    objects,
    quats_per_class,
    n_samples: int,
    noise_sigma: float,
    gen: np.random.Generator,
) -> float:
    """Accuracy over noisy views sampled (with replacement) per class.

    ``quats_per_class`` holds one ``(N, 4)`` orientation array per object; a
    class with no rows is skipped.
    """
    correct = 0
    total = 0
    for obj, quats in zip(objects, quats_per_class):
        if len(quats) == 0:
            continue
        idx = gen.integers(0, len(quats), size=n_samples)
        z = _noisy_renders(obj, quats[idx], noise_sigma, gen)
        s = np.hypot(*roll_components(unit(z), clf.centroids))
        pred = np.argmax(s, axis=1)
        true_ci = clf.classes.index(obj.class_id)
        correct += int(np.sum(pred == true_ci))
        total += n_samples
    if total == 0:
        raise ValueError("no evaluation rotations available")
    return correct / total


def threshold_sweep(
    objects,
    tables,
    thresholds,
    caps,
    trials: int = 10,
    eval_samples: int = 200,
    samples_per_rotation: int = 1,
    noise_sigma: float = 0.0,
    seed: int = 0,
    train_rotations_per_class: int = 8,
) -> SweepResult:
    """Accuracy per (train threshold, eval ambiguity cap), averaged over trials.

    Each trial draws ``train_rotations_per_class`` orientations (with
    replacement) from every class's train split, so trials model independent
    finite training sets.
    Thresholds and caps may include the degenerate 0.0; cells whose training
    set is empty are emitted with status ``empty_train``, and cells where no
    class has an orientation below the cap with status ``empty_eval``, both
    with NaN accuracy instead of failing the whole sweep.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if train_rotations_per_class < 1:
        raise ValueError("train_rotations_per_class must be >= 1")
    for t in list(thresholds) + list(caps):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"thresholds and caps must be in [0, 1], got {t}")
    tables = list(tables)
    objects = list(objects)
    eval_sets = [[tab.r_a_quats[tab.ambiguity < cap] for tab in tables] for cap in caps]
    rows = []
    for ti, threshold in enumerate(thresholds):
        splits = [split_by_threshold(tab, threshold) for tab in tables]
        if any(len(s.train_quats) == 0 for s in splits):
            for cap in caps:
                rows.append(SweepRow(float(threshold), float(cap), math.nan, 0, "empty_train"))
            continue
        classifiers = []
        for trial in range(trials):
            sample_gen = seeding.rng(seed, "sweep-sample", ti, trial)
            trial_splits = []
            for s in splits:
                idx = sample_gen.integers(0, len(s.train_quats), size=train_rotations_per_class)
                trial_splits.append(replace(s, train_quats=s.train_quats[idx]))
            train_seed = int(seeding.seed_sequence(seed, "sweep-train", ti, trial).generate_state(1)[0])
            classifiers.append(
                train(objects, trial_splits, samples_per_rotation, noise_sigma, seed=train_seed)
            )
        for cap_i, (cap, eval_quats) in enumerate(zip(caps, eval_sets)):
            if all(len(q) == 0 for q in eval_quats):
                rows.append(SweepRow(float(threshold), float(cap), math.nan, 0, "empty_eval"))
                continue
            accs = []
            for trial, clf in enumerate(classifiers):
                gen = seeding.rng(seed, "sweep-eval", ti, cap_i, trial)
                accs.append(
                    evaluate_on_rotations(clf, objects, eval_quats, eval_samples, noise_sigma, gen)
                )
            rows.append(
                SweepRow(float(threshold), float(cap), float(np.mean(accs)),
                         eval_samples * len(objects) * trials, "ok")
            )
    return SweepResult(tuple(rows))


def default_noise_sigma(obj: SynthObject, factor: float = 0.1) -> float:
    """Per-component noise std such that the noise vector norm is about
    ``factor`` times the mean embedding norm (default 10% of signal)."""
    from .synthworld import mean_embedding_norm

    return factor * mean_embedding_norm(obj) / math.sqrt(obj.descriptor_dim)
