"""Next-best-view selection and the closed-loop active-classification loop.

The camera observes a noisy embedding, forms one pose hypothesis per in-group
class, and averages the ambiguity-table lookups of those hypotheses.  If the
mean is below the termination threshold the classifier fires; otherwise the
camera moves to the reachable orientation minimizing the expected mean
ambiguity, or stops when staying put is already optimal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import seeding, so3
from .classify import CentroidClassifier, predict
from .codebook import hypotheses_for_group
from .so3 import Rotation
from .synthworld import render_embedding

TERMINATED_BELOW_THRESHOLD = "below_threshold"
TERMINATED_LOCAL_OPTIMUM = "local_optimum"
TERMINATED_MOVE_BUDGET = "move_budget"


@dataclass(frozen=True)
class TrajectoryGrid:
    """Parallel circles on the view sphere: elevations x uniform azimuth steps."""

    circles: tuple  # elevation theta per circle, each in (0, pi)
    steps: int      # azimuth samples per circle

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if len(self.circles) < 1:
            raise ValueError("need at least one circle")
        for theta in self.circles:
            if not 0.0 < theta < math.pi:
                raise ValueError(f"circle elevation must be in (0, pi), got {theta}")

    @classmethod
    def evenly_spaced(cls, n_circles: int, steps: int) -> "TrajectoryGrid":
        thetas = tuple((i + 1) * math.pi / (n_circles + 1) for i in range(n_circles))
        return cls(thetas, steps)


@dataclass(frozen=True)
class ReachableSet:
    """Camera orientations the platform may assume next, as an ``(N, 4)``
    quaternion array."""

    quats: np.ndarray

    def __post_init__(self):
        quats = so3.as_unit_quats(self.quats)
        if len(quats) == 0:
            raise ValueError("reachable set must be nonempty")
        object.__setattr__(self, "quats", quats)

    def __len__(self) -> int:
        return len(self.quats)

    def rotation(self, i: int) -> Rotation:
        return Rotation.wrap(self.quats[i])


def build_trajectory_reachable(grid: TrajectoryGrid) -> ReachableSet:
    """Look-at rotations (roll 0) for every circle/azimuth sample."""
    dirs = [so3.unit_vector(theta, 2.0 * math.pi * j / grid.steps)
            for theta in grid.circles for j in range(grid.steps)]
    return ReachableSet(so3.look_at_quats(dirs))


def build_sphere_reachable(n_dirs: int) -> ReachableSet:
    """Full-sphere reachable set from a Fibonacci direction grid (roll 0)."""
    return ReachableSet(so3.build_view_grid(n_dirs, 1).quats)


def next_best_view(hypotheses, tables, reachable: ReachableSet) -> Rotation:
    """Reachable orientation ``r`` minimizing the mean table ambiguity of the
    hypotheses seen from it (lookup key ``r^-1 @ r_hyp``); ties by lowest index."""
    return reachable.rotation(_next_best_index(hypotheses, tables, reachable))


def _next_best_index(hypotheses, tables, reachable: ReachableSet) -> int:
    if not hypotheses:
        raise ValueError("need at least one hypothesis")
    inv_q = so3.quat_conj(reachable.quats)
    mean_amb = np.zeros(len(reachable))
    for h in hypotheses:
        rel = so3.quat_mul(inv_q, h.rotation.q)
        mean_amb += tables[h.class_id].lookup_batch(rel)
    mean_amb /= len(hypotheses)
    return int(np.argmin(mean_amb))


@dataclass(frozen=True)
class EpisodeResult:
    """Trace of one active-classification episode."""

    start: Rotation
    visited: tuple            # camera orientations, start first
    ambiguities: tuple        # mean estimated ambiguity per visited view
    predictions: tuple        # classifier output per visited view
    moves_used: int
    terminated_reason: str
    predicted_class: str
    true_class: str
    correct: bool

    def to_json(self) -> dict:
        return {
            "start": self.start.to_json(),
            "visited": [r.to_json() for r in self.visited],
            "ambiguities": [float(a) for a in self.ambiguities],
            "predictions": list(self.predictions),
            "moves_used": self.moves_used,
            "terminated_reason": self.terminated_reason,
            "predicted_class": self.predicted_class,
            "true_class": self.true_class,
            "correct": self.correct,
        }

    @classmethod
    def from_json(cls, data: dict) -> "EpisodeResult":
        """Inverse of ``to_json``; rotations load bit for bit, and a row that
        is not a unit, canonical quaternion is refused."""
        rows = [data["start"], *data["visited"]]
        quats = so3.as_unit_quats(np.array(rows, dtype=float).reshape(len(rows), 4))
        return cls(
            start=Rotation.wrap(quats[0]),
            visited=tuple(Rotation.wrap(q) for q in quats[1:]),
            ambiguities=tuple(data["ambiguities"]),
            predictions=tuple(data["predictions"]),
            moves_used=data["moves_used"],
            terminated_reason=data["terminated_reason"],
            predicted_class=data["predicted_class"],
            true_class=data["true_class"],
            correct=data["correct"],
        )


def run_episode(
    objects,
    codebooks,
    tables,
    classifier: CentroidClassifier,
    true_class: str,
    true_pose: Rotation,
    reachable: ReachableSet,
    ambiguity_threshold: float,
    max_moves: int,
    noise_sigma: float,
    seed: int,
    start: int | None = None,
    policy: str = "next_best",
) -> EpisodeResult:
    """One closed-loop episode; see the module docstring for the loop.

    ``start`` indexes ``reachable``; by default it is drawn from the stream
    ``(seed, "start")``.  Observation noise at step ``t`` is drawn from the
    stream derived from ``(seed, "obs", t)`` regardless of the policy, so
    random and next-best runs with the same seed are paired.
    """
    if max_moves < 0:
        raise ValueError("max_moves must be >= 0")
    if not 0.0 < ambiguity_threshold <= 1.0:
        raise ValueError("ambiguity_threshold must be in (0, 1]")
    if policy not in ("next_best", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    if start is None:
        start = int(seeding.rng(seed, "start").integers(0, len(reachable)))
    if not 0 <= start < len(reachable):
        raise ValueError(f"start must index the reachable set, got {start}")

    by_class = {obj.class_id: obj for obj in objects}
    true_obj = by_class[true_class]

    current_idx = start
    visited = []
    ambiguities = []
    predictions = []
    moves = 0
    while True:
        camera = reachable.rotation(current_idx)
        visited.append(camera)
        rel_true = camera.inverse() @ true_pose
        z = render_embedding(
            true_obj, rel_true, noise_sigma, seeding.rng(seed, "obs", len(visited) - 1)
        )
        hyps = hypotheses_for_group(codebooks, z)
        amb = float(np.mean([tables[h.class_id].lookup(h.rotation) for h in hyps]))
        ambiguities.append(amb)
        predictions.append(predict(classifier, z)[0])

        if amb < ambiguity_threshold:
            reason = TERMINATED_BELOW_THRESHOLD
            break

        nbv_idx = current_idx
        if policy == "next_best":
            world_hyps = [replace(h, rotation=camera @ h.rotation) for h in hyps]
            nbv_idx = _next_best_index(world_hyps, tables, reachable)
        elif len(reachable) > 1:
            # A uniform pick among the other members, without listing them.
            gen = seeding.rng(seed, "policy", len(visited) - 1)
            j = int(gen.integers(0, len(reachable) - 1))
            nbv_idx = j + (j >= current_idx)
        if nbv_idx == current_idx:
            reason = TERMINATED_LOCAL_OPTIMUM
            break

        if moves >= max_moves:
            reason = TERMINATED_MOVE_BUDGET
            break
        current_idx = nbv_idx
        moves += 1

    predicted = predictions[-1]
    return EpisodeResult(
        start=visited[0],
        visited=tuple(visited),
        ambiguities=tuple(ambiguities),
        predictions=tuple(predictions),
        moves_used=moves,
        terminated_reason=reason,
        predicted_class=predicted,
        true_class=true_class,
        correct=predicted == true_class,
    )


@dataclass(frozen=True)
class ExperimentResult:
    policy: str
    episodes: tuple
    success_by_budget: dict  # budget k -> fraction correct within k moves

    @property
    def accuracy(self) -> float:
        return float(np.mean([e.correct for e in self.episodes]))

    def save_episodes(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            for e in self.episodes:
                f.write(json.dumps(e.to_json()))
                f.write("\n")


def success_within_budget(episode: EpisodeResult, k: int) -> bool:
    """Correct classification had the move budget been capped at ``k``.

    The policy does not depend on the remaining budget, so the trace of a
    larger-budget episode is a prefix-faithful record: with budget ``k`` the
    episode would classify at step ``min(natural stop, k)``.
    """
    step = min(episode.moves_used, k)
    return episode.predictions[step] == episode.true_class


def run_experiment(
    n_episodes: int,
    policy: str,
    objects,
    codebooks,
    tables,
    classifier: CentroidClassifier,
    reachable: ReachableSet,
    ambiguity_threshold: float,
    max_moves: int,
    noise_sigma: float,
    seed: int,
) -> ExperimentResult:
    """Seeded episode batch; per-episode RNG derives from (seed, episode index).

    True class, true pose and start view are drawn from policy-independent
    streams so experiments with different policies are paired sample-by-sample.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    objects = list(objects)
    episodes = []
    for i in range(n_episodes):
        ep_seed = int(seeding.seed_sequence(seed, "episode", i).generate_state(1)[0])
        setup = seeding.rng(ep_seed, "setup")
        true_class = objects[int(setup.integers(0, len(objects)))].class_id
        true_pose = so3.random_rotation(setup)
        episodes.append(
            run_episode(
                objects, codebooks, tables, classifier, true_class, true_pose,
                reachable, ambiguity_threshold, max_moves, noise_sigma, ep_seed,
                policy=policy,
            )
        )
    success = {
        k: float(np.mean([success_within_budget(e, k) for e in episodes]))
        for k in range(max_moves + 1)
    }
    return ExperimentResult(policy, tuple(episodes), success)
