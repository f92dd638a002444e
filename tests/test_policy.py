"""Reachable sets, next-best-view selection, and closed-loop episodes."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viewrank import ambiguity, classify, policy, so3, synthworld
from viewrank.policy import (
    EpisodeResult,
    ReachableSet,
    TrajectoryGrid,
    build_sphere_reachable,
    build_trajectory_reachable,
    next_best_view,
    run_episode,
    run_experiment,
    success_within_budget,
)


def compose(a, b):
    """``a`` after ``b``, as a normalized Hamilton product."""
    return so3.Rotation(so3.normalize(so3.quat_mul(a.q, b.q)))


def relative(camera, pose):
    """``camera^-1`` after ``pose``; the inverse is normalized before it is
    composed, as ``run_episode`` does."""
    return compose(so3.Rotation(so3.normalize(so3.quat_conj(camera.q))), pose)


def expected_ambiguity(r_next, class_ids, quats, tables) -> float:
    """Scalar oracle for next_best_view: mean table ambiguity seen from ``r_next``.

    Each hypothesis row is the (world-frame) object orientation for its
    class; the lookup key is the relative orientation ``r_next^T @ r_hyp``.
    """
    return sum(tables[c].lookup(relative(r_next, so3.Rotation(q)).q)
               for c, q in zip(class_ids, quats)) / len(class_ids)


def hypothesis_rows(*rotations):
    """``(K, 4)`` world rows of hypothesis rotations."""
    return np.array([r.q for r in rotations])


@pytest.fixture(scope="module")
def clf(pair, tables):
    splits = [
        ambiguity.split_by_threshold(tables["A"], 0.5),
        ambiguity.split_by_threshold(tables["B"], 0.5),
    ]
    return classify.train(list(pair), splits, noise_sigma=0.0, seed=0)


@pytest.fixture(scope="module")
def reachable():
    return build_trajectory_reachable(TrajectoryGrid.evenly_spaced(4, 16))


def assert_episode_json(data, ep):
    """A written episode, parsed back, holds ``ep``'s fields bit for bit."""
    assert np.array_equal(data["start"], ep.start.q)
    assert np.array_equal(data["visited"], [r.q for r in ep.visited])
    assert np.array_equal(data["ambiguities"], ep.ambiguities)
    assert data["predictions"] == list(ep.predictions)
    assert (data["moves_used"], data["terminated_reason"]) == (ep.moves_used, ep.terminated_reason)
    assert (data["predicted_class"], data["true_class"], data["correct"]) == (
        ep.predicted_class, ep.true_class, ep.correct)


class TestTrajectoryGrid:
    def test_counts(self):
        assert len(build_trajectory_reachable(TrajectoryGrid.evenly_spaced(1, 1))) == 1
        assert len(build_trajectory_reachable(TrajectoryGrid.evenly_spaced(5, 32))) == 160
        assert len(build_trajectory_reachable(TrajectoryGrid.evenly_spaced(3, 128))) == 384

    def test_evenly_spaced_elevations(self):
        grid = TrajectoryGrid.evenly_spaced(3, 8)
        assert np.allclose(grid.circles, [math.pi / 4, math.pi / 2, 3 * math.pi / 4])

    def test_rotations_lie_on_circles(self):
        grid = TrajectoryGrid.evenly_spaced(2, 10)
        rs = build_trajectory_reachable(grid)
        for i in range(len(rs)):
            r = so3.Rotation(rs.quats[i])
            theta = grid.circles[i // grid.steps]
            assert r.view_direction()[2] == pytest.approx(math.cos(theta), abs=1e-12)
            # Trajectory views carry zero in-plane roll.
            assert math.cos(so3.roll_angles(r.q)) == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectoryGrid((), 4)
        with pytest.raises(ValueError):
            TrajectoryGrid((0.5,), 0)
        with pytest.raises(ValueError):
            TrajectoryGrid((0.0,), 4)
        with pytest.raises(ValueError):
            TrajectoryGrid((math.pi,), 4)


class TestReachableSet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReachableSet(np.empty((0, 4)))

    def test_non_canonical_row_rejected(self):
        with pytest.raises(ValueError, match="canonical"):
            ReachableSet(np.array([[-1.0, 0.0, 0.0, 0.0]]))
        assert np.array_equal(ReachableSet(np.array([[1.0, 0.0, 0.0, 0.0]])).quats, [[1, 0, 0, 0]])

    def test_rotations_are_rows(self, reachable):
        for i in range(len(reachable)):
            assert np.array_equal(so3.Rotation(reachable.quats[i]).q, reachable.quats[i])

    def test_sphere_reachable(self):
        rs = build_sphere_reachable(50)
        assert len(rs) == 50


class TestExpectedAmbiguity:
    def test_matches_manual_mean(self, tables, reachable):
        rng = np.random.default_rng(2)
        ra, rb = so3.random_rotation(rng), so3.random_rotation(rng)
        r = so3.Rotation(reachable.quats[3])
        manual = 0.5 * (
            tables["A"].lookup(relative(r, ra).q)
            + tables["B"].lookup(relative(r, rb).q)
        )
        got = expected_ambiguity(r, ("A", "B"), hypothesis_rows(ra, rb), tables)
        assert got == pytest.approx(manual, abs=1e-15)

    def test_requires_hypotheses(self, tables, reachable):
        with pytest.raises(ValueError):
            next_best_view((), np.empty((0, 4)), tables, reachable)


class TestNextBestView:
    def test_singleton_reachable(self, tables):
        only = so3.look_at([0.0, 1.0, 0.0])
        rs = ReachableSet(only.q[None, :])
        identity = hypothesis_rows(so3.Rotation([1.0, 0.0, 0.0, 0.0]))
        assert so3.Rotation(rs.quats[next_best_view(("A",), identity, tables, rs)]) == only

    def test_matches_exhaustive_argmin(self, tables, reachable):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ids = ("A", "B")
            quats = hypothesis_rows(so3.random_rotation(rng), so3.random_rotation(rng))
            best = next_best_view(ids, quats, tables, reachable)
            vals = [expected_ambiguity(so3.Rotation(reachable.quats[i]), ids, quats, tables)
                    for i in range(len(reachable))]
            i = int(np.argmin(vals))
            assert best == i
            assert expected_ambiguity(so3.Rotation(reachable.quats[best]), ids, quats,
                                      tables) == pytest.approx(min(vals), abs=1e-12)

    def test_membership(self, tables, reachable):
        best = next_best_view(("A",), hypothesis_rows(so3.look_at([1.0, 0.0, 0.0])), tables,
                              reachable)
        assert best in range(len(reachable))

    def test_chosen_views_show_patch(self, pair, tables):
        # With a correct pose hypothesis, the chosen view should expose the
        # differing patch for nearly every true pose.
        rs = build_sphere_reachable(128)
        rng = np.random.default_rng(8)
        a, _ = pair
        hits = 0
        for _ in range(100):
            pose = so3.random_rotation(rng)
            nbv = next_best_view(("A", "B"), hypothesis_rows(pose, pose), tables, rs)
            if synthworld.patch_visible(pair, relative(so3.Rotation(rs.quats[nbv]), pose)):
                hits += 1
        assert hits >= 95


class TestRunEpisode:
    def _run(self, pair, codebooks, tables, clf, reachable, **kw):
        a, _ = pair
        args = dict(
            objects=list(pair),
            codebooks=codebooks,
            tables=tables,
            classifier=clf,
            true_class="A",
            true_pose=so3.random_rotation(np.random.default_rng(1)),
            reachable=reachable,
            ambiguity_threshold=0.4,
            max_moves=3,
            noise_sigma=0.0,
            seed=0,
        )
        args.update(kw)
        return run_episode(**args)

    def test_trace_shape(self, pair, codebooks, tables, clf, reachable):
        ep = self._run(pair, codebooks, tables, clf, reachable)
        assert len(ep.visited) == len(ep.ambiguities) == len(ep.predictions)
        assert ep.moves_used == len(ep.visited) - 1
        assert ep.predicted_class == ep.predictions[-1]
        assert ep.correct == (ep.predicted_class == ep.true_class)
        assert ep.start == ep.visited[0]

    def test_unambiguous_start_terminates_immediately(
        self, pair, codebooks, tables, clf, reachable
    ):
        # Place the object so the start view is its least ambiguous one.
        least = tables["A"].r_a_quats[np.argmin(tables["A"].ambiguity)]
        true_pose = compose(so3.Rotation(reachable.quats[0]), so3.Rotation(least))
        ep = self._run(
            pair, codebooks, tables, clf, reachable, true_pose=true_pose, start=0
        )
        assert ep.moves_used == 0
        assert ep.terminated_reason == policy.TERMINATED_BELOW_THRESHOLD
        assert ep.correct

    def test_hidden_start_moves(self, pair, codebooks, tables, clf, reachable, hidden_rotation):
        true_pose = compose(so3.Rotation(reachable.quats[0]), hidden_rotation)
        ep = self._run(
            pair, codebooks, tables, clf, reachable, true_pose=true_pose, start=0
        )
        assert ep.moves_used >= 1

    def test_deterministic(self, pair, codebooks, tables, clf, reachable):
        e1 = self._run(pair, codebooks, tables, clf, reachable, noise_sigma=0.05, seed=11)
        e2 = self._run(pair, codebooks, tables, clf, reachable, noise_sigma=0.05, seed=11)
        assert e1 == e2

    def test_terminated_reason_consistency(self, pair, codebooks, tables, clf, reachable):
        rng = np.random.default_rng(3)
        for i in range(8):
            ep = self._run(
                pair, codebooks, tables, clf, reachable,
                true_pose=so3.random_rotation(rng), seed=i,
                true_class="B" if i % 2 else "A",
            )
            if ep.terminated_reason == policy.TERMINATED_BELOW_THRESHOLD:
                assert ep.ambiguities[-1] < 0.4
            else:
                assert ep.ambiguities[-1] >= 0.4
            if ep.terminated_reason == policy.TERMINATED_MOVE_BUDGET:
                assert ep.moves_used == 3
            assert ep.moves_used <= 3

    def test_visited_in_reachable(self, pair, codebooks, tables, clf, reachable):
        ep = self._run(pair, codebooks, tables, clf, reachable, seed=5)
        for r in ep.visited:
            # Visited views are the reachable rows themselves, bit for bit.
            assert np.any(np.all(reachable.quats == r.q, axis=1))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), start=st.integers(0, 2**16))
    @example(seed=9, start=4)
    def test_random_policy_paired_observations(self, pair, codebooks, tables, clf, reachable,
                                               seed, start):
        # Observation noise at step t comes from the stream (seed, "obs", t)
        # under both policies, so the first observation is shared, and so is
        # every later one taken from the same camera at the same step.
        start %= len(reachable)
        nb = self._run(pair, codebooks, tables, clf, reachable,
                       noise_sigma=0.05, seed=seed, start=start)
        rd = self._run(pair, codebooks, tables, clf, reachable,
                       noise_sigma=0.05, seed=seed, start=start, policy="random")
        assert nb.ambiguities[0] == rd.ambiguities[0]
        assert nb.predictions[0] == rd.predictions[0]
        for t, (cam_nb, cam_rd) in enumerate(zip(nb.visited, rd.visited)):
            if cam_nb == cam_rd:
                assert nb.ambiguities[t] == rd.ambiguities[t]
                assert nb.predictions[t] == rd.predictions[t]

    def test_validation(self, pair, codebooks, tables, clf, reachable):
        with pytest.raises(ValueError):
            self._run(pair, codebooks, tables, clf, reachable, max_moves=-1)
        with pytest.raises(ValueError):
            self._run(pair, codebooks, tables, clf, reachable, ambiguity_threshold=0.0)
        with pytest.raises(ValueError):
            self._run(pair, codebooks, tables, clf, reachable, policy="greedy")
        for start in (-1, len(reachable)):
            with pytest.raises(ValueError, match="start"):
                self._run(pair, codebooks, tables, clf, reachable, start=start)

    def test_json_roundtrip(self, pair, codebooks, tables, clf):
        # Start on a row of the 512-view grid that renormalizing on write
        # would move.
        sphere = build_sphere_reachable(512)
        moved = next(i for i, q in enumerate(sphere.quats)
                     if not np.array_equal(so3.normalize(q), q))
        ep = self._run(pair, codebooks, tables, clf, sphere, noise_sigma=0.05, seed=2,
                       start=moved)
        assert np.array_equal(ep.start.q, sphere.quats[moved])
        assert_episode_json(json.loads(json.dumps(ep.to_json())), ep)


@pytest.fixture(scope="module")
def experiments(pair, codebooks, tables, clf, reachable):
    kw = dict(
        n_episodes=40,
        objects=list(pair),
        codebooks=codebooks,
        tables=tables,
        classifier=clf,
        reachable=reachable,
        ambiguity_threshold=0.4,
        max_moves=3,
        noise_sigma=classify.default_noise_sigma(pair[0], 0.05),
        seed=0,
    )
    return (
        run_experiment(policy="next_best", **kw),
        run_experiment(policy="random", **kw),
    )


class TestRunExperiment:
    def test_episode_count_and_policy(self, experiments):
        nb, rd = experiments
        assert nb.policy == "next_best" and rd.policy == "random"
        assert len(nb.episodes) == len(rd.episodes) == 40

    def test_policies_are_paired(self, experiments):
        nb, rd = experiments
        for e1, e2 in zip(nb.episodes, rd.episodes):
            assert e1.true_class == e2.true_class
            assert e1.start == e2.start

    def test_success_by_budget_keys_and_range(self, experiments):
        nb, _ = experiments
        assert sorted(nb.success_by_budget) == [0, 1, 2, 3]
        for v in nb.success_by_budget.values():
            assert 0.0 <= v <= 1.0

    def test_success_by_budget_matches_helper(self, experiments):
        nb, _ = experiments
        for k, v in nb.success_by_budget.items():
            manual = np.mean([success_within_budget(e, k) for e in nb.episodes])
            assert v == pytest.approx(float(manual), abs=1e-12)

    def test_full_budget_matches_accuracy(self, experiments):
        nb, _ = experiments
        assert nb.success_by_budget[3] == pytest.approx(nb.accuracy, abs=1e-12)

    def test_next_best_at_least_random_at_full_budget(self, experiments):
        nb, rd = experiments
        assert nb.success_by_budget[3] >= rd.success_by_budget[0]

    def test_ambiguity_profile_non_increasing(self, experiments):
        # On average the next-best policy should not raise the estimated
        # ambiguity as it moves (small noise band allowed).
        nb, _ = experiments
        max_len = max(len(e.ambiguities) for e in nb.episodes)
        for step in range(1, max_len):
            prev = [e.ambiguities[step - 1] for e in nb.episodes if len(e.ambiguities) > step]
            cur = [e.ambiguities[step] for e in nb.episodes if len(e.ambiguities) > step]
            if len(cur) >= 5:
                assert np.mean(cur) <= np.mean(prev) + 0.02

    def test_save_episodes_jsonl(self, tmp_path, experiments):
        nb, _ = experiments
        path = tmp_path / "episodes.jsonl"
        nb.save_episodes(path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(nb.episodes)
        for line, e in zip(lines, nb.episodes):
            assert_episode_json(json.loads(line), e)

    def test_validation(self, pair, codebooks, tables, clf, reachable):
        with pytest.raises(ValueError):
            run_experiment(
                0, "next_best", list(pair), codebooks, tables, clf, reachable,
                0.4, 3, 0.0, 0,
            )


class TestSuccessWithinBudget:
    def test_prefix_semantics(self, pair, codebooks, tables, clf, reachable):
        ep = EpisodeResult(
            start=so3.Rotation(reachable.quats[0]),
            visited=tuple(so3.Rotation(reachable.quats[i]) for i in range(3)),
            ambiguities=(0.9, 0.6, 0.1),
            predictions=("B", "A", "A"),
            moves_used=2,
            terminated_reason=policy.TERMINATED_BELOW_THRESHOLD,
            predicted_class="A",
            true_class="A",
            correct=True,
        )
        assert not success_within_budget(ep, 0)
        assert success_within_budget(ep, 1)
        assert success_within_budget(ep, 2)
        # Budgets beyond the natural stop reuse the final prediction.
        assert success_within_budget(ep, 10)
