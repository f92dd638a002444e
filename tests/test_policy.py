"""Reachable sets, next-best-view selection, and closed-loop episodes."""

import json
import math

import numpy as np
import pytest

from viewrank import ambiguity, classify, policy, so3, synthworld
from viewrank.codebook import PoseHypothesis
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


def expected_ambiguity(r_next, hypotheses, tables) -> float:
    """Scalar oracle for next_best_view: mean table ambiguity seen from ``r_next``.

    Each hypothesis rotation is the (world-frame) object orientation for its
    class; the lookup key is the relative orientation ``r_next^T @ r_hyp``.
    """
    inv = r_next.inverse()
    return sum(tables[h.class_id].lookup(inv @ h.rotation) for h in hypotheses) / len(hypotheses)


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
            r = rs.rotation(i)
            theta = grid.circles[i // grid.steps]
            assert r.view_direction()[2] == pytest.approx(math.cos(theta), abs=1e-12)
            # Trajectory views carry zero in-plane roll.
            assert math.cos(r.roll_angle()) == pytest.approx(1.0, abs=1e-9)

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
        assert ReachableSet(np.array([[1.0, 0.0, 0.0, 0.0]])).rotation(0) == so3.Rotation.identity()

    def test_rotations_are_rows(self, reachable):
        for i in range(len(reachable)):
            assert np.array_equal(reachable.rotation(i).q, reachable.quats[i])

    def test_sphere_reachable(self):
        rs = build_sphere_reachable(50)
        assert len(rs) == 50


class TestExpectedAmbiguity:
    def test_matches_manual_mean(self, tables, reachable):
        rng = np.random.default_rng(2)
        hyps = [
            PoseHypothesis("A", so3.random_rotation(rng), 0.9),
            PoseHypothesis("B", so3.random_rotation(rng), 0.8),
        ]
        r = reachable.rotation(3)
        manual = 0.5 * (
            tables["A"].lookup(r.inverse() @ hyps[0].rotation)
            + tables["B"].lookup(r.inverse() @ hyps[1].rotation)
        )
        assert expected_ambiguity(r, hyps, tables) == pytest.approx(manual, abs=1e-15)

    def test_requires_hypotheses(self, tables, reachable):
        with pytest.raises(ValueError):
            next_best_view([], tables, reachable)


class TestNextBestView:
    def test_singleton_reachable(self, tables):
        only = so3.look_at([0.0, 1.0, 0.0])
        rs = ReachableSet(only.q[None, :])
        hyp = PoseHypothesis("A", so3.Rotation.identity(), 1.0)
        assert next_best_view([hyp], tables, rs) == only

    def test_matches_exhaustive_argmin(self, tables, reachable):
        rng = np.random.default_rng(5)
        for _ in range(5):
            hyps = [
                PoseHypothesis("A", so3.random_rotation(rng), 0.9),
                PoseHypothesis("B", so3.random_rotation(rng), 0.7),
            ]
            best = next_best_view(hyps, tables, reachable)
            vals = [expected_ambiguity(reachable.rotation(i), hyps, tables)
                    for i in range(len(reachable))]
            i = int(np.argmin(vals))
            assert best == reachable.rotation(i)
            assert expected_ambiguity(best, hyps, tables) == pytest.approx(min(vals), abs=1e-12)

    def test_membership(self, tables, reachable):
        hyp = PoseHypothesis("A", so3.look_at([1.0, 0.0, 0.0]), 1.0)
        best = next_best_view([hyp], tables, reachable)
        assert np.any(np.all(reachable.quats == best.q, axis=1))

    def test_chosen_views_show_patch(self, pair, tables):
        # With a correct pose hypothesis, the chosen view should expose the
        # differing patch for nearly every true pose.
        rs = build_sphere_reachable(128)
        rng = np.random.default_rng(8)
        a, _ = pair
        hits = 0
        for _ in range(100):
            pose = so3.random_rotation(rng)
            hyps = [PoseHypothesis("A", pose, 1.0), PoseHypothesis("B", pose, 1.0)]
            nbv = next_best_view(hyps, tables, rs)
            if synthworld.patch_visible(pair, nbv.inverse() @ pose):
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
        true_pose = reachable.rotation(0) @ ambiguity.best_orientation(tables["A"])
        ep = self._run(
            pair, codebooks, tables, clf, reachable, true_pose=true_pose, start=0
        )
        assert ep.moves_used == 0
        assert ep.terminated_reason == policy.TERMINATED_BELOW_THRESHOLD
        assert ep.correct

    def test_hidden_start_moves(self, pair, codebooks, tables, clf, reachable, hidden_rotation):
        true_pose = reachable.rotation(0) @ hidden_rotation
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

    def test_random_policy_paired_observations(self, pair, codebooks, tables, clf, reachable):
        # Both policies share the first observation stream, so the first
        # ambiguity estimate is identical under the same seed and start.
        nb = self._run(pair, codebooks, tables, clf, reachable,
                       noise_sigma=0.05, seed=9, start=4)
        rd = self._run(pair, codebooks, tables, clf, reachable,
                       noise_sigma=0.05, seed=9, start=4, policy="random")
        assert nb.ambiguities[0] == rd.ambiguities[0]
        assert nb.predictions[0] == rd.predictions[0]

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
        # Start on a row of the 512-view grid that renormalizing on load
        # would move.
        sphere = build_sphere_reachable(512)
        moved = next(i for i, q in enumerate(sphere.quats)
                     if not np.array_equal(so3.Rotation.from_quat(q).q, q))
        ep = self._run(pair, codebooks, tables, clf, sphere, noise_sigma=0.05, seed=2,
                       start=moved)
        assert np.array_equal(ep.start.q, sphere.quats[moved])
        data = json.loads(json.dumps(ep.to_json()))
        back = EpisodeResult.from_json(data)
        assert back.true_class == ep.true_class
        assert back.predicted_class == ep.predicted_class
        assert back.predictions == ep.predictions
        assert back.moves_used == ep.moves_used
        assert back.terminated_reason == ep.terminated_reason
        assert back.correct == ep.correct
        assert np.allclose(back.ambiguities, ep.ambiguities, atol=1e-15)
        assert np.array_equal(back.start.q, ep.start.q)
        assert all(np.array_equal(b.q, o.q) for b, o in zip(back.visited, ep.visited))
        data["visited"][-1] = [-c for c in data["visited"][-1]]
        with pytest.raises(ValueError):
            EpisodeResult.from_json(data)


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
        back = [EpisodeResult.from_json(json.loads(line)) for line in lines]
        assert [e.correct for e in back] == [e.correct for e in nb.episodes]

    def test_validation(self, pair, codebooks, tables, clf, reachable):
        with pytest.raises(ValueError):
            run_experiment(
                0, "next_best", list(pair), codebooks, tables, clf, reachable,
                0.4, 3, 0.0, 0,
            )


class TestSuccessWithinBudget:
    def test_prefix_semantics(self, pair, codebooks, tables, clf, reachable):
        ep = EpisodeResult(
            start=reachable.rotation(0),
            visited=tuple(reachable.rotation(i) for i in range(3)),
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
