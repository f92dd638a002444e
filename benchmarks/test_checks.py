"""Each benchmark check passes real viewrank output and rejects a corrupted copy.

Run with ``python3 -m pytest benchmarks -q``.  The world is small (128 blobs,
a 384x8 codebook, 48 coarse views) so the module takes seconds.
"""

from dataclasses import replace

import numpy as np
import pytest

import checks
import viewrank
from tracing import Tracer
from viewrank import ambiguity, baselines, classify, codebook, policy, so3, synthworld

COARSE = 48
STEPS = 16
CIRCLES, STEPS_PER_CIRCLE = 3, 8
THRESHOLD, MAX_MOVES = 0.4, 3


@pytest.fixture(scope="module")
def world():
    a, b = synthworld.make_ambiguous_pair(0, n_blobs=128, d=16)
    grid = so3.build_view_grid(384, 8)
    cbs = [codebook.build_codebook(a, grid), codebook.build_codebook(b, grid)]
    coarse = so3.build_view_grid(COARSE, 1)
    tables = {
        "A": ambiguity.rank_object(a, [b], [cbs[1]], coarse, STEPS),
        "B": ambiguity.rank_object(b, [a], [cbs[0]], coarse, STEPS),
    }
    return a, b, cbs, tables


@pytest.fixture(scope="module")
def episodes(world):
    a, b, cbs, tables = world
    sigma = classify.default_noise_sigma(a, 0.05)
    splits = [ambiguity.split_by_threshold(tables[o.class_id], 0.5) for o in (a, b)]
    clf = classify.train([a, b], splits, noise_sigma=sigma, seed=0)
    reach = policy.build_trajectory_reachable(
        policy.TrajectoryGrid.evenly_spaced(CIRCLES, STEPS_PER_CIRCLE))
    return {pol: policy.run_experiment(8, pol, [a, b], cbs, tables, clf, reach, THRESHOLD,
                                       MAX_MOVES, sigma, 0)
            for pol in ("next_best", "random")}


def _with_pair(table, i, **changes):
    pairs = list(table.pairs)
    pairs[i] = replace(pairs[i], **changes)
    return replace(table, pairs=tuple(pairs))


def _table_fails(world, table):
    a, b, _, _ = world
    return checks.check_table(table, a, b, COARSE)[0]


def test_table_passes_and_counts_hidden_views(world):
    a, b, _, tables = world
    fails, saturated, hidden = checks.check_table(tables["A"], a, b, COARSE)
    assert fails == {}
    assert saturated == hidden > 0


def test_similarity_off_by_1e6_is_rejected(world):
    t = world[3]["A"]
    sims = [p.similarity for p in t.pairs]
    # A row inside the range, so that order and the min-max map are unchanged.
    i = next(k for k in range(1, len(sims) - 1) if sims[k - 1] - sims[k] > 1e-5)
    bad = _with_pair(t, i, similarity=sims[i] + 1e-6)
    assert list(_table_fails(world, bad)) == [i]


def test_hidden_view_below_saturation_is_rejected(world):
    a, b, _, tables = world
    t = tables["A"]
    i = 0  # rows are sorted, so the first row is a saturated hidden view
    assert t.pairs[0].similarity >= checks.SATURATED
    bad = _with_pair(t, i, similarity=1.0 - 1e-9)
    assert i in _table_fails(world, bad)


def test_wrong_ambiguity_and_order_are_rejected(world):
    t = world[3]["A"]
    amb = np.array(t.ambiguity)
    amb[5] += 1e-9
    assert list(_table_fails(world, replace(t, ambiguity=amb))) == [5]
    pairs = list(t.pairs)
    pairs[10], pairs[30] = pairs[30], pairs[10]
    assert _table_fails(world, replace(t, pairs=tuple(pairs)))


def test_off_grid_and_duplicate_views_are_rejected(world):
    t = world[3]["A"]
    tilted = so3.look_at([0.3, 0.2, 0.9])
    assert 3 in _table_fails(world, _with_pair(t, 3, r_a=tilted))
    assert {3, 4} <= set(_table_fails(world, _with_pair(t, 4, r_a=t.pairs[3].r_a)))


def test_saturated_band(world):
    a, b, _, tables = world
    fails, saturated, _ = checks.check_table(tables["A"], a, b, COARSE, saturated_band=(0.5, 0.05))
    assert len(fails) == (0 if abs(saturated / COARSE - 0.5) <= 0.05 else COARSE)
    fails, _, _ = checks.check_table(tables["A"], a, b, COARSE, saturated_band=(0.0, 0.01))
    assert len(fails) == COARSE


def test_sweep_cells(world):
    a, b, _, tables = world
    pair = [tables["A"], tables["B"]]
    thresholds, caps = [0.0, 0.5, 1.0], [0.5, 1.0]
    sweep = classify.threshold_sweep([a, b], pair, thresholds, caps, trials=2, eval_samples=20,
                                     noise_sigma=classify.default_noise_sigma(a, 0.5))
    args = (pair, thresholds, caps, 2, 20)
    assert checks.check_sweep(sweep, *args, min_gap=None) == {}
    rows = list(sweep.rows)
    rows[3] = replace(rows[3], n_samples=rows[3].n_samples - 1)
    assert list(checks.check_sweep(replace(sweep, rows=tuple(rows)), *args, min_gap=None)) == [3]
    rows = list(sweep.rows)
    rows[0] = replace(rows[0], status="ok")
    assert list(checks.check_sweep(replace(sweep, rows=tuple(rows)), *args, min_gap=None)) == [0]
    rows = list(sweep.rows)
    rows[4] = replace(rows[4], accuracy=1.5)
    assert list(checks.check_sweep(replace(sweep, rows=tuple(rows)), *args, min_gap=None)) == [4]
    assert set(checks.check_sweep(sweep, *args, min_gap=2.0)) == {2, 4}


def test_comparison_rows(world):
    a, b, _, tables = world
    report = baselines.metric_comparison(tables["A"], a, {"B": b})
    assert checks.check_comparison(report, tables["A"], a, {"B": b}) == {}
    for name in ("mse", "blob_match"):
        values = dict(report.values)
        values[name] = np.array(values[name])
        values[name][7] *= 1.0 + 1e-6
        values[name][7] += 1e-6
        bad = replace(report, values=values)
        assert 7 in checks.check_comparison(bad, tables["A"], a, {"B": b})
    spearman = dict(report.spearman, mse=report.spearman["mse"] + 1e-6)
    assert checks.check_comparison(replace(report, spearman=spearman), tables["A"], a, {"B": b})


def test_robustness_rows(world):
    a, b, _, tables = world
    sigmas = [0.0, 0.1]
    rows = baselines.noise_robustness_sweep(tables["A"], a, {"B": b}, sigmas)
    assert checks.check_robustness(rows, sigmas) == {}
    assert list(checks.check_robustness([(0.0, 0.99), rows[1]], sigmas)) == [0]


def _episode_fails(results):
    return checks.check_episodes(results, checks.trajectory_dirs(CIRCLES, STEPS_PER_CIRCLE),
                                 THRESHOLD, MAX_MOVES, ["A", "B"])


def _with_episode(results, pol, i, **changes):
    eps = list(results[pol].episodes)
    eps[i] = replace(eps[i], **changes)
    return dict(results, **{pol: replace(results[pol], episodes=tuple(eps))})


def test_episodes_pass(episodes):
    assert _episode_fails(episodes) == {}


def test_unreachable_visit_is_rejected(episodes):
    e = episodes["random"].episodes[2]
    visited = e.visited[:-1] + (so3.look_at([0.1, 0.2, 0.97]),)
    bad = _with_episode(episodes, "random", 2, visited=visited)
    assert _episode_fails(bad) == {8 + 2: "visited view is not reachable"}


def test_unpaired_episodes_are_rejected(episodes):
    e = episodes["random"].episodes[5]
    bad = _with_episode(episodes, "random", 5, ambiguities=(e.ambiguities[0] + 1e-9,)
                        + e.ambiguities[1:])
    assert _episode_fails(bad) == {5: "episodes not paired", 8 + 5: "episodes not paired"}


def test_episode_bookkeeping_is_rejected(episodes):
    e = episodes["next_best"].episodes[1]
    flipped = "move_budget" if e.terminated_reason == "below_threshold" else "below_threshold"
    assert 1 in _episode_fails(_with_episode(episodes, "next_best", 1, terminated_reason=flipped))
    assert 1 in _episode_fails(_with_episode(episodes, "next_best", 1,
                                             moves_used=e.moves_used + 1))
    sbb = dict(episodes["next_best"].success_by_budget)
    sbb[1] += 0.125
    bad = dict(episodes, next_best=replace(episodes["next_best"], success_by_budget=sbb))
    assert set(_episode_fails(bad)) == set(range(8))


def test_renderer_matches_viewrank(world):
    a = world[0]
    quats = np.array([so3.look_at([0.3, -0.5, 0.8], 0.7).q, so3.look_at([-1, 0, 0], 2.0).q])
    np.testing.assert_allclose(checks.render(a, quats),
                               synthworld.render_embeddings(a, quats), atol=1e-12)


def test_tracer_wraps_every_binding_and_restores():
    original = synthworld.render_embeddings
    with Tracer().install(viewrank) as tracer:
        assert ambiguity.render_embeddings is synthworld.render_embeddings is not original
        a, _ = synthworld.make_ambiguous_pair(1, n_blobs=16, d=4)
        with tracer.span("outer"):
            synthworld.render_embedding(a, so3.look_at([0, 0, 1]))
    assert synthworld.render_embeddings is original is ambiguity.render_embeddings
    summary = tracer.summary()
    assert summary["synthworld.render_embedding"]["calls"] == 1
    assert summary["synthworld.render_embeddings"]["calls"] == 1
    assert summary["so3.look_at"]["calls"] == 1
    outer = summary["stage.outer"]
    children = sum(summary[n]["s"] for n in ("synthworld.render_embedding", "so3.look_at"))
    assert outer["self_s"] == pytest.approx(outer["s"] - children, abs=1e-9)
    nid, parent, _, _ = tracer.arrays()
    inner = tracer.names.index("synthworld.render_embeddings")
    assert tracer.names[nid[parent[nid == inner][0]]] == "synthworld.render_embedding"


def test_untraced_tracer_wraps_only_named_calls():
    with Tracer(only=["ambiguity.rank_object"]).install(viewrank) as tracer:
        assert so3.look_at.__name__ == "look_at" and not hasattr(so3.look_at, "__wrapped__")
        assert hasattr(ambiguity.rank_object, "__wrapped__")
    assert tracer.names == ["ambiguity.rank_object"]


def test_dominance(episodes):
    same = {"next_best": episodes["next_best"], "random": episodes["next_best"]}
    assert checks.policy_margins(same, MAX_MOVES) == {k: 0.0 for k in range(MAX_MOVES + 1)}
    assert checks.check_dominance(same, MAX_MOVES, min_margin=0.0) == {}
    assert len(checks.check_dominance(same, MAX_MOVES)) == 16
